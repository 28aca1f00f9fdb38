"""Per-layer metrics from one traced repetition's spans and artifacts.

Every workload reports every metric; a layer the workload does not run
reports 0. The metric each one should move is mapped in README.md.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from datetime import datetime
from pathlib import Path

OUTCOMES = ("accepted", "discarded_readability", "rejected_duplicate", "generation_error")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["t0"], s["t1"]))
    return {s["id"]: (s["t1"] - s["t0"]) - _covered(children[s["id"]], s["t0"], s["t1"])
            for s in spans}


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if n * (1 - pct / 100.0) >= 10:
            return pct
    return 50.0


def load_spans(path: Path) -> list[dict]:
    data = json.loads(path.read_text(encoding="utf-8"))
    keys = ("id", "parent", "name", "t0", "t1", "thread", "attrs")
    return [dict(zip(keys, record)) for record in data["spans"]]


def _section_ms(traces_path: Path) -> list[float]:
    def stamp(value: str) -> float:
        return datetime.fromisoformat(value).timestamp()

    with open(traces_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return sorted(1000.0 * (stamp(r["finished_at"]) - stamp(r["started_at"])) for r in records)


def per_layer(spec: dict, rep_dir: Path, result: dict) -> dict[str, float]:
    spans = load_spans(rep_dir / "spans.json")
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def count(name):
        return len(by_name[name])

    def busy(name):
        return sum(s["t1"] - s["t0"] for s in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    wall = result["wall_s"]

    words = sum(s["attrs"].get("words", 0) for s in by_name["textmetrics.score"])
    m["textmetrics.calls"] = count("textmetrics.score")
    m["textmetrics.busy_s"] = busy("textmetrics.score")
    m["textmetrics.us_per_text"] = 1e6 * ratio(m["textmetrics.busy_s"], m["textmetrics.calls"])
    m["textmetrics.us_per_word"] = 1e6 * ratio(m["textmetrics.busy_s"], words)
    m["textmetrics.distinct_word_frac"] = ratio(result.get("distinct_words", 0),
                                                result.get("words_scored", 0))

    posts = count("endpoint.post")
    m["gateway.chat_calls"] = count("gateway.chat")
    m["gateway.embed_calls"] = count("gateway.embed")
    m["gateway.chat_self_s"] = sum(selfs[s["id"]] for s in by_name["gateway.chat"])
    m["gateway.embed_self_s"] = sum(selfs[s["id"]] for s in by_name["gateway.embed"])
    m["gateway.retries"] = posts - m["gateway.chat_calls"] - m["gateway.embed_calls"]

    m["endpoint.busy_s"] = busy("endpoint.post")
    m["endpoint.inflight_mean"] = ratio(m["endpoint.busy_s"], wall)
    m["endpoint.occupancy"] = ratio(m["endpoint.inflight_mean"], spec["concurrency_limit"])

    checks = sorted(by_name["dedup.check"], key=lambda s: s["t0"])
    last = checks[len(checks) - math.ceil(len(checks) / 10):] if checks else []
    accepted = sum(1 for s in checks if s["attrs"].get("accepted"))
    scan_entries = sum(s["attrs"].get("entries", 0) for s in by_name["dedup.scan"])
    m["dedup.check_calls"] = len(checks)
    m["dedup.check_busy_s"] = busy("dedup.check")
    m["dedup.check_us_mean"] = 1e6 * ratio(m["dedup.check_busy_s"], len(checks))
    m["dedup.check_us_last_decile"] = 1e6 * ratio(sum(s["t1"] - s["t0"] for s in last), len(last))
    m["dedup.index_entries"] = max([accepted] + [s["attrs"].get("entries", 0)
                                                 for s in by_name["dedup.load"]])
    m["dedup.reject_frac"] = ratio(len(checks) - accepted, len(checks))
    m["dedup.save_s"] = busy("dedup.save")
    m["dedup.load_s"] = busy("dedup.load")
    m["dedup.scan_s"] = busy("dedup.scan")
    m["dedup.scan_pairs_per_s"] = ratio(scan_entries * (scan_entries - 1) / 2, m["dedup.scan_s"])

    runs = by_name["pipeline.run"]
    m["pipeline.run_s"] = busy("pipeline.run")
    m["pipeline.self_s"] = sum(selfs[s["id"]] for s in runs)
    m["pipeline.ingest_s"] = busy("pipeline.ingest")
    counts = dict.fromkeys(OUTCOMES, 0)
    section_ms: list[float] = []
    if runs:
        manifest = json.loads((rep_dir / "out" / "manifest.json").read_text(encoding="utf-8"))
        counts.update(manifest["counts"])
        section_ms = _section_ms(rep_dir / "out" / "traces.jsonl")
    tail = tail_percentile(len(section_ms))
    m["pipeline.sections"] = len(section_ms)
    m["pipeline.section_ms_p50"] = nearest_rank(section_ms, 50.0) if section_ms else 0.0
    m["pipeline.section_ms_tail"] = nearest_rank(section_ms, tail) if section_ms else 0.0
    m["pipeline.section_ms_tail_pct"] = tail if section_ms else 0.0
    m["pipeline.chat_calls_per_accept"] = (
        ratio(m["gateway.chat_calls"], counts["accepted"]) if runs else 0.0
    )
    for outcome in OUTCOMES:
        m[f"pipeline.outcome.{outcome}"] = counts[outcome]
    m["pipeline.split_s"] = busy("pipeline.split")
    m["pipeline.export_s"] = busy("pipeline.export")

    m["evalharness.generate_s"] = busy("evalharness.generate")
    m["evalharness.build_s"] = busy("evalharness.build")
    m["evalharness.similarity_s"] = busy("evalharness.similarity")
    m["evalharness.emit_s"] = busy("evalharness.emit")
    m["evalharness.records"] = sum(s["attrs"].get("records", 0)
                                   for s in by_name["evalharness.build"])
    m["evalharness.missing"] = sum(s["attrs"].get("missing", 0)
                                   for s in by_name["evalharness.build"])

    m["config.load_s"] = ratio(busy("config.load"), count("config.load"))
    m["trace.spans"] = len(spans)
    m["trace.span_errors"] = sum(1 for s in spans if "error" in s["attrs"])
    return m
