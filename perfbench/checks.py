"""Output checks for one repetition of each workload.

Each check returns (failed_items, messages): the number of work items the
output gets wrong, and one message per problem found. A problem that
spoils a whole artifact fails every item of the repetition. The checks
read only the files the program wrote and the values the input generator
planted; they recompute what they can independently (numpy cosine, the
readability oracle's classes) and use the package's scorer only to
re-score the synthesized answers against the gate.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

from convoforge.textmetrics import flesch_reading_ease
from inputs import DEDUP_THRESHOLD


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _exit_codes(spec: dict, result: dict) -> list[str]:
    if result.get("exit_codes") != spec["expected_exit"]:
        return [f"exit codes {result.get('exit_codes')} != {spec['expected_exit']}"]
    return []


def samples_digest(rep_dir: Path) -> str:
    return hashlib.sha256((rep_dir / "out" / "samples.jsonl").read_bytes()).hexdigest()


def check_synth(spec: dict, rep_dir: Path, result: dict,
                reference: str | None) -> tuple[int, list[str]]:
    items = spec["items"]
    problems = _exit_codes(spec, result)
    if problems:
        return items, problems
    out = rep_dir / "out"
    failed = 0
    if reference is not None and samples_digest(rep_dir) != reference:
        problems.append("samples.jsonl differs between repetitions of one seed")
        failed += items

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    counts = manifest["counts"]
    consumed = manifest["consumed_sections"]
    traces = _read_jsonl(out / "traces.jsonl")
    if sum(counts.values()) != consumed or consumed != items or len(traces) != items:
        problems.append(f"outcome counts {counts} sum to {sum(counts.values())}, "
                        f"consumed {consumed}, traces {len(traces)}, sections {items}")
        failed += abs(sum(counts.values()) - items) or items
    if counts != spec["predicted"]:
        off = sum(abs(counts.get(k, 0) - v) for k, v in spec["predicted"].items())
        problems.append(f"outcome counts {counts} != predicted {spec['predicted']}")
        failed += max(off, 1)

    samples = _read_jsonl(out / "samples.jsonl")
    sample_ids = [s["sample_id"] for s in samples]
    index_ids, rows = [], []
    with open(out / "index.tsv", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                sample_id, decimals = line.rstrip("\n").split("\t")
                index_ids.append(sample_id)
                rows.append(np.fromstring(decimals, sep=" "))
    mismatched = set(sample_ids) ^ set(index_ids)
    if sample_ids != index_ids:
        problems.append(f"{len(mismatched)} ids differ between samples.jsonl "
                        f"({len(sample_ids)}) and index.tsv ({len(index_ids)})")
        failed += max(len(mismatched), 1)

    if rows:
        matrix = np.vstack(rows)
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        gram = np.triu(matrix @ matrix.T, k=1)
        close = int(np.count_nonzero(gram > DEDUP_THRESHOLD))
        if close:
            problems.append(f"{close} indexed pairs above cosine {DEDUP_THRESHOLD}")
            failed += 2 * close

    unreadable = [s["sample_id"] for s in samples
                  if flesch_reading_ease(s["answer_simplified"]).flesch_score
                  < spec["accept_threshold"]]
    if unreadable:
        problems.append(f"{len(unreadable)} answers re-score below {spec['accept_threshold']}, "
                        f"first {unreadable[0]}")
        failed += len(unreadable)

    if spec.get("export_size"):
        questions = {s["question"] for s in samples}
        failed += _check_export(spec, rep_dir / "finetune.jsonl", questions, problems)
    if spec.get("planted_pairs"):
        failed += _check_violations(spec, result["stdout"][-1], problems)
    return min(failed, items), problems


def _check_export(spec: dict, path: Path, questions: set, problems: list) -> int:
    records = _read_jsonl(path)
    size = spec["export_size"]
    bad = sum(
        1 for r in records
        if [m.get("role") for m in r.get("messages", [])] != ["system", "user", "assistant"]
        or not all(m.get("content") for m in r["messages"])
        or r["messages"][1]["content"] not in questions
    )
    if len(records) != size or bad:
        problems.append(f"export wrote {len(records)} records ({bad} malformed), want {size} "
                        "records of three messages")
        return abs(len(records) - size) + bad or 1
    return 0


def check_eval(spec: dict, rep_dir: Path, result: dict,
               reference: str | None) -> tuple[int, list[str]]:
    items = spec["items"]
    problems = _exit_codes(spec, result)
    if problems:
        return items, problems
    failed = 0
    reports = json.loads((rep_dir / "eval" / "report.json").read_text(encoding="utf-8"))
    by_label = {r["model_label"]: r for r in reports}
    if set(by_label) != set(spec["planted_pct"]):
        return items, [f"report models {sorted(by_label)} != {sorted(spec['planted_pct'])}"]
    size = spec["validation_size"]
    for label, want_pct in spec["planted_pct"].items():
        report = by_label[label]
        total = report["n_samples"] + report["missing_count"] + report["embedding_failure_count"]
        if total != size:
            problems.append(f"{label}: n_samples + missing + embedding_failures = {total} != {size}")
            failed += abs(size - report["n_samples"]) or 1
        planted = set(spec["planted_conversational"][label])
        wrong = sum(1 for r in report["records"]
                    if r["is_conversational"] != (r["sample_id"] in planted))
        if wrong:
            problems.append(f"{label}: {wrong} records classed against the planted mix")
            failed += wrong
        if report["pct_conversational"] != want_pct:
            problems.append(f"{label}: pct_conversational {report['pct_conversational']} "
                            f"!= planted {want_pct}")
            failed += max(wrong, 1)
        if report["mean_semantic_similarity"] is None:
            problems.append(f"{label}: no semantic similarity computed")
            failed += size
    return min(failed, items), problems


_VIOLATION_RE = re.compile(r"^violation: (\S+) ~ (\S+) similarity ([0-9.]+)$", re.MULTILINE)
_COUNT_RE = re.compile(r"^(\d+) violating pairs$", re.MULTILINE)


def _check_violations(spec: dict, stdout: str, problems: list) -> int:
    """dedup-check must list exactly the planted pairs, and count them."""
    found = {tuple(sorted(m[:2])) for m in _VIOLATION_RE.findall(stdout)}
    planted = {tuple(pair) for pair in spec["planted_pairs"]}
    missing, extra = planted - found, found - planted
    count = _COUNT_RE.search(stdout)
    failed = len(missing) + len(extra)
    if missing:
        problems.append(f"violations: {len(missing)} planted pairs missing")
    if extra:
        problems.append(f"violations: {len(extra)} unplanted pairs listed")
    if count is None or int(count.group(1)) != len(planted):
        problems.append(f"violation count line {count.group(0) if count else None!r} "
                        f"!= {len(planted)}")
        failed = max(failed, 1)
    return failed


CHECKS = {"synth": check_synth, "eval": check_eval}


def check_rep(spec: dict, rep_dir: Path, result: dict,
              reference: str | None = None) -> tuple[int, list[str]]:
    """Check one repetition; `reference` is an earlier synth repetition's
    `samples_digest`, which this one's samples.jsonl must match."""
    return CHECKS[spec["kind"]](spec, rep_dir, result, reference)
