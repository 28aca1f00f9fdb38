"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs each workload once at a small size, asserts that its checks pass on
the real output, then feeds each check a corrupted copy of one artifact
(a dropped index line, an altered percentage, a missing planted pair, ...)
and asserts that the check meant for it flags it. It also asserts that a traced
repetition yields every per-layer metric BENCHMARK.json declares. Exits 0
when every assertion holds.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

from run import ROOT, Runner

sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402

SCALE = {"synth-cpu": 0.2, "eval-replay": 0.1}


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


def _rewrite_jsonl(path: Path, edit) -> None:
    records = [json.loads(line) for line in _lines(path)]
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def drop_index_line(rep: Path, result: dict) -> None:
    path = rep / "out" / "index.tsv"
    path.write_text("".join(_lines(path)[:-1]), encoding="utf-8")


def duplicate_index_vector(rep: Path, result: dict) -> None:
    path = rep / "out" / "index.tsv"
    lines = _lines(path)
    lines[1] = lines[1].split("\t")[0] + "\t" + lines[0].split("\t")[1]
    path.write_text("".join(lines), encoding="utf-8")


def shift_outcome_count(rep: Path, result: dict) -> None:
    path = rep / "out" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["counts"]["accepted"] -= 1
    manifest["counts"]["rejected_duplicate"] += 1
    path.write_text(json.dumps(manifest), encoding="utf-8")


def stiffen_answer(rep: Path, result: dict) -> None:
    def edit(records):
        records[0]["answer_simplified"] = (
            "Comprehensive administrative reorganization necessitates extraordinarily "
            "elaborate documentation throughout institutional deliberations."
        )
    _rewrite_jsonl(rep / "out" / "samples.jsonl", edit)


def alter_sample_bytes(rep: Path, result: dict) -> None:
    # A field no other check reads, so only the digest comparison sees it.
    def edit(records):
        records[-1]["attempts_used"] += 1
    _rewrite_jsonl(rep / "out" / "samples.jsonl", edit)


def drop_export_record(rep: Path, result: dict) -> None:
    path = rep / "finetune.jsonl"
    path.write_text("".join(_lines(path)[1:]), encoding="utf-8")


def _edit_report(rep: Path, edit) -> None:
    path = rep / "eval" / "report.json"
    reports = json.loads(path.read_text(encoding="utf-8"))
    edit(reports)
    path.write_text(json.dumps(reports), encoding="utf-8")


def alter_percentage(rep: Path, result: dict) -> None:
    def edit(reports):
        reports[0]["pct_conversational"] = round(reports[0]["pct_conversational"] + 0.1, 1)
    _edit_report(rep, edit)


def flip_record_class(rep: Path, result: dict) -> None:
    def edit(reports):
        record = reports[1]["records"][0]
        record["is_conversational"] = not record["is_conversational"]
    _edit_report(rep, edit)


def lose_record(rep: Path, result: dict) -> None:
    def edit(reports):
        reports[0]["records"].pop()
        reports[0]["n_samples"] -= 1
    _edit_report(rep, edit)


def drop_similarity(rep: Path, result: dict) -> None:
    def edit(reports):
        reports[0]["mean_semantic_similarity"] = None
    _edit_report(rep, edit)


def drop_planted_pair(rep: Path, result: dict) -> None:
    result["stdout"][-1] = "".join(result["stdout"][-1].splitlines(keepends=True)[1:])


def add_unplanted_pair(rep: Path, result: dict) -> None:
    result["stdout"][-1] = "violation: q-9998 ~ q-9999 similarity 0.810000\n" + result["stdout"][-1]


def exit_clean(rep: Path, result: dict) -> None:
    result["exit_codes"][-1] = 0


# Each corruption, with the part of the message its intended check gives.
CORRUPTIONS = {
    "synth-cpu": (
        (drop_index_line, "ids differ between samples.jsonl"),
        (duplicate_index_vector, "indexed pairs above cosine"),
        (shift_outcome_count, "!= predicted"),
        (stiffen_answer, "re-score below"),
        (alter_sample_bytes, "differs between repetitions"),
        (drop_export_record, "export wrote"),
        (drop_planted_pair, "planted pairs missing"),
        (add_unplanted_pair, "unplanted pairs listed"),
        (exit_clean, "exit codes"),
    ),
    "eval-replay": (
        (alter_percentage, "pct_conversational"),
        (flip_record_class, "classed against the planted mix"),
        (lose_record, "n_samples + missing + embedding_failures"),
        (drop_similarity, "no semantic similarity"),
    ),
}


def test_self_time() -> None:
    spans = [
        {"id": 1, "parent": None, "t0": 0.0, "t1": 10.0},
        {"id": 2, "parent": 1, "t0": 1.0, "t1": 3.0},
        {"id": 3, "parent": 1, "t0": 2.0, "t1": 5.0},
        {"id": 4, "parent": 1, "t0": 8.0, "t1": 12.0},
    ]
    selfs = layers.self_times(spans)
    assert abs(selfs[1] - 4.0) < 1e-12, selfs
    assert layers.tail_percentile(2000) == 99.0 and layers.tail_percentile(400) == 95.0


def main() -> int:
    test_self_time()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer_names = {m["name"] for m in declared["per_layer"]}
    work = ROOT / ".perfbench_work" / f"selftest-{int(time.time())}"
    failures = []
    try:
        for workload, corruptions in CORRUPTIONS.items():
            spec = inputs.make_inputs(ROOT, work / workload / "inputs", workload, seed=7,
                                      scale=SCALE[workload])
            spec_path = work / workload / "spec.json"
            spec_path.write_text(json.dumps(spec), encoding="utf-8")
            runner = Runner(spec_path, work / workload, time.monotonic() + 120)
            rep, result = runner.rep("trace")
            if result is None:
                failures.append(f"{workload}: worker failed")
                continue
            # Synth checks compare samples.jsonl with the clean output's digest.
            reference = checks.samples_digest(rep) if spec["kind"] == "synth" else None
            failed, problems = checks.check_rep(spec, rep, result, reference)
            if failed or problems:
                failures.append(f"{workload}: clean output flagged: {problems}")
            names = set(layers.per_layer(spec, rep, result)) | {"trace.overhead_frac"}
            if names != per_layer_names:
                failures.append(f"{workload}: per-layer names differ from BENCHMARK.json: "
                                f"{sorted(names ^ per_layer_names)}")
            for corrupt, expected in corruptions:
                copy = rep.parent / f"{rep.name}-{corrupt.__name__}"
                shutil.copytree(rep, copy)
                copied = json.loads(json.dumps(result))
                corrupt(copy, copied)
                failed, problems = checks.check_rep(spec, copy, copied, reference)
                caught = failed and any(expected in p for p in problems)
                status = "flagged" if caught else "MISSED"
                print(f"{workload:12s} {corrupt.__name__:24s} {status}: {problems}")
                if status == "MISSED":
                    failures.append(f"{workload}: {corrupt.__name__} not flagged")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
