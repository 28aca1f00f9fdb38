"""convoforge benchmark: one command runs one workload and checks its output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the program under test is the
checkout's `src/convoforge`, driven through `convoforge.cli.main`. The
inputs are generated from the seed into `.perfbench_work/` (removed on
exit), then the workload is repeated, each repetition in a fresh worker
process, until the time budget is spent. Every repetition's output is
checked. With `--trace 0` the last stdout line reports the end-to-end
metrics (medians over repetitions); with `--trace 1` it reports the
per-layer metrics from traced repetitions, which alternate with untraced
ones so that `trace.overhead_frac` compares the two. See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/convoforge/cli.py", "tests/data/readability_corpus.jsonl",
            "tests/readability_oracle.py")

WORKLOADS = ("synth-cpu", "synth-latency", "eval-replay")
HOLDOUT_SEED_OFFSET = 1_000_003
# Whole-run ceiling, under the 180 s a run may take; a repetition that
# would cross it is killed and counted as failed.
HARD_LIMIT_S = 170.0


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


class Runner:
    def __init__(self, spec_path: Path, work: Path, deadline: float):
        self.spec_path = spec_path
        self.work = work
        self.deadline = deadline
        self.count = 0

    def rep(self, mode: str) -> tuple[Path, dict | None]:
        """Start one worker process, wait for it, and return its result."""
        self.count += 1
        rep_dir = self.work / f"rep{self.count:03d}-{mode}"
        rep_dir.mkdir()
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(rep_dir / "stderr.txt", "wb") as err:
            spawn = time.time()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(self.spec_path), str(rep_dir),
                 repr(spawn), mode],
                cwd=str(ROOT), stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # Also on an interrupt: leave no worker running.
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        result_path = rep_dir / "result.json"
        if code != 0 or not result_path.exists():
            tail = (rep_dir / "stderr.txt").read_text(errors="replace")[-2000:]
            print(f"worker {rep_dir.name} exited with {code}:\n{tail}", file=sys.stderr)
            return rep_dir, None
        return rep_dir, json.loads(result_path.read_text(encoding="utf-8"))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a convoforge checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import checks
    import inputs
    import layers

    started = time.monotonic()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        spec = inputs.make_inputs(ROOT, work / "inputs", args.workload, args.seed)
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        measure_from = time.monotonic()
        budget_end = measure_from + args.seconds
        runner = Runner(spec_path, work, started + HARD_LIMIT_S)

        # Untraced and traced repetitions alternate in a traced run; an
        # untraced run repeats untraced ones. Two repetitions at least, so
        # the samples.jsonl digests of one seed can be compared.
        modes = ("run", "trace") if args.trace else ("run",)
        results: dict[str, list[tuple[Path, dict]]] = {m: [] for m in modes}
        attempted = failed = 0
        problems: list[str] = []
        # The first checked synth output's samples.jsonl digest; every later
        # repetition of the seed must match it.
        reference = None
        longest = begin = 0.0
        for done in itertools.count():
            now = time.monotonic()
            if done:
                longest = max(longest, now - begin)
            if done >= 2 and now + longest > budget_end:
                break
            if now + longest > started + HARD_LIMIT_S:
                break
            mode = modes[done % len(modes)]
            begin = now
            rep_dir, result = runner.rep(mode)
            attempted += spec["items"]
            if result is None:
                failed += spec["items"]
                problems.append(f"{rep_dir.name}: worker failed")
                continue
            bad, found = checks.check_rep(spec, rep_dir, result, reference)
            if spec["kind"] == "synth" and reference is None and not found:
                reference = checks.samples_digest(rep_dir)
            failed += bad
            problems += [f"{rep_dir.name}: {p}" for p in found]
            if mode == "trace":
                result["layers"] = layers.per_layer(spec, rep_dir, result)
            results[mode].append((rep_dir, result))
            for bulky in ("out/index.tsv", "finetune.jsonl", "spans.json"):
                (rep_dir / bulky).unlink(missing_ok=True)
        measured_s = time.monotonic() - measure_from
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    untraced = [r for _, r in results["run"]]
    wall = _median([r["wall_s"] for r in untraced])
    if args.trace:
        traced = [r for _, r in results["trace"]]
        names = traced[0]["layers"].keys() if traced else []
        values = {n: _median([r["layers"][n] for r in traced]) for n in names}
        traced_wall = _median([r["wall_s"] for r in traced])
        values["trace.overhead_frac"] = (traced_wall - wall) / wall if wall else 0.0
    else:
        values = {
            "wall_s": wall,
            "items_per_s": _median([spec["items"] / r["wall_s"] for r in untraced]),
            "cpu_s": _median([r["cpu_s"] for r in untraced]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
            "setup_s": _median([r["setup_s"] for r in untraced if r["setup_s"] is not None]),
            "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": args.seed + HOLDOUT_SEED_OFFSET,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "input_sizes": spec["input_sizes"],
        "latency_ms": spec["latency_ms"],
        "repetitions": {m: len(v) for m, v in results.items()},
        "rep_wall_s": {m: [round(r["wall_s"], 4) for _, r in v] for m, v in results.items()},
        "measured_s": round(measured_s, 3),
    }
    for p in problems:
        print(f"check failed: {p}")
    for name, value in values.items():
        print(f"{name:40s} {value:.6g} {units.get(name, '')}")
    print("meta " + json.dumps(meta, sort_keys=True))
    # A declared metric that no repetition produced is reported as 0.
    metrics = {n: {"value": values.get(n, 0.0), "unit": u} for n, u in units.items()}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
