"""One measured repetition of a workload, in a fresh process.

    python3 perfbench/worker.py SPEC_JSON REP_DIR SPAWN_TIME {run,trace}

Runs the workload's commands through `convoforge.cli.main` with the
benchmark endpoint as every transport, and writes `result.json` (and, when
traced, `spans.json`) into REP_DIR. The timed region is from the first
`cli.main` call to the return of the last; `setup_s` runs from SPAWN_TIME,
taken by the parent just before it started this process, to the first call
into the layer under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from convoforge import cli, dedup, evalharness, pipeline  # noqa: E402
from convoforge.textmetrics import tokenize_words  # noqa: E402

from endpoint import BenchEndpoint  # noqa: E402
from tracer import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    spec_path, rep_dir, spawn_time, mode = argv
    spawn_time = float(spawn_time)
    rep_dir = Path(rep_dir)
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))

    tracer = Tracer(run_id=rep_dir.name) if mode == "trace" else None
    if tracer is not None:
        install(tracer, cli, pipeline, evalharness, dedup)
    responses = None
    if "responses" in spec:
        responses = json.loads(Path(spec["responses"]).read_text(encoding="utf-8"))
    endpoint = BenchEndpoint(spec["seed"], spec["latency_ms"], spec["embedding_dim"],
                             responses=responses, tracer=tracer)

    stamps: dict[str, float] = {}
    entry = getattr(cli, spec["layer_entry"])

    def layer_entry(*args, **kwargs):
        if "setup_s" not in stamps:
            stamps["setup_s"] = time.time() - spawn_time
        return entry(*args, **kwargs)

    setattr(cli, spec["layer_entry"], layer_entry)

    commands = [[a.replace("{rep}", str(rep_dir)) for a in c] for c in spec["commands"]]
    exit_codes, outputs = [], []
    start = time.perf_counter()
    for command in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exit_codes.append(cli.main(command, transport_factory=lambda *_: endpoint))
        outputs.append(out.getvalue())
    wall_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "mode": mode,
        "setup_s": stamps.get("setup_s"),
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_codes": exit_codes,
        "stdout": outputs,
    }
    if tracer is not None:
        words = [w.lower() for text in tracer.texts for w in tokenize_words(text)]
        result["words_scored"] = len(words)
        result["distinct_words"] = len(set(words))
        tracer.dump(rep_dir / "spans.json")
    (rep_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
