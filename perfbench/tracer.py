"""In-memory span recorder for the traced benchmark run.

Spans are opened around the package's public calls by rebinding each
name where its caller looks it up (for example `pipeline.flesch_reading_ease`
and `cli.run_pipeline`), so the program itself is unchanged. Each span
records its name, start, end, parent, thread and a few result attributes;
the spans stay in memory and are written out once, after the timed region.

Parent links follow the calling thread's open spans. A span opened on a
thread with none open (a pipeline pool thread) hangs under the innermost
open span marked `adopts`, which is the `run_pipeline` span.
"""

from __future__ import annotations

import functools
import json
import threading
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.texts: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._adopter = None

    def span(self, name: str, adopts: bool = False) -> "_Span":
        return _Span(self, name, adopts)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, adopts: bool = False, on_result=None) -> None:
        """Rebind owner.attr to a version that records a span per call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, adopts) as attrs:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(attrs, args, result)
                return result

        setattr(owner, attr, traced)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


class _Span:
    __slots__ = ("tracer", "name", "adopts", "id", "parent", "prev_adopter", "attrs", "t0")

    def __init__(self, tracer: Tracer, name: str, adopts: bool):
        self.tracer = tracer
        self.name = name
        self.adopts = adopts

    def __enter__(self) -> dict:
        tracer = self.tracer
        stack = tracer._stack()
        with tracer._lock:
            tracer._next_id += 1
            self.id = tracer._next_id
            self.parent = stack[-1] if stack else tracer._adopter
            self.prev_adopter = tracer._adopter
            if self.adopts:
                tracer._adopter = self.id
        stack.append(self.id)
        self.attrs = {}
        self.t0 = perf_counter()
        return self.attrs

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = perf_counter()
        tracer = self.tracer
        tracer._stack().pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        record = (self.id, self.parent, self.name, self.t0, t1,
                  threading.get_ident(), self.attrs)
        with tracer._lock:
            if self.adopts:
                tracer._adopter = self.prev_adopter
            tracer.spans.append(record)
        return False


def install(tracer: Tracer, cli, pipeline, evalharness, dedup) -> None:
    """Wrap every layer boundary the per-layer metrics are computed from."""

    def score(attrs, args, result):
        attrs["words"] = result.word_count
        tracer.texts.append(args[0])

    def check(attrs, args, result):
        attrs["accepted"] = result.accepted

    def loaded(attrs, args, result):
        attrs["entries"] = len(result)

    def scanned(attrs, args, result):
        attrs["entries"] = len(args[0])

    def report(attrs, args, result):
        attrs["records"] = result.n_samples
        attrs["missing"] = result.missing_count

    w = tracer.wrap
    w(cli, "load_run_config", "config.load")
    w(cli, "run_pipeline", "pipeline.run", adopts=True)
    w(pipeline, "ingest_corpus", "pipeline.ingest")
    w(pipeline, "_process_section", "pipeline.section")
    w(pipeline, "flesch_reading_ease", "textmetrics.score", on_result=score)
    w(evalharness, "flesch_reading_ease", "textmetrics.score", on_result=score)
    w(cli, "complete_chat", "gateway.chat")
    w(evalharness, "complete_chat", "gateway.chat")
    w(cli, "embed_texts", "gateway.embed")
    w(evalharness, "embed_texts", "gateway.embed")
    w(dedup.QuestionIndex, "check_and_insert", "dedup.check", on_result=check)
    w(pipeline, "save_index", "dedup.save")
    w(pipeline, "load_index", "dedup.load", on_result=loaded)
    w(cli, "load_index", "dedup.load", on_result=loaded)
    w(cli, "find_violations", "dedup.scan", on_result=scanned)
    w(cli, "split_dataset", "pipeline.split")
    w(cli, "export_finetune_file", "pipeline.export")
    w(cli, "generate_responses", "evalharness.generate")
    w(cli, "build_report", "evalharness.build", on_result=report)
    w(evalharness, "semantic_similarity_report", "evalharness.similarity")
    w(cli, "emit_report", "evalharness.emit")
