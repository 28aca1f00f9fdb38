"""Evaluation harness: conversational-percentage and semantic similarity.

Runs a model endpoint over the held-out validation questions and
reports two numbers per model: the percentage of responses whose
reading-ease score clears the conversational threshold (60 by default,
inclusive) and the mean cosine similarity between each response and the
expected answer. Every model's chat calls run at once, each model through
its own pipeline.ordered_map, so concurrency_limit caps each model's calls
in flight, while the responses keep sample order. Scoring runs after all
replies are in, so it does not contend for the GIL with the calls. A failed
call (network or protocol) never aborts a run; its sample is excluded from
the metrics with an explicit count, and any run with missing responses is
flagged as incomplete. A rejected API key does abort it: every model's
queued calls are cancelled and their running ones joined.

Quality outcomes that require GPU training or hosted fine-tuning jobs
are out of desk-scale reach by nature; NOT_DESK_REPRODUCIBLE names
them. This harness reproduces the shape of those reports against any
live endpoint the user supplies, not their published values.
"""

from __future__ import annotations

import csv
import json
import logging
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .dedup import cosine_similarity
from .gateway import NetworkError, ProtocolError
# Unused here, but perfbench/tracer.py rebinds complete_chat and embed_texts on this module.
from .gateway import complete_chat, embed_texts  # noqa: F401
from .pipeline import ChatFn, EmbedFn, QaSample, ordered_map
from .runlog import write_atomic
from .textmetrics import (
    CONVERSATIONAL_THRESHOLD,
    UnscorableTextError,
    flesch_reading_ease,
    is_conversational,
)

logger = logging.getLogger(__name__)

# Outcomes that cannot be reproduced without GPU fine-tuning runs or
# hosted training jobs; covered by shape-level tests and the live
# evaluation path instead of value assertions.
NOT_DESK_REPRODUCIBLE = (
    "conversational-response percentages of actually fine-tuned checkpoints",
    "semantic-similarity means of actually fine-tuned checkpoints",
    "int8-versus-bfloat16 fine-tuning convergence comparison",
)

REPORT_JSON = "report.json"
RECORDS_CSV = "records.csv"
AGGREGATE_CSV = "aggregate.csv"

# Evaluation decodes deterministically, whatever the synthesis temperature.
EVAL_TEMPERATURE = 0.0


@dataclass
class EvalRecord:
    sample_id: str
    question: str
    expected_answer: str
    generated_answer: str
    flesch_score: float
    is_conversational: bool
    semantic_similarity: Optional[float] = None


@dataclass
class EvalReport:
    model_label: str
    threshold: float
    n_samples: int
    pct_conversational: float
    mean_semantic_similarity: Optional[float]
    missing_count: int
    embedding_failure_count: int
    validation_size: int
    complete_run: bool
    training_set_size: Optional[int] = None
    records: list[EvalRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        # Records hold only scalars, so shallow copies equal asdict's deep ones.
        return {**vars(self), "records": [dict(vars(r)) for r in self.records]}


def generate_responses(
    models: Sequence[tuple[str, ChatFn]], samples: Sequence[QaSample], limit: int = 1
) -> list[list[Optional[str]]]:
    """Each (system_prompt, chat) model's responses, one per sample in sample
    order; None marks a failed call.

    Every model's calls run at once, each model with at most `limit` in
    flight. The models' streams are drained round-robin, so a stream starts
    once the one before it has yielded its first response. An error that
    escapes one stream closes them all: queued calls are cancelled and
    running ones joined.
    """
    if any(not system_prompt for system_prompt, _ in models):
        raise ValueError("system_prompt must be non-empty")
    if not samples:
        raise ValueError("validation samples must be non-empty")

    def responder(system_prompt: str, chat: ChatFn):
        system = {"role": "system", "content": system_prompt}

        def respond(sample: QaSample) -> Optional[str]:
            messages = [system, {"role": "user", "content": sample.question}]
            try:
                return chat(messages, EVAL_TEMPERATURE)
            except (NetworkError, ProtocolError) as exc:
                logger.warning("response for %s failed: %s", sample.sample_id, exc)
                return None

        return respond

    with ExitStack() as stack:
        streams = [stack.enter_context(closing(ordered_map(responder(*model), samples, limit)))
                   for model in models]
        rows = zip(*streams, strict=True)  # one sample's responses per row, model after model
        return [list(responses) for responses in zip(*rows)]


def pct_conversational(records: Sequence[EvalRecord]) -> float:
    """Share of records flagged conversational, as a one-decimal percentage."""
    if not records:
        raise ValueError("records must be non-empty")
    passing = sum(1 for r in records if r.is_conversational)
    return round(100.0 * passing / len(records), 1)


def semantic_similarity_report(
    records: Sequence[EvalRecord], embed: EmbedFn
) -> tuple[list[EvalRecord], Optional[float], int]:
    """Fill per-record similarities; failures drop the record with a count."""
    kept: list[EvalRecord] = []
    failures = 0
    for record in records:
        try:
            generated_vec, expected_vec = embed(
                [record.generated_answer, record.expected_answer]
            )
            record.semantic_similarity = cosine_similarity(generated_vec, expected_vec)
            kept.append(record)
        except (NetworkError, ProtocolError, ValueError) as exc:
            failures += 1
            logger.warning("embedding for %s failed: %s", record.sample_id, exc)
    sims = [r.semantic_similarity for r in kept]
    mean = sum(sims) / len(sims) if sims else None
    return kept, mean, failures


def build_report(
    model_label: str,
    samples: Sequence[QaSample],
    responses: Sequence[Optional[str]],
    threshold: float = CONVERSATIONAL_THRESHOLD,
    embed: Optional[EmbedFn] = None,
    training_set_size: Optional[int] = None,
) -> EvalReport:
    """Score responses[i] against samples[i] and assemble the per-model report.

    Missing responses and unscorable text are excluded with a count;
    when an embed function is given, embedding failures are excluded
    too, so n_samples + missing_count + embedding_failure_count always
    reproduces the validation-set size.
    """
    records: list[EvalRecord] = []
    missing = 0
    for sample, generated in zip(samples, responses, strict=True):
        if generated is None:
            missing += 1
            continue
        try:
            stats = flesch_reading_ease(generated)
        except UnscorableTextError as exc:
            missing += 1
            logger.warning("response for %s is unscorable: %s", sample.sample_id, exc)
            continue
        records.append(
            EvalRecord(
                sample_id=sample.sample_id,
                question=sample.question,
                expected_answer=sample.answer_simplified,
                generated_answer=generated,
                flesch_score=stats.flesch_score,
                is_conversational=is_conversational(stats, threshold),
            )
        )
    embedding_failures = 0
    mean_similarity: Optional[float] = None
    if embed is not None and records:
        records, mean_similarity, embedding_failures = semantic_similarity_report(
            records, embed
        )
    if not records:
        raise ValueError(f"no scorable responses for model {model_label!r}")
    report = EvalReport(
        model_label=model_label,
        threshold=threshold,
        n_samples=len(records),
        pct_conversational=pct_conversational(records),
        mean_semantic_similarity=mean_similarity,
        missing_count=missing,
        embedding_failure_count=embedding_failures,
        validation_size=len(samples),
        complete_run=missing == 0,
        training_set_size=training_set_size,
        records=records,
    )
    assert report.n_samples + report.missing_count + report.embedding_failure_count == len(samples)
    return report


def emit_report(reports: Sequence[EvalReport], directory) -> dict[str, Path]:
    """Write report.json, records.csv, and aggregate.csv under directory;
    none replaces its old file unless all three were written."""
    directory = Path(directory)
    paths = {
        "json": directory / REPORT_JSON,
        "records": directory / RECORDS_CSV,
        "aggregate": directory / AGGREGATE_CSV,
    }
    with write_atomic(paths["json"]) as json_fh, \
            write_atomic(paths["records"]) as records_fh, \
            write_atomic(paths["aggregate"]) as aggregate_fh:
        json.dump([r.to_dict() for r in reports], json_fh, indent=2)
        json_fh.write("\n")
        records, aggregate = csv.writer(records_fh), csv.writer(aggregate_fh)
        records.writerow(
            ["model_label", "sample_id", "flesch_score", "is_conversational", "semantic_similarity"]
        )
        aggregate.writerow(
            ["model", "training_set_size", "pct_conversational", "mean_semantic_similarity"]
        )
        for report in reports:
            for r in report.records:
                sim = "" if r.semantic_similarity is None else f"{r.semantic_similarity:.6f}"
                records.writerow(
                    [report.model_label, r.sample_id, repr(r.flesch_score),
                     str(r.is_conversational).lower(), sim]
                )
            size = "" if report.training_set_size is None else str(report.training_set_size)
            sim = (
                ""
                if report.mean_semantic_similarity is None
                else f"{report.mean_semantic_similarity:.6f}"
            )
            aggregate.writerow([report.model_label, size, f"{report.pct_conversational:.1f}", sim])
    return paths
