"""Dataset synthesis: ingest, generate, simplify, dedup, split, export.

The flow per corpus section: draw a question-answer pair from the text,
rephrase the answer until it clears the readability gate (up to
max_attempts tries), embed the question, and reject it if it nearly
duplicates an accepted one. Every consumed section ends in exactly one
of four outcomes, so accepted + discarded_readability +
rejected_duplicate + generation_error always equals the number of
sections consumed.

Model calls go through two seams that the caller supplies: ChatFn takes
the wire's {"role", "content"} messages (one user turn per synthesis call)
and a temperature and returns the reply text, and EmbedFn embeds texts.
Workers run at most concurrency_limit model calls at once; up to _AHEAD x
that many finished sections wait for in-order consumption by one serial
stage of dedup decisions, so a fixed seed is bit-identical. That stage
appends each section to traces.jsonl, the one commit log, whose accepted
lines carry their samples, and after an accepted section's log line hands its
index line to the snapshot's writer (see snapshot), a buffered file that
appends the lines to index.tsv in place about 256 KB at a time. Every exit writes the lines
still pending and rebuilds samples.jsonl from the log.

One failure rule: a bad reply ends only its section, as a
generation_error; a call that still fails after its retries, a rejected
key or any other error ends the run, and no later section starts. Sections
before the failing one stay committed, it and all later ones leave no
trace, and the index is saved on the way out, so --resume finishes the
run with the samples, index and manifest an uninterrupted run writes. A
requested stop ends the run the same way, at the top of a loop turn.
"""

from __future__ import annotations

import json
import logging
import random
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from typing import Annotated, Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from . import prompts, runlog
from .dedup import DEDUP_THRESHOLD, QuestionIndex
from .gateway import Bound, ProtocolError, check_fields
from .runlog import (INDEX_FILENAME, MANIFEST_FILENAME, RUN_CONFIG_FILENAME, SAMPLES_FILENAME,
                     TRACES_FILENAME, write_atomic)
from .snapshot import ID_SEPARATORS, IndexWriter, index_line, load_index, save_index
from .textmetrics import MAX_FLESCH_SCORE, UnscorableTextError, flesch_reading_ease

logger = logging.getLogger(__name__)

OUTCOMES = ("accepted", "discarded_readability", "rejected_duplicate", "generation_error")

# The settings that decide what a run makes, recorded in run_config.json.
# target_samples, concurrency_limit, validation_size and subset_sizes decide
# how far and how fast a run goes, or what export makes of it, so a --resume
# may change them.
_RECORDED_FIELDS = ("generation_model", "embedding_model", "min_section_chars",
                    "accept_threshold", "max_attempts", "dedup_threshold", "random_seed",
                    "generation_temperature", "max_output_tokens")

# Signature of the chat seam: (messages, temperature) -> assistant text.
ChatFn = Callable[[Sequence[dict], float], str]
# (texts) -> a read-only float64 (n, d) matrix whose row k embeds texts[k].
EmbedFn = Callable[[Sequence[str]], np.ndarray]

# Depth 2 matched 4 on synth-latency's placeholder latencies; no real traffic set it.
_AHEAD = 2


class QaParseError(Exception):
    """Model output for the QA step was not the required JSON object."""


@dataclass(frozen=True)
class CorpusSection:
    section_id: str
    text: str


@dataclass(frozen=True)
class QaSample:
    sample_id: str
    question: str
    answer_original: str
    answer_simplified: str
    flesch_score: float
    attempts_used: Annotated[int, Bound(1)]
    section_id: str

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def from_record(cls, record: Mapping) -> "QaSample":
        if not isinstance(record, Mapping):
            raise TypeError(f"expected a JSON object, got {type(record).__name__}")
        names = [f.name for f in fields(cls)]
        missing = [name for name in names if name not in record]
        if missing:
            raise ValueError(f"missing key {missing[0]!r}")
        return cls(**{name: record[name] for name in names})


@dataclass(frozen=True)
class PipelineConfig:
    generation_model: Annotated[str, "chat model id for QA generation"] = "default-chat"
    embedding_model: Annotated[str, "embedding model id for dedup"] = "default-embed"
    min_section_chars: Annotated[int, "shorter corpus sections are dropped", Bound(0)] = 700
    accept_threshold: Annotated[
        float, "readability gate, inclusive", Bound(0, MAX_FLESCH_SCORE, open=True)] = 75.0
    max_attempts: Annotated[int, "simplify attempts per answer", Bound(1)] = 3
    dedup_threshold: Annotated[
        float, "cosine; strictly above rejects", Bound(0, 1, open=True)] = DEDUP_THRESHOLD
    target_samples: Annotated[int, "accepted samples to stop at"] = 10000
    validation_size: Annotated[int, "samples held out for eval", Bound(1)] = 1000
    subset_sizes: Annotated[tuple[int, ...], "training subset sizes"] = (100, 1000, 5000, 9000)
    concurrency_limit: Annotated[
        int, "model calls in flight in synth and per eval model", Bound(1)] = 8
    random_seed: Annotated[int, "seeds the corpus order and the split"] = 1234
    generation_temperature: Annotated[float, "synthesis only; eval runs at 0", Bound(0)] = 0.7
    max_output_tokens: Annotated[int, "reply cap per synthesis call", Bound(1)] = 1024

    def __post_init__(self):
        check_fields(self)
        if self.validation_size >= self.target_samples:
            raise ValueError("validation_size must be smaller than target_samples")
        training_pool = self.target_samples - self.validation_size
        if not self.subset_sizes:
            raise ValueError("subset_sizes must list at least one size")
        for size in self.subset_sizes:
            if not 1 <= size <= training_pool:
                raise ValueError(f"subset_sizes: {size} is not in [1, {training_pool}], "
                                 f"the training pool (target_samples - validation_size)")


@dataclass
class GenerationTrace:
    section_id: str
    outcome: str
    attempt_scores: list[float] = field(default_factory=list)
    sample: Optional[QaSample] = None  # set on accepted traces only
    nearest_id: Optional[str] = None
    nearest_similarity: Optional[float] = None
    error: Optional[str] = None
    started_at: Optional[str] = None
    finished_at: Optional[str] = None


@dataclass
class IngestResult:
    sections: list[CorpusSection]
    skipped_missing_text: int = 0
    excluded_short: int = 0


def read_corpus_file(path) -> list[dict]:
    """Line-delimited JSON records; raises ValueError naming path:line on an
    unparseable line."""
    return [record for _, record in runlog.replay(path)]


def ingest_corpus(records: Iterable[Mapping], config: PipelineConfig) -> IngestResult:
    """Filter raw records down to usable sections, in a seeded shuffle order.

    Records without a usable text field are skipped with a warning, short
    sections are dropped silently per the length floor. A record's id is
    its "id", else its "section_id", where absent, null or "" counts as
    missing, else one made from its shuffled position. Two kept sections
    with one id would share a sample id, a tab, LF or CR in an id would
    split its index.tsv line, and an id that UTF-8 cannot encode could not
    be written at all, so each raises ValueError. Warnings and errors number
    records from 1, in input order.
    """
    materialized = list(records)
    order = list(range(len(materialized)))
    random.Random(config.random_seed).shuffle(order)  # the permutation depends on length only
    result = IngestResult(sections=[])
    record_of_id: dict[str, int] = {}
    for position, number in enumerate(order):
        record = materialized[number]
        text = record.get("text") if isinstance(record, Mapping) else None
        if not isinstance(text, str) or not text:
            result.skipped_missing_text += 1
            logger.warning("corpus record %d has no usable text field; skipped", number + 1)
            continue
        if len(text) < config.min_section_chars:
            result.excluded_short += 1
            continue
        given = [v for v in (record.get("id"), record.get("section_id")) if v not in (None, "")]
        section_id = str(given[0]) if given else f"sec{position:06d}"
        if any(c in section_id for c in ID_SEPARATORS):
            raise ValueError(f"corpus record {number + 1} has a tab, LF or CR in its "
                             f"section id {section_id!r}")
        if not runlog.encodes(section_id):
            raise ValueError(f"corpus record {number + 1} has a section id that UTF-8 "
                             f"cannot encode: {section_id!r}")
        if section_id in record_of_id:
            first, second = sorted((record_of_id[section_id], number))
            raise ValueError(f"corpus records {first + 1} and {second + 1} share the "
                             f"section id {section_id!r}; ids must be unique")
        record_of_id[section_id] = number
        result.sections.append(CorpusSection(section_id=section_id, text=text))
    return result


def _parse_qa_payload(raw: str) -> Optional[tuple[str, str]]:
    try:
        payload = json.loads(raw.strip())
    except json.JSONDecodeError:
        return None
    if not isinstance(payload, dict) or set(payload) != {"question", "answer"}:
        return None
    question, answer = payload["question"], payload["answer"]
    if not isinstance(question, str) or not isinstance(answer, str):
        return None
    if not question or not answer:
        return None
    return question, answer


def generate_qa(
    section: CorpusSection,
    config: PipelineConfig,
    chat: ChatFn,
    template: str = prompts.QA_GENERATION_TEMPLATE,
) -> tuple[str, str]:
    """Step 1: question + original answer for a section.

    The model must return a strict two-field JSON object; one parse
    retry is allowed before the section is written off.
    """
    prompt = template.format(section_text=section.text)
    messages = [{"role": "user", "content": prompt}]
    raw = ""
    for _ in range(2):
        raw = chat(messages, config.generation_temperature)
        parsed = _parse_qa_payload(raw)
        if parsed is not None:
            return parsed
    raise QaParseError(f"unparseable QA output after retry: {raw[:200]!r}")


def simplify_until_pass(
    question: str,
    answer_original: str,
    config: PipelineConfig,
    chat: ChatFn,
    template: str = prompts.SIMPLIFY_TEMPLATE,
) -> tuple[list[float], Optional[str]]:
    """Step 2: rephrase until the score clears the gate, else discard.

    Returns every attempt's score and the first passing answer, or None
    when no attempt passes; once an attempt passes, no further calls are
    issued. Attempts after the first feed back the latest rephrase and its
    score (prompts.SIMPLIFY_FEEDBACK) so each round simplifies further.
    """
    if not question or not answer_original:
        raise ValueError("question and answer_original must be non-empty")
    current, feedback = answer_original, ""
    scores: list[float] = []
    for attempt in range(1, config.max_attempts + 1):
        prompt = template.format(question=question, answer=current, feedback=feedback)
        candidate = chat([{"role": "user", "content": prompt}], config.generation_temperature)
        score = flesch_reading_ease(candidate).flesch_score
        scores.append(score)
        if score >= config.accept_threshold:
            return scores, candidate
        current = candidate
        feedback = prompts.SIMPLIFY_FEEDBACK.format(
            attempt=attempt + 1, score=score, threshold=config.accept_threshold)
    return scores, None


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


def _process_section(
    section: CorpusSection,
    config: PipelineConfig,
    chat: ChatFn,
    embed: EmbedFn,
    qa_template: str = prompts.QA_GENERATION_TEMPLATE,
    simplify_template: str = prompts.SIMPLIFY_TEMPLATE,
) -> tuple[GenerationTrace, Optional[tuple[QaSample, np.ndarray]]]:
    """Everything a worker can decide without touching shared state.

    Returns the section's trace and, for a gate-passing answer, the
    candidate sample with its question embedding. The serial stage
    settles a candidate's outcome with the dedup decision.

    A bad reply (QaParseError, ProtocolError, UnscorableTextError) ends
    only this section, as a generation_error; so does a sample text that
    UTF-8 cannot encode, which the log could not hold. Anything else, such as a
    NetworkError after the gateway's retries, propagates and ends the run
    before this section is consumed.
    """
    trace = GenerationTrace(
        section_id=section.section_id, outcome="generation_error", started_at=_utc_now()
    )
    candidate = None
    try:
        question, answer_original = generate_qa(section, config, chat, qa_template)
        scores, simplified = simplify_until_pass(
            question, answer_original, config, chat, simplify_template
        )
        trace.attempt_scores = scores
        if simplified is None:
            trace.outcome = "discarded_readability"
        else:
            for text in (question, answer_original, simplified):
                if not runlog.encodes(text):
                    raise ProtocolError(f"reply text that UTF-8 cannot encode: {text[:200]!r}")
            sample = QaSample(
                sample_id=f"qa-{section.section_id}",
                question=question,
                answer_original=answer_original,
                answer_simplified=simplified,
                flesch_score=scores[-1],
                attempts_used=len(scores),
                section_id=section.section_id,
            )
            # Embedding is paid only for gate-passing samples, right before
            # the dedup decision.
            candidate = (sample, embed([question])[0])
    except (QaParseError, ProtocolError, UnscorableTextError) as exc:
        trace.error = str(exc)
    trace.finished_at = _utc_now()
    return trace, candidate


def ordered_map(fn: Callable, items: Iterable, limit: int,
                wanted: Optional[Callable[[], int]] = None) -> Iterator:
    """Yield fn(item) for each item, in order, until wanted() reaches 0.

    At most `limit` calls run at once. Up to max(limit, min(_AHEAD * limit,
    wanted())) items are submitted ahead, so a slow head does not idle the
    other workers and a stop drops at most limit - 1 started items; with
    wanted None, every item is wanted. Once a call raises, no item after it
    starts, and its error is raised here in its turn. On close or an
    exception, queued calls are cancelled and running ones joined.
    """
    pool = ThreadPoolExecutor(max_workers=limit)
    items, pending = enumerate(items), deque()
    failed: list[int] = []  # positions whose call raised; appends only

    def call(position, item):
        if failed and position > min(failed):
            return None  # never yielded: the earlier failure is raised first
        try:
            return fn(item)
        except BaseException:
            failed.append(position)
            raise

    try:
        while (want := _AHEAD * limit if wanted is None else wanted()) > 0:
            depth = max(limit, min(_AHEAD * limit, want))
            more = islice(items, max(0, depth - len(pending)))
            pending.extend(pool.submit(call, *x) for x in more)
            if not pending:
                return
            yield pending.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def load_samples(path) -> list[QaSample]:
    """The samples of a samples.jsonl file; raises ValueError naming
    path:line on a line that is not a valid sample record."""
    return [s for _, s in runlog.replay(path, QaSample.from_record, "sample record")]


def _load_resume_state(out_dir: Path, config: PipelineConfig):
    """The consumed section ids, outcome counts and index on disk.

    Reads samples from the log, never from samples.jsonl. Refuses (ValueError
    naming path:line) a line that is not a valid trace: one of OUTCOMES, a
    section no other trace has, and if accepted a valid sample. Refuses
    (ValueError) unless the index and the accepted samples list the same ids
    in the same order, as every exit that runs run_pipeline's finally leaves
    them; a SIGKILL can leave them apart.
    """
    consumed: set[str] = set()
    counts = {outcome: 0 for outcome in OUTCOMES}
    accepted_ids = []

    def trace_of(record):
        outcome, section_id = record["outcome"], record["section_id"]
        if outcome not in counts:
            raise ValueError(f"unknown outcome {outcome!r}")
        if section_id in consumed:
            raise ValueError(f"section id {section_id!r} repeats an earlier trace")
        consumed.add(section_id)
        return outcome, QaSample.from_record(record["sample"]) if outcome == "accepted" else None

    traces_path = out_dir / TRACES_FILENAME
    if traces_path.exists():
        for _, (outcome, sample) in runlog.replay(traces_path, trace_of, "trace record"):
            counts[outcome] += 1
            if sample is not None:
                accepted_ids.append(sample.sample_id)
    index_path = out_dir / INDEX_FILENAME
    if index_path.exists():
        index = load_index(index_path, threshold=config.dedup_threshold)
    else:
        index = QuestionIndex(threshold=config.dedup_threshold)
    if index.ids != accepted_ids:
        raise ValueError(
            f"{out_dir}: cannot resume: {INDEX_FILENAME} holds {len(index)} ids and "
            f"{TRACES_FILENAME} {len(accepted_ids)} accepted samples, and they must be "
            f"the same ids in the same order"
        )
    return consumed, counts, index


def _check_run_config(out_dir: Path, run_config: dict) -> None:
    """Refuse (ValueError) to resume a run that recorded no settings, or
    other settings than run_config, naming each setting that differs."""
    path = out_dir / RUN_CONFIG_FILENAME
    if not path.exists():
        raise ValueError(f"{out_dir}: cannot resume: {RUN_CONFIG_FILENAME}, which records "
                         "the settings the run started under, is missing")
    try:
        recorded = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # a decode error too; neither names the file
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(recorded, dict):
        raise ValueError(f"{path}: not a JSON object")
    changed = [key for key, value in run_config.items() if recorded.get(key) != value]
    if changed:
        raise ValueError(f"{out_dir}: cannot resume: the run started under another "
                         f"{', '.join(changed)} (see {RUN_CONFIG_FILENAME})")


def run_pipeline(
    config: PipelineConfig,
    records: Iterable[Mapping],
    chat: ChatFn,
    embed: EmbedFn,
    out_dir,
    resume: bool = False,
    limit: Optional[int] = None,
    qa_template: str = prompts.QA_GENERATION_TEMPLATE,
    simplify_template: str = prompts.SIMPLIFY_TEMPLATE,
    stopped: Callable[[], bool] = lambda: False,
) -> dict:
    """Drive the full synthesis loop, persist its artifacts, return the manifest.

    Writes traces.jsonl, samples.jsonl, manifest.json, and the dedup
    index snapshot under out_dir. Corpus exhaustion before
    target_samples is a warning plus a manifest flag, never a failure.
    With resume=True, consumed sections are skipped and the log and index
    are extended; otherwise samples, traces and index are deleted first.
    Every exit after that rewrites samples.jsonl from the log, and only a
    finished run writes manifest.json, which every run first deletes. A
    fresh run records the settings that decide its outputs in
    run_config.json, and resume=True refuses other settings before any file
    is touched. Once stopped() is true, no more sections are submitted and
    the loop ends at the top of its next turn, where the log and the index
    agree; the run then raises KeyboardInterrupt in place of writing
    manifest.json.
    """
    ingest = ingest_corpus(records, config)  # a bad corpus fails before any file is touched
    out_dir = Path(out_dir)
    run_config = {f"pipeline.{name}": getattr(config, name) for name in _RECORDED_FIELDS}
    run_config.update({"prompts.qa_generation": qa_template, "prompts.simplify": simplify_template})
    if resume:
        _check_run_config(out_dir, run_config)
    else:
        for name in (SAMPLES_FILENAME, TRACES_FILENAME, INDEX_FILENAME):
            (out_dir / name).unlink(missing_ok=True)
        with write_atomic(out_dir / RUN_CONFIG_FILENAME) as fh:
            json.dump(run_config, fh, indent=2)
            fh.write("\n")
    consumed, counts, index = _load_resume_state(out_dir, config)
    (out_dir / MANIFEST_FILENAME).unlink(missing_ok=True)
    sections = [s for s in ingest.sections[:limit] if s.section_id not in consumed]

    def work(section: CorpusSection):
        return _process_section(section, config, chat, embed, qa_template, simplify_template)

    writer = IndexWriter(out_dir / INDEX_FILENAME)
    try:
        with open(out_dir / TRACES_FILENAME, "a", encoding="utf-8") as traces_fh, \
                closing(ordered_map(work, sections, config.concurrency_limit,
                                    lambda: 0 if stopped() else
                                    config.target_samples - counts["accepted"])) as results:
            for trace, candidate in results:
                line = None
                if candidate is not None:
                    sample, embedding = candidate
                    decision = index.check_and_insert(sample.sample_id, embedding)
                    if decision.accepted:
                        line = index_line(sample.sample_id, embedding)
                        trace.outcome = "accepted"
                        trace.sample = sample
                    else:
                        trace.outcome = "rejected_duplicate"
                        trace.nearest_id = decision.nearest_id
                        trace.nearest_similarity = decision.nearest_similarity
                counts[trace.outcome] += 1
                traces_fh.write(runlog.encode(asdict(trace)))
                if line is not None:  # after its log line, so the index is never ahead of it
                    writer.append(line)
    finally:
        try:
            save_index(writer)
        finally:  # samples.jsonl is the log's accepted samples
            log = (r for _, r in runlog.replay(out_dir / TRACES_FILENAME))
            runlog.write_records(out_dir / SAMPLES_FILENAME,
                                 (r["sample"] for r in log if r["outcome"] == "accepted"))
    if stopped():
        raise KeyboardInterrupt

    shortfall = counts["accepted"] < config.target_samples
    if shortfall:
        logger.warning(
            "corpus exhausted at %d of %d target samples; dataset is partial",
            counts["accepted"], config.target_samples,
        )
    manifest = {
        "config": asdict(config),
        "counts": dict(counts),
        "consumed_sections": sum(counts.values()),
        "skipped_missing_text": ingest.skipped_missing_text,
        "excluded_short": ingest.excluded_short,
        "sample_count": counts["accepted"],
        "shortfall": shortfall,
    }
    with write_atomic(out_dir / MANIFEST_FILENAME) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


@dataclass
class DatasetSplits:
    validation: list[QaSample]
    subsets: dict[int, list[QaSample]]


def split_dataset(samples: Sequence[QaSample], config: PipelineConfig) -> DatasetSplits:
    """Seeded shuffle, then carve the validation set and nested subsets.

    Subsets are prefixes of one shuffled training pool, so the 100 set
    is contained in the 1000 set and so on up; none of them overlaps
    the validation set.
    """
    largest = max(config.subset_sizes)
    needed = config.validation_size + largest
    if len(samples) < needed:
        raise ValueError(
            f"need at least {needed} samples "
            f"(validation {config.validation_size} + largest subset {largest}), "
            f"got {len(samples)}"
        )
    shuffled = list(samples)
    random.Random(config.random_seed).shuffle(shuffled)
    validation = shuffled[: config.validation_size]
    pool = shuffled[config.validation_size :]
    subsets = {size: pool[:size] for size in config.subset_sizes}
    return DatasetSplits(validation=validation, subsets=subsets)


def export_finetune_file(split: Sequence[QaSample], system_prompt: str, path) -> int:
    """Write chat-format training records, one JSON object per line.

    Each record carries exactly three messages: the system prompt, the
    question, and the simplified answer. Returns the record count.
    """
    runlog.write_records(path, ({"messages": [
        {"role": "system", "content": system_prompt},
        {"role": "user", "content": sample.question},
        {"role": "assistant", "content": sample.answer_simplified},
    ]} for sample in split))
    return len(split)
