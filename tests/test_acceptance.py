"""Acceptance gate: one test per shipped criterion, at stated tolerances.

Each test prints a single PASS line on success; pytest -v shows the
per-criterion verdicts. Timing budgets are asserted with
time.perf_counter around the relevant work only.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from conftest import DATA_DIR, SimFns
from convoforge.cli import _chat_fn
from convoforge.dedup import EmbeddingVector, QuestionIndex
from convoforge.evalharness import (
    NOT_DESK_REPRODUCIBLE,
    build_report,
    emit_report,
    generate_responses,
)
from convoforge.gateway import GatewayConfig, TranscriptTransport
from convoforge.pipeline import (
    PipelineConfig,
    QaSample,
    export_finetune_file,
    run_pipeline,
    simplify_until_pass,
    split_dataset,
)
from convoforge.prompts import CONCISE_FINETUNE_PROMPT
from convoforge.textmetrics import TextStats, flesch_reading_ease, is_conversational

CONVERSATIONAL_TEXT = (
    "Well, this answer is short on purpose. It uses small words. "
    "You can read it out loud in one breath. That is the whole idea."
)
STIFF_TEXT = (
    "Comprehensive organizational restructuring necessitates extraordinarily "
    "elaborate documentation requirements, systematically perpetuating "
    "incomprehensible administrative terminology."
)


def make_samples(n: int) -> list[QaSample]:
    return [
        QaSample(
            sample_id=f"qa-{i}", question=f"Question number {i}?",
            answer_original=f"Original {i}.", answer_simplified=f"Simple {i}.",
            flesch_score=90.0, attempts_used=1, section_id=f"sec-{i}",
        )
        for i in range(n)
    ]


def test_criterion_1_scoring_anchors_and_frozen_corpus(pool_answer, readability_corpus):
    """Worked example 83+-2, one-word ceiling 121.22+-0.01, corpus >=90% within +-2, <1s."""
    start = time.perf_counter()

    table_stats = flesch_reading_ease(pool_answer)
    assert abs(table_stats.flesch_score - 83.0) <= 2.0

    ceiling = flesch_reading_ease("Go.").flesch_score
    assert abs(ceiling - 121.22) <= 0.01

    assert len(readability_corpus) == 50
    within = sum(
        1 for doc in readability_corpus
        if abs(flesch_reading_ease(doc["text"]).flesch_score - doc["oracle_score"]) <= 2.0
    )
    elapsed = time.perf_counter() - start
    assert within >= 45, f"{within}/50 within +-2"
    assert elapsed < 1.0, f"scoring took {elapsed:.3f}s"
    print(f"criterion 1: PASS (example {table_stats.flesch_score:.2f}, "
          f"ceiling {ceiling:.2f}, corpus {within}/50, {elapsed * 1000:.0f}ms)")


def test_criterion_2_threshold_boundaries():
    """Score 75.0 passes the gate, cosine 0.80 is kept, 0.8000001 is not; milliseconds."""
    start = time.perf_counter()

    # readability gate: >= is inclusive at exactly 75.0
    at_gate = TextStats(sentence_count=1, word_count=10, syllable_count=12,
                        flesch_score=75.0)
    assert is_conversational(at_gate, threshold=75.0)
    below = math.nextafter(75.0, -math.inf)
    assert not is_conversational(
        TextStats(1, 10, 12, flesch_score=below), threshold=75.0
    )

    # the same comparison drives the simplify loop
    score = flesch_reading_ease(CONVERSATIONAL_TEXT).flesch_score
    config = PipelineConfig(accept_threshold=score)
    result = simplify_until_pass(
        "Q?", "orig", config, lambda messages, temperature: CONVERSATIONAL_TEXT
    )
    assert result.accepted and result.attempts_used == 1

    # dedup: similarity strictly above the threshold rejects; 0.80 exactly stays
    index = QuestionIndex(threshold=0.8)
    index.check_and_insert("anchor", EmbeddingVector.from_iterable([1.0, 0.0]))
    exactly = index.check_and_insert("at", EmbeddingVector.from_iterable([4.0, 3.0]))
    assert exactly.accepted
    assert exactly.nearest_similarity == 0.8
    above = index.check_and_insert("over", EmbeddingVector.from_iterable([4.000001, 3.0]))
    assert not above.accepted
    assert above.nearest_similarity > 0.8

    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"boundary checks took {elapsed:.3f}s"
    print(f"criterion 2: PASS (gate inclusive at 75.0, cosine 0.8 kept, "
          f"{elapsed * 1000:.1f}ms)")


def test_criterion_3_simulated_pipeline_run(corpus50_records, golden_manifest, tmp_path):
    """50-section dry run: outcomes conserve, answers re-score >=75, 3 runs identical, <5s."""
    start = time.perf_counter()

    outputs = []
    for i in range(3):
        fns = SimFns()
        out_dir = tmp_path / f"run{i}"
        result = run_pipeline(
            PipelineConfig(), corpus50_records, fns.chat, fns.embed, out_dir
        )
        counts = result.manifest["counts"]
        assert sum(counts.values()) == 50 == result.manifest["consumed_sections"]
        assert counts == golden_manifest["counts"]
        for sample in result.samples:
            rescored = flesch_reading_ease(sample.answer_simplified).flesch_score
            assert rescored >= 75.0
            assert rescored == sample.flesch_score
        outputs.append((
            (out_dir / "samples.jsonl").read_bytes(),
            (out_dir / "manifest.json").read_bytes(),
            (out_dir / "index.tsv").read_bytes(),
        ))

    elapsed = time.perf_counter() - start
    assert outputs[0] == outputs[1] == outputs[2]
    assert elapsed < 5.0, f"three dry runs took {elapsed:.3f}s"
    print(f"criterion 3: PASS (counts {golden_manifest['counts']}, "
          f"3 identical runs, {elapsed:.2f}s)")


def test_criterion_4_dedup_matches_brute_force():
    """>=100 randomized trials, dims 8-768, up to 1000 vectors, agreement within 1e-9, <30s."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    tolerance = 1e-9

    trials = [
        (int(rng.integers(2, 121)), int(rng.integers(8, 769))) for _ in range(97)
    ] + [(1000, 8), (1000, 256), (1000, 768)]

    checked_pairs = 0
    for count, dim in trials:
        threshold = float(rng.uniform(0.05, 0.95))
        index = QuestionIndex(threshold=threshold)
        vectors = rng.standard_normal((count, dim))
        accepted = np.empty((0, dim))
        for i in range(count):
            probe = vectors[i]
            # independent reference: plain numpy cosine against every entry
            if len(accepted):
                sims = (accepted @ probe) / (
                    np.linalg.norm(accepted, axis=1) * np.linalg.norm(probe)
                )
                ref_best = float(np.max(sims))
            else:
                ref_best = None
            decision = index.check_and_insert(
                f"v{i}", EmbeddingVector.from_iterable(probe.tolist())
            )
            if ref_best is None:
                assert decision.accepted
            else:
                checked_pairs += len(accepted)
                assert decision.nearest_similarity == pytest.approx(
                    ref_best, abs=tolerance
                )
                if abs(ref_best - threshold) > tolerance:
                    assert decision.accepted == (ref_best <= threshold)
            if decision.accepted:
                accepted = np.vstack([accepted, probe[None, :]])
        assert len(index) == len(accepted)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"equivalence sweep took {elapsed:.3f}s"
    print(f"criterion 4: PASS ({len(trials)} trials, {checked_pairs} comparisons "
          f"within {tolerance}, {elapsed:.2f}s)")


def test_criterion_5_dataset_splits():
    """10,000 samples: validation 1000 plus nested 100/1000/5000/9000, <1s."""
    samples = make_samples(10_000)
    config = PipelineConfig()

    start = time.perf_counter()
    splits = split_dataset(samples, config)
    again = split_dataset(samples, config)
    elapsed = time.perf_counter() - start

    assert len(splits.validation) == 1000
    validation_ids = {s.sample_id for s in splits.validation}
    previous: list[QaSample] = []
    for size in (100, 1000, 5000, 9000):
        subset = splits.subsets[size]
        assert len(subset) == size
        assert validation_ids.isdisjoint(s.sample_id for s in subset)
        assert subset[: len(previous)] == previous  # nested prefixes
        previous = subset
    assert splits.validation == again.validation
    assert splits.subsets == again.subsets
    assert elapsed < 1.0, f"splitting took {elapsed:.3f}s"
    print(f"criterion 5: PASS (1000 validation + nested subsets, "
          f"deterministic, {elapsed * 1000:.0f}ms)")


def test_criterion_6_published_percentage_replay(tmp_path):
    """Six canned runs land at 29.4/97.8/45.6/97.6/23.1/97.4 in aggregate.csv, <1s."""
    cases = [
        ("gpt-4o-mini-base", 294, "29.4"),
        ("gpt-4o-mini-finetuned", 978, "97.8"),
        ("gpt-4.1-mini-base", 456, "45.6"),
        ("gpt-4.1-mini-finetuned", 976, "97.6"),
        ("llama-1b-base", 231, "23.1"),
        ("llama-1b-finetuned", 974, "97.4"),
    ]
    samples = make_samples(1000)

    start = time.perf_counter()
    reports = []
    for label, passing, _ in cases:
        responses = [
            (s.sample_id, CONVERSATIONAL_TEXT if i < passing else STIFF_TEXT)
            for i, s in enumerate(samples)
        ]
        reports.append(build_report(label, samples, responses, threshold=60.0))
    paths = emit_report(reports, tmp_path)
    elapsed = time.perf_counter() - start

    with open(paths["aggregate"], newline="", encoding="utf-8") as fh:
        rows = {r["model"]: r["pct_conversational"] for r in csv.DictReader(fh)}
    for label, _, expected in cases:
        assert rows[label] == expected, f"{label}: {rows[label]} != {expected}"
    assert elapsed < 1.0, f"replay took {elapsed:.3f}s"
    print(f"criterion 6: PASS (six aggregate rows exact at one decimal, "
          f"{elapsed * 1000:.0f}ms)")


def test_criterion_7_finetune_export(tmp_path):
    """100-sample subset exports exactly 100 three-message records, <1s."""
    samples = make_samples(10_000)
    splits = split_dataset(samples, PipelineConfig())
    out_path = tmp_path / "finetune-100.jsonl"

    start = time.perf_counter()
    count = export_finetune_file(splits.subsets[100], CONCISE_FINETUNE_PROMPT, out_path)
    elapsed = time.perf_counter() - start

    assert count == 100
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 100
    for line in lines:
        record = json.loads(line)
        messages = record["messages"]
        assert [m["role"] for m in messages] == ["system", "user", "assistant"]
        assert messages[0]["content"] == CONCISE_FINETUNE_PROMPT  # byte-identical
    assert elapsed < 1.0, f"export took {elapsed:.3f}s"
    print(f"criterion 7: PASS (100 records, system prompt byte-exact, "
          f"{elapsed * 1000:.0f}ms)")


def test_criterion_8_gpu_outcomes_declared_not_reproduced():
    """Fine-tuning quality numbers are declared out of scope; the live path has the right shape."""
    # the declaration exists and names the GPU-bound outcomes
    assert len(NOT_DESK_REPRODUCIBLE) == 3
    joined = " ".join(NOT_DESK_REPRODUCIBLE)
    for marker in ("fine-tuned", "int8", "bfloat16"):
        assert marker in joined

    readme = (DATA_DIR.parent.parent / "README.md").read_text(encoding="utf-8")
    assert "not reproduce" in readme.lower() or "non-reproducible" in readme.lower()

    # the live-evaluation path accepts any endpoint via transport injection
    gateway = GatewayConfig(
        base_url="https://checkpoint.example.invalid",
        api_key_env_name="CHECKPOINT_KEY",
    )
    samples = make_samples(3)
    transport = TranscriptTransport([
        {"status": 200, "body": {"choices": [{"message": {
            "role": "assistant", "content": CONVERSATIONAL_TEXT}}]}}
        for _ in samples
    ])
    chat = _chat_fn(gateway, "ft-model", 512, transport)
    responses = generate_responses(CONCISE_FINETUNE_PROMPT, samples, chat)
    report = build_report("finetuned-checkpoint", samples, responses)
    assert report.complete_run
    assert report.pct_conversational == 100.0
    print("criterion 8: PASS (scope declared, live-endpoint path exercised)")
