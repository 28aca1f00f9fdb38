"""Synthesis pipeline: ingest, QA parsing, the readability gate, full runs."""

import itertools
import json
import logging
import sys
import threading
import time

import pytest

from conftest import QA_SECTION_RE
from convoforge.dedup import find_violations, load_index
from convoforge.gateway import NetworkError, ProtocolError
from convoforge.pipeline import (
    _AHEAD,
    OUTCOMES,
    CorpusSection,
    PipelineConfig,
    QaParseError,
    QaSample,
    export_finetune_file,
    generate_qa,
    ingest_corpus,
    load_samples,
    ordered_map,
    read_corpus_file,
    run_pipeline,
    simplify_until_pass,
    split_dataset,
)
from convoforge.prompts import CONCISE_FINETUNE_PROMPT, SIMPLIFY_TEMPLATE
from convoforge.textmetrics import flesch_reading_ease

EASY_TEXT = (
    "Well, this answer is short on purpose. It uses small words. "
    "You can read it out loud in one breath. That is the whole idea."
)
DENSE_TEXT = (
    "Regrettably, comprehensive administrative reorganization necessitates "
    "extraordinarily elaborate documentation, systematically perpetuating "
    "incomprehensible terminology throughout subsequent deliberations."
)


def tiny_config(**overrides) -> PipelineConfig:
    defaults = dict(target_samples=5, validation_size=1, subset_sizes=(2,))
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class ScriptedChat:
    """Returns canned responses in order and records every prompt."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.prompts: list[str] = []

    def __call__(self, messages, temperature):
        self.prompts.append(messages[-1]["content"])
        if not self.responses:
            raise AssertionError("chat called more times than scripted")
        return self.responses.pop(0)


def section_for(text="A plain test section.", section_id="sec-t-1") -> CorpusSection:
    return CorpusSection(section_id=section_id, text=text)


def section_started(messages):
    """The section id when this is a QA prompt, else None."""
    match = QA_SECTION_RE.search(messages[-1]["content"])
    return match.group(1) if match else None


def shuffled_ids(records) -> list[str]:
    return [s.section_id for s in ingest_corpus(records, PipelineConfig()).sections]


def artifact_bytes(out_dir) -> dict[str, bytes]:
    """The files a finished run leaves that a fixed seed pins byte for byte."""
    return {name: (out_dir / name).read_bytes()
            for name in ("samples.jsonl", "index.tsv", "manifest.json")}


def assert_resumable(out_dir):
    """The state an interrupted run must leave for --resume to finish it:
    no manifest, samples.jsonl holding the log's accepted samples, and the
    index holding their ids."""
    assert not (out_dir / "manifest.json").exists()
    traces = read_corpus_file(out_dir / "traces.jsonl")
    samples = [t["sample"] for t in traces if t["outcome"] == "accepted"]
    assert read_corpus_file(out_dir / "samples.jsonl") == samples
    index = load_index(out_dir / "index.tsv")
    assert index.ids == [s["sample_id"] for s in samples]
    assert find_violations(index) == []


class TestIngest:
    def test_length_floor_is_inclusive(self):
        records = [
            {"id": "long", "text": "x" * 700},
            {"id": "short", "text": "x" * 699},
        ]
        result = ingest_corpus(records, PipelineConfig())
        assert [s.section_id for s in result.sections] == ["long"]
        assert result.excluded_short == 1

    def test_empty_source(self):
        result = ingest_corpus([], PipelineConfig())
        assert result.sections == []
        assert result.skipped_missing_text == 0

    def test_missing_text_is_skipped_with_warning(self, caplog):
        records = [{"id": "no-text"}, {"id": "empty", "text": ""}, {"text": 42}]
        with caplog.at_level(logging.WARNING):
            result = ingest_corpus(records, PipelineConfig(min_section_chars=0))
        assert result.sections == []
        assert result.skipped_missing_text == 3
        assert sorted(r.getMessage() for r in caplog.records) == [
            f"corpus record {n} has no usable text field; skipped" for n in (1, 2, 3)
        ]

    def test_shuffle_is_seed_deterministic(self):
        records = [{"id": f"s{i}", "text": f"body {i} " * 100} for i in range(30)]
        config_a = PipelineConfig(min_section_chars=0, random_seed=11)
        order_1 = [s.section_id for s in ingest_corpus(records, config_a).sections]
        order_2 = [s.section_id for s in ingest_corpus(records, config_a).sections]
        assert order_1 == order_2
        config_b = PipelineConfig(min_section_chars=0, random_seed=12)
        order_3 = [s.section_id for s in ingest_corpus(records, config_b).sections]
        assert order_1 != order_3
        assert sorted(order_1) == sorted(order_3)

    @pytest.mark.parametrize("ids", [{}, {"id": None}, {"id": ""}, {"id": "", "section_id": None}])
    def test_fallback_ids_from_position(self, ids):
        records = [{**ids, "text": "x" * 700}]
        result = ingest_corpus(records, PipelineConfig())
        assert result.sections[0].section_id == "sec000000"

    def test_ids_0_and_7_are_kept(self):
        records = [{"id": 0, "text": "x" * 700}, {"id": 7, "text": "y" * 700}]
        assert sorted(shuffled_ids(records)) == ["0", "7"]

    def test_duplicate_id_names_both_records(self):
        records = [{"id": "a", "text": "x" * 700}, {"id": "b", "text": "y" * 700},
                   {"id": "a", "text": "z" * 700}]
        with pytest.raises(ValueError, match="corpus records 1 and 3 share the section id 'a'"):
            ingest_corpus(records, PipelineConfig())

    def test_fallback_id_that_matches_a_real_one_is_a_duplicate(self):
        records = [{"text": "x" * 700}, {"id": "b", "text": "y" * 700}]
        [fallback] = [s.section_id for s in ingest_corpus(records, PipelineConfig()).sections
                      if s.section_id != "b"]
        records[1]["id"] = fallback  # the shuffle depends on the record count only
        with pytest.raises(ValueError, match=f"records 1 and 2 share the section id '{fallback}'"):
            ingest_corpus(records, PipelineConfig())

    def test_read_corpus_file_reports_bad_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "ok", "text": "fine"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match="2"):
            read_corpus_file(path)


class TestGenerateQa:
    def test_clean_response_parses_in_one_call(self):
        chat = ScriptedChat(['{"question": "Q?", "answer": "A."}'])
        question, answer = generate_qa(section_for(), PipelineConfig(), chat)
        assert (question, answer) == ("Q?", "A.")
        assert len(chat.prompts) == 1
        assert "A plain test section." in chat.prompts[0]

    def test_one_parse_retry_then_success(self):
        chat = ScriptedChat([
            '```json\n{"question": "Q?", "answer": "A."}\n```',  # fenced: rejected
            '{"question": "Q?", "answer": "A."}',
        ])
        question, _ = generate_qa(section_for(), PipelineConfig(), chat)
        assert question == "Q?"
        assert len(chat.prompts) == 2

    def test_second_failure_raises(self):
        chat = ScriptedChat(["I refuse.", "Still refusing."])
        with pytest.raises(QaParseError, match="Still refusing"):
            generate_qa(section_for(), PipelineConfig(), chat)
        assert len(chat.prompts) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            '{"question": "Q?", "answer": "A.", "note": "extra"}',
            '{"question": "Q?"}',
            '{"question": "Q?", "answer": 5}',
            '{"question": "", "answer": "A."}',
            '["question", "answer"]',
        ],
    )
    def test_strict_two_field_contract(self, payload):
        chat = ScriptedChat([payload, payload])
        with pytest.raises(QaParseError):
            generate_qa(section_for(), PipelineConfig(), chat)


class TestSimplify:
    def test_first_passing_attempt_stops_the_loop(self):
        chat = ScriptedChat([DENSE_TEXT, EASY_TEXT, "never requested"])
        scores, answer = simplify_until_pass("Q?", "original answer", PipelineConfig(), chat)
        assert answer == EASY_TEXT
        assert len(scores) == 2
        assert len(chat.prompts) == 2  # the third response stays unused

    def test_each_round_feeds_back_the_latest_text(self):
        fail_1 = DENSE_TEXT
        fail_2 = DENSE_TEXT.replace("Regrettably", "Unquestionably")
        chat = ScriptedChat([fail_1, fail_2, EASY_TEXT])
        scores, answer = simplify_until_pass("Q?", "original answer", PipelineConfig(), chat)
        assert answer == EASY_TEXT and len(scores) == 3
        assert "original answer" in chat.prompts[0]
        assert fail_1 in chat.prompts[1]
        assert fail_2 in chat.prompts[2]

    def test_later_attempts_carry_the_previous_score(self):
        fail_2 = DENSE_TEXT.replace("Regrettably", "Unquestionably")
        chat = ScriptedChat([DENSE_TEXT, fail_2, EASY_TEXT])
        scores, _ = simplify_until_pass("Q?", "original answer", PipelineConfig(), chat)
        assert chat.prompts[0] == SIMPLIFY_TEMPLATE.format(
            question="Q?", answer="original answer", feedback="")
        assert "attempt" not in chat.prompts[0] and "scored" not in chat.prompts[0]
        for attempt, prompt in enumerate(chat.prompts[1:], start=2):
            assert (f"This is attempt {attempt}. The answer below is your previous attempt; "
                    f"it scored {scores[attempt - 2]:.1f} on the Flesch Reading Ease scale, "
                    f"and the rephrased answer must score at least 75.") in prompt
        assert f"{scores[0]:.1f}" != f"{scores[1]:.1f}"  # each prompt names its own score

    def test_a_template_without_feedback_keeps_the_dry_run_counts(
        self, corpus50_records, sim_fns, tmp_path, golden_manifest
    ):
        template = SIMPLIFY_TEMPLATE.replace("{feedback}", "")
        manifest = run_pipeline(PipelineConfig(), corpus50_records, sim_fns.chat, sim_fns.embed,
                                tmp_path, simplify_template=template)
        assert manifest["counts"] == golden_manifest["counts"]

    def test_all_attempts_failing_discards(self):
        chat = ScriptedChat([DENSE_TEXT] * 3)
        scores, answer = simplify_until_pass("Q?", "original", PipelineConfig(), chat)
        assert answer is None
        assert len(scores) == 3
        assert all(s < 75 for s in scores)

    def test_gate_is_inclusive_at_the_exact_score(self):
        score = flesch_reading_ease(EASY_TEXT).flesch_score
        at_gate = PipelineConfig(accept_threshold=score)
        scores, answer = simplify_until_pass("Q?", "orig", at_gate, ScriptedChat([EASY_TEXT]))
        assert answer == EASY_TEXT and scores == [score]

        just_above = PipelineConfig(accept_threshold=score + 1e-9, max_attempts=1)
        _, answer = simplify_until_pass("Q?", "orig", just_above, ScriptedChat([EASY_TEXT]))
        assert answer is None

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            simplify_until_pass("", "answer", PipelineConfig(), ScriptedChat([]))
        with pytest.raises(ValueError):
            simplify_until_pass("Q?", "", PipelineConfig(), ScriptedChat([]))


class TestRunPipeline:
    def test_every_section_lands_in_exactly_one_outcome(
        self, corpus50_records, sim_fns, tmp_path
    ):
        manifest = run_pipeline(
            PipelineConfig(), corpus50_records, sim_fns.chat, sim_fns.embed, tmp_path
        )
        counts = manifest["counts"]
        assert set(counts) == set(OUTCOMES)
        assert sum(counts.values()) == 50
        assert manifest["consumed_sections"] == 50

    def test_run_matches_golden_manifest(
        self, corpus50_records, sim_fns, tmp_path, golden_manifest
    ):
        manifest = run_pipeline(
            PipelineConfig(), corpus50_records, sim_fns.chat, sim_fns.embed, tmp_path
        )
        # The returned manifest holds asdict(config), whose subset_sizes is a tuple.
        assert json.loads(json.dumps(manifest)) == golden_manifest
        on_disk = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert on_disk == golden_manifest

    def test_duplicate_rejection_names_the_accepted_twin(
        self, corpus50_records, sim_fns, tmp_path
    ):
        run_pipeline(PipelineConfig(), corpus50_records, sim_fns.chat, sim_fns.embed, tmp_path)
        traces = read_corpus_file(tmp_path / "traces.jsonl")
        rejected = [t for t in traces if t["outcome"] == "rejected_duplicate"]
        assert len(rejected) == 1
        trace = rejected[0]
        assert trace["section_id"].startswith("sec-dup-")
        assert trace["nearest_id"].startswith("qa-sec-dup-")
        assert trace["nearest_id"] != f"qa-{trace['section_id']}"
        assert trace["nearest_similarity"] == pytest.approx(1.0)

    def test_duplicate_sections_share_the_simulated_question(
        self, corpus50_records, sim_fns, tmp_path
    ):
        from convoforge.simulate import _DUP_QUESTION

        manifest = run_pipeline(
            PipelineConfig(), corpus50_records, sim_fns.chat, sim_fns.embed, tmp_path
        )
        samples = load_samples(tmp_path / "samples.jsonl")
        dup_a = [s for s in samples if s.section_id == "sec-dup-a-001"]
        assert [s.question for s in dup_a] == [_DUP_QUESTION]
        traces = read_corpus_file(tmp_path / "traces.jsonl")
        dup_b = [t for t in traces if t["section_id"] == "sec-dup-b-001"]
        assert [t["outcome"] for t in dup_b] == ["rejected_duplicate"]
        assert dup_b[0]["nearest_id"] == "qa-sec-dup-a-001"
        assert dup_b[0]["nearest_similarity"] == pytest.approx(1.0)

    def test_accepted_samples_pass_the_gate_when_rescored(
        self, corpus50_records, sim_fns, tmp_path
    ):
        manifest = run_pipeline(
            PipelineConfig(), corpus50_records, sim_fns.chat, sim_fns.embed, tmp_path
        )
        samples = load_samples(tmp_path / "samples.jsonl")
        assert samples, "expected accepted samples"
        for sample in samples:
            rescored = flesch_reading_ease(sample.answer_simplified).flesch_score
            assert rescored == sample.flesch_score
            assert rescored >= 75.0

    def test_three_runs_are_bit_identical(self, corpus50_records, tmp_path):
        from conftest import SimFns

        outputs = []
        for i in range(3):
            out = tmp_path / f"run{i}"
            fns = SimFns()
            run_pipeline(PipelineConfig(), corpus50_records, fns.chat, fns.embed, out)
            outputs.append((
                (out / "samples.jsonl").read_bytes(),
                (out / "manifest.json").read_bytes(),
                (out / "index.tsv").read_bytes(),
            ))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_stops_once_the_target_is_reached(self, corpus50_records, sim_fns, tmp_path):
        config = tiny_config(target_samples=5)
        manifest = run_pipeline(
            config, corpus50_records, sim_fns.chat, sim_fns.embed, tmp_path
        )
        assert manifest["sample_count"] == 5
        assert len(load_samples(tmp_path / "samples.jsonl")) == 5
        assert manifest["shortfall"] is False
        # consumed well under the full corpus
        assert manifest["consumed_sections"] < 50
        counts = manifest["counts"]
        assert sum(counts.values()) == manifest["consumed_sections"]

    def test_exhausted_corpus_flags_shortfall(
        self, corpus50_records, sim_fns, tmp_path, caplog
    ):
        with caplog.at_level(logging.WARNING):
            manifest = run_pipeline(
                PipelineConfig(), corpus50_records, sim_fns.chat, sim_fns.embed,
                tmp_path, limit=10,
            )
        assert manifest["consumed_sections"] == 10
        assert manifest["shortfall"] is True
        assert any("partial" in r.message for r in caplog.records)

    def test_resume_skips_consumed_sections(self, corpus50_records, tmp_path, golden_manifest):
        from conftest import SimFns

        first = SimFns()
        partial = run_pipeline(
            PipelineConfig(), corpus50_records, first.chat, first.embed,
            tmp_path, limit=20,
        )
        assert partial["consumed_sections"] == 20

        second = SimFns()
        manifest = run_pipeline(
            PipelineConfig(), corpus50_records, second.chat, second.embed,
            tmp_path, resume=True,
        )
        assert manifest["consumed_sections"] == 50
        assert manifest["counts"] == golden_manifest["counts"]
        sample_ids = [s.sample_id for s in load_samples(tmp_path / "samples.jsonl")]
        assert len(sample_ids) == len(set(sample_ids)) == manifest["sample_count"] == 42

    def test_embedding_failure_is_a_generation_error(
        self, corpus50_records, sim_fns, tmp_path, golden_manifest
    ):
        # A malformed reply ends only its section; a call that still fails
        # after its retries ends the run before that section is consumed.
        failing = {f"sec-ok-0{n}0" for n in range(1, 5)}
        raised = [ProtocolError("malformed embeddings body: {}")]

        def embed(texts):
            if any(sid in texts[0] for sid in failing):
                raise raised[0]
            return sim_fns.embed(texts)

        manifest = run_pipeline(
            PipelineConfig(), corpus50_records, sim_fns.chat, embed, tmp_path / "protocol"
        )
        traces = read_corpus_file(tmp_path / "protocol" / "traces.jsonl")
        failed = {t["section_id"]: t for t in traces if t["section_id"] in failing}
        assert set(failed) == failing
        for trace in failed.values():
            assert trace["outcome"] == "generation_error"
            assert trace["error"].startswith("malformed embeddings body")
            assert trace["attempt_scores"] and trace["attempt_scores"][-1] >= 75.0
            assert trace["sample"] is None
        counts = manifest["counts"]
        assert counts["accepted"] == golden_manifest["counts"]["accepted"] - len(failing)
        assert sum(counts.values()) == manifest["consumed_sections"] == 50
        failed_ids = {f"qa-{sid}" for sid in failing}
        on_disk = read_corpus_file(tmp_path / "protocol" / "samples.jsonl")
        assert not failed_ids & {r["sample_id"] for r in on_disk}
        assert not failed_ids & set(load_index(tmp_path / "protocol" / "index.tsv").ids)

        raised[0] = NetworkError("HTTP 503 from /embeddings: retries exhausted")
        with pytest.raises(NetworkError):
            run_pipeline(
                PipelineConfig(), corpus50_records, sim_fns.chat, embed, tmp_path / "network"
            )
        order = shuffled_ids(corpus50_records)
        first_failing = min(order.index(sid) for sid in failing)
        traces = read_corpus_file(tmp_path / "network" / "traces.jsonl")
        assert [t["section_id"] for t in traces] == order[:first_failing]
        assert_resumable(tmp_path / "network")

    def test_trace_records_share_one_key_order(self, corpus50_records, sim_fns, tmp_path):
        run_pipeline(PipelineConfig(), corpus50_records, sim_fns.chat, sim_fns.embed, tmp_path)
        expected = [
            "section_id", "outcome", "attempt_scores", "sample", "nearest_id",
            "nearest_similarity", "error", "started_at", "finished_at",
        ]
        records = read_corpus_file(tmp_path / "traces.jsonl")
        assert {r["outcome"] for r in records} == set(OUTCOMES)
        for record in records:
            assert list(record) == expected, record["outcome"]

    def test_slow_head_does_not_idle_the_other_workers(self, corpus50_records, tmp_path):
        from conftest import SimFns

        limit = 4
        head = shuffled_ids(corpus50_records)[0]
        fns = SimFns()
        lock = threading.Lock()
        started: set[str] = set()
        others_running = threading.Event()
        head_waits: list[bool] = []

        def chat(messages, temperature):
            section_id = section_started(messages)
            if section_id is not None:
                with lock:
                    started.add(section_id)
                    if len(started) >= limit + 2:
                        others_running.set()
            if section_id == head:
                # Released only once other sections have started meanwhile.
                head_waits.append(others_running.wait(timeout=5))
            return fns.chat(messages, temperature)

        run_pipeline(
            PipelineConfig(concurrency_limit=limit), corpus50_records, chat, fns.embed,
            tmp_path / "slow",
        )
        assert head_waits and all(head_waits)

        serial = SimFns()
        run_pipeline(
            PipelineConfig(concurrency_limit=1), corpus50_records, serial.chat, serial.embed,
            tmp_path / "serial",
        )
        for name in ("samples.jsonl", "index.tsv"):
            assert (tmp_path / "slow" / name).read_bytes() == (
                tmp_path / "serial" / name
            ).read_bytes(), name

    def test_fresh_run_over_a_finished_run_then_resume(self, corpus50_records, tmp_path):
        from conftest import SimFns

        finished = SimFns()
        run_pipeline(PipelineConfig(), corpus50_records, finished.chat, finished.embed, tmp_path)
        crashing = SimFns()
        lock = threading.Lock()
        calls = [0]

        def chat(messages, temperature):
            with lock:
                calls[0] += 1
                if calls[0] == 40:
                    raise RuntimeError("injected crash")
            return crashing.chat(messages, temperature)

        with pytest.raises(RuntimeError, match="injected crash"):
            run_pipeline(
                PipelineConfig(concurrency_limit=1), corpus50_records, chat, crashing.embed,
                tmp_path,
            )
        sample_ids = [r["sample_id"] for r in read_corpus_file(tmp_path / "samples.jsonl")]
        assert len(sample_ids) == 12
        # Nothing of the finished run survives beside them.
        assert load_index(tmp_path / "index.tsv").ids == sample_ids
        assert not (tmp_path / "manifest.json").exists()

        resumed = SimFns()
        manifest = run_pipeline(
            PipelineConfig(), corpus50_records, resumed.chat, resumed.embed, tmp_path, resume=True,
        )
        assert manifest["consumed_sections"] == 50
        whole = SimFns()
        run_pipeline(PipelineConfig(), corpus50_records, whole.chat, whole.embed, tmp_path / "whole")
        assert artifact_bytes(tmp_path) == artifact_bytes(tmp_path / "whole")

    def test_target_stop_then_resume_equals_an_uninterrupted_run(
        self, corpus50_records, tmp_path
    ):
        from conftest import SimFns

        stopped_dir = tmp_path / "stopped"
        first = SimFns()
        stopped = run_pipeline(
            tiny_config(target_samples=12), corpus50_records, first.chat, first.embed,
            stopped_dir,
        )
        consumed = stopped["consumed_sections"]
        assert stopped["sample_count"] == 12
        assert len(load_samples(stopped_dir / "samples.jsonl")) == 12
        assert consumed < 50
        assert sum(stopped["counts"].values()) == consumed
        assert len(read_corpus_file(stopped_dir / "traces.jsonl")) == consumed

        second = SimFns()
        resumed = run_pipeline(
            PipelineConfig(), corpus50_records, second.chat, second.embed,
            stopped_dir, resume=True,
        )
        assert resumed["consumed_sections"] == 50
        whole = SimFns()
        run_pipeline(PipelineConfig(), corpus50_records, whole.chat, whole.embed, tmp_path / "whole")
        for name in ("samples.jsonl", "index.tsv"):
            assert (stopped_dir / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()

    def test_target_stop_drops_at_most_limit_minus_one_sections(self, corpus50_records, tmp_path):
        from conftest import SimFns

        def counted_run(limit):
            fns = SimFns()
            lock = threading.Lock()
            started: set[str] = set()
            calls = [0]

            def chat(messages, temperature):
                section_id = section_started(messages)
                with lock:
                    calls[0] += 1
                    if section_id is not None:
                        started.add(section_id)
                return fns.chat(messages, temperature)

            manifest = run_pipeline(
                tiny_config(target_samples=12, concurrency_limit=limit), corpus50_records,
                chat, fns.embed, tmp_path / str(limit),
            )
            assert manifest["sample_count"] == 12
            return manifest["consumed_sections"], len(started), calls[0]

        consumed, started, calls = counted_run(limit=8)
        serial_consumed, serial_started, serial_calls = counted_run(limit=1)
        assert consumed == serial_consumed == serial_started
        # Only the window still open at the last needed sample is paid for and dropped.
        assert started <= consumed + 8 - 1
        max_calls_per_section = 1 + PipelineConfig().max_attempts
        assert calls <= serial_calls + (started - consumed) * max_calls_per_section

    def test_worker_error_propagates_after_running_work_is_joined(
        self, corpus50_records, sim_fns, tmp_path
    ):
        limit = 3
        positions = {sid: i for i, sid in enumerate(shuffled_ids(corpus50_records))}
        failing = 3
        lock = threading.Lock()
        started: set[int] = set()
        in_flight = [0]
        failed = threading.Event()

        def chat(messages, temperature):
            position = positions.get(section_started(messages))
            with lock:
                if position is not None:
                    started.add(position)
                in_flight[0] += 1
            try:
                if position == failing:
                    time.sleep(0.5)  # the other workers drain what was submitted
                    failed.set()
                    raise RuntimeError("injected worker fault")
                if position == failing + 1:
                    failed.wait(timeout=5)
                    time.sleep(0.1)  # still running when the error propagates
                return sim_fns.chat(messages, temperature)
            finally:
                with lock:
                    in_flight[0] -= 1

        with pytest.raises(RuntimeError, match="injected worker fault"):
            run_pipeline(
                PipelineConfig(concurrency_limit=limit), corpus50_records, chat,
                sim_fns.embed, tmp_path,
            )
        assert in_flight[0] == 0
        assert {failing, failing + 1} <= started
        assert max(started) <= failing + _AHEAD * limit


class FaultyFns:
    """Simulated chat and embed; the `every`-th call of `stage` raises
    `error`, counted across runs and threads."""

    def __init__(self, error, every, stage):
        from conftest import SimFns

        self.fns, self.error, self.every, self.stage = SimFns(), error, every, stage
        self.calls = {"chat": 0, "embed": 0}
        self.raised = 0
        self._lock = threading.Lock()

    def _count(self, stage):
        with self._lock:
            self.calls[stage] += 1
            if stage == self.stage and self.calls[stage] % self.every == 0:
                self.raised += 1
                raise self.error(f"injected fault at {stage} call {self.calls[stage]}")

    def chat(self, messages, temperature):
        self._count("chat")
        return self.fns.chat(messages, temperature)

    def embed(self, texts):
        self._count("embed")
        return self.fns.embed(texts)


class TestFaultInjection:
    @pytest.mark.parametrize("limit", [1, 4])
    @pytest.mark.parametrize("error", [NetworkError, RuntimeError])
    @pytest.mark.parametrize("stage, every", [("chat", 9), ("embed", 4)])
    def test_resume_after_every_fault_equals_an_uninterrupted_run(
        self, corpus50_records, tmp_path, limit, error, stage, every
    ):
        from conftest import SimFns

        config = PipelineConfig(concurrency_limit=limit)
        whole = SimFns()
        run_pipeline(config, corpus50_records, whole.chat, whole.embed, tmp_path / "whole")

        out = tmp_path / "faulty"
        faulty = FaultyFns(error, every, stage)
        order = shuffled_ids(corpus50_records)
        for attempt in range(100):
            try:
                manifest = run_pipeline(config, corpus50_records, faulty.chat, faulty.embed, out,
                                      resume=attempt > 0)
                break
            except error as exc:
                assert "injected fault" in str(exc)
                assert_resumable(out)
                traces = read_corpus_file(out / "traces.jsonl")
                assert [t["section_id"] for t in traces] == order[:len(traces)]
        else:
            pytest.fail("no run finished in 100 attempts")

        # Workers still running when a fault ends the run may raise more.
        assert 0 < attempt <= faulty.raised
        assert artifact_bytes(out) == artifact_bytes(tmp_path / "whole")
        index = load_index(out / "index.tsv")
        assert index.ids == [s.sample_id for s in load_samples(out / "samples.jsonl")]
        assert find_violations(index) == []
        counts = manifest["counts"]
        assert sum(counts.values()) == manifest["consumed_sections"] == 50


class TestStop:
    @pytest.mark.parametrize("limit", [1, 4])
    def test_a_stop_at_any_call_leaves_a_run_that_resume_finishes(
        self, corpus50_records, tmp_path, limit
    ):
        from conftest import SimFns

        config = PipelineConfig(concurrency_limit=limit)
        whole, calls = SimFns(), []

        def counted(messages, temperature):
            calls.append(None)
            return whole.chat(messages, temperature)

        run_pipeline(config, corpus50_records, counted, whole.embed, tmp_path / "whole")
        # Every 7th of the run's 148 chat calls, and the last, keep the test near 2 s.
        for k in [*range(1, len(calls), 7), len(calls)]:
            fns, stop, seen = SimFns(), threading.Event(), itertools.count(1)

            def chat(messages, temperature):
                if next(seen) == k:
                    stop.set()
                return fns.chat(messages, temperature)

            out = tmp_path / f"stop-{k}"
            with pytest.raises(KeyboardInterrupt):
                run_pipeline(config, corpus50_records, chat, fns.embed, out, stopped=stop.is_set)
            assert_resumable(out)
            # Each section finished before call k made a chat call before it, and
            # at most one more turn runs once the stop is set.
            assert len(read_corpus_file(out / "traces.jsonl")) <= k
            run_pipeline(config, corpus50_records, fns.chat, fns.embed, out, resume=True)
            assert artifact_bytes(out) == artifact_bytes(tmp_path / "whole"), k


class TestCrashStates:
    def test_every_crash_state_resumes_to_the_uninterrupted_run(self, corpus50_records, tmp_path):
        """Each state a crash can leave, derived from the files of a finished
        run as ALICE derives them (Pillai et al., OSDI 2014): the log cut at
        each line boundary and in the middle of each line, beside an index
        that holds its accepted lines, one more whole line, or one more torn
        line, with no samples.jsonl or manifest.json. A resume finishes every
        one to the uninterrupted run's bytes."""
        from conftest import SimFns

        # One worker, and each reply computed once (the simulator's depend on
        # the request alone), keep the grid of about 300 resumes near 4 s.
        config, sim, replies = PipelineConfig(concurrency_limit=1), SimFns(), {}

        def chat(messages, temperature):
            key = messages[-1]["content"]
            if key not in replies:
                replies[key] = sim.chat(messages, temperature)
            return replies[key]

        def embed(texts):
            if tuple(texts) not in replies:
                replies[tuple(texts)] = sim.embed(texts)
            return replies[tuple(texts)]

        run_pipeline(config, corpus50_records, chat, embed, tmp_path / "whole")
        whole = artifact_bytes(tmp_path / "whole")
        log = (tmp_path / "whole" / "traces.jsonl").read_bytes().splitlines(keepends=True)
        entries = whole["index.tsv"].splitlines(keepends=True)
        out = tmp_path / "crashed"
        run_pipeline(config, corpus50_records, chat, embed, out, limit=0)  # its run_config.json
        for n in range(len(log) + 1):
            accepted = sum(json.loads(line)["outcome"] == "accepted" for line in log[:n])
            committed = b"".join(entries[:accepted])
            indexes = [committed]
            if accepted < len(entries):
                ahead = entries[accepted]
                indexes += [committed + ahead, committed + ahead[:len(ahead) // 2]]
            cuts = [b"".join(log[:n])]
            if n < len(log):
                cuts.append(cuts[0] + log[n][:len(log[n]) // 2])
            for cut, index in itertools.product(cuts, indexes):
                (out / "traces.jsonl").write_bytes(cut)
                (out / "index.tsv").write_bytes(index)
                for name in ("samples.jsonl", "manifest.json"):
                    (out / name).unlink(missing_ok=True)
                run_pipeline(config, corpus50_records, chat, embed, out, resume=True)
                assert artifact_bytes(out) == whole, (n, len(cut), len(index))


class TestOrderedMap:
    def test_results_keep_submission_order_with_at_most_limit_running(self):
        limit = 3
        lock = threading.Lock()
        running = [0, 0]  # now, peak

        def fn(i):
            with lock:
                running[0] += 1
                running[1] = max(running[1], running[0])
            time.sleep(0.001 * (i % 5))
            with lock:
                running[0] -= 1
            return i * i

        # wanted=None: every item is wanted
        assert list(ordered_map(fn, range(60), limit)) == [i * i for i in range(60)]
        assert running[1] <= limit

    def test_close_cancels_queued_calls_and_joins_running_ones(self):
        release = threading.Event()
        started: list[int] = []
        finished: list[int] = []

        def fn(i):
            started.append(i)
            if i == 1:
                release.wait(timeout=5)
            finished.append(i)
            return i

        results = ordered_map(fn, range(100), 1, lambda: 100)
        assert next(results) == 0
        timer = threading.Timer(0.5, release.set)
        timer.start()
        try:
            results.close()
        finally:
            timer.join(timeout=5)
        assert not timer.is_alive()
        assert started == finished
        assert set(started) <= {0, 1}

    def test_no_item_starts_after_a_call_has_raised(self):
        calls = []

        def fn(i):
            calls.append(i)
            if i == 0:
                time.sleep(0.2)  # the head still runs when item 1 fails
            if i == 1:
                raise ValueError("item 1")
            return i

        with pytest.raises(ValueError, match="item 1"):
            list(ordered_map(fn, range(10), 2))
        assert sorted(calls) == [0, 1]  # items 2 and 3 were submitted, never started

    def test_first_failure_ends_the_map_in_order_under_contention(self):
        # More workers than cores and a short switch interval: items before
        # the failing one still all run and are yielded, and its own error
        # ends the map, however the threads interleave.
        def fn(i):
            time.sleep(0.0002 * (i % 3))
            if i in (20, 23):
                raise ValueError(f"item {i}")
            return i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                yielded = []
                with pytest.raises(ValueError, match="item 20"):
                    yielded.extend(ordered_map(fn, range(200), 8))
                assert yielded == list(range(20))
        finally:
            sys.setswitchinterval(interval)


def make_samples(n: int) -> list[QaSample]:
    return [
        QaSample(
            sample_id=f"qa-{i}",
            question=f"Question {i}?",
            answer_original=f"Original {i}.",
            answer_simplified=f"Simple {i}.",
            flesch_score=90.0,
            attempts_used=1,
            section_id=f"sec-{i}",
        )
        for i in range(n)
    ]


class TestSplit:
    CONFIG = PipelineConfig(target_samples=31, validation_size=5, subset_sizes=(2, 10, 20))

    def test_validation_is_disjoint_from_every_subset(self):
        splits = split_dataset(make_samples(30), self.CONFIG)
        validation_ids = {s.sample_id for s in splits.validation}
        assert len(splits.validation) == 5
        for size, subset in splits.subsets.items():
            assert len(subset) == size
            assert validation_ids.isdisjoint({s.sample_id for s in subset})

    def test_subsets_are_nested(self):
        splits = split_dataset(make_samples(30), self.CONFIG)
        ids_by_size = {
            size: [s.sample_id for s in subset] for size, subset in splits.subsets.items()
        }
        assert ids_by_size[10][:2] == ids_by_size[2]
        assert ids_by_size[20][:10] == ids_by_size[10]

    def test_split_is_seed_deterministic(self):
        samples = make_samples(30)
        a = split_dataset(samples, self.CONFIG)
        b = split_dataset(samples, self.CONFIG)
        assert a.validation == b.validation
        assert a.subsets == b.subsets

    def test_too_few_samples_names_the_requirement(self):
        with pytest.raises(ValueError, match="25"):
            split_dataset(make_samples(24), self.CONFIG)


class TestExport:
    def test_three_message_chat_format(self, tmp_path):
        samples = make_samples(4)
        path = tmp_path / "train.jsonl"
        count = export_finetune_file(samples, CONCISE_FINETUNE_PROMPT, path)
        assert count == 4
        records = read_corpus_file(path)
        assert len(records) == 4
        for record, sample in zip(records, samples):
            messages = record["messages"]
            assert [m["role"] for m in messages] == ["system", "user", "assistant"]
            assert messages[0]["content"] == CONCISE_FINETUNE_PROMPT
            assert messages[1]["content"] == sample.question
            assert messages[2]["content"] == sample.answer_simplified

    def test_worked_example_survives_byte_identical(self, tmp_path, pool_answer):
        sample = QaSample(
            sample_id="qa-pool",
            question="What happened to the pool?",
            answer_original="The pool was shut down in 1967.",
            answer_simplified=pool_answer,
            flesch_score=82.0,
            attempts_used=1,
            section_id="sec-pool",
        )
        path = tmp_path / "train.jsonl"
        export_finetune_file([sample], CONCISE_FINETUNE_PROMPT, path)
        raw = path.read_text(encoding="utf-8")
        record = json.loads(raw)
        assert record["messages"][2]["content"] == pool_answer
        # ensure_ascii=False keeps the apostrophe readable in the raw file
        assert "that's" in raw

