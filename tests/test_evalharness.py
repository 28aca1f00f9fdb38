"""Evaluation harness: percentages, similarity, exclusion accounting, CSVs."""

import csv
import dataclasses
import json
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ScriptedTransport
from convoforge.cli import _chat_fn
from convoforge.evalharness import (
    NOT_DESK_REPRODUCIBLE,
    EvalRecord,
    EvalReport,
    build_report,
    emit_report,
    generate_responses,
    pct_conversational,
)
from convoforge.gateway import GatewayConfig, NetworkError
from convoforge.pipeline import _AHEAD, QaSample

GATEWAY = GatewayConfig(
    base_url="https://eval.test.invalid", api_key_env="EVAL_TEST_KEY",
    max_retries=0, backoff_base=0.001,
)

CONVERSATIONAL_TEXT = (
    "Well, this answer is short on purpose. It uses small words. "
    "You can read it out loud in one breath. That is the whole idea."
)
STIFF_TEXT = (
    "Comprehensive organizational restructuring necessitates extraordinarily "
    "elaborate documentation requirements, systematically perpetuating "
    "incomprehensible administrative terminology."
)

# Published example responses to one CI/CD question: each base model
# answers stiffly, each fine-tuned model conversationally.
CICD_RESPONSES = [
    ("base-a", (
        "So, a CI/CD pipeline is a workflow that automates the build, test, "
        "and deployment of software. And in the context of software "
        "engineering, it's a game-changer. The main advantage of using a "
        "CI/CD pipeline is that it enables continuous integration and "
        "continuous deployment (CI/CD). This means that your code is built, "
        "tested, and deployed automatically, without any manual "
        "intervention. Here's what happens: 1. Automated builds: Your code "
        "is compiled, tested, and built automatically, using tools like "
        "Jenkins, Travis CI, or CircleCI."
    ), False),
    ("ft-a", (
        "So, a CI / CD pipeline is a way to automate your build and test "
        "process. Think of it like this: you write code, then run it "
        "through a test suite. If everything checks out, you deploy it to "
        "the cloud. But if something goes wrong, the pipeline stops and "
        "tells you what's wrong, so you can fix it fast."
    ), True),
    ("ft-b", (
        "So, think of it this way: a CI/CD pipeline just automates the "
        "boring stuff. That means everyone on the team can get their code "
        "out there faster and with fewer mistakes. And because things "
        "happen quicker and bugs get caught sooner, the whole team ends up "
        "working way more efficiently."
    ), True),
    ("base-b", (
        "A CI/CD pipeline helps software teams deliver code faster and more "
        "reliably. It automates testing and deployment, catching errors "
        "early and reducing manual work. This leads to quicker updates and "
        "better software quality."
    ), False),
]


def make_samples(n: int) -> list[QaSample]:
    return [
        QaSample(
            sample_id=f"qa-{i}",
            question=f"Question number {i}?",
            answer_original=f"Original answer {i}.",
            answer_simplified=f"Simple answer {i}.",
            flesch_score=90.0,
            attempts_used=1,
            section_id=f"sec-{i}",
        )
        for i in range(n)
    ]


def chat_step(content: str) -> dict:
    return {
        "status": 200,
        "body": {"choices": [{"message": {"role": "assistant", "content": content}}]},
    }


SYSTEM_PROMPT = "Answer briefly."


def chat_over(transport):
    return _chat_fn(GATEWAY, "m-1", 512, transport)


class TestGenerateResponses:
    def test_responses_stay_in_sample_order(self):
        samples = make_samples(3)
        transport = ScriptedTransport([chat_step(f"reply {i}") for i in range(3)])
        responses = generate_responses([(SYSTEM_PROMPT, chat_over(transport))], samples)[0]
        assert responses == ["reply 0", "reply 1", "reply 2"]
        # every request carries the system prompt and eval decoding temperature
        for _, payload in transport.requests:
            assert payload["messages"][0] == {"role": "system", "content": "Answer briefly."}
            assert payload["temperature"] == 0.0

    def test_failed_call_becomes_none_and_run_continues(self):
        samples = make_samples(3)
        transport = ScriptedTransport([
            chat_step("ok one"),
            {"status": 500, "body": "broken"},
            chat_step("ok three"),
        ])
        responses = generate_responses([(SYSTEM_PROMPT, chat_over(transport))], samples)[0]
        assert responses == ["ok one", None, "ok three"]

    def test_empty_validation_set_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            generate_responses([(SYSTEM_PROMPT, chat_over(ScriptedTransport([])))], [])[0]

    def test_empty_system_prompt_rejected_before_any_call(self):
        transport = ScriptedTransport([chat_step("unused")])
        with pytest.raises(ValueError, match="system"):
            generate_responses([("", chat_over(transport))], make_samples(1))[0]
        assert transport.requests == []


def reply_to(question: str) -> str:
    # Content-keyed: the reply depends on the question, not on call order.
    return f"You asked {question} Here is a short reply."


class TestConcurrentResponses:
    def test_slow_head_does_not_idle_the_other_workers(self):
        limit = 4
        samples = make_samples(30)
        lock = threading.Lock()
        started: set[str] = set()
        others_running = threading.Event()
        head_waits: list[bool] = []

        def chat(messages, temperature):
            question = messages[-1]["content"]
            with lock:
                started.add(question)
                if len(started) >= limit + 2:
                    others_running.set()
            if question == samples[0].question:
                # Released only once other questions have started meanwhile.
                head_waits.append(others_running.wait(timeout=5))
            return reply_to(question)

        responses = generate_responses([(SYSTEM_PROMPT, chat)], samples, limit=limit)[0]
        assert head_waits == [True]
        assert responses == [reply_to(s.question) for s in samples]

    def test_failures_are_keyed_by_content(self):
        samples = make_samples(40)
        failing = {"qa-0", "qa-9", "qa-10", "qa-23", "qa-39"}
        by_question = {s.question: s.sample_id for s in samples}

        def chat(messages, temperature):
            question = messages[-1]["content"]
            if by_question[question] in failing:
                raise NetworkError(f"injected failure for {question}")
            time.sleep(0.001 * (len(question) % 3))  # calls finish out of order
            return CONVERSATIONAL_TEXT

        def flaky_embed(texts):
            if texts[0] == CONVERSATIONAL_TEXT and texts[1] == "Simple answer 5.":
                raise NetworkError("injected embedding failure")
            return fake_embed_identical(texts)

        responses = generate_responses([(SYSTEM_PROMPT, chat)], samples, limit=8)[0]
        assert {s.sample_id for s, reply in zip(samples, responses) if reply is None} == failing
        report = build_report("m", samples, responses, embed=flaky_embed)
        assert report.missing_count == len(failing)
        assert report.embedding_failure_count == 1
        assert (
            report.n_samples + report.missing_count + report.embedding_failure_count
            == report.validation_size == 40
        )

    def test_other_errors_propagate_after_running_calls_are_joined(self):
        limit = 3
        samples = make_samples(40)
        positions = {s.question: i for i, s in enumerate(samples)}
        failing = 3
        lock = threading.Lock()
        started: set[int] = set()
        in_flight = [0]
        failed = threading.Event()

        def chat(messages, temperature):
            position = positions[messages[-1]["content"]]
            with lock:
                started.add(position)
                in_flight[0] += 1
            try:
                if position == failing:
                    time.sleep(0.5)  # the other workers drain what was submitted
                    failed.set()
                    raise RuntimeError("injected chat fault")
                if position == failing + 1:
                    failed.wait(timeout=5)
                    time.sleep(0.1)  # still running when the error propagates
                return CONVERSATIONAL_TEXT
            finally:
                with lock:
                    in_flight[0] -= 1

        with pytest.raises(RuntimeError, match="injected chat fault"):
            generate_responses([(SYSTEM_PROMPT, chat)], samples, limit=limit)[0]
        assert in_flight[0] == 0
        assert {failing, failing + 1} <= started
        assert max(started) <= failing + _AHEAD * limit


class TestPctConversational:
    def test_974_of_1000(self):
        records = [
            EvalRecord("s", "q", "e", "g", flesch_score=95.0, is_conversational=True)
            for _ in range(974)
        ] + [
            EvalRecord("s", "q", "e", "g", flesch_score=20.0, is_conversational=False)
            for _ in range(26)
        ]
        assert pct_conversational(records) == 97.4

    def test_all_below_threshold(self):
        records = [EvalRecord("s", "q", "e", "g", 12.0, False) for _ in range(10)]
        assert pct_conversational(records) == 0.0

    def test_all_at_threshold_pass(self):
        records = [EvalRecord("s", "q", "e", "g", 60.0, True) for _ in range(4)]
        assert pct_conversational(records) == 100.0

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            pct_conversational([])

    @given(st.lists(st.booleans(), min_size=1, max_size=400))
    def test_matches_direct_ratio(self, flags):
        records = [
            EvalRecord("s", "q", "e", "g", 90.0 if f else 10.0, f) for f in flags
        ]
        expected = round(100.0 * sum(flags) / len(flags), 1)
        assert pct_conversational(records) == expected

    def test_published_cicd_examples_split_evenly(self):
        samples = [
            QaSample(
                sample_id=sid, question="What is the advantage of CI/CD?",
                answer_original="x", answer_simplified="y",
                flesch_score=90.0, attempts_used=1, section_id=sid,
            )
            for sid, _, _ in CICD_RESPONSES
        ]
        responses = [text for _, text, _ in CICD_RESPONSES]
        report = build_report("cicd", samples, responses, threshold=60.0)
        assert report.pct_conversational == 50.0
        by_id = {r.sample_id: r for r in report.records}
        for sid, _, expected in CICD_RESPONSES:
            assert by_id[sid].is_conversational is expected


def fake_embed_identical(texts):
    return np.array([[1.0, 0.0] for _ in texts])


def fake_embed_orthogonal(texts):
    # generated mapped to x, expected mapped to y
    return np.array([[1.0, 0.0] if i % 2 == 0 else [0.0, 1.0] for i, _ in enumerate(texts)])


class TestSimilarity:
    def test_identical_answers_score_one(self):
        samples = make_samples(3)
        responses = [CONVERSATIONAL_TEXT] * len(samples)
        report = build_report("m", samples, responses, embed=fake_embed_identical)
        assert report.mean_semantic_similarity == pytest.approx(1.0)
        assert all(r.semantic_similarity == pytest.approx(1.0) for r in report.records)

    def test_orthogonal_answers_score_zero(self):
        samples = make_samples(2)
        responses = [CONVERSATIONAL_TEXT] * len(samples)
        report = build_report("m", samples, responses, embed=fake_embed_orthogonal)
        assert report.mean_semantic_similarity == pytest.approx(0.0)

    def test_embedding_failures_are_excluded_with_count(self):
        samples = make_samples(4)
        responses = [CONVERSATIONAL_TEXT] * len(samples)
        calls = {"n": 0}

        def flaky_embed(texts):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ValueError("vector service hiccup")
            return fake_embed_identical(texts)

        report = build_report("m", samples, responses, embed=flaky_embed)
        assert report.embedding_failure_count == 1
        assert report.n_samples == 3
        assert len(report.records) == 3


class TestExclusionAccounting:
    def test_counts_always_reproduce_validation_size(self):
        samples = make_samples(10)
        responses = [CONVERSATIONAL_TEXT] * len(samples)
        responses[3] = None   # transport failure
        responses[7] = "..."  # unscorable reply
        report = build_report("m", samples, responses)
        assert report.n_samples == 8
        assert report.missing_count == 2
        assert report.embedding_failure_count == 0
        assert report.n_samples + report.missing_count == report.validation_size == 10
        assert report.complete_run is False

    def test_complete_run_flag(self):
        samples = make_samples(5)
        responses = [CONVERSATIONAL_TEXT] * len(samples)
        assert build_report("m", samples, responses).complete_run is True

    def test_no_scorable_responses_is_an_error(self):
        samples = make_samples(2)
        responses = [None] * len(samples)
        with pytest.raises(ValueError, match="no scorable"):
            build_report("m", samples, responses)


class TestAlignment:
    def test_samples_sharing_an_id_keep_their_own_question_and_answer(self):
        # the i-th reply answers the i-th sample, whatever the ids say
        first, second = make_samples(2)
        second = dataclasses.replace(second, sample_id=first.sample_id)
        report = build_report("m", [first, second], [CONVERSATIONAL_TEXT, STIFF_TEXT])
        assert [(r.question, r.expected_answer, r.generated_answer) for r in report.records] == [
            (first.question, first.answer_simplified, CONVERSATIONAL_TEXT),
            (second.question, second.answer_simplified, STIFF_TEXT),
        ]

    def test_reply_count_must_match_sample_count(self):
        with pytest.raises(ValueError):
            build_report("m", make_samples(3), [CONVERSATIONAL_TEXT] * 2)


class TestRescoringStability:
    def test_two_builds_agree_bit_exactly(self):
        samples = make_samples(6)
        responses = [CONVERSATIONAL_TEXT if i % 2 else STIFF_TEXT for i in range(len(samples))]
        first = build_report("m", samples, responses, embed=fake_embed_identical)
        second = build_report("m", samples, responses, embed=fake_embed_identical)
        assert first == second
        for a, b in zip(first.records, second.records):
            assert a.flesch_score == b.flesch_score  # no tolerance needed


class TestEmitReport:
    def build_pair(self):
        samples = make_samples(4)
        stiff = [STIFF_TEXT] * len(samples)
        chatty = [CONVERSATIONAL_TEXT] * len(samples)
        base = build_report("base", samples, stiff)
        tuned = build_report(
            "finetuned", samples, chatty, embed=fake_embed_identical,
            training_set_size=9000,
        )
        return base, tuned

    def test_aggregate_rows_follow_report_order(self, tmp_path):
        base, tuned = self.build_pair()
        paths = emit_report([base, tuned], tmp_path)
        with open(paths["aggregate"], newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["model"] for r in rows] == ["base", "finetuned"]
        assert rows[0]["pct_conversational"] == "0.0"
        assert rows[1]["pct_conversational"] == "100.0"
        assert rows[0]["training_set_size"] == ""
        assert rows[1]["training_set_size"] == "9000"
        assert rows[1]["mean_semantic_similarity"] == "1.000000"

    def test_records_csv_has_one_row_per_kept_sample(self, tmp_path):
        base, tuned = self.build_pair()
        paths = emit_report([base, tuned], tmp_path)
        with open(paths["records"], newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert {r["model_label"] for r in rows} == {"base", "finetuned"}
        # scores are stored with full precision, booleans lowercase
        assert all(r["is_conversational"] in ("true", "false") for r in rows)
        assert float(rows[0]["flesch_score"]) < 60

    def test_report_json_round_trips(self, tmp_path):
        base, tuned = self.build_pair()
        paths = emit_report([base, tuned], tmp_path)
        with open(paths["json"], encoding="utf-8") as fh:
            assert json.load(fh) == [dataclasses.asdict(base), dataclasses.asdict(tuned)]


class TestPublishedPercentageReplay:
    """Six model runs with known pass counts land at exact one-decimal rows."""

    CASES = [
        ("gpt-4o-mini-base", 294, "29.4"),
        ("gpt-4o-mini-finetuned", 978, "97.8"),
        ("gpt-4.1-mini-base", 456, "45.6"),
        ("gpt-4.1-mini-finetuned", 976, "97.6"),
        ("llama-1b-base", 231, "23.1"),
        ("llama-1b-finetuned", 974, "97.4"),
    ]

    def test_aggregate_csv_matches_published_rows(self, tmp_path):
        samples = make_samples(1000)
        reports = []
        for label, passing, _ in self.CASES:
            responses = [CONVERSATIONAL_TEXT if i < passing else STIFF_TEXT
                         for i in range(len(samples))]
            reports.append(build_report(label, samples, responses, threshold=60.0))
        paths = emit_report(reports, tmp_path)
        with open(paths["aggregate"], newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        got = {r["model"]: r["pct_conversational"] for r in rows}
        for label, _, expected in self.CASES:
            assert got[label] == expected


class TestScopeDeclaration:
    def test_gpu_bound_outcomes_are_named(self):
        assert len(NOT_DESK_REPRODUCIBLE) == 3
        joined = " ".join(NOT_DESK_REPRODUCIBLE)
        assert "fine-tuned" in joined
        assert "int8" in joined
