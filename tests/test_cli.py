"""Command-line surface: exit codes, dry runs, network isolation."""

import errno
import hashlib
import importlib.util
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
import yaml

import convoforge.cli as cli
import convoforge.dedup as dedup_module
import convoforge.evalharness as evalharness_module
import convoforge.gateway as gateway_module
import convoforge.pipeline as pipeline_module
from conftest import DATA_DIR, QA_SECTION_RE, ScriptedTransport
from convoforge.config import ConfigError, load_run_config
from convoforge.dedup import load_index
from convoforge.gateway import CHAT_PATH, EMBEDDINGS_PATH, TransportResponse
from convoforge.pipeline import (
    _AHEAD, PipelineConfig, ingest_corpus, load_samples, read_corpus_file)
from convoforge.simulate import SimulatedModelTransport


def run_cli(capsys, *argv, transport_factory=None):
    code = cli.main(list(argv), transport_factory=transport_factory)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fail_writes_to(monkeypatch, name, after, error):
    """Make a file named name, or name.tmp, that is opened for writing or
    appending raise error at its write after `after` writes, as a disk that
    fills up would."""
    real_open = open

    class Failing:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, text):
            if self.writes == after:
                raise error
            self.writes += 1
            return self.fh.write(text)

        def writelines(self, lines):
            for line in lines:
                self.write(line)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return self.fh.__exit__(*exc_info)

        def __getattr__(self, attr):
            return getattr(self.fh, attr)

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        writes = "w" in mode or "a" in mode
        failing = writes and os.path.basename(str(file)) in (name, f"{name}.tmp")
        return Failing(fh) if failing else fh

    monkeypatch.setattr("builtins.open", failing_open)


def fail_flushes_to(monkeypatch, name, after, error, room=None):
    """Make a file named name that is opened with mode "ab" or "a" raise error
    at its raw write after `after` writes, or, with room, once it has taken
    room bytes (the write that reaches room takes only what fits): below its
    buffer, where a disk that fills up fails."""
    real_open = open

    class Failing(io.FileIO):
        writes, taken = 0, 0

        def write(self, data):
            if self.writes == after or self.taken == room:
                raise error
            if room is not None:
                data = bytes(data[:room - self.taken])
            self.writes += 1
            self.taken += len(data)
            return super().write(data)

    def failing_open(file, mode="r", buffering=-1, encoding=None, *args, **kwargs):
        if mode in ("ab", "a") and os.path.basename(str(file)) == name:
            buffered = io.BufferedWriter(Failing(file, "a"))
            return buffered if mode == "ab" else io.TextIOWrapper(buffered, encoding)
        return real_open(file, mode, buffering, encoding, *args, **kwargs)

    monkeypatch.setattr("builtins.open", failing_open)


def disk_full():
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def tmp_files(directory):
    return sorted(str(path) for path in Path(directory).rglob("*.tmp"))


def write_dryrun_config(tmp_path, **extra_paths):
    lines = [
        "pipeline:",
        "  random_seed: 1234",
        "paths:",
        f"  corpus: {DATA_DIR / 'corpus_50.jsonl'}",
        f"  output_dir: {tmp_path / 'run'}",
    ]
    for key, value in extra_paths.items():
        lines.append(f"  {key}: {value}")
    path = tmp_path / "dryrun.yaml"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestScore:
    def test_formula_ceiling(self, capsys):
        code, out, _ = run_cli(capsys, "score", "Go.")
        assert code == 0
        assert "flesch_score: 121.22" in out
        assert "sentences: 1" in out
        assert "words: 1" in out
        assert "syllables: 1" in out

    def test_empty_text_is_a_precondition_failure(self, capsys):
        code, _, err = run_cli(capsys, "score", "")
        assert code == 3
        assert "unscorable" in err

    def test_file_input(self, capsys, tmp_path, pool_answer):
        path = tmp_path / "answer.txt"
        path.write_text(pool_answer, encoding="utf-8")
        code, out, _ = run_cli(capsys, "score", "--file", str(path))
        assert code == 0
        score = float(out.split("flesch_score: ")[1].strip())
        assert 81.0 <= score <= 85.0

    def test_file_with_undecodable_bytes_names_file_and_line(self, capsys, tmp_path):
        path = tmp_path / "answer.txt"
        path.write_bytes(b"Go home.\nGo. \xff Run.\n")
        code, _, err = run_cli(capsys, "score", "--file", str(path))
        assert code == 3
        assert f"error: {path}:2: bytes that UTF-8 cannot decode" in err.splitlines()

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("Go. Run. Stop."))
        code, out, _ = run_cli(capsys, "score")
        assert code == 0
        assert "sentences: 3" in out


class TestSynthDryRun:
    def test_dry_run_reproduces_the_golden_manifest(
        self, capsys, tmp_path, golden_manifest
    ):
        config = write_dryrun_config(tmp_path)
        code, out, _ = run_cli(capsys, "synth", "--config", str(config), "--dry-run")
        assert code == 0
        assert "accepted: 42" in out
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text("utf-8"))
        assert manifest == golden_manifest

    def test_dry_run_never_opens_a_connection(self, capsys, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("HttpTransport constructed during --dry-run")

        monkeypatch.setattr(gateway_module, "HttpTransport", explode)
        monkeypatch.setattr(cli, "HttpTransport", explode)
        config = write_dryrun_config(tmp_path)
        code, _, _ = run_cli(capsys, "synth", "--config", str(config), "--dry-run")
        assert code == 0

    def test_two_dry_runs_are_bit_identical(self, capsys, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        config_a = write_dryrun_config(tmp_path / "a")
        config_b = write_dryrun_config(tmp_path / "b")
        assert run_cli(capsys, "synth", "--config", str(config_a), "--dry-run")[0] == 0
        assert run_cli(capsys, "synth", "--config", str(config_b), "--dry-run")[0] == 0
        for name in ("samples.jsonl", "manifest.json", "index.tsv"):
            assert (
                (tmp_path / "a" / "run" / name).read_bytes()
                == (tmp_path / "b" / "run" / name).read_bytes()
            )

    def test_shortfall_is_reported_but_not_fatal(self, capsys, tmp_path):
        config = write_dryrun_config(tmp_path)
        code, out, _ = run_cli(capsys, "synth", "--config", str(config), "--dry-run")
        assert code == 0
        assert "partial" in out

    def test_limit_caps_consumption(self, capsys, tmp_path):
        config = write_dryrun_config(tmp_path)
        code, _, _ = run_cli(
            capsys, "synth", "--config", str(config), "--dry-run", "--limit", "10"
        )
        assert code == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text("utf-8"))
        assert manifest["consumed_sections"] == 10


# Each case: settings merged into a dry-run config, and the text its error
# must contain. A misspelled key in any section, or a value that would break
# the run part-way, fails at load.
REJECTED_SETTINGS = [
    pytest.param({"paths": {"outptu_dir": "elsewhere"}}, "paths section: unknown key 'outptu_dir'",
                 id="paths.outptu_dir"),
    pytest.param({"run": {"generation_profle": "main"}},
                 "run section: unknown key 'generation_profle'", id="run.generation_profle"),
    pytest.param({"eval": {"treshold": 50}}, "eval section: unknown key 'treshold'",
                 id="eval.treshold"),
    pytest.param({"prompts": {"simplfy": "Say it plainly: {answer}"}},
                 "prompts section: unknown key 'simplfy'", id="prompts.simplfy"),
    pytest.param({"eval": {"models": [{"label": "a", "modle": "m", "system_prompt": "s"}]}},
                 "eval model #0: unknown key 'modle'", id="eval.models.modle"),
    pytest.param({"pipline": {"random_seed": 7}}, "unknown key 'pipline'", id="pipline"),
    pytest.param({"pipeline": {"random_sed": 7}}, "pipeline section: unknown key 'random_sed'",
                 id="pipeline.random_sed"),
    pytest.param({"paths": {"corpus": 5}}, "paths section: corpus must be of type",
                 id="paths.corpus=5"),
    pytest.param({"pipeline": {"generation_temperature": -1}},
                 "pipeline section: generation_temperature must be >= 0",
                 id="generation_temperature=-1"),
    pytest.param({"pipeline": {"validation_size": -10}},
                 "pipeline section: validation_size must be >= 1", id="validation_size=-10"),
    pytest.param({"pipeline": {"subset_sizes": [-5]}},
                 "pipeline section: subset_sizes: -5 is not in [1, 9000]",
                 id="subset_sizes=[-5]"),
    pytest.param({"pipeline": {"subset_sizes": []}},
                 "pipeline section: subset_sizes must list at least one size",
                 id="subset_sizes=[]"),
    pytest.param({"prompts": {"simplify": "Make it simpler: {answr}"}},
                 "prompts section: simplify may use only the placeholders ['question', 'answer', 'feedback']",
                 id="prompts.simplify-placeholder"),
    pytest.param({"prompts": {"qa_generation": 'Reply as {"question": ...}: {section_text}'}},
                 "prompts section: qa_generation may use only the placeholders ['section_text']",
                 id="prompts.qa_generation-brace"),
    pytest.param({"pipeline": {"generation_model": ""}},
                 "pipeline section: generation_model must be non-empty", id="generation_model=''"),
    pytest.param({"pipeline": {"embedding_model": ""}},
                 "pipeline section: embedding_model must be non-empty", id="embedding_model=''"),
    pytest.param({"eval": {"models": [{"label": "a", "model": "", "system_prompt": "s"}]}},
                 "eval model #0: model must be non-empty", id="eval.models.model=''"),
    *(pytest.param({"pipeline": {"accept_threshold": value}},
                   "pipeline section: accept_threshold must be in (0, 121.22]",
                   id=f"accept_threshold={value}")
      for value in (float("nan"), 500, -5)),
]
ARTIFACTS = ("samples.jsonl", "traces.jsonl", "index.tsv", "manifest.json", "run_config.json")


class TestSynthErrors:
    def test_missing_corpus_path_is_a_config_error(self, capsys, tmp_path):
        config = tmp_path / "bare.yaml"
        config.write_text("paths:\n  output_dir: out\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "synth", "--config", str(config))
        assert code == 2
        assert "corpus" in err

    def test_config_with_undecodable_bytes_is_a_config_error_naming_file_and_line(
        self, capsys, tmp_path
    ):
        config = write_dryrun_config(tmp_path)
        config.write_bytes(b"# caf\xe9, as Latin-1 spells it\n" + config.read_bytes())
        code, _, err = run_cli(capsys, "synth", "--config", str(config), "--dry-run")
        assert code == 2
        assert f"error: {config}:1: bytes that UTF-8 cannot decode" in err.splitlines()
        assert not (tmp_path / "run").exists()

    def test_zero_max_output_tokens_fails_before_touching_outputs(self, capsys, tmp_path):
        config = write_dryrun_config(tmp_path)
        config.write_text(
            config.read_text("utf-8").replace("pipeline:\n", "pipeline:\n  max_output_tokens: 0\n"),
            encoding="utf-8",
        )
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        for name in ("samples.jsonl", "traces.jsonl"):
            (run_dir / name).write_text("previous\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "synth", "--config", str(config), "--dry-run")
        assert code == 2
        assert "max_output_tokens" in err
        for name in ("samples.jsonl", "traces.jsonl"):
            assert (run_dir / name).read_text("utf-8") == "previous\n"

    def test_wrongly_typed_setting_fails_before_touching_outputs(self, capsys, synthesized_run):
        samples = synthesized_run / "run" / "samples.jsonl"
        before = samples.read_bytes()
        config = write_dryrun_config(synthesized_run)
        config.write_text(
            config.read_text("utf-8").replace("pipeline:\n", "pipeline:\n  accept_threshold: high\n"),
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "synth", "--config", str(config), "--dry-run")
        assert code == 2
        assert "pipeline section: accept_threshold" in err
        assert samples.read_bytes() == before

    def test_missing_api_key_names_the_variable(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("ABSENT_SYNTH_KEY", raising=False)
        config = tmp_path / "live.yaml"
        config.write_text(
            "gateways:\n"
            "  main:\n"
            "    base_url: https://example.invalid\n"
            "    api_key_env: ABSENT_SYNTH_KEY\n"
            "run:\n"
            "  generation_profile: main\n"
            "paths:\n"
            f"  corpus: {DATA_DIR / 'corpus_50.jsonl'}\n"
            f"  output_dir: {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "synth", "--config", str(config))
        assert code == 2
        assert "ABSENT_SYNTH_KEY" in err

    @pytest.mark.parametrize("settings, named", REJECTED_SETTINGS)
    def test_rejected_setting_leaves_a_finished_run_untouched(
        self, capsys, synthesized_run, settings, named
    ):
        run_dir = synthesized_run / "run"
        before = {name: (run_dir / name).read_bytes() for name in ARTIFACTS}
        config = {"pipeline": {"random_seed": 1234},
                  "paths": {"corpus": str(DATA_DIR / "corpus_50.jsonl")}}
        for section, values in settings.items():
            config.setdefault(section, {}).update(values)
        path = synthesized_run / "rejected.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        with pytest.raises(ConfigError) as raised:
            load_run_config(path)
        assert named in str(raised.value)
        code, _, err = run_cli(capsys, "synth", "--config", str(path), "--dry-run",
                               "--out", str(run_dir))
        assert code == 2
        assert named in err
        assert {name: (run_dir / name).read_bytes() for name in ARTIFACTS} == before

    def test_duplicate_corpus_id_leaves_a_finished_run_untouched(self, capsys, synthesized_run):
        run_dir = synthesized_run / "run"
        before = {name: (run_dir / name).read_bytes() for name in ARTIFACTS}
        lines = (DATA_DIR / "corpus_50.jsonl").read_text("utf-8").splitlines(keepends=True)
        corpus = synthesized_run / "corpus_51.jsonl"
        corpus.write_text("".join(lines + lines[:1]), encoding="utf-8")
        config = write_dryrun_config(synthesized_run)
        config.write_text(config.read_text("utf-8").replace(
            str(DATA_DIR / "corpus_50.jsonl"), str(corpus)), encoding="utf-8")
        code, _, err = run_cli(capsys, "synth", "--config", str(config), "--dry-run")
        assert code == 3
        assert "corpus records 1 and 51 share the section id 'sec-ok-001'" in err
        assert {name: (run_dir / name).read_bytes() for name in ARTIFACTS} == before

    @pytest.mark.parametrize("char, reason", [
        pytest.param("\t", "has a tab, LF or CR in its section id", id="tab"),
        pytest.param("\n", "has a tab, LF or CR in its section id", id="lf"),
        pytest.param("\r", "has a tab, LF or CR in its section id", id="cr"),
        pytest.param("\ud800", "has a section id that UTF-8 cannot encode", id="surrogate"),
    ])
    def test_corpus_id_that_would_split_an_index_line_leaves_a_finished_run_untouched(
        self, capsys, synthesized_run, char, reason
    ):
        run_dir = synthesized_run / "run"
        before = {name: (run_dir / name).read_bytes() for name in ARTIFACTS}
        records = read_corpus_file(DATA_DIR / "corpus_50.jsonl")
        records[0]["id"] += f"a{char}b"
        corpus = synthesized_run / "corpus_bad_id.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        config = write_dryrun_config(synthesized_run)
        config.write_text(config.read_text("utf-8").replace(
            str(DATA_DIR / "corpus_50.jsonl"), str(corpus)), encoding="utf-8")
        code, _, err = run_cli(capsys, "synth", "--config", str(config), "--dry-run")
        assert code == 3
        assert f"corpus record 1 {reason}" in err
        assert {name: (run_dir / name).read_bytes() for name in ARTIFACTS} == before

    @pytest.mark.parametrize("where", ["qa-escape", "simplified-raw"])
    def test_reply_that_utf8_cannot_encode_is_a_generation_error(self, capsys, tmp_path, where):
        config = live_config(tmp_path)
        code, out, _ = run_cli(capsys, "synth", "--config", str(config),
                               transport_factory=lambda profile, gw: SurrogateFor(where))
        assert code == 0
        assert "accepted: 41" in out
        run_dir = tmp_path / "run"
        (trace,) = [t for t in read_corpus_file(run_dir / "traces.jsonl")
                    if t["section_id"] == SurrogateFor.SECTION]
        assert trace["outcome"] == "generation_error"
        assert trace["error"].startswith("reply text that UTF-8 cannot encode: ")
        code, _, _ = run_cli(capsys, "dedup-check", "--index", str(run_dir / "index.tsv"))
        assert code == 0
        before = {name: (run_dir / name).read_bytes() for name in ARTIFACTS}
        code, _, _ = run_cli(capsys, "synth", "--config", str(config), "--resume",
                             transport_factory=lambda profile, gw: SimulatedModelTransport())
        assert code == 0
        assert {name: (run_dir / name).read_bytes() for name in ARTIFACTS} == before

    def test_negative_limit_leaves_a_finished_run_untouched(self, capsys, synthesized_run):
        run_dir = synthesized_run / "run"
        before = {name: (run_dir / name).read_bytes() for name in ARTIFACTS}
        config = write_dryrun_config(synthesized_run)
        code, _, err = run_cli(capsys, "synth", "--config", str(config), "--dry-run",
                               "--limit", "-1")
        assert code == 2
        assert "--limit must be >= 0" in err
        assert {name: (run_dir / name).read_bytes() for name in ARTIFACTS} == before


@pytest.fixture()
def synthesized_run(tmp_path):
    """A completed dry run: 42 samples under tmp_path/run."""
    config = write_dryrun_config(tmp_path)
    code = cli.main(["synth", "--config", str(config), "--dry-run"])
    assert code == 0
    return tmp_path


def eval_config_text(run_dir, extra_models=""):
    return (
        "pipeline:\n"
        "  embedding_model: sim-embed\n"
        "gateways:\n"
        "  sim:\n"
        "    base_url: https://sim.invalid\n"
        "    api_key_env: SIM_EVAL_KEY\n"
        "run:\n"
        "  generation_profile: sim\n"
        "eval:\n"
        "  threshold: 60\n"
        "  models:\n"
        "    - label: base\n"
        "      profile: sim\n"
        "      model: sim-chat\n"
        "      system_prompt_preset: verbose-base\n"
        "    - label: tuned\n"
        "      profile: sim\n"
        "      model: sim-chat-ft\n"
        "      system_prompt_preset: concise-finetune\n"
        "      max_output_tokens: 256\n"
        "      training_set_size: 9000\n"
        + extra_models
        + "paths:\n"
        f"  output_dir: {run_dir / 'run'}\n"
        f"  validation: {run_dir / 'run' / 'samples.jsonl'}\n"
    )


class RecordingTransport(SimulatedModelTransport):
    def __init__(self):
        self.requests = []

    def post(self, path, payload):
        self.requests.append((path, payload))
        return super().post(path, payload)


class KeyRejectedOn(SimulatedModelTransport):
    """Answers 401 on one path, as an endpoint does for a revoked key, and
    counts those posts; serves every other request from the simulator."""

    def __init__(self, path):
        self.path = path
        self.rejected = 0
        self._lock = threading.Lock()

    def post(self, path, payload):
        if path != self.path:
            return super().post(path, payload)
        with self._lock:
            self.rejected += 1
        return TransportResponse(status=401, body={"error": "invalid api key"})


class ZeroVectorsAt(SimulatedModelTransport):
    """Answers the first embed call with zero vectors, which no cosine can
    take; serves all else from the simulator."""

    def __init__(self):
        self.embeds = 0

    def post(self, path, payload):
        response = super().post(path, payload)
        if path == EMBEDDINGS_PATH:
            self.embeds += 1
            if self.embeds == 1:
                for row in response.body["data"]:
                    row["embedding"] = [0.0] * len(row["embedding"])
        return response


class TestZeroVector:
    def test_synth_writes_off_only_its_section(self, capsys, tmp_path):
        config = live_config(tmp_path)  # one call in flight: the embed calls come in order
        code, _, _ = run_cli(capsys, "synth", "--config", str(config),
                             transport_factory=lambda profile, gw: ZeroVectorsAt())
        assert code == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text("utf-8"))
        assert manifest["counts"] == {"accepted": 41, "discarded_readability": 4,
                                      "generation_error": 4, "rejected_duplicate": 1}
        errors = [t["error"] for t in read_corpus_file(tmp_path / "run" / "traces.jsonl")
                  if t["outcome"] == "generation_error"]
        assert sum(error.startswith("malformed embeddings body") for error in errors) == 1

    def test_eval_counts_one_embedding_failure(self, capsys, synthesized_run):
        config = synthesized_run / "eval.yaml"
        config.write_text(eval_config_text(synthesized_run), encoding="utf-8")
        transport = ZeroVectorsAt()
        code, _, _ = run_cli(capsys, "eval", "--config", str(config), "--similarity",
                             transport_factory=lambda profile, gw: transport)
        assert code == 0
        report = json.loads((synthesized_run / "run" / "eval" / "report.json").read_text("utf-8"))
        assert [(r["n_samples"], r["embedding_failure_count"]) for r in report] == [
            (41, 1), (42, 0)]


class TestRejectedKey:
    # At most _AHEAD x concurrency_limit calls are started before the first
    # rejection reaches the consumer; none is started after it.
    MAX_POSTS = 2 * PipelineConfig().concurrency_limit

    @pytest.mark.parametrize("path", [CHAT_PATH, EMBEDDINGS_PATH])
    def test_synth_stops_with_exit_4(self, capsys, tmp_path, path):
        config = tmp_path / "live.yaml"
        config.write_text(
            eval_config_text(tmp_path) + f"  corpus: {DATA_DIR / 'corpus_50.jsonl'}\n",
            encoding="utf-8",
        )
        transport = KeyRejectedOn(path)
        code, _, err = run_cli(
            capsys, "synth", "--config", str(config),
            transport_factory=lambda profile, gw: transport,
        )
        assert code == 4
        assert "HTTP 401" in err
        assert 1 <= transport.rejected <= self.MAX_POSTS
        traces = (tmp_path / "run" / "traces.jsonl").read_text("utf-8").splitlines()
        assert not [line for line in traces if "401" in line]

    @pytest.mark.parametrize("path", [CHAT_PATH, EMBEDDINGS_PATH])
    def test_eval_stops_with_exit_4(self, capsys, synthesized_run, path):
        config = synthesized_run / "eval.yaml"
        config.write_text(eval_config_text(synthesized_run), encoding="utf-8")
        transport = KeyRejectedOn(path)
        code, _, err = run_cli(
            capsys, "eval", "--config", str(config), "--similarity",
            transport_factory=lambda profile, gw: transport,
        )
        assert code == 4
        assert "HTTP 401" in err
        assert 1 <= transport.rejected <= self.MAX_POSTS
        assert not (synthesized_run / "run" / "eval").exists()


class OutageFrom(SimulatedModelTransport):
    """Serves posts from the simulator until post `first_failing`, then answers
    503 to every post, as an endpoint in an outage does. Remembers the section
    whose QA prompt came last before the outage: at concurrency_limit 1, the
    section the outage hit."""

    def __init__(self, first_failing):
        self.first_failing = first_failing
        self.posts = 0
        self.last_section = None
        self.hit_section = None
        self._lock = threading.Lock()

    def post(self, path, payload):
        with self._lock:
            self.posts += 1
            if path == CHAT_PATH:
                match = QA_SECTION_RE.search(payload["messages"][-1]["content"])
                if match:
                    self.last_section = match.group(1)
            if self.posts < self.first_failing:
                return super().post(path, payload)
            if self.hit_section is None:
                self.hit_section = self.last_section
        return TransportResponse(status=503, body={"error": "service unavailable"})


class SurrogateFor(SimulatedModelTransport):
    """Serves every post from the simulator, but puts a lone surrogate in one
    section's sample: as a JSON escape in the question of its QA object, or
    raw at the end of its simplified answer."""

    SECTION = "sec-ok-001"

    def __init__(self, where):
        self.where = where

    def post(self, path, payload):
        response = super().post(path, payload)
        prompt = payload["messages"][-1]["content"] if path == CHAT_PATH else ""
        message = response.body["choices"][0]["message"] if prompt else {}
        if self.where == "qa-escape" and f"Section {self.SECTION}." in prompt:
            message["content"] = message["content"].replace('describe?"', 'describe?\\ud800"')
        elif self.where == "simplified-raw" and f"record about {self.SECTION} " in prompt:
            message["content"] += " \ud800"
        return response


def live_config(tmp_path, max_retries=1, backoff_base=0):
    """Synth against the `sim` gateway, one call in flight, by default one
    retry at once."""
    path = tmp_path / "live.yaml"
    path.write_text(
        "pipeline:\n"
        "  embedding_model: sim-embed\n"
        "  concurrency_limit: 1\n"
        "gateways:\n"
        "  sim:\n"
        "    base_url: https://sim.invalid\n"
        "    api_key_env: SIM_SYNTH_KEY\n"
        f"    max_retries: {max_retries}\n"
        f"    backoff_base: {backoff_base}\n"
        "run:\n"
        "  generation_profile: sim\n"
        "paths:\n"
        f"  corpus: {DATA_DIR / 'corpus_50.jsonl'}\n"
        f"  output_dir: {tmp_path / 'run'}\n",
        encoding="utf-8",
    )
    return path


class TestResume:
    def test_outage_stops_synth_and_resume_finishes_it(self, capsys, tmp_path):
        config = live_config(tmp_path)
        outage = OutageFrom(60)
        code, _, err = run_cli(capsys, "synth", "--config", str(config),
                               transport_factory=lambda profile, gw: outage)
        assert code == 4
        assert "HTTP 503" in err
        # posts 60 and 61 are the failing call and its one retry; no later
        # section starts once that call has raised
        assert outage.posts == 61
        order = [s.section_id for s in ingest_corpus(
            read_corpus_file(DATA_DIR / "corpus_50.jsonl"), PipelineConfig()).sections]
        traces = read_corpus_file(tmp_path / "run" / "traces.jsonl")
        assert [t["section_id"] for t in traces] == order[:order.index(outage.hit_section)]
        assert not (tmp_path / "run" / "manifest.json").exists()

        healthy = SimulatedModelTransport()
        code, _, _ = run_cli(capsys, "synth", "--config", str(config), "--resume",
                             transport_factory=lambda profile, gw: healthy)
        assert code == 0
        code, _, _ = run_cli(capsys, "synth", "--config", str(config),
                             "--out", str(tmp_path / "whole"),
                             transport_factory=lambda profile, gw: healthy)
        assert code == 0
        for name in ("samples.jsonl", "index.tsv", "manifest.json"):
            assert (tmp_path / "run" / name).read_bytes() == (
                tmp_path / "whole" / name).read_bytes(), name

    @pytest.mark.parametrize("damage", ["deleted", "last line dropped"])
    def test_resume_refuses_an_index_that_disagrees_with_the_samples(
        self, capsys, synthesized_run, damage
    ):
        run_dir = synthesized_run / "run"
        index = run_dir / "index.tsv"
        if damage == "deleted":
            index.unlink()
        else:
            index.write_text("".join(index.read_text("utf-8").splitlines(True)[:-1]), "utf-8")
        before = {name: path.read_bytes() for name in ARTIFACTS
                  if (path := run_dir / name).exists()}
        config = write_dryrun_config(synthesized_run)
        code, _, err = run_cli(capsys, "synth", "--config", str(config), "--dry-run",
                               "--resume")
        assert code == 3
        held = 0 if damage == "deleted" else 41
        assert f"index.tsv holds {held} ids and traces.jsonl 42 accepted samples" in err
        assert {name: path.read_bytes() for name in ARTIFACTS
                if (path := run_dir / name).exists()} == before

    def test_resume_of_a_finished_run_changes_no_byte(self, capsys, tmp_path):
        config = write_dryrun_config(tmp_path)
        code, _, _ = run_cli(capsys, "synth", "--config", str(config), "--dry-run")
        assert code == 0
        run_dir = tmp_path / "run"
        before = {name: (run_dir / name).read_bytes() for name in ARTIFACTS}
        index_inode = (run_dir / "index.tsv").stat().st_ino
        code, _, _ = run_cli(capsys, "synth", "--config", str(config), "--dry-run", "--resume")
        assert code == 0
        assert {name: (run_dir / name).read_bytes() for name in ARTIFACTS} == before
        assert (run_dir / "index.tsv").stat().st_ino == index_inode  # appended in place

    @pytest.mark.parametrize("damage", ["deleted", "truncated", "garbage line"])
    def test_resume_rewrites_samples_from_the_log(self, capsys, synthesized_run, damage):
        run_dir = synthesized_run / "run"
        before = {name: (run_dir / name).read_bytes() for name in ARTIFACTS}
        samples = run_dir / "samples.jsonl"
        if damage == "deleted":
            samples.unlink()
        elif damage == "truncated":
            samples.write_bytes(before["samples.jsonl"][:1000])
        else:
            samples.write_bytes(before["samples.jsonl"] + b"{not json\n")
        config = write_dryrun_config(synthesized_run)
        code, _, _ = run_cli(capsys, "synth", "--config", str(config), "--dry-run", "--resume")
        assert code == 0
        assert {name: (run_dir / name).read_bytes() for name in ARTIFACTS} == before
        assert not (run_dir / "samples.jsonl.tmp").exists()

    def test_an_interrupt_in_the_samples_rebuild_leaves_no_tmp_file(
        self, capsys, tmp_path, monkeypatch
    ):
        config = write_dryrun_config(tmp_path)
        with monkeypatch.context() as patch:
            fail_writes_to(patch, "samples.jsonl", 10, KeyboardInterrupt())
            with pytest.raises(KeyboardInterrupt):
                cli.main(["synth", "--config", str(config), "--dry-run"])
        assert tmp_files(tmp_path) == []
        assert not (tmp_path / "run" / "samples.jsonl").exists()
        code, _, _ = run_cli(capsys, "synth", "--config", str(config), "--dry-run", "--resume")
        assert code == 0
        assert_golden_run(tmp_path / "run")
        assert tmp_files(tmp_path) == []

    def test_resume_cuts_a_log_line_torn_inside_a_character(self, capsys, synthesized_run):
        # The torn tail is left out unread, so its cut "\xc3" is no error.
        cut_inside_e_acute(synthesized_run / "run" / "traces.jsonl")
        config = write_dryrun_config(synthesized_run)
        code, _, _ = run_cli(capsys, "synth", "--config", str(config), "--dry-run", "--resume")
        assert code == 0
        assert_golden_run(synthesized_run / "run")

    def test_resume_refuses_a_torn_last_index_line(self, capsys, synthesized_run):
        # As a killed writer leaves it: the last number could load cut short.
        run_dir = synthesized_run / "run"
        index = run_dir / "index.tsv"
        index.write_bytes(index.read_bytes()[:-3])
        before = {name: (run_dir / name).read_bytes() for name in ARTIFACTS}
        config = write_dryrun_config(synthesized_run)
        code, _, err = run_cli(capsys, "synth", "--config", str(config), "--dry-run", "--resume")
        assert code == 3
        assert f"{index}:42: index line lacks its newline" in err
        assert {name: (run_dir / name).read_bytes() for name in ARTIFACTS} == before
        assert sorted(os.listdir(run_dir)) == sorted(ARTIFACTS)

    @pytest.mark.parametrize("limit", [None, 20], ids=["finished", "limited"])
    @pytest.mark.parametrize("old, new, named", [
        ("random_seed: 1234", "random_seed: 99", "pipeline.random_seed"),
        ("random_seed: 1234", "random_seed: 1234\n  dedup_threshold: 0.5\n"
         "prompts:\n  simplify: 'Say {answer} to {question} simply.{feedback}'",
         "pipeline.dedup_threshold, prompts.simplify"),
    ], ids=["seed", "threshold-and-template"])
    def test_resume_refuses_settings_that_change_what_the_run_makes(
        self, capsys, tmp_path, limit, old, new, named
    ):
        config = write_dryrun_config(tmp_path)
        limited = [] if limit is None else ["--limit", str(limit)]
        code, _, _ = run_cli(capsys, "synth", "--config", str(config), "--dry-run", *limited)
        assert code == 0
        run_dir = tmp_path / "run"
        before = {name: path.read_bytes() for name in ARTIFACTS
                  if (path := run_dir / name).exists()}
        config.write_text(config.read_text("utf-8").replace(old, new), encoding="utf-8")
        code, _, err = run_cli(capsys, "synth", "--config", str(config), "--dry-run", "--resume")
        assert code == 3
        assert f"cannot resume: the run started under another {named} (see run_config.json)" in err
        assert {name: path.read_bytes() for name in ARTIFACTS
                if (path := run_dir / name).exists()} == before

    @pytest.mark.parametrize("limit", [None, 20], ids=["finished", "limited"])
    def test_resume_under_another_target_finishes(self, capsys, tmp_path, limit):
        config = write_dryrun_config(tmp_path)
        limited = [] if limit is None else ["--limit", str(limit)]
        code, _, _ = run_cli(capsys, "synth", "--config", str(config), "--dry-run", *limited)
        assert code == 0
        config.write_text(config.read_text("utf-8").replace(
            "pipeline:\n", "pipeline:\n  target_samples: 20000\n  concurrency_limit: 3\n"
                           "  validation_size: 10\n  subset_sizes: [5]\n"), encoding="utf-8")
        code, out, _ = run_cli(capsys, "synth", "--config", str(config), "--dry-run", "--resume")
        assert code == 0
        assert "samples: 42" in out
        code, _, _ = run_cli(capsys, "synth", "--config", str(config), "--dry-run",
                             "--out", str(tmp_path / "whole"))
        assert code == 0
        for name in ("samples.jsonl", "index.tsv", "manifest.json", "run_config.json"):
            assert (tmp_path / "run" / name).read_bytes() == (
                tmp_path / "whole" / name).read_bytes(), name

    def test_resume_refuses_a_run_without_its_settings_record(self, capsys, synthesized_run):
        run_dir = synthesized_run / "run"
        (run_dir / "run_config.json").unlink()
        before = {name: path.read_bytes() for name in ARTIFACTS
                  if (path := run_dir / name).exists()}
        config = write_dryrun_config(synthesized_run)
        code, _, err = run_cli(capsys, "synth", "--config", str(config), "--dry-run", "--resume")
        assert code == 3
        assert "cannot resume: run_config.json, which records the settings" in err
        assert {name: path.read_bytes() for name in ARTIFACTS
                if (path := run_dir / name).exists()} == before

    def test_resume_refuses_a_damaged_settings_record_naming_it(self, capsys, synthesized_run):
        run_dir = synthesized_run / "run"
        run_config = run_dir / "run_config.json"
        whole = run_config.read_bytes()
        config = write_dryrun_config(synthesized_run)
        for damaged, message in ((whole[:31], f"error: {run_config}: invalid JSON: "),
                                 (b"\xff" + whole[1:],
                                  f"error: {run_config}:1: bytes that UTF-8 cannot decode\n")):
            run_config.write_bytes(damaged)
            before = {name: (run_dir / name).read_bytes() for name in ARTIFACTS}
            code, _, err = run_cli(capsys, "synth", "--config", str(config), "--dry-run",
                                   "--resume")
            assert code == 3
            assert message in err
            assert {name: (run_dir / name).read_bytes() for name in ARTIFACTS} == before


# Each case: a sample record made into one that is not, and the reason its
# error must give after path:line.
MALFORMED_SAMPLES = [
    pytest.param(lambda record: {k: v for k, v in record.items() if k != "question"},
                 "missing key 'question'", id="missing-key"),
    pytest.param(lambda record: [record["question"]], "expected a JSON object, got list",
                 id="not-an-object"),
    pytest.param(lambda record: {**record, "question": 5},
                 "question must be of type str, got 5", id="str-field"),
    pytest.param(lambda record: {**record, "flesch_score": "high"},
                 "flesch_score must be of type float, got 'high'", id="float-field"),
    pytest.param(lambda record: {**record, "attempts_used": "2"},
                 "attempts_used must be >= 1, got '2'", id="int-field"),
]


def assert_golden_run(run_dir):
    """The run in run_dir wrote the 50-section dry run's golden bytes."""
    for name in ("samples.jsonl", "index.tsv", "manifest.json"):
        digest = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[f"run/{name}"], name


class TestIndexWriteFailure:
    # Each accepted entry's index line is one flush, so `after` counts whole
    # lines; 5,000 bytes of room end the index in a torn line.
    @pytest.mark.parametrize("after, room", [(0, None), (5, None), (None, 5000)],
                             ids=["first-line", "sixth-line", "mid-line"])
    @pytest.mark.parametrize("start", ["fresh", "resumed"])
    def test_a_failed_index_write_exits_1_and_resume_finishes_the_run(
        self, capsys, tmp_path, monkeypatch, after, room, start
    ):
        config = write_dryrun_config(tmp_path)
        run_dir = tmp_path / "run"
        index = run_dir / "index.tsv"
        resume = []
        if start == "resumed":
            code, _, _ = run_cli(capsys, "synth", "--config", str(config), "--dry-run",
                                 "--limit", "20")
            assert code == 0
            resume = ["--resume"]
        with monkeypatch.context() as patch:
            fail_flushes_to(patch, "index.tsv", after, disk_full(), room)
            code, _, err = run_cli(capsys, "synth", "--config", str(config), "--dry-run", *resume)
        assert code == 1
        assert f"error: [Errno {errno.ENOSPC}] cannot append to {index} (" in err
        assert sorted(os.listdir(run_dir)) == [
            "index.tsv", "run_config.json", "samples.jsonl", "traces.jsonl"]
        # samples.jsonl is rebuilt from the log although the index write raised,
        # and the index holds a whole line for each accepted log line.
        traces = read_corpus_file(run_dir / "traces.jsonl")
        samples = [t["sample"] for t in traces if t["outcome"] == "accepted"]
        assert read_corpus_file(run_dir / "samples.jsonl") == samples
        held = index.read_bytes()
        torn = held[held.rfind(b"\n") + 1:]
        assert held.count(b"\n") == len(samples) and bool(torn) == (room is not None)
        code, _, _ = run_cli(capsys, "synth", "--config", str(config), "--dry-run", "--resume")
        assert code == 0
        assert_golden_run(run_dir)


class TestLogWriteFailure:
    def test_a_full_disk_exits_1_naming_it_and_resume_finishes_the_run(
        self, capsys, tmp_path, monkeypatch
    ):
        config = write_dryrun_config(tmp_path)
        traces = tmp_path / "run" / "traces.jsonl"
        with monkeypatch.context() as patch:
            fail_flushes_to(patch, "traces.jsonl", None, disk_full(), room=12_000)
            code, _, err = run_cli(capsys, "synth", "--config", str(config), "--dry-run")
        assert code == 1
        assert err.splitlines()[-1] == f"error: {disk_full()}"
        assert traces.stat().st_size == 12_000 and not traces.read_bytes().endswith(b"\n")
        code, _, _ = run_cli(capsys, "synth", "--config", str(config), "--dry-run", "--resume")
        assert code == 0
        assert_golden_run(tmp_path / "run")


def test_synth_starts_no_process(capsys, tmp_path, monkeypatch):
    started = []

    def start(*args, **kwargs):
        started.append(args)
        raise AssertionError("synth started a process")

    for owner, name in [(subprocess, "Popen"), (os, "fork"), (os, "posix_spawn"),
                        (os, "posix_spawnp"), (os, "system")]:
        monkeypatch.setattr(owner, name, start)
    config = write_dryrun_config(tmp_path)
    code, _, _ = run_cli(capsys, "synth", "--config", str(config), "--dry-run")
    assert code == 0
    assert started == []


CTRL_C_SCRIPT = """
import signal, sys, threading, time
from convoforge import cli
from convoforge.simulate import SimulatedModelTransport

class Slow(SimulatedModelTransport):
    posts, lock = 0, threading.Lock()

    def post(self, path, payload):
        with Slow.lock:
            Slow.posts += 1
            if Slow.posts in (60, 90, 120):
                print("mid-run", flush=True)
        time.sleep(0.005)
        return super().post(path, payload)

# As a child of an interactive shell has it, also where this process was
# started with SIGINT ignored (as a shell's background job is).
signal.signal(signal.SIGINT, signal.default_int_handler)
sys.exit(cli.main(sys.argv[1:], transport_factory=lambda profile, gw: Slow()))
"""


# The run's first call hangs: it says whether a stop was requested within
# 10 s, then sleeps on, as a call stuck in a long timeout would.
STUCK_SCRIPT = """
import signal, sys, time
from convoforge import cli
from convoforge.simulate import SimulatedModelTransport

class Stuck(SimulatedModelTransport):
    def post(self, path, payload):
        print("mid-run", flush=True)
        deadline = time.monotonic() + 10
        while signal.getsignal(signal.SIGINT) is not signal.SIG_DFL:
            if time.monotonic() > deadline:
                print("no stop", flush=True)
                break
            time.sleep(0.01)
        else:
            print("stopping", flush=True)
        time.sleep(60)

signal.signal(signal.SIGINT, signal.default_int_handler)
sys.exit(cli.main(sys.argv[1:], transport_factory=lambda profile, gw: Stuck()))
"""


def start_synth(config, script=CTRL_C_SCRIPT, inherited=signal.SIG_DFL):
    """A real synth process running script, in its own process group, with
    SIGINT set to `inherited`."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen(
        [sys.executable, "-c", script, "synth", "--config", str(config)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, start_new_session=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, inherited),
    )


def stop_synth_midrun(config, stop, inherited=signal.SIG_DFL):
    """Start a real synth process with SIGINT set to `inherited`, call stop(pid)
    once it is mid-run, and return its exit status and stderr."""
    proc = start_synth(config, inherited=inherited)
    try:
        assert proc.stdout.readline() == b"mid-run\n"
        stop(proc.pid)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, err


def assert_resume_finishes(capsys, tmp_path, config):
    """The stopped run in tmp_path/run holds the log's accepted samples in
    samples.jsonl and their ids in the index, and --resume then writes what
    an uninterrupted run writes."""
    run_dir = tmp_path / "run"
    assert not (run_dir / "manifest.json").exists()
    assert sorted(os.listdir(run_dir)) == ["index.tsv", "run_config.json", "samples.jsonl", "traces.jsonl"]
    traces = read_corpus_file(run_dir / "traces.jsonl")
    samples = [t["sample"] for t in traces if t["outcome"] == "accepted"]
    assert read_corpus_file(run_dir / "samples.jsonl") == samples
    assert load_index(run_dir / "index.tsv").ids == [s["sample_id"] for s in samples]
    assert 0 < len(samples) < 42
    assert_resume_writes_the_whole_run(capsys, tmp_path, config)


def assert_resume_writes_the_whole_run(capsys, tmp_path, config):
    """--resume of the run in tmp_path/run writes what an uninterrupted run writes."""
    run_dir = tmp_path / "run"
    healthy = SimulatedModelTransport()
    code, _, _ = run_cli(capsys, "synth", "--config", str(config), "--resume",
                         transport_factory=lambda profile, gw: healthy)
    assert code == 0
    code, _, _ = run_cli(capsys, "synth", "--config", str(config),
                         "--out", str(tmp_path / "whole"),
                         transport_factory=lambda profile, gw: healthy)
    assert code == 0
    for name in ("samples.jsonl", "index.tsv", "manifest.json"):
        assert (run_dir / name).read_bytes() == (tmp_path / "whole" / name).read_bytes(), name


@pytest.mark.parametrize("inherited", [signal.SIG_DFL, signal.SIG_IGN], ids=["default", "ignored"])
def test_ctrl_c_leaves_a_run_that_resume_finishes(capsys, tmp_path, inherited):
    """SIGINT, sent as a terminal's Ctrl-C sends it to the foreground
    process group."""
    config = live_config(tmp_path)
    status, err = stop_synth_midrun(
        config, lambda pid: os.killpg(pid, signal.SIGINT), inherited)
    assert status == -signal.SIGINT, err.decode()
    assert b"KeyboardInterrupt" in err
    assert_resume_finishes(capsys, tmp_path, config)


def test_sigterm_leaves_a_run_that_resume_finishes(capsys, tmp_path):
    """SIGTERM, sent to synth alone, as timeout and docker stop send it: synth
    runs the same exit path as for a Ctrl-C, then dies by SIGTERM."""
    config = live_config(tmp_path)
    status, err = stop_synth_midrun(config, lambda pid: os.kill(pid, signal.SIGTERM))
    assert status == -signal.SIGTERM, err.decode()
    assert b"Traceback" not in err
    handler = signal.getsignal(signal.SIGTERM)
    assert_resume_finishes(capsys, tmp_path, config)
    assert signal.getsignal(signal.SIGTERM) is handler  # restored after each in-process synth


@pytest.mark.parametrize("marks", [1, 2, 3], ids=["post-60", "post-90", "post-120"])
def test_sigkill_leaves_a_run_that_resume_finishes(capsys, tmp_path, marks):
    """A SIGKILL runs no finally: the log's buffered lines are lost, the index
    runs ahead of it, and samples.jsonl may be missing."""
    config = live_config(tmp_path)
    proc = start_synth(config)
    try:
        for _ in range(marks):
            assert proc.stdout.readline() == b"mid-run\n"
        os.killpg(proc.pid, signal.SIGKILL)
        assert proc.wait(timeout=60) == -signal.SIGKILL
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert not (tmp_path / "run" / "manifest.json").exists()
    assert_resume_writes_the_whole_run(capsys, tmp_path, config)


# Serves the simulator until post 60, then answers 503 to every post: it says
# "backing off" at the first 503 and "post" at each later post.
OUTAGE_SCRIPT = """
import signal, sys, threading
from convoforge import cli
from convoforge.gateway import TransportResponse
from convoforge.simulate import SimulatedModelTransport

class Outage(SimulatedModelTransport):
    posts, lock = 0, threading.Lock()

    def post(self, path, payload):
        with Outage.lock:
            Outage.posts += 1
            if Outage.posts < 60:
                return super().post(path, payload)
            print("backing off" if Outage.posts == 60 else "post", flush=True)
        return TransportResponse(status=503, body={"error": "service unavailable"})

signal.signal(signal.SIGINT, signal.default_int_handler)
sys.exit(cli.main(sys.argv[1:], transport_factory=lambda profile, gw: Outage()))
"""


def test_a_stop_cuts_a_backoff_sleep_short(capsys, tmp_path):
    """The call backing off on a 503 when the stop arrives makes no further
    post, and the run still ends as a stop."""
    config = live_config(tmp_path, max_retries=4, backoff_base=60)
    proc = start_synth(config, OUTAGE_SCRIPT)
    try:
        assert proc.stdout.readline() == b"backing off\n"
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == -signal.SIGINT, err.decode()
    assert out == b""
    assert_resume_finishes(capsys, tmp_path, config)


def test_a_second_sigint_kills_a_stopping_run_at_once(tmp_path):
    proc = start_synth(live_config(tmp_path), STUCK_SCRIPT)
    try:
        assert proc.stdout.readline() == b"mid-run\n"
        os.killpg(proc.pid, signal.SIGINT)
        assert proc.stdout.readline() == b"stopping\n"  # the run waits for its stuck call
        os.killpg(proc.pid, signal.SIGINT)
        assert proc.wait(timeout=30) == -signal.SIGINT
        assert b"Traceback" not in proc.stderr.read()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def test_an_ignored_sigint_stays_ignored(capsys, tmp_path):
    """As a shell's background job has it: synth sets no handler over it,
    neither while it runs nor after."""
    seen = []

    class Watching(SimulatedModelTransport):
        def post(self, path, payload):
            seen.append(signal.getsignal(signal.SIGINT))
            return super().post(path, payload)

    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        code, _, _ = run_cli(capsys, "synth", "--config", str(live_config(tmp_path)),
                             transport_factory=lambda profile, gw: Watching())
    finally:
        after = signal.signal(signal.SIGINT, previous)
    assert code == 0
    assert after is signal.SIG_IGN and set(seen) == {signal.SIG_IGN}


def test_synth_runs_off_the_main_thread(tmp_path):
    """Only the main thread may set a signal handler; synth elsewhere keeps
    SIGTERM's action as it is."""
    config = write_dryrun_config(tmp_path)
    codes = []
    thread = threading.Thread(target=lambda: codes.append(
        cli.main(["synth", "--config", str(config), "--dry-run", "--limit", "5"])))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and codes == [0]


@pytest.mark.parametrize("damage, reason", MALFORMED_SAMPLES)
@pytest.mark.parametrize("command", ["export", "eval"])
def test_malformed_samples_line_exits_3_naming_path_and_line(
    capsys, synthesized_run, damage, reason, command
):
    run_dir = synthesized_run / "run"
    samples = run_dir / "samples.jsonl"
    lines = samples.read_text("utf-8").splitlines(keepends=True)
    lines[6] = json.dumps(damage(json.loads(lines[6]))) + "\n"
    samples.write_text("".join(lines), encoding="utf-8")
    before = {name: (run_dir / name).read_bytes() for name in ARTIFACTS}
    config = str(write_dryrun_config(synthesized_run))
    if command == "export":
        argv = ["export", "--config", config, "--size", "100"]
    else:
        eval_config = synthesized_run / "eval.yaml"
        eval_config.write_text(eval_config_text(synthesized_run), encoding="utf-8")
        argv = ["eval", "--config", str(eval_config)]
    code, _, err = run_cli(capsys, *argv,
                           transport_factory=lambda profile, gw: SimulatedModelTransport())
    assert code == 3
    assert f"{samples}:7: not a sample record: {reason}" in err
    assert {name: (run_dir / name).read_bytes() for name in ARTIFACTS} == before


@pytest.mark.parametrize("damage, reason", MALFORMED_SAMPLES)
def test_malformed_sample_in_the_log_fails_resume_with_exit_3(
    capsys, synthesized_run, damage, reason
):
    run_dir = synthesized_run / "run"
    traces = run_dir / "traces.jsonl"
    lines = traces.read_text("utf-8").splitlines(keepends=True)
    line_no = [json.loads(line)["outcome"] for line in lines].index("accepted", 6) + 1
    record = json.loads(lines[line_no - 1])
    record["sample"] = damage(record["sample"])
    lines[line_no - 1] = json.dumps(record) + "\n"
    traces.write_text("".join(lines), encoding="utf-8")
    before = {name: (run_dir / name).read_bytes() for name in ARTIFACTS}
    config = write_dryrun_config(synthesized_run)
    code, _, err = run_cli(capsys, "synth", "--config", str(config), "--dry-run", "--resume")
    assert code == 3
    assert f"{traces}:{line_no}: not a trace record: {reason}" in err
    assert {name: (run_dir / name).read_bytes() for name in ARTIFACTS} == before


# Each case: the record that replaces line 4 of traces.jsonl, made from the
# file's records, and the reason its error must give after path:line.
MALFORMED_TRACES = [
    pytest.param(lambda records: {"outcome": "accepted"}, "missing key 'section_id'",
                 id="missing-key"),
    pytest.param(lambda records: {**records[3], "outcome": "acepted"},
                 "unknown outcome 'acepted'", id="unknown-outcome"),
    pytest.param(lambda records: records[2], "repeats an earlier trace", id="repeated-section"),
]


@pytest.mark.parametrize("damage, reason", MALFORMED_TRACES)
def test_malformed_traces_line_fails_resume_with_exit_3(capsys, synthesized_run, damage, reason):
    run_dir = synthesized_run / "run"
    traces = run_dir / "traces.jsonl"
    records = read_corpus_file(traces)
    records[3] = damage(records)
    traces.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    before = {name: (run_dir / name).read_bytes() for name in ARTIFACTS}
    config = write_dryrun_config(synthesized_run)
    code, _, err = run_cli(capsys, "synth", "--config", str(config), "--dry-run", "--resume")
    assert code == 3
    assert f"{traces}:4: not a trace record: " in err and reason in err
    assert {name: (run_dir / name).read_bytes() for name in ARTIFACTS} == before


def cut_inside_e_acute(path):
    """Make path's last line end inside an "é", as a SIGKILL during a buffered
    write can leave it."""
    lines = path.read_bytes().splitlines(keepends=True)
    last = json.dumps({**json.loads(lines[-1]), "error": "café"}, ensure_ascii=False).encode()
    path.write_bytes(b"".join(lines[:-1]) + last[:last.index(b"\xc3") + 1])


def put_ff_into_line(path, line_no):
    """Put byte 0xff, which UTF-8 cannot decode, into path's line line_no."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line_no - 1] = lines[line_no - 1].replace(b"qa-", b"qa-\xff", 1)
    path.write_bytes(b"".join(lines))
    return line_no


def argv_reading_bad_traces(run_dir):
    traces = run_dir / "run" / "traces.jsonl"
    return traces, put_ff_into_line(traces, 3), ["synth", "--config", str(write_dryrun_config(run_dir)),
                             "--dry-run", "--resume"]


def argv_reading_bad_corpus(run_dir):
    corpus = run_dir / "corpus.jsonl"
    lines = (DATA_DIR / "corpus_50.jsonl").read_bytes().splitlines(keepends=True)
    lines[8] = lines[8].replace(b'"text": "', b'"text": "\xff', 1)
    corpus.write_bytes(b"".join(lines))
    config = run_dir / "dryrun.yaml"
    config.write_text(f"paths:\n  corpus: {corpus}\n  output_dir: {run_dir / 'run'}\n",
                      encoding="utf-8")
    return corpus, 9, ["synth", "--config", str(config), "--dry-run"]


def argv_reading_bad_validation(run_dir):
    validation = run_dir / "validation.jsonl"
    validation.write_bytes((run_dir / "run" / "samples.jsonl").read_bytes())
    config = run_dir / "eval.yaml"
    config.write_text(eval_config_text(run_dir), encoding="utf-8")
    return validation, put_ff_into_line(validation, 7), [
        "eval", "--config", str(config), "--validation", str(validation)]


def argv_reading_bad_index(run_dir):
    index = run_dir / "run" / "index.tsv"
    return index, put_ff_into_line(index, 5), ["dedup-check", "--index", str(index)]


@pytest.mark.parametrize("damage", [argv_reading_bad_traces, argv_reading_bad_corpus,
                                    argv_reading_bad_validation, argv_reading_bad_index],
                         ids=["traces", "corpus", "validation", "index"])
def test_bytes_utf8_cannot_decode_exit_3_naming_path_and_line(capsys, synthesized_run, damage):
    path, line_no, argv = damage(synthesized_run)
    before = {p: p.read_bytes() for p in synthesized_run.rglob("*") if p.is_file()}
    code, _, err = run_cli(capsys, *argv,
                           transport_factory=lambda profile, gw: SimulatedModelTransport())
    assert code == 3
    assert f"error: {path}:{line_no}: bytes that UTF-8 cannot decode" in err.splitlines()
    assert {p: p.read_bytes() for p in synthesized_run.rglob("*") if p.is_file()} == before


class TestEval:
    def test_writes_all_three_reports(self, capsys, synthesized_run):
        config = synthesized_run / "eval.yaml"
        config.write_text(eval_config_text(synthesized_run), encoding="utf-8")
        sim = RecordingTransport()
        code, out, _ = run_cli(
            capsys, "eval", "--config", str(config), "--similarity",
            transport_factory=lambda profile, gw: sim,
        )
        assert code == 0
        eval_dir = synthesized_run / "run" / "eval"
        for name in ("report.json", "records.csv", "aggregate.csv"):
            assert (eval_dir / name).exists()
        assert "base:" in out and "tuned:" in out
        assert "% conversational" in out
        # each chat request carries its model's id, token cap and eval temperature
        chats = [payload for path, payload in sim.requests if path == CHAT_PATH]
        max_tokens = {"sim-chat": 512, "sim-chat-ft": 256}
        models = [p["model"] for p in chats]
        assert (models.count("sim-chat"), models.count("sim-chat-ft"), len(models)) == (42, 42, 84)
        for payload in chats:
            assert payload["max_tokens"] == max_tokens[payload["model"]]
            assert payload["temperature"] == 0.0

    def test_reports_keep_their_bytes_at_any_concurrency_limit(self, capsys, synthesized_run):
        reports = {}
        for limit in (1, 8):
            config = synthesized_run / f"eval-{limit}.yaml"
            config.write_text(
                eval_config_text(synthesized_run).replace(
                    "pipeline:\n", f"pipeline:\n  concurrency_limit: {limit}\n"
                ),
                encoding="utf-8",
            )
            out_dir = synthesized_run / f"eval-{limit}"
            sim = SimulatedModelTransport()
            code, _, _ = run_cli(
                capsys, "eval", "--config", str(config), "--similarity",
                "--out", str(out_dir), transport_factory=lambda profile, gw: sim,
            )
            assert code == 0
            reports[limit] = {
                name: (out_dir / name).read_bytes()
                for name in ("report.json", "records.csv", "aggregate.csv")
            }
        assert reports[1] == reports[8]

    def test_a_failed_report_write_leaves_all_three_as_they_were(
        self, capsys, synthesized_run, monkeypatch
    ):
        config = synthesized_run / "eval.yaml"
        config.write_text(eval_config_text(synthesized_run), encoding="utf-8")
        sim = SimulatedModelTransport()
        code, _, _ = run_cli(capsys, "eval", "--config", str(config),
                             transport_factory=lambda profile, gw: sim)
        assert code == 0
        eval_dir = synthesized_run / "run" / "eval"
        names = ("report.json", "records.csv", "aggregate.csv")
        before = {name: (eval_dir / name).read_bytes() for name in names}
        fail_writes_to(monkeypatch, "records.csv", 3, disk_full())
        # --similarity changes all three files, had they been replaced.
        code, _, err = run_cli(capsys, "eval", "--config", str(config), "--similarity",
                               transport_factory=lambda profile, gw: sim)
        assert code == 1
        assert "No space left on device" in err
        assert {name: (eval_dir / name).read_bytes() for name in names} == before
        assert tmp_files(synthesized_run) == []

    def test_makes_a_report_directory_that_does_not_exist_yet(self, capsys, synthesized_run):
        config = synthesized_run / "eval.yaml"
        config.write_text(eval_config_text(synthesized_run), encoding="utf-8")
        out_dir = synthesized_run / "new" / "eval"
        code, _, _ = run_cli(capsys, "eval", "--config", str(config), "--out", str(out_dir),
                             transport_factory=lambda profile, gw: SimulatedModelTransport())
        assert code == 0
        assert sorted(os.listdir(out_dir)) == ["aggregate.csv", "records.csv", "report.json"]

    def test_model_flag_controls_row_order(self, capsys, synthesized_run):
        config = synthesized_run / "eval.yaml"
        config.write_text(eval_config_text(synthesized_run), encoding="utf-8")
        sim = SimulatedModelTransport()
        code, _, _ = run_cli(
            capsys, "eval", "--config", str(config),
            "--model", "tuned", "--model", "base",
            transport_factory=lambda profile, gw: sim,
        )
        assert code == 0
        aggregate = (synthesized_run / "run" / "eval" / "aggregate.csv").read_text("utf-8")
        rows = [line.split(",")[0] for line in aggregate.splitlines()[1:]]
        assert rows == ["tuned", "base"]

    @pytest.mark.parametrize("threshold", ["nan", "500", "0", "-1"])
    def test_threshold_override_obeys_the_config_rule(self, capsys, synthesized_run, threshold):
        config = synthesized_run / "eval.yaml"
        config.write_text(eval_config_text(synthesized_run), encoding="utf-8")
        sim = RecordingTransport()
        code, _, err = run_cli(
            capsys, "eval", "--config", str(config), "--threshold", threshold,
            transport_factory=lambda profile, gw: sim,
        )
        assert code == 2
        assert "--threshold: threshold must be in (0, 121.22]" in err
        assert sim.requests == []
        assert not (synthesized_run / "run" / "eval").exists()

    def test_unknown_label_is_a_config_error(self, capsys, synthesized_run):
        config = synthesized_run / "eval.yaml"
        config.write_text(eval_config_text(synthesized_run), encoding="utf-8")
        code, _, err = run_cli(
            capsys, "eval", "--config", str(config), "--model", "ghost",
            transport_factory=lambda profile, gw: SimulatedModelTransport(),
        )
        assert code == 2
        assert "ghost" in err

    def test_repeated_label_is_a_config_error(self, capsys, synthesized_run):
        config = synthesized_run / "eval.yaml"
        config.write_text(eval_config_text(synthesized_run), encoding="utf-8")
        sim = RecordingTransport()
        code, _, err = run_cli(
            capsys, "eval", "--config", str(config), "--model", "base", "--model", "base",
            transport_factory=lambda profile, gw: sim,
        )
        assert code == 2
        assert "repeated: base" in err
        assert sim.requests == []
        assert not (synthesized_run / "run" / "eval").exists()

    def test_canned_replay_prints_the_published_percentage(self, capsys, tmp_path):
        # 1000 validation questions, 974 conversational replies: 97.4%
        conversational = (
            "Well, this answer is short on purpose. It uses small words. "
            "You can read it out loud in one breath. That is the whole idea."
        )
        stiff = (
            "Comprehensive organizational restructuring necessitates "
            "extraordinarily elaborate documentation requirements, "
            "systematically perpetuating incomprehensible terminology."
        )
        validation = tmp_path / "validation.jsonl"
        with open(validation, "w", encoding="utf-8") as fh:
            for i in range(1000):
                fh.write(json.dumps({
                    "sample_id": f"qa-{i}", "question": f"Question {i}?",
                    "answer_original": "o", "answer_simplified": "s",
                    "flesch_score": 90.0, "attempts_used": 1, "section_id": f"sec-{i}",
                }) + "\n")
        config = tmp_path / "replay.yaml"
        config.write_text(
            "gateways:\n"
            "  replay:\n"
            "    base_url: https://replay.invalid\n"
            "    api_key_env: REPLAY_KEY\n"
            "run:\n"
            "  generation_profile: replay\n"
            "eval:\n"
            "  models:\n"
            "    - label: llama-finetuned\n"
            "      profile: replay\n"
            "      model: llama-ft\n"
            "      system_prompt_preset: concise-finetune\n"
            "paths:\n"
            f"  output_dir: {tmp_path / 'out'}\n"
            f"  validation: {validation}\n",
            encoding="utf-8",
        )
        steps = [
            {"status": 200, "body": {"choices": [{"message": {
                "role": "assistant",
                "content": conversational if i < 974 else stiff,
            }}]}}
            for i in range(1000)
        ]
        transport = ScriptedTransport(steps)
        code, out, _ = run_cli(
            capsys, "eval", "--config", str(config),
            transport_factory=lambda profile, gw: transport,
        )
        assert code == 0
        assert "llama-finetuned: 97.4% conversational (1000 samples)" in out
        aggregate = (tmp_path / "out" / "eval" / "aggregate.csv").read_text("utf-8")
        assert "llama-finetuned,,97.4," in aggregate


def two_profile_eval_config(run_dir, limit=8):
    """eval_config_text with the `tuned` model on a second profile, `other`,
    whose key variable is OTHER_EVAL_KEY, at concurrency_limit `limit`."""
    text = eval_config_text(run_dir).replace(
        "pipeline:\n", f"pipeline:\n  concurrency_limit: {limit}\n"
    ).replace(
        "run:\n", "  other:\n    base_url: https://other.invalid\n"
                  "    api_key_env: OTHER_EVAL_KEY\nrun:\n"
    ).replace("profile: sim\n      model: sim-chat-ft\n", "profile: other\n      model: sim-chat-ft\n")
    path = run_dir / f"eval-two-profiles-{limit}.yaml"
    path.write_text(text, encoding="utf-8")
    return path


class InFlightByModel(SimulatedModelTransport):
    """Serves posts from the simulator after a short wait, and records the
    most calls in flight at once for each model id."""

    def __init__(self):
        self.in_flight = Counter()
        self.peak = Counter()
        self._lock = threading.Lock()

    def post(self, path, payload):
        model = payload["model"]
        with self._lock:
            self.in_flight[model] += 1
            self.peak[model] = max(self.peak[model], self.in_flight[model])
        try:
            time.sleep(0.002)
            return super().post(path, payload)
        finally:
            with self._lock:
                self.in_flight[model] -= 1


class TestEvalModelsAtOnce:
    def test_the_second_model_calls_while_the_first_is_still_calling(
        self, capsys, synthesized_run
    ):
        # The second model's stream starts once the first model's first reply
        # has been taken, so the first model's second call, already running
        # then, can wait for it. Run one model after the other, it times out.
        config = two_profile_eval_config(synthesized_run, limit=1)
        second_started = threading.Event()
        second_question = load_samples(synthesized_run / "run" / "samples.jsonl")[1].question
        waits = []

        class First(SimulatedModelTransport):
            def post(self, path, payload):
                if payload["messages"][-1]["content"] == second_question:
                    waits.append(second_started.wait(timeout=5))
                return super().post(path, payload)

        class Second(SimulatedModelTransport):
            def post(self, path, payload):
                second_started.set()
                return super().post(path, payload)

        transports = {"sim": First(), "other": Second()}
        code, out, _ = run_cli(capsys, "eval", "--config", str(config),
                               transport_factory=lambda profile, gw: transports[profile])
        assert code == 0
        assert waits == [True]
        assert out.index("base:") < out.index("tuned:")

    def test_each_model_keeps_its_limit_and_the_reports_their_bytes(
        self, capsys, synthesized_run
    ):
        capsys.readouterr()  # the fixture's synth output
        reports = {}
        for limit in (1, 3):
            config = two_profile_eval_config(synthesized_run, limit=limit)
            out_dir = synthesized_run / f"eval-{limit}"
            transport = InFlightByModel()
            code, out, _ = run_cli(capsys, "eval", "--config", str(config), "--similarity",
                                   "--out", str(out_dir),
                                   transport_factory=lambda profile, gw: transport)
            assert code == 0
            assert set(transport.peak) == {"sim-chat", "sim-chat-ft", "sim-embed"}
            assert max(transport.peak.values()) <= limit
            reports[limit] = out, {name: (out_dir / name).read_bytes()
                                   for name in ("report.json", "records.csv", "aggregate.csv")}
        assert reports[3][0].replace("eval-3", "eval-1") == reports[1][0]
        assert reports[3][1] == reports[1][1]

    def test_a_missing_key_on_the_second_model_fails_before_any_call(
        self, capsys, synthesized_run, monkeypatch
    ):
        monkeypatch.delenv("OTHER_EVAL_KEY", raising=False)
        config = two_profile_eval_config(synthesized_run)
        sim = RecordingTransport()  # serves the first model and the embeddings

        def factory(profile, gw):
            if profile == "other":
                return cli.HttpTransport(gw)  # resolves the key, as a live run does
            return sim

        code, _, err = run_cli(capsys, "eval", "--config", str(config), "--similarity",
                               transport_factory=factory)
        assert code == 2
        assert "OTHER_EVAL_KEY" in err
        assert sim.requests == []
        assert not (synthesized_run / "run" / "eval").exists()

    def test_a_rejected_key_on_the_second_model_stops_the_first(self, capsys, synthesized_run):
        limit = 4
        config = two_profile_eval_config(synthesized_run, limit=limit)
        healthy, revoked = RecordingTransport(), KeyRejectedOn(CHAT_PATH)
        transports = {"sim": healthy, "other": revoked}
        code, _, err = run_cli(capsys, "eval", "--config", str(config),
                               transport_factory=lambda profile, gw: transports[profile])
        assert code == 4
        assert "HTTP 401" in err
        assert 1 <= revoked.rejected <= limit
        assert 1 <= len(healthy.requests) <= _AHEAD * limit < 42
        assert not (synthesized_run / "run" / "eval").exists()

    def test_a_rejected_key_on_the_first_model_stops_the_second_before_any_call(
        self, capsys, synthesized_run
    ):
        config = two_profile_eval_config(synthesized_run)
        revoked, healthy = KeyRejectedOn(CHAT_PATH), RecordingTransport()
        transports = {"sim": revoked, "other": healthy}
        code, _, err = run_cli(capsys, "eval", "--config", str(config),
                               transport_factory=lambda profile, gw: transports[profile])
        assert code == 4
        assert "HTTP 401" in err
        assert revoked.rejected >= 1
        assert healthy.requests == []
        assert not (synthesized_run / "run" / "eval").exists()

    def test_eval_generates_through_one_generate_responses_call_before_any_post(
        self, capsys, synthesized_run, monkeypatch
    ):
        # perfbench stamps eval-replay's setup_s on the first call of this name
        # on cli, and its tracer wraps it there as evalharness.generate.
        config = synthesized_run / "eval.yaml"
        config.write_text(eval_config_text(synthesized_run), encoding="utf-8")
        sim = RecordingTransport()
        posts_at_call = []
        generate = cli.generate_responses

        def recorded(*args, **kwargs):
            posts_at_call.append(len(sim.requests))
            return generate(*args, **kwargs)

        monkeypatch.setattr(cli, "generate_responses", recorded)
        code, _, _ = run_cli(capsys, "eval", "--config", str(config), "--similarity",
                             transport_factory=lambda profile, gw: sim)
        assert code == 0
        assert posts_at_call == [0]
        assert len(sim.requests) > 0


def load_benchmark_tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_name_the_benchmark_tracer_wraps_is_there():
    # perfbench/tracer.py times a run by rebinding these names where their
    # callers look them up; a moved or renamed one would fail only traced runs.
    tracer = load_benchmark_tracer()
    wrapped = []

    class Checking(tracer.Tracer):
        def wrap(self, owner, attr, name, adopts=False, on_result=None):  # rebinds nothing
            assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"
            wrapped.append((owner, attr))

    tracer.install(Checking("names"), cli, pipeline_module, evalharness_module, dedup_module)
    assert wrapped


# Wrapped names that no command calls: evalharness binds them only for the
# tracer, and eval's calls go through cli's bindings (ROADMAP item 18).
NEVER_CALLED = {"evalharness.complete_chat", "evalharness.embed_texts"}


def test_every_name_the_benchmark_tracer_wraps_is_called(capsys, tmp_path, monkeypatch):
    # A call moved off a wrapped binding leaves the name in place, and its
    # traced run reports the layer as idle; each command here must call it.
    tracer = load_benchmark_tracer()
    calls = Counter()

    class Counting(tracer.Tracer):
        def wrap(self, owner, attr, name, adopts=False, on_result=None):
            key, original = f"{owner.__name__.rpartition('.')[2]}.{attr}", getattr(owner, attr)

            def counted(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            calls[key] += 0
            monkeypatch.setattr(owner, attr, counted)

    tracer.install(Counting("calls"), cli, pipeline_module, evalharness_module, dedup_module)
    config = write_dryrun_config(tmp_path)
    export_config = tmp_path / "export.yaml"
    export_config.write_text("pipeline:\n  target_samples: 42\n  validation_size: 10\n"
                             f"  subset_sizes: [5, 20]\npaths:\n  output_dir: {tmp_path / 'run'}\n",
                             encoding="utf-8")
    eval_config = tmp_path / "eval.yaml"
    eval_config.write_text(eval_config_text(tmp_path), encoding="utf-8")
    for argv in (["synth", "--config", str(config), "--dry-run", "--limit", "20"],
                 ["synth", "--config", str(config), "--dry-run", "--resume"],
                 ["export", "--config", str(export_config), "--size", "5"],
                 ["eval", "--config", str(eval_config), "--similarity"],
                 ["dedup-check", "--config", str(config)]):
        code, _, _ = run_cli(capsys, *argv,
                             transport_factory=lambda profile, gw: SimulatedModelTransport())
        assert code == 0, argv
    assert NEVER_CALLED <= set(calls)
    assert {key for key, n in calls.items() if n == 0} == NEVER_CALLED


# sha256 of each artifact of the 50-section dry run and of its eval with
# --similarity, recorded with numpy 2.4.6 on x86-64 Linux. The other tests
# compare one run against another; these catch a change to the parse or
# the cosine kernel that moves any bit of a vector or a similarity.
GOLDEN_SHA256 = {
    "run/samples.jsonl": "b176d789ff220a32a2411c12b880182cac38898e98d7f2f7d9b328b75bbacb4a",
    "run/index.tsv": "28bc4ebffb3d20f2ae1c5a3afb4d72cb49f7214f7e080da4a6ab78b8ecaadc5c",
    "run/manifest.json": "69276ccd59bad3f9294e51b16b139d2b66738b93b9350a8ac45af0afd1b4ecbe",
    "run/run_config.json": "56c9e322f8b94ecc9da68dcde4b544408ed04eac04aebcc55fd1fe237f0d8e53",
    "eval/report.json": "c0e4af5e2e3152f71d936b086e67bf39f627433dc6d54a8f4af686141ce9fa32",
    "eval/records.csv": "cbd8ee9c5b768d607323f4c79e4b1be6baa9928c75921d57e9ea1210d7fd170f",
    "eval/aggregate.csv": "251a875e0a14271c3f019467d5f284521f140f0d94f024721f113bc417f34da2",
}
# sha256 of the same run's traces.jsonl with each line's two timestamps cut out.
GOLDEN_TRACES_SHA256 = "80d17951afcd97c8f29ce770909edb9755013caa5715d97fa9e9939237ec0ff7"
TIMESTAMPS_RE = re.compile(rb', "(?:started|finished)_at": "[^"]*"')


def test_dry_run_and_eval_keep_their_golden_bytes(capsys, synthesized_run):
    config = synthesized_run / "eval.yaml"
    config.write_text(eval_config_text(synthesized_run), encoding="utf-8")
    sim = SimulatedModelTransport()
    code, _, _ = run_cli(
        capsys, "eval", "--config", str(config), "--similarity",
        "--out", str(synthesized_run / "eval"), transport_factory=lambda profile, gw: sim,
    )
    assert code == 0
    digests = {
        name: hashlib.sha256((synthesized_run / name).read_bytes()).hexdigest()
        for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256
    traces = (synthesized_run / "run" / "traces.jsonl").read_bytes()
    stripped, cut = TIMESTAMPS_RE.subn(b"", traces)
    assert cut == 2 * traces.count(b"\n")
    assert hashlib.sha256(stripped).hexdigest() == GOLDEN_TRACES_SHA256
    # Every whole file went through a .tmp file that was moved into place.
    assert sorted(os.listdir(synthesized_run / "run")) == sorted(ARTIFACTS)
    assert sorted(os.listdir(synthesized_run / "eval")) == [
        "aggregate.csv", "records.csv", "report.json"]


class TestExport:
    def export_config(self, synthesized_run):
        config = synthesized_run / "export.yaml"
        config.write_text(
            "pipeline:\n"
            "  target_samples: 42\n"
            "  validation_size: 10\n"
            "  subset_sizes: [5, 20]\n"
            "paths:\n"
            f"  output_dir: {synthesized_run / 'run'}\n",
            encoding="utf-8",
        )
        return config

    def test_exports_exactly_the_requested_subset(self, capsys, synthesized_run):
        config = self.export_config(synthesized_run)
        out_path = synthesized_run / "train-20.jsonl"
        code, out, _ = run_cli(
            capsys, "export", "--config", str(config), "--size", "20",
            "--out", str(out_path),
        )
        assert code == 0
        assert "wrote 20 records" in out
        records = [json.loads(line) for line in out_path.read_text("utf-8").splitlines()]
        assert len(records) == 20
        for record in records:
            assert [m["role"] for m in record["messages"]] == ["system", "user", "assistant"]

    @pytest.mark.parametrize("name, after", [("finetune-20.jsonl", 5), ("validation.jsonl", 3)],
                             ids=["fine-tuning file", "validation split"])
    def test_a_failed_write_leaves_both_files_as_they_were(
        self, capsys, synthesized_run, monkeypatch, name, after
    ):
        config = self.export_config(synthesized_run)
        code, _, _ = run_cli(capsys, "export", "--config", str(config), "--size", "20")
        assert code == 0
        run_dir = synthesized_run / "run"
        names = ("finetune-20.jsonl", "validation.jsonl")
        before = {written: (run_dir / written).read_bytes() for written in names}
        # Another seed draws other splits, so a replaced file would differ.
        config.write_text(config.read_text("utf-8").replace(
            "pipeline:\n", "pipeline:\n  random_seed: 7\n"), encoding="utf-8")
        fail_writes_to(monkeypatch, name, after, disk_full())
        code, out, err = run_cli(capsys, "export", "--config", str(config), "--size", "20")
        assert code == 1
        assert "No space left on device" in err and out == ""
        assert {written: (run_dir / written).read_bytes() for written in names} == before
        assert tmp_files(synthesized_run) == []

    def test_makes_an_out_directory_that_does_not_exist_yet(self, capsys, synthesized_run):
        config = self.export_config(synthesized_run)
        out_path = synthesized_run / "new" / "dir" / "train-5.jsonl"
        code, _, _ = run_cli(capsys, "export", "--config", str(config), "--size", "5",
                             "--out", str(out_path))
        assert code == 0
        assert sorted(os.listdir(out_path.parent)) == ["train-5.jsonl", "validation.jsonl"]

    def test_unknown_size_lists_the_valid_ones(self, capsys, synthesized_run):
        config = self.export_config(synthesized_run)
        code, _, err = run_cli(capsys, "export", "--config", str(config), "--size", "7")
        assert code == 3
        assert "[5, 20]" in err

    def test_a_question_that_is_not_text_fails_before_the_file_is_written(
        self, capsys, synthesized_run
    ):
        # It would reach the fine-tune file as {"role": "user", "content": 5}.
        samples = synthesized_run / "run" / "samples.jsonl"
        lines = samples.read_text("utf-8").splitlines(keepends=True)
        lines[6] = json.dumps({**json.loads(lines[6]), "question": 5}) + "\n"
        samples.write_text("".join(lines), encoding="utf-8")
        config = self.export_config(synthesized_run)
        out_path = synthesized_run / "train-20.jsonl"
        code, _, err = run_cli(
            capsys, "export", "--config", str(config), "--size", "20",
            "--out", str(out_path),
        )
        assert code == 3
        assert f"{samples}:7: not a sample record: question must be of type str, got 5" in err
        assert not out_path.exists()

    def test_every_size_writes_one_validation_split_beside_its_file(self, capsys, tmp_path):
        dataset = tmp_path / "samples.jsonl"
        dataset.write_text("".join(json.dumps({
            "sample_id": f"qa-{i}", "question": f"Question {i}?", "answer_original": "o",
            "answer_simplified": "s", "flesch_score": 90.0, "attempts_used": 1,
            "section_id": f"sec-{i}",
        }) + "\n" for i in range(1100)), encoding="utf-8")
        config = tmp_path / "export.yaml"
        config.write_text(
            "pipeline:\n"
            "  target_samples: 1100\n"
            "  validation_size: 50\n"
            "  subset_sizes: [100, 1000]\n",
            encoding="utf-8",
        )
        written = {}
        for size in (100, 1000):
            out_path = tmp_path / str(size) / "finetune.jsonl"
            code, out, _ = run_cli(capsys, "export", "--config", str(config), "--dataset",
                                   str(dataset), "--size", str(size), "--out", str(out_path))
            assert code == 0
            validation = out_path.parent / "validation.jsonl"
            assert f"wrote 50 validation records to {validation}" in out
            written[size] = validation.read_bytes()
            held_out = {r["question"] for r in read_corpus_file(validation)}
            trained = [json.loads(line)["messages"][1]["content"]
                       for line in out_path.read_text("utf-8").splitlines()]
            assert len(held_out) == 50 and len(trained) == size
            assert held_out.isdisjoint(trained)
        assert written[100] == written[1000]
        assert set(written[100].splitlines(keepends=True)) <= set(
            dataset.read_bytes().splitlines(keepends=True))

    def test_eval_reads_the_validation_split_at_the_default_path(self, capsys, synthesized_run):
        run_dir = synthesized_run / "run"
        config = synthesized_run / "eval.yaml"
        config.write_text(
            eval_config_text(synthesized_run)
            .replace("pipeline:\n", "pipeline:\n  target_samples: 42\n  validation_size: 10\n"
                                    "  subset_sizes: [5, 20]\n")
            .replace(f"validation: {run_dir / 'samples.jsonl'}",
                     f"validation: {run_dir / 'validation.jsonl'}"),
            encoding="utf-8",
        )
        code, _, _ = run_cli(capsys, "export", "--config", str(config), "--size", "5")
        assert code == 0
        assert (run_dir / "finetune-5.jsonl").exists()
        code, out, _ = run_cli(capsys, "eval", "--config", str(config),
                               transport_factory=lambda profile, gw: SimulatedModelTransport())
        assert code == 0
        assert "(10 samples)" in out

    def test_out_named_like_the_validation_split_is_refused(self, capsys, synthesized_run):
        config = self.export_config(synthesized_run)
        out_path = synthesized_run / "validation.jsonl"
        code, _, err = run_cli(capsys, "export", "--config", str(config), "--size", "5",
                               "--out", str(out_path))
        assert code == 3
        assert "would be overwritten by the validation split" in err
        assert not out_path.exists()

    def test_out_named_like_the_validation_splits_tmp_file_is_refused(
        self, capsys, synthesized_run
    ):
        # Accepted, it would be moved onto validation.jsonl, training records and all.
        config = self.export_config(synthesized_run)
        out_path = synthesized_run / "validation.jsonl.tmp"
        code, _, err = run_cli(capsys, "export", "--config", str(config), "--size", "5",
                               "--out", str(out_path))
        assert code == 3
        assert "would be overwritten by the validation split" in err
        assert sorted(os.listdir(synthesized_run)) == ["dryrun.yaml", "export.yaml", "run"]

    @pytest.mark.parametrize("name", ARTIFACTS)
    def test_out_over_a_run_file_is_refused(self, capsys, synthesized_run, name):
        run_dir = synthesized_run / "run"
        before = {artifact: (run_dir / artifact).read_bytes() for artifact in ARTIFACTS}
        config = self.export_config(synthesized_run)
        code, _, err = run_cli(capsys, "export", "--config", str(config), "--size", "20",
                               "--out", str(run_dir / name))
        assert code == 3
        assert "would overwrite" in err and name in err
        assert {artifact: (run_dir / artifact).read_bytes() for artifact in ARTIFACTS} == before
        assert sorted(os.listdir(run_dir)) == sorted(ARTIFACTS)  # no validation.jsonl either

    @pytest.mark.parametrize("dataset_name, out_name", [
        ("qa.jsonl", "qa.jsonl"),  # --out itself
        ("validation.jsonl", "ft.jsonl"),  # the validation split written beside --out
    ])
    def test_out_that_resolves_to_the_dataset_is_refused(
        self, capsys, synthesized_run, dataset_name, out_name
    ):
        dataset = synthesized_run / "data" / dataset_name
        dataset.parent.mkdir()
        dataset.write_bytes((synthesized_run / "run" / "samples.jsonl").read_bytes())
        before = dataset.read_bytes()
        config = self.export_config(synthesized_run)
        out_path = synthesized_run / "run" / ".." / "data" / out_name
        code, _, err = run_cli(capsys, "export", "--config", str(config), "--size", "20",
                               "--dataset", str(dataset), "--out", str(out_path))
        assert code == 3
        assert f"--out {out_path}: export would overwrite the dataset {dataset}" in err
        assert dataset.read_bytes() == before
        assert os.listdir(dataset.parent) == [dataset_name]

    def test_unknown_prompt_preset(self, capsys, synthesized_run):
        config = self.export_config(synthesized_run)
        code, _, err = run_cli(
            capsys, "export", "--config", str(config), "--size", "5",
            "--prompt", "fancy-style",
        )
        assert code == 2
        assert ("error: unknown prompt preset 'fancy-style'; available: concise-finetune, "
                "verbose-base") in err.splitlines()


class TestDedupCheck:
    def test_clean_index_passes(self, capsys, synthesized_run):
        index = synthesized_run / "run" / "index.tsv"
        code, out, _ = run_cli(capsys, "dedup-check", "--index", str(index))
        assert code == 0
        assert "no similarity violations" in out

    def test_violations_fail_the_command(self, capsys, tmp_path):
        index = tmp_path / "index.tsv"
        index.write_text("a\t1.0 0.0\nb\t1.0 0.001\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "dedup-check", "--index", str(index))
        assert code == 1
        assert "violation: a ~ b" in out

    def test_a_torn_last_line_exits_3(self, capsys, synthesized_run):
        index = synthesized_run / "run" / "index.tsv"
        index.write_bytes(index.read_bytes()[:-3])
        code, _, err = run_cli(capsys, "dedup-check", "--index", str(index))
        assert code == 3
        assert f"{index}:42: index line lacks its newline" in err

    def test_missing_index_argument(self, capsys):
        code, _, err = run_cli(capsys, "dedup-check")
        assert code == 3
        assert "--index" in err

    @pytest.mark.parametrize("threshold", ["5", "0", "-1", "nan"])
    def test_threshold_override_obeys_the_config_rule(self, capsys, tmp_path, threshold):
        # The index does not exist: the value is rejected before it is read.
        code, out, err = run_cli(capsys, "dedup-check", "--index", str(tmp_path / "none.tsv"),
                                 "--threshold", threshold)
        assert code == 2
        assert "--threshold: dedup_threshold must be in (0, 1]" in err
        assert out == ""

    def test_threshold_of_one_is_accepted(self, capsys, synthesized_run):
        index = synthesized_run / "run" / "index.tsv"
        code, out, _ = run_cli(capsys, "dedup-check", "--index", str(index), "--threshold", "1.0")
        assert code == 0
        assert "no similarity violations among 42 entries at threshold 1.0" in out

    @pytest.mark.parametrize("by_index", [True, False], ids=["--index", "output_dir"])
    def test_config_supplies_the_threshold_and_the_index(self, capsys, synthesized_run, by_index):
        config = write_dryrun_config(synthesized_run)  # its output_dir holds the run
        argv = ["dedup-check", "--config", str(config)]
        if by_index:
            argv += ["--index", str(synthesized_run / "run" / "index.tsv")]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "no similarity violations among 42 entries at threshold 0.8" in out
        config.write_text(config.read_text("utf-8").replace(
            "pipeline:\n", "pipeline:\n  dedup_threshold: 0.2\n"), encoding="utf-8")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        assert out.endswith("\n44 violating pairs\n")
        code, out, _ = run_cli(capsys, *argv, "--threshold", "0.8")
        assert code == 0
        assert "no similarity violations among 42 entries at threshold 0.8" in out
