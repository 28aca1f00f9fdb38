"""Command-line surface: exit codes, dry runs, network isolation."""

import json

import pytest

import convoforge.cli as cli
import convoforge.gateway as gateway_module
from conftest import DATA_DIR
from convoforge.gateway import CHAT_PATH, TranscriptTransport
from convoforge.simulate import SimulatedModelTransport


def run_cli(capsys, *argv, transport_factory=None):
    code = cli.main(list(argv), transport_factory=transport_factory)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestSynthErrors:
    def test_missing_corpus_path_is_a_config_error(self, capsys, tmp_path):
        config = tmp_path / "bare.yaml"
        config.write_text("paths:\n  output_dir: out\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "synth", "--config", str(config))
        assert code == 2
        assert "corpus" in err

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
        assert [p["model"] for p in chats] == ["sim-chat"] * 42 + ["sim-chat-ft"] * 42
        for payload in chats:
            assert payload["max_tokens"] == max_tokens[payload["model"]]
            assert payload["temperature"] == 0.0

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

    def test_unknown_label_is_a_config_error(self, capsys, synthesized_run):
        config = synthesized_run / "eval.yaml"
        config.write_text(eval_config_text(synthesized_run), encoding="utf-8")
        code, _, err = run_cli(
            capsys, "eval", "--config", str(config), "--model", "ghost",
            transport_factory=lambda profile, gw: SimulatedModelTransport(),
        )
        assert code == 2
        assert "ghost" in err

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
        transport = TranscriptTransport(steps)
        code, out, _ = run_cli(
            capsys, "eval", "--config", str(config),
            transport_factory=lambda profile, gw: transport,
        )
        assert code == 0
        assert "llama-finetuned: 97.4% conversational (1000 samples)" in out
        aggregate = (tmp_path / "out" / "eval" / "aggregate.csv").read_text("utf-8")
        assert "llama-finetuned,,97.4," in aggregate


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

    def test_unknown_size_lists_the_valid_ones(self, capsys, synthesized_run):
        config = self.export_config(synthesized_run)
        code, _, err = run_cli(capsys, "export", "--config", str(config), "--size", "7")
        assert code == 3
        assert "[5, 20]" in err

    def test_unknown_prompt_preset(self, capsys, synthesized_run):
        config = self.export_config(synthesized_run)
        code, _, err = run_cli(
            capsys, "export", "--config", str(config), "--size", "5",
            "--prompt", "fancy-style",
        )
        assert code == 2
        assert "concise-finetune" in err


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

    def test_missing_index_argument(self, capsys):
        code, _, err = run_cli(capsys, "dedup-check")
        assert code == 3
        assert "--index" in err
