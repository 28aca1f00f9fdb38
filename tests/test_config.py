"""Config loading: YAML schema, env-name secrets, interpolation, validation."""

import dataclasses
import os
from pathlib import Path

import pytest

from convoforge.config import CONFIG_SCHEMA, ConfigError, load_run_config
from convoforge.gateway import GatewayConfig
from convoforge.pipeline import PipelineConfig

REPO_ROOT = Path(__file__).parent.parent

FULL_CONFIG = """\
# commented config exercising every section
pipeline:
  generation_model: chat-x          # trailing comments are fine
  embedding_model: embed-y
  target_samples: 200
  validation_size: 20
  subset_sizes: [10, 100]

gateways:
  main:
    base_url: https://example.invalid/v1
    api_key_env: MAIN_GW_KEY
    max_retries: 2

run:
  generation_profile: main

eval:
  threshold: 60
  models:
    - label: base
      profile: main
      model: chat-x
      system_prompt_preset: verbose-base
    - label: tuned
      profile: main
      model: ft-chat-x
      system_prompt_preset: concise-finetune
      training_set_size: 9000

paths:
  corpus: data/corpus.jsonl
  output_dir: runs/test
  validation: runs/test/validation.jsonl
"""


def write_config(tmp_path, text) -> Path:
    path = tmp_path / "run.yaml"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoading:
    def test_full_config_parses(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, FULL_CONFIG))
        assert cfg.pipeline.generation_model == "chat-x"
        assert cfg.pipeline.target_samples == 200
        assert cfg.pipeline.subset_sizes == (10, 100)
        assert cfg.generation_profile == "main"
        assert cfg.embedding_profile == "main"  # defaults to generation profile
        assert cfg.eval_threshold == 60.0
        assert [m.label for m in cfg.eval_models] == ["base", "tuned"]
        assert cfg.eval_models[1].training_set_size == 9000
        assert cfg.paths.output_dir == "runs/test"
        assert cfg.gateway_for("main").max_retries == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_run_config(write_config(tmp_path, "pipeline: [unclosed"))

    def test_non_mapping_top_level(self, tmp_path):
        with pytest.raises(ConfigError, match="mapping"):
            load_run_config(write_config(tmp_path, "- just\n- a list\n"))

    def test_bad_pipeline_value_is_a_config_error(self, tmp_path):
        text = "pipeline:\n  dedup_threshold: 1.5\n"
        with pytest.raises(ConfigError, match="pipeline"):
            load_run_config(write_config(tmp_path, text))


class TestSecrets:
    def test_api_key_env_stays_a_variable_name(self, tmp_path, monkeypatch):
        # the variable is deliberately unset: loading must not need the key
        monkeypatch.delenv("MAIN_GW_KEY", raising=False)
        cfg = load_run_config(write_config(tmp_path, FULL_CONFIG))
        assert cfg.gateway_for("main").api_key_env_name == "MAIN_GW_KEY"
        assert "MAIN_GW_KEY" not in os.environ

    def test_missing_api_key_env_field(self, tmp_path):
        text = (
            "gateways:\n"
            "  main:\n"
            "    base_url: https://example.invalid\n"
        )
        with pytest.raises(ConfigError, match="api_key_env"):
            load_run_config(write_config(tmp_path, text))

    def test_shipped_default_config_never_reads_keys(self):
        cfg = load_run_config(REPO_ROOT / "configs" / "default.yaml")
        for name, gateway in cfg.gateways.items():
            assert gateway.api_key_env_name.isupper(), name

    def test_shipped_dryrun_config_loads_offline(self):
        cfg = load_run_config(REPO_ROOT / "configs" / "dryrun.yaml")
        assert cfg.gateways == {}
        assert cfg.paths.corpus.endswith("corpus_50.jsonl")


class TestInterpolation:
    def test_env_reference_resolves(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RUN_BUCKET", "runs/nightly")
        text = "paths:\n  output_dir: ${RUN_BUCKET}/latest\n"
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.paths.output_dir == "runs/nightly/latest"

    def test_unset_reference_names_the_variable(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NOT_SET_ANYWHERE", raising=False)
        text = "paths:\n  output_dir: ${NOT_SET_ANYWHERE}/latest\n"
        with pytest.raises(ConfigError, match="NOT_SET_ANYWHERE"):
            load_run_config(write_config(tmp_path, text))


class TestProfiles:
    def test_unknown_generation_profile(self, tmp_path):
        text = FULL_CONFIG.replace("generation_profile: main", "generation_profile: nope")
        with pytest.raises(ConfigError, match="nope.*main"):
            load_run_config(write_config(tmp_path, text))

    def test_eval_model_profile_must_exist(self, tmp_path):
        text = FULL_CONFIG.replace("      profile: main\n      model: ft-chat-x",
                                   "      profile: ghost\n      model: ft-chat-x")
        with pytest.raises(ConfigError, match="ghost"):
            load_run_config(write_config(tmp_path, text))

    def test_gateway_model_key_is_rejected(self, tmp_path):
        # Model ids come from pipeline.* and eval.models[].model only.
        text = FULL_CONFIG.replace(
            "    api_key_env: MAIN_GW_KEY\n",
            "    api_key_env: MAIN_GW_KEY\n    chat_model: chat-x\n",
        )
        with pytest.raises(ConfigError, match="chat_model"):
            load_run_config(write_config(tmp_path, text))


class TestEvalSection:
    @pytest.mark.parametrize("threshold", [0, -5, 121.23, 500])
    def test_threshold_out_of_range(self, tmp_path, threshold):
        text = f"eval:\n  threshold: {threshold}\n"
        with pytest.raises(ConfigError, match="threshold"):
            load_run_config(write_config(tmp_path, text))

    def test_threshold_ceiling_is_the_formula_maximum(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, "eval:\n  threshold: 121.22\n"))
        assert cfg.eval_threshold == 121.22

    def test_duplicate_labels_rejected(self, tmp_path):
        text = FULL_CONFIG.replace("label: tuned", "label: base")
        with pytest.raises(ConfigError, match="unique"):
            load_run_config(write_config(tmp_path, text))

    def test_empty_label_rejected(self, tmp_path):
        text = FULL_CONFIG.replace("label: base", 'label: ""')
        with pytest.raises(ConfigError, match="eval model #0: label must be non-empty"):
            load_run_config(write_config(tmp_path, text))

    def test_preset_and_literal_prompt_conflict(self, tmp_path):
        text = FULL_CONFIG.replace(
            "      system_prompt_preset: verbose-base",
            "      system_prompt_preset: verbose-base\n      system_prompt: literal text",
        )
        with pytest.raises(ConfigError, match="not both"):
            load_run_config(write_config(tmp_path, text))

    def test_unknown_preset_lists_available(self, tmp_path):
        text = FULL_CONFIG.replace("verbose-base", "verbose-typo")
        with pytest.raises(ConfigError, match="concise-finetune"):
            load_run_config(write_config(tmp_path, text))

    def test_literal_prompt_accepted(self, tmp_path):
        text = FULL_CONFIG.replace(
            "      system_prompt_preset: verbose-base",
            "      system_prompt: Answer like a radio host.",
        )
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.eval_models[0].system_prompt == "Answer like a radio host."

    def test_missing_prompt_rejected(self, tmp_path):
        text = FULL_CONFIG.replace(
            "      system_prompt_preset: verbose-base\n", ""
        )
        with pytest.raises(ConfigError, match="system prompt"):
            load_run_config(write_config(tmp_path, text))


def schema_keys(section: str, indent: int) -> list[str]:
    """Keys CONFIG_SCHEMA lists at `indent` under the top-level `section`."""
    keys, current = [], None
    for line in CONFIG_SCHEMA.splitlines():
        if line and not line[0].isspace():
            current = line.split(":", 1)[0]
        elif current == section and line[:indent].isspace() and line[indent] != " ":
            keys.append(line.split(":", 1)[0].strip())
    return keys


class TestSchemaText:
    def test_pipeline_keys_match_the_dataclass(self):
        fields = [f.name for f in dataclasses.fields(PipelineConfig)]
        assert schema_keys("pipeline", 2) == fields

    def test_gateway_keys_match_the_dataclass(self):
        renamed = {"api_key_env_name": "api_key_env"}
        fields = [renamed.get(f.name, f.name) for f in dataclasses.fields(GatewayConfig)]
        assert schema_keys("gateways", 4) == fields
