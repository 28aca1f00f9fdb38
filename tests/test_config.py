"""Config loading: YAML schema, env-name secrets, interpolation, validation."""

import copy
import dataclasses
import math
import os
import re
import typing
from pathlib import Path

import pytest
import yaml

from convoforge import cli
from convoforge.config import (
    CONFIG_SCHEMA,
    ConfigError,
    EvalConfig,
    EvalModelSpec,
    PathsConfig,
    PromptsConfig,
    RunConfig,
    RunProfiles,
    load_run_config,
)
from convoforge.gateway import GatewayConfig, field_rules
from convoforge.pipeline import PipelineConfig, QaSample

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
        assert cfg.run.generation_profile == "main"
        assert cfg.run.embedding_profile == "main"  # defaults to generation profile
        assert cfg.eval.threshold == 60.0
        assert [m.label for m in cfg.eval.models] == ["base", "tuned"]
        assert cfg.eval.models[1].training_set_size == 9000
        assert cfg.paths.output_dir == "runs/test"
        assert cfg.gateway_for("main").max_retries == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config(tmp_path / "absent.yaml")

    def test_undecodable_bytes_name_the_file_and_line(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"pipeline:\n  # \xff\n  random_seed: 1\n")
        with pytest.raises(ConfigError) as info:
            load_run_config(path)
        assert str(info.value) == f"{path}:2: bytes that UTF-8 cannot decode"

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

    @pytest.mark.parametrize("tokens", ["0", "lots", "²"])
    def test_bad_pipeline_max_output_tokens_fails_at_load(self, tmp_path, tokens):
        text = f"pipeline:\n  max_output_tokens: {tokens}\n"
        with pytest.raises(ConfigError, match="pipeline section: max_output_tokens must be >= 1"):
            load_run_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("key", ["concurrency_limit", "max_attempts"])
    @pytest.mark.parametrize("value", ["0", "lots", "²"])
    def test_bad_pipeline_count_fails_at_load(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, f"pipeline:\n  {key}: {value}\n")
        with pytest.raises(ConfigError, match=f"pipeline section: {key} must be >= 1"):
            load_run_config(path)
        assert cli.main(["synth", "--config", str(path), "--dry-run"]) == 2
        assert f"{key} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["concurrency_limit", "max_attempts"])
    def test_pipeline_count_may_come_from_the_environment(self, tmp_path, monkeypatch, key):
        monkeypatch.setenv("PIPELINE_COUNT", "8")
        text = f"pipeline:\n  {key}: ${{PIPELINE_COUNT}}\n"
        pipeline = load_run_config(write_config(tmp_path, text)).pipeline
        assert getattr(pipeline, key) == 8

    def test_pipeline_max_output_tokens_may_come_from_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SYNTH_MAX_TOKENS", "256")
        text = "pipeline:\n  max_output_tokens: ${SYNTH_MAX_TOKENS}\n"
        assert load_run_config(write_config(tmp_path, text)).pipeline.max_output_tokens == 256



TYPED_CONFIG = """\
pipeline:
  generation_model: chat-x
  {PipelineConfig}
gateways:
  main:
    base_url: https://example.invalid/v1
    api_key_env: MAIN_GW_KEY
    {GatewayConfig}
run:
  generation_profile: main
eval:
  models:
    - label: base
      model: chat-x
      system_prompt_preset: verbose-base
      {EvalModelSpec}
"""

# Each class's section name in load errors, and where its loaded instance sits.
TYPED_SECTIONS = {
    PipelineConfig: ("pipeline section", lambda cfg: cfg.pipeline),
    GatewayConfig: ("gateway 'main'", lambda cfg: cfg.gateway_for("main")),
    EvalModelSpec: ("eval model #0", lambda cfg: cfg.eval.models[0]),
}
NUMERIC_FIELDS = [
    pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
    for cls in TYPED_SECTIONS
    for f in dataclasses.fields(cls)
    if typing.get_type_hints(cls)[f.name] is not str
]


def typed_config(tmp_path, cls, key, value) -> Path:
    """TYPED_CONFIG with `key: value` among the fields of `cls`."""
    filler = {c.__name__: "" for c in TYPED_SECTIONS}
    filler[cls.__name__] = f"{key}: {value}"
    lines = TYPED_CONFIG.format(**filler).splitlines(keepends=True)
    return write_config(tmp_path, "".join(line for line in lines if line.strip()))


class TestNumericFields:
    @pytest.mark.parametrize("cls, field", NUMERIC_FIELDS)
    def test_variable_loads_as_a_number(self, tmp_path, monkeypatch, cls, field):
        listed = isinstance(field.default, tuple)  # subset_sizes
        number = field.default[0] if listed else 9000 if field.default is None else field.default
        monkeypatch.setenv("CF_NUMBER", str(number))
        value = '["${CF_NUMBER}"]' if listed else "${CF_NUMBER}"
        cfg = load_run_config(typed_config(tmp_path, cls, field.name, value))
        loaded = getattr(TYPED_SECTIONS[cls][1](cfg), field.name)
        assert loaded == ((number,) if listed else number)
        assert type(loaded[0] if listed else loaded) is type(number)

    @pytest.mark.parametrize("cls, field", NUMERIC_FIELDS)
    def test_wrong_type_fails_at_load_naming_the_key(self, tmp_path, capsys, cls, field):
        value = "[lots]" if isinstance(field.default, tuple) else "lots"
        path = typed_config(tmp_path, cls, field.name, value)
        section = TYPED_SECTIONS[cls][0]
        with pytest.raises(ConfigError, match=f"{section}: {field.name} must be "):
            load_run_config(path)
        assert cli.main(["synth", "--config", str(path), "--dry-run"]) == 2
        assert f"{section}: {field.name} must be " in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["true", "1.5"])
    def test_bool_or_fraction_is_not_an_int(self, tmp_path, value):
        with pytest.raises(ConfigError, match="pipeline section: random_seed must be of type int"):
            load_run_config(write_config(tmp_path, f"pipeline:\n  random_seed: {value}\n"))

    def test_range_rules_hold_for_library_callers(self):
        for key in ("max_attempts", "concurrency_limit", "max_output_tokens"):
            with pytest.raises(ValueError, match=f"{key} must be >= 1"):
                PipelineConfig(**{key: 0})
        spec = dict(label="m", profile="p", model="x", system_prompt="s")
        for key in ("max_output_tokens", "training_set_size"):
            with pytest.raises(ValueError, match=f"{key} must be >= 1"):
                EvalModelSpec(**spec, **{key: -3})

    @pytest.mark.parametrize("cls, values, message", [
        (PipelineConfig, {"generation_temperature": -1}, "generation_temperature must be >= 0"),
        (PipelineConfig, {"validation_size": -10}, "validation_size must be >= 1"),
        (PipelineConfig, {"subset_sizes": (-5,)}, "subset_sizes: -5 is not in [1, 9000]"),
        (PipelineConfig, {"subset_sizes": ()}, "subset_sizes must list at least one size"),
        (EvalConfig, {"threshold": math.nan}, "threshold must be in"),
        (PromptsConfig, {"simplify": "{answr}"}, "simplify may use only"),
        (PromptsConfig, {"qa_generation": "{section_text} }"}, "qa_generation may use only"),
        (PromptsConfig, {"qa_generation": ""}, "qa_generation must be non-empty"),
    ])
    def test_value_rules_hold_for_library_callers(self, cls, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(**values)

    @pytest.mark.parametrize("simplify", ["{question} {answer}", "{feedback}{question} {answer}"])
    def test_simplify_may_omit_the_feedback(self, simplify):
        assert PromptsConfig(simplify=simplify).simplify == simplify


VALID_YAML = {
    "pipeline": {},
    "gateways": {"main": {"base_url": "https://example.invalid/v1", "api_key_env": "MAIN_GW_KEY"}},
    "run": {"generation_profile": "main"},
    "eval": {"models": [{"label": "base", "model": "chat-x", "system_prompt": "Answer."}]},
    "paths": {"corpus": "corpus.jsonl"},
    "prompts": {},
}

# Each dataclass whose fields declare rules: the fields a library caller
# must pass, and for a config section, the mapping of VALID_YAML that holds
# its keys and the section's name in load errors.
RULED = {
    PipelineConfig: ({}, lambda raw: raw["pipeline"], "pipeline section"),
    GatewayConfig: (dict(base_url="u", api_key_env="K"),
                    lambda raw: raw["gateways"]["main"], "gateway 'main'"),
    RunProfiles: ({}, lambda raw: raw["run"], "run section"),
    EvalConfig: ({}, lambda raw: raw["eval"], "eval section"),
    EvalModelSpec: (dict(label="m", profile="p", model="x", system_prompt="s"),
                    lambda raw: raw["eval"]["models"][0], "eval model #0"),
    PathsConfig: ({}, lambda raw: raw["paths"], "paths section"),
    PromptsConfig: ({}, lambda raw: raw["prompts"], "prompts section"),
    QaSample: (dict(sample_id="qa-a", question="Q?", answer_original="A.",
                    answer_simplified="A.", flesch_score=80.0, attempts_used=1,
                    section_id="a"), None, None),
}


def step(number, kind, direction):
    """The next value of `kind` past `number` towards `direction` (+1 or -1)."""
    return number + direction if kind is int else math.nextafter(number, direction * math.inf)


def broken_values(bound, kind) -> list:
    """A value just past each end of `bound`, nan, and both infinities."""
    below = bound.low if bound.open else step(bound.low, kind, -1)
    above = [] if bound.high == math.inf else [step(bound.high, kind, +1)]
    return [below, *above, math.nan, math.inf, -math.inf]


def end_values(bound, kind) -> list:
    """The values at each end of `bound` that it admits."""
    low = step(bound.low, kind, +1) if bound.open else bound.low
    return [low] + ([] if bound.high == math.inf else [bound.high])


# The one text rule with its own message: it names system_prompt_preset.
EMPTY_MESSAGES = {(EvalModelSpec, "system_prompt"): "a system prompt is required"}

BROKEN = [
    pytest.param(cls, name, value, f"{name} must be {bound}, got {value!r}",
                 id=f"{cls.__name__}.{name}={value!r}")
    for cls in RULED for name, _, kind, bound in field_rules(cls) if bound
    for value in broken_values(bound, kind)
] + [
    pytest.param(cls, name, "", EMPTY_MESSAGES.get((cls, name), f"{name} must be non-empty"),
                 id=f"{cls.__name__}.{name}=''")
    for cls in RULED for name, _, kind, _ in field_rules(cls) if kind is str
]


class TestFieldRules:
    """Each rule a field declares, checked from the dataclasses themselves."""

    @pytest.mark.parametrize("cls, name, value, message", BROKEN)
    def test_library_caller_gets_the_rule(self, cls, name, value, message):
        required, _, _ = RULED[cls]
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(**{**required, name: value})

    @pytest.mark.parametrize("cls, name, value", [
        pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
        for cls in RULED for name, _, kind, bound in field_rules(cls) if bound
        for value in end_values(bound, kind)
    ])
    def test_each_end_of_a_bound_is_admitted(self, cls, name, value):
        required, _, _ = RULED[cls]
        assert getattr(cls(**{**required, name: value}), name) == value

    @pytest.mark.parametrize("cls, name, value, message",
                             [p for p in BROKEN if RULED[p.values[0]][1]])
    def test_config_file_exits_2_naming_the_key(self, tmp_path, capsys, cls, name, value, message):
        _, keys, section = RULED[cls]
        raw = copy.deepcopy(VALID_YAML)
        keys(raw)[name] = value
        path = write_config(tmp_path, yaml.safe_dump(raw))
        out = tmp_path / "run"
        assert cli.main(["synth", "--config", str(path), "--dry-run", "--out", str(out)]) == 2
        assert f"{section}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_help_shows_each_bound(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["synth", "--help"])
        out = capsys.readouterr().out
        unshown = [(cls.__name__, name) for cls, (_, keys, _) in RULED.items() if keys
                   for name, _, _, bound in field_rules(cls) if bound and not re.search(
                       rf"^ +(- )?{name}: .*; {re.escape(str(bound))}( |$)", out, re.M)]
        assert unshown == []

    @pytest.mark.parametrize("value", [".nan", ".inf"])
    def test_non_finite_backoff_exits_2_before_any_call(self, tmp_path, capsys, value):
        text = FULL_CONFIG.replace("    max_retries: 2\n",
                                   f"    max_retries: 2\n    backoff_base: {value}\n")
        connected = []
        code = cli.main(["synth", "--config", str(write_config(tmp_path, text))],
                        transport_factory=lambda *args: connected.append(args))
        assert code == 2 and connected == []
        assert "gateway 'main': backoff_base must be >= 0, got " in capsys.readouterr().err


class TestSecrets:
    def test_api_key_env_stays_a_variable_name(self, tmp_path, monkeypatch):
        # the variable is deliberately unset: loading must not need the key
        monkeypatch.delenv("MAIN_GW_KEY", raising=False)
        cfg = load_run_config(write_config(tmp_path, FULL_CONFIG))
        assert cfg.gateway_for("main").api_key_env == "MAIN_GW_KEY"
        assert "MAIN_GW_KEY" not in os.environ

    @pytest.mark.parametrize("old, new, message", [
        ("      model: chat-x\n", "      model: 7\n",
         "eval model #0: model must be of type str, got 7"),
        ("    api_key_env: MAIN_GW_KEY\n", "    api_key_env: 5\n",
         "gateway 'main': api_key_env must be of type str, got 5"),
    ])
    def test_type_error_names_the_yaml_key(self, tmp_path, old, new, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_run_config(write_config(tmp_path, FULL_CONFIG.replace(old, new, 1)))

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
            assert gateway.api_key_env.isupper(), name

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
        assert cfg.eval.threshold == 121.22

    def test_duplicate_labels_rejected(self, tmp_path):
        text = FULL_CONFIG.replace("label: tuned", "label: base")
        with pytest.raises(ConfigError, match="unique"):
            load_run_config(write_config(tmp_path, text))

    def test_empty_label_rejected(self, tmp_path):
        text = FULL_CONFIG.replace("label: base", 'label: ""')
        with pytest.raises(ConfigError, match="eval model #0: label must be non-empty"):
            load_run_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("tokens", ["0", "-5", "lots", "1.5", "true", "²", "①"])
    def test_max_output_tokens_must_be_a_positive_integer(self, tmp_path, tokens):
        text = FULL_CONFIG.replace(
            "      training_set_size: 9000\n",
            f"      training_set_size: 9000\n      max_output_tokens: {tokens}\n",
        )
        with pytest.raises(ConfigError, match="eval model #1: max_output_tokens must be >= 1"):
            load_run_config(write_config(tmp_path, text))

    def test_max_output_tokens_may_come_from_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EVAL_MAX_TOKENS", "256")
        text = FULL_CONFIG.replace(
            "      training_set_size: 9000\n",
            "      training_set_size: 9000\n      max_output_tokens: ${EVAL_MAX_TOKENS}\n",
        )
        cfg = load_run_config(write_config(tmp_path, text))
        assert [m.max_output_tokens for m in cfg.eval.models] == [512, 256]

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
        assert cfg.eval.models[0].system_prompt == "Answer like a radio host."

    def test_missing_prompt_rejected(self, tmp_path):
        text = FULL_CONFIG.replace(
            "      system_prompt_preset: verbose-base\n", ""
        )
        with pytest.raises(ConfigError, match="system prompt"):
            load_run_config(write_config(tmp_path, text))


def schema_keys(section: str, indent: int) -> list[str]:
    """Keys CONFIG_SCHEMA lists at `indent` under the top-level `section`; a
    list entry's "- " counts as indentation."""
    keys, current = [], None
    for line in CONFIG_SCHEMA.split("\n\n", 1)[1].splitlines():
        line = re.sub(r"^( *)- ", r"\1  ", line)
        if line and not line[0].isspace():
            current = line.split(":", 1)[0]
        elif current == section and line[:indent].isspace() and line[indent] != " ":
            keys.append(line.split(":", 1)[0].strip())
    return keys


def field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


class TestSchemaText:
    def test_pipeline_keys_match_the_dataclass(self):
        assert schema_keys("pipeline", 2) == field_names(PipelineConfig)

    def test_gateway_keys_match_the_dataclass(self):
        assert schema_keys("gateways", 4) == field_names(GatewayConfig)

    @pytest.mark.parametrize("section, indent, cls", [
        ("run", 2, RunProfiles),
        ("eval", 2, EvalConfig),
        ("eval", 6, EvalModelSpec),
        ("paths", 2, PathsConfig),
        ("prompts", 2, PromptsConfig),
    ])
    def test_section_keys_match_the_dataclass(self, section, indent, cls):
        assert schema_keys(section, indent) == field_names(cls)

    def test_sections_match_the_run_config(self):
        body = CONFIG_SCHEMA.split("\n\n", 1)[1]
        sections = [line.split(":", 1)[0] for line in body.splitlines() if not line[0].isspace()]
        assert sections == field_names(RunConfig)

    def test_preset_names_are_listed(self):
        assert "system_prompt_preset: verbose-base | concise-finetune" in CONFIG_SCHEMA

    def test_quoted_variable_list_example_loads(self, tmp_path, monkeypatch):
        example = re.search(r"subset_sizes: \[.*?\]", CONFIG_SCHEMA).group(0)
        monkeypatch.setenv("A", "10")
        monkeypatch.setenv("B", "20")
        cfg = load_run_config(write_config(tmp_path, f"pipeline:\n  {example}\n"))
        assert cfg.pipeline.subset_sizes == (10, 20)
