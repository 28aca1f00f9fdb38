"""Run configuration: one commented YAML file per experiment.

Secrets never live in the file; gateway entries name the environment
variable that holds the key (api_key_env). Other string values may use
${VAR} interpolation, resolved at load time.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import yaml

from .gateway import GatewayConfig
from .pipeline import PipelineConfig
from .prompts import PRESETS
from .textmetrics import CONVERSATIONAL_THRESHOLD

# Ceiling of the score formula: a text of single-syllable one-word
# sentences scores 206.835 - 1.015 - 84.6 = 121.22.
MAX_FLESCH_SCORE = 121.22

_ENV_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


class ConfigError(Exception):
    """The configuration file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class EvalModelSpec:
    label: str
    profile: str
    model_id: str
    system_prompt: str
    max_output_tokens: int = 512
    training_set_size: Optional[int] = None


@dataclass(frozen=True)
class PathsConfig:
    corpus: Optional[str] = None
    output_dir: str = "runs/latest"
    validation: Optional[str] = None


@dataclass(frozen=True)
class RunConfig:
    pipeline: PipelineConfig
    gateways: dict[str, GatewayConfig]
    generation_profile: str
    embedding_profile: str
    eval_threshold: float
    eval_models: tuple[EvalModelSpec, ...]
    paths: PathsConfig
    prompt_overrides: dict[str, str] = field(default_factory=dict)

    def gateway_for(self, profile: str) -> GatewayConfig:
        try:
            return self.gateways[profile]
        except KeyError:
            known = ", ".join(sorted(self.gateways)) or "none"
            raise ConfigError(f"unknown gateway profile {profile!r}; defined: {known}") from None


def _interpolate(value, source: str):
    if isinstance(value, str):
        def replace(match):
            name = match.group(1)
            resolved = os.environ.get(name)
            if resolved is None:
                raise ConfigError(
                    f"{source}: environment variable {name} referenced via "
                    f"${{{name}}} is not set"
                )
            return resolved

        return _ENV_RE.sub(replace, value)
    if isinstance(value, dict):
        return {k: _interpolate(v, source) for k, v in value.items()}
    if isinstance(value, list):
        return [_interpolate(v, source) for v in value]
    return value


def _positive_int(raw: dict, key: str, source: str, default=None) -> int:
    # A YAML int or a ${VAR} string. isdecimal, not isdigit: int() rejects "²".
    value = raw.get(key, default)
    if not str(value).isdecimal() or int(value) < 1:
        raise ConfigError(f"{source}: {key} must be >= 1, got {value!r}")
    return int(value)


def _resolve_system_prompt(raw: dict, source: str) -> str:
    preset_name = raw.get("system_prompt_preset")
    literal = raw.get("system_prompt")
    if preset_name and literal:
        raise ConfigError(f"{source}: give system_prompt or system_prompt_preset, not both")
    if preset_name:
        if preset_name not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise ConfigError(
                f"{source}: unknown prompt preset {preset_name!r}; available: {known}"
            )
        return PRESETS[preset_name]
    if literal:
        return literal
    raise ConfigError(f"{source}: a system prompt (preset or literal) is required")


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        raw_text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(raw_text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    raw = _interpolate(raw, str(path))

    section = raw.get("pipeline", {})
    for key in ("max_attempts", "concurrency_limit", "max_output_tokens"):
        if isinstance(section, dict) and key in section:
            section[key] = _positive_int(section, key, f"{path}: pipeline section")
    try:
        pipeline = PipelineConfig(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: pipeline section: {exc}") from exc

    gateways: dict[str, GatewayConfig] = {}
    for name, entry in (raw.get("gateways") or {}).items():
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: gateway {name!r} must be a mapping")
        entry = dict(entry)
        api_key_env = entry.pop("api_key_env", None)
        if api_key_env is None:
            raise ConfigError(f"{path}: gateway {name!r} must set api_key_env (a variable name)")
        try:
            gateways[name] = GatewayConfig(api_key_env_name=api_key_env, **entry)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: gateway {name!r}: {exc}") from exc

    run = raw.get("run") or {}
    generation_profile = run.get("generation_profile", "default")
    embedding_profile = run.get("embedding_profile", generation_profile)

    eval_raw = raw.get("eval") or {}
    threshold = float(eval_raw.get("threshold", CONVERSATIONAL_THRESHOLD))
    if not 0 < threshold <= MAX_FLESCH_SCORE:
        raise ConfigError(
            f"{path}: eval threshold must be in (0, {MAX_FLESCH_SCORE}], got {threshold}"
        )
    models = []
    for i, entry in enumerate(eval_raw.get("models") or []):
        source = f"{path}: eval model #{i}"
        if not isinstance(entry, dict):
            raise ConfigError(f"{source} must be a mapping")
        try:
            if not entry["label"]:
                raise ConfigError(f"{source}: label must be non-empty")
            size = entry.get("training_set_size")
            models.append(
                EvalModelSpec(
                    label=entry["label"],
                    profile=entry.get("profile", generation_profile),
                    model_id=entry["model"],
                    system_prompt=_resolve_system_prompt(entry, source),
                    max_output_tokens=_positive_int(entry, "max_output_tokens", source, 512),
                    training_set_size=None if size is None else int(size),
                )
            )
        except KeyError as exc:
            raise ConfigError(f"{source}: missing required key {exc}") from exc
    labels = [m.label for m in models]
    if len(labels) != len(set(labels)):
        raise ConfigError(f"{path}: eval model labels must be unique")

    paths_raw = raw.get("paths") or {}
    paths = PathsConfig(
        corpus=paths_raw.get("corpus"),
        output_dir=paths_raw.get("output_dir", "runs/latest"),
        validation=paths_raw.get("validation"),
    )

    prompt_overrides = {}
    for key in ("qa_generation", "simplify"):
        override = (raw.get("prompts") or {}).get(key)
        if override:
            prompt_overrides[key] = override

    config = RunConfig(
        pipeline=pipeline,
        gateways=gateways,
        generation_profile=generation_profile,
        embedding_profile=embedding_profile,
        eval_threshold=threshold,
        eval_models=tuple(models),
        paths=paths,
        prompt_overrides=prompt_overrides,
    )
    # Referenced profiles must exist whenever any gateway is declared;
    # a config used purely offline may omit the section entirely.
    if gateways:
        config.gateway_for(generation_profile)
        config.gateway_for(embedding_profile)
        for spec in models:
            config.gateway_for(spec.profile)
    return config


CONFIG_SCHEMA = """\
configuration file schema (YAML, comments allowed, ${VAR} interpolation):

pipeline:                # dataset synthesis constants
  generation_model: str        chat model id for QA generation
  embedding_model: str         embedding model id for dedup
  min_section_chars: int       default 700
  accept_threshold: float      default 75
  max_attempts: int            default 3
  dedup_threshold: float       default 0.8
  target_samples: int          default 10000
  validation_size: int         default 1000
  subset_sizes: [int]          default [100, 1000, 5000, 9000]
  concurrency_limit: int       default 8; caps model calls in flight, in synth
                               and in each eval model's replay (up to 2x as
                               many finished results await in-order use)
  random_seed: int             default 1234
  generation_temperature: float  default 0.7
  max_output_tokens: int       default 1024
gateways:                # named endpoint profiles
  <name>:
    base_url: str              OpenAI-compatible endpoint root
    api_key_env: str           NAME of the env var holding the key
    request_timeout: float     default 60
    max_retries: int           default 4 (max 8)
    backoff_base: float        default 0.5
run:
  generation_profile: str      gateway used for generation (default "default")
  embedding_profile: str       gateway used for embeddings
eval:
  threshold: float             conversational cutoff, default 60
  models:                      list of models to evaluate
    - label: str
      profile: str
      model: str
      system_prompt_preset: verbose-base | concise-finetune
      system_prompt: str       (literal alternative to a preset)
      max_output_tokens: int
paths:
  corpus: str                  line-delimited JSON corpus
  output_dir: str              run artifacts directory
  validation: str              validation split file for eval
prompts:                 # optional template overrides
  qa_generation: str
  simplify: str
"""
