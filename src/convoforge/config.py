"""Run configuration: one commented YAML file per experiment.

Each section is a frozen dataclass whose field names are its keys, and
CONFIG_SCHEMA is rendered from the fields. Secrets never live in the file;
gateway entries name the environment variable that holds the key
(api_key_env). Other values may use ${VAR} interpolation, resolved at load
time; an int or float field reads the result as its number.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Annotated, Optional, get_args, get_origin, get_type_hints

import yaml

from . import prompts, runlog
from .gateway import Bound, GatewayConfig, check_fields, field_rules, type_name
from .pipeline import PipelineConfig
from .textmetrics import CONVERSATIONAL_THRESHOLD, MAX_FLESCH_SCORE

_ENV_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


class ConfigError(Exception):
    """The configuration file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class EvalModelSpec:
    label: Annotated[str, "names the model in reports and in --model"]
    profile: Annotated[str, "gateway profile (default run.generation_profile)"]
    model: Annotated[str, "model id sent to the endpoint"]
    system_prompt: Annotated[str, "literal system prompt, or instead\nsystem_prompt_preset: "
                             + " | ".join(prompts.PRESETS)] = ""
    max_output_tokens: Annotated[int, "reply cap per call", Bound(1)] = 512
    training_set_size: Annotated[
        Optional[int], "fine-tuning subset size, for reports", Bound(1)] = None

    def __post_init__(self):
        if self.system_prompt == "":
            raise ValueError("a system prompt is required: system_prompt or system_prompt_preset")
        check_fields(self)


@dataclass(frozen=True)
class RunProfiles:
    generation_profile: Annotated[str, "gateway profile for chat calls"] = "default"
    embedding_profile: Annotated[
        Optional[str], "gateway profile for embedding calls (default generation_profile)"] = None

    def __post_init__(self):
        check_fields(self)
        if self.embedding_profile is None:
            object.__setattr__(self, "embedding_profile", self.generation_profile)


@dataclass(frozen=True)
class EvalConfig:
    threshold: Annotated[float, "conversational cutoff, inclusive",
                         Bound(0, MAX_FLESCH_SCORE, open=True)] = CONVERSATIONAL_THRESHOLD
    models: Annotated[tuple[EvalModelSpec, ...], "models to evaluate"] = ()

    def __post_init__(self):
        check_fields(self)
        if len({m.label for m in self.models}) != len(self.models):
            raise ValueError("model labels must be unique")


@dataclass(frozen=True)
class PathsConfig:
    corpus: Annotated[Optional[str], "line-delimited JSON corpus, for synth"] = None
    output_dir: Annotated[str, "run artifacts directory"] = "runs/latest"
    validation: Annotated[Optional[str], "validation split file, for eval"] = None

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class PromptsConfig:
    qa_generation: Annotated[str, "template over {section_text}"] = prompts.QA_GENERATION_TEMPLATE
    simplify: Annotated[str, "template over {question}, {answer} and optional {feedback}"] = (
        prompts.SIMPLIFY_TEMPLATE)

    def __post_init__(self):
        check_fields(self)
        for name, keys in (("qa_generation", ["section_text"]),
                           ("simplify", ["question", "answer", "feedback"])):
            try:  # as the pipeline formats it
                getattr(self, name).format(**dict.fromkeys(keys, ""))
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{name} may use only the placeholders {keys} and must "
                                 f"double a literal brace: {exc!r}") from None


@dataclass(frozen=True)
class RunConfig:
    pipeline: Annotated[PipelineConfig, "dataset synthesis constants"]
    gateways: Annotated[dict[str, GatewayConfig], "named endpoint profiles"]
    run: Annotated[RunProfiles, "the profiles synthesis calls"]
    eval: Annotated[EvalConfig, "evaluation of configured models"]
    paths: Annotated[PathsConfig, "inputs and outputs"]
    prompts: Annotated[PromptsConfig, "synthesis prompt templates"]

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


def _as_type(value, hint):
    """`value` as `hint` where it reads as one (a ${VAR} number, an int for a
    float, a tuple); anything else unchanged, for the dataclass's check to reject."""
    if get_origin(hint) is tuple and isinstance(value, list):
        return tuple(_as_type(v, get_args(hint)[0]) for v in value)
    if hint in (int, float) and isinstance(value, (str, int)) and not isinstance(value, bool):
        try:
            return hint(value)
        except ValueError:
            pass
    return value


def _mapping(values, source: str, cls=None) -> dict:
    """`values` as a mapping (None as an empty one), holding only field names of `cls`."""
    values = {} if values is None else values
    if not isinstance(values, dict):
        raise ConfigError(f"{source} must be a mapping")
    known = [f.name for f in fields(cls)] if cls else list(values)
    for key in values:
        if key not in known:
            raise ConfigError(f"{source}: unknown key {key!r}; known keys: {', '.join(known)}")
    return values


def _read(cls, values, source: str):
    """`cls` built from the mapping `values`, each read as its field's type."""
    values, kinds = _mapping(values, source, cls), {n: k for n, _, k, _ in field_rules(cls)}
    try:
        return cls(**{key: _as_type(value, kinds[key]) for key, value in values.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _eval_model(entry, generation_profile: str, source: str) -> EvalModelSpec:
    values = {"profile": generation_profile, **_mapping(entry, source)}
    preset = values.pop("system_prompt_preset", None)
    if preset is not None:
        if "system_prompt" in values:
            raise ConfigError(f"{source}: give system_prompt or system_prompt_preset, not both")
        try:
            values["system_prompt"] = prompts.preset(preset)
        except (KeyError, TypeError) as exc:  # unknown or unhashable name
            raise ConfigError(f"{source}: {exc.args[0]}") from None
    return _read(EvalModelSpec, values, source)


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        raw_text = "".join(line for _, line in runlog.lines(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # path:line: bytes that UTF-8 cannot decode
        raise ConfigError(str(exc)) from exc
    try:
        raw = yaml.safe_load(raw_text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    raw = _interpolate(_mapping(raw, f"{path}: top level", RunConfig), str(path))

    run = _read(RunProfiles, raw.get("run"), f"{path}: run section")
    eval_raw = _mapping(raw.get("eval"), f"{path}: eval section", EvalConfig)
    if not isinstance(eval_raw.get("models") or [], list):
        raise ConfigError(f"{path}: eval section: models must be a list")
    eval_raw["models"] = tuple(
        _eval_model(entry, run.generation_profile, f"{path}: eval model #{i}")
        for i, entry in enumerate(eval_raw.get("models") or [])
    )
    config = RunConfig(
        pipeline=_read(PipelineConfig, raw.get("pipeline"), f"{path}: pipeline section"),
        gateways={
            name: _read(GatewayConfig, entry, f"{path}: gateway {name!r}")
            for name, entry in _mapping(raw.get("gateways"), f"{path}: gateways").items()
        },
        run=run,
        eval=_read(EvalConfig, eval_raw, f"{path}: eval section"),
        paths=_read(PathsConfig, raw.get("paths"), f"{path}: paths section"),
        prompts=_read(PromptsConfig, raw.get("prompts"), f"{path}: prompts section"),
    )
    # Referenced profiles must exist whenever any gateway is declared;
    # a config used purely offline may omit the section entirely.
    if config.gateways:
        for profile in (run.generation_profile, run.embedding_profile,
                        *(spec.profile for spec in config.eval.models)):
            config.gateway_for(profile)
    return config


def _schema_lines(cls, indent: int) -> list[str]:
    """One line per field of `cls`, with a nested section's fields indented under its key."""
    lines, hints = [], get_type_hints(cls, include_extras=True)
    for f in fields(cls):
        hint, help_text, *bound = get_args(hints[f.name])  # Annotated[type, help, Bound]
        nested = next((arg for arg in get_args(hint) or (hint,) if is_dataclass(arg)), None)
        head = " " * indent + f.name + ":"
        if bound:
            help_text += f"; {bound[0]}"
        if nested is None:
            head += " " + type_name(hint)
            if f.default not in (MISSING, None, "") and "\n" not in str(f.default):
                help_text += f" (default {json.dumps(f.default)})"
        lines.append(f"{head:<30} " + help_text.replace("\n", "\n" + " " * 31))
        if get_origin(hint) is dict:
            lines += [" " * (indent + 2) + "<name>:", *_schema_lines(nested, indent + 4)]
        elif get_origin(hint) is tuple and nested:
            entry = _schema_lines(nested, indent + 4)
            lines += [" " * (indent + 2) + "- " + entry[0][indent + 4:], *entry[1:]]
        elif nested:
            lines += _schema_lines(nested, indent + 2)
    return lines


CONFIG_SCHEMA = """\
configuration file schema (YAML). An unknown section or key is an error, as
is an empty str. Any value may use ${VAR}; an int or float field reads it as
a number (random_seed: ${SEED}); inside a [...] list, quote it:
subset_sizes: ["${A}", "${B}"].

""" + "\n".join(_schema_lines(RunConfig, 0)) + "\n"
