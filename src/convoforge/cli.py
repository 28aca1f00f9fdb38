"""Command-line entry point.

Commands: score, synth, eval, export, dedup-check. Exit codes separate
failure classes so scripts can branch on them: 0 success (including a
partial dataset, which is flagged, not failed), 1 generic failure, 2
configuration problems (bad file, missing API-key variable), 3 violated
preconditions, 4 network trouble.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import prompts
from .config import CONFIG_SCHEMA, ConfigError, RunConfig, load_run_config
from .dedup import find_violations, load_index
from .evalharness import build_report, emit_report, generate_responses
from .gateway import (
    AuthenticationError,
    ChatMessage,
    CompletionRequest,
    GatewayConfig,
    GatewayError,
    HttpTransport,
    MissingApiKeyError,
    NetworkError,
    Transport,
    complete_chat,
    embed_texts,
)
from .pipeline import (
    INDEX_FILENAME,
    SAMPLES_FILENAME,
    QaSample,
    export_finetune_file,
    read_corpus_file,
    run_pipeline,
    split_dataset,
)
from .simulate import SimulatedModelTransport
from .textmetrics import UnscorableTextError, flesch_reading_ease

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_NETWORK = 4

# Tests inject transports here: factory(profile_name, gateway_config).
TransportFactory = Callable[[str, GatewayConfig], Transport]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convoforge",
        description="Synthesize, score, and evaluate conversational QA datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(
            name,
            help=help_text,
            epilog=CONFIG_SCHEMA,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )

    p_score = add("score", "print reading-ease statistics for a text")
    p_score.add_argument("text", nargs="?", help="text to score (stdin when omitted)")
    p_score.add_argument("--file", help="read the text from this file")

    p_synth = add("synth", "run the dataset synthesis pipeline")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--dry-run", action="store_true",
                         help="serve all model traffic from the offline simulator")
    p_synth.add_argument("--resume", action="store_true",
                         help="extend an interrupted run in the same output directory")
    p_synth.add_argument("--limit", type=int, help="cap the number of consumed sections")
    p_synth.add_argument("--out", help="override paths.output_dir")

    p_eval = add("eval", "evaluate configured models over the validation set")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--model", action="append", dest="models",
                        help="evaluate only this configured label (repeatable, ordered)")
    p_eval.add_argument("--threshold", type=float, help="override the conversational cutoff")
    p_eval.add_argument("--validation", help="override paths.validation")
    p_eval.add_argument("--similarity", action="store_true",
                        help="also compute semantic similarity (costs embedding calls)")
    p_eval.add_argument("--out", help="report directory (default <output_dir>/eval)")

    p_export = add("export", "write a fine-tuning file for one training subset")
    p_export.add_argument("--config", required=True)
    p_export.add_argument("--dataset", help="samples file (default <output_dir>/samples.jsonl)")
    p_export.add_argument("--size", type=int, required=True, help="training subset size")
    p_export.add_argument("--prompt", default="concise-finetune",
                          help="system prompt preset (default: concise-finetune)")
    p_export.add_argument("--out", help="output path (default <output_dir>/finetune-<size>.jsonl)")

    p_check = add("dedup-check", "recompute pairwise similarities over an index snapshot")
    p_check.add_argument("--config")
    p_check.add_argument("--index", help="index snapshot (default <output_dir>/index.tsv)")
    p_check.add_argument("--threshold", type=float, help="violation threshold (default from config)")

    return parser


def _read_score_input(args) -> str:
    if args.text is not None:
        return args.text
    if args.file:
        return Path(args.file).read_text(encoding="utf-8")
    return sys.stdin.read()


def cmd_score(args) -> int:
    stats = flesch_reading_ease(_read_score_input(args))
    print(f"sentences: {stats.sentence_count}")
    print(f"words: {stats.word_count}")
    print(f"syllables: {stats.syllable_count}")
    print(f"flesch_score: {stats.flesch_score:.2f}")
    return EXIT_OK


def _chat_fn(gateway: GatewayConfig, model_id: str, max_tokens: int,
             transport: Transport):
    def chat(messages: Sequence[ChatMessage], temperature: float) -> str:
        request = CompletionRequest(
            model_id=model_id,
            messages=tuple(messages),
            temperature=temperature,
            max_output_tokens=max_tokens,
        )
        return complete_chat(gateway, request, transport).content

    return chat


def _embed_fn(gateway: GatewayConfig, model_id: str, transport: Transport):
    def embed(texts: Sequence[str]):
        return embed_texts(gateway, model_id, texts, transport)

    return embed


def _make_transport(profile: str, gateway: GatewayConfig,
                    transport_factory: Optional[TransportFactory]) -> Transport:
    # Built eagerly so a missing API key fails the command up front
    # instead of surfacing as per-section generation errors mid-run.
    if transport_factory is not None:
        return transport_factory(profile, gateway)
    return HttpTransport(gateway)


_DRY_RUN_GATEWAY = GatewayConfig(
    base_url="https://dry-run.invalid", api_key_env_name="CONVOFORGE_DRY_RUN_UNUSED"
)


def cmd_synth(args, transport_factory: Optional[TransportFactory]) -> int:
    cfg = load_run_config(args.config)
    if not cfg.paths.corpus:
        raise ConfigError(f"{args.config}: paths.corpus is required for synth")
    records = read_corpus_file(cfg.paths.corpus)
    out_dir = Path(args.out) if args.out else Path(cfg.paths.output_dir)

    if args.dry_run:
        # One shared simulator instance; no HTTP transport is ever built,
        # so nothing in this branch can open a connection.
        simulator = SimulatedModelTransport()
        chat_gateway = embed_gateway = _DRY_RUN_GATEWAY
        chat_transport = embed_transport = simulator
    else:
        chat_gateway = cfg.gateway_for(cfg.generation_profile)
        embed_gateway = cfg.gateway_for(cfg.embedding_profile)
        chat_transport = _make_transport(cfg.generation_profile, chat_gateway, transport_factory)
        embed_transport = _make_transport(cfg.embedding_profile, embed_gateway, transport_factory)

    result = run_pipeline(
        cfg.pipeline,
        records,
        chat=_chat_fn(chat_gateway, cfg.pipeline.generation_model,
                      cfg.pipeline.max_output_tokens, chat_transport),
        embed=_embed_fn(embed_gateway, cfg.pipeline.embedding_model, embed_transport),
        out_dir=out_dir,
        resume=args.resume,
        limit=args.limit,
        qa_template=cfg.prompt_overrides.get("qa_generation", prompts.QA_GENERATION_TEMPLATE),
        simplify_template=cfg.prompt_overrides.get("simplify", prompts.SIMPLIFY_TEMPLATE),
    )
    for outcome, count in sorted(result.manifest["counts"].items()):
        print(f"{outcome}: {count}")
    print(f"samples: {result.manifest['sample_count']}")
    if result.shortfall:
        print("warning: corpus exhausted before the sample target; dataset is partial")
    print(f"artifacts: {result.out_dir}")
    return EXIT_OK


def _load_samples(path) -> list[QaSample]:
    return [QaSample.from_record(record) for record in read_corpus_file(path)]


def cmd_eval(args, transport_factory: Optional[TransportFactory]) -> int:
    cfg = load_run_config(args.config)
    validation_path = args.validation or cfg.paths.validation
    if not validation_path:
        raise ConfigError(f"{args.config}: paths.validation is required for eval")
    samples = _load_samples(validation_path)
    if not samples:
        raise ValueError(f"validation file {validation_path} is empty")
    threshold = args.threshold if args.threshold is not None else cfg.eval_threshold

    specs = {spec.label: spec for spec in cfg.eval_models}
    if args.models:
        missing = [label for label in args.models if label not in specs]
        if missing:
            raise ConfigError(f"labels not in config: {', '.join(missing)}")
        selected = [specs[label] for label in args.models]
    else:
        selected = list(cfg.eval_models)
    if not selected:
        raise ConfigError(f"{args.config}: eval.models defines no models")

    embed = None
    if args.similarity:
        embed_gateway = cfg.gateway_for(cfg.embedding_profile)
        embed_transport = _make_transport(cfg.embedding_profile, embed_gateway, transport_factory)
        embed = _embed_fn(embed_gateway, cfg.pipeline.embedding_model, embed_transport)

    reports = []
    for spec in selected:
        gateway = cfg.gateway_for(spec.profile)
        transport = _make_transport(spec.profile, gateway, transport_factory)
        chat = _chat_fn(gateway, spec.model_id, spec.max_output_tokens, transport)
        responses = generate_responses(spec.system_prompt, samples, chat)
        report = build_report(
            spec.label, samples, responses, threshold,
            embed=embed, training_set_size=spec.training_set_size,
        )
        reports.append(report)
        sim = (
            f", mean similarity {report.mean_semantic_similarity:.4f}"
            if report.mean_semantic_similarity is not None else ""
        )
        print(
            f"{spec.label}: {report.pct_conversational:.1f}% conversational "
            f"({report.n_samples} samples{sim})"
        )
        if not report.complete_run:
            print(f"warning: {spec.label} is missing {report.missing_count} responses; "
                  f"metrics cover a reduced denominator")

    out_dir = Path(args.out) if args.out else Path(cfg.paths.output_dir) / "eval"
    paths = emit_report(reports, out_dir)
    print(f"reports: {paths['json'].parent}")
    return EXIT_OK


def cmd_export(args) -> int:
    cfg = load_run_config(args.config)
    dataset = args.dataset or str(Path(cfg.paths.output_dir) / SAMPLES_FILENAME)
    samples = _load_samples(dataset)
    valid_sizes = sorted(cfg.pipeline.subset_sizes)
    if args.size not in cfg.pipeline.subset_sizes:
        raise ValueError(f"unknown subset size {args.size}; valid sizes: {valid_sizes}")
    try:
        system_prompt = prompts.preset(args.prompt)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    splits = split_dataset(samples, cfg.pipeline)
    out = Path(args.out) if args.out else Path(cfg.paths.output_dir) / f"finetune-{args.size}.jsonl"
    count = export_finetune_file(splits.subsets[args.size], system_prompt, out)
    print(f"wrote {count} records to {out}")
    return EXIT_OK


def cmd_dedup_check(args) -> int:
    threshold = args.threshold
    index_path = args.index
    if args.config:
        cfg = load_run_config(args.config)
        if threshold is None:
            threshold = cfg.pipeline.dedup_threshold
        if index_path is None:
            index_path = str(Path(cfg.paths.output_dir) / INDEX_FILENAME)
    if index_path is None:
        raise ValueError("--index is required when no --config is given")
    if threshold is None:
        threshold = 0.8
    index = load_index(index_path, threshold=threshold)
    violations = find_violations(index)
    if not violations:
        print(f"no similarity violations among {len(index)} entries at threshold {threshold}")
        return EXIT_OK
    for id_a, id_b, sim in violations:
        print(f"violation: {id_a} ~ {id_b} similarity {sim:.6f}")
    print(f"{len(violations)} violating pairs")
    return EXIT_FAILURE


def main(argv: Optional[Sequence[str]] = None,
         transport_factory: Optional[TransportFactory] = None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "score":
            return cmd_score(args)
        if args.command == "synth":
            return cmd_synth(args, transport_factory)
        if args.command == "eval":
            return cmd_eval(args, transport_factory)
        if args.command == "export":
            return cmd_export(args)
        if args.command == "dedup-check":
            return cmd_dedup_check(args)
        parser.error(f"unknown command {args.command}")
    except (ConfigError, MissingApiKeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnscorableTextError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (NetworkError, AuthenticationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except GatewayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
