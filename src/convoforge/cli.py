"""Command-line entry point.

Commands: score, synth, eval, export, dedup-check. Exit codes separate
failure classes so scripts can branch on them: 0 success (including a
partial dataset, which is flagged, not failed), 1 generic failure, 2
configuration problems (bad file, missing API-key variable), 3 violated
preconditions (including a --resume over files that disagree), 4 network
trouble or a rejected API key. A synth call that still fails after its
retries stops the run with 4, and --resume finishes it; eval counts such a
call as a missing response. A first SIGINT or SIGTERM stops synth where its
files agree, so --resume finishes the run, and the process then dies by that
signal; a second one kills at once. An ignored SIGINT stays ignored.
"""

from __future__ import annotations

import argparse
import logging
import signal
import sys
import threading
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import prompts, runlog
from .config import CONFIG_SCHEMA, ConfigError, RunConfig, load_run_config
from .dedup import find_violations
from .evalharness import build_report, emit_report, generate_responses
from .gateway import (
    AuthenticationError,
    GatewayConfig,
    GatewayError,
    HttpTransport,
    MissingApiKeyError,
    NetworkError,
    Transport,
    complete_chat,
    embed_texts,
)
from .pipeline import (PipelineConfig, export_finetune_file, load_samples, read_corpus_file,
                       run_pipeline, split_dataset)
from .runlog import INDEX_FILENAME, RUN_FILENAMES, SAMPLES_FILENAME, VALIDATION_FILENAME
from .simulate import SimulatedModelTransport
from .snapshot import load_index
from .textmetrics import flesch_reading_ease

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

    p_export = add("export", "write one training subset's fine-tuning file, and "
                             "the validation split beside it as validation.jsonl")
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
        return "".join(line for _, line in runlog.lines(args.file))
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
    def chat(messages: Sequence[dict], temperature: float) -> str:
        return complete_chat(gateway, model_id, messages, temperature, max_tokens, transport).content

    return chat


def _embed_fn(gateway: GatewayConfig, model_id: str, transport: Transport):
    def embed(texts: Sequence[str]):
        return embed_texts(gateway, model_id, texts, transport)

    return embed


def _connect(cfg: RunConfig, profile: str, factory: Optional[TransportFactory]):
    # The transport is built eagerly so a missing API key fails the command
    # up front instead of surfacing as per-section generation errors mid-run.
    gateway = cfg.gateway_for(profile)
    return gateway, factory(profile, gateway) if factory else HttpTransport(gateway)


_DRY_RUN_GATEWAY = GatewayConfig(
    base_url="https://dry-run.invalid", api_key_env="CONVOFORGE_DRY_RUN_UNUSED"
)


def cmd_synth(args, transport_factory: Optional[TransportFactory]) -> int:
    cfg = load_run_config(args.config)
    if args.limit is not None and args.limit < 0:
        raise ConfigError(f"--limit must be >= 0, got {args.limit}")
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
        chat_gateway, chat_transport = _connect(cfg, cfg.run.generation_profile, transport_factory)
        embed_gateway, embed_transport = _connect(cfg, cfg.run.embedding_profile, transport_factory)

    # A signal only requests a stop, taken where the log and index agree, and
    # SIG_DFL lets a second one kill at once. Only the main thread sets handlers.
    stop, received, previous = threading.Event(), [], {}

    def request_stop(signum, frame):
        signal.signal(signum, signal.SIG_DFL)
        received.append(signum)
        stop.set()

    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            if signal.getsignal(signum) is not signal.SIG_IGN:
                previous[signum] = signal.signal(signum, request_stop)
    try:
        manifest = run_pipeline(
            cfg.pipeline,
            records,
            chat=_chat_fn(chat_gateway, cfg.pipeline.generation_model,
                          cfg.pipeline.max_output_tokens, chat_transport),
            embed=_embed_fn(embed_gateway, cfg.pipeline.embedding_model, embed_transport),
            out_dir=out_dir,
            resume=args.resume,
            limit=args.limit,
            qa_template=cfg.prompts.qa_generation,
            simplify_template=cfg.prompts.simplify,
            stopped=stop.is_set,
        )
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        if received:  # end as the signal's own action ends: a SIGINT as a KeyboardInterrupt
            signal.raise_signal(received[0])
    for outcome, count in sorted(manifest["counts"].items()):
        print(f"{outcome}: {count}")
    print(f"samples: {manifest['sample_count']}")
    if manifest["shortfall"]:
        print("warning: corpus exhausted before the sample target; dataset is partial")
    print(f"artifacts: {out_dir}")
    return EXIT_OK


def cmd_eval(args, transport_factory: Optional[TransportFactory]) -> int:
    cfg = load_run_config(args.config)
    threshold = cfg.eval.threshold if args.threshold is None else args.threshold
    try:  # an override obeys the rule for eval.threshold
        evaluation = replace(cfg.eval, threshold=threshold)
    except ValueError as exc:
        raise ConfigError(f"--threshold: {exc}") from exc
    validation_path = args.validation or cfg.paths.validation
    if not validation_path:
        raise ConfigError(f"{args.config}: paths.validation is required for eval")
    samples = load_samples(validation_path)
    if not samples:
        raise ValueError(f"validation file {validation_path} is empty")

    specs = {spec.label: spec for spec in evaluation.models}
    if args.models:
        missing = [label for label in args.models if label not in specs]
        if missing:
            raise ConfigError(f"labels not in config: {', '.join(missing)}")
        repeated = sorted({label for label in args.models if args.models.count(label) > 1})
        if repeated:
            raise ConfigError(f"--model labels must be unique, repeated: {', '.join(repeated)}")
        selected = [specs[label] for label in args.models]
    else:
        selected = list(evaluation.models)
    if not selected:
        raise ConfigError(f"{args.config}: eval.models defines no models")

    embed = None
    if args.similarity:
        embed_gateway, embed_transport = _connect(cfg, cfg.run.embedding_profile, transport_factory)
        embed = _embed_fn(embed_gateway, cfg.pipeline.embedding_model, embed_transport)
    models = []
    for spec in selected:  # every transport first, so a missing key fails before any call
        gateway, transport = _connect(cfg, spec.profile, transport_factory)
        models.append((spec.system_prompt,
                       _chat_fn(gateway, spec.model, spec.max_output_tokens, transport)))

    reports = []
    all_responses = generate_responses(models, samples, cfg.pipeline.concurrency_limit)
    for spec, responses in zip(selected, all_responses, strict=True):
        report = build_report(
            spec.label, samples, responses, evaluation.threshold,
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
    samples = load_samples(dataset)
    valid_sizes = sorted(cfg.pipeline.subset_sizes)
    if args.size not in cfg.pipeline.subset_sizes:
        raise ValueError(f"unknown subset size {args.size}; valid sizes: {valid_sizes}")
    try:
        system_prompt = prompts.preset(args.prompt)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from exc
    splits = split_dataset(samples, cfg.pipeline)
    out = Path(args.out) if args.out else Path(cfg.paths.output_dir) / f"finetune-{args.size}.jsonl"
    validation = out.parent / VALIDATION_FILENAME
    if out.name in (VALIDATION_FILENAME, VALIDATION_FILENAME + runlog.TMP_SUFFIX, *RUN_FILENAMES):
        raise ValueError(f"--out {out}: export writes no file named {out.name}, since it would "
                         "overwrite a synth run's file or would be overwritten by the validation split")
    if Path(dataset).resolve() in (out.resolve(), validation.resolve()):
        raise ValueError(f"--out {out}: export would overwrite the dataset {dataset}")
    # Nested: the pair keeps validation apart from training, so a failed write leaves both.
    with runlog.write_atomic(validation) as fh:
        fh.writelines(runlog.encode(asdict(s)) for s in splits.validation)
        count = export_finetune_file(splits.subsets[args.size], system_prompt, out)
    print(f"wrote {count} records to {out}")
    print(f"wrote {len(splits.validation)} validation records to {validation}")
    return EXIT_OK


def cmd_dedup_check(args) -> int:
    pipeline_config = PipelineConfig()
    index_path = args.index
    if args.config:
        cfg = load_run_config(args.config)
        pipeline_config = cfg.pipeline
        if index_path is None:
            index_path = str(Path(cfg.paths.output_dir) / INDEX_FILENAME)
    if args.threshold is not None:
        try:  # an override obeys the rule for pipeline.dedup_threshold
            pipeline_config = replace(pipeline_config, dedup_threshold=args.threshold)
        except ValueError as exc:
            raise ConfigError(f"--threshold: {exc}") from exc
    if index_path is None:
        raise ValueError("--index is required when no --config is given")
    threshold = pipeline_config.dedup_threshold
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
    except ValueError as exc:  # UnscorableTextError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (NetworkError, AuthenticationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except (GatewayError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
