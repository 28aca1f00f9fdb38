"""Seeded input generation for every workload.

Everything the program reads is written here, from the seed alone, before
any timed process starts: the synthesis corpus, the run configs, the eval
validation set with the endpoint's canned responses, and the dedup index
snapshot. Each generator returns a spec dict with the paths it wrote and
the values the output checks expect.
"""

from __future__ import annotations

import importlib.util
import json
import random
import re
from pathlib import Path

import numpy as np

EMBEDDING_DIM = 1536
DEDUP_THRESHOLD = 0.8
EVAL_THRESHOLD = 60.0

# Sections or validation records per repetition. Each repetition takes a
# few seconds, so a run holds several and reports their median: on a small
# shared machine that is steadier than one long repetition.
SIZES = {"synth-cpu": 1000, "synth-latency": 400, "eval-replay": 500}
# Entries of the planted snapshot that synth-cpu's dedup-check scans. The
# scan is single-threaded and quadratic; at 100 entries it is about a
# seventh of a synth-cpu repetition.
SNAPSHOT_ENTRIES = 100

# Section-kind shares, after tests/data/corpus_50.jsonl (41 ok, 4 hard,
# 2 dup, 3 err out of 50).
SECTION_MIX = (("ok", 0.84), ("hard", 0.07), ("dup", 0.04), ("err", 0.05))

# Chat and embedding latency per workload, in ms. Lognormal with the given
# mean and log-space sigma; sigma 0 is a fixed delay. The means and sigmas
# are placeholders with no published measurement behind them: they set a
# latency-bound regime with some spread, not the dispersion of any hosted
# endpoint, so synth-latency's head-of-line blocking in the ordered window
# is only as realistic as these values.
LATENCY = {
    "synth-cpu": {"chat": (0.0, 0.0), "embed": (0.0, 0.0)},
    "synth-latency": {"chat": (20.0, 0.5), "embed": (5.0, 0.3)},
    "eval-replay": {"chat": (2.0, 0.0), "embed": (0.0, 0.0)},
}

EVAL_MODELS = (
    # label, model id, prompt preset, share of conversational responses
    # (oracle score >= 60), sentences per response (min, max). The shares
    # are the paper's GPT-4o-mini base and fine-tuned percentages, 29.4 and
    # 97.8, as replayed in tests/test_acceptance.py (criterion 6). The
    # sentence counts are a benchmark choice, not a published figure: the
    # base model answers at length, the fine-tuned one briefly.
    ("base", "bench-base", "verbose-base", 0.294, (4, 7)),
    ("finetuned", "bench-finetuned", "concise-finetune", 0.978, (2, 3)),
)
# Oracle margins around the 60 threshold. The production scorer agrees with
# the oracle to +-2 on the fixture corpus; the margin keeps every planted
# response far from the boundary, so its class is known without the
# program's scorer.
PLAIN_MIN_SCORE = 75.0
STIFF_MAX_SCORE = 45.0

# Cosine of each planted near-duplicate pair; everything else is a random
# 1,536-dim direction, whose pairwise cosines stay near 0.
PLANTED_COSINES = (0.83, 0.86, 0.9, 0.93, 0.96, 0.99)

_GATEWAY_BLOCK = """\
gateways:
  bench:
    base_url: http://perfbench.invalid/v1
    api_key_env: PERFBENCH_UNUSED_API_KEY
run:
  generation_profile: bench
  embedding_profile: bench
"""


def _load_readability_docs(root: Path) -> list[dict]:
    path = root / "tests" / "data" / "readability_corpus.jsonl"
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _load_oracle(root: Path):
    path = root / "tests" / "readability_oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_readability_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+(?=[A-Z\"“(])")


def _sentences(text: str) -> list[str]:
    return [s for s in _SENTENCE_SPLIT.split(text) if s]


# ---------------------------------------------------------------------------
# synth-cpu, synth-latency
# ---------------------------------------------------------------------------

def section_counts(n_sections: int) -> dict[str, int]:
    counts = {kind: int(round(n_sections * share)) for kind, share in SECTION_MIX}
    counts["ok"] += n_sections - sum(counts.values())
    return counts


def predicted_outcomes(kinds: dict[str, int]) -> dict[str, int]:
    """What the simulator's id conventions imply for each outcome."""
    return {
        "accepted": kinds["ok"] + min(kinds["dup"], 1),
        "discarded_readability": kinds["hard"],
        "rejected_duplicate": max(kinds["dup"] - 1, 0),
        "generation_error": kinds["err"],
    }


def make_synth(root: Path, work: Path, seed: int, workload: str, n_sections: int,
               concurrency: int, export: bool) -> dict:
    rng = random.Random(seed)
    kinds = section_counts(n_sections)
    ids = [f"sec-{kind}-{i:04d}" for kind, n in kinds.items() for i in range(1, n + 1)]
    rng.shuffle(ids)
    filler = [s for doc in _load_readability_docs(root) for s in _sentences(doc["text"])]
    corpus = work / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for sid in ids:
            body = [f"Section {sid}."]
            while sum(len(s) + 1 for s in body) < 760:
                body.append(rng.choice(filler))
            fh.write(json.dumps({"id": sid, "text": " ".join(body)}) + "\n")

    predicted = predicted_outcomes(kinds)
    accepted = predicted["accepted"]
    # Validation plus the largest subset must fit in the accepted samples.
    validation_size = max(accepted // 8, 1)
    largest = (accepted - validation_size) // 10 * 10
    subset_sizes = [largest // 2, largest]
    config = work / "config.yaml"
    config.write_text(
        "pipeline:\n"
        "  generation_model: bench-chat\n"
        f"  dedup_threshold: {DEDUP_THRESHOLD}\n"
        "  embedding_model: bench-embed-1536\n"
        f"  target_samples: {max(10000, n_sections + 1)}\n"
        f"  validation_size: {validation_size}\n"
        f"  subset_sizes: {subset_sizes}\n"
        f"  concurrency_limit: {concurrency}\n"
        f"  random_seed: {seed}\n"
        + _GATEWAY_BLOCK
        + "paths:\n"
        f"  corpus: {json.dumps(str(corpus))}\n"
        f"  output_dir: {json.dumps(str(work / 'unused-out'))}\n",
        encoding="utf-8",
    )
    commands = [["synth", "--config", str(config), "--out", "{rep}/out"]]
    if export:
        commands.append([
            "export", "--config", str(config), "--dataset", "{rep}/out/samples.jsonl",
            "--size", str(largest), "--out", "{rep}/finetune.jsonl",
        ])
    return {
        "workload": workload,
        "kind": "synth",
        "config": str(config),
        "commands": commands,
        "layer_entry": "run_pipeline",
        "items": n_sections,
        "concurrency_limit": concurrency,
        "section_kinds": kinds,
        "predicted": predicted,
        "export_size": largest if export else None,
        "accept_threshold": 75.0,
        "input_sizes": {"sections": n_sections, "embedding_dim": EMBEDDING_DIM},
    }


# ---------------------------------------------------------------------------
# eval-replay
# ---------------------------------------------------------------------------

def response_pool(root: Path) -> dict[str, list[tuple[str, int]]]:
    """Runs of consecutive fixture sentences, classed by oracle score.

    Returns {"plain": [...], "stiff": [...]} of (text, sentence_count);
    windows between the two margins are left out.
    """
    oracle = _load_oracle(root)
    lexicon = oracle.load_lexicon()
    pool: dict[str, list[tuple[str, int]]] = {"plain": [], "stiff": []}
    for doc in _load_readability_docs(root):
        sentences = _sentences(doc["text"])
        for size in range(2, 8):
            for start in range(0, len(sentences) - size + 1):
                text = " ".join(sentences[start:start + size])
                score = oracle.flesch_reading_ease(text, lexicon)
                if score >= PLAIN_MIN_SCORE:
                    pool["plain"].append((text, size))
                elif score <= STIFF_MAX_SCORE:
                    pool["stiff"].append((text, size))
    return pool


def make_eval(root: Path, work: Path, seed: int, n_records: int) -> dict:
    rng = random.Random(seed)
    pool = response_pool(root)
    plain_short = [t for t, n in pool["plain"] if n <= 3]
    validation = work / "validation.jsonl"
    questions = []
    with open(validation, "w", encoding="utf-8") as fh:
        for i in range(1, n_records + 1):
            question = f"Could you tell me about topic {i:04d} in record {rng.randrange(10**6):06d}?"
            questions.append(question)
            expected = rng.choice(plain_short)
            fh.write(json.dumps({
                "sample_id": f"val-{i:04d}",
                "question": question,
                "answer_original": expected,
                "answer_simplified": expected,
                "flesch_score": 80.0,
                "attempts_used": 1,
                "section_id": f"sec-val-{i:04d}",
            }) + "\n")

    responses: dict[str, dict[str, str]] = {}
    planted, planted_ids = {}, {}
    model_yaml = []
    for label, model_id, preset, share, (lo, hi) in EVAL_MODELS:
        n_conv = round(share * n_records)
        conversational = set(rng.sample(range(n_records), n_conv))
        by_class = {
            cls: [t for t, n in pool[cls] if lo <= n <= hi] for cls in ("plain", "stiff")
        }
        responses[model_id] = {
            q: rng.choice(by_class["plain" if i in conversational else "stiff"])
            for i, q in enumerate(questions)
        }
        planted[label] = round(100.0 * n_conv / n_records, 1)
        planted_ids[label] = sorted(f"val-{i + 1:04d}" for i in conversational)
        model_yaml.append(
            f"    - label: {label}\n"
            f"      profile: bench\n"
            f"      model: {model_id}\n"
            f"      system_prompt_preset: {preset}\n"
        )
    responses_path = work / "responses.json"
    responses_path.write_text(json.dumps(responses), encoding="utf-8")

    config = work / "config.yaml"
    config.write_text(
        "pipeline:\n"
        "  embedding_model: bench-embed-1536\n"
        + _GATEWAY_BLOCK
        + "eval:\n"
        f"  threshold: {EVAL_THRESHOLD}\n"
        "  models:\n" + "".join(model_yaml)
        + "paths:\n"
        f"  validation: {json.dumps(str(validation))}\n"
        f"  output_dir: {json.dumps(str(work / 'unused-out'))}\n",
        encoding="utf-8",
    )
    return {
        "workload": "eval-replay",
        "kind": "eval",
        "commands": [["eval", "--config", str(config), "--similarity", "--out", "{rep}/eval"]],
        "layer_entry": "generate_responses",
        "items": n_records * len(EVAL_MODELS),
        "concurrency_limit": 8,
        "responses": str(responses_path),
        "planted_pct": planted,
        "planted_conversational": planted_ids,
        "validation_size": n_records,
        "input_sizes": {
            "records": n_records, "models": len(EVAL_MODELS),
            "embedding_dim": EMBEDDING_DIM,
        },
    }


# ---------------------------------------------------------------------------
# synth-cpu's dedup-check snapshot
# ---------------------------------------------------------------------------

def make_snapshot(work: Path, seed: int, n_entries: int) -> tuple[Path, list[list[str]]]:
    """Write an index snapshot with planted near-duplicate pairs.

    Returns the snapshot path and the planted pairs, each sorted.
    """
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n_entries, EMBEDDING_DIM))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    ids = [f"q-{i:04d}" for i in range(n_entries)]
    chosen = rng.choice(n_entries, size=2 * len(PLANTED_COSINES), replace=False)
    planted = []
    for k, cos in enumerate(PLANTED_COSINES):
        a, b = int(chosen[2 * k]), int(chosen[2 * k + 1])
        # Component of noise orthogonal to a, mixed in to hit the cosine.
        noise = rng.standard_normal(EMBEDDING_DIM)
        noise -= noise.dot(vectors[a]) * vectors[a]
        noise /= np.linalg.norm(noise)
        vectors[b] = cos * vectors[a] + np.sqrt(1 - cos * cos) * noise
        planted.append(sorted((ids[a], ids[b])))
    snapshot = work / "snapshot.tsv"
    with open(snapshot, "w", encoding="utf-8") as fh:
        for sample_id, row in zip(ids, vectors.tolist()):
            fh.write(sample_id + "\t" + " ".join(repr(v) for v in row) + "\n")
    return snapshot, sorted(planted)


def make_inputs(root: Path, work: Path, workload: str, seed: int, scale: float = 1.0) -> dict:
    """Write the inputs of one workload under `work`; `scale` shrinks them for self-tests."""
    work.mkdir(parents=True, exist_ok=True)
    size = int(SIZES[workload] * scale)
    if workload == "synth-cpu":
        spec = make_synth(root, work, seed, workload, size, 2, export=True)
        snapshot, planted = make_snapshot(work, seed, SNAPSHOT_ENTRIES)
        spec["commands"].append(["dedup-check", "--config", spec["config"],
                                 "--index", str(snapshot)])
        spec["planted_pairs"] = planted
        spec["input_sizes"].update(snapshot_entries=SNAPSHOT_ENTRIES,
                                   planted_pairs=len(planted))
    elif workload == "synth-latency":
        spec = make_synth(root, work, seed, workload, size, 8, export=False)
    else:
        spec = make_eval(root, work, seed, size)
    # dedup-check exits 1 when it finds violating pairs, as planted.
    spec["expected_exit"] = [1 if c[0] == "dedup-check" else 0 for c in spec["commands"]]
    spec["seed"] = seed
    spec["embedding_dim"] = EMBEDDING_DIM
    spec["latency_ms"] = {
        path: {"mean": mean, "log_sigma": sigma, "dist": "lognormal" if sigma else "fixed"}
        for path, (mean, sigma) in LATENCY[workload].items()
    }
    return spec
