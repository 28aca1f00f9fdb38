"""The benchmark's model endpoint; not part of the program under test.

It answers the program's transport calls the way a hosted model would:
pipeline chat traffic goes to the package's offline simulator, embeddings
are 1,536-dim (the size text-embedding-3-small returns) instead of the
simulator's 64, eval chat traffic is served from the seeded response
table, and every call can sleep for a seeded latency. Each latency is
drawn from a hash of the request, so the draws do not depend on which
pool thread sends which request first.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np

from convoforge.gateway import CHAT_PATH, EMBEDDINGS_PATH, TransportResponse
from convoforge.simulate import SimulatedModelTransport


def text_embedding(text: str, dim: int) -> list[float]:
    """Unit vector seeded by the text's hash; equal text, equal vector."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    vec = np.random.default_rng(int.from_bytes(digest[:8], "big")).standard_normal(dim)
    return (vec / np.linalg.norm(vec)).tolist()


class Latency:
    """Lognormal delay with a given mean (ms) and log-space sigma."""

    def __init__(self, seed: int, mean_ms: float, log_sigma: float):
        self._seed = seed.to_bytes(8, "big")
        self._mean_s = mean_ms / 1000.0
        self._sigma = log_sigma
        self._mu = math.log(self._mean_s) - log_sigma * log_sigma / 2 if mean_ms > 0 else 0.0

    def delay(self, key: str) -> float:
        if self._mean_s <= 0:
            return 0.0
        if self._sigma == 0:
            return self._mean_s
        digest = hashlib.blake2b(key.encode("utf-8"), key=self._seed, digest_size=16).digest()
        u1 = (int.from_bytes(digest[:8], "big") + 1) / 2.0**64
        u2 = int.from_bytes(digest[8:], "big") / 2.0**64
        normal = math.sqrt(-2.0 * math.log(u1)) * math.cos(2 * math.pi * u2)
        return math.exp(self._mu + self._sigma * normal)


def _sleep(seconds: float) -> None:
    if seconds > 0:
        time.sleep(seconds)


class BenchEndpoint:
    """Transport for every profile of a run; see the module docstring."""

    def __init__(self, seed: int, latency_ms: dict, embedding_dim: int,
                 responses: dict | None = None, tracer=None):
        self._sim = SimulatedModelTransport()
        self._chat = Latency(seed, latency_ms["chat"]["mean"], latency_ms["chat"]["log_sigma"])
        self._embed = Latency(seed + 1, latency_ms["embed"]["mean"],
                              latency_ms["embed"]["log_sigma"])
        self._dim = embedding_dim
        self._responses = responses or {}
        self._tracer = tracer

    def post(self, path: str, payload: dict) -> TransportResponse:
        if self._tracer is None:
            return self._serve(path, payload)
        with self._tracer.span("endpoint.post"):
            return self._serve(path, payload)

    def _serve(self, path: str, payload: dict) -> TransportResponse:
        if path == EMBEDDINGS_PATH:
            texts = payload["input"]
            _sleep(self._embed.delay(payload["model"] + "\x00" + "\x00".join(texts)))
            data = [{"index": i, "embedding": text_embedding(t, self._dim)}
                    for i, t in enumerate(texts)]
            return TransportResponse(200, {"data": data, "model": payload["model"]})
        if path == CHAT_PATH:
            messages = payload["messages"]
            _sleep(self._chat.delay(payload["model"] + "\x00" + messages[-1]["content"]))
            table = self._responses.get(payload["model"])
            if table is not None:
                content = table[messages[-1]["content"]]
                return TransportResponse(200, {
                    "choices": [{"message": {"role": "assistant", "content": content}}],
                    "usage": {"prompt_tokens": 30, "completion_tokens": len(content) // 4},
                })
        return self._sim.post(path, payload)
