"""Client for OpenAI-compatible chat-completion and embedding endpoints.

One wire protocol covers every backend we talk to: POST
{base_url}/chat/completions and POST {base_url}/embeddings with a
bearer token pulled from the environment. Transient failures (429 and
5xx) are retried with exponential backoff and jitter; auth failures are
not. A transcript-driven transport stands in for the network in tests.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, Sequence

import requests

from .dedup import EmbeddingVector

ROLES = ("system", "user", "assistant")

CHAT_PATH = "/chat/completions"
EMBEDDINGS_PATH = "/embeddings"

# Retries multiply backoff_base by powers of two; 8 caps the series at
# 255x the base so a misconfigured client cannot stall for hours.
MAX_RETRY_LIMIT = 8

_JITTER_FRACTION = 0.25


class GatewayError(Exception):
    """Base class for everything the gateway can raise."""


class MissingApiKeyError(GatewayError):
    """The configured API-key environment variable is not set."""


class AuthenticationError(GatewayError):
    """401/403 from the endpoint; retrying cannot help."""


class NetworkError(GatewayError):
    """Connection failures, timeouts, and exhausted 429/5xx retries."""


class ProtocolError(GatewayError):
    """The endpoint answered, but not in the shape we require."""


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}, expected one of {ROLES}")
        # Empty system or user content would silently weaken the prompt.
        if self.role in ("system", "user") and not self.content:
            raise ValueError(f"{self.role} message content must be non-empty")


@dataclass(frozen=True)
class CompletionRequest:
    model_id: str
    messages: tuple[ChatMessage, ...]
    temperature: float = 0.0
    max_output_tokens: int = 1024

    def __post_init__(self):
        if not self.model_id:
            raise ValueError("model_id must be non-empty")
        object.__setattr__(self, "messages", tuple(self.messages))
        if not self.messages:
            raise ValueError("messages must be non-empty")
        for i, msg in enumerate(self.messages):
            if msg.role == "system" and i != 0:
                raise ValueError("a system message may only appear first")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be positive")

    def to_payload(self) -> dict:
        return {
            "model": self.model_id,
            "messages": [{"role": m.role, "content": m.content} for m in self.messages],
            "temperature": self.temperature,
            "max_tokens": self.max_output_tokens,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CompletionRequest":
        return cls(
            model_id=payload["model"],
            messages=tuple(
                ChatMessage(m["role"], m["content"]) for m in payload["messages"]
            ),
            temperature=payload["temperature"],
            max_output_tokens=payload["max_tokens"],
        )


@dataclass(frozen=True)
class GatewayConfig:
    base_url: str
    api_key_env_name: str
    request_timeout: float = 60.0
    max_retries: int = 4
    backoff_base: float = 0.5

    def __post_init__(self):
        if not self.base_url:
            raise ValueError("base_url must be non-empty")
        if not self.api_key_env_name:
            raise ValueError("api_key_env_name must be non-empty")
        if not 0 <= self.max_retries <= MAX_RETRY_LIMIT:
            raise ValueError(f"max_retries must be in [0, {MAX_RETRY_LIMIT}]")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")


@dataclass(frozen=True)
class ChatCompletion:
    content: str
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass
class TransportResponse:
    status: int
    body: object


class Transport(Protocol):
    def post(self, path: str, payload: dict) -> TransportResponse: ...


def resolve_api_key(config: GatewayConfig) -> str:
    key = os.environ.get(config.api_key_env_name)
    if not key:
        raise MissingApiKeyError(
            f"environment variable {config.api_key_env_name} is not set; "
            f"export it with the API key for {config.base_url}"
        )
    return key


class HttpTransport:
    """requests-backed transport; resolves the API key at construction."""

    def __init__(self, config: GatewayConfig):
        self._config = config
        self._session = requests.Session()
        self._session.headers["Authorization"] = f"Bearer {resolve_api_key(config)}"
        self._session.headers["Content-Type"] = "application/json"

    def post(self, path: str, payload: dict) -> TransportResponse:
        url = self._config.base_url.rstrip("/") + path
        try:
            resp = self._session.post(
                url, json=payload, timeout=self._config.request_timeout
            )
        except requests.RequestException as exc:
            raise NetworkError(f"request to {url} failed: {exc}") from exc
        try:
            body = resp.json()
        except ValueError:
            body = resp.text
        return TransportResponse(status=resp.status_code, body=body)


class TranscriptTransport:
    """Replays an ordered list of {status, body, delay} steps.

    The canned-response format used by every offline test: each post()
    consumes the next step in order, optionally sleeping `delay`
    seconds to simulate latency. Issued requests are recorded for
    assertions.
    """

    def __init__(self, steps: Sequence[dict]):
        self._steps = list(steps)
        self._cursor = 0
        self._lock = threading.Lock()
        self.requests: list[tuple[str, dict]] = []

    @classmethod
    def from_file(cls, path) -> "TranscriptTransport":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def post(self, path: str, payload: dict) -> TransportResponse:
        with self._lock:
            self.requests.append((path, payload))
            if self._cursor >= len(self._steps):
                raise ProtocolError("transcript exhausted: no response scripted for this request")
            step = self._steps[self._cursor]
            self._cursor += 1
        delay = step.get("delay", 0)
        if delay:
            time.sleep(delay)
        return TransportResponse(status=step["status"], body=step["body"])

    @property
    def consumed(self) -> int:
        return self._cursor


def _excerpt(body: object, limit: int = 200) -> str:
    text = body if isinstance(body, str) else json.dumps(body, ensure_ascii=False)
    return text[:limit]


def backoff_delay(config: GatewayConfig, retry_number: int, rng: Callable[[], float]) -> float:
    """Delay before retry `retry_number` (1-based), jittered upward."""
    return config.backoff_base * (2 ** (retry_number - 1)) * (1 + _JITTER_FRACTION * rng())


def max_total_backoff(config: GatewayConfig) -> float:
    """Upper bound on the summed sleep across a full retry series."""
    series = sum(2 ** (n - 1) for n in range(1, config.max_retries + 1))
    return config.backoff_base * series * (1 + _JITTER_FRACTION)


def _send_with_retry(
    config: GatewayConfig,
    transport: Transport,
    path: str,
    payload: dict,
    sleep: Callable[[float], None] = time.sleep,
    rng: Callable[[], float] = random.random,
) -> TransportResponse:
    last_error: Optional[GatewayError] = None
    for attempt in range(config.max_retries + 1):
        if attempt:
            sleep(backoff_delay(config, attempt, rng))
        try:
            response = transport.post(path, payload)
        except NetworkError as exc:
            last_error = exc
            continue
        if response.status == 200:
            return response
        if response.status in (401, 403):
            raise AuthenticationError(
                f"HTTP {response.status} from {path}: {_excerpt(response.body)}"
            )
        if response.status == 429 or response.status >= 500:
            last_error = NetworkError(
                f"HTTP {response.status} from {path}: {_excerpt(response.body)}"
            )
            continue
        raise ProtocolError(f"HTTP {response.status} from {path}: {_excerpt(response.body)}")
    assert last_error is not None
    raise last_error


def complete_chat(
    config: GatewayConfig,
    request: CompletionRequest,
    transport: Optional[Transport] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> ChatCompletion:
    """Send one chat request and return the first choice's text.

    Retries transient failures per `config`; the returned content is the
    assistant message verbatim, with token usage when the endpoint
    reports it.
    """
    if transport is None:
        transport = HttpTransport(config)
    response = _send_with_retry(config, transport, CHAT_PATH, request.to_payload(), sleep)
    body = response.body
    try:
        content = body["choices"][0]["message"]["content"]
        usage = body.get("usage") or {}
        completion = ChatCompletion(
            content=content,
            prompt_tokens=int(usage.get("prompt_tokens", 0)),
            completion_tokens=int(usage.get("completion_tokens", 0)),
        )
    except (TypeError, KeyError, IndexError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed completion body: {_excerpt(body)}") from exc
    if not isinstance(completion.content, str):
        raise ProtocolError(f"completion content is not text: {_excerpt(body)}")
    if completion.prompt_tokens < 0 or completion.completion_tokens < 0:
        raise ProtocolError("negative token usage in response")
    return completion


def embed_texts(
    config: GatewayConfig,
    model_id: str,
    texts: Sequence[str],
    transport: Optional[Transport] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> list[EmbeddingVector]:
    """Embed `texts`, preserving order; one vector per input."""
    if not texts:
        raise ValueError("texts must be non-empty")
    if any(not t for t in texts):
        raise ValueError("every text to embed must be non-empty")
    if transport is None:
        transport = HttpTransport(config)
    payload = {"model": model_id, "input": list(texts)}
    response = _send_with_retry(config, transport, EMBEDDINGS_PATH, payload, sleep)
    body = response.body
    try:
        rows = sorted(body["data"], key=lambda row: row["index"])
        vectors = [EmbeddingVector.from_iterable(row["embedding"]) for row in rows]
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed embeddings body: {_excerpt(body)}") from exc
    if len(vectors) != len(texts):
        raise ProtocolError(
            f"embedding count mismatch: sent {len(texts)} texts, got {len(vectors)} vectors"
        )
    if [row["index"] for row in rows] != list(range(len(texts))):
        raise ProtocolError(f"embedding indices do not match inputs: {_excerpt(body)}")
    dims = {v.dimension for v in vectors}
    if len(dims) > 1:
        raise ProtocolError(f"mixed embedding dimensions in one batch: {sorted(dims)}")
    return vectors
