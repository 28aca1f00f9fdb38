"""Client for OpenAI-compatible chat-completion and embedding endpoints.

One wire protocol covers every backend we talk to: POST
{base_url}/chat/completions and POST {base_url}/embeddings with a
bearer token pulled from the environment. Transient failures (429 and
5xx) are retried with exponential backoff and jitter; auth failures are
not. Any object with Transport's post method can stand in for the
network: the dry run's simulator, or a scripted double in tests.
`requests` is imported only when an HttpTransport is built, so a command
that talks to no live endpoint never loads the HTTP stack.

A chat call's messages are the wire's {"role", "content"} objects, passed
through unchanged: callers write the roles as literals (a user turn in
synthesis, a system and a user turn in eval), and the model id,
temperature and token cap were checked when the config loaded, so
nothing here checks them again.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import time
from dataclasses import dataclass
from typing import (
    Annotated, Callable, Optional, Protocol, Sequence, Union, get_args, get_origin,
    get_type_hints,
)

import numpy as np

from .dedup import embedding_matrix

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
class Bound:
    """A numeric field's rule, after its help text in its Annotated type: a
    finite number of the field's type in [low, high], or (low, high] if open."""
    low: float
    high: float = math.inf
    open: bool = False

    def __str__(self) -> str:
        if self.high == math.inf:
            return f"{'>' if self.open else '>='} {self.low}"
        return f"in {'(' if self.open else '['}{self.low}, {self.high}]"

    def admits(self, number) -> bool:
        """Whether `number` is in range; nan fails every comparison."""
        above = self.low < number if self.open else self.low <= number
        return above and number <= self.high and number < math.inf


@functools.cache  # evaluating annotations costs more than a check
def field_rules(cls) -> tuple:
    """(name, type, type without Optional, Bound or None) per field of dataclass `cls`."""
    rules = []
    for name, hint in get_type_hints(cls, include_extras=True).items():
        notes = getattr(hint, "__metadata__", ())  # what Annotated[X, ...] adds: help, Bound
        bound = next((note for note in notes if isinstance(note, Bound)), None)
        hint = get_args(hint)[0] if notes else hint
        kind = get_args(hint)[0] if get_origin(hint) is Union else hint  # Optional[X]: X
        rules.append((name, hint, kind, bound))
    return tuple(rules)


def check_fields(obj) -> None:
    """Raise ValueError naming the first field of dataclass `obj` that breaks its
    rule: its Bound, then its type (a bool is not a number), then non-empty text."""
    for name, hint, kind, bound in field_rules(type(obj)):
        value = getattr(obj, name)
        if value is None and kind is not hint:  # an Optional field left unset
            continue
        if bound and not (_has_type(value, kind) and bound.admits(value)):
            raise ValueError(f"{name} must be {bound}, got {value!r}")
        if not _has_type(value, kind):
            raise ValueError(f"{name} must be of type {type_name(hint)}, got {value!r}")
        if kind is str and not value:
            raise ValueError(f"{name} must be non-empty")


def type_name(hint) -> str:
    """`hint` as config errors and the schema write it: int, Optional[str], tuple[int, ...]."""
    return hint.__name__ if isinstance(hint, type) else str(hint).replace("typing.", "")


def _has_type(value, hint) -> bool:
    if get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(_has_type(v, get_args(hint)[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


@dataclass(frozen=True)
class GatewayConfig:
    base_url: Annotated[str, "OpenAI-compatible endpoint root"]
    api_key_env: Annotated[str, "NAME of the environment variable holding the key"]
    request_timeout: Annotated[float, "seconds per request", Bound(0, open=True)] = 60.0
    max_retries: Annotated[int, "retries of a 429 or 5xx", Bound(0, MAX_RETRY_LIMIT)] = 4
    backoff_base: Annotated[float, "seconds before the first retry, doubling", Bound(0)] = 0.5

    def __post_init__(self):
        check_fields(self)


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
    key = os.environ.get(config.api_key_env)
    if not key:
        raise MissingApiKeyError(
            f"environment variable {config.api_key_env} is not set; "
            f"export it with the API key for {config.base_url}"
        )
    return key


class HttpTransport:
    """requests-backed transport; resolves the API key at construction.

    `requests` is imported here, not at module load, so only a command that
    talks to a live endpoint pays for loading it."""

    def __init__(self, config: GatewayConfig):
        import requests

        self._config = config
        self._session = requests.Session()
        self._session.headers["Authorization"] = f"Bearer {resolve_api_key(config)}"
        self._session.headers["Content-Type"] = "application/json"

    def post(self, path: str, payload: dict) -> TransportResponse:
        import requests  # loaded by __init__; a sys.modules lookup

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


def _excerpt(body: object, limit: int = 200) -> str:
    """The start of a reply body, non-ASCII escaped, so a message quoting it
    always encodes (a lone surrogate from a JSON escape included)."""
    text = body if isinstance(body, str) else json.dumps(body)
    return text[:limit].encode("ascii", "backslashreplace").decode("ascii")


def backoff_delay(config: GatewayConfig, retry_number: int, rng: Callable[[], float]) -> float:
    """Delay before retry `retry_number` (1-based), jittered upward."""
    return config.backoff_base * (2 ** (retry_number - 1)) * (1 + _JITTER_FRACTION * rng())


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
    model: str,
    messages: Sequence[dict],
    temperature: float,
    max_tokens: int,
    transport: Transport,
    sleep: Callable[[float], None] = time.sleep,
) -> ChatCompletion:
    """Send one chat request and return the first choice's text.

    `messages` are the wire's {"role", "content"} objects, sent as given.
    Retries transient failures per `config`; the returned content is the
    assistant message verbatim, with token usage when the endpoint
    reports it.
    """
    payload = {"model": model, "messages": list(messages),
               "temperature": temperature, "max_tokens": max_tokens}
    response = _send_with_retry(config, transport, CHAT_PATH, payload, sleep)
    body = response.body
    try:
        content = body["choices"][0]["message"]["content"]
        usage = body.get("usage") or {}
        completion = ChatCompletion(
            content=content,
            prompt_tokens=int(usage.get("prompt_tokens", 0)),
            completion_tokens=int(usage.get("completion_tokens", 0)),
        )
    except (AttributeError, TypeError, KeyError, IndexError, ValueError, OverflowError) as exc:
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
    transport: Transport,
    sleep: Callable[[float], None] = time.sleep,
) -> np.ndarray:
    """Embed `texts` as one read-only float64 (n, d) matrix; row k embeds texts[k]."""
    if not texts:
        raise ValueError("texts must be non-empty")
    if any(not t for t in texts):
        raise ValueError("every text to embed must be non-empty")
    payload = {"model": model_id, "input": list(texts)}
    response = _send_with_retry(config, transport, EMBEDDINGS_PATH, payload, sleep)
    body = response.body
    try:
        rows = sorted(body["data"], key=lambda row: row["index"])
        matrix = embedding_matrix([row["embedding"] for row in rows])
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed embeddings body: {_excerpt(body)}") from exc
    if len(matrix) != len(texts):
        raise ProtocolError(
            f"embedding count mismatch: sent {len(texts)} texts, got {len(matrix)} vectors"
        )
    if [row["index"] for row in rows] != list(range(len(texts))):
        raise ProtocolError(f"embedding indices do not match inputs: {_excerpt(body)}")
    return matrix
