"""Endpoint client: retries, auth handling, serialization."""

import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ScriptedTransport
from convoforge.gateway import (
    CHAT_PATH,
    EMBEDDINGS_PATH,
    AuthenticationError,
    GatewayConfig,
    HttpTransport,
    MissingApiKeyError,
    NetworkError,
    ProtocolError,
    backoff_delay,
    complete_chat,
    embed_texts,
    resolve_api_key,
)

CONFIG = GatewayConfig(
    base_url="https://api.test.invalid/v1",
    api_key_env="GW_TEST_KEY",
    backoff_base=0.001,
)

NO_SLEEP = lambda seconds: None  # noqa: E731


def chat_body(content="pong", prompt_tokens=3, completion_tokens=5):
    return {
        "choices": [{"message": {"role": "assistant", "content": content}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


def chat_once(config, transport, **kwargs):
    messages = [{"role": "user", "content": "ping"}]
    return complete_chat(config, "test-model", messages, 0.7, 64, transport, **kwargs)


class TestCompleteChat:
    def test_happy_path_returns_first_choice(self):
        transport = ScriptedTransport([{"status": 200, "body": chat_body("ping")}])
        completion = chat_once(CONFIG, transport)
        assert completion.content == "ping"
        assert completion.prompt_tokens == 3
        assert completion.completion_tokens == 5
        path, payload = transport.requests[0]
        assert path == CHAT_PATH
        assert payload["model"] == "test-model"
        assert payload["temperature"] == 0.7
        assert payload["max_tokens"] == 64
        assert payload["messages"] == [{"role": "user", "content": "ping"}]

    def test_rate_limited_twice_then_succeeds(self):
        transport = ScriptedTransport([
            {"status": 429, "body": "slow down"},
            {"status": 429, "body": "slow down"},
            {"status": 200, "body": chat_body("finally")},
        ])
        sleeps = []
        completion = chat_once(CONFIG, transport, sleep=sleeps.append)
        assert completion.content == "finally"
        assert len(transport.requests) == 3
        assert len(sleeps) == 2

    def test_server_errors_exhaust_retries(self):
        config = GatewayConfig(
            base_url=CONFIG.base_url, api_key_env=CONFIG.api_key_env,
            max_retries=1, backoff_base=0.001,
        )
        transport = ScriptedTransport([
            {"status": 503, "body": "down"},
            {"status": 503, "body": "still down"},
        ])
        with pytest.raises(NetworkError, match="503"):
            chat_once(config, transport, sleep=NO_SLEEP)
        assert len(transport.requests) == 2  # initial try + one retry, then give up

    def test_auth_failure_is_not_retried(self):
        transport = ScriptedTransport([{"status": 401, "body": "bad key"}])
        with pytest.raises(AuthenticationError):
            chat_once(CONFIG, transport, sleep=NO_SLEEP)
        assert len(transport.requests) == 1

    def test_client_error_raises_protocol_error(self):
        transport = ScriptedTransport([{"status": 404, "body": "no such route"}])
        with pytest.raises(ProtocolError, match="404"):
            chat_once(CONFIG, transport, sleep=NO_SLEEP)

    @pytest.mark.parametrize("body", [
        {"unexpected": True},
        *({**chat_body(), "usage": usage} for usage in ("n/a", [1], 5)),
    ], ids=["no-choices", "usage-str", "usage-list", "usage-int"])
    def test_malformed_body_raises_with_excerpt(self, body):
        transport = ScriptedTransport([{"status": 200, "body": body}])
        with pytest.raises(ProtocolError, match="malformed completion body"):
            chat_once(CONFIG, transport, sleep=NO_SLEEP)

    @pytest.mark.parametrize("body", [
        "bad \ud800 route é", {"error": "bad \ud800 route é"},
    ], ids=["text", "json"])
    def test_error_message_escapes_what_utf8_cannot_encode(self, body):
        # Such a message can end up in traces.jsonl, which is UTF-8.
        transport = ScriptedTransport([{"status": 400, "body": body}])
        with pytest.raises(ProtocolError) as raised:
            chat_once(CONFIG, transport, sleep=NO_SLEEP)
        message = str(raised.value)
        assert "\\ud800" in message and message.isascii()

    def test_non_text_content_rejected(self):
        body = {"choices": [{"message": {"role": "assistant", "content": None}}]}
        transport = ScriptedTransport([{"status": 200, "body": body}])
        with pytest.raises(ProtocolError):
            chat_once(CONFIG, transport, sleep=NO_SLEEP)

    @given(
        st.lists(
            st.fixed_dictionaries({
                "role": st.sampled_from(["system", "user", "assistant"]),
                "content": st.text(max_size=80),
            }),
            min_size=1,
            max_size=6,
        ),
        st.floats(min_value=0, max_value=2, allow_nan=False),
    )
    def test_payload_carries_every_field(self, messages, temperature):
        transport = ScriptedTransport([{"status": 200, "body": chat_body()}])
        complete_chat(CONFIG, "m", messages, temperature, 32, transport)
        [(path, payload)] = transport.requests
        assert path == CHAT_PATH
        # Key order fixes the bytes a JSON encoder sends.
        assert list(payload.items()) == [
            ("model", "m"), ("messages", messages), ("temperature", temperature),
            ("max_tokens", 32),
        ]


class TestOutOfRangeNumbers:
    # 1e400 loads as inf and an integer of 401 digits overflows float64;
    # either must fail the one call, not escape as OverflowError.
    @pytest.mark.parametrize("call, raw_body", [
        (
            lambda t: chat_once(CONFIG, t, sleep=NO_SLEEP),
            '{"choices": [{"message": {"role": "assistant", "content": "hi"}}],'
            ' "usage": {"prompt_tokens": 1e400}}',
        ),
        (
            lambda t: embed_texts(CONFIG, "emb", ["only"], t, sleep=NO_SLEEP),
            '{"data": [{"index": 0, "embedding": [1' + "0" * 400 + ', 1.0]}]}',
        ),
    ], ids=["chat-usage", "embed-component"])
    def test_overflow_is_a_protocol_error(self, call, raw_body):
        transport = ScriptedTransport([{"status": 200, "body": json.loads(raw_body)}])
        with pytest.raises(ProtocolError, match="malformed"):
            call(transport)


class TestEmbeddings:
    def test_vectors_come_back_in_input_order(self):
        # endpoint may reorder rows; the index field restores input order
        body = {
            "data": [
                {"index": 1, "embedding": [0.0, 1.0]},
                {"index": 0, "embedding": [1.0, 0.0]},
            ],
            "model": "emb",
        }
        transport = ScriptedTransport([{"status": 200, "body": body}])
        matrix = embed_texts(CONFIG, "emb", ["first", "second"], transport)
        assert matrix.shape == (2, 2)
        assert matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        path, payload = transport.requests[0]
        assert path == EMBEDDINGS_PATH
        assert payload == {"model": "emb", "input": ["first", "second"]}

    @pytest.mark.parametrize("indices", [[1, 1], [0, 0], [1, 2]])
    def test_duplicated_or_missing_indices_raise(self, indices):
        body = {
            "data": [
                {"index": index, "embedding": [float(k), 1.0]}
                for k, index in enumerate(indices)
            ],
            "model": "emb",
        }
        transport = ScriptedTransport([{"status": 200, "body": body}])
        with pytest.raises(ProtocolError, match="indices"):
            embed_texts(CONFIG, "emb", ["first", "second"], transport)

    def test_count_mismatch_raises(self):
        body = {"data": [{"index": 0, "embedding": [1.0]}], "model": "emb"}
        transport = ScriptedTransport([{"status": 200, "body": body}])
        with pytest.raises(ProtocolError, match="count mismatch"):
            embed_texts(CONFIG, "emb", ["a", "b"], transport)

    # One list per text. np.array would turn None into nan, a nested list
    # into a 3-D array, a bare number or a string into a 1-D one, and rows of
    # two lengths into no array at all; each must fail the call.
    @pytest.mark.parametrize("embeddings", [
        [[None, 1.0]],
        [None],
        [[[1.0, 0.0]]],
        [1.0],
        ["12"],
        [[]],
        [[float("nan"), 1.0]],
        [[float("inf"), 1.0]],
        [[10**400, 1.0]],
        [[[1.0], [2.0, 3.0]]],
        [[1.0, 0.0], [1.0]],
    ], ids=["none", "bare-none", "nested", "number", "string", "empty", "nan", "inf",
            "huge-int", "ragged", "ragged-rows"])
    def test_malformed_embedding_is_a_protocol_error(self, embeddings):
        body = {"data": [{"index": k, "embedding": e} for k, e in enumerate(embeddings)],
                "model": "emb"}
        transport = ScriptedTransport([{"status": 200, "body": body}])
        texts = [f"text {k}" for k in range(len(embeddings))]
        with pytest.raises(ProtocolError, match="malformed"):
            embed_texts(CONFIG, "emb", texts, transport, sleep=NO_SLEEP)

    def test_returned_vectors_are_read_only_copies(self):
        first, second = [0.6, 0.8], [0.0, 1.0]
        body = {"data": [{"index": 1, "embedding": second}, {"index": 0, "embedding": first}],
                "model": "emb"}
        transport = ScriptedTransport([{"status": 200, "body": body}])
        matrix = embed_texts(CONFIG, "emb", ["a", "b"], transport)
        assert matrix.shape == (2, 2) and matrix.dtype == np.float64
        assert not matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0
        first[0] = 5.0
        second.append(2.0)
        assert matrix.tolist() == [[0.6, 0.8], [0.0, 1.0]]

    def test_empty_input_rejected_without_io(self):
        transport = ScriptedTransport([])
        with pytest.raises(ValueError):
            embed_texts(CONFIG, "emb", [], transport)
        with pytest.raises(ValueError):
            embed_texts(CONFIG, "emb", ["ok", ""], transport)
        assert transport.requests == []


class TestApiKeys:
    def test_missing_env_var_names_the_variable(self, monkeypatch):
        monkeypatch.delenv("GW_TEST_KEY", raising=False)
        with pytest.raises(MissingApiKeyError, match="GW_TEST_KEY"):
            resolve_api_key(CONFIG)

    def test_key_read_from_environment(self, monkeypatch):
        monkeypatch.setenv("GW_TEST_KEY", "sk-test-123")
        assert resolve_api_key(CONFIG) == "sk-test-123"


class _LoopbackHandler(BaseHTTPRequestHandler):
    """Records each POST on the server and answers {base}/chat/completions
    with a chat body, any other path with a plain-text 502."""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        self.server.seen.append((self.path, dict(self.headers), self.rfile.read(length)))
        if self.path.endswith(CHAT_PATH):
            status, content_type, body = 200, "application/json", json.dumps(chat_body()).encode()
        else:
            status, content_type, body = 502, "text/plain", b"upstream down"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _LoopbackHandler)
    server.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture
def live_env(monkeypatch):
    """The key HttpTransport reads, and no proxy between it and 127.0.0.1."""
    monkeypatch.setenv("GW_TEST_KEY", "sk-loop-1")
    monkeypatch.setenv("no_proxy", "127.0.0.1")  # requests reads it before NO_PROXY


def _loopback_config(port):
    return GatewayConfig(
        base_url=f"http://127.0.0.1:{port}/v1", api_key_env="GW_TEST_KEY", request_timeout=5.0,
    )


class TestHttpTransportOverLoopback:
    def test_bearer_header_and_json_payload_arrive(self, live_env, loopback):
        transport = HttpTransport(_loopback_config(loopback.server_port))
        payload = {"model": "m", "messages": [{"role": "user", "content": "héllo"}]}
        transport.post(CHAT_PATH, payload)
        [(path, headers, raw)] = loopback.seen
        assert path == "/v1" + CHAT_PATH
        assert headers["Authorization"] == "Bearer sk-loop-1"
        assert headers["Content-Type"] == "application/json"
        assert json.loads(raw) == payload

    def test_json_reply_parses_into_body(self, live_env, loopback):
        response = HttpTransport(_loopback_config(loopback.server_port)).post(CHAT_PATH, {})
        assert response.status == 200
        assert response.body == chat_body()

    def test_non_json_reply_comes_back_as_text(self, live_env, loopback):
        response = HttpTransport(_loopback_config(loopback.server_port)).post(EMBEDDINGS_PATH, {})
        assert response.status == 502
        assert response.body == "upstream down"

    def test_nothing_listening_is_a_network_error(self, live_env):
        with socket.socket() as probe:  # a port the kernel just handed out and nobody holds
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        transport = HttpTransport(_loopback_config(port))
        with pytest.raises(NetworkError, match=f"127.0.0.1:{port}"):
            transport.post(CHAT_PATH, {})


_IMPORT_PROBE = """
import sys
import convoforge.cli as cli
from convoforge.gateway import GatewayConfig, HttpTransport

assert cli.main(["synth", "--config", "configs/dryrun.yaml", "--dry-run", "--out", sys.argv[1]]) == 0
after_dry_run = "requests" in sys.modules
HttpTransport(GatewayConfig(base_url="http://127.0.0.1:9/v1", api_key_env="GW_TEST_KEY"))
print(after_dry_run, "requests" in sys.modules)
"""


def test_requests_loads_only_with_a_live_transport(tmp_path):
    repo = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(repo / "src"), "GW_TEST_KEY": "sk-probe"}
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "dry")],
        cwd=repo, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False True"


_ORJSON_PROBE = """
import sys
import convoforge.cli as cli
from convoforge.simulate import SimulatedModelTransport

config, eval_config = sys.argv[1:]
sim = lambda profile, gateway: SimulatedModelTransport()
codes = [cli.main(["score", "Go home. Run fast."]),
         cli.main(["export", "--config", config, "--size", "5"]),
         cli.main(["eval", "--config", eval_config, "--similarity"], transport_factory=sim)]
before_dedup_check = "orjson" in sys.modules
codes.append(cli.main(["dedup-check", "--config", config]))
print(codes, before_dedup_check, "orjson" in sys.modules)
"""


def test_orjson_loads_only_where_index_lines_are_spelled_or_read(tmp_path):
    repo = Path(__file__).resolve().parent.parent
    run_dir = tmp_path / "run"
    config = tmp_path / "run.yaml"
    config.write_text(
        "pipeline:\n  validation_size: 10\n  subset_sizes: [5]\n"
        f"paths:\n  corpus: {repo / 'tests' / 'data' / 'corpus_50.jsonl'}\n"
        f"  output_dir: {run_dir}\n", encoding="utf-8")
    eval_config = tmp_path / "eval.yaml"
    eval_config.write_text(
        "gateways:\n  sim:\n    base_url: https://sim.invalid\n    api_key_env: SIM_KEY\n"
        "run:\n  generation_profile: sim\n"
        "eval:\n  models:\n    - label: base\n      profile: sim\n      model: sim-chat\n"
        "      system_prompt_preset: verbose-base\n"
        f"paths:\n  output_dir: {run_dir}\n  validation: {run_dir / 'validation.jsonl'}\n",
        encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    synth = subprocess.run(
        [sys.executable, "-m", "convoforge.cli", "synth", "--config", str(config), "--dry-run"],
        cwd=repo, env=env, capture_output=True, text=True, timeout=120)
    assert synth.returncode == 0, synth.stderr
    result = subprocess.run(
        [sys.executable, "-c", _ORJSON_PROBE, str(config), str(eval_config)],
        cwd=repo, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0, 0, 0] False True"


class TestBackoff:
    def test_retry_budget_is_capped(self):
        with pytest.raises(ValueError, match="max_retries"):
            GatewayConfig(base_url="https://x", api_key_env="K", max_retries=9)

    def test_delay_grows_and_stays_under_bound(self):
        config = GatewayConfig(
            base_url="https://x", api_key_env="K",
            max_retries=3, backoff_base=0.01,
        )
        transport = ScriptedTransport(
            [{"status": 429, "body": "later"}] * 3 + [{"status": 200, "body": chat_body()}]
        )
        sleeps = []
        chat_once(config, transport, sleep=sleeps.append)
        assert len(sleeps) == 3
        assert sleeps == sorted(sleeps)  # jitter never reorders the series
        assert all(s > 0 for s in sleeps)
        # each delay at most its full-jitter value
        assert sum(sleeps) <= sum(backoff_delay(config, n, lambda: 1.0) for n in (1, 2, 3))

    @given(st.integers(min_value=1, max_value=8), st.floats(min_value=0, max_value=1))
    def test_delay_formula_bounds(self, retry_number, jitter):
        config = GatewayConfig(
            base_url="https://x", api_key_env="K", backoff_base=0.5, max_retries=8
        )
        delay = backoff_delay(config, retry_number, lambda: jitter)
        floor = 0.5 * 2 ** (retry_number - 1)
        assert floor <= delay <= floor * 1.25
