"""Endpoint client: retries, auth handling, serialization, transcripts."""

import json

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

from convoforge.gateway import (
    CHAT_PATH,
    EMBEDDINGS_PATH,
    AuthenticationError,
    ChatMessage,
    CompletionRequest,
    GatewayConfig,
    HttpTransport,
    MissingApiKeyError,
    NetworkError,
    ProtocolError,
    TranscriptTransport,
    backoff_delay,
    complete_chat,
    embed_texts,
    max_total_backoff,
    resolve_api_key,
)

CONFIG = GatewayConfig(
    base_url="https://api.test.invalid/v1",
    api_key_env_name="GW_TEST_KEY",
    backoff_base=0.001,
)

NO_SLEEP = lambda seconds: None  # noqa: E731


def chat_body(content="pong", prompt_tokens=3, completion_tokens=5):
    return {
        "choices": [{"message": {"role": "assistant", "content": content}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


def request_for(text="ping"):
    return CompletionRequest(
        model_id="test-model",
        messages=(ChatMessage("user", text),),
        temperature=0.7,
        max_output_tokens=64,
    )


class TestCompleteChat:
    def test_happy_path_returns_first_choice(self):
        transport = TranscriptTransport([{"status": 200, "body": chat_body("ping")}])
        completion = complete_chat(CONFIG, request_for(), transport)
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
        transport = TranscriptTransport([
            {"status": 429, "body": "slow down"},
            {"status": 429, "body": "slow down"},
            {"status": 200, "body": chat_body("finally")},
        ])
        sleeps = []
        completion = complete_chat(CONFIG, request_for(), transport, sleep=sleeps.append)
        assert completion.content == "finally"
        assert transport.consumed == 3
        assert len(sleeps) == 2

    def test_server_errors_exhaust_retries(self):
        config = GatewayConfig(
            base_url=CONFIG.base_url, api_key_env_name=CONFIG.api_key_env_name,
            max_retries=1, backoff_base=0.001,
        )
        transport = TranscriptTransport([
            {"status": 503, "body": "down"},
            {"status": 503, "body": "still down"},
        ])
        with pytest.raises(NetworkError, match="503"):
            complete_chat(config, request_for(), transport, sleep=NO_SLEEP)
        assert transport.consumed == 2  # initial try + one retry, then give up

    def test_auth_failure_is_not_retried(self):
        transport = TranscriptTransport([{"status": 401, "body": "bad key"}])
        with pytest.raises(AuthenticationError):
            complete_chat(CONFIG, request_for(), transport, sleep=NO_SLEEP)
        assert transport.consumed == 1

    def test_client_error_raises_protocol_error(self):
        transport = TranscriptTransport([{"status": 404, "body": "no such route"}])
        with pytest.raises(ProtocolError, match="404"):
            complete_chat(CONFIG, request_for(), transport, sleep=NO_SLEEP)

    def test_malformed_body_raises_with_excerpt(self):
        transport = TranscriptTransport([{"status": 200, "body": {"unexpected": True}}])
        with pytest.raises(ProtocolError, match="malformed completion body"):
            complete_chat(CONFIG, request_for(), transport, sleep=NO_SLEEP)

    def test_non_text_content_rejected(self):
        body = {"choices": [{"message": {"role": "assistant", "content": None}}]}
        transport = TranscriptTransport([{"status": 200, "body": body}])
        with pytest.raises(ProtocolError):
            complete_chat(CONFIG, request_for(), transport, sleep=NO_SLEEP)


class TestOutOfRangeNumbers:
    # 1e400 loads as inf and an integer of 401 digits overflows float64;
    # either must fail the one call, not escape as OverflowError.
    @pytest.mark.parametrize("call, raw_body", [
        (
            lambda t: complete_chat(CONFIG, request_for(), t, sleep=NO_SLEEP),
            '{"choices": [{"message": {"role": "assistant", "content": "hi"}}],'
            ' "usage": {"prompt_tokens": 1e400}}',
        ),
        (
            lambda t: embed_texts(CONFIG, "emb", ["only"], t, sleep=NO_SLEEP),
            '{"data": [{"index": 0, "embedding": [1' + "0" * 400 + ', 1.0]}]}',
        ),
    ], ids=["chat-usage", "embed-component"])
    def test_overflow_is_a_protocol_error(self, call, raw_body):
        transport = TranscriptTransport([{"status": 200, "body": json.loads(raw_body)}])
        with pytest.raises(ProtocolError, match="malformed"):
            call(transport)


class TestRequestValidation:
    def test_empty_messages_fail_before_any_network_io(self):
        with pytest.raises(ValueError, match="messages"):
            CompletionRequest(model_id="m", messages=())

    def test_empty_user_content_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ChatMessage("user", "")

    def test_assistant_content_may_be_empty(self):
        # prefill turns legitimately start empty
        assert ChatMessage("assistant", "").content == ""

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="role"):
            ChatMessage("tool", "output")

    def test_system_message_only_first(self):
        with pytest.raises(ValueError, match="system"):
            CompletionRequest(
                model_id="m",
                messages=(
                    ChatMessage("user", "hi"),
                    ChatMessage("system", "late instructions"),
                ),
            )

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            CompletionRequest(
                model_id="m", messages=(ChatMessage("user", "hi"),), temperature=-0.1
            )

    @given(
        st.lists(
            st.builds(
                ChatMessage,
                role=st.sampled_from(["user", "assistant"]),
                content=st.text(min_size=1, max_size=80),
            ),
            min_size=1,
            max_size=6,
        ),
        st.floats(min_value=0, max_value=2, allow_nan=False),
    )
    def test_payload_round_trip(self, messages, temperature):
        request = CompletionRequest(
            model_id="m", messages=tuple(messages),
            temperature=temperature, max_output_tokens=32,
        )
        assert CompletionRequest.from_payload(request.to_payload()) == request


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
        transport = TranscriptTransport([{"status": 200, "body": body}])
        vectors = embed_texts(CONFIG, "emb", ["first", "second"], transport)
        assert vectors[0].values == (1.0, 0.0)
        assert vectors[1].values == (0.0, 1.0)
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
        transport = TranscriptTransport([{"status": 200, "body": body}])
        with pytest.raises(ProtocolError, match="indices"):
            embed_texts(CONFIG, "emb", ["first", "second"], transport)

    def test_count_mismatch_raises(self):
        body = {"data": [{"index": 0, "embedding": [1.0]}], "model": "emb"}
        transport = TranscriptTransport([{"status": 200, "body": body}])
        with pytest.raises(ProtocolError, match="count mismatch"):
            embed_texts(CONFIG, "emb", ["a", "b"], transport)

    def test_mixed_dimensions_raise(self):
        body = {
            "data": [
                {"index": 0, "embedding": [1.0, 0.0]},
                {"index": 1, "embedding": [1.0]},
            ],
            "model": "emb",
        }
        transport = TranscriptTransport([{"status": 200, "body": body}])
        with pytest.raises(ProtocolError, match="dimensions"):
            embed_texts(CONFIG, "emb", ["a", "b"], transport)

    def test_empty_input_rejected_without_io(self):
        transport = TranscriptTransport([])
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

    def test_http_transport_sets_bearer_header(self, monkeypatch):
        monkeypatch.setenv("GW_TEST_KEY", "sk-test-123")
        transport = HttpTransport(CONFIG)
        assert transport._session.headers["Authorization"] == "Bearer sk-test-123"

    def test_connection_failure_wrapped_as_network_error(self, monkeypatch):
        monkeypatch.setenv("GW_TEST_KEY", "sk-test-123")
        transport = HttpTransport(CONFIG)

        def refuse(*args, **kwargs):
            raise requests.ConnectionError("refused")

        monkeypatch.setattr(transport._session, "post", refuse)
        with pytest.raises(NetworkError, match="failed"):
            transport.post(CHAT_PATH, {})


class TestBackoff:
    def test_retry_budget_is_capped(self):
        with pytest.raises(ValueError, match="max_retries"):
            GatewayConfig(base_url="https://x", api_key_env_name="K", max_retries=9)

    def test_delay_grows_and_stays_under_bound(self):
        config = GatewayConfig(
            base_url="https://x", api_key_env_name="K",
            max_retries=3, backoff_base=0.01,
        )
        transport = TranscriptTransport(
            [{"status": 429, "body": "later"}] * 3 + [{"status": 200, "body": chat_body()}]
        )
        sleeps = []
        complete_chat(config, request_for(), transport, sleep=sleeps.append)
        assert len(sleeps) == 3
        assert sleeps == sorted(sleeps)  # jitter never reorders the series
        assert all(s > 0 for s in sleeps)
        assert sum(sleeps) <= max_total_backoff(config)

    @given(st.integers(min_value=1, max_value=8), st.floats(min_value=0, max_value=1))
    def test_delay_formula_bounds(self, retry_number, jitter):
        config = GatewayConfig(
            base_url="https://x", api_key_env_name="K", backoff_base=0.5, max_retries=8
        )
        delay = backoff_delay(config, retry_number, lambda: jitter)
        floor = 0.5 * 2 ** (retry_number - 1)
        assert floor <= delay <= floor * 1.25


class TestTranscript:
    def test_exhausted_transcript_is_a_protocol_error(self):
        transport = TranscriptTransport([{"status": 200, "body": chat_body()}])
        complete_chat(CONFIG, request_for(), transport)
        with pytest.raises(ProtocolError, match="exhausted"):
            complete_chat(CONFIG, request_for(), transport)

    def test_from_file_replays_in_order(self, tmp_path):
        steps = [
            {"status": 429, "body": "wait"},
            {"status": 200, "body": chat_body("replayed")},
        ]
        path = tmp_path / "transcript.json"
        path.write_text(json.dumps(steps), encoding="utf-8")
        transport = TranscriptTransport.from_file(path)
        completion = complete_chat(CONFIG, request_for(), transport, sleep=NO_SLEEP)
        assert completion.content == "replayed"
        assert transport.consumed == 2
