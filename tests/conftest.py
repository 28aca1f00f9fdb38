import json
import re
from collections import deque
from pathlib import Path

import pytest

from convoforge.gateway import GatewayConfig, TransportResponse, complete_chat, embed_texts
from convoforge.simulate import SimulatedModelTransport

DATA_DIR = Path(__file__).parent / "data"

# A section's first chat call is its QA prompt, which quotes the section
# text; every fixture section text opens with "Section <id>.".
QA_SECTION_RE = re.compile(r"\bSection (sec-[a-z-]+-\d+)\.")

# A published worked example: three plain sentences that land in the
# low eighties. Used as a scoring anchor and as export payload.
POOL_ANSWER = (
    "Well, the pool closed down in 1967, a year after Claiborne H. Kinnard "
    "Jr. passed away in 1966. His wife, Ruth Kinnard, decided to shut it "
    "down, so they filled it in and sold the land. Now, all that's left at "
    "the spot is a historical marker that the Franklin Rotary Club paid "
    "for."
)


@pytest.fixture(scope="session")
def pool_answer() -> str:
    return POOL_ANSWER


@pytest.fixture(scope="session")
def readability_corpus() -> list[dict]:
    with open(DATA_DIR / "readability_corpus.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture(scope="session")
def corpus50_path() -> Path:
    return DATA_DIR / "corpus_50.jsonl"


@pytest.fixture(scope="session")
def corpus50_records(corpus50_path) -> list[dict]:
    with open(corpus50_path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture(scope="session")
def golden_manifest() -> dict:
    with open(DATA_DIR / "golden_manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


class ScriptedTransport:
    """Answers each post with the next {status, body} step, in arrival
    order, and records the (path, payload) it was sent.

    Concurrent callers get the steps in whatever order they arrive; a
    test that needs per-request replies subclasses SimulatedModelTransport.
    Posting past the last step raises IndexError.
    """

    def __init__(self, steps):
        self.steps = deque(steps)
        self.requests = []

    def post(self, path, payload):
        self.requests.append((path, payload))
        step = self.steps.popleft()
        return TransportResponse(status=step["status"], body=step["body"])


class SimFns:
    """chat/embed closures over one simulated transport, plus the transport."""

    def __init__(self):
        self.transport = SimulatedModelTransport()
        self.gateway = GatewayConfig(
            base_url="https://test.invalid", api_key_env="UNUSED_TEST_KEY"
        )

    def chat(self, messages, temperature):
        return complete_chat(
            self.gateway, "sim-chat", messages, temperature, 1024, self.transport
        ).content

    def embed(self, texts):
        return embed_texts(self.gateway, "sim-embed", texts, self.transport)


@pytest.fixture()
def sim_fns() -> SimFns:
    return SimFns()
