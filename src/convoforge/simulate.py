"""Deterministic offline stand-in for the chat and embedding endpoints.

Dry runs need realistic traffic without a network: this transport
answers chat requests by convention on the section id embedded in the
fixture text, and hands out embeddings derived from a hash of the input
text, so identical questions collide at cosine 1.0 and distinct ones
land far apart.

Section id conventions (the bundled fixture corpus uses all of them):
  sec-ok-NNN   QA succeeds; the rephrase passes on attempt (NNN-1)%3+1
  sec-hard-*   QA succeeds; every rephrase stays unreadable
  sec-dup-*    QA succeeds with one shared question text, so the second
               one consumed is rejected as a duplicate
  sec-err-*    chat output is never valid JSON, exhausting the parse retry
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np

from .gateway import CHAT_PATH, EMBEDDINGS_PATH, TransportResponse

EMBEDDING_DIM = 64

_SECTION_ID = r"sec-[a-z]+(?:-[a-z]+)*-\d+"
_SECTION_RE = re.compile(rf"\bSection ({_SECTION_ID})\b")
_QUESTION_RE = re.compile(rf"\brecord about ({_SECTION_ID})\b")
_ROUND_RE = re.compile(r"\bround (\d+)\b")

_DUP_QUESTION = "What does the shared duplicate record describe?"

_EASY_ANSWER = (
    "Well, this answer is short on purpose. It uses small words. "
    "You can read it out loud in one breath. That is the whole idea."
)

_HARD_ANSWER_TEMPLATE = (
    "Regrettably, comprehensive administrative reorganization necessitates "
    "extraordinarily elaborate documentation, systematically perpetuating "
    "incomprehensible terminology throughout round {attempt} deliberations."
)


def text_embedding(text: str) -> list[float]:
    """Unit vector seeded by the text's hash; equal text, equal vector."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    vec = rng.standard_normal(EMBEDDING_DIM)
    return (vec / np.linalg.norm(vec)).tolist()


class SimulatedModelTransport:
    """Transport double for both endpoint paths; never touches a socket."""

    def post(self, path: str, payload: dict) -> TransportResponse:
        if path == CHAT_PATH:
            return TransportResponse(200, self._chat_body(payload))
        if path == EMBEDDINGS_PATH:
            return TransportResponse(200, self._embeddings_body(payload))
        return TransportResponse(404, f"unknown path {path}")

    def _chat_body(self, payload: dict) -> dict:
        prompt = payload["messages"][-1]["content"]
        if "exactly two fields" in prompt:
            content = self._qa_step(prompt)
        else:
            content = self._simplify_step(prompt)
        return {
            "choices": [{"message": {"role": "assistant", "content": content}}],
            "usage": {"prompt_tokens": 11, "completion_tokens": 42},
        }

    def _qa_step(self, prompt: str) -> str:
        match = _SECTION_RE.search(prompt)
        section_id = match.group(1) if match else "sec-ok-000"
        if section_id.startswith("sec-err-"):
            return "I cannot produce structured output for this request."
        if section_id.startswith("sec-dup-"):
            question = _DUP_QUESTION
        else:
            question = f"What does the record about {section_id} describe?"
        answer = (
            f"The documented subject of {section_id} retains considerable "
            "administrative significance according to the archived material."
        )
        return json.dumps({"question": question, "answer": answer}, ensure_ascii=False)

    def _simplify_step(self, prompt: str) -> str:
        round_match = _ROUND_RE.search(prompt)
        attempt = int(round_match.group(1)) + 1 if round_match else 1
        if _DUP_QUESTION in prompt:
            return _EASY_ANSWER
        question_match = _QUESTION_RE.search(prompt)
        section_id = question_match.group(1) if question_match else "sec-ok-000"
        if section_id.startswith("sec-hard-"):
            return _HARD_ANSWER_TEMPLATE.format(attempt=attempt)
        number = int(section_id.rsplit("-", 1)[1])
        pass_at = (number - 1) % 3 + 1
        if attempt >= pass_at:
            return _EASY_ANSWER
        return _HARD_ANSWER_TEMPLATE.format(attempt=attempt)

    def _embeddings_body(self, payload: dict) -> dict:
        data = [
            {"index": i, "embedding": text_embedding(text)}
            for i, text in enumerate(payload["input"])
        ]
        return {"data": data, "model": payload["model"]}
