"""The run files' JSON-lines codec: what it writes, and what replay reads back."""

import json
import re
import tempfile
from dataclasses import asdict
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR
from convoforge.evalharness import EvalRecord, EvalReport
from convoforge.pipeline import GenerationTrace, QaSample, read_corpus_file
from convoforge.runlog import cut_after, encode, lines, replay, write_records

# U+2028, U+0085 and \x1c end a line for str.splitlines but not for a file's
# line iterator, which must keep them inside their record; \r and \n end one
# for universal newlines, so the codec must escape them. The rest are not ASCII.
TRICKY = st.sampled_from(["\u2028", "\u0085", "\x1c", "\r", "\n", "é", "中", "\U0001f600"])
TEXTS = st.lists(st.one_of(TRICKY, st.characters(codec="utf-8")), max_size=12).map("".join)
RECORDS = st.lists(st.fixed_dictionaries({"text": TEXTS, "n": st.integers()}), max_size=8)


def at_line(path, line_no, reason):
    return rf"^{re.escape(str(path))}:{line_no}: {reason}$"


@settings(max_examples=60, deadline=None)
@given(RECORDS)
def test_records_round_trip_in_order_numbered_from_one(records):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "log.jsonl"
        write_records(path, records)
        assert path.read_bytes() == b"".join(
            (json.dumps(r, ensure_ascii=False) + "\n").encode("utf-8") for r in records)
        assert list(replay(path)) == list(enumerate(records, start=1))


def test_a_crlf_corpus_reads_as_its_lf_original(tmp_path):
    lf = DATA_DIR / "corpus_50.jsonl"
    crlf = tmp_path / "corpus_crlf.jsonl"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert list(replay(crlf)) == list(replay(lf))
    assert read_corpus_file(crlf) == read_corpus_file(lf)


def test_undecodable_bytes_are_refused_at_their_line_under_universal_newlines(tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_bytes(b'{"a": 1}\r\n{"b": 2}\r{"c": "\xff"}\n{"d": 4}\n')
    assert [line_no for line_no, _ in islice(lines(path), 2)] == [1, 2]
    with pytest.raises(ValueError, match=at_line(path, 3, "bytes that UTF-8 cannot decode")):
        list(replay(path))


def test_parse_refusals_name_path_and_line(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"k": 1}\n\n{"j": 2}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=at_line(path, 3, "not a thing: missing key 'k'")):
        list(replay(path, lambda record: record["k"], "thing"))


def test_the_log_is_read_up_to_its_last_lf(tmp_path):
    # A torn tail is left out unread: here it ends inside an "é" (0xc3 0xa9).
    path = tmp_path / "traces.jsonl"
    path.write_bytes(b'{"a": 1}\n\n{"b": "\xc3\xa9"}\n{"c": "caf\xc3')
    assert list(replay(path, log=True)) == [(1, {"a": 1}), (3, {"b": "é"})]
    # Only LF ends a log line, as the cut of the log counts lines.
    path.write_bytes(b'{"a": 1}\r{"b": 2}\r\n{"c"')
    assert list(lines(path, log=True)) == [(1, '{"a": 1}\r{"b": 2}\r\n')]
    path.write_bytes(b'{"a": 1}\n{"b": "\xff"}\n{"c"')
    with pytest.raises(ValueError, match=at_line(path, 2, "bytes that UTF-8 cannot decode")):
        list(lines(path, log=True))


@pytest.mark.parametrize("count, left", [(0, b""), (1, b"a\n"), (2, b"a\nb\r\n"),
                                         (3, b"a\nb\r\nc")])
def test_cut_after_keeps_the_first_lines_in_place(tmp_path, count, left):
    path = tmp_path / "index.tsv"
    path.write_bytes(b"a\nb\r\nc")
    inode = path.stat().st_ino
    cut_after(path, count)
    assert path.read_bytes() == left and path.stat().st_ino == inode


SAMPLE = QaSample(sample_id="qa-sec-ok-001", question="Qu'a dit l'élève « ici » ?",
                  answer_original="Il a dit \"oui\"\n中文 😀", answer_simplified="Oui.\u2028Bien.",
                  flesch_score=81.25, attempts_used=2, section_id="sec-ok-001")
STAMPS = {"started_at": "2026-01-01T00:00:00.000+00:00",
          "finished_at": "2026-01-01T00:00:01.250+00:00"}


@pytest.mark.parametrize("record", [
    GenerationTrace("sec-ok-001", "accepted", [40.5, 81.25], SAMPLE, **STAMPS),
    GenerationTrace("sec-dup-002", "rejected_duplicate", [90.0], nearest_id="qa-sec-dup-001",
                    nearest_similarity=0.9999999999999998, **STAMPS),
    GenerationTrace("sec-err-003", "generation_error",
                    error="unparseable QA output after retry: 'I cannot é'", **STAMPS),
    SAMPLE,
    EvalReport("tuned", 60.0, 2, 50.0, 0.75, 1, 0, 3, False, 100, records=[
        EvalRecord("qa-1", SAMPLE.question, SAMPLE.answer_simplified, "Sí, claro.", 90.5, True, 0.5),
        EvalRecord("qa-2", "Why?", "Because.", "Owing to circumstances.", 12.0, False, 1.0)]),
], ids=["accepted-trace", "rejected-trace", "failed-trace", "non-ascii-sample", "eval-report"])
def test_a_dataclass_is_encoded_as_asdict_gives_it(record):
    assert encode(record) == json.dumps(asdict(record), ensure_ascii=False) + "\n"


@pytest.mark.parametrize("value", [object(), QaSample], ids=["object", "dataclass-class"])
def test_what_json_cannot_take_raises_type_error(value):
    with pytest.raises(TypeError, match="is not JSON serializable$"):
        encode(value)
    with pytest.raises(TypeError, match="is not JSON serializable$"):
        encode({"sample": SAMPLE, "value": value})
