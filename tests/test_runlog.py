"""The run files' JSON-lines codec: what it writes, and what replay reads back."""

import json
import re
import tempfile
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR
from convoforge.pipeline import read_corpus_file
from convoforge.runlog import cut_after, lines, replay, write_records

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
