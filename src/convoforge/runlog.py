"""A run's files: their names, the JSON-lines codec, replay and whole-file writes.

Every line file is read through lines, which names a bad line as path:line,
and every file that is not append-only is replaced through write_atomic.
"""

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

SAMPLES_FILENAME = "samples.jsonl"
TRACES_FILENAME = "traces.jsonl"
MANIFEST_FILENAME = "manifest.json"
INDEX_FILENAME = "index.tsv"
RUN_CONFIG_FILENAME = "run_config.json"
RUN_FILENAMES = (SAMPLES_FILENAME, TRACES_FILENAME, INDEX_FILENAME, MANIFEST_FILENAME,
                 RUN_CONFIG_FILENAME)
VALIDATION_FILENAME = "validation.jsonl"  # export writes it beside the fine-tuning file
TMP_SUFFIX = ".tmp"  # write_atomic writes a file's new content under its name plus this


def encode(record) -> str:
    """record's line: JSON that keeps non-ASCII text as it is, then LF."""
    return json.dumps(record, ensure_ascii=False) + "\n"


def encodes(text: str) -> bool:
    """Whether UTF-8 can encode text; a lone surrogate, which json decodes
    from an escape such as "\\ud800", cannot."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def lines(path) -> Iterator[tuple[int, str]]:
    """(line number, line) per line of the text file at path, from 1; raises
    ValueError naming path:line on bytes that UTF-8 cannot decode."""
    # A strict decode fails in a buffered read that knows no line number.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not encodes(line):
                raise ValueError(f"{path}:{line_no}: bytes that UTF-8 cannot decode")
            yield line_no, line


def replay(path, parse: Callable = lambda record: record, what: str = "record") -> Iterator:
    """(line number, parse(record)) per non-blank line of the JSON-lines file
    at path; raises ValueError naming path:line on a line that is not JSON or
    whose record parse refuses with TypeError, KeyError or ValueError."""
    for line_no, line in lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{line_no}: invalid JSON record") from exc
        try:
            value = parse(record)
        except (TypeError, KeyError, ValueError) as exc:
            reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"{path}:{line_no}: not a {what}: {reason}") from exc
        yield line_no, value


@contextmanager
def write_atomic(path) -> Iterator[TextIO]:
    """Yield a text file at path + TMP_SUFFIX, making path's directory, and move
    it onto path when the block ends; no fsync, so not across a power loss."""
    tmp = Path(f"{path}{TMP_SUFFIX}")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except BaseException:  # KeyboardInterrupt too: path stays as it was
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def write_records(path, records: Iterable) -> None:
    """Replace the JSON-lines file at path with records, through write_atomic."""
    with write_atomic(path) as fh:
        fh.writelines(map(encode, records))
