"""The dedup index snapshot, index.tsv: its format, reader and writer.

A snapshot holds one line per index entry: the sample id, a tab, and the
row's float64 values as repr decimals separated by spaces, which load_index
reads back bit-exactly. An id therefore holds none of ID_SEPARATORS.

synth appends each accepted entry's index_line in place through save_index,
which flushes it before the entry's log line is written, so the snapshot may
run ahead of the log but never behind it (see pipeline). orjson is imported
only where a line is spelled or read, so eval, export and score never load it.
"""

from itertools import islice

import numpy as np

# The tab that ends an id in its line, and the line ends load_index splits on.
ID_SEPARATORS = "\t\n\r"

# All a line's decimals may hold: orjson reads true, "1" or 1,2 as numbers too.
_DECIMAL_BYTES = b"0123456789.eE+- "


def index_line(sample_id: str, row: np.ndarray) -> bytes:
    """The snapshot line of a float64 row: byte for byte what
    " ".join(map(repr, row)) spells, several times faster."""
    import orjson

    # orjson writes repr's digits in repr's notation but for the values that
    # repr writes with an exponent: mask those as NaN, which orjson spells
    # null, and put each one's repr where its null stands.
    magnitudes = np.abs(row)
    scientific = ((magnitudes > 0) & (magnitudes < 1e-4)) | (magnitudes >= 1e16)
    masked = row.copy()
    masked[scientific] = np.nan
    spelled = orjson.dumps(masked, option=orjson.OPT_SERIALIZE_NUMPY)
    pieces, start = [], 1  # past the "["
    for value in row[scientific].tolist():
        null = spelled.index(b"n", start)
        pieces += (spelled[start:null], repr(value).encode("ascii"))
        start = null + len(b"null")
    pieces.append(spelled[start:-1])  # up to the "]"
    decimals = b"".join(pieces).replace(b",", b" ")
    return sample_id.encode("utf-8") + b"\t" + decimals + b"\n"


def save_index(fh, line: bytes) -> None:
    """Append line to the snapshot open in fh, a buffered binary file, and
    flush it (a function, so that perfbench's tracer can time it). An OSError
    names the file and leaves it as it stands, without line's pending bytes."""
    try:
        fh.write(line)
        fh.flush()
    except OSError as exc:
        fh.raw.close()  # drops what the buffer holds, so closing fh writes nothing more
        raise OSError(exc.errno, f"cannot append to {fh.name} ({exc.strerror})") from exc


def load_index(path, threshold=None, rows=None):
    """A dedup.QuestionIndex of the snapshot at path, or of its first rows
    lines, at threshold (None: dedup.DEDUP_THRESHOLD); errors, a torn last
    line among them, name the file and line."""
    import orjson

    from .dedup import DEDUP_THRESHOLD, QuestionIndex, embedding_matrix
    from .runlog import lines

    index = QuestionIndex(DEDUP_THRESHOLD if threshold is None else threshold)
    for line_no, line in islice(lines(path), rows):
        if not line.endswith("\n"):  # torn: its last number may be cut short
            raise ValueError(f"{path}:{line_no}: index line lacks its newline")
        if line == "\n":
            continue
        try:
            sample_id, decimals = line[:-1].split("\t")
            decimals = decimals.encode("ascii")  # UnicodeError is a ValueError
            if decimals.translate(None, _DECIMAL_BYTES):
                raise ValueError("not a decimal")
            (row,) = embedding_matrix([orjson.loads(b"[" + decimals.replace(b" ", b",") + b"]")])
        except ValueError as exc:  # orjson.JSONDecodeError too
            raise ValueError(f"{path}:{line_no}: malformed index line") from exc
        try:
            index.add_unchecked(sample_id, row)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return index
