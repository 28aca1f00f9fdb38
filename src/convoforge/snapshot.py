"""The dedup index snapshot, index.tsv: its format, reader and writer.

A snapshot holds one line per index entry: the sample id, a tab, and the
row's float64 values as repr decimals separated by spaces, which load_index
reads back bit-exactly. An id therefore holds none of ID_SEPARATORS.

synth appends each accepted entry's index_line in place, through an
IndexWriter, and save_index, which every exit from the run calls, writes
what is still pending. orjson is imported only where a line is spelled or
read, so eval, export and score never load it.
"""

import os

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


class IndexWriter:
    """Appends lines to path's snapshot, opened (or created) at once, about
    256 KB at a time. A write resumes where the file ends, so the next one
    finishes a write that an interrupt cut short, never repeats it. A write
    that raises OSError cuts the snapshot back to what it held at the start
    (removes it, if the writer created it), and nothing more is written."""

    # A 1 MB buffer added 1-2 MB to synth-latency's peak RSS; writing 256 KB
    # at a time cost synth-cpu no measurable wall time.
    _BUFFER_BYTES = 1 << 18

    def __init__(self, path):
        self.path = os.fspath(path)
        self._size = os.path.getsize(self.path) if os.path.exists(self.path) else None
        self._file = open(self.path, "ab", buffering=0)
        # Where the pending bytes go, and those bytes: one attribute, so that
        # no interrupt leaves the two apart.
        self._tail = (os.fstat(self._file.fileno()).st_size, bytearray())

    def append(self, line: bytes) -> None:
        self._tail[1].extend(line)
        if len(self._tail[1]) >= self._BUFFER_BYTES:
            self.flush()

    def flush(self) -> None:
        if self._file.closed:  # a write failed, or save_index has run
            return
        offset, pending = self._tail
        try:
            while (done := os.fstat(self._file.fileno()).st_size - offset) < len(pending):
                self._file.write(memoryview(pending)[done:])  # no copy of the buffer
        except OSError as exc:
            self._file.close()
            if self._size is None:
                os.unlink(self.path)
            else:
                os.truncate(self.path, self._size)
            raise OSError(exc.errno, f"cannot append to {self.path} ({exc.strerror}); "
                                     "it was cut back to what it held before the run") from exc
        self._tail = (offset + len(pending), bytearray())


def save_index(writer: IndexWriter) -> None:
    """Write what writer holds pending and close its file."""
    try:
        writer.flush()
    finally:
        writer._file.close()


def load_index(path, threshold=None):
    """A dedup.QuestionIndex of the snapshot at path, at threshold (None:
    dedup.DEDUP_THRESHOLD); errors, a torn last line among them, name the
    file and line."""
    import orjson

    from .dedup import DEDUP_THRESHOLD, QuestionIndex, embedding_matrix
    from .runlog import lines

    index = QuestionIndex(DEDUP_THRESHOLD if threshold is None else threshold)
    for line_no, line in lines(path):
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
