"""The dedup index snapshot, index.tsv: its format, reader and writer.

A snapshot holds one line per index entry: the sample id, a tab, and the
row's float64 values as repr decimals separated by spaces, which load_index
reads back bit-exactly. An id therefore holds none of ID_SEPARATORS.

synth writes it through a child process, this module run as a script:

    python -I -S snapshot.py SNAPSHOT

IndexWriter starts the child once the run's resume state has loaded, and
the run sends it each entry as the entry is accepted, so the run never
formats its whole index at the end. The child imports only the standard
library, so it starts in tens of milliseconds and never loads numpy; this
module's top level must stay that way. The child opens SNAPSHOT for
appending, on a fresh run (which has deleted it) and a --resume (which has
loaded it, so it ends in a newline) alike; then it appends one line per frame
and exits 0 at the end of its input, so a live run's SNAPSHOT can end in a
torn line, which load_index refuses. It runs in its own session and ignores
SIGINT and SIGTERM, so a Ctrl-C or a SIGTERM that stops synth leaves it
running until save_index, which every exit from the run calls, waits for it;
a killed synth leaves it to drain the pipe and exit. If the child does not
exit 0, save_index cuts SNAPSHOT back to the size IndexWriter recorded, or
removes it if the run created it, and raises OSError, so SNAPSHOT is left as
it was.

A frame is a little-endian header of two uint32s, the id's UTF-8 length and
the row's byte length, then the id and the row as float64 bytes in the
machine's order (both processes run on one machine). Input that ends inside
a frame is an error: the parent sends whole frames, so it died mid-send.
"""

import os
import signal
import struct
import sys
from array import array

# The tab that ends an id in its line, and the line ends load_index splits on.
ID_SEPARATORS = "\t\n\r"

HEADER = struct.Struct("<II")


class IndexWriter:
    """The parent's end of the child that writes path's snapshot.

    append() only buffers an entry; flush() sends what is buffered. After a
    flush the buffer takes any frame whole, so the next append makes no
    system call; and the buffered writer counts what a send has written, so
    a send cut short by an interrupt is finished by save_index.
    """

    _SCRIPT = __file__
    _BUFFER_BYTES = 1 << 20  # one frame of up to 131,072 float64 values

    def __init__(self, path):
        import subprocess  # only here: eval, export and dedup-check never load it

        self.path = os.fspath(path)
        try:  # what save_index cuts a failed child's appends back to
            self._size = os.path.getsize(self.path)
        except FileNotFoundError:
            self._size = None
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", self._SCRIPT, self.path],
            stdin=subprocess.PIPE, bufsize=self._BUFFER_BYTES, start_new_session=True)

    def append(self, sample_id: str, row) -> None:
        """Buffer one entry; row is a float64 row, as embedding_matrix makes."""
        key = sample_id.encode("utf-8")
        data = row.tobytes()
        self._proc.stdin.write(HEADER.pack(len(key), len(data)) + key + data)

    def flush(self) -> None:
        self._proc.stdin.flush()


def save_index(writer: IndexWriter) -> None:
    """Send the rest and wait for writer's child; if it did not exit 0, cut
    the snapshot back to what it held before and raise OSError."""
    try:
        writer._proc.stdin.close()  # flushes first
    except BrokenPipeError:
        pass  # the child is gone; its exit status says why
    status = writer._proc.wait()
    if status != 0:
        if writer._size is not None:
            os.truncate(writer.path, writer._size)
        elif os.path.exists(writer.path):  # a child may die before it opens it
            os.unlink(writer.path)
        raise OSError(f"index writer exited with status {status}; "
                      f"{writer.path} was left as it was")


def load_index(path, threshold=None):
    """A dedup.QuestionIndex of the snapshot at path, at threshold (None:
    dedup.DEDUP_THRESHOLD); errors, a torn last line among them, name the
    file and line."""
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
            (row,) = embedding_matrix([decimals.split(" ")])
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: malformed index line") from exc
        try:
            index.add_unchecked(sample_id, row)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return index


def main(argv: list) -> int:
    # A Ctrl-C or a SIGTERM stops synth, whose exit path still waits for this
    # process; a signal to the whole cgroup reaches it too.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    (snapshot_path,) = argv
    frames = sys.stdin.buffer
    with open(snapshot_path, "ab") as out:
        while header := frames.read(HEADER.size):
            id_size, row_size = HEADER.unpack(header)  # raises on a cut header
            body = frames.read(id_size + row_size)
            if len(body) != id_size + row_size:
                raise EOFError("input ended inside a frame")
            row = array("d", body[id_size:])
            decimals = " ".join(map(repr, row.tolist()))
            out.write(body[:id_size] + b"\t" + decimals.encode("ascii") + b"\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
