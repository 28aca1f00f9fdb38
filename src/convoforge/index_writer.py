"""The dedup index snapshot's one writer, run as a child process.

    python -I -S index_writer.py TMP_PATH [SNAPSHOT]

dedup.IndexWriter starts it and sends it frames on stdin. It imports only
the standard library, so it starts in tens of milliseconds and never loads
numpy. It first copies SNAPSHOT's bytes into TMP_PATH, when given (a
--resume keeps its snapshot without formatting it again). Then it appends
one line per frame: the sample id, a tab, and the row's values as repr
decimals separated by spaces, which dedup.load_index reads back
bit-exactly. It exits 0 at the end of its input; the parent renames
TMP_PATH over the snapshot only then.

A frame is a little-endian header of two uint32s, the id's UTF-8 length and
the row's byte length, then the id and the row as float64 bytes in the
machine's order (both processes run on one machine). Input that ends inside
a frame is an error: the parent sends whole frames, so it died mid-send.
"""

import signal
import struct
import sys
from array import array

HEADER = struct.Struct("<II")
_COPY_CHUNK = 1 << 20


def main(argv: list) -> int:
    # A Ctrl-C stops synth, whose exit path still waits for this process.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    frames = sys.stdin.buffer
    with open(argv[0], "wb") as out:
        if len(argv) > 1:
            last = b"\n"
            with open(argv[1], "rb") as snapshot:
                for chunk in iter(lambda: snapshot.read(_COPY_CHUNK), b""):
                    out.write(chunk)
                    last = chunk[-1:]
            if last != b"\n":
                out.write(b"\n")
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
