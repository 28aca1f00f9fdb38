"""Cosine similarity and the accepted-question index.

New questions are rejected when their embedding is too close to one
already in the dataset: strictly greater than the threshold rejects, so
a similarity of exactly 0.8 under the default still passes. The search
is exact and flat, as in FAISS IndexFlatIP (Johnson et al., arXiv
1702.08734) and SemDeDup (Abbas et al., arXiv 2303.09540): the vectors
are the rows of one float64 matrix whose capacity doubles when full,
beside one array of their norms. At ten thousand entries approximate
search gains nothing, and exactness keeps the boundary testable.

An EmbeddingVector holds one read-only 1-D float64 array, parsed once,
where the gateway reads the endpoint's reply or load_index a snapshot
line, and checked there: one dimension, at least one component, all
finite. The index copies that array into its matrix without boxing a
component, and never keeps a reference to it.

The insert check, the violation scan and cosine_similarity share one
kernel, `_similarities`, built on np.einsum rather than `@`: einsum
reduces each row alone, on one thread, so a row's bits do not depend on
how many rows are passed or where they start (a BLAS gemv's can). The
scan thus never flags a pair that the index accepted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Default dedup cutoff for synth and dedup-check; a cosine exactly at it passes.
DEDUP_THRESHOLD = 0.8


class EmbeddingVector:
    """One embedding: a read-only 1-D float64 array of finite components.

    The constructor copies `values` (a sequence or array) once; nothing a
    caller does to its own list or array afterwards reaches the vector.
    """

    __slots__ = ("_array",)

    def __init__(self, values):
        array = np.array(values, dtype=np.float64)
        if array.ndim != 1:
            raise ValueError(f"embedding must be a flat list of numbers, got shape {array.shape}")
        if not array.size:
            raise ValueError("embedding must have at least one component")
        if not np.isfinite(array).all():
            raise ValueError("embedding components must be finite")
        array.flags.writeable = False
        self._array = array

    @property
    def array(self) -> np.ndarray:
        return self._array

    @property
    def dimension(self) -> int:
        return self._array.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingVector):
            return NotImplemented
        return bool(np.array_equal(self._array, other._array))

    def __repr__(self) -> str:
        return f"EmbeddingVector({self._array.tolist()!r})"


def _similarities(rows: np.ndarray, norms, probe: np.ndarray, probe_norm) -> np.ndarray:
    """Cosine of `probe` against each row; the module's one kernel."""
    return np.einsum("ij,j->i", rows, probe) / (norms * probe_norm)


def _as_row(vector: EmbeddingVector) -> tuple[np.ndarray, float]:
    norm = float(np.linalg.norm(vector.array))
    if norm == 0.0:
        raise ValueError("cosine similarity is undefined for zero-magnitude vectors")
    return vector.array, norm


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    if a.dimension != b.dimension:
        raise ValueError(f"dimension mismatch: {a.dimension} vs {b.dimension}")
    arr_a, norm_a = _as_row(a)
    arr_b, norm_b = _as_row(b)
    return float(_similarities(arr_a[None, :], norm_a, arr_b, norm_b)[0])


@dataclass(frozen=True)
class DedupDecision:
    accepted: bool
    nearest_id: Optional[str] = None
    nearest_similarity: Optional[float] = None


class QuestionIndex:
    """Accepted questions with their embeddings; rejects near-duplicates.

    check_and_insert mutates and must be externally serialized; the
    pipeline funnels all dedup decisions through one ordered stage.
    """

    def __init__(self, threshold: float = DEDUP_THRESHOLD):
        if not 0 < threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        self._threshold = threshold
        self._ids: list[str] = []
        self._id_set: set[str] = set()
        # Row k of both holds entry k; rows from len(self) on are spare.
        self._rows = np.empty((0, 0))
        self._norms = np.empty(0)

    @property
    def threshold(self) -> float:
        return self._threshold

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> list[str]:
        """Sample ids in insertion order."""
        return list(self._ids)

    def _prepare(self, sample_id: str, vector: EmbeddingVector) -> tuple[np.ndarray, float]:
        if sample_id in self._id_set:
            raise ValueError(f"duplicate sample_id {sample_id!r}")
        dimension = self._rows.shape[1]
        if self._ids and vector.dimension != dimension:
            raise ValueError(f"dimension mismatch: index holds {dimension}, got {vector.dimension}")
        return _as_row(vector)

    def _insert(self, sample_id: str, arr: np.ndarray, norm: float) -> None:
        """Copy `arr` into the next row; the index never aliases a caller's array."""
        n = len(self._ids)
        if n == len(self._rows):  # full: double the capacity, 16 rows at first
            rows = np.empty((max(2 * n, 16), arr.size))
            norms = np.empty(len(rows))
            rows[:n] = self._rows.reshape(n, arr.size)  # the empty start is 0 x 0
            norms[:n] = self._norms
            self._rows, self._norms = rows, norms
        self._rows[n] = arr
        self._norms[n] = norm
        self._ids.append(sample_id)
        self._id_set.add(sample_id)

    def add_unchecked(self, sample_id: str, vector: EmbeddingVector) -> None:
        """Insert without a similarity check (bulk loads, snapshots)."""
        self._insert(sample_id, *self._prepare(sample_id, vector))

    def check_and_insert(self, sample_id: str, vector: EmbeddingVector) -> DedupDecision:
        """Insert unless a stored entry is strictly closer than threshold.

        Returns the nearest entry either way; on a similarity tie the
        earliest-inserted entry is reported. Rejected vectors are not
        inserted.
        """
        arr, norm = self._prepare(sample_id, vector)
        n = len(self._ids)
        if n == 0:
            self._insert(sample_id, arr, norm)
            return DedupDecision(accepted=True)
        sims = _similarities(self._rows[:n], self._norms[:n], arr, norm)
        nearest = int(np.argmax(sims))  # first maximum: the earliest entry
        decision = DedupDecision(
            accepted=bool(sims[nearest] <= self._threshold),
            nearest_id=self._ids[nearest],
            nearest_similarity=float(sims[nearest]),
        )
        if decision.accepted:
            self._insert(sample_id, arr, norm)
        return decision


def save_index(index: QuestionIndex, path) -> None:
    """One entry per line: sample_id, tab, space-separated decimals.

    Written to a temp file beside path and renamed over it, so an
    interrupted save leaves the previous snapshot whole.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for sample_id, row in zip(index._ids, index._rows):
            decimals = " ".join(repr(v) for v in row.tolist())
            fh.write(f"{sample_id}\t{decimals}\n")
    os.replace(tmp, path)


def load_index(path, threshold: float = DEDUP_THRESHOLD) -> QuestionIndex:
    """Read a save_index snapshot; errors name the file and line."""
    index = QuestionIndex(threshold=threshold)
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                sample_id, decimals = line.split("\t")
                vector = EmbeddingVector(decimals.split(" "))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: malformed index line") from exc
            try:
                index.add_unchecked(sample_id, vector)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return index


def find_violations(index: QuestionIndex) -> list[tuple[str, str, float]]:
    """Pairs above the index's threshold, sorted by insertion positions.

    Entry j is scored against entries 0..j-1 by the very call that
    check_and_insert made when j arrived, so a checked index is clean.
    """
    rows, norms, ids = index._rows, index._norms, index._ids
    found = []
    for j in range(1, len(ids)):
        sims = _similarities(rows[:j], norms[:j], rows[j], norms[j])
        over = np.flatnonzero(sims > index.threshold)
        found.extend((int(i), j, float(sims[i])) for i in over)
    found.sort()
    return [(ids[i], ids[j], sim) for i, j, sim in found]
