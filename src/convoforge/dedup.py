"""Cosine similarity and the accepted-question index.

New questions are rejected when their embedding is too close to one
already in the dataset: strictly greater than the threshold rejects, so
a similarity of exactly 0.8 under the default still passes. The search
is exact and flat, as in FAISS IndexFlatIP (Johnson et al., arXiv
1702.08734) and SemDeDup (Abbas et al., arXiv 2303.09540): the vectors
are the rows of one float64 matrix whose capacity doubles when full,
beside one array of their norms. At ten thousand entries approximate
search gains nothing, and exactness keeps the boundary testable.

Embeddings are checked once, by embedding_matrix, where they enter:
the gateway's reply to one batch becomes one read-only float64 (n, d)
matrix, and snapshot.load_index reads each line as a one-row matrix. The
index and cosine_similarity then take plain 1-D rows; the index copies
each row into its matrix and never keeps a reference to the caller's.

The insert check, the violation scan and cosine_similarity share one
kernel, `_similarities`, built on np.einsum rather than `@`: einsum
reduces each row alone, on one thread, so a row's bits do not depend on
how many rows are passed or where they start (a BLAS gemv's can). The
scan thus never flags a pair that the index accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# Default dedup cutoff for synth and dedup-check; a cosine exactly at it passes.
DEDUP_THRESHOLD = 0.8


def embedding_matrix(rows) -> np.ndarray:
    """A read-only float64 copy of `rows`: 2-D, at least one column, all
    finite, and no row of zero magnitude, which no cosine can take."""
    matrix = np.array(rows, dtype=np.float64)
    if matrix.ndim != 2 or not matrix.shape[1] or not np.isfinite(matrix).all():
        raise ValueError(f"embeddings must be non-empty finite rows, got shape {matrix.shape}")
    for row in matrix:
        _norm(row)
    matrix.flags.writeable = False
    return matrix


def _similarities(rows: np.ndarray, norms, probe: np.ndarray, probe_norm) -> np.ndarray:
    """Cosine of `probe` against each row; the module's one kernel."""
    return np.einsum("ij,j->i", rows, probe) / (norms * probe_norm)


def _norm(row: np.ndarray) -> float:
    norm = float(np.linalg.norm(row))
    if norm == 0.0:
        raise ValueError("cosine similarity is undefined for zero-magnitude vectors")
    return norm


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    if a.size != b.size:
        raise ValueError(f"dimension mismatch: {a.size} vs {b.size}")
    return float(_similarities(a[None, :], _norm(a), b, _norm(b))[0])


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

    def _prepare(self, sample_id: str, row: np.ndarray) -> tuple[np.ndarray, float]:
        if sample_id in self._id_set:
            raise ValueError(f"duplicate sample_id {sample_id!r}")
        dimension = self._rows.shape[1]
        if self._ids and row.size != dimension:
            raise ValueError(f"dimension mismatch: index holds {dimension}, got {row.size}")
        return row, _norm(row)

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

    def add_unchecked(self, sample_id: str, row: np.ndarray) -> None:
        """Insert without a similarity check (bulk loads, snapshots)."""
        self._insert(sample_id, *self._prepare(sample_id, row))

    def check_and_insert(self, sample_id: str, row: np.ndarray) -> DedupDecision:
        """Insert unless a stored entry is strictly closer than threshold.

        Returns the nearest entry either way; on a similarity tie the
        earliest-inserted entry is reported. Rejected rows are not
        inserted.
        """
        arr, norm = self._prepare(sample_id, row)
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
