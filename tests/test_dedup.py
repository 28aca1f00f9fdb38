"""Near-duplicate index: cosine math, boundary semantics, snapshots."""

import errno
import hashlib
import io
import math
import os
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convoforge.dedup import (
    DedupDecision,
    QuestionIndex,
    cosine_similarity,
    embedding_matrix,
    find_violations,
    index_line,
    load_index,
    save_index,
)


def vec(*values) -> np.ndarray:
    return np.array(values, dtype=np.float64)


class TestCosine:
    def test_known_value(self):
        # dot 8, norms 3 and 3
        assert cosine_similarity(vec(1, 2, 2), vec(2, 1, 2)) == pytest.approx(8 / 9)

    def test_identical_vectors(self):
        assert cosine_similarity(vec(0.3, -0.4, 0.5), vec(0.3, -0.4, 0.5)) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity(vec(1, 0), vec(0, 1)) == pytest.approx(0.0)

    def test_opposite_vectors(self):
        assert cosine_similarity(vec(1, 1), vec(-1, -1)) == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            cosine_similarity(vec(1, 2), vec(1, 2, 3))

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100).filter(
                lambda v: v == 0 or abs(v) > 1e-6
            ),
            min_size=2,
            max_size=16,
        ),
        st.floats(min_value=0.01, max_value=50),
    )
    def test_scale_invariance(self, values, scale):
        if not any(values):
            values[0] = 1.0
        a = vec(*values)
        b = vec(*(v * scale for v in values))
        assert cosine_similarity(a, b) == pytest.approx(1.0, abs=1e-9)


# sha256 of the float64 bits of cosine_similarity over 200 seeded random
# pairs per dimension, recorded with numpy 2.4.6 on x86-64 Linux. Two
# distinct cosines in the eval golden cannot show a change to the kernel's
# order of operations; these vary every bit of the inputs.
COSINE_SHA256 = {
    64: "86918a5073a8fd0ecc54d63ac20f6a837b494eba4937511a7448394533f58d04",
    1536: "b0f11bb6606ec103135b8e19fee054130559fa471c15b604ca2b367cbbd569d0",
}


@pytest.mark.parametrize("dim", sorted(COSINE_SHA256))
def test_cosine_bits_are_pinned_on_varied_vectors(dim):
    pairs = np.random.default_rng(dim).standard_normal((200, 2, dim))
    sims = np.array([cosine_similarity(a, b) for a, b in pairs])
    assert hashlib.sha256(sims.tobytes()).hexdigest() == COSINE_SHA256[dim]


class TestEmbeddingMatrix:
    def test_holds_a_read_only_float64_copy(self):
        source = np.array([[0.6, 0.8]])
        matrix = embedding_matrix(source)
        assert matrix.dtype == np.float64 and matrix.shape == (1, 2)
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0
        source[0, 0] = 5.0
        assert matrix.tolist() == [[0.6, 0.8]]
        assert source.flags.writeable  # the caller's array is left as it was

    @pytest.mark.parametrize("rows", [
        [[[1.0, 0.0]]], [1.0, 0.0], 1.0, None, [[None, 1.0]], [[]],
        [[float("inf")]], [[float("nan")]], [[1.0], [2.0, 3.0]], [[1.0, 0.0], [0.0, -0.0]],
        [[1e-200, 0.0]],
    ], ids=["nested", "flat", "number", "none", "none-component", "empty",
            "inf", "nan", "ragged", "zero-row", "norm-underflows-to-zero"])
    def test_rejects_anything_but_non_empty_finite_rows(self, rows):
        with pytest.raises(ValueError):
            embedding_matrix(rows)

    def test_index_does_not_alias_the_source(self, tmp_path):
        source = np.array([1.0, 0.0, 0.0])
        index = QuestionIndex(threshold=0.8)
        index.check_and_insert("a", source)
        index.add_unchecked("b", vec(0, 1, 0))
        before = tmp_path / "before.tsv"
        write_index(before, index)
        source[:] = [0.0, 1.0, 0.0]  # would now duplicate "b"
        after = tmp_path / "after.tsv"
        write_index(after, index)
        assert after.read_bytes() == before.read_bytes()
        assert find_violations(index) == []


class TestIndexBoundary:
    def test_first_entry_always_accepted(self):
        index = QuestionIndex(threshold=0.8)
        decision = index.check_and_insert("a", vec(1, 0))
        assert decision == DedupDecision(accepted=True)
        assert len(index) == 1

    def test_exactly_at_threshold_is_accepted(self):
        # cos((1,0), (4,3)) = 4/5 = 0.8 exactly: not strictly above
        index = QuestionIndex(threshold=0.8)
        index.check_and_insert("a", vec(1, 0))
        decision = index.check_and_insert("b", vec(4, 3))
        assert decision.accepted
        assert decision.nearest_id == "a"
        assert decision.nearest_similarity == pytest.approx(0.8)
        assert len(index) == 2

    def test_barely_above_threshold_is_rejected(self):
        index = QuestionIndex(threshold=0.8)
        index.check_and_insert("a", vec(1, 0))
        decision = index.check_and_insert("b", vec(4.000001, 3))
        assert not decision.accepted
        assert decision.nearest_id == "a"
        assert len(index) == 1  # rejected vector must not enter the index

    def test_rejection_names_nearest_neighbor(self):
        index = QuestionIndex(threshold=0.8)
        index.check_and_insert("u", vec(1.0, 0.0))
        index.check_and_insert("v", vec(0.0, 1.0))
        decision = index.check_and_insert("w", vec(1.0, 0.1))
        assert not decision.accepted
        assert decision.nearest_id == "u"
        assert decision.nearest_similarity > 0.8

    def test_tie_reports_earliest_inserted(self):
        index = QuestionIndex(threshold=0.5)
        index.check_and_insert("first", vec(1, 0))
        index.check_and_insert("second", vec(0, 1))
        assert len(index) == 2
        # (1, 1) is at cosine 1/sqrt(2) to both stored entries
        decision = index.check_and_insert("probe", vec(1, 1))
        assert not decision.accepted
        assert decision.nearest_id == "first"

    def test_zero_vector_cannot_be_indexed(self):
        index = QuestionIndex()
        with pytest.raises(ValueError, match="zero-magnitude"):
            index.check_and_insert("a", vec(0, 0))
        with pytest.raises(ValueError, match="zero-magnitude"):
            cosine_similarity(vec(0, 0), vec(1, 0))
        assert len(index) == 0

    def test_duplicate_id_rejected(self):
        index = QuestionIndex()
        index.check_and_insert("a", vec(1, 0))
        with pytest.raises(ValueError, match="a"):
            index.check_and_insert("a", vec(0, 1))

    def test_dimension_locked_by_first_entry(self):
        index = QuestionIndex()
        index.check_and_insert("a", vec(1, 0, 0))
        with pytest.raises(ValueError, match="dimension"):
            index.check_and_insert("b", vec(1, 0))

    def test_threshold_fixed_at_construction(self):
        index = QuestionIndex(threshold=0.5)
        assert index.threshold == 0.5
        with pytest.raises(AttributeError):
            index.threshold = 0.9

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.5])
    def test_threshold_domain(self, bad):
        with pytest.raises(ValueError):
            QuestionIndex(threshold=bad)


class TestSnapshot:
    def test_round_trip_is_exact(self, tmp_path):
        index = QuestionIndex(threshold=0.8)
        rng = random.Random(7)
        for i in range(25):
            index.add_unchecked(f"id-{i}", vec(*(rng.uniform(-1, 1) for _ in range(12))))
        path = tmp_path / "index.tsv"
        write_index(path, index)
        again = tmp_path / "again.tsv"
        write_index(again, load_index(path, threshold=0.8))
        assert again.read_bytes() == path.read_bytes()  # repr round-trip: bit-identical

    def test_snapshot_format(self, tmp_path):
        index = QuestionIndex()
        index.add_unchecked("qa-1", vec(0.5, -1.25))
        path = tmp_path / "index.tsv"
        write_index(path, index)
        assert path.read_text(encoding="utf-8") == "qa-1\t0.5 -1.25\n"

    @pytest.mark.parametrize("text, message", [
        ("a\t1.0 0.0\nb\t1.0 0.0 0.5\n", "dimension mismatch: index holds 2, got 3"),
        ("a\t1.0 0.0\nb\t0.0 1.0\na\t0.5 0.5\n", "duplicate sample_id 'a'"),
        ("a\t1.0 0.0\nb\t1.0 nan\n", "malformed index line"),
        # float() took these; a JSON number may not be spelled so
        ("a\t1.0 0.0\nb\t1_0 0.0\n", "malformed index line"),
        ("a\t1.0 0.0\nb\t+1 0.0\n", "malformed index line"),
        ("a\t1.0 0.0\nb\tinfinity 0.0\n", "malformed index line"),
        # JSON took these, and none is one number per token
        ("a\t1.0 0.0\nb\ttrue 0.0\n", "malformed index line"),
        ("a\t1.0 0.0\nb\t\"1\" 0.0\n", "malformed index line"),
        ("a\t1.0 0.0\nb\t1,0 0.0\n", "malformed index line"),
    ], ids=["ragged", "duplicate-id", "non-finite", "underscore", "plus-sign", "infinity",
            "json-true", "json-string", "comma"])
    def test_rejected_line_names_path_and_line(self, tmp_path, text, message):
        path = tmp_path / "index.tsv"
        path.write_text(text, encoding="utf-8")
        line_no = text.count("\n")
        with pytest.raises(ValueError) as info:
            load_index(path)
        assert str(info.value) == f"{path}:{line_no}: {message}"

    def test_a_torn_last_line_is_refused_not_read_as_a_shorter_number(self, tmp_path):
        # Without its last 3 bytes, the last value would load as 0.94708096312924.
        path = tmp_path / "index.tsv"
        path.write_bytes(b"a\t1.0 0.0\nb\t0.0 0.9470809631292422\n"[:-3])
        with pytest.raises(ValueError) as info:
            load_index(path)
        assert str(info.value) == f"{path}:2: index line lacks its newline"

    def test_rows_loads_only_the_first_lines_and_reads_no_further(self, tmp_path):
        path = tmp_path / "index.tsv"
        path.write_bytes(b"a\t1.0 0.0\nb\t0.0 1.0\nc\t0.5 0.5\nd\t0.0 0.9470809631292422\n"[:-3])
        assert load_index(path, rows=3).ids == ["a", "b", "c"]
        assert load_index(path, rows=0).ids == []
        with pytest.raises(ValueError, match=":4: index line lacks its newline$"):
            load_index(path, rows=4)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "index.tsv"
        path.write_text("qa-1\t0.5 1.0\nnot a valid line\n", encoding="utf-8")
        with pytest.raises(ValueError, match="2"):
            load_index(path)


def parent_line(sample_id: str, row: np.ndarray) -> bytes:
    """A snapshot line as repr spells it, which index_line must match."""
    decimals = " ".join(repr(v) for v in row.tolist())
    return f"{sample_id}\t{decimals}\n".encode("utf-8")


def write_entries(path, ids, rows) -> None:
    """Append the entries to path's snapshot, as synth does."""
    with open(path, "ab") as fh:
        for sample_id, row in zip(ids, rows):
            save_index(fh, index_line(sample_id, row))


def write_index(path, index: QuestionIndex) -> None:
    write_entries(path, index.ids, index._rows)


# Values whose notation differs between repr and orjson, or nearly does:
# repr switches to an exponent below 1e-4 and from 1e16 on.
NEAR_NOTATION_BOUNDS = st.builds(
    lambda mantissa, exponent, sign: sign * mantissa * 10.0 ** exponent,
    st.floats(1.0, 10.0, exclude_max=True),
    st.sampled_from([-6, -5, -4, -3, 15, 16, 17]),
    st.sampled_from([1.0, -1.0]),
) | st.sampled_from([1e-4, float(np.nextafter(1e-4, 0)), 1e-5, 1e16,
                     float(np.nextafter(1e16, 0)), 5e-324, 2.2250738585072014e-308, 0.0, -0.0])
FINITE_ROWS = st.lists(st.floats(allow_nan=False, allow_infinity=False) | NEAR_NOTATION_BOUNDS,
                       min_size=1, max_size=40)


class TestIndexLines:
    def varied_rows(self) -> np.ndarray:
        """Seeded normals at scales from 1e-150 to 1e150, with every
        row holding -0.0, the smallest subnormal, 1e-05, 1e16 and 0.1."""
        rng = np.random.default_rng(18)
        rows = rng.standard_normal((24, 1536)) * 10.0 ** rng.integers(-150, 151, (24, 1))
        specials = [-0.0, 5e-324, 1e-05, 1e16, 0.1]
        for row in rows:
            row[rng.choice(1536, len(specials), replace=False)] = specials
        return rows

    def test_lines_match_the_repr_format_and_load_bit_exactly(self, tmp_path):
        rows = self.varied_rows()
        ids = [f"qa-{k}" for k in range(len(rows) - 2)] + ["qa-\u00e9t\u00e9", "qa-1,5"]
        path = tmp_path / "index.tsv"
        write_entries(path, ids, rows)
        assert path.read_bytes() == b"".join(map(parent_line, ids, rows))
        loaded = load_index(path)
        assert loaded.ids == ids
        assert loaded._rows[:len(ids)].tobytes() == rows.tobytes()  # -0.0 keeps its sign bit

    @settings(max_examples=300, deadline=None)
    @given(FINITE_ROWS)
    def test_any_finite_row_is_spelled_as_repr_and_loads_bit_exactly(self, tmp_path_factory,
                                                                     values):
        row = np.array(values, dtype=np.float64)
        assert index_line("qa-1", row) == parent_line("qa-1", row)
        with np.errstate(over="ignore", under="ignore"):  # the norm of a huge or tiny row
            assume(np.linalg.norm(row) > 0)  # the index refuses a row of zero magnitude
            path = tmp_path_factory.mktemp("row") / "index.tsv"
            path.write_bytes(index_line("qa-1", row))
            assert load_index(path)._rows[0].tobytes() == row.tobytes()

    def test_extend_appends_to_the_snapshot_in_place(self, tmp_path):
        rows = self.varied_rows()
        ids = [f"qa-{k}" for k in range(len(rows))]
        path = tmp_path / "index.tsv"
        write_entries(path, ids[:10], rows[:10])
        inode = path.stat().st_ino
        write_entries(path, ids[10:], rows[10:])
        assert path.read_bytes() == b"".join(map(parent_line, ids, rows))
        assert path.stat().st_ino == inode
        assert os.listdir(tmp_path) == ["index.tsv"]

    def test_each_line_is_in_the_file_when_save_index_returns(self, tmp_path):
        path = tmp_path / "index.tsv"
        lines = [index_line(f"qa-{k}", row) for k, row in enumerate(self.varied_rows())]
        with open(path, "ab") as fh:
            for k, line in enumerate(lines, start=1):
                save_index(fh, line)
                assert path.read_bytes() == b"".join(lines[:k])

    def test_a_failed_write_names_the_file_and_writes_nothing_more(self, tmp_path):
        class Full(io.FileIO):
            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        path = tmp_path / "index.tsv"
        path.write_bytes(b"qa-0\t1.0\n")
        fh = io.BufferedWriter(Full(path, "a"))
        with pytest.raises(OSError) as info:
            save_index(fh, b"qa-1\t0.5\n")
        assert info.value.errno == errno.ENOSPC
        assert str(info.value) == f"[Errno {errno.ENOSPC}] cannot append to {path} (" \
                                  f"{os.strerror(errno.ENOSPC)})"
        fh.close()  # its pending bytes were dropped, so it writes nothing
        assert path.read_bytes() == b"qa-0\t1.0\n"


class TestFindViolations:
    def test_clean_index_has_none(self):
        index = QuestionIndex(threshold=0.8)
        index.check_and_insert("a", vec(1, 0))
        index.check_and_insert("b", vec(0, 1))
        assert find_violations(index) == []

    def test_bulk_loaded_duplicates_are_caught(self):
        index = QuestionIndex(threshold=0.8)
        index.add_unchecked("a", vec(1, 0))
        index.add_unchecked("b", vec(1, 0.01))
        violations = find_violations(index)
        assert len(violations) == 1
        id_a, id_b, sim = violations[0]
        assert {id_a, id_b} == {"a", "b"}
        assert sim > 0.8

    def test_pairs_match_scalar_reference_in_order(self):
        rng = np.random.default_rng(11)
        dim = 24
        rows = rng.standard_normal((60, dim))
        # Plant near-duplicates, one entry in two pairs, and copies placed
        # both before and after their originals.
        for src, dst, mix in [(3, 40, 0.1), (3, 7, 0.2), (50, 12, 0.05), (21, 22, 0.3)]:
            rows[dst] = rows[src] + mix * rng.standard_normal(dim)
        index = QuestionIndex(threshold=0.8)
        ids = [f"q{(17 * k) % 60:02d}" for k in range(60)]  # ids not in position order
        for sample_id, row in zip(ids, rows):
            index.add_unchecked(sample_id, vec(*row.tolist()))

        def scalar_cosine(a, b):
            dot = math.fsum(x * y for x, y in zip(a, b))
            return dot / math.sqrt(math.fsum(x * x for x in a) * math.fsum(y * y for y in b))

        expected = [
            (ids[i], ids[j], scalar_cosine(rows[i].tolist(), rows[j].tolist()))
            for i in range(60)
            for j in range(i + 1, 60)
        ]
        expected = [pair for pair in expected if pair[2] > 0.8]
        violations = find_violations(index)
        assert [pair[:2] for pair in violations] == [pair[:2] for pair in expected]
        for (_, _, sim), (_, _, ref) in zip(violations, expected):
            assert sim == pytest.approx(ref, abs=1e-12)
        planted = {(ids[3], ids[40]), (ids[3], ids[7]), (ids[12], ids[50]), (ids[21], ids[22])}
        assert planted <= {pair[:2] for pair in violations}


@pytest.mark.parametrize("dim", [3, 7, 64, 257, 1536])
def test_no_indexed_pair_exceeds_threshold_at_the_boundary(dim):
    """Probes at cosine 0.8 +- 1e-15 to an anchor straddle the strict bound.

    Whatever the index accepts, the violation scan must find clean, and
    the standalone cosine must give every decision's similarity bit for
    bit.
    """
    rng = np.random.default_rng(dim)
    anchor = rng.standard_normal(dim)
    anchor /= np.linalg.norm(anchor)
    index = QuestionIndex(threshold=0.8)
    stored = {"anchor": vec(*anchor.tolist())}
    index.check_and_insert("anchor", stored["anchor"])
    accepted = 0
    for k in range(300):
        noise = rng.standard_normal(dim)
        noise -= noise.dot(anchor) * anchor
        noise /= np.linalg.norm(noise)
        cos = 0.8 + rng.uniform(-1e-15, 1e-15)
        probe = vec(*(cos * anchor + math.sqrt(1 - cos * cos) * noise).tolist())
        decision = index.check_and_insert(f"p{k}", probe)
        assert decision.nearest_similarity == cosine_similarity(
            stored[decision.nearest_id], probe
        )
        if decision.accepted:
            accepted += 1
            stored[f"p{k}"] = probe
            assert cosine_similarity(stored["anchor"], probe) <= 0.8
    assert 0 < accepted < 300  # both sides of the boundary were exercised
    assert find_violations(index) == []


def brute_force_nearest(entries, probe: np.ndarray):
    """Independent reference: nearest stored entry by cosine, ties to earliest."""
    best_id, best_sim = None, -math.inf
    for entry_id, stored in entries:
        sim = cosine_similarity(stored, probe)
        if sim > best_sim:
            best_id, best_sim = entry_id, sim
    return best_id, best_sim


@settings(deadline=None, max_examples=10)
@given(st.data())
def test_index_matches_brute_force(data):
    """Randomized equivalence with an exact linear scan.

    Ten hypothesis examples at up to a few hundred vectors each, plus
    the dedicated acceptance sweep, keep the decision path honest for
    odd dimensions and thresholds.
    """
    dim = data.draw(st.integers(min_value=8, max_value=96), label="dim")
    count = data.draw(st.integers(min_value=2, max_value=200), label="count")
    threshold = data.draw(st.floats(min_value=0.1, max_value=0.99), label="threshold")
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")

    rng = np.random.default_rng(seed)
    vectors = [rng.standard_normal(dim) for _ in range(count)]
    index = QuestionIndex(threshold=threshold)
    accepted: list[tuple[str, np.ndarray]] = []
    for i, vector in enumerate(vectors):
        expected_id, expected_sim = brute_force_nearest(accepted, vector)
        decision = index.check_and_insert(f"v{i}", vector)
        if expected_id is None:
            assert decision.accepted
        else:
            assert decision.nearest_id == expected_id
            assert decision.nearest_similarity == pytest.approx(expected_sim, abs=1e-9)
            assert decision.accepted == (expected_sim <= threshold)
        if decision.accepted:
            accepted.append((f"v{i}", vector))
    assert len(index) == len(accepted)
