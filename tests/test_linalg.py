import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

import tywha.algebra as algebra
import tywha.coideals as coideals
import tywha.linalg as linalg
from tywha.algebra import TYAlgebra
from tywha.classify import realize_and_verify, weak_coideal_classes
from tywha.coideals import center, fixed_point_algebra, is_indecomposable, verify_weak_coideal
from tywha.errors import StructuralError
from tywha.groups import Bicharacter, FiniteAbelianGroup
from reference import (
    add_scaled, antipode, basis_vectors, counit, distance, eps_t, lstsq_haar, one, places_components, propagated_labels,
    subspace, unique_sums,
)
from tywha.linalg import (
    ROUNDOFF,
    SparseVec,
    Subspace,
    components,
    nullity,
    nullspace,
    sparse_nullspace,
    tensor_contains,
)


def sv(**kw):
    return SparseVec({k: complex(v) for k, v in kw.items()})


class TestSparseVec:
    def test_arithmetic(self):
        a = sv(x=1, y=2j)
        b = sv(y=1, z=-1)
        assert (a + b).data == {"x": 1, "y": 1 + 2j, "z": -1}
        assert (a - b).data == {"x": 1, "y": -1 + 2j, "z": 1}
        assert (2 * a)["y"] == 4j
        assert a.conj()["y"] == -2j

    def test_prune_and_norm(self):
        a = sv(x=1e-12, y=1)
        assert a.prune().data == {"y": 1}
        assert a.norm() == pytest.approx(1.0)

    def test_distance(self):
        assert distance(sv(x=1), sv(x=1, y=1e-3)) == pytest.approx(1e-3)


def _stepped(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.inf if ulps > 0 else -np.inf))
    return x


# numpy's complex abs puts this value at or below ROUNDOFF, Python's abs above it
NEAR_ROUNDOFF = -9.97242697622122e-13 - 7.420917759518232e-14j


class TestPruneRule:
    """Every prune keeps a value exactly when its modulus, as Python's abs
    takes it, exceeds ROUNDOFF."""

    @staticmethod
    def values() -> np.ndarray:
        """The value above and its neighbours a few ulps away on both parts,
        on both sides of ROUNDOFF."""
        z = NEAR_ROUNDOFF
        near = [complex(_stepped(z.real, dr), _stepped(z.imag, di)) for dr in range(-6, 7) for di in range(-3, 4)]
        return np.array([z, *near, 2 * z, z / 2, 0j])

    def expected(self) -> np.ndarray:
        out = np.array([abs(v) > ROUNDOFF for v in self.values().tolist()])
        assert out[0] and out.any() and not out.all()
        return out

    def test_scalar_reference(self):
        vals = self.values()
        kept = SparseVec(dict(enumerate(vals.tolist()))).prune()
        assert sorted(kept.keys()) == np.flatnonzero(self.expected()).tolist()

    def test_keyed_sum_prune(self):
        vals = self.values()
        keys, sums = linalg._pruned(np.arange(len(vals)), vals)
        assert keys.tolist() == np.flatnonzero(self.expected()).tolist()
        assert sums.tolist() == vals[self.expected()].tolist()

    def test_dense_row_prune(self):
        vals = self.values()
        rows = linalg._pruned_rows(np.stack([vals, vals[::-1]]))
        assert (rows[0] != 0).tolist() == self.expected().tolist()
        assert (rows[1] != 0).tolist() == self.expected()[::-1].tolist()
        assert rows[0][self.expected()].tolist() == vals[self.expected()].tolist()

    def test_components(self):
        vals, n = self.values(), len(self.values())
        held = np.zeros(n, dtype=bool)
        for _, cols, blocks in components(np.arange(n), np.arange(n), vals, n):
            if blocks.shape[1]:  # a column with no kept entry is a (0, 1) component
                held[cols.ravel()] = True
                assert blocks.ravel().tolist() == vals[cols.ravel()].tolist()
        assert held.tolist() == self.expected().tolist()

    def test_sums_add_in_input_order(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 40, size=2000)
        vals = (rng.normal(size=2000) + 1j * rng.normal(size=2000)) * 10.0 ** rng.integers(-14, 6, size=2000)
        loop: dict = {}
        for k, v in zip(keys.tolist(), vals.tolist()):
            loop[k] = loop.get(k, 0.0) + v
        uniq, sums = linalg._sums(keys, vals)
        assert uniq.tolist() == sorted(loop)
        want = np.array([loop[k] for k in sorted(loop)])
        assert sums.real.tobytes() == want.real.tobytes()
        assert sums.imag.tobytes() == want.imag.tobytes()


class TestSubspace:
    def test_span_empty(self):
        assert subspace([]).dim == 0

    def test_span_dependent(self):
        v = sv(a=1, b=2)
        assert subspace([v, 2 * v]).dim == 1

    def test_span_three_vectors_rank_two(self):
        s = subspace([sv(a=1), sv(b=1), sv(a=1, b=1)])
        assert s.dim == 2

    def test_contains(self):
        s = subspace([sv(a=1)])
        assert s.contains(sv(a=1 + 1e-12))
        assert not s.contains(sv(b=1))
        assert s.contains(SparseVec())

    def test_contains_key_outside_universe(self):
        s = subspace([sv(a=1)])
        assert not s.contains(sv(a=1, zz=0.5))

    def test_intersect(self):
        s = subspace([sv(a=1), sv(b=1)])
        t = subspace([sv(b=1), sv(c=1)])
        meet = s.intersect(t)
        assert meet.dim == 1
        assert meet.contains(sv(b=1))

    def test_intersect_with_zero(self):
        s = subspace([sv(a=1)])
        assert s.intersect(subspace([])).dim == 0

    def test_membership_invariant_under_reordering(self):
        rng = np.random.default_rng(11)
        keys = list(range(6))
        vecs = [
            SparseVec({k: complex(*rng.normal(size=2)) for k in keys})
            for _ in range(3)
        ]
        probe = vecs[0] + 0.5 * vecs[2]
        for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            s = subspace([vecs[i] for i in perm])
            assert s.contains(probe)
            assert not s.contains(SparseVec({7: 1.0}))

    def test_dimension_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            keys = list(range(n))

            def rand_vecs(count):
                return [
                    SparseVec({k: complex(*rng.normal(size=2)) for k in keys})
                    for _ in range(count)
                ]

            s = subspace(rand_vecs(int(rng.integers(0, n + 1))))
            t = subspace(rand_vecs(int(rng.integers(0, n + 1))))
            total = subspace(basis_vectors(s) + basis_vectors(t))
            meet = s.intersect(t)
            assert s.dim + t.dim == total.dim + meet.dim

    def test_deterministic_bit_for_bit(self):
        vecs = [sv(a=1.5, b=-2, c=0.25), sv(b=1, d=3), sv(a=1, c=1, d=1)]
        s1 = subspace(list(vecs))
        s2 = subspace(list(vecs))
        assert np.array_equal(s1.basis, s2.basis)
        assert s1.pivots == s2.pivots
        assert s1.universe.tolist() == s2.universe.tolist()

    def test_coordinates_roundtrip(self):
        s = subspace([sv(a=1, b=1), sv(b=1, c=2)])
        v = sv(a=2, b=3, c=2)
        assert s.contains(v)
        coords = s.coordinates(v)
        rebuilt = SparseVec()
        for c, row in zip(coords, basis_vectors(s)):
            add_scaled(rebuilt, row, c)
        assert distance(rebuilt, v) < 1e-9

    def test_basis_vectors_keep_entries_below_tolerance(self):
        # the verdict tolerance must not prune the vectors that span the space
        s = subspace([SparseVec({0: 1, 1: 0.2})], eps=0.3)
        assert [v.data for v in basis_vectors(s)] == [{0: 1, 1: 0.2}]

    def test_pivot_block_is_identity(self):
        # complex pivots divide into themselves inexactly about one time in
        # five; the residuals rely on an exact identity pivot block
        rng = np.random.default_rng(0)
        vecs = [
            SparseVec(dict(enumerate(rng.standard_normal(6) + 1j * rng.standard_normal(6))))
            for _ in range(4)
        ]
        s = subspace(vecs)
        assert np.array_equal(s.basis[:, s.pivots], np.eye(4))

    def test_dense_rows_reduce_as_sparse_vectors(self):
        # the span of dense rows over keys is that of the same rows as sparse
        # vectors, bit for bit, and a zero row or a repeat changes nothing
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        rows[1] = 0.0
        rows[3] = rows[0]
        keys = np.array([2, 3, 5, 7, 11])
        dense = Subspace(keys, rows)
        sparse = subspace([SparseVec(dict(zip(keys.tolist(), row))) for row in rows if row.any()])
        assert dense.universe.tolist() == sparse.universe.tolist() == keys.tolist()
        assert dense.pivots == sparse.pivots and dense.basis.tobytes() == sparse.basis.tobytes()
        assert dense.dim == 2 and dense.contains(SparseVec({7: rows[2, 3], 2: rows[2, 0], 3: rows[2, 1],
                                                            5: rows[2, 2], 11: rows[2, 4]}))

    def test_intersection_keeps_only_keys_with_an_entry(self):
        s = subspace([sv(a=1), sv(b=1)])
        t = subspace([sv(b=1), sv(c=1)])
        meet = s.intersect(t)
        assert meet.universe.tolist() == ["b"]
        assert [v.data for v in basis_vectors(meet)] == [{"b": 1}]

    def test_contains_batch_matches_contains(self):
        s = subspace([sv(a=1, b=2)])
        probes = [sv(a=2, b=4), sv(a=1), SparseVec(), sv(zz=1)]
        margins = s.contains_batch(probes)
        assert [m <= 0 for m in margins] == [s.contains(p) for p in probes]


class TestTensorContains:
    def test_full_right_leg(self):
        left = subspace([sv(a=1)])
        t = SparseVec({("a", "p"): 1.0, ("a", "q"): 2.0})
        assert tensor_contains(t, left, None)
        t_bad = t + SparseVec({("b", "p"): 1.0})
        assert not tensor_contains(t_bad, left, None)

    def test_restricted_right_leg(self):
        left = subspace([sv(a=1)])
        right = subspace([SparseVec({"p": 1.0, "q": 1.0})])
        good = SparseVec({("a", "p"): 1.0, ("a", "q"): 1.0})
        assert tensor_contains(good, left, right)
        bad_right = SparseVec({("a", "p"): 1.0})
        assert not tensor_contains(bad_right, left, right)
        bad_left = SparseVec({("b", "p"): 1.0, ("b", "q"): 1.0})
        assert not tensor_contains(bad_left, left, right)


def _random(rng, m, n, rank):
    left = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
    return left @ (rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n)))


class TestNullspace:
    """nullspace against a full-SVD reference, one matrix of a stack at a
    time: same dimension, same span; nullity counts its rows per matrix."""

    @pytest.mark.parametrize(
        "m, n, rank",
        [
            (12, 5, 5),  # tall, full rank: trivial kernel
            (12, 5, 3),  # tall, rank-deficient
            (6, 6, 6),  # square, invertible
            (6, 6, 4),  # square, rank-deficient
            (3, 7, 3),  # wide: a thin V would drop 4 null vectors
            (4, 7, 2),  # wide, rank-deficient
            (5, 4, 0),  # zero matrix
        ],
    )
    def test_matches_full_svd(self, m, n, rank):
        rng = np.random.default_rng(m * n + rank)
        # the parametrised rank among full-rank matrices scaled up and down:
        # each matrix gets its own cutoff, so the last keeps its full rank
        ranks = [min(m, n), rank, min(m, n), min(m, n)]
        scales = np.array([1.0, 1.0, 1e6, 1e-6])[:, None, None]
        mats = np.stack([_random(rng, m, n, r) for r in ranks]) * scales
        null, which = nullspace(mats)
        assert np.array_equal(which, np.repeat(np.arange(4), [n - r for r in ranks]))
        assert np.array_equal(nullity(mats), np.bincount(which, minlength=4))
        for mat, r, kernel in zip(mats, ranks, (null[which == i] for i in range(4))):
            _, s, vh = np.linalg.svd(mat, full_matrices=True)
            ref = vh[int(np.sum(s > 1e-9 * max(1.0, s[0]))):].conj()
            assert kernel.shape == ref.shape == (n - r, n)
            assert np.allclose(mat @ kernel.T, 0.0, atol=1e-9 * max(1.0, s[0]))
            # equal spans: equal orthogonal projectors onto them
            assert np.allclose(kernel.T @ kernel.conj(), ref.T @ ref.conj(), atol=1e-9)

    @pytest.mark.parametrize("m, n", [(0, 5), (5, 0), (0, 0)])
    def test_empty(self, m, n):
        mats = np.zeros((2, m, n), dtype=complex)
        null, which = nullspace(mats)
        assert np.array_equal(null, np.vstack([np.eye(n)] * 2))
        assert np.array_equal(which, np.repeat([0, 1], n))
        assert np.array_equal(nullity(mats), np.bincount(which, minlength=2))


def _block_system(rng):
    """A row- and column-permuted block-diagonal complex matrix as triples,
    with duplicate entries that sum and a pair that cancels below ROUNDOFF
    across two blocks, and the dense matrix it sums to.  Three blocks share
    the shape (3, 3): one of full rank, one rank-deficient and one of rank
    zero at the cutoff (every entry near 1e-11, above ROUNDOFF)."""
    blocks = [
        _random(rng, 3, 2, 2),  # tall, full column rank
        _random(rng, 4, 4, 2),  # rank-deficient
        _random(rng, 2, 3, 2),  # wide
        _random(rng, 3, 3, 3),  # full rank
        np.zeros((0, 2)),  # two columns in no row
        _random(rng, 3, 3, 2),  # rank-deficient
        _random(rng, 3, 3, 3) * 1e-11,  # zero rank at the cutoff
    ]
    m, n = sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)
    dense = np.zeros((m, n), dtype=complex)
    r0 = c0 = 0
    for b in blocks:
        dense[r0:r0 + b.shape[0], c0:c0 + b.shape[1]] = b
        r0, c0 = r0 + b.shape[0], c0 + b.shape[1]
    row_perm, col_perm = rng.permutation(m), rng.permutation(n)
    dense = dense[np.ix_(row_perm, col_perm)]
    rows, cols = np.nonzero(dense)
    vals = dense[rows, cols]
    # split every entry into two halves that sum back to it
    rows, cols = np.tile(rows, 2), np.tile(cols, 2)
    vals = np.concatenate([vals / 2, vals / 2])
    # an entry linking the first two blocks, cancelled to 1e-13 by its partner
    r = int(np.flatnonzero(row_perm == 0)[0])
    c = int(np.flatnonzero(col_perm == 2)[0])
    rows, cols = np.append(rows, [r, r]), np.append(cols, [c, c])
    vals = np.append(vals, [0.7, -0.7 + 1e-13])
    return rows, cols, vals, dense


# kernel dimension of each block of _block_system, in its order
BLOCK_KERNELS = [0, 2, 1, 0, 2, 1, 3]


def reference_components(rows, cols, vals, n):
    """``components`` one component at a time, by plain Python union-find:
    yields (row ids, column ids, block) in order of lowest column."""
    sums: dict = {}
    for key, v in zip(zip(rows.tolist(), cols.tolist()), vals.tolist()):
        sums[key] = sums.get(key, 0.0) + v
    entries = {key: v for key, v in sums.items() if abs(v) > ROUNDOFF}
    parent = list(range(n))

    def root(j):
        while parent[j] != j:
            j = parent[j]
        return j

    first_col: dict = {}
    for i, j in entries:
        a, b = root(j), root(first_col.setdefault(i, j))
        parent[max(a, b)] = min(a, b)  # a root is the lowest column of its set
    lead = [root(j) for j in range(n)]
    col_sets: dict = {}
    for j in range(n):
        col_sets.setdefault(lead[j], []).append(j)
    found: dict = {}
    for (i, j), v in entries.items():
        found.setdefault(lead[j], []).append((i, j, v))
    for c in sorted(col_sets):
        ids, here = col_sets[c], found.get(c, [])
        row = sorted({i for i, _, _ in here})
        block = np.zeros((len(row), len(ids)), dtype=complex)
        for i, j, v in here:
            block[row.index(i), ids.index(j)] = v
        yield np.array(row, dtype=int), np.array(ids), block


def reference_sparse_nullspace(rows, cols, vals, n):
    """``sparse_nullspace`` by ``nullspace`` on each component in order of
    lowest column."""
    out = [np.zeros((0, n), dtype=complex)]
    for _, ids, block in reference_components(rows, cols, vals, n):
        null, _ = nullspace(block[None])
        out.append(np.zeros((len(null), n), dtype=complex))
        out[-1][:, ids] = null
    return np.vstack(out)


def _unstacked(stacks):
    return [part for stack in stacks for part in zip(*stack)]


class TestComponents:
    def test_blocks_partition_the_system(self):
        rows, cols, vals, dense = _block_system(np.random.default_rng(3))
        stacks = list(components(rows, cols, vals, dense.shape[1]))
        parts = _unstacked(stacks)
        # two columns in no row are components of their own
        assert sorted(len(ids) for _, ids, _ in parts) == [1, 1, 2, 3, 3, 3, 3, 4]
        assert sorted(np.concatenate([ids for _, ids, _ in parts])) == list(range(dense.shape[1]))
        assert sorted(np.concatenate([r for r, _, _ in parts])) == list(range(dense.shape[0]))
        covered = np.zeros(dense.shape, dtype=bool)
        for r, ids, block in parts:
            assert np.all(np.diff(r) > 0) and np.all(np.diff(ids) > 0)
            assert np.allclose(block, dense[np.ix_(r, ids)], atol=1e-15)
            covered[np.ix_(r, ids)] = True
        assert not dense[~covered].any()
        for r, ids, blocks in stacks:
            assert r.shape == blocks.shape[:2] and ids.shape == (len(blocks), blocks.shape[2])
            assert np.all(np.diff(ids[:, 0]) > 0)  # a stack runs in order of lowest column

    def test_one_stack_per_shape(self):
        rows, cols, vals, dense = _block_system(np.random.default_rng(4))
        stacks = list(components(rows, cols, vals, dense.shape[1]))
        shapes = [blocks.shape[1:] for _, _, blocks in stacks]
        assert sorted(shapes) == [(0, 1), (2, 3), (3, 2), (3, 3), (4, 4)]
        assert {blocks.shape[1:]: len(blocks) for _, _, blocks in stacks}[3, 3] == 3

    def test_matches_reference_bit_for_bit(self):
        for seed in range(5):
            rows, cols, vals, dense = _block_system(np.random.default_rng(seed))
            n = dense.shape[1]
            want = {int(ids[0]): (r, ids, block) for r, ids, block in reference_components(rows, cols, vals, n)}
            parts = _unstacked(components(rows, cols, vals, n))
            assert len(parts) == len(want)
            for r, ids, block in parts:
                ref = want[int(ids[0])]
                assert all(np.array_equal(x, y) for x, y in zip((r, ids, block), ref))
            kernel = sparse_nullspace(rows, cols, vals, n)
            assert np.array_equal(kernel, reference_sparse_nullspace(rows, cols, vals, n))

    def test_nullspace_matches_dense(self):
        for seed in range(5):
            rows, cols, vals, dense = _block_system(np.random.default_rng(seed))
            kernel = sparse_nullspace(rows, cols, vals, dense.shape[1])
            ref, _ = nullspace(dense[None])
            assert kernel.shape == ref.shape == (sum(BLOCK_KERNELS), dense.shape[1])
            assert np.allclose(dense @ kernel.T, 0.0, atol=1e-9)
            assert np.allclose(kernel.T @ kernel.conj(), ref.T @ ref.conj(), atol=1e-9)

    def test_cancelled_entries_are_dropped(self):
        rows, cols = np.array([0, 0, 1]), np.array([0, 1, 1])
        vals = np.array([1.0, ROUNDOFF / 2, 1.0], dtype=complex)
        stacks = list(components(rows, cols, vals, 2))
        assert [ids.tolist() for _, ids, _ in stacks] == [[[0], [1]]]

    def test_empty(self):
        empty = np.array([], dtype=np.int64)
        stacks = list(components(empty, empty, empty.astype(complex), 3))
        assert [(r.shape, ids.tolist(), blocks.shape) for r, ids, blocks in stacks] == [
            ((3, 0), [[0], [1], [2]], (3, 0, 1))
        ]
        assert np.array_equal(sparse_nullspace(empty, empty, empty.astype(complex), 3), np.eye(3))
        assert sparse_nullspace(empty, empty, empty.astype(complex), 0).shape == (0, 0)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit: dtype, shape and bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_stacks(got, want) -> bool:
    """The same stacks in the same order, ids and blocks bit for bit."""
    got, want = list(got), list(want)
    return len(got) == len(want) and all(_same(x, y) for g, w in zip(got, want) for x, y in zip(g, w))


@pytest.fixture
def compare_on_verify(monkeypatch):
    """Run ``verify_axioms`` with ``linalg._sums`` and ``components`` each
    checked, call by call, against its reference; the calls and mismatches
    seen, by name."""
    seen = {"sums": [0, 0], "components": [0, 0]}
    sums, split = linalg._sums, linalg.components

    def checked_sums(keys, vals):
        got, want = sums(keys, vals), unique_sums(keys, vals)
        seen["sums"][0] += 1
        seen["sums"][1] += not all(_same(x, y) for x, y in zip(got, want))
        return got

    def checked_components(rows, cols, vals, n):
        got = list(split(rows, cols, vals, n))
        seen["components"][0] += 1
        seen["components"][1] += not _same_stacks(got, places_components(rows, cols, vals, n))
        return iter(got)

    for module in (linalg, algebra):
        monkeypatch.setattr(module, "_sums", checked_sums)
        monkeypatch.setattr(module, "components", checked_components)

    def run(factors, sign):
        report = TYAlgebra(FiniteAbelianGroup(factors), tau_sign=sign).verify_axioms()
        assert report.passed
        return seen

    return run


class TestOneSortForms:
    """``_sums`` and ``components`` against their ``np.unique`` and grouping
    references, bit for bit."""

    @pytest.mark.parametrize("size", [1, 2, 7, 100, 5000])
    def test_sums_random_keys(self, size):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            keys = rng.integers(0, max(size // 3, 1), size)
            vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            got, want = linalg._sums(keys, vals), unique_sums(keys, vals)
            assert all(_same(x, y) for x, y in zip(got, want))
            assert len(got[0]) < size or size == 1  # some keys repeat

    def test_sums_empty(self):
        keys, vals = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex)
        got, want = linalg._sums(keys, vals), unique_sums(keys, vals)
        assert all(_same(x, y) for x, y in zip(got, want)) and got[1].shape == (0,)

    def test_sums_signed_zero_inf_nan(self):
        inf, nan = np.inf, np.nan
        parts = [-0.0, 0.0, inf, -inf, nan, 1e-300, -1e308, 1e308]
        vals = np.array([complex(a, b) for a in parts for b in parts])
        keys = np.random.default_rng(5).integers(0, 9, len(vals))
        for k, v in ((keys, vals), (keys[::-1], vals), (np.zeros_like(keys), vals), (keys[:1], vals[:1])):
            with np.errstate(all="ignore"):  # inf - inf, 1j * inf and overflow warn
                got, want = linalg._sums(k, v), unique_sums(k, v)
            assert all(_same(x, y) for x, y in zip(got, want))
        # a key holding only -0.0 sums to +0.0, as bincount starts from 0.0
        _, total = linalg._sums(np.array([3, 3]), np.array([complex(-0.0, -0.0)] * 2))
        assert np.signbit(total.real).tolist() == [False] and np.signbit(total.imag).tolist() == [False]

    @pytest.mark.parametrize("factors", [(2,), (3,), (4,), (5,), (6,)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_verify_systems(self, factors, sign, compare_on_verify):
        seen = compare_on_verify(factors, sign)
        # haar, haar positivity, center and biconnectedness split their systems
        assert seen["components"] == [4, 0]
        assert seen["sums"][0] > 30 and seen["sums"][1] == 0

    def test_components_block_system(self):
        for seed in range(5):
            rows, cols, vals, dense = _block_system(np.random.default_rng(seed))
            n = dense.shape[1]
            assert _same_stacks(components(rows, cols, vals, n), places_components(rows, cols, vals, n))

    def test_components_empty(self):
        empty = np.array([], dtype=np.int64)
        for n in (0, 1, 3):
            got = components(empty, empty, empty.astype(complex), n)
            assert _same_stacks(got, places_components(empty, empty, empty.astype(complex), n))

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_components_chain(self, n):
        # a chain that zigzags through the columns, 0, 2, 4, ..., 5, 3, 1:
        # propagation needs several rounds to label it one component
        path = np.r_[np.arange(0, n, 2), np.arange(n - 1, 0, -2)]
        rows, cols = np.repeat(np.arange(n - 1), 2), np.stack([path[:-1], path[1:]], 1).ravel()
        assert propagated_labels(rows, cols, n, n - 1)[1] >= 3
        vals = np.random.default_rng(n).standard_normal(len(rows)) + 0j
        stacks = list(components(rows, cols, vals, n))
        assert _same_stacks(stacks, places_components(rows, cols, vals, n))
        assert [blocks.shape for *_, blocks in stacks] == [(1, n - 1, n)]

    def test_components_single_column_rows(self):
        # every row holds one column: the labels are final before any round
        rows, cols = np.arange(6), np.array([4, 0, 2, 4, 1, 0])
        assert propagated_labels(rows, cols, 6, 6)[1] == 1
        vals = np.arange(1, 7) + 0j
        stacks = list(components(rows, cols, vals, 6))
        assert _same_stacks(stacks, places_components(rows, cols, vals, 6))
        assert [blocks.shape for *_, blocks in stacks] == [(2, 0, 1), (2, 1, 1), (2, 2, 1)]


def _dense_haar(alg):
    """The invariant functional by one dense least-squares solve of its
    defining system, built from the scalar structure maps.  A consistent
    system of full column rank has the same solution on its distinct rows,
    so each (row, right side) is kept once."""
    dim = alg.dim
    system: dict = {}

    def add(row, rhs):
        system.setdefault(row.tobytes() + np.complex128(rhs).tobytes(), (row, rhs))

    basis = SparseVec.basis
    for b in range(dim):
        # (id (x) h) Delta(u_b) = (eps_t (x) h) Delta(u_b), one row per output unit
        eqs: dict = {}
        for (i, j), c in alg.coproduct(basis(b)).items():
            eqs.setdefault(i, np.zeros(dim, dtype=complex))[j] += c
            for k, e in eps_t(alg, basis(i)).items():
                eqs.setdefault(k, np.zeros(dim, dtype=complex))[j] -= c * e
        for row in eqs.values():
            if row.any():
                add(row, 0.0)
        # h(S(u_b)) = h(u_b) and h(eps_t(u_b)) = eps(u_b)
        inv, norm = np.zeros(dim, dtype=complex), np.zeros(dim, dtype=complex)
        for k, c in antipode(alg, basis(b)).items():
            inv[k] += c
        inv[b] -= 1.0
        for k, c in eps_t(alg, basis(b)).items():
            norm[k] += c
        add(inv, 0.0)
        add(norm, counit(alg, basis(b)))
    # (id (x) h) Delta(1) = 1
    eqs = np.zeros((dim, dim), dtype=complex)
    unit = one(alg)
    for (i, j), c in alg.coproduct(unit).items():
        eqs[i, j] += c
    for i in range(dim):
        add(eqs[i], unit[i])
    mat = np.array([row for row, _ in system.values()])
    vec = np.array([rhs for _, rhs in system.values()], dtype=complex)
    coeffs, _, rank, _ = np.linalg.lstsq(mat, vec, rcond=None)
    assert rank == dim
    assert np.abs(mat @ coeffs - vec).max() < 1e-12
    return coeffs


def _haar_rank(alg) -> int:
    """The rank ``haar`` finds: dim, or the rank it reports when the
    solution is not unique."""
    try:
        alg.haar()
    except StructuralError as err:
        return int(re.fullmatch(r"invariant functional is not unique \(rank (\d+) < \d+\)", str(err))[1])
    return alg.dim


HYPERBOLIC = ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0)))
STANDARD = [(2,), (3,), (2, 2), (4,), (5,), (6,), (8,), (2, 4)]


class TestHaarSolve:
    # the standard data keep their ids; then 2/3 on Z3 and the hyperbolic Z2xZ2
    @pytest.mark.parametrize(
        "factors,phases",
        [*((f, None) for f in STANDARD), ((3,), ((Fraction(2, 3),),)), ((2, 2), HYPERBOLIC)],
        ids=[*(f"factors{i}" for i in range(len(STANDARD))), "3-two-thirds", "2x2-hyperbolic"],
    )
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_dense_solve(self, factors, phases, sign):
        grp = FiniteAbelianGroup(factors)
        alg = TYAlgebra(grp, Bicharacter(grp, phases) if phases else None, tau_sign=sign)
        h = alg.haar()
        closed = np.zeros(alg.dim, dtype=complex)
        closed[alg._layout.zero_units] = 1.0 / (grp.order + 1)
        assert h.coeffs.tobytes() == closed.tobytes()
        assert np.abs(h.coeffs - _dense_haar(alg)).max() < 1e-12
        assert np.abs(h.coeffs - lstsq_haar(*alg._haar_system(), alg.dim)[0]).max() < 1e-12
        assert h.residual < 1e-12

    @pytest.mark.parametrize("factors", [(2,), (3,), (2, 2), (5,)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_rank_matches_lstsq_reference(self, factors, sign, monkeypatch):
        alg = TYAlgebra(FiniteAbelianGroup(factors), tau_sign=sign)
        rows, cols, vals, rhs = alg._haar_system()
        coeffs, rank = lstsq_haar(rows, cols, vals, rhs, alg.dim)
        assert rank == _haar_rank(alg) == alg.dim
        assert np.abs(alg.haar().coeffs - coeffs).max() < 1e-12
        # without a random part of the rows the system stays consistent (a
        # dropped leading row takes its right side along), and its rank falls
        ranks = set()
        for seed, share in itertools.product(range(3), (0.3, 0.6, 0.9)):
            keep = np.random.default_rng(seed).random(rows.max() + 1) < share
            part = keep[rows]
            short = np.where(keep[:len(rhs)], rhs, 0.0)
            system = (rows[part], cols[part], vals[part], short)
            monkeypatch.setattr(alg, "_haar_system", lambda system=system: system)
            want = lstsq_haar(*system, alg.dim)[1]
            assert _haar_rank(alg) == want
            ranks.add(want)
        assert min(ranks) < alg.dim
        # an m-block column, where h vanishes, scaled to 1e-11: a singular
        # value below the rank cutoff but above lstsq's own
        scaled = (rows, cols, np.where(cols == alg.dim - 1, vals * 1e-11, vals), rhs)
        monkeypatch.setattr(alg, "_haar_system", lambda: scaled)
        assert _haar_rank(alg) == lstsq_haar(*scaled, alg.dim)[1] == alg.dim - 1

    def test_zeroed_column_not_unique(self, monkeypatch):
        alg = TYAlgebra(FiniteAbelianGroup((2,)))
        col = alg.dim - 1  # an m-block unit, where h vanishes: the rest stays consistent
        assert alg.haar().coeffs[col] == 0

        def without_column(rows, cols, vals, n):
            keep = cols != col
            return components(rows[keep], cols[keep], vals[keep], n)

        monkeypatch.setattr(algebra, "components", without_column)
        with pytest.raises(StructuralError, match="not unique"):
            alg.haar()


def _stacks_of_one(rows, cols, vals, n):
    for r, ids, block in reference_components(rows, cols, vals, n):
        yield r[None], ids[None], block[None]


def _bits(space):
    return space.universe.tolist(), space.pivots, space.basis.shape, space.basis.tobytes()


def _coideal_invariants(factors, sign):
    """verify_weak_coideal, center, fixed_point_algebra and is_indecomposable
    on the coideal that realize_and_verify builds for each class."""
    alg = TYAlgebra(FiniteAbelianGroup(factors), tau_sign=sign)
    built = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coideals, "verify_weak_coideal",
                   lambda batch, fibers=None: built.extend(batch) or verify_weak_coideal(batch, fibers))
        realize_and_verify(alg, weak_coideal_classes(alg.group, alg.bichar)[1])
    return [
        (verify_weak_coideal([wc])[0].to_dict(), _bits(center(wc)), _bits(fixed_point_algebra(wc)),
         is_indecomposable([wc])[0])
        for wc in built
    ]


class TestStacksMatchComponents:
    """Every result built on ``components`` is bit-identical when each
    component comes as a stack of one, by the reference."""

    @pytest.fixture
    def one_by_one(self, monkeypatch):
        def patch():
            monkeypatch.setattr(linalg, "components", _stacks_of_one)
            monkeypatch.setattr(algebra, "components", _stacks_of_one)

        return patch

    @pytest.mark.parametrize("factors", [(2,), (3,), (4,), (2, 2)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_verify_axioms(self, factors, sign, one_by_one):
        def report():
            return TYAlgebra(FiniteAbelianGroup(factors), tau_sign=sign).verify_axioms().to_dict()

        stacked = report()
        one_by_one()
        assert report() == stacked

    @pytest.mark.parametrize("factors", [(2,), (3,)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_realized_coideals(self, factors, sign, one_by_one):
        stacked = _coideal_invariants(factors, sign)
        one_by_one()
        assert _coideal_invariants(factors, sign) == stacked
