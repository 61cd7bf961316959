import numpy as np
import pytest

from tywha.algebra import TYAlgebra
from tywha.errors import StructuralError
from tywha.groups import FiniteAbelianGroup
from tywha.linalg import (
    ROUNDOFF,
    SparseVec,
    Subspace,
    components,
    distance,
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
        assert a.prune(1e-9).data == {"y": 1}
        assert a.norm() == pytest.approx(1.0)

    def test_distance(self):
        assert distance(sv(x=1), sv(x=1, y=1e-3)) == pytest.approx(1e-3)


class TestSubspace:
    def test_span_empty(self):
        assert Subspace([]).dim == 0

    def test_span_dependent(self):
        v = sv(a=1, b=2)
        assert Subspace([v, 2 * v]).dim == 1

    def test_span_three_vectors_rank_two(self):
        s = Subspace([sv(a=1), sv(b=1), sv(a=1, b=1)])
        assert s.dim == 2

    def test_contains(self):
        s = Subspace([sv(a=1)])
        assert s.contains(sv(a=1 + 1e-12))
        assert not s.contains(sv(b=1))
        assert s.contains(SparseVec())

    def test_contains_key_outside_universe(self):
        s = Subspace([sv(a=1)])
        assert not s.contains(sv(a=1, zz=0.5))

    def test_intersect(self):
        s = Subspace([sv(a=1), sv(b=1)])
        t = Subspace([sv(b=1), sv(c=1)])
        meet = s.intersect(t)
        assert meet.dim == 1
        assert meet.contains(sv(b=1))

    def test_intersect_with_zero(self):
        s = Subspace([sv(a=1)])
        assert s.intersect(Subspace([])).dim == 0

    def test_membership_invariant_under_reordering(self):
        rng = np.random.default_rng(11)
        keys = list(range(6))
        vecs = [
            SparseVec({k: complex(*rng.normal(size=2)) for k in keys})
            for _ in range(3)
        ]
        probe = vecs[0] + 0.5 * vecs[2]
        for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            s = Subspace([vecs[i] for i in perm])
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

            s = Subspace(rand_vecs(int(rng.integers(0, n + 1))))
            t = Subspace(rand_vecs(int(rng.integers(0, n + 1))))
            total = Subspace(s.basis_vectors() + t.basis_vectors())
            meet = s.intersect(t)
            assert s.dim + t.dim == total.dim + meet.dim

    def test_deterministic_bit_for_bit(self):
        vecs = [sv(a=1.5, b=-2, c=0.25), sv(b=1, d=3), sv(a=1, c=1, d=1)]
        s1 = Subspace(list(vecs))
        s2 = Subspace(list(vecs))
        assert np.array_equal(s1.basis, s2.basis)
        assert s1.pivots == s2.pivots
        assert s1.universe == s2.universe

    def test_coordinates_roundtrip(self):
        s = Subspace([sv(a=1, b=1), sv(b=1, c=2)])
        v = sv(a=2, b=3, c=2)
        assert s.contains(v)
        coords = s.coordinates(v)
        rebuilt = SparseVec()
        for c, row in zip(coords, s.basis_vectors()):
            rebuilt.add_scaled(row, c)
        assert distance(rebuilt, v) < 1e-9

    def test_basis_vectors_keep_entries_below_tolerance(self):
        # the verdict tolerance must not prune the vectors that span the space
        s = Subspace([SparseVec({0: 1, 1: 0.2})], eps=0.3)
        assert [v.data for v in s.basis_vectors()] == [{0: 1, 1: 0.2}]

    def test_pivot_block_is_identity(self):
        # complex pivots divide into themselves inexactly about one time in
        # five; the residuals rely on an exact identity pivot block
        rng = np.random.default_rng(0)
        vecs = [
            SparseVec(dict(enumerate(rng.standard_normal(6) + 1j * rng.standard_normal(6))))
            for _ in range(4)
        ]
        s = Subspace(vecs)
        assert np.array_equal(s.basis[:, s.pivots], np.eye(4))

    def test_contains_batch_matches_contains(self):
        s = Subspace([sv(a=1, b=2)])
        probes = [sv(a=2, b=4), sv(a=1), SparseVec(), sv(zz=1)]
        margins = s.contains_batch(probes)
        assert [m <= 0 for m in margins] == [s.contains(p) for p in probes]


class TestTensorContains:
    def test_full_right_leg(self):
        left = Subspace([sv(a=1)])
        t = SparseVec({("a", "p"): 1.0, ("a", "q"): 2.0})
        assert tensor_contains(t, left, None)
        t_bad = t + SparseVec({("b", "p"): 1.0})
        assert not tensor_contains(t_bad, left, None)

    def test_restricted_right_leg(self):
        left = Subspace([sv(a=1)])
        right = Subspace([SparseVec({"p": 1.0, "q": 1.0})])
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
    """nullspace against a full-SVD reference: same dimension, same span."""

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
        mat = _random(np.random.default_rng(m * n + rank), m, n, rank)
        kernel = nullspace(mat)
        _, s, vh = np.linalg.svd(mat, full_matrices=True)
        ref = vh[int(np.sum(s > 1e-9 * max(1.0, s[0]))):].conj()
        assert kernel.shape == ref.shape == (n - rank, n)
        assert np.allclose(mat @ kernel.T, 0.0, atol=1e-9)
        # equal spans: equal orthogonal projectors onto them
        assert np.allclose(kernel.T @ kernel.conj(), ref.T @ ref.conj(), atol=1e-9)

    @pytest.mark.parametrize("m, n", [(0, 5), (5, 0), (0, 0)])
    def test_empty(self, m, n):
        kernel = nullspace(np.zeros((m, n), dtype=complex))
        assert np.array_equal(kernel, np.eye(n))


def _block_system(rng):
    """A row- and column-permuted block-diagonal complex matrix as triples,
    with duplicate entries that sum and a pair that cancels below ROUNDOFF
    across two blocks, and the dense matrix it sums to."""
    blocks = [
        _random(rng, 3, 2, 2),  # full column rank
        _random(rng, 4, 4, 2),  # rank-deficient
        _random(rng, 2, 3, 2),  # wide
        np.zeros((0, 2)),  # two columns in no row
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


class TestComponents:
    def test_blocks_partition_the_system(self):
        rows, cols, vals, dense = _block_system(np.random.default_rng(3))
        parts = list(components(rows, cols, vals, dense.shape[1]))
        # two columns in no row are components of their own
        assert sorted(len(ids) for _, ids, _ in parts) == [1, 1, 2, 3, 4]
        assert sorted(np.concatenate([ids for _, ids, _ in parts])) == list(range(dense.shape[1]))
        assert sorted(np.concatenate([r for r, _, _ in parts])) == list(range(dense.shape[0]))
        covered = np.zeros(dense.shape, dtype=bool)
        for r, ids, block in parts:
            assert np.all(np.diff(r) > 0) and np.all(np.diff(ids) > 0)
            assert np.allclose(block, dense[np.ix_(r, ids)], atol=1e-15)
            covered[np.ix_(r, ids)] = True
        assert not dense[~covered].any()
        assert [ids[0] for _, ids, _ in parts] == sorted(ids[0] for _, ids, _ in parts)

    def test_nullspace_matches_dense(self):
        for seed in range(5):
            rows, cols, vals, dense = _block_system(np.random.default_rng(seed))
            kernel = sparse_nullspace(rows, cols, vals, dense.shape[1])
            ref = nullspace(dense)
            assert kernel.shape == ref.shape == (2 + 1 + 2, dense.shape[1])
            assert np.allclose(dense @ kernel.T, 0.0, atol=1e-9)
            assert np.allclose(kernel.T @ kernel.conj(), ref.T @ ref.conj(), atol=1e-9)

    def test_cancelled_entries_are_dropped(self):
        rows, cols = np.array([0, 0, 1]), np.array([0, 1, 1])
        vals = np.array([1.0, ROUNDOFF / 2, 1.0], dtype=complex)
        parts = list(components(rows, cols, vals, 2))
        assert [list(ids) for _, ids, _ in parts] == [[0], [1]]

    def test_empty(self):
        empty = np.array([], dtype=np.int64)
        parts = list(components(empty, empty, empty.astype(complex), 3))
        assert [(list(r), list(ids), block.shape) for r, ids, block in parts] == [
            ([], [0], (0, 1)), ([], [1], (0, 1)), ([], [2], (0, 1))
        ]
        assert np.array_equal(sparse_nullspace(empty, empty, empty.astype(complex), 3), np.eye(3))
        assert sparse_nullspace(empty, empty, empty.astype(complex), 0).shape == (0, 0)


def _dense_haar(alg):
    """The invariant functional by one dense least-squares solve of its
    defining system, built from the scalar structure maps."""
    dim = alg.dim
    rows, rhs = [], []
    basis = SparseVec.basis
    for b in range(dim):
        # (id (x) h) Delta(u_b) = (eps_t (x) h) Delta(u_b), one row per output unit
        eqs = np.zeros((dim, dim), dtype=complex)
        for (i, j), c in alg.coproduct(basis(b)).items():
            eqs[i, j] += c
            for k, e in alg.eps_t(basis(i)).items():
                eqs[k, j] -= c * e
        live = eqs[eqs.any(axis=1)]
        rows.extend(live)
        rhs.extend([0.0] * len(live))
        # h(S(u_b)) = h(u_b) and h(eps_t(u_b)) = eps(u_b)
        inv, norm = np.zeros(dim, dtype=complex), np.zeros(dim, dtype=complex)
        for k, c in alg.antipode(basis(b)).items():
            inv[k] += c
        inv[b] -= 1.0
        for k, c in alg.eps_t(basis(b)).items():
            norm[k] += c
        rows += [inv, norm]
        rhs += [0.0, alg.counit(basis(b))]
    # (id (x) h) Delta(1) = 1
    eqs = np.zeros((dim, dim), dtype=complex)
    for (i, j), c in alg.coproduct_of_unit().items():
        eqs[i, j] += c
    rows.extend(eqs)
    rhs.extend(alg.unit()[i] for i in range(dim))
    mat, vec = np.array(rows), np.array(rhs, dtype=complex)
    coeffs, _, rank, _ = np.linalg.lstsq(mat, vec, rcond=None)
    assert rank == dim
    assert np.abs(mat @ coeffs - vec).max() < 1e-12
    return coeffs


class TestHaarSolve:
    @pytest.mark.parametrize("factors", [(2,), (3,), (2, 2)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_dense_solve(self, factors, sign):
        alg = TYAlgebra(FiniteAbelianGroup(factors), tau_sign=sign)
        h = alg.haar()
        assert np.abs(h.coeffs - _dense_haar(alg)).max() < 1e-12
        assert h.residual < 1e-12

    def test_zeroed_column_not_unique(self, monkeypatch):
        import tywha.algebra as algebra

        alg = TYAlgebra(FiniteAbelianGroup((2,)))
        col = alg.dim - 1  # an m-block unit, where h vanishes: the rest stays consistent
        assert alg.haar().coeffs[col] == 0

        def without_column(rows, cols, vals, n):
            keep = cols != col
            return components(rows[keep], cols[keep], vals[keep], n)

        monkeypatch.setattr(algebra, "components", without_column)
        with pytest.raises(StructuralError, match="not unique"):
            alg.haar()
