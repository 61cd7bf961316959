"""Sparse complex vectors over arbitrary ordered keys, the joins, keyed sums
and ROUNDOFF prune over index arrays that both check engines share,
subspaces of dense rows over an array of keys with membership and
intersection, and the solver of sparse linear systems by their column
components.  One fixed cutoff, RANK_CUTOFF, decides numerical rank (see
``_rank`` and ``Subspace``); the verdict tolerance eps decides none.

Echelon reduction uses a deterministic pivot rule (largest modulus, ties by
lowest key index), so identical inputs give bit-identical bases.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

import numpy as np

DEFAULT_TOL = 1e-9
# A value below this is cancellation residue, and pruning drops it.  It is
# kept apart from the verdict tolerance eps, which never prunes a value.
ROUNDOFF = 1e-12
RANK_CUTOFF = 1e-9  # relative: decides numerical rank (see _rank and Subspace)


class SparseVec:
    """Sparse complex vector: a dict from basis key to coefficient."""

    __slots__ = ("data",)

    def __init__(self, data=None):
        self.data = dict(data) if data else {}

    @classmethod
    def basis(cls, key, coeff=1.0 + 0.0j) -> "SparseVec":
        return cls({key: complex(coeff)})

    def items(self):
        return self.data.items()

    def keys(self):
        return self.data.keys()

    def get(self, key, default=0.0 + 0.0j):
        return self.data.get(key, default)

    def __getitem__(self, key):
        return self.data.get(key, 0.0 + 0.0j)

    def __len__(self):
        return len(self.data)

    def __bool__(self):
        return bool(self.data)

    def __add__(self, other: "SparseVec") -> "SparseVec":
        out = dict(self.data)
        for k, v in other.data.items():
            out[k] = out.get(k, 0.0) + v
        return SparseVec(out)

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        out = dict(self.data)
        for k, v in other.data.items():
            out[k] = out.get(k, 0.0) - v
        return SparseVec(out)

    def __neg__(self) -> "SparseVec":
        return SparseVec({k: -v for k, v in self.data.items()})

    def __mul__(self, scalar) -> "SparseVec":
        s = complex(scalar)
        return SparseVec({k: v * s for k, v in self.data.items()})

    __rmul__ = __mul__

    def conj(self) -> "SparseVec":
        return SparseVec({k: v.conjugate() for k, v in self.data.items()})

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(v) ** 2 for v in self.data.values())))

    def prune(self) -> "SparseVec":
        return SparseVec({k: v for k, v in self.data.items() if abs(v) > ROUNDOFF})

    def __repr__(self):
        terms = ", ".join(f"{k}: {v:.4g}" for k, v in sorted(self.data.items()))
        return f"SparseVec({{{terms}}})"


def _sq(x: np.ndarray) -> np.ndarray:
    """Squared modulus of each entry."""
    return x.real**2 + x.imag**2


# -- sparse joins, keyed sums and pruning over index arrays --------------------


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (s, p) with p in the half-open range [lo[s], hi[s])."""
    counts = hi - lo
    src = np.repeat(np.arange(len(counts)), counts)
    shift = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return src, shift + np.arange(len(src))


def _runs(ptr: np.ndarray, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (s, p) with p an entry of the run of ``units[s]``: run u occupies
    positions ``ptr[u]:ptr[u + 1]`` of a table sorted by its leading index."""
    return _ranges(ptr[units], ptr[units + 1])


def _join(keys: np.ndarray, sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (s, p) with ``keys[s] == sorted_keys[p]``."""
    return _ranges(
        np.searchsorted(sorted_keys, keys, "left"), np.searchsorted(sorted_keys, keys, "right")
    )


def _groups(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The start of each run of equal entries of a sorted array, and the run
    of each entry."""
    new = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=new[1:])
    start = np.flatnonzero(new)
    count = np.empty_like(start)
    count[:-1] = start[1:] - start[:-1]
    count[-1:] = len(values) - start[-1:]
    return start, np.arange(len(start)).repeat(count)


def _stable_argsort(owner: np.ndarray) -> np.ndarray:
    """``np.argsort(owner, kind="stable")`` for owners at least 0, by one
    sort of the distinct keys owner * len + index."""
    m = len(owner)
    return np.sort(owner * m + np.arange(m)) % m


def _sums(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sum of ``vals`` on each key, added in input order, as (sorted keys,
    sums).

    One stable sort puts each key's values in one run, in input order, and
    ``bincount`` over the run ids adds them one at a time, in array order,
    into a sum that starts at 0.0.  So each sum adds its key's values in
    input order from 0.0, exactly as ``bincount`` over the keys' ranks
    would: bit for bit, -0.0, inf and NaN included."""
    order, vals = np.argsort(keys, kind="stable"), np.asarray(vals, dtype=complex)
    keys = keys[order]
    start, run = _groups(keys)
    k = len(start)
    return keys[start], np.bincount(run, vals.real[order], k) + 1j * np.bincount(run, vals.imag[order], k)


def _kept(vals: np.ndarray) -> np.ndarray:
    """Whether each value survives pruning: its modulus, as Python's ``abs``
    takes it (``hypot``), exceeds ROUNDOFF.  numpy's complex ``abs`` is much
    faster and within 2 ulps of ``hypot``, so it decides every value except
    those within a few ulps of ROUNDOFF, which ``hypot`` decides."""
    mod, window = np.abs(vals), 4 * np.spacing(ROUNDOFF)
    keep = mod > ROUNDOFF - window
    near = keep & (mod <= ROUNDOFF + window)
    if near.any():
        keep[near] = np.hypot(vals.real[near], vals.imag[near]) > ROUNDOFF
    return keep


def _pruned(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sums of ``vals`` on each key, added in input order, without those
    of modulus at most ROUNDOFF, as (sorted keys, sums)."""
    keys, sums = _sums(keys, vals)
    keep = _kept(sums)
    return keys[keep], sums[keep]


def _pruned_rows(rows: np.ndarray) -> np.ndarray:
    """Dense rows with their entries of modulus at most ROUNDOFF set to 0."""
    return np.where(_kept(rows), rows, 0.0)


def _diff(lhs: tuple, rhs: tuple) -> tuple[np.ndarray, np.ndarray]:
    """|LHS - RHS| on every key of two sparse sums given as (keys, values),
    as (sorted keys, differences)."""
    keys, sums = _sums(np.concatenate([lhs[0], rhs[0]]), np.concatenate([lhs[1], -rhs[1]]))
    return keys, np.abs(sums)


def _peak(keys: np.ndarray, diff: np.ndarray) -> tuple[float, int]:
    """The largest difference and its key (0 when there are none)."""
    if not len(keys):
        return 0.0, 0
    at = int(np.argmax(diff))
    return float(diff[at]), int(keys[at])


def _worst(lhs: tuple, rhs: tuple) -> tuple[float, int]:
    """Largest |LHS - RHS| over the keys of two sparse sums, and its key."""
    return _peak(*_diff(lhs, rhs))


def _distance(lhs: tuple, rhs: tuple) -> float:
    """sup |P - Q| over the keys of two sparse sums given as (keys, values),
    each pruned by :func:`_pruned`, the modulus taken as Python's ``abs``
    takes it."""
    (pk, pv), (qk, qv) = _pruned(*lhs), _pruned(*rhs)
    _, diff = _sums(np.concatenate([pk, qk]), np.concatenate([pv, -qv]))
    return float(np.hypot(diff.real, diff.imag).max(initial=0.0))


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b on complex arrays, spelled out on real and imaginary parts as
    Python multiplies complex scalars; numpy's complex loop may round
    differently."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _rank(s: np.ndarray) -> np.ndarray:
    """Numerical rank of each matrix from its singular values ``s`` (..., r):
    the count above RANK_CUTOFF max(1, s_0), s_0 the largest."""
    cutoff = RANK_CUTOFF * np.maximum(1.0, s.max(axis=-1, initial=0.0))
    return np.sum(s > cutoff[..., None], axis=-1)


def nullspace(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The null rows of a stack of k matrices of one shape (k, m, n): rows
    spanning each {x : mat @ x = 0}, by one SVD of the whole stack, past
    each matrix's :func:`_rank`.

    Returns the rows, (N, n), and the index of the matrix each row came from,
    in order of matrix and then in SVD order.  A tall system (m >= n) is
    factored thin, since its V is already square; a wide one keeps the full
    V, whose last n - m rows are null vectors too."""
    _, m, n = mats.shape
    _, s, vh = np.linalg.svd(mats, full_matrices=m < n)
    null = np.arange(n) >= _rank(s)[:, None]
    return vh[null].conj(), np.nonzero(null)[0]


def components(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int):
    """The sparse system with entries ``vals`` at (``rows``, ``cols``) over
    n columns, split into its column components: two columns lie in one
    component when a chain of shared rows links them.

    Duplicate entries are summed and pruned by :func:`_pruned`, keyed by
    rows * n + cols.  The components are stacked by shape: yields
    ``(row ids (k, r), column ids (k, c), blocks (k, r, c))`` once per
    distinct shape (r, c), in order of r, then c, the k components of a
    stack in order of lowest column, ids ascending.  A column in no row is
    a component of shape (0, 1).  The blocks are views of one buffer."""
    if not n:
        return
    keys, vals = _pruned(rows * n + cols, vals)
    row_ids, c = np.divmod(keys, n)
    first, r = _groups(row_ids)  # the entries come by row, then column
    row_ids = row_ids[first]
    # label propagation: each row takes the lowest label of its columns, each
    # column the lowest of its rows, then labels pointer-jump to their roots;
    # done when every entry's column holds its row's lowest label already
    label = np.arange(n)
    while True:
        low = np.full(len(row_ids), n)
        np.minimum.at(low, r, label[c])
        if (label[c] == low[r]).all():
            break
        np.minimum.at(label, c, low[r])
        while not np.array_equal(label[label], label):
            label = label[label]
    # number the components by lowest column (the root), rank them by shape,
    # then number, and lay the blocks out in rank order: a stack is a run
    comp = (np.cumsum(label == np.arange(n)) - 1)[label]
    row_comp = comp[c[first]]
    width = np.bincount(comp)
    shape = np.bincount(row_comp, minlength=len(width)) * (n + 1) + width
    rank, shape = np.argsort(np.argsort(shape, kind="stable")), np.sort(shape)
    h, w = np.divmod(shape, n + 1)
    col_order, row_order = _stable_argsort(rank[comp]), _stable_argsort(rank[row_comp])
    col_end, row_end, size = np.cumsum(w), np.cumsum(h), h * w
    col_at, row_at = np.empty(n, dtype=int), np.empty(len(row_ids), dtype=int)
    col_at[col_order] = np.arange(n) - np.repeat(col_end - w, w)
    row_at[row_order] = np.arange(len(row_ids)) - np.repeat(row_end - h, h)
    at, of = np.cumsum(size) - size, rank[row_comp[r]]
    buffer = np.zeros(int(size.sum()), dtype=complex)
    buffer[at[of] + row_at[r] * w[of] + col_at[c]] = vals
    lo, _ = _groups(shape)
    for a, b in zip(lo.tolist(), np.append(lo[1:], len(w)).tolist()):
        k, rs, cs = b - a, h[a], w[a]
        yield (row_ids[row_order[row_end[a] - rs:row_end[b - 1]]].reshape(k, rs),
               col_order[col_end[a] - cs:col_end[b - 1]].reshape(k, cs),
               buffer[at[a]:at[a] + k * size[a]].reshape(k, rs, cs))


def sparse_nullspace(rows, cols, vals, n: int) -> np.ndarray:
    """Rows spanning the kernel of a sparse system over n columns, given as
    in :func:`components`: one ``nullspace`` per block shape, and a unit
    vector for each column in no row.  The rows come by component, in order
    of lowest column, and then in SVD order."""
    ids, nulls = [], []
    for _, col_ids, blocks in components(rows, cols, vals, n):
        null, which = nullspace(blocks)
        ids.append(col_ids[which])
        nulls.append(null)
    out = np.zeros((sum(map(len, nulls)), n), dtype=complex)
    # a component's rows are contiguous within its stack, so a stable sort by
    # lowest column puts them in place
    lead = np.concatenate([np.zeros(0, dtype=int)] + [i[:, 0] for i in ids])
    at = np.empty(len(out), dtype=int)
    at[np.argsort(lead, kind="stable")] = np.arange(len(out))
    for i, null, place in zip(ids, nulls, np.split(at, np.cumsum([len(x) for x in nulls]))):
        out[place[:, None], i] = null
    return out


def span(kernel: np.ndarray, vec: np.ndarray, key: np.ndarray, val: np.ndarray) -> "Subspace":
    """The span of the rows of ``kernel``, each the coordinates of a vector
    along the vectors given by their terms (vector, key, value), as a
    Subspace over the keys those terms touch."""
    keys, at = np.unique(key, return_inverse=True)
    out = np.zeros((len(kernel), len(keys)), dtype=complex)
    np.add.at(out, (slice(None), at), kernel[:, vec] * val)
    return _pruned_span(keys, out)


def _pruned_span(keys: np.ndarray, rows: np.ndarray) -> "Subspace":
    """The span of dense rows over ``keys`` with their entries of modulus at
    most ROUNDOFF dropped, over the keys that still hold an entry."""
    rows = _pruned_rows(rows)
    held = (rows != 0).any(axis=0)
    return Subspace(keys[held], rows[:, held])


class Subspace:
    """Span of dense rows over an array of keys (the ``universe``), reduced
    in order to row echelon form with unit pivots; a row within RANK_CUTOFF
    (1 + |row|) of the span of those before it is skipped.  ``eps`` is the
    membership tolerance of ``contains`` and ``contains_batch`` only.

    Pivot columns are cleared in all other rows and the pivots are exactly 1,
    so the pivot block of ``basis`` is the identity and the coordinate of a
    member vector along basis row i is just its value at that row's pivot key.
    The ``SparseVec`` methods find a key's column through ``pos``.
    """

    def __init__(self, keys: np.ndarray, rows: np.ndarray, eps: float = DEFAULT_TOL):
        self.eps = float(eps)
        self.universe = keys
        n = len(keys)
        basis = np.zeros((len(rows), n), dtype=complex)
        count = 0
        pivots: list[int] = []
        for r in rows:
            r = np.array(r, dtype=complex)
            scale = np.linalg.norm(r)
            if count:
                # pivot columns are exclusive in reduced form, so one pass
                r -= r[pivots] @ basis[:count]
            if n == 0 or np.linalg.norm(r) <= RANK_CUTOFF * (1.0 + scale):
                continue
            p = int(np.argmax(np.abs(r)))  # ties resolve to the lowest index
            r = r / r[p]
            r[p] = 1.0
            if count:
                basis[:count] -= np.outer(basis[:count, p], r)
            basis[count] = r
            pivots.append(p)
            count += 1
        self.basis, self.pivots = basis[:count], pivots
        self._free = np.ones(n, dtype=bool)
        self._free[pivots] = False

    @cached_property
    def pos(self) -> dict:
        """The column of each key, for the ``SparseVec`` methods."""
        return {k: i for i, k in enumerate(self.universe.tolist())}

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def residuals(self, mat: np.ndarray, outside: np.ndarray) -> np.ndarray:
        """Norm of the component outside the subspace of each dense row over
        the universe, whose squared mass off the universe is ``outside``.
        The pivot block of the basis is the identity, so only the non-pivot
        columns need reducing."""
        free = self._free
        off = mat[:, free] - mat[:, self.pivots] @ self.basis[:, free]
        return np.sqrt(_sq(off).sum(axis=1) + outside)

    def residual(self, v: SparseVec) -> float:
        """Norm of the component of v outside the subspace."""
        return float(self.residuals(*self.to_dense([v]))[0])

    def contains(self, v: SparseVec) -> bool:
        return self.residual(v) <= self.eps * (1.0 + v.norm())

    def coordinates(self, v: SparseVec) -> np.ndarray:
        """Coefficients of v along the echelon basis (v must be a member)."""
        return np.array([v[self.universe[p]] for p in self.pivots], dtype=complex)

    def to_dense(self, vectors: Iterable[SparseVec]) -> tuple[np.ndarray, np.ndarray]:
        """Dense rows over this universe plus per-vector outside-universe mass."""
        vecs = list(vectors)
        mat = np.zeros((len(vecs), len(self.universe)), dtype=complex)
        outside = np.zeros(len(vecs))
        for i, v in enumerate(vecs):
            extra = 0.0
            for k, c in v.data.items():
                j = self.pos.get(k)
                if j is None:
                    extra += abs(c) ** 2
                else:
                    mat[i, j] = c
            outside[i] = extra
        return mat, outside

    def contains_batch(self, vectors: Iterable[SparseVec]) -> np.ndarray:
        """Residuals of many vectors at once (relative form as in contains)."""
        mat, outside = self.to_dense(vectors)
        norms = np.sqrt(_sq(mat).sum(axis=1) + outside)
        return self.residuals(mat, outside) - self.eps * (1.0 + norms)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked coefficient system,
        one row per key and one column per basis row of either space."""
        pos: dict = {}
        rows, cols, vals = [], [], []
        for space, sign, at in ((self, 1, 0), (other, -1, self.dim)):
            j, u = np.nonzero(space.basis)
            rows.append(np.array([pos.setdefault(k, len(pos)) for k in space.universe.tolist()], dtype=int)[u])
            cols.append(at + j)
            vals.append(sign * space.basis[j, u])
        system = (np.concatenate(part) for part in (rows, cols, vals))
        kernel = sparse_nullspace(*system, self.dim + other.dim)
        return _pruned_span(self.universe, kernel[:, : self.dim] @ self.basis)


def tensor_contains(t: SparseVec, left: Subspace, right: Subspace | None) -> bool:
    """Membership of a vector over pair keys in left (x) right.

    ``right=None`` means the full space on the second leg.  The second legs
    are resolved first (each grouped vector must lie in ``right``), then the
    recombined first legs are tested against ``left``; this avoids ever
    materializing the tensor product space.  Coordinates along ``right`` of
    modulus at most ROUNDOFF are dropped.
    """
    groups: dict = {}
    for (i, j), c in t.data.items():
        key, leg = (j, i) if right is None else (i, j)
        groups.setdefault(key, SparseVec()).data[leg] = c
    if right is None:
        return all(left.contains(w) for w in groups.values())
    combos: dict[int, SparseVec] = {}
    for i, r in groups.items():
        if not right.contains(r):
            return False
        for b, c in enumerate(right.coordinates(r)):
            if abs(c) > ROUNDOFF:
                combos.setdefault(b, SparseVec()).data[i] = c
    return all(left.contains(u) for u in combos.values())
