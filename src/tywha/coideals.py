"""Weak coideal subalgebras of the Tambara-Yamagami groupoid algebra.

A weak coideal is assembled from a family of fiber subspaces ``X^x <= H^x``:
the subalgebra is ``A = sum_x X^x (x) conj(H^x)`` with unit ``v^0_Gamma (x)
conj(v^0_Omega)``, where Gamma is the joint support of ``X^0``.  Builders
construct the classified families from a subgroup K and coset data; the
verifier re-checks every defining property by plain linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AxiomCheck,
    AxiomReport,
    BasisUnit,
    BlockLabel,
    Slot,
    TYAlgebra,
    _join,
    _runs,
)
from .errors import InvariantError, StructuralError
from .groups import Coset, QuotientGroup, Subgroup, orthogonal, quotient
from .linalg import ROUNDOFF, SparseVec, Subspace, _sq, distance, sparse_nullspace, sparse_rows

# The batched coideal checks scatter about this many dense rows at a time.
ROW_BLOCK = 256


@dataclass(frozen=True)
class CoidealSpec:
    """Classification data (K, Z0, Z1): Z0 a set of K-cosets, Z1 a set of
    cosets of the annihilator of K.  At most one side may have more than one
    coset, and at least one side is nonempty."""

    subgroup: Subgroup
    z0: frozenset[Coset]
    z1: frozenset[Coset]

    def __post_init__(self):
        if not self.z0 and not self.z1:
            raise InvariantError("at least one of Z0, Z1 must be nonempty")
        if len(self.z0) > 1 and len(self.z1) > 1:
            raise InvariantError("no class has both |Z0| > 1 and |Z1| > 1")
        for c in self.z0:
            if c.subgroup != self.subgroup:
                raise InvariantError("Z0 entries must be cosets of K")
        sides = {c.subgroup for c in self.z1}
        if len(sides) > 1:
            raise InvariantError("Z1 entries must be cosets of a single subgroup")

    def describe(self) -> dict:
        return {
            "K": [list(e) for e in self.subgroup.sorted_elements],
            "Z0": sorted([list(c.rep) for c in self.z0]),
            "Z1": sorted([list(c.rep) for c in self.z1]),
        }


class WeakCoideal:
    """A verified-or-verifiable subalgebra candidate with its fiber data.

    The ambient subspace A <= B is assembled lazily: dimension bookkeeping
    only needs the per-block fiber spaces.
    """

    def __init__(
        self,
        algebra: TYAlgebra,
        x_spaces: dict[BlockLabel, Subspace],
        unit: SparseVec,
        gamma: frozenset[Slot],
        label: str,
        spec: CoidealSpec | None = None,
    ):
        self.algebra = algebra
        self.x_spaces = x_spaces
        self.unit = unit
        self.gamma = gamma
        self.label = label
        self.spec = spec
        self._space: Subspace | None = None

    @property
    def space(self) -> Subspace:
        if self._space is None:
            alg = self.algebra
            generators: list[SparseVec] = []
            for block in alg.blocks:
                sub = self.x_spaces.get(block)
                if sub is None or sub.dim == 0:
                    continue
                for u in sub.basis_vectors():
                    for col in alg.slots(block):
                        generators.append(
                            SparseVec(
                                {
                                    alg.unit_pos[BasisUnit(block, slot, col)]: c
                                    for (_b, slot), c in u.items()
                                }
                            )
                        )
            self._space = Subspace(generators, eps=alg.eps)
        return self._space

    @property
    def dim(self) -> int:
        return self.space.dim

    def x_dims(self) -> dict[BlockLabel, int]:
        return {b: s.dim for b, s in sorted(self.x_spaces.items()) if s.dim}

    def describe(self) -> dict:
        return {
            "label": self.label,
            "dim": self.dim,
            "x_dims": {str(b): s.dim for b, s in sorted(self.x_spaces.items()) if s.dim},
            "gamma": [str(s) for s in sorted(self.gamma)],
            "unit_support": len(self.unit),
            "spec": self.spec.describe() if self.spec else None,
            "is_coideal": is_coideal(self),
        }


# -- fiber vectors ---------------------------------------------------------------


def coset_vector(alg: TYAlgebra, block: BlockLabel, coset: Coset, barred: bool = False) -> SparseVec:
    """Sum of fiber basis vectors over a coset: v^g_lam, v^m_lam, or v^m_{~lam}."""
    if not block.is_m:
        if barred:
            raise InvariantError("group blocks have no barred slots")
        return SparseVec({(block, Slot.grp(p)): 1.0 + 0j for p in sorted(coset.elements)})
    mk = Slot.bar if barred else Slot.grp
    return SparseVec({(block, mk(p)): 1.0 + 0j for p in sorted(coset.elements)})


def full_fiber_vector(alg: TYAlgebra, block: BlockLabel) -> SparseVec:
    """The all-ones fiber vector v^x_Omega over every slot of a block."""
    return SparseVec({(block, s): 1.0 + 0j for s in alg.slots(block)})


# -- assembly ---------------------------------------------------------------------


def assemble(
    alg: TYAlgebra,
    x_vectors: dict[BlockLabel, list[SparseVec]],
    label: str,
    spec: CoidealSpec | None = None,
) -> WeakCoideal:
    """Assemble A = sum_x X^x (x) conj(H^x) from generating fiber vectors."""
    x_spaces: dict[BlockLabel, Subspace] = {}
    for block, vecs in x_vectors.items():
        for v in vecs:
            for (b, _), _c in v.items():
                if b != block:
                    raise InvariantError(f"fiber vector for {block} has support in {b}")
        x_spaces[block] = Subspace(vecs, eps=alg.eps)

    zero_block = BlockLabel.grp(alg.group.zero())
    gamma: set[Slot] = set()
    x0 = x_spaces.get(zero_block)
    if x0 is not None:
        for v in x0.basis_vectors():
            gamma.update(slot for (_b, slot), c in v.items() if abs(c) > alg.eps)
    unit = SparseVec(
        {
            alg.unit_pos[BasisUnit(zero_block, s, c)]: 1.0 + 0j
            for s in gamma
            for c in alg.slots(zero_block)
        }
    )
    return WeakCoideal(alg, x_spaces, unit, frozenset(gamma), label, spec)


# -- builders ----------------------------------------------------------------------


def _translated(quot: QuotientGroup, g, zs) -> set[Coset]:
    return {quot.translate(g, lam) for lam in zs}


def build_no_m(
    alg: TYAlgebra, subgroup: Subgroup, zs, side: int = 0
) -> WeakCoideal:
    """Family with trivial m fiber: X^g spanned by the coset vectors v^g_lam
    with lam in Z and lam - g in Z; X^m = 0.

    ``side=0`` takes Z inside G/K, ``side=1`` inside the quotient by the
    annihilator of K (the symmetric case).
    """
    zs = list(zs)
    if not zs:
        raise InvariantError("Z must be nonempty")
    if side not in (0, 1):
        raise InvariantError("side must be 0 or 1")
    base = subgroup if side == 0 else orthogonal(alg.bichar, subgroup)
    quot = quotient(alg.group, base)
    for lam in zs:
        if lam not in quot.cosets:
            raise InvariantError(f"{lam} is not a coset of the chosen subgroup")
    zset = set(zs)
    x_vectors: dict[BlockLabel, list[SparseVec]] = {}
    for g in alg.group.elements():
        block = BlockLabel.grp(g)
        hits = zset & _translated(quot, g, zset)
        if hits:
            x_vectors[block] = [coset_vector(alg, block, lam) for lam in sorted(hits, key=lambda c: c.rep)]
    spec = CoidealSpec(
        subgroup,
        frozenset(zset) if side == 0 else frozenset(),
        frozenset() if side == 0 else frozenset(zset),
    )
    return assemble(alg, x_vectors, f"no_m(side={side}, |Z|={len(zset)})", spec)


def build_with_m(
    alg: TYAlgebra, subgroup: Subgroup, zs, rho0: Coset
) -> WeakCoideal:
    """Family with nonzero m fiber: X^m is spanned by the coset vectors
    v^m_lam and v^m_{~lam} (lam in Z), and X^g additionally contains v^g_m
    for g in the annihilator of K.

    ``rho0`` is the distinguished coset of the annihilator; it labels the
    isomorphism class but does not enter the generating vectors.
    """
    zs = list(zs)
    if not zs:
        raise InvariantError("Z must be nonempty")
    perp = orthogonal(alg.bichar, subgroup)
    if rho0.subgroup != perp:
        raise InvariantError("rho0 must be a coset of the annihilator of K")
    quot = quotient(alg.group, subgroup)
    for lam in zs:
        if lam not in quot.cosets:
            raise InvariantError(f"{lam} is not a coset of K")
    zset = set(zs)
    mblock = BlockLabel.m()
    x_vectors: dict[BlockLabel, list[SparseVec]] = {
        mblock: [coset_vector(alg, mblock, lam, barred=False) for lam in sorted(zset, key=lambda c: c.rep)]
        + [coset_vector(alg, mblock, lam, barred=True) for lam in sorted(zset, key=lambda c: c.rep)]
    }
    for g in alg.group.elements():
        block = BlockLabel.grp(g)
        vecs = [
            coset_vector(alg, block, lam)
            for lam in sorted(zset & _translated(quot, g, zset), key=lambda c: c.rep)
        ]
        if g in perp:
            vecs.append(SparseVec.basis((block, Slot.m())))
        if vecs:
            x_vectors[block] = vecs
    spec = CoidealSpec(subgroup, frozenset(zset), frozenset([rho0]))
    return assemble(alg, x_vectors, f"with_m(|Z|={len(zset)})", spec)


def build_I_m_K(alg: TYAlgebra, subgroup: Subgroup) -> WeakCoideal:
    """One line per subgroup element, supported on the m slot: X^k = C v^k_m."""
    quot = quotient(alg.group, subgroup)
    x_vectors = {
        BlockLabel.grp(k): [SparseVec.basis((BlockLabel.grp(k), Slot.m()))]
        for k in subgroup.sorted_elements
    }
    spec = CoidealSpec(subgroup, frozenset([quot.coset_of(alg.group.zero())]), frozenset())
    return assemble(alg, x_vectors, "I_m_K", spec)


def build_I_Omega_K(alg: TYAlgebra, subgroup: Subgroup) -> WeakCoideal:
    """One all-ones line per subgroup element: X^k = C v^k_Omega."""
    quot = quotient(alg.group, subgroup)
    x_vectors = {
        BlockLabel.grp(k): [full_fiber_vector(alg, BlockLabel.grp(k))]
        for k in subgroup.sorted_elements
    }
    spec = CoidealSpec(subgroup, frozenset([quot.coset_of(alg.group.zero())]), frozenset())
    return assemble(alg, x_vectors, "I_Omega_K", spec)


def build_from_spec(alg: TYAlgebra, spec: CoidealSpec) -> WeakCoideal:
    """The family of classification data (K, Z0, Z1): ``no_m`` on the
    nonempty side when the other is empty, else ``with_m`` over the side
    that holds several cosets, with the other side's single coset as rho0.
    A single Z0 against a full Z1 is built over the annihilator, so that
    the family of a coideal class is unital in B."""
    K, z0, z1 = spec.subgroup, list(spec.z0), list(spec.z1)
    if not z1:
        return build_no_m(alg, K, z0, side=0)
    if not z0:
        return build_no_m(alg, K, z1, side=1)
    perp = orthogonal(alg.bichar, K)
    if len(z0) == 1 and (len(z1) > 1 or len(z1) == len(quotient(alg.group, perp))):
        return build_with_m(alg, perp, z1, z0[0])
    return build_with_m(alg, K, z0, z1[0])


# -- verification -------------------------------------------------------------------


def _scatter(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple) -> np.ndarray:
    """Dense array of the values summed at their (row, col) positions, pruned
    at ROUNDOFF as the scalar paths prune their results."""
    flat, size = rows * shape[1] + cols, shape[0] * shape[1]
    out = np.bincount(flat, vals.real, size) + 1j * np.bincount(flat, vals.imag, size)
    out[np.abs(out) <= ROUNDOFF] = 0.0
    return out.reshape(shape)


def _first_max(margins: np.ndarray) -> tuple[float, int | None]:
    """The largest positive margin and the first index where it occurs, or
    (0.0, None) when no margin is positive."""
    if not len(margins) or margins.max() <= 0:
        return 0.0, None
    at = int(np.argmax(margins))
    return float(margins[at]), at


class _Coords:
    """A subspace of B, keyed by unit, as the sparse terms (row, unit, val) of
    its echelon basis, pruned at ROUNDOFF as ``basis_vectors`` prunes them;
    the terms are sorted by row.  Vectors of B are checked against it in
    batches, as the rows of dense arrays with one column per unit."""

    def __init__(self, space: Subspace, dim: int):
        self.space, self.units = space, np.array(space.universe, dtype=np.int64)
        rows = space.basis
        self.eps, self.size, self.dim = space.eps, len(rows), dim
        self.row, col = np.nonzero(np.abs(rows) > ROUNDOFF)
        self.unit, self.val = self.units[col], rows[self.row, col]
        self.by_unit = np.argsort(self.unit, kind="stable")
        self.unit_sorted = self.unit[self.by_unit]
        self.pivots = self.units[space.pivots]
        self.outside = np.ones(dim, dtype=bool)
        self.outside[self.units] = False

    def rows(self, lo: int, hi: int) -> slice:
        """The terms of basis rows lo..hi-1."""
        return slice(*np.searchsorted(self.row, [lo, hi]))

    def blocks(self, per_row: int):
        """Ranges of basis rows that give about ROW_BLOCK dense rows when each
        basis row gives per_row of them."""
        step = max(1, ROW_BLOCK // max(1, per_row))
        return [(lo, min(self.size, lo + step)) for lo in range(0, self.size, step)]

    def dense(self) -> np.ndarray:
        return _scatter(self.row, self.unit, self.val, (self.size, self.dim))

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Norm of the component of each row of x outside the subspace."""
        return self.space.residuals(x[:, self.units], _sq(x[:, self.outside]))

    def contains(self, x: np.ndarray) -> np.ndarray:
        return self.residual(x) <= self.eps * (1.0 + np.sqrt(_sq(x)))


def _unit_terms(wc: WeakCoideal) -> tuple[np.ndarray, np.ndarray]:
    """The units of 1_A, and 1_A as a dense vector of B."""
    units = np.array(sorted(wc.unit.keys()), dtype=np.int64)
    dense = np.zeros(wc.algebra.dim, dtype=complex)
    dense[units] = [wc.unit[k] for k in units]
    return units, dense


def _products(A: _Coords, lo: int, hi: int, table: tuple) -> np.ndarray:
    """a b for every left factor a among basis rows lo..hi-1 and every right
    factor b among all basis rows, one dense row per pair in row-major order,
    from product entries ``table = (i, j, k, c)`` sorted by i."""
    ti, tj, tk, tc = table
    left = A.rows(lo, hi)
    row, unit, val = A.row[left], A.unit[left], A.val[left]
    s, e = _join(unit, ti)
    q, p = _join(tj[e], A.unit_sorted)
    s, e, b = s[q], e[q], A.by_unit[p]
    pair = (row[s] - lo) * A.size + A.row[b]
    return _scatter(pair, tk[e], val[s] * A.val[b] * tc[e], ((hi - lo) * A.size, A.dim))


def _closure(alg: TYAlgebra, A: _Coords) -> tuple[float, tuple | None]:
    """The largest positive margin ``res - eps (1 + |ab|)`` over all pairs of
    basis rows and the first pair where it occurs.

    Only the product entries with both factors in A's universe contribute.
    When A spans its universe, only the entries leaving it reach the
    residual.  |ab| is needed only where the residual exceeds eps: elsewhere
    the margin is at most 0 whatever the norm."""
    T, eps, size = alg.product, alg.eps, A.size
    within = ~A.outside[T.i] & ~A.outside[T.j]
    full = tuple(col[within] for col in (T.i, T.j, T.k, T.c))
    spans = size == len(A.units)
    needed = tuple(col[A.outside[full[2]]] for col in full) if spans else full
    best, pair = 0.0, None
    if not len(needed[0]):
        return best, pair
    for lo, hi in A.blocks(size):
        cand = np.flatnonzero(A.residual(_products(A, lo, hi, needed)) > eps)
        if not len(cand):
            continue
        prods = _products(A, lo, hi, full)[cand]
        margin, at = _first_max(A.residual(prods) - eps * (1.0 + np.sqrt(_sq(prods))))
        if margin > best:
            best, pair = margin, divmod(lo * size + int(cand[at]), size)
    return best, pair


def verify_weak_coideal(wc: WeakCoideal) -> AxiomReport:
    """Check, by subspace membership, every defining property of a weak
    coideal: product and star closure, the coproduct landing in A (x) B,
    the unit acting as identity, and the coproduct of the unit landing in
    A (x) B_t.

    Each check after the first is one batched residual over A's echelon
    basis, read from B's structure-constant arrays."""
    alg = wc.algebra
    eps, dim, T = alg.eps, alg.dim, alg.product
    report = AxiomReport(label=f"coideal {wc.label} on {alg.group}", eps=eps)
    checks = report.checks
    A = _Coords(wc.space, dim)
    size = A.size

    def add(name, worst, passed, witness, count=1):
        checks.append(AxiomCheck(name, worst, passed, witness, count))

    unit_ok = wc.unit.norm() > eps and wc.space.contains(wc.unit)
    add("unit exists in A", 0.0 if unit_ok else float("inf"), unit_ok,
        "" if unit_ok else "empty or missing unit")

    worst, pair = _closure(alg, A)
    add("closed under product", worst, worst <= 0.0,
        f"basis pair {pair}" if pair else "", size**2)

    # the involution is a monomial map: u_i -> c_i u_{k_i}
    a = A.dense()
    star = alg._star_map
    image = _scatter(A.row, star.k[A.unit], A.val.conj() * star.c[A.unit], (size, dim))
    worst, at = _first_max(A.residual(image) - eps * (1.0 + np.sqrt(_sq(a))))
    add("closed under star", worst, worst <= 0.0,
        "" if at is None else f"basis vector {at}", size)

    # Delta(a) = sum_j w_j (x) u_j lies in A (x) B iff every w_j lies in A
    C = alg._coproduct_table
    bad = []
    for lo, hi in A.blocks(int(alg._layout.sizes.max())):
        terms = A.rows(lo, hi)
        t, p = _runs(C.ptr, A.unit[terms])
        t += terms.start
        keys, inv = np.unique(A.row[t] * dim + C.second[p], return_inverse=True)
        legs = _scatter(inv, C.first[p], A.val[t], (len(keys), dim))
        bad.extend(keys[~A.contains(legs)] // dim)
    ok = not bad
    add("coproduct maps into A (x) B", 0.0 if ok else float("inf"), ok,
        "" if ok else f"basis vector {int(bad[0])}", size)

    # 1_A a and a 1_A
    units, mu = _unit_terms(wc)
    s, e = T.of_right(A.unit)
    left = _scatter(A.row[s], T.k[e], mu[T.i[e]] * A.val[s] * T.c[e], (size, dim))
    s, e = T.of_left(A.unit)
    right = _scatter(A.row[s], T.k[e], A.val[s] * mu[T.j[e]] * T.c[e], (size, dim))
    dist = np.maximum(np.abs(left - a), np.abs(right - a)).max(axis=1, initial=0.0)
    worst, at = _first_max(dist)
    add("unit acts as identity", worst, worst <= eps,
        "" if at is None else f"basis vector {at}", size)

    # Delta(1_A) = sum_f u_f (x) r_f: every r_f lies in B_t, and for each basis
    # row of B_t the first legs weighted by their r_f coordinates lie in A
    target, _source = alg.counital_subalgebras()
    Bt = _Coords(target, dim)
    t, p = _runs(C.ptr, units)
    firsts, inv = np.unique(C.first[p], return_inverse=True)
    seconds = _scatter(inv, C.second[p], mu[C.src[p]], (len(firsts), dim))
    combos = np.zeros((Bt.size, dim), dtype=complex)
    combos[:, firsts] = seconds[:, Bt.pivots].T
    ok = bool(size) and bool(Bt.contains(seconds).all()) and bool(A.contains(combos).all())
    add("coproduct of unit in A (x) B_t", 0.0 if ok else float("inf"), ok, "")
    return report


def is_coideal(wc: WeakCoideal) -> bool:
    """True iff the subalgebra unit equals the ambient unit."""
    return distance(wc.unit, wc.algebra.unit()) <= wc.algebra.eps


def fixed_point_algebra(wc: WeakCoideal) -> Subspace:
    """The invariant subalgebra {a in A : Delta(a) = Delta(1_A)(a (x) 1)}.

    Delta(1_A)(u_i (x) 1) is sum_p c_p (u_{f_p} u_i) (x) u_{s_p} over the terms
    c_p u_{f_p} (x) u_{s_p} of Delta(1_A), so each constraint column joins
    those first legs with the product entries whose right factor is u_i."""
    alg = wc.algebra
    dim, T, C = alg.dim, alg.product, alg._coproduct_table
    A = _Coords(wc.space, dim)
    units, mu = _unit_terms(wc)
    _, p = _runs(C.ptr, units)
    p = p[np.argsort(C.first[p], kind="stable")]
    first, second, coef = C.first[p], C.second[p], mu[C.src[p]]
    t, p = _runs(C.ptr, A.unit)
    s, e = T.of_right(A.unit)
    q, d = _join(T.i[e], first)
    s, e = s[q], e[q]
    rows = np.concatenate([C.first[p] * dim + C.second[p], T.k[e] * dim + second[d]])
    cols = np.concatenate([A.row[t], A.row[s]])
    vals = np.concatenate([A.val[t], -coef[d] * A.val[s] * T.c[e]])
    kernel = sparse_nullspace(rows, cols, vals, A.size, eps=alg.eps)
    return Subspace(sparse_rows(kernel @ A.dense(), range(dim)), eps=alg.eps)


def center(wc: WeakCoideal) -> Subspace:
    """The center of A, by one commutant solve over A's basis."""
    return wc.algebra.commutant(wc.space.basis_vectors())


def is_indecomposable(wc: WeakCoideal) -> bool:
    """True iff the central invariant subalgebra is one-dimensional."""
    meet = center(wc).intersect(fixed_point_algebra(wc))
    return meet.dim == 1


def x0_partition(wc: WeakCoideal) -> list[frozenset[Slot]]:
    """Spectral blocks of the diagonal subalgebra X^0: slots are grouped by
    equal coordinate profiles across a basis of X^0."""
    alg = wc.algebra
    zero_block = BlockLabel.grp(alg.group.zero())
    x0 = wc.x_spaces.get(zero_block)
    if x0 is None or x0.dim == 0:
        raise StructuralError("X^0 is trivial; no unit block structure")
    basis = x0.basis_vectors()
    for u in basis:
        if not x0.contains(alg.sharp(u)):
            raise StructuralError("X^0 is not closed under the fiber involution")
        for v in basis:
            if not x0.contains(alg.circ(u, v)):
                raise StructuralError("X^0 is not closed under the fiber product")
    slots = sorted(wc.gamma)
    profiles: dict[int, list[complex]] = {i: [] for i in range(len(slots))}
    for u in basis:
        for i, s in enumerate(slots):
            profiles[i].append(u[(zero_block, s)])
    blocks: list[tuple[list[complex], set[Slot]]] = []
    for i, s in enumerate(slots):
        for profile, members in blocks:
            if all(abs(a - b) <= alg.eps for a, b in zip(profile, profiles[i])):
                members.add(s)
                break
        else:
            blocks.append((profiles[i], {s}))
    if len(blocks) != x0.dim:
        raise StructuralError(
            f"X^0 has {x0.dim} dimensions but {len(blocks)} spectral blocks"
        )
    out = [frozenset(members) for _, members in blocks]
    for members in out:
        indicator = SparseVec({(zero_block, s): 1.0 + 0j for s in members})
        if not x0.contains(indicator):
            raise StructuralError("spectral block indicator does not lie in X^0")
    return sorted(out, key=lambda ms: min(ms))


# -- spectral dimensions ---------------------------------------------------------


def spectral_dims(spec: CoidealSpec, alg: TYAlgebra) -> dict[BlockLabel, int]:
    """Predicted fiber dimensions of classification data: dim X^g counts the
    cosets lam of either side with lam and g + lam both in that side's Z,
    and dim X^m = 2 |Z0| |Z1|."""
    group, K = alg.group, spec.subgroup
    sides = ((quotient(group, K), spec.z0),
             (quotient(group, orthogonal(alg.bichar, K)), spec.z1))
    dims = {
        BlockLabel.grp(g): sum(q.translate(g, lam) in z for q, z in sides for lam in z)
        for g in group.elements()
    }
    dims[BlockLabel.m()] = 2 * len(spec.z0) * len(spec.z1)
    return dims


def dims_match(wc: WeakCoideal) -> bool:
    """True iff the nonzero fiber dimensions of wc are those its
    classification data predicts."""
    predicted = spectral_dims(wc.spec, wc.algebra)
    return {b: d for b, d in predicted.items() if d} == wc.x_dims()
