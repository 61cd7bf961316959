"""Weak coideal subalgebras of the Tambara-Yamagami groupoid algebra.

A weak coideal is assembled from a family of fiber subspaces ``X^x <= H^x``:
the subalgebra is ``A = sum_x X^x (x) conj(H^x)`` with unit ``v^0_Gamma (x)
conj(v^0_Omega)``, where Gamma is the joint support of ``X^0``.  Builders
construct the classified families from a subgroup K and coset data; the
verifier re-checks every defining property by plain linear algebra.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .algebra import AxiomCheck, AxiomReport, TYAlgebra, _diff, _join, _ranges, _runs, _sums
from .errors import InvariantError
from .groups import QuotientGroup, Subgroup
from .linalg import ROUNDOFF, Subspace, nullspace, sparse_nullspace, span


def _coset_numbers(name: str, z, quot: QuotientGroup) -> tuple[int, ...]:
    """The coset numbers z as a sorted tuple, checked to name distinct cosets of ``quot``."""
    z, n = tuple(sorted(map(int, z))), len(quot.reps)
    if z and not 0 <= z[0] <= z[-1] < n:
        raise InvariantError(f"{name} coset numbers must lie in 0..{n - 1}, got {z}")
    if len(z) > 1 and len(set(z)) < len(z):
        raise InvariantError(f"{name} names a coset more than once: {z}")
    return z


class CoidealSpec:
    """Classification data (K, Z0, Z1): ``q0`` is G/K and ``q1`` the quotient
    by the annihilator of K, and Z0 and Z1 are sorted tuples of their coset
    numbers.  At most one side may have more than one coset, and at least
    one side is nonempty."""

    __slots__ = ("q0", "q1", "z0", "z1")

    def __init__(self, q0: QuotientGroup, q1: QuotientGroup, z0, z1):
        self.q0, self.q1 = q0, q1
        self.z0, self.z1 = _coset_numbers("Z0", z0, q0), _coset_numbers("Z1", z1, q1)
        if not self.z0 and not self.z1:
            raise InvariantError("at least one of Z0, Z1 must be nonempty")
        if len(self.z0) > 1 and len(self.z1) > 1:
            raise InvariantError("no class has both |Z0| > 1 and |Z1| > 1")

    def __repr__(self) -> str:
        return f"CoidealSpec({self.describe()})"

    @property
    def subgroup(self) -> Subgroup:
        return self.q0.subgroup

    def swapped(self) -> "CoidealSpec":
        """The same data over the annihilator: (Kperp, Z1, Z0)."""
        return CoidealSpec(self.q1, self.q0, self.z1, self.z0)

    def reps(self) -> dict:
        """Z0 and Z1 named by the least elements of their cosets."""
        reps0, reps1 = self.q0.reps, self.q1.reps
        return {"Z0": [list(reps0[c]) for c in self.z0], "Z1": [list(reps1[c]) for c in self.z1]}

    def describe(self) -> dict:
        return {"K": [list(e) for e in self.subgroup.sorted_elements], **self.reps()}


class WeakCoideal:
    """A verified-or-verifiable subalgebra candidate with its fiber data:
    reduced echelon rows over the blocks' slots, by block and padded with
    zeros to the widest block.  Row r of ``fiber_rows`` spans part of the
    fiber of block ``fiber_block[r]`` and is 1 at slot ``fiber_pivot[r]``
    and 0 at its block's other pivots.  ``unit`` is 1_A = v^0_Gamma (x)
    conj(v^0_Omega) as one row over the zero block's slots, 1 on Gamma, the
    slots where the zero block's rows have support; A's coordinates are
    built on first use."""

    def __init__(self, algebra: TYAlgebra, fiber_block: np.ndarray, fiber_pivot: np.ndarray,
                 fiber_rows: np.ndarray, label: str, spec: CoidealSpec | None = None):
        self.algebra, self.label, self.spec = algebra, label, spec
        self.fiber_block, self.fiber_pivot, self.fiber_rows = fiber_block, fiber_pivot, fiber_rows
        lay = algebra._layout
        x0 = np.abs(fiber_rows[fiber_block == lay.zero, : lay.sizes[lay.zero]]) > max(algebra.eps, ROUNDOFF)
        self.unit = x0.any(axis=0).astype(complex)

    @cached_property
    def coords(self) -> "_Coords":
        return _Coords(self)

    @property
    def dim(self) -> int:
        return self.coords.size

    def x_dims(self) -> np.ndarray:
        """dim X^x for each block x, in ``Layout`` order."""
        return np.bincount(self.fiber_block, minlength=len(self.algebra.block_names))

    def describe(self) -> dict:
        alg = self.algebra
        slots, gamma = alg.slot_names[alg._layout.zero], np.flatnonzero(self.unit).tolist()
        return {
            "label": self.label,
            "dim": self.dim,
            "x_dims": {alg.block_names[b]: d for b, d in enumerate(self.x_dims().tolist()) if d},
            "gamma": [slots[s] for s in gamma],
            "unit_support": len(gamma) * len(slots),
            "spec": self.spec.describe() if self.spec else None,
            "is_coideal": is_coideal(self),
        }


# -- assembly ---------------------------------------------------------------------


def assemble(alg: TYAlgebra, block: np.ndarray, rows: np.ndarray, label: str,
             spec: CoidealSpec | None = None) -> WeakCoideal:
    """Assemble A = sum_x X^x (x) conj(H^x) from generating fiber rows: row r
    lies in the fiber of block ``block[r]``, over its slots and padded with
    zeros to the widest block.  Each fiber is reduced to echelon form by one
    Subspace over the slots its rows touch."""
    sizes, width = alg._layout.sizes, int(alg._layout.sizes.max())
    block, rows, none = np.asarray(block), np.asarray(rows, dtype=complex), np.zeros(0, dtype=np.int64)
    parts = [(none, none, np.zeros((0, width), dtype=complex))]
    for b in np.unique(block).tolist():
        gens = rows[block == b]
        at = np.flatnonzero((gens != 0).any(axis=0))
        if len(at) and at[-1] >= sizes[b]:
            name = alg.block_names[b]
            raise InvariantError(f"fiber row for block {name} has support past its {sizes[b]} slots")
        sub = Subspace(at, gens[:, at], eps=alg.eps)
        out = np.zeros((sub.dim, width), dtype=complex)
        out[:, at] = sub.basis
        parts.append((np.full(sub.dim, b), at[sub.pivots], out))
    return WeakCoideal(alg, *map(np.concatenate, zip(*parts)), label, spec)


def _indicators(alg: TYAlgebra, block: np.ndarray, member: np.ndarray, label: str,
                spec: CoidealSpec) -> WeakCoideal:
    """The family whose fibers are spanned by 0/1 indicator rows ``member``
    over the slots of the blocks numbered ``block``, disjoint within a block
    and so already in reduced echelon form, each pivot at its least slot."""
    order = np.argsort(block, kind="stable")
    member = member[order]
    return WeakCoideal(alg, block[order], member.argmax(axis=1), member.astype(complex), label, spec)


# -- builders ----------------------------------------------------------------------


def _annihilator(alg: TYAlgebra, spec: CoidealSpec) -> Subgroup:
    """The subgroup of ``spec.q1``, checked to be the annihilator of K in
    ``alg``: of order |G|/|K| and pairing trivially with K."""
    K, perp = spec.subgroup, spec.q1.subgroup
    if (K.group != alg.group or perp.group != alg.group or K.order * perp.order != alg.group.order
            or alg.bichar.phase_table[np.ix_(K.idx, perp.idx)].any()):
        raise InvariantError(f"Z1 must be cosets of the annihilator of K = {K}")
    return perp


def _group_fibers(
    alg: TYAlgebra, quot: QuotientGroup, z: tuple[int, ...], perp: Subgroup | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The fibers' generators for the cosets numbered ``z`` of ``quot`` as
    indicator rows (block, member): X^g gets v^g_lam for the lam in Z with
    lam - g in Z and, given ``perp``, v^g_m for g in ``perp``, while X^m gets
    v^m_lam and then v^m_{~lam}, lam in Z."""
    n = alg.group.order
    in_z = np.zeros(len(quot), dtype=bool)
    in_z[list(z)] = True
    hits = in_z & in_z[np.argsort(quot.trans, axis=1)]  # [t, c]: c and c - t in Z
    g, c = np.nonzero(hits[quot.label])
    coset = quot.label == np.arange(len(quot))[:, None]  # each coset's members
    block, member = [g], [np.pad(coset[c], ((0, 0), (0, n)))]
    if perp is not None:
        chosen = coset[in_z]
        block += [perp.idx, np.full(2 * len(chosen), n)]
        member += [np.arange(2 * n) == n] * perp.order + [np.pad(chosen, ((0, 0), (0, n))),
                                                          np.pad(chosen, ((0, 0), (n, 0)))]
    return np.concatenate(block), np.vstack(member)


def build_no_m(alg: TYAlgebra, spec: CoidealSpec) -> WeakCoideal:
    """Family with trivial m fiber: X^g spanned by the coset vectors v^g_lam
    with lam in Z and lam - g in Z; X^m = 0.

    Z is the one nonempty side of ``spec``: Z0 inside G/K (side 0), or Z1
    inside the quotient by the annihilator of K (side 1, the symmetric
    case)."""
    if spec.z0 and spec.z1:
        raise InvariantError("no_m takes Z on one side only: Z0 or Z1 must be empty")
    _annihilator(alg, spec)
    side, quot, z = (0, spec.q0, spec.z0) if spec.z0 else (1, spec.q1, spec.z1)
    block, member = _group_fibers(alg, quot, z)
    return _indicators(alg, block, member, f"no_m(side={side}, |Z|={len(z)})", spec)


def build_with_m(alg: TYAlgebra, spec: CoidealSpec) -> WeakCoideal:
    """Family with nonzero m fiber: X^m is spanned by the coset vectors
    v^m_lam and v^m_{~lam} (lam in Z = Z0), and X^g additionally contains
    v^g_m for g in the annihilator of K.

    Z1 is the single distinguished coset rho0 of the annihilator; it labels
    the isomorphism class but does not enter the generating vectors.
    """
    if not spec.z0:
        raise InvariantError("Z must be nonempty")
    if len(spec.z1) != 1:
        raise InvariantError("rho0 must be a single coset of the annihilator of K")
    block, member = _group_fibers(alg, spec.q0, spec.z0, _annihilator(alg, spec))
    return _indicators(alg, block, member, f"with_m(|Z|={len(spec.z0)})", spec)


def _subgroup_lines(alg: TYAlgebra, spec: CoidealSpec, lo: int, label: str) -> WeakCoideal:
    """One line per element k of K, X^k = C (the all-ones vector over the
    slots lo..n of k's block, n the m slot), for data (K, {lam}, {})."""
    if len(spec.z0) != 1 or spec.z1:
        raise InvariantError(f"{label} takes one Z0 coset and no Z1")
    _annihilator(alg, spec)
    K, n, slot = spec.subgroup, alg.group.order, np.arange(2 * alg.group.order)
    member = np.tile((slot >= lo) & (slot <= n), (K.order, 1))
    return _indicators(alg, K.idx, member, label, spec)


def build_I_m_K(alg: TYAlgebra, spec: CoidealSpec) -> WeakCoideal:
    """One line per subgroup element, supported on the m slot: X^k = C v^k_m."""
    return _subgroup_lines(alg, spec, alg.group.order, "I_m_K")


def build_I_Omega_K(alg: TYAlgebra, spec: CoidealSpec) -> WeakCoideal:
    """One all-ones line per subgroup element: X^k = C v^k_Omega."""
    return _subgroup_lines(alg, spec, 0, "I_Omega_K")


def build_from_spec(alg: TYAlgebra, spec: CoidealSpec) -> WeakCoideal:
    """The family of classification data (K, Z0, Z1): ``no_m`` on the
    nonempty side when the other is empty, else ``with_m`` over the side
    that holds several cosets, with the other side's single coset as rho0.
    A single Z0 against a full Z1 is built over the annihilator, so that
    the family of a coideal class is unital in B."""
    if not spec.z0 or not spec.z1:
        return build_no_m(alg, spec)
    if len(spec.z0) == 1 and (len(spec.z1) > 1 or len(spec.z1) == len(spec.q1)):
        return build_with_m(alg, spec.swapped())
    return build_with_m(alg, spec)


# -- verification -------------------------------------------------------------------


def _abs2(vals: np.ndarray) -> np.ndarray:
    return vals.real**2 + vals.imag**2


def _summed(vec: np.ndarray, unit: np.ndarray, val: np.ndarray, dim: int) -> tuple:
    """Terms (vector, unit, value) summed per (vector, unit), with the sums of
    modulus at most ROUNDOFF dropped as the scalar paths prune their results;
    sorted by vector, then unit."""
    keys, sums = _sums(vec * dim + unit, val)
    keep = np.abs(sums) > ROUNDOFF
    vec, unit = np.divmod(keys[keep], dim)
    return vec, unit, sums[keep]


def _verdict(values: np.ndarray, bound: float, witness) -> tuple[float, bool, str]:
    """The largest positive value, whether it is at most ``bound``, and
    ``witness`` of the first index where it occurs; (0.0, True, "") when no
    value is positive."""
    if not len(values) or values.max() <= 0:
        return 0.0, True, ""
    at = int(np.argmax(values))
    return float(values[at]), float(values[at]) <= bound, witness(at)


def _exact(ok: bool, witness: str = "") -> tuple[float, bool, str]:
    """The verdict of a check that holds or fails outright."""
    return (0.0, True, "") if ok else (float("inf"), False, witness)


class _Coords:
    """A = sum_x X^x (x) conj(H^x), block by block.

    For each block x with X^x != 0 the fiber echelon basis F_x (rows over
    the block's slots, pruned at ROUNDOFF as ``basis_vectors`` prunes them)
    gives A's rows F_x[i] (x) e_c: numbered by block, then fiber row, then
    column slot c.  Their terms (row, unit, val) are sorted by row, then unit.

    A vector of B with block matrices V_x (row slot by column slot) lies in
    A iff every column of each V_x lies in X^x and it has no mass off A's
    blocks.  Its residual is the root of

        sum_x |V_x[free] - F_x[:, free]^T V_x[piv]|^2 + |mass off A's blocks|^2,

    taken by the sparse map ``reduce``: for each (block, row slot) of A's
    blocks, the free slots it reaches and with what coefficient (1 from a
    free slot to itself, -F_x[i, f] from the pivot slot of row i)."""

    def __init__(self, wc: WeakCoideal):
        alg = wc.algebra
        lay = self.layout = alg._layout
        self.dim, self.eps = alg.dim, alg.eps
        self.first_slot = np.cumsum(lay.sizes) - lay.sizes  # slot s of block b is first + s
        self.in_blocks = np.bincount(wc.fiber_block, minlength=len(lay.sizes)) > 0
        b, piv = wc.fiber_block, wc.fiber_pivot
        fiber = np.where(np.abs(wc.fiber_rows) > ROUNDOFF, wc.fiber_rows, 0.0)
        n = lay.sizes[b]  # the slots of each fiber row's block; its rows of A begin at start
        self.size, start = int(n.sum()), np.cumsum(n) - n
        # every term (r, s) of a fiber row gives A's rows (r, c) their term at unit (s, c)
        r, s = np.nonzero(fiber)
        t, col = _ranges(np.zeros_like(r), n[r])
        row, unit = start[r[t]] + col, lay.unit(b[r[t]], s[t], col)
        order = np.argsort(row, kind="stable")
        self.row, self.unit, self.val = row[order], unit[order], fiber[r, s][t][order]
        self.by_unit = np.argsort(self.unit, kind="stable")
        self.unit_sorted = self.unit[self.by_unit]
        self.covers = np.zeros(self.dim, dtype=bool)
        self.covers[self.unit] = True
        self.norms = np.sqrt(np.bincount(self.row, _abs2(self.val), self.size))
        # ``reduce`` as (block slot, free slot, coefficient): each free slot to
        # itself, then each row's pivot to the free slots where it is nonzero
        pivot = np.zeros((len(lay.sizes), fiber.shape[1]), dtype=bool)
        pivot[b, piv] = True
        fb, fs = np.nonzero(~pivot & self.in_blocks[:, None] & (np.arange(fiber.shape[1]) < lay.sizes[:, None]))
        r, f = np.nonzero(fiber * ~pivot[b])
        key = self.first_slot[np.concatenate([fb, b[r]])] + np.concatenate([fs, piv[r]])
        order = np.argsort(key, kind="stable")
        self.reduce_slot = np.concatenate([fs, f])[order]
        self.reduce_coef = np.concatenate([np.ones(len(fs)), -fiber[r, f]])[order]
        self.reduce_ptr = np.searchsorted(key[order], np.arange(lay.sizes.sum() + 1))

    def residual(self, vec: np.ndarray, unit: np.ndarray, val: np.ndarray, n: int) -> tuple:
        """The norm of the component outside A, and the norm, of each of n
        vectors of B given by terms (vector, unit, value), summed as by
        :func:`_summed`."""
        lay, dim = self.layout, self.dim
        vec, unit, val = _summed(vec, unit, val, dim)
        mass, b = _abs2(val), lay.block[unit]
        off = ~self.in_blocks[b]
        s, p = _runs(self.reduce_ptr, self.first_slot[b] + lay.row[unit])
        out = lay.unit(b[s], self.reduce_slot[p], lay.col[unit[s]])
        keys, sums = _sums(vec[s] * dim + out, val[s] * self.reduce_coef[p])
        inside = np.bincount(keys // dim, _abs2(sums), n)
        return np.sqrt(inside + np.bincount(vec[off], mass[off], n)), np.sqrt(np.bincount(vec, mass, n))

    def contains(self, vec: np.ndarray, unit: np.ndarray, val: np.ndarray, n: int) -> np.ndarray:
        res, norm = self.residual(vec, unit, val, n)
        return res <= self.eps * (1.0 + norm)


def _unit_terms(wc: WeakCoideal) -> tuple[np.ndarray, np.ndarray]:
    """The units of 1_A, ascending, and 1_A as a dense vector of B: unit
    (0; r, c) carries the row's value at slot r."""
    lay = wc.algebra._layout
    row = np.repeat(wc.unit, lay.sizes[lay.zero])
    dense = np.zeros(wc.algebra.dim, dtype=complex)
    dense[lay.zero_units] = row
    return lay.zero_units[row != 0], dense


def _unit_exists(wc: WeakCoideal) -> tuple[float, bool, str]:
    units, mu = _unit_terms(wc)
    res, norm = wc.coords.residual(np.zeros(len(units), dtype=np.int64), units, mu[units], 1)
    return _exact(bool(norm[0] > wc.algebra.eps and res[0] <= wc.algebra.eps * (1.0 + norm[0])),
                  "empty or missing unit")


def _product_closure(wc: WeakCoideal) -> tuple[float, bool, str]:
    """The margin res - eps (1 + |ab|) of every pair (a, b) of basis rows,
    numbered a * size + b: the products are one join of A's terms through
    the product entries with both factors on A's units.  A pair whose
    product has no terms has margin -eps and is left out."""
    alg, A = wc.algebra, wc.coords
    T, size = alg.product, A.size
    within = np.flatnonzero(A.covers[T.i] & A.covers[T.j])
    s, e = _join(A.unit, T.i[within])
    e = within[e]
    q, p = _join(T.j[e], A.unit_sorted)
    s, e, b = s[q], e[q], A.by_unit[p]
    pairs, pair = np.unique(A.row[s] * size + A.row[b], return_inverse=True)
    res, norm = A.residual(pair, T.k[e], A.val[s] * A.val[b] * T.c[e], len(pairs))
    return _verdict(res - A.eps * (1.0 + norm), 0.0,
                    lambda at: f"basis pair {divmod(int(pairs[at]), size)}")


def _star_closure(wc: WeakCoideal) -> tuple[float, bool, str]:
    """The involution is a monomial map: u_i -> c_i u_{k_i}."""
    A, star = wc.coords, wc.algebra._star_map
    res, _ = A.residual(A.row, star.k[A.unit], A.val.conj() * star.c[A.unit], A.size)
    return _verdict(res - A.eps * (1.0 + A.norms), 0.0, "basis vector {}".format)


def _coproduct_into(wc: WeakCoideal) -> tuple[float, bool, str]:
    """Delta(a) = sum_j w_j (x) u_j lies in A (x) B iff every w_j lies in A."""
    alg, A = wc.algebra, wc.coords
    C, dim = alg._coproduct_table, alg.dim
    t, p = _runs(C.ptr, A.unit)
    keys, leg = np.unique(A.row[t] * dim + C.second[p], return_inverse=True)
    bad = keys[~A.contains(leg, C.first[p], A.val[t], len(keys))] // dim
    return _exact(not len(bad), f"basis vector {int(bad[0])}" if len(bad) else "")


def _unit_identity(wc: WeakCoideal) -> tuple[float, bool, str]:
    """The sup distance of 1_A a and a 1_A from a, for every basis row a."""
    alg, A = wc.algebra, wc.coords
    T, dim = alg.product, alg.dim
    _, mu = _unit_terms(wc)
    dist = np.zeros(A.size)
    for (s, e), unit_coef in ((T.of_right(A.unit), mu[T.i]), (T.of_left(A.unit), mu[T.j])):
        row, k, val = _summed(A.row[s], T.k[e], A.val[s] * unit_coef[e] * T.c[e], dim)
        keys, diff = _diff((row * dim + k, val), (A.row * dim + A.unit, A.val))
        np.maximum.at(dist, keys // dim, diff)
    return _verdict(dist, alg.eps, "basis vector {}".format)


def _unit_coproduct(wc: WeakCoideal) -> tuple[float, bool, str]:
    """Delta(1_A) = sum_f u_f (x) r_f lies in A (x) B_t: every r_f lies in
    B_t (one dense residual over its universe), and for each basis row of
    B_t the first legs weighted by their r_f coordinates lie in A."""
    alg, A = wc.algebra, wc.coords
    C, dim = alg._coproduct_table, alg.dim
    target, _source = alg.counital_subalgebras()
    units, mu = _unit_terms(wc)
    _, p = _runs(C.ptr, units)
    firsts, at = np.unique(C.first[p], return_inverse=True)
    f, second, val = _summed(at, C.second[p], mu[C.src[p]], dim)
    keys = target.universe
    pos = np.full(dim, -1)  # each unit's place in B_t's universe
    pos[keys] = np.arange(len(keys))
    inside = pos[second] >= 0
    legs = np.zeros((len(firsts), len(keys)), dtype=complex)
    legs[f[inside], pos[second[inside]]] = val[inside]
    res = target.residuals(legs, np.bincount(f[~inside], _abs2(val[~inside]), len(firsts)))
    norms = np.sqrt(np.bincount(f, _abs2(val), len(firsts)))
    row_of = np.full(dim, -1)  # the B_t basis row whose pivot is each unit
    row_of[keys[target.pivots]] = np.arange(target.dim)
    b = row_of[second]
    hit = b >= 0
    ok = (bool(A.size) and bool((res - target.eps * (1.0 + norms) <= 0.0).all())
          and bool(A.contains(b[hit], firsts[f[hit]], val[hit], target.dim).all()))
    return _exact(ok)


def verify_weak_coideal(wc: WeakCoideal) -> AxiomReport:
    """Check, by subspace membership, every defining property of a weak
    coideal: product and star closure, the coproduct landing in A (x) B,
    the unit acting as identity, and the coproduct of the unit landing in
    A (x) B_t.

    The checks are one table of rows (name, instances, evaluator), run in
    order; an evaluator returns (residual, passed, witness).  Each is a
    batched residual over A's coordinates, one block of A at a time, read
    from B's structure-constant arrays."""
    alg, size = wc.algebra, wc.dim
    rows = [
        ("unit exists in A", 1, _unit_exists),
        ("closed under product", size**2, _product_closure),
        ("closed under star", size, _star_closure),
        ("coproduct maps into A (x) B", size, _coproduct_into),
        ("unit acts as identity", size, _unit_identity),
        ("coproduct of unit in A (x) B_t", 1, _unit_coproduct),
    ]
    tau = "+" if alg.tau_sign > 0 else "-"
    report = AxiomReport(label=f"coideal {wc.label} on {alg.group} tau{tau}", eps=alg.eps)
    for name, total, evaluate in rows:
        report.checks.append(AxiomCheck(name, *evaluate(wc), total))
    return report


def is_coideal(wc: WeakCoideal) -> bool:
    """True iff the subalgebra unit equals the ambient unit, 1 on every zero-block slot."""
    return float(np.abs(wc.unit - 1.0).max()) <= wc.algebra.eps


def _invariance(wc: WeakCoideal) -> tuple:
    """The sparse system (rows, cols, vals) whose kernel is the invariant
    subalgebra {a in A : Delta(a) = Delta(1_A)(a (x) 1)}, in A's coordinates.

    Delta(1_A)(u_i (x) 1) is sum_p c_p (u_{f_p} u_i) (x) u_{s_p} over the terms
    c_p u_{f_p} (x) u_{s_p} of Delta(1_A), so each constraint column joins
    those first legs with the product entries whose right factor is u_i."""
    alg, A = wc.algebra, wc.coords
    dim, T, C = alg.dim, alg.product, alg._coproduct_table
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
    return rows, cols, vals


def fixed_point_algebra(wc: WeakCoideal) -> Subspace:
    """The invariant subalgebra {a in A : Delta(a) = Delta(1_A)(a (x) 1)}."""
    A, alg = wc.coords, wc.algebra
    kernel = sparse_nullspace(*_invariance(wc), A.size, eps=alg.eps)
    return span(kernel, A.row, A.unit, A.val, eps=alg.eps)


def center(wc: WeakCoideal) -> Subspace:
    """The center of A, by one commutant solve over A's basis."""
    A, alg = wc.coords, wc.algebra
    kernel = sparse_nullspace(*alg.commutant(A.row, A.unit, A.val), A.size, eps=alg.eps)
    return span(kernel, A.row, A.unit, A.val, eps=alg.eps)


def is_indecomposable(wc: WeakCoideal) -> bool:
    """True iff the central invariant subalgebra is one-dimensional.

    The invariant subalgebra is the kernel of the invariance system in A's
    coordinates, with rows z_i.  Its central elements sum_i y_i z_i are the
    kernel of the commutant system restricted to the z_i: a dense matrix over
    the few y_i, joining each commutant entry with the z_i nonzero there."""
    A, alg = wc.coords, wc.algebra
    z = sparse_nullspace(*_invariance(wc), A.size, eps=alg.eps)
    (rows, cols, vals), (at, i) = alg.commutant(A.row, A.unit, A.val), np.nonzero(z.T)
    s, p = _join(cols, at)
    keys, r = np.unique(rows[s], return_inverse=True)
    restricted = np.zeros((1, len(keys), len(z)), dtype=complex)
    np.add.at(restricted[0], (r, i[p]), vals[s] * z[i[p], at[p]])
    return len(nullspace(restricted, eps=alg.eps)[0]) == 1


# -- spectral dimensions ---------------------------------------------------------


def spectral_dims(spec: CoidealSpec, alg: TYAlgebra) -> np.ndarray:
    """Predicted fiber dimensions of classification data, one per block in
    ``Layout`` order: dim X^g counts the cosets lam of either side with lam
    and g + lam both in that side's Z, and dim X^m = 2 |Z0| |Z1|."""
    group = alg.group
    counts = np.zeros(group.order + 1, dtype=np.int64)
    for quot, z in ((spec.q0, spec.z0), (spec.q1, spec.z1)):
        in_z = np.zeros(len(quot), dtype=bool)
        in_z[list(z)] = True
        counts[:-1] += (in_z & in_z[quot.trans])[quot.label].sum(axis=1)
    counts[-1] = 2 * len(spec.z0) * len(spec.z1)
    return counts


def dims_match(wc: WeakCoideal) -> bool:
    """True iff the fiber dimensions of wc are those its classification data
    predicts."""
    if wc.spec is None:
        raise InvariantError(f"coideal {wc.label} has no classification data (K, Z0, Z1) to predict its fibers")
    return bool(np.array_equal(spectral_dims(wc.spec, wc.algebra), wc.x_dims()))


def assess(wc: WeakCoideal) -> tuple[AxiomReport, bool, bool, bool]:
    """The verification report of wc, whether it is a coideal, whether it is
    indecomposable, and whether its fiber dimensions match the prediction.
    Indecomposability is decided only when every check passes, else False."""
    report = verify_weak_coideal(wc)
    return report, is_coideal(wc), report.passed and is_indecomposable(wc), dims_match(wc)
