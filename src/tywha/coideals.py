"""Weak coideal subalgebras of the Tambara-Yamagami groupoid algebra.

A weak coideal is assembled from a family of fiber subspaces ``X^x <= H^x``:
the subalgebra is ``A = sum_x X^x (x) conj(H^x)`` with unit ``v^0_Gamma (x)
conj(v^0_Omega)``, where Gamma is the joint support of ``X^0``.  Builders
construct the classified families from a subgroup K and coset data; the
verifier re-checks every defining property by plain linear algebra.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import AxiomReport, TYAlgebra
from .errors import InvariantError
from .groups import QuotientGroup, Subgroup
from .linalg import (Subspace, _diff, _kept, _pruned, _pruned_rows, _ranges, _runs, _sq, _sums, components, nullity,
                     sparse_nullspace, span)


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
    slots where the zero block's rows have support."""

    def __init__(self, algebra: TYAlgebra, fiber_block: np.ndarray, fiber_pivot: np.ndarray,
                 fiber_rows: np.ndarray, label: str, spec: CoidealSpec | None = None):
        self.algebra, self.label, self.spec = algebra, label, spec
        self.fiber_block, self.fiber_pivot, self.fiber_rows = fiber_block, fiber_pivot, fiber_rows
        lay = algebra._layout
        self.unit = _kept(fiber_rows[fiber_block == lay.zero, : lay.sizes[lay.zero]]).any(axis=0).astype(complex)

    @property
    def dim(self) -> int:
        """sum_x dim X^x dim H^x."""
        return int(self.algebra._layout.sizes[self.fiber_block].sum())

    def key(self) -> bytes:
        """The subalgebra's exact key: its fiber rows sorted by block and
        pivot, as ``_key_rows`` writes 0/1 indicator rows.  Every builder's
        rows are such indicators, disjoint within a block with each pivot at
        the least slot of its row: the reduced echelon rows of the fibers,
        which the fibers determine.  So two keys are equal iff the
        subalgebras are.  Raises InvariantError for rows that are not 0/1."""
        order = np.lexsort((self.fiber_pivot, self.fiber_block))
        rows = self.fiber_rows[order]
        if not ((rows == 0) | (rows == 1)).all():
            raise InvariantError(f"coideal {self.label} has fiber rows that are not 0/1 indicators")
        return _key_rows(self.fiber_block[order], rows == 1).tobytes()

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


# -- builders ----------------------------------------------------------------------


def _annihilator(alg: TYAlgebra, spec: CoidealSpec) -> Subgroup:
    """The subgroup of ``spec.q1``, checked to be the annihilator of K in
    ``alg``: of order |G|/|K| and pairing trivially with K."""
    K, perp = spec.subgroup, spec.q1.subgroup
    if (K.group != alg.group or perp.group != alg.group or K.order * perp.order != alg.group.order
            or alg.bichar.phase_table[np.ix_(K.idx, perp.idx)].any()):
        raise InvariantError(f"Z1 must be cosets of the annihilator of K = {K}")
    return perp


def _key_rows(block: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Each 0/1 indicator row as bytes: its block (blocks number at most
    ALGEBRA_ORDER_BOUND + 1), then its members packed eight to a byte."""
    return np.concatenate([block.astype(np.uint8)[:, None], np.packbits(member, axis=1)], axis=1)


def _indicator(zs: Sequence[tuple[int, ...]], n: int) -> np.ndarray:
    """The indicator rows over n cosets of the coset numbers in each of zs."""
    rows = np.zeros((len(zs), n), dtype=bool)
    rows[np.repeat(np.arange(len(zs)), [len(z) for z in zs]), [c for z in zs for c in z]] = True
    return rows


class _Families:
    """Families over one algebra held as 0/1 indicator rows, the form every
    builder makes: family c has rows ``start[c]`` to ``start[c] + counts[c]``
    of ``block`` and ``member`` (over the widest block's slots), sorted by
    block, then pivot, its least slot.  Rows within a block are disjoint,
    so they are reduced echelon rows, and two families span the same
    fibers iff their rows are equal.  ``labels`` and ``specs`` name each
    family's builder and classification data, the data over one pair of
    quotients."""

    def __init__(self, alg: TYAlgebra, counts: np.ndarray, block: np.ndarray, member: np.ndarray,
                 labels: list[str], specs: Sequence[CoidealSpec]):
        self.algebra, self.counts, self.block, self.member = alg, counts, block, member
        self.labels, self.specs, self.start = labels, specs, np.cumsum(counts) - counts

    def __getitem__(self, c: int) -> WeakCoideal:
        lo, hi = int(self.start[c]), int(self.start[c] + self.counts[c])
        member = self.member[lo:hi]
        return WeakCoideal(self.algebra, self.block[lo:hi], member.argmax(axis=1), member.astype(complex),
                           self.labels[c], self.specs[c])

    def keys(self) -> list[bytes]:
        """Each family's ``WeakCoideal.key``, cut from one ``_key_rows``."""
        rows = _key_rows(self.block, self.member)
        flat, width, ends = rows.tobytes(), rows.shape[1], (self.start + self.counts).tolist()
        return [flat[lo * width:hi * width] for lo, hi in zip(self.start.tolist(), ends)]

    def dims_match(self) -> np.ndarray:
        """Each family's ``dims_match``: its ``x_dims`` against the
        prediction of its data, each a ``bincount`` over all the families."""
        k, blocks = len(self.counts), len(self.algebra.block_names)
        x_dims = np.bincount(np.repeat(np.arange(k), self.counts) * blocks + self.block, minlength=k * blocks)
        return (_spectral_dims(self.algebra, self.specs) == x_dims.reshape(k, blocks)).all(axis=1)


def _build(alg: TYAlgebra, builder: str, side: int, specs: Sequence[CoidealSpec]) -> _Families:
    """The families that ``builder`` makes from side ``side`` of each of
    the classification data ``specs``, which share one pair of quotients,
    in one array pass; ``specs[0]`` is checked to pair K with its
    annihilator.  Z is the side's coset numbers and L its subgroup, K on
    side 0 and Kperp on side 1, so that with_m and the lines on side 1
    build (Kperp, Z1, Z0):
    - ``no_m``: X^g gets v^g_lam for the lam in Z with lam - g in Z, each
      coset's members over the first n of the 2n slots, and X^m = 0;
    - ``with_m``: the same, then v^g_m for g in the annihilator of L, and
      X^m gets v^m_lam and then v^m_{~lam}, lam in Z (the last n slots);
    - ``I_m_K`` and ``I_Omega_K``: one line per element k of L, X^k = C v^k_m
      or C v^k_Omega (the all-ones vector over k's slots 0..n, n the m slot).
    Each family's rows come sorted by block, then in the order listed,
    which is the order of their pivots."""
    _annihilator(alg, specs[0])
    n, k, slot = alg.group.order, len(specs), np.arange(2 * alg.group.order)
    quots = specs[0].q0, specs[0].q1
    quot, other = quots[side], quots[1 - side]
    zs = [(spec.z0, spec.z1)[side] for spec in specs]
    if builder in ("I_m_K", "I_Omega_K"):
        lines = quot.subgroup
        block = np.tile(lines.idx, k)
        member = np.tile((slot >= (n if builder == "I_m_K" else 0)) & (slot <= n), (len(block), 1))
        return _Families(alg, np.full(k, lines.order), block, member, [builder] * k, specs)
    in_z = _indicator(zs, len(quot))
    hits = in_z[:, None, :] & in_z[:, np.argsort(quot.trans, axis=1)]  # [., t, c]: c and c - t in Z
    # each coset's members over the 2n slots, as the first n and as the last n
    label = np.full((2, 2 * n), -1)
    label[0, :n] = label[1, n:] = quot.label
    coset, shifted = label[:, None] == np.arange(len(quot))[:, None]
    owner, g, c = np.nonzero(hits[:, quot.label])
    owners, blocks, members = [owner], [g], [coset[c]]
    if builder == "with_m":
        perp, (z_owner, z) = other.subgroup, np.nonzero(in_z)
        owners += [np.repeat(np.arange(k), perp.order), z_owner, z_owner]
        blocks += [np.tile(perp.idx, k), np.full(2 * len(z), n)]
        members += [np.tile(slot == n, (k * perp.order, 1)), coset[z], shifted[z]]
    owner, block, member = (np.concatenate(a) for a in (owners, blocks, members))
    order = np.lexsort((block, owner))
    name = f"no_m(side={side}, " if builder == "no_m" else "with_m("
    return _Families(alg, np.bincount(owner, minlength=k), block[order], member[order],
                     [f"{name}|Z|={len(z)})" for z in zs], specs)


def build_no_m(alg: TYAlgebra, spec: CoidealSpec) -> WeakCoideal:
    """Family with trivial m fiber: X^g spanned by the coset vectors v^g_lam
    with lam in Z and lam - g in Z; X^m = 0.

    Z is the one nonempty side of ``spec``: Z0 inside G/K (side 0), or Z1
    inside the quotient by the annihilator of K (side 1, the symmetric
    case)."""
    if spec.z0 and spec.z1:
        raise InvariantError("no_m takes Z on one side only: Z0 or Z1 must be empty")
    return _build(alg, "no_m", 0 if spec.z0 else 1, [spec])[0]


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
    return _build(alg, "with_m", 0, [spec])[0]


def _subgroup_lines(alg: TYAlgebra, spec: CoidealSpec, builder: str) -> WeakCoideal:
    """``builder``'s lines over K, for data (K, {lam}, {})."""
    if len(spec.z0) != 1 or spec.z1:
        raise InvariantError(f"{builder} takes one Z0 coset and no Z1")
    return _build(alg, builder, 0, [spec])[0]


def build_I_m_K(alg: TYAlgebra, spec: CoidealSpec) -> WeakCoideal:
    """One line per subgroup element, supported on the m slot: X^k = C v^k_m."""
    return _subgroup_lines(alg, spec, "I_m_K")


def build_I_Omega_K(alg: TYAlgebra, spec: CoidealSpec) -> WeakCoideal:
    """One all-ones line per subgroup element: X^k = C v^k_Omega."""
    return _subgroup_lines(alg, spec, "I_Omega_K")


def _builder(spec: CoidealSpec) -> tuple[str, int]:
    """The builder ``build_from_spec`` takes for classification data, and
    the side of the data it builds from (see ``_build``)."""
    if not spec.z0 or not spec.z1:
        return "no_m", int(not spec.z0)
    return "with_m", int(len(spec.z0) == 1 and (len(spec.z1) > 1 or len(spec.z1) == len(spec.q1)))


def build_from_spec(alg: TYAlgebra, spec: CoidealSpec) -> WeakCoideal:
    """The family of classification data (K, Z0, Z1): ``no_m`` on the
    nonempty side when the other is empty, else ``with_m`` over the side
    that holds several cosets, with the other side's single coset as rho0.
    A single Z0 against a full Z1 is built over the annihilator, so that
    the family of a coideal class is unital in B."""
    builder, side = _builder(spec)
    if builder == "no_m":
        return build_no_m(alg, spec)
    return build_with_m(alg, spec.swapped() if side else spec)


# -- verification -------------------------------------------------------------------


def _verdicts(values: np.ndarray, owner: np.ndarray, k: int, witness) -> list[tuple[float, str]]:
    """For each coideal c < k, the largest positive value it owns and
    ``witness`` of the first index where that occurs, a NaN counting as
    largest; (0.0, "") when no value of c is positive."""
    peak, first = np.full(k, -np.inf), np.full(k, len(values))
    np.maximum.at(peak, owner, values)
    hit = np.flatnonzero((values == peak[owner]) | np.isnan(values))
    np.minimum.at(first, owner[hit], hit)
    return [(0.0, "") if p <= 0 else (p, witness(at)) for p, at in zip(peak.tolist(), first.tolist())]


def _exact(ok: bool, witness: str = "") -> tuple[float, str]:
    """The residual and witness of a check that holds or fails outright."""
    return (0.0, "") if ok else (float("inf"), witness)


class _Fibers:
    """The fiber rows F_x of a nonempty batch of weak coideals over one
    algebra as terms (row, key, val), pruned at ROUNDOFF: rows are numbered
    through the batch, ``owner[i]`` the coideal of row i, and slot s of
    coideal c (as ``Layout.slot_starts`` numbers slots) has key c * slots + s.
    Terms are sorted by row, then key (``terms``), and by key
    (``sorted_terms``); ``local`` and ``slot`` give each term's slot within
    its block and slot.

    Row i is 1 at its pivot slot and 0 at its block's other pivots, so a
    vector w of sum_z H^z lies in sum_z X^z iff w - sum_i w[piv_i] F_i is
    zero: it is w_z[free] - F_z[:, free]^T w_z[piv] on the free slots of a
    block with X^z != 0, 0 on pivots and w elsewhere, and its norm is w's
    residual.  The reduce map sends each pivot key to its row.  ``unit``
    gives each coideal's v^0_Gamma as terms (c, key, value), ``gamma``
    whether it is nonzero, and ``unit_in_a`` whether it is nonzero and lies
    in X^0, its residual taken by ``residual``."""

    def __init__(self, batch: Sequence[WeakCoideal]):
        alg = batch[0].algebra
        lay, self.algebra, self.table, self.eps = alg._layout, alg, alg._fiber_table, alg.eps
        self.counts = np.array([len(wc.fiber_block) for wc in batch], dtype=np.int64)
        self.k, self.size, self.slots = len(batch), int(self.counts.sum()), int(lay.sizes.sum())
        self.keys, self.owner = self.k * self.slots, np.repeat(np.arange(self.k), self.counts)
        self.index = {id(wc): c for c, wc in enumerate(batch)}  # each coideal's number in the batch
        self.start = np.cumsum(self.counts) - self.counts  # each coideal's first row
        self.local_row = (np.arange(self.size) - self.start[self.owner]).tolist()  # row numbers within each coideal
        b, pivot, fiber = (np.concatenate([getattr(wc, f) for wc in batch])
                           for f in ("fiber_block", "fiber_pivot", "fiber_rows"))
        self.zero_rows, fiber = b == lay.zero, _pruned_rows(fiber)
        row, self.local = np.nonzero(fiber)
        val, self.slot = fiber[row, self.local], lay.slot_starts[b[row]] + self.local
        self.terms = row, self.owner[row] * self.slots + self.slot, val
        self.sorted_terms = tuple(t[np.argsort(self.terms[1], kind="stable")] for t in self.terms)
        self.pivot_row = np.full(self.keys, -1)
        self.pivot_row[self.owner * self.slots + lay.slot_starts[b] + pivot] = np.arange(self.size)
        self.row_ptr = np.searchsorted(row, np.arange(self.size + 1))
        units = np.array([wc.unit for wc in batch])
        c, at = np.nonzero(units)
        self.unit, self.gamma = (c, c * self.slots + lay.slot_starts[lay.zero] + at, units[c, at]), units.any(axis=1)
        res, norm = self.residual(*self.unit, self.k)
        self.unit_in_a = (norm > self.eps) & (res <= self.eps * (1.0 + norm))

    def compose(self, left: tuple, right: tuple) -> tuple:
        """The terms (u, w, output key, value) of u . w for the vectors u and
        w of one coideal given by the terms ``left`` and ``right`` (vector,
        key, value), ``right``'s sorted by key: one join through the fiber
        table.  No vectors of two coideals meet: a left term of coideal c at
        slot s meets the table entries (s, s', out) of its slot, and each of
        them only the right terms of key c * slots + s', coideal c's as
        0 <= s' < slots.  Within a coideal the terms come in the order of a
        batch of one, as the table's runs and the order of the left terms,
        and of the right terms of each key, are the same."""
        (lv, lk, lval), (rv, rk, rval), T = left, right, self.table
        c, ls = np.divmod(lk, self.slots)
        s, p = _runs(T.ptr, ls)
        q, t = _runs(np.searchsorted(rk, np.arange(self.keys + 1)), c[s] * self.slots + T.right[p])
        s, p = s[q], p[q]
        return lv[s], rv[t], c[s] * self.slots + T.out[p], lval[s] * rval[t] * T.coeff[p]

    def residual(self, vec: np.ndarray, key: np.ndarray, val: np.ndarray, n: int) -> tuple:
        """The norm of the component outside sum_x X^x, and the norm, of
        each of n vectors of one coideal's sum_z H^z given by terms (vector,
        key, value), summed per (vector, key) and pruned by ``_pruned``."""
        (keys, val), (_, own, coef) = _pruned(vec * self.keys + key, val), self.terms
        vec, key = np.divmod(keys, self.keys)
        at = self.pivot_row[key] >= 0
        s, p = _runs(self.row_ptr, self.pivot_row[key[at]])
        keys, sums = _sums(np.concatenate([vec, vec[at][s]]) * self.keys + np.concatenate([key, own[p]]),
                           np.concatenate([val, -val[at][s] * coef[p]]))
        return np.sqrt(np.bincount(keys // self.keys, _sq(sums), n)), np.sqrt(np.bincount(vec, _sq(val), n))


def _unit_exists(F: _Fibers) -> list[tuple[float, str]]:
    """1_A = v^0_Gamma (x) conj(v^0_Omega) lies in A iff v^0_Gamma = u lies
    in X^0, since A's zero block is X^0 (x) conj(H^0), and it is nonzero iff
    u is.  ``_Fibers`` takes u's residual as every coideal row takes one."""
    return [_exact(ok, "empty or missing unit") for ok in F.unit_in_a.tolist()]


def _product_closure(F: _Fibers) -> list[tuple[float, str]]:
    """B's product is the fiber table's self-join on (x, y, z): for xi in
    X^x and eta in X^y, (xi (x) conj e_b)(eta (x) conj e_d) is
    sum_z (xi . eta)_z (x) conj(c_z e_f), where e_b . e_d has at most one
    term c_z e_f, c_z != 0, in each block z, and over all (b, d) reaches
    every z the table links to (x, y).  As A keeps every column leg, it is
    closed under product iff (X^x . X^y)_z <= X^z for every linked
    (x, y, z), that is iff xi . eta lies in sum_z X^z for all fiber rows.
    The margin res - eps (1 + |xi . eta|) of every pair, numbered i r + j
    within its coideal; a pair whose product has no terms has margin -eps
    and is left out."""
    i, j, key, val = F.compose(F.terms, F.sorted_terms)
    pairs, pair = np.unique(i * F.size + j, return_inverse=True)
    res, norm = F.residual(pair, key, val, len(pairs))
    i, j = np.divmod(pairs, F.size)
    return _verdicts(res - F.eps * (1.0 + norm), F.owner[i], F.k,
                     lambda at: f"fiber rows {(F.local_row[i[at]], F.local_row[j[at]])}")


def _star_closure(F: _Fibers) -> list[tuple[float, str]]:
    """The involution sends (x; r, c) to psi_r phi_c (-x; r', c') as the slot
    table says, conjugate-linearly, with psi, phi nonzero and c -> c' onto the
    slots, so star(xi (x) conj e_c) = sharp(xi) (x) conj(phi_c e_c'), sharp(xi)
    = sum_r conj(xi_r) psi_r e_r', and A is closed under star iff sharp(X^x)
    <= X^(-x).  The margin res - eps (1 + |xi|) of every fiber row."""
    (row, _, val), S = F.terms, F.algebra._slot_table
    res, _ = F.residual(row, F.owner[row] * F.slots + S.star[F.slot], val.conj() * S.psi[F.slot], F.size)
    norms = np.sqrt(np.bincount(row, _sq(val), F.size))
    return _verdicts(res - F.eps * (1.0 + norms), F.owner, F.k, lambda at: f"fiber row {F.local_row[at]}")


def _coproduct_into(F: _Fibers) -> list[tuple[float, str]]:
    """True by construction: Delta(x; r, c) = sum_s (x; r, s) (x) (x; s, c),
    so Delta(xi (x) conj e_c) = sum_s (xi (x) conj e_s) (x) (e_s (x) conj e_c),
    whose first legs lie in X^x (x) conj(H^x), all of which A, held by its
    fiber rows, keeps.  The check is on the coproduct table this rests on:
    every term of Delta(x; r, c), r in a fiber row's support, keeps (x; r).
    The witness is the first fiber row that breaks it."""
    bad = np.where(np.isin(np.arange(F.size), F.terms[0][~F.algebra._row_legs_kept[F.slot]]), np.inf, 0.0)
    return _verdicts(bad, F.owner, F.k, lambda at: f"fiber row {F.local_row[at]}")


def _unit_identity(F: _Fibers) -> list[tuple[float, str]]:
    """1_A (xi (x) conj e_c) = (v^0_Gamma . xi) (x) conj(v^0_Omega . e_c) and
    v^0_Omega acts as the identity on every H^x from both sides (B's unit
    law), so 1_A a = a = a 1_A on A iff v^0_Gamma . xi = xi = xi . v^0_Gamma
    for every fiber row xi.  The sup distance of both from xi, per row."""
    (row, key, val), n, dist = F.terms, F.keys, np.zeros(F.size)
    (_, left, *lhs), (right, _, *rhs) = F.compose(F.unit, F.sorted_terms), F.compose(F.terms, F.unit)
    for vec, out, coef in ((left, *lhs), (right, *rhs)):
        keys, diff = _diff(_pruned(vec * n + out, coef), (row * n + key, val))
        np.maximum.at(dist, keys // n, diff)
    return _verdicts(dist, F.owner, F.k, lambda at: f"fiber row {F.local_row[at]}")


def _unit_coproduct(F: _Fibers) -> list[tuple[float, str]]:
    """Delta(1_A) = sum_s (v^0_Gamma (x) conj e_s) (x) (e_s (x) conj v^0_Omega)
    over the zero-block slots s.  For Gamma nonempty both families of legs
    are linearly independent, so Delta(1_A) lies in A (x) B_t iff every
    first leg lies in A, that is iff v^0_Gamma lies in X^0, and every second
    leg lies in B_t, a property of B alone, read once per algebra from the
    fiber table's zero block (``TYAlgebra._unit_legs_in_target``), so no
    coideal command builds B_t.  Delta(1_A) = 0 for Gamma empty; A = 0
    fails, as it has no unit."""
    alg, legs = F.algebra, (0.0, "")
    if F.unit_in_a.any():  # some coideal reads B_t
        out = np.flatnonzero(~alg._unit_legs_in_target)
        slot = alg.slot_names[alg._layout.zero][out[0]] if len(out) else ""
        legs = _exact(not len(out), f"second leg e_{slot} (x) conj(v^0_Omega) of Delta(1_A) not in B_t")
    return [_exact(False, "A = 0") if not r else (0.0, "") if not gamma else
            legs if in_a else _exact(False, "v^0_Gamma not in X^0")
            for r, gamma, in_a in zip(F.counts.tolist(), F.gamma.tolist(), F.unit_in_a.tolist())]


def verify_weak_coideal(batch: Sequence[WeakCoideal], fibers: _Fibers | None = None) -> list[AxiomReport]:
    """Check, by subspace membership, every defining property of a weak
    coideal, for each coideal of a nonempty batch over one algebra: product
    and star closure, the coproduct landing in A (x) B, the unit acting as
    identity, and the coproduct of the unit landing in A (x) B_t.

    The checks are one table of rows (name, instances, evaluator, bound).
    Each evaluator runs once on all the batch's fiber rows, by the reduction
    its docstring proves, and gives each coideal its residual and witness;
    :meth:`AxiomReport.run` makes one report per coideal from them.  An
    instance is a fiber row or a pair of them, and a residual is taken in
    sum_z H^z.  Closure margins already hold eps, so pass at bound 0.
    ``fibers`` are the batch's, built when not given."""
    F = fibers or _Fibers(batch)
    alg, eps = F.algebra, F.eps
    rows = [  # (name, p, evaluator, bound): a coideal of r fiber rows has r**p instances
        ("unit exists in A", 0, _unit_exists, eps),
        ("closed under product", 2, _product_closure, 0.0),
        ("closed under star", 1, _star_closure, 0.0),
        ("coproduct maps into A (x) B", 1, _coproduct_into, eps),
        ("unit acts as identity", 1, _unit_identity, eps),
        ("coproduct of unit in A (x) B_t", 0, _unit_coproduct, eps),
    ]
    verdicts, tau = [evaluate(F) for _, _, evaluate, _ in rows], "+" if alg.tau_sign > 0 else "-"
    return [AxiomReport.run(f"coideal {wc.label} on {alg.group} tau{tau}", eps, alg.unit_name,
                            [(name, r**power, per_coideal.__getitem__, bound)
                             for (name, power, _, bound), per_coideal in zip(rows, verdicts)], c)
            for c, (wc, r) in enumerate(zip(batch, F.counts.tolist()))]


def is_coideal(wc: WeakCoideal) -> bool:
    """True iff the subalgebra unit equals the ambient unit, 1 on every zero-block slot."""
    return float(np.abs(wc.unit - 1.0).max()) <= wc.algebra.eps


def _coords(wc: WeakCoideal) -> tuple:
    """A's basis for ``center``: the terms (row, unit, val) of the rows
    F_x[i] (x) e_c, F_x pruned at ROUNDOFF, numbered by block, fiber row and
    column slot c and sorted by row, then unit; and dim A."""
    lay, b, F = wc.algebra._layout, wc.fiber_block, _Fibers([wc])
    n = lay.sizes[b]  # the slots of each fiber row's block; its rows of A begin at start
    start = np.cumsum(n) - n
    (r, _, val), s = F.terms, F.local  # each term gives A's rows (r, c) their term at unit (s, c)
    t, col = _ranges(np.zeros_like(r), n[r])
    row, unit = start[r[t]] + col, lay.unit(b[r[t]], s[t], col)
    order = np.argsort(row, kind="stable")
    return row[order], unit[order], val[t][order], int(n.sum())


def fixed_point_algebra(wc: WeakCoideal) -> Subspace:
    """The invariant subalgebra {a in A : Delta(a) = Delta(1_A)(a (x) 1)},
    by the lemma in :func:`is_indecomposable` the span of mu (x)
    conj(v^0_Omega) over X^0's rows mu: unit (0; s, c) carries mu_s."""
    lay = wc.algebra._layout
    n, zero = int(lay.sizes[lay.zero]), wc.fiber_block == lay.zero
    rows = np.repeat(_pruned_rows(wc.fiber_rows[zero, :n]), n, axis=1)
    i, at = np.nonzero(rows)
    return span(np.eye(int(zero.sum())), i, lay.zero_units[at], rows[i, at])


def center(wc: WeakCoideal) -> Subspace:
    """The center of A, by one commutant solve over A's basis."""
    gen, unit, coef, size = _coords(wc)
    return span(sparse_nullspace(*wc.algebra.commutant(gen, unit, coef), size), gen, unit, coef)


def is_indecomposable(batch: Sequence[WeakCoideal], fibers: _Fibers | None = None) -> list[bool]:
    """For each coideal of a batch over one algebra, whether its central
    invariant subalgebra Z(A) & A^inv is one-dimensional.  ``fibers`` are
    those of a batch that holds these coideals, the batch's own when not
    given; only these coideals' systems are solved.

    A^inv = {mu (x) conj(v^0_Omega) : mu in X^0}.  Write a in A by its
    columns, a = sum_xc xi_xc (x) conj e_c with xi_xc in X^x.  Then Delta(a)
    = sum_xcs (xi_xc (x) conj e_s) (x) (e_s (x) conj e_c), while
    Delta(1_A)(a (x) 1) = sum_t (v^0_Gamma (x) conj e_t) a (x) (e_t (x)
    conj v^0_Omega) has every second leg in the zero block.  As the legs
    e_s (x) conj e_c are independent, a in A^inv has xi_xc = 0 off the zero
    block and, there, xi_c = v^0_Gamma . xi_s for all s and c: its columns
    are one mu with v^0_Gamma . mu = mu, which holds on X^0, as the zero
    fiber multiplies slotwise and Gamma is X^0's support.  Each such a is
    invariant.  And mu (x) conj(v^0_Omega) is central iff mu . xi = xi . mu
    for every fiber row xi, since v^0_Omega acts as the identity on every
    column leg.  So Z(A) & A^inv is the kernel of one small dense system
    over the coordinates of mu along X^0's rows, a row per (fiber row,
    output slot) of mu . xi - xi . mu.  Two joins over the batch's fiber
    rows form these coideals' systems, and ``components`` splits them for
    one ``nullity`` per stack: ``compose`` never joins rows of two
    coideals, so each component lies within one.  An equation is keyed
    r * slots + s (fiber row r, output slot s), so the keys ``components``
    forms stay below size**2 * slots for a batch of ``size`` fiber rows:
    under 2**39 at BATCH_PAIRS and order 16, where slots = 304."""
    F = fibers or _Fibers(batch)
    own, mine = [F.index[id(wc)] for wc in batch], np.zeros(F.k, dtype=bool)
    mine[own] = True
    basis = F.zero_rows & mine[F.owner]  # the columns: these coideals' X^0 rows
    row, key, val = F.sorted_terms
    at = basis[row]
    mu = ((np.cumsum(basis) - 1)[row[at]], key[at], val[at])  # coordinates along those rows
    (i, r, out, v), (r2, i2, out2, v2) = F.compose(mu, F.sorted_terms), F.compose(F.terms, mu)
    equations = np.append(r, r2) * F.slots + np.append(out, out2) % F.slots
    of, dims = F.owner[basis], np.zeros(F.k)
    for _, cols, blocks in components(equations, np.append(i, i2), np.append(v, -v2), len(of)):
        dims += np.bincount(of[cols[:, 0]], nullity(blocks), F.k)
    return (dims[own] == 1).tolist()


# -- spectral dimensions ---------------------------------------------------------


def _spectral_dims(alg: TYAlgebra, specs: Sequence[CoidealSpec]) -> np.ndarray:
    """``spectral_dims`` of classification data over one pair of quotients,
    a row per datum, by one ``bincount`` over every (datum, g, lam) counted."""
    n, k = alg.group.order, len(specs)
    keys = []
    for quot, zs in ((specs[0].q0, [spec.z0 for spec in specs]), (specs[0].q1, [spec.z1 for spec in specs])):
        in_z = _indicator(zs, len(quot))
        c, g, _ = np.nonzero((in_z[:, None, :] & in_z[:, quot.trans])[:, quot.label])
        keys.append(c * (n + 1) + g)
    keys.append(np.arange(k) * (n + 1) + n)
    m = [2 * len(spec.z0) * len(spec.z1) for spec in specs]
    counts = np.bincount(np.concatenate(keys), np.concatenate([np.ones(len(keys[0]) + len(keys[1])), m]), k * (n + 1))
    return counts.astype(np.int64).reshape(k, n + 1)


def spectral_dims(spec: CoidealSpec, alg: TYAlgebra) -> np.ndarray:
    """Predicted fiber dimensions of classification data, one per block in
    ``Layout`` order: dim X^g counts the cosets lam of either side with lam
    and g + lam both in that side's Z, and dim X^m = 2 |Z0| |Z1|."""
    return _spectral_dims(alg, [spec])[0]


def dims_match(wc: WeakCoideal) -> bool:
    """True iff the fiber dimensions of wc are those its classification data
    predicts."""
    if wc.spec is None:
        raise InvariantError(f"coideal {wc.label} has no classification data (K, Z0, Z1) to predict its fibers")
    return bool(np.array_equal(spectral_dims(wc.spec, wc.algebra), wc.x_dims()))


def _verified(batch: Sequence[WeakCoideal]) -> list[tuple[AxiomReport, bool, bool]]:
    """``assess`` without the dimension check."""
    F = _Fibers(batch)
    reports = verify_weak_coideal(batch, F)
    passed = [wc for wc, report in zip(batch, reports) if report.passed]
    indecomposable = iter(is_indecomposable(passed, F) if passed else [])
    return [(report, is_coideal(wc), report.passed and next(indecomposable)) for wc, report in zip(batch, reports)]


def assess(batch: Sequence[WeakCoideal]) -> list[tuple[AxiomReport, bool, bool, bool]]:
    """For each coideal of a batch over one algebra, its verification
    report, whether it is a coideal, whether it is indecomposable (decided
    only if every check passes, else False), all from one build of the
    batch's fibers (``_verified``), and whether its fiber dimensions match
    the prediction.  ``realize_and_verify`` takes the first three once per
    distinct subalgebra and makes the dimension check per class."""
    return [(*verdicts, dims_match(wc)) for wc, verdicts in zip(batch, _verified(batch))]
