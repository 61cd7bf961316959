"""The weak Hopf C*-algebra attached to Tambara-Yamagami data (G, chi, tau).

The algebra lives on ``B = sum_x H^x (x) conj(H^x)`` where x runs over the
simple objects: the elements of G plus one extra object ``m``.  The fiber
spaces have distinguished bases

    H^g:  v^g_h (h in G) and v^g_m            (dimension |G| + 1)
    H^m:  v^m_g and v^m_{~g} (g in G)         (dimension 2|G|)

and all structure maps (product, coproduct, counit, antipode, involution)
are given by closed-form tables in these bases.  ``tau = sign / sqrt(|G|)``.
Blocks and slots are integer indices (see :class:`Layout`), named only where
a report prints them.  The tables are built once per algebra, on first use,
as sorted index and coefficient arrays, and every check reads them.
``multiply``, ``tensor_multiply``, ``unit_product`` and ``coproduct`` apply
the same entries to ``SparseVec``s; nothing in the package calls them.

Everything is verified numerically by :meth:`TYAlgebra.verify_axioms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from math import isfinite, pi, sqrt
from cmath import exp as cexp

import numpy as np

from .errors import InvariantError, StructuralError, check_order
from .groups import Bicharacter, FiniteAbelianGroup, GroupElt
from .linalg import (DEFAULT_TOL, SparseVec, Subspace, _cmul, _diff, _distance, _join, _peak, _pruned, _pruned_rows,
                     _ranges, _runs, _sums, _worst, components, nullity)

# Largest |G| for which B is built: every check of the axiom suite is
# exhaustive up to it.
ALGEBRA_ORDER_BOUND = 16

# Pair and triple identities join this many first factors at a time, which
# bounds their memory at order 16.  Once translations are checked
# automorphisms, the first factors are one unit per translation orbit (368
# at order 16), so a single block holds them all.
FIRST_FACTOR_BLOCK = 512


@dataclass
class AxiomCheck:
    """One identity's verdict: the worst residual, where it occurs, how many
    instances the identity has, and its coverage.  Mode ``"exhaustive"``
    checks every instance.  Mode ``"exhaustive by translation"`` checks the
    instances whose first factor is the least unit of its translation orbit;
    they cover every instance, since each translation is a checked
    automorphism.  Mode ``"exhaustive by generators"`` checks the generators'
    translations, and the others by the group law (see :meth:`TYAlgebra.verify_axioms`)."""

    name: str
    residual: float
    passed: bool
    witness: str = ""
    instances_total: int = 1
    instances_checked: int | None = None  # None: every instance
    mode: str = "exhaustive"

    def __post_init__(self):
        if self.instances_checked is None:
            self.instances_checked = self.instances_total


@dataclass
class AxiomReport:
    label: str
    eps: float
    checks: list[AxiomCheck] = field(default_factory=list)

    @classmethod
    def run(cls, label: str, eps: float, unit_name, rows, *args) -> "AxiomReport":
        """Run the rows (name, instances, evaluator, bound) in order; a row
        passes iff ``evaluate(*args)``'s residual is at most its bound.  A
        witness is text, kept, or the worst instance's units, named when the
        residual is positive.  An evaluator may also return its coverage,
        (instances checked, mode); without it a row checks every instance.
        A StructuralError fails its row and ends the run."""
        report = cls(label, eps)
        for name, total, evaluate, bound in rows:
            try:
                residual, witness, *coverage = evaluate(*args)
            except StructuralError as exc:
                report.checks.append(AxiomCheck(name, float("inf"), False, str(exc), total))
                break
            if isinstance(witness, tuple):
                witness = "".join(f"({unit_name(i)})" for i in witness) if residual > 0 else ""
            report.checks.append(AxiomCheck(name, residual, residual <= bound, witness, total, *coverage))
        return report

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "tolerance": self.eps,
            "passed": self.passed,
            "checks": [dict(vars(c)) for c in self.checks],
        }

    def summary(self) -> str:
        lines = [f"axiom checks for {self.label} (tolerance {self.eps:g})"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            of = f" of {c.instances_total:,}" if c.instances_checked != c.instances_total else ""
            extra = f"  [{c.witness}]" if (c.witness and not c.passed) else ""
            lines.append(
                f"  {status}  {c.name:<44} max residual {c.residual:.3e}  {c.mode} {c.instances_checked:,}{of}{extra}"
            )
        return "\n".join(lines)


@dataclass
class HaarFunctional:
    """The normalized invariant functional in closed form, as a coefficient
    vector over the matrix-unit basis, and its residual in the Haar system."""

    coeffs: np.ndarray
    residual: float


def _dim_check(label: str, got: int, expected: int) -> tuple[float, str]:
    """How far a dimension is off, with the dimension found as witness."""
    return float(abs(got - expected)), f"{label} = {got}"


def _pick(per_block, x: int) -> tuple[float, str]:
    """Block x's residual from an evaluator of every block's."""
    return float(per_block()[x]), ""


def _basis_terms(space: Subspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The basis rows of a subspace over units as terms (row, unit, value),
    sorted by row and then unit, without the entries of modulus at most
    ROUNDOFF."""
    basis = _pruned_rows(space.basis)
    row, at = np.nonzero(basis)
    return row, space.universe[at], basis[row, at]


def _distinct(vec: np.ndarray, unit: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vectors given by terms (vector, unit, value) as dense rows over the
    units they touch, one row per vector with a term and each distinct row
    (by its bytes) once, in order of first occurrence.  An echelon reduction
    skips a repeat of an earlier row, so it gives the same basis from these
    alone."""
    units, at = np.unique(unit, return_inverse=True)
    vecs, row = np.unique(vec, return_inverse=True)
    rows = np.zeros((len(vecs), len(units)), dtype=complex)
    rows[row, at] = val
    _, first = np.unique(rows.view(f"V{rows.itemsize * len(units)}").ravel(), return_index=True)
    return units, rows[np.sort(first)]


def _off_identity(unit: np.ndarray, out: np.ndarray, vals: np.ndarray, dim: int) -> tuple:
    """Worst distance of the sums keyed (unit i, output k) from u_i itself,
    and the unit where it occurs."""
    r, key = _worst((unit * dim + out, vals), (np.arange(dim) * (dim + 1), np.ones(dim)))
    return r, (key // dim,)


class ProductTable:
    """B's product as coordinate arrays sorted by (i, j, k): u_i u_j is the sum
    of ``c u_k`` over the entries with that (i, j).

    ``ptr`` delimits the entries of each i; ``by_j`` and ``by_k`` order the
    entries by j and by k for joins.  ``rows[i]`` holds the same entries as
    Python ``(j, k, c)`` tuples for ``multiply`` and its kin, built on first
    use.
    """

    def __init__(self, i: np.ndarray, j: np.ndarray, k: np.ndarray, c: np.ndarray, dim: int):
        order = np.lexsort((k, j, i))
        self.i, self.j, self.k, self.c = i[order], j[order], k[order], c[order]
        self.ptr = np.searchsorted(self.i, np.arange(dim + 1))
        self.by_j = np.argsort(self.j, kind="stable")
        self.by_k = np.argsort(self.k, kind="stable")
        self._j_sorted = self.j[self.by_j]
        self._k_sorted = self.k[self.by_k]

    @cached_property
    def rows(self) -> list[list[tuple[int, int, complex]]]:
        flat = list(zip(self.j.tolist(), self.k.tolist(), self.c.tolist()))
        ptr = self.ptr.tolist()
        return [flat[lo:hi] for lo, hi in zip(ptr, ptr[1:])]

    def of_left(self, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(s, e) for every entry e with i == units[s]."""
        return _runs(self.ptr, units)

    def of_right(self, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(s, e) for every entry e with j == units[s]."""
        s, p = _join(units, self._j_sorted)
        return s, self.by_j[p]

    def of_output(self, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(s, e) for every entry e with k == units[s]."""
        s, p = _join(units, self._k_sorted)
        return s, self.by_k[p]


@dataclass
class FiberTable:
    """The fiber product: v^x_a . v^y_c has the term coeff v^z_e, ``local``
    holding (x, a, y, c, z, e) in :class:`Layout`'s indices.  ``left``,
    ``right`` and ``out`` number the slots (x, a), (y, c) and (z, e) as
    ``Layout.slot_starts`` does; ``ptr`` delimits each left slot's entries."""

    local: np.ndarray
    coeff: np.ndarray
    left: np.ndarray
    right: np.ndarray
    out: np.ndarray
    ptr: np.ndarray

    @classmethod
    def of(cls, lay: Layout, x, a, y, c, z, e, coeff) -> "FiberTable":
        """The table of these entries, sorted by left slot, then right slot."""
        left, right, out = (lay.slot_starts[b] + s for b, s in ((x, a), (y, c), (z, e)))
        order = np.lexsort((right, left))
        ptr = np.searchsorted(left[order], np.arange(int(lay.sizes.sum()) + 1))
        return cls(np.stack([x, a, y, c, z, e])[:, order], *(w[order] for w in (coeff, left, right, out)), ptr)


@dataclass
class UnitMap:
    """A map sending each basis unit u_i to ``c[i] u_{k[i]}`` (the involution
    or the antipode), as arrays."""

    k: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.by_k = np.argsort(self.k, kind="stable")
        self.k_sorted = self.k[self.by_k]


@dataclass
class SlotTable:
    """The fiber involution and every translation sigma_t as monomial maps on
    all blocks' slots, numbered as ``Layout.slot_starts`` numbers them.  The
    involution sends slot s to ``star[s]``, with coefficient ``psi[s]`` on a
    unit's first leg and ``phi[s]`` on its second: slot k of group block g
    goes to slot k - g of block -g, its m slot to that of -g, both with
    coefficient 1, and the m block swaps v^m_k (unb) and v^m_~k (bar).
    sigma_t sends slot s to ``shift[t, s]`` with ``phase[t, s]``: k to k + t
    in every block and ~k to ~(k + t), with phase 1, while group block g's m
    slot stays, with phase conj chi(g, t).  The eight rules of
    ``_fiber_table`` fix these phases: rule 4, say, reads
    conj chi(g, t) chi(g, k + t) = chi(g, k)."""

    star: np.ndarray
    psi: np.ndarray
    phi: np.ndarray
    shift: np.ndarray
    phase: np.ndarray


@dataclass
class CoproductTable:
    """Delta(u_i) is the sum of u_first[p] (x) u_second[p], coefficient 1,
    over p in ``ptr[i]:ptr[i + 1]``; ``pairs[i]`` lists the same terms as
    Python tuples for ``coproduct``, built on first use."""

    ptr: np.ndarray
    src: np.ndarray  # the i of each term
    first: np.ndarray
    second: np.ndarray

    @cached_property
    def pairs(self) -> list[tuple[tuple[int, int], ...]]:
        flat, ptr = list(zip(self.first.tolist(), self.second.tolist())), self.ptr.tolist()
        return [tuple(flat[lo:hi]) for lo, hi in zip(ptr, ptr[1:])]


@dataclass
class Pairing:
    """eps(u_i u_j) = v over the pairs (i, j) where it is nonzero, sorted by
    (i, j); ``ptr`` delimits the entries of each i."""

    i: np.ndarray
    j: np.ndarray
    v: np.ndarray
    ptr: np.ndarray


class Table:
    """Rows held as equal-length 1-D integer or float64 columns, which a report
    writes as the JSON list of the rows."""

    def __init__(self, *columns: np.ndarray):
        self.columns = columns


@dataclass
class Layout:
    """Where each basis unit sits: units are ordered by block, then row slot,
    then column slot, so unit (x; r, c) is ``starts[x] + r * sizes[x] + c``.
    Blocks and slots are local indices: block n = |G| is m, slot n of a group
    block is its m slot, and slot n + g of the m block is v^m_{~g}."""

    starts: np.ndarray  # first unit of each block
    sizes: np.ndarray  # slots in each block
    block: np.ndarray  # the block of each unit
    row: np.ndarray
    col: np.ndarray
    zero: int  # the zero block

    def unit(self, block, row, col):
        return self.starts[block] + row * self.sizes[block] + col

    @cached_property
    def slot_starts(self) -> np.ndarray:
        """Slot s of block x is ``slot_starts[x] + s`` in all blocks' slots."""
        return np.cumsum(self.sizes) - self.sizes

    @property
    def diag(self) -> np.ndarray:
        return self.row == self.col

    @property
    def zero_units(self) -> np.ndarray:
        """The units of the zero block, ascending: their sum is 1."""
        start = self.starts[self.zero]
        return np.arange(start, start + self.sizes[self.zero] ** 2)


class TYAlgebra:
    """The weak Hopf C*-algebra of (G, chi, tau), with its verification suite.

    B's basis units, blocks and slots are the indices of :class:`Layout`.
    ``block_names`` names each block (a group element as ``"a,b"``, then
    ``"m"``) and ``slot_names`` each block's slots (the group elements, then
    ``"m"`` in a group block and ``"~"`` + each element in the m block), for
    the reports that print them.
    """

    def __init__(
        self,
        group: FiniteAbelianGroup,
        bichar: Bicharacter | None = None,
        tau_sign: int = 1,
        eps: float = DEFAULT_TOL,
    ):
        check_order(group.order, ALGEBRA_ORDER_BOUND, "algebra")
        bichar = Bicharacter.standard(group) if bichar is None else bichar
        if tau_sign not in (1, -1):
            raise InvariantError(f"tau sign must be +1 or -1, got {tau_sign}")
        if bichar.group != group:
            raise InvariantError("bicharacter belongs to a different group")
        if not (isfinite(eps) and eps > 0):
            raise InvariantError(f"tolerance must be finite and positive, got {eps}")
        self.group = group
        self.bichar = bichar
        self.tau_sign = tau_sign
        self.eps = float(eps)
        n = group.order
        self.sqrt_order = sqrt(n)
        self.tau = tau_sign / self.sqrt_order

        elems = [",".join(map(str, g)) for g in group.elements()]
        self.block_names = [*elems, "m"]
        self.slot_names = [[*elems, "m"] for _ in elems] + [[*elems, *(f"~{g}" for g in elems)]]
        self.dim = sum(len(slots) ** 2 for slots in self.slot_names)

        # involution/antipode coefficients on the m-block fiber; group-block
        # coefficients are 1.  The tables below read them when first built.
        self._psi_unb = self.sqrt_order
        self._psi_bar = self.sqrt_order / self.tau
        self._phi_unb = 1.0 / self.sqrt_order
        self._phi_bar = self.tau / self.sqrt_order

    # -- fiber-space structure ------------------------------------------------

    def unit_name(self, i: int) -> str:
        """The name (x; row, col) of unit i = v^x_row (x) conj(v^x_col)."""
        lay = self._layout
        x, slots = lay.block[i], self.slot_names[lay.block[i]]
        return f"({self.block_names[x]}; {slots[lay.row[i]]}, {slots[lay.col[i]]})"

    def chi(self, g: GroupElt, h: GroupElt) -> complex:
        return cexp(2j * pi * float(self.bichar.phase(g, h)))

    # -- structure-constant tables ----------------------------------------------

    @cached_property
    def _layout(self) -> Layout:
        sizes = np.array([len(slots) for slots in self.slot_names], dtype=np.int64)
        starts = np.cumsum(sizes**2) - sizes**2
        block = np.repeat(np.arange(len(sizes)), sizes**2)
        row, col = np.divmod(np.arange(self.dim) - starts[block], sizes[block])
        zero = self.group.index(self.group.zero())
        return Layout(starts, sizes, block, row, col, zero)

    @cached_property
    def _chi_table(self) -> np.ndarray:
        """chi(g, h) over the group's element indices, each a Python scalar."""
        elems = self.group.elements()
        return np.array([[self.chi(g, h) for h in elems] for g in elems])

    @cached_property
    def _fiber_table(self) -> FiberTable:
        """The fiber product of every pair of basis vectors, sorted by left
        slot and then right slot.  chi and tau conj(chi) are computed as
        Python scalars."""
        n, add, chi = self.group.order, self.group.add_table, self._chi_table
        tau_chi = np.array([[self.tau * c.conjugate() for c in row] for row in chi.tolist()])
        sub = add[:, self.group.neg]  # sub[k, g] is k - g
        g, h, k = (w.ravel() for w in np.indices((n, n, n)))
        u, v = (w.ravel() for w in np.indices((n, n)))
        rules = [  # (x, a, y, c, z, e, coeff); block n and slot n are m
            (g, k, h, add[h, k], add[g, h], add[h, k], 1),  # v^g_k v^h_{h+k} = v^{g+h}_{h+k}
            (u, n, v, n, add[u, v], n, 1),  # v^g_m v^h_m = v^{g+h}_m
            (u, v, n, v, n, sub[v, u], 1),  # v^g_k v^m_k = v^m_{k-g}
            (u, n, n, n + v, n, n + v, chi[u, v]),  # v^g_m v^m_{~k} = chi(g,k) v^m_{~k}
            (n, v, u, n, n, v, chi[u, v]),  # v^m_k v^h_m = chi(h,k) v^m_k
            (n, n + v, u, add[u, v], n, n + add[u, v], 1),  # v^m_{~k} v^h_{h+k} = v^m_{~(h+k)}
            (n, u, n, n + v, sub[v, u], v, 1),  # v^m_h v^m_{~k} = v^{k-h}_k
            (n, n + v, n, v, u, n, tau_chi[u, v]),  # v^m_{~h} v^m_h = tau conj(chi(p,h)) v^p_m
        ]
        columns = zip(*(np.broadcast_arrays(*r) for r in rules))
        return FiberTable.of(self._layout, *(np.concatenate(col) for col in columns))

    @cached_property
    def product(self) -> ProductTable:
        """Structure constants of B, straight from the fiber product table:
        for u_i = (x; a, b) and u_j = (y; c, d) the row legs a, c and the
        column legs b, d multiply in the fibers, and the column leg enters
        conjugated.  That is the fiber table's self-join on (x, y, z); each
        (i, j, k) arises from one pair of terms.  The coefficient is Python's
        ``0.0 + cp * cq.conjugate()`` spelled out on real and imaginary parts,
        so it matches the fiber product of the two legs bit for bit.  Nothing
        is pruned: the closed form has exact zeros."""
        (x, a, y, c, z, e), coeff = self._fiber_table.local, self._fiber_table.coeff
        key = (x * self.dim + y) * self.dim + z
        order = np.argsort(key, kind="stable")
        p, q = _join(key, key[order])
        q, lay = order[q], self._layout
        i, j, k = (lay.unit(b[p], s[p], s[q]) for b, s in ((x, a), (y, c), (z, e)))
        return ProductTable(i, j, k, 0.0 + _cmul(coeff[p], coeff[q].conj()), self.dim)

    @cached_property
    def _coproduct_table(self) -> CoproductTable:
        """Delta(x; r, c) = sum_s (x; r, s) (x) (x; s, c)."""
        lay = self._layout
        size = lay.sizes[lay.block]
        src = np.repeat(np.arange(self.dim), size)
        ptr = np.concatenate([[0], np.cumsum(size)])
        s, b = np.arange(len(src)) - ptr[src], lay.block[src]
        first = lay.unit(b, lay.row[src], s)
        second = lay.unit(b, s, lay.col[src])
        return CoproductTable(ptr, src, first, second)

    @cached_property
    def _slot_table(self) -> SlotTable:
        """The slot table, its coefficients read from ``_psi_*`` and ``_phi_*`` as they stand."""
        lay, n, add = self._layout, self.group.order, self.group.add_table
        b = np.repeat(np.arange(n + 1), lay.sizes)  # the block of each slot
        s = np.arange(len(b)) - lay.slot_starts[b]  # its index within the block
        neg = np.append(self.group.neg, n)  # -x for each block x, with -m = m
        g, k, m_slot = b % n, s % n, (b < n) & (s == n)  # group block and element where they apply; v^g_m
        kind = np.where(b < n, 0, 1 + (s >= n))  # group block, unbarred or barred m-block slot
        return SlotTable(
            lay.slot_starts[neg[b]] + np.where(b == n, (s + n) % (2 * n), np.where(m_slot, n, add[k, neg[g]])),
            np.array([1.0, self._psi_unb, self._psi_bar], dtype=complex)[kind],
            np.array([1.0, self._phi_unb, self._phi_bar], dtype=complex)[kind],
            lay.slot_starts[b] + np.where(m_slot, n, n * (s >= n) + add.T[:, k]),
            np.where(m_slot, self._chi_table.T.conj()[:, g], 1.0))

    def _lift(self, image: np.ndarray, first: np.ndarray, second: np.ndarray, swap: bool = False) -> tuple:
        """The unit map (k, c) of a monomial map on slots, leading axes kept:
        (x; r, c) goes to first[r] second[c] (y; image[r], image[c]), y the
        image slots' block, or with ``swap`` to first[c] second[r]
        (y; image[c], image[r]); coefficients multiply as Python's complex do."""
        lay = self._layout
        r, c = (lay.slot_starts[lay.block] + leg for leg in ((lay.col, lay.row) if swap else (lay.row, lay.col)))
        rows, cols = image[..., r], image[..., c]
        y = np.searchsorted(lay.slot_starts, rows, side="right") - 1
        return lay.unit(y, rows - lay.slot_starts[y], cols - lay.slot_starts[y]), _cmul(first[..., r], second[..., c])

    @cached_property
    def _translations(self) -> tuple[np.ndarray, np.ndarray]:
        """sigma_t(u_i) = phase[t, i] u_{perm[t, i]}: (x; r, c) -> ph_r conj(ph_c) (x; sigma r, sigma c)."""
        return self._lift(self._slot_table.shift, self._slot_table.phase, self._slot_table.phase.conj())

    @cached_property
    def _orbit_representatives(self) -> np.ndarray:
        """The least unit of each translation orbit, ascending: n^2 + 7n of
        them for |G| = n."""
        perm, _ = self._translations
        return np.flatnonzero(perm.min(axis=0) == np.arange(self.dim))

    @cached_property
    def _star_map(self) -> UnitMap:
        """The involution (x; r, c) -> psi(r) (x) phi(c), conjugate-linear."""
        return UnitMap(*self._lift(self._slot_table.star, self._slot_table.psi, self._slot_table.phi))

    @cached_property
    def _antipode_map(self) -> UnitMap:
        """The antipode (x; r, c) -> psi(c) (x) phi(r): the involution's legs swapped."""
        return UnitMap(*self._lift(self._slot_table.star, self._slot_table.psi, self._slot_table.phi, swap=True))

    @cached_property
    def _pairing(self) -> Pairing:
        T, d = self.product, self.dim
        on_diag = self._layout.diag[T.k]
        keys, v = _sums((T.i * d + T.j)[on_diag], T.c[on_diag])
        i, j = keys // d, keys % d
        return Pairing(i, j, v, np.searchsorted(i, np.arange(d + 1)))

    def _counital_table(self, source: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """eps_t(u_i) = (eps (x) id)(Delta(1)(u_i (x) 1)) for every unit, or
        eps_s(u_i) = (id (x) eps)((1 (x) u_i)Delta(1)) when ``source``, as
        terms (i, unit, value) sorted by i.

        With (0; r, e) the zero-block units, eps_t(u_i) is the sum over e of
        w_e sum_c (0; e, c) with w_e = sum_r eps((0; r, e) u_i), and
        eps_s(u_i) is the sum over e of w_e sum_r (0; r, e) with
        w_e = sum_c eps(u_i (0; e, c))."""
        lay, P = self._layout, self._pairing
        in_zero, size = lay.block == lay.zero, int(lay.sizes[lay.zero])
        if source:
            hit = in_zero[P.j]
            unit, e = P.i[hit], lay.row[P.j[hit]]
        else:
            hit = in_zero[P.i]
            unit, e = P.j[hit], lay.col[P.i[hit]]
        weights = np.zeros((self.dim, size), dtype=complex)
        np.add.at(weights, (unit, e), P.v[hit])
        # every kept weight w_e of u_i spreads over row (column) e of the zero
        # block, ordered by i, then e, then the other slot
        weights = _pruned_rows(weights)
        i, e = np.nonzero(weights)
        other = np.arange(size)
        r, c = (other, e[:, None]) if source else (e[:, None], other)
        return np.repeat(i, size), lay.unit(lay.zero, r, c).ravel(), np.repeat(weights[i, e], size)

    @cached_property
    def _eps_t_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._counital_table(source=False)

    @cached_property
    def _eps_s_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._counital_table(source=True)

    # -- algebra structure ----------------------------------------------------

    def unit_product(self, i: int, j: int) -> tuple:
        """Structure constants of u_i u_j as ((k, coeff), ...)."""
        return tuple((k, c) for jj, k, c in self.product.rows[i] if jj == j)

    def multiply(self, a: SparseVec, b: SparseVec) -> SparseVec:
        rows = self.product.rows
        bdata = b.data
        out: dict[int, complex] = {}
        for i, ca in a.items():
            for j, k, c in rows[i]:
                cb = bdata.get(j)
                if cb is not None:
                    out[k] = out.get(k, 0.0) + ca * cb * c
        return SparseVec(out).prune()

    def coproduct(self, a: SparseVec) -> SparseVec:
        pairs = self._coproduct_table.pairs
        out: dict[tuple[int, int], complex] = {}
        for i, c in a.items():
            for pair in pairs[i]:
                out[pair] = out.get(pair, 0.0) + c
        return SparseVec(out).prune()

    # -- tensor helpers over B (x) B -------------------------------------------

    def tensor_multiply(self, s: SparseVec, t: SparseVec) -> SparseVec:
        rows = self.product.rows
        by_first: dict[int, dict[int, complex]] = {}
        for (i2, j2), c2 in t.items():
            by_first.setdefault(i2, {})[j2] = c2
        out: dict[tuple[int, int], complex] = {}
        for (i1, j1), c1 in s.items():
            right = rows[j1]
            for i2, k, ck in rows[i1]:
                seconds = by_first.get(i2)
                if seconds is None:
                    continue
                for j2, l, cl in right:
                    c2 = seconds.get(j2)
                    if c2 is None:
                        continue
                    key = (k, l)
                    out[key] = out.get(key, 0.0) + c1 * c2 * ck * cl
        return SparseVec(out).prune()

    # -- counital subalgebras -----------------------------------------------------

    @cached_property
    def _counital(self) -> tuple[Subspace, Subspace]:
        return tuple(Subspace(*_distinct(*table)) for table in (self._eps_t_table, self._eps_s_table))

    def counital_subalgebras(self) -> tuple[Subspace, Subspace]:
        """Target and source subalgebras B_t and B_s, as subspaces of B."""
        return self._counital

    @cached_property
    def _row_legs_kept(self) -> np.ndarray:
        """For each slot (x, r), numbered as by ``Layout.slot_starts``,
        whether every term of Delta(x; r, c), for every c, has a first leg
        (x; r, s): the coproduct keeps the row leg."""
        lay, C = self._layout, self._coproduct_table
        moved = (lay.block[C.first] != lay.block[C.src]) | (lay.row[C.first] != lay.row[C.src])
        return np.bincount(lay.slot_starts[lay.block[C.src]] + lay.row[C.src], moved, int(lay.sizes.sum())) == 0

    @cached_property
    def _unit_legs_in_target(self) -> np.ndarray:
        """For each zero-block slot s, whether R_s = e_s (x) conj(v^0_Omega) =
        sum_c (0; s, c), a second leg of every Delta(1_A), lies in B_t, read
        from the fiber table's zero-block entries alone.

        Proof.  B_t is eps_t(B) (``counital_subalgebras``), so R_s lies in
        B_t if eps_t(R_s) = R_s, and only then, as eps_t o eps_t = eps_t in
        every weak Hopf algebra.  By ``_counital_table``, eps_t(R_s) =
        sum_e w_se R_e with w_se = sum_{r,c} eps((0; r, e)(0; s, c)).  By
        ``product``, (0; r, e)(0; s, c) sums c_p conj(c_q) (z; f, g) over the
        fiber entries p: v^0_r . v^0_s = c_p v^z_f and q: v^0_e . v^0_c =
        c_q v^z_g, and eps keeps the terms with f = g.  So w_se sums
        c_p conj(c_q) over the zero-block self-join of the table on output
        slot, p with right slot s and q with left slot e.  The residual of
        R_s against B_t is at most |eps_t(R_s) - R_s| = sqrt(n) |w_s - e_s|
        over the n zero-block slots, which must be at most eps (1 + |R_s|).
        On the closed form the zero-block entries are v^0_s . v^0_s = v^0_s
        (rules 1-2 of ``_fiber_table``), so w = 1 and every leg lies in B_t."""
        T, lay = self._fiber_table, self._layout
        x, a, y, c, _, _ = T.local
        n = int(lay.sizes[lay.zero])
        zero = np.flatnonzero((x == lay.zero) & (y == lay.zero))
        by_out = zero[np.argsort(T.out[zero], kind="stable")]
        s, t = _join(T.out[zero], T.out[by_out])
        p, q = zero[s], by_out[t]
        w = np.zeros((n, n), dtype=complex)
        np.add.at(w, (c[p], a[q]), _cmul(T.coeff[p], T.coeff[q].conj()))
        return np.sqrt(n) * np.linalg.norm(w - np.eye(n), axis=1) <= self.eps * (1.0 + np.sqrt(n))

    # -- Haar functional ---------------------------------------------------------

    def _haar_system(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The system h solves, in its coefficients h(u_i), by the row families
        of :meth:`haar` in order: entries (rows, cols, vals) over the eps_t,
        coproduct and antipode tables, and its leading rows' right sides."""
        dim, D, S, one = self.dim, self._coproduct_table, self._antipode_map, self._layout.zero_units
        src, key, val = self._eps_t_table
        _, p = _runs(D.ptr, one)  # the terms of Delta(1)
        t, q = _runs(np.searchsorted(src, np.arange(dim + 1)), D.first)  # eps_t of first legs
        units = np.arange(dim)
        rhs = np.concatenate([self._layout.diag, np.zeros(dim)]).astype(complex)
        rhs[dim + one] = 1.0
        rows = np.concatenate([
            src, dim + D.first[p], 2 * dim + units, 2 * dim + units,
            3 * dim + D.src * dim + D.first, 3 * dim + D.src[t] * dim + key[q],
        ])
        cols = np.concatenate([key, D.second[p], S.k, units, D.second, D.second[t]])
        vals = np.concatenate([val, np.ones(len(p)), S.c, -np.ones(dim), np.ones(len(D.src)), -val[q]])
        return rows, cols, vals, rhs

    def haar(self) -> HaarFunctional:
        """h = 1/(n + 1) on the (n + 1)^2 units of the zero block, 0 elsewhere.
        It exists when its residual over every row of :meth:`_haar_system` is
        at most eps, so a faulted table fails it, and is unique when every
        column component of that system has ``linalg.nullity`` 0.

        Proof that the residual vanishes on every datum (G, chi, tau).  The
        zero fiber's basis vectors are orthogonal idempotents (rules 1-2 of
        ``_fiber_table``), so (0; a, b)(0; c, d) = delta_ac delta_bd (0; a, b),
        1 = sum (0; r, c), and R_s = sum_c (0; s, c) has h(R_s) = 1.  The rows:
        - h(eps_t(u)) = eps(u): with w_e as in ``_counital_table``, the left
          side is sum_e w_e h(R_e) = sum_{r,e} eps((0; r, e) u) = eps(1 u);
        - (id (x) h) Delta(1) = 1, a row per first-leg unit:
          Delta(1) = sum_{r,s} (0; r, s) (x) R_s;
        - h o S = h: S sends (0; r, c) to (0; c, r) with coefficient 1, and
          every other block off the zero block;
        - (id (x) h) Delta(u) = (eps_t (x) h) Delta(u), a row per (u, output
          unit): both vanish off the zero block, and at u = (0; r, c) they
          are R_r / (n + 1) and eps_t(R_r) / (n + 1), equal as w_e = delta_er:
          eps_t fixes R_r = e_r (x) conj(v^0_Omega) (``_unit_legs_in_target``)."""
        rows, cols, vals, rhs = self._haar_system()
        coeffs = np.zeros(self.dim, dtype=complex)
        coeffs[self._layout.zero_units] = 1.0 / (self.group.order + 1)
        # over all rows, a row with a right side and no entries included
        residual = _worst((rows, vals * coeffs[cols]), (np.arange(len(rhs)), rhs))[0]
        if residual > self.eps:
            raise StructuralError(f"invariant functional system is inconsistent ({residual:.3e})")
        rank = self.dim - sum(int(nullity(blocks).sum()) for _, _, blocks in components(rows, cols, vals, self.dim))
        if rank < self.dim:
            raise StructuralError(f"invariant functional is not unique (rank {rank} < {self.dim})")
        return HaarFunctional(coeffs, residual)

    def _haar_positive(self, h: np.ndarray) -> float:
        """h(b* b) >= 0 for every b, for the functional with coefficients h.

        h(b* b) = x^H G x for b = sum_j x_j u_j, with the Gram matrix
        G_ij = h(u_i* u_j) = c_i h(u_k u_j) where u_i* = c_i u_k.  The
        components of G + sigma I, with sigma above every row's absolute sum,
        are principal blocks, since every diagonal entry is nonzero.  The
        residual is the larger of max |G - G^H| and -lambda_min of
        (G + G^H) / 2 over these blocks, one ``eigvalsh`` per block shape."""
        d, T, star = self.dim, self.product, self._star_map
        e, p = _join(T.i, star.k_sorted)
        i, units = star.by_k[p], np.arange(d)
        g = star.c[i] * T.c[e] * h[T.k[e]]
        sigma = 1.0 + np.bincount(i, np.abs(g), d).max()
        shifted = (np.append(i, units), np.append(T.j[e], units), np.append(g, np.full(d, sigma)))
        worst = 0.0
        for _, _, blocks in components(*shifted, d):
            adjoint = blocks.conj().swapaxes(1, 2)
            low = np.linalg.eigvalsh((blocks + adjoint) / 2)[:, 0].min()
            worst = max(worst, np.abs(blocks - adjoint).max(), sigma - low)
        return float(worst)

    # -- center ------------------------------------------------------------------

    def center(self) -> int:
        """dim Z(B): the nullity of the commutant of B's basis, summed over its column components."""
        units = np.arange(self.dim)
        system = self.commutant(units, units, np.ones(self.dim, dtype=complex))
        return sum(int(nullity(blocks).sum()) for _, _, blocks in components(*system, self.dim))

    def commutant(self, gen: np.ndarray, unit: np.ndarray, coef: np.ndarray) -> tuple:
        """The sparse system (rows, cols, vals) whose kernel is the center of
        the subalgebra spanned by vectors given by their terms (vector, unit,
        coefficient): the z in their span with z a = a z for every one of
        them, in the coordinates of z along the vectors.

        Each vector a gives the constraint rows of z -> z a - a z, read from
        the product arrays and joined with the terms; :meth:`center` counts its kernel."""
        dim, T = self.dim, self.product
        # constraint row (a, k), unit i: coefficient of u_k in u_i a - a u_i
        s1, e1 = T.of_right(unit)
        s2, e2 = T.of_left(unit)
        rows = np.concatenate([gen[s1] * dim + T.k[e1], gen[s2] * dim + T.k[e2]])
        cols = np.concatenate([T.i[e1], T.j[e2]])
        vals = np.concatenate([coef[s1] * T.c[e1], -coef[s2] * T.c[e2]])
        # unit i of z = sum_r x_r a_r gathers x_r from every term on i
        by_unit = np.argsort(unit, kind="stable")
        s, p = _join(cols, unit[by_unit])
        p = by_unit[p]
        return rows[s], gen[p], vals[s] * coef[p]

    # -- translations as automorphisms -------------------------------------------

    def _translation_defects(self) -> np.ndarray:
        """For each t, the worst defect of sigma_t.

        At a generator e_j, sigma_t is compared as an automorphism with the
        tables every identity reads: sigma_t(u_i) sigma_t(u_j) =
        sigma_t(u_i u_j), Delta sigma_t = (sigma_t (x) sigma_t) Delta,
        eps sigma_t = eps, S sigma_t = sigma_t S and * sigma_t = sigma_t *.
        sigma_t moves every key by ``perm[t]`` and scales its value by the
        phase on each output unit and the conjugate phase on each input; the
        star is conjugate-linear, so its input phase enters unconjugated.
        Each table is compared by one sorted keyed sum (``_worst``), where a
        key moved off the table, or one that no key moves onto, counts its
        value in full.

        Every other t must give sigma_t = sigma_g sigma_{t - g}, g the
        generator at t's last nonzero coordinate: ``perm[t]`` equal to
        ``perm[g][perm[t - g]]`` (else the defect is inf), the defect being
        the gap of ``phase[t]`` from ``phase[t - g] * phase[g][perm[t - g]]``;
        sigma_0 must be the identity.  Proof that this covers every t: each
        t but 0 is a generator plus an element of lower index, so by
        induction every sigma_t is a product of checked automorphisms."""
        d, n, T, D, lay = self.dim, self.group.order, self.product, self._coproduct_table, self._layout
        S, st, unit = self._antipode_map, self._star_map, np.arange(d)
        perm, phase = self._translations
        # indices are coordinates in mixed radix, so strides[j] is the index of
        # the generator e_j; for each t but 0, e_j at t's last nonzero
        # coordinate j leaves t - e_j of lower index
        strides = np.cumprod((1, *self.group.factors[:0:-1]))[::-1]
        steps = [0, *(int(strides[np.flatnonzero(c)[-1]]) for c in self.group.coords[1:])]
        defects = np.zeros(n)
        for t, g in enumerate(steps):
            if t == g > 0:
                s, p, q = perm[t], phase[t], phase[t].conj()
                defects[t] = np.max([
                    _worst(((s[T.i] * d + s[T.j]) * d + s[T.k], T.c * q[T.i] * q[T.j] * p[T.k]),
                           ((T.i * d + T.j) * d + T.k, T.c))[0],
                    _worst(((s[D.src] * d + s[D.first]) * d + s[D.second], q[D.src] * p[D.first] * p[D.second]),
                           ((D.src * d + D.first) * d + D.second, np.ones(len(D.src))))[0],
                    _worst((s, q * lay.diag), (unit, 1.0 * lay.diag))[0],
                    _worst((s * d + s[S.k], q * p[S.k] * S.c), (unit * d + S.k, S.c))[0],
                    _worst((s * d + s[st.k], p * p[st.k] * st.c), (unit * d + st.k, st.c))[0],
                ])
            else:  # sigma_t = sigma_g sigma_{t - g}, with sigma_0 the identity
                s, p = (perm[g][perm[t - g]], phase[t - g] * phase[g][perm[t - g]]) if t else (unit, 1.0)
                defects[t] = np.abs(phase[t] - p).max() if np.array_equal(perm[t], s) else np.inf
        return defects

    # -- pair and triple identities as sparse joins ----------------------------------
    #
    # Each evaluator takes a block of first factors and checks every instance
    # with such a first factor against all other factors; ``_blocked`` runs
    # it over given first factors.  Both sides are sparse sums keyed by
    # (instance, output units); an instance absent from both sides is exactly
    # zero on both.  Each returns the worst residual and the instance where
    # it occurs.

    def _blocked(self, evaluate, first: np.ndarray) -> tuple[float, tuple]:
        """The worst (residual, instance) of ``evaluate`` over the ascending
        first factors ``first``, FIRST_FACTOR_BLOCK units at a time.  Keys
        lead with the first factor, so keeping the earlier block on ties
        (and the first NaN) gives the instance one join over them all would."""
        worst = (0.0, ())
        for lo in range(0, len(first), FIRST_FACTOR_BLOCK):
            r, where = evaluate(first[lo:lo + FIRST_FACTOR_BLOCK])
            if r > worst[0] or (np.isnan(r) and not np.isnan(worst[0])):
                worst = (r, where)
        return worst

    def _associativity(self, first: np.ndarray) -> tuple[float, tuple]:
        """(u_i u_j) u_l = u_i (u_j u_l)."""
        d, T = self.dim, self.product
        _, e = T.of_left(first)
        s, e2 = T.of_left(T.k[e])  # (u_p u_l) for each p in u_i u_j
        lhs = (
            ((T.i[e][s] * d + T.j[e][s]) * d + T.j[e2]) * d + T.k[e2],
            T.c[e][s] * T.c[e2],
        )
        s, e3 = T.of_output(T.j[e])  # (u_j u_l) terms landing on p, for u_i u_p
        rhs = (
            ((T.i[e][s] * d + T.i[e3]) * d + T.j[e3]) * d + T.k[e][s],
            T.c[e3] * T.c[e][s],
        )
        r, key = _worst(lhs, rhs)
        return r, np.unravel_index(key // d, (d, d, d))

    def _coproduct_multiplicative(self, first: np.ndarray) -> tuple[float, tuple]:
        """Delta(u_i u_j) = Delta(u_i) Delta(u_j)."""
        d, T, lay = self.dim, self.product, self._layout
        D = self._coproduct_table
        _, e = T.of_left(first)
        s, q = _runs(D.ptr, T.k[e])
        lhs = (((T.i[e][s] * d + T.j[e][s]) * d + D.first[q]) * d + D.second[q], T.c[e][s])
        # sum over u_i1 (x) u_i2 in Delta(u_i) and u_j1 (x) u_j2 in Delta(u_j)
        # of u_i1 u_j1 (x) u_i2 u_j2: u_j1 = (y; r, t) and u_j2 = (y; t, c)
        # meet at the unit (y; t, 0), and u_j = (y; r, c)
        s, q = _runs(D.ptr, first)
        i, i1, i2 = first[s], D.first[q], D.second[q]
        s, e1 = T.of_left(i1)
        i, i2, j1 = i[s], i2[s], T.j[e1]
        meet = lay.unit(lay.block, lay.col, 0)[j1]
        s, e2 = _join(i2 * d + meet, T.i * d + T.j - lay.col[T.j])
        j = j1[s] - lay.col[j1[s]] + lay.col[T.j[e2]]
        rhs = (
            ((i[s] * d + j) * d + T.k[e1][s]) * d + T.k[e2],
            T.c[e1][s] * T.c[e2],
        )
        r, key = _worst(lhs, rhs)
        return r, np.unravel_index(key // (d * d), (d, d))

    def _anti_multiplicative(
        self, first: np.ndarray, m: UnitMap, conjugate: bool
    ) -> tuple[float, tuple]:
        """(u_i u_j)' = u_j' u_i' for the unit map u -> c u_k given by ``m``,
        conjugate-linear when ``conjugate``."""
        d, T = self.dim, self.product
        _, e = T.of_left(first)
        c = T.c[e].conj() if conjugate else T.c[e]
        lhs = ((T.i[e] * d + T.j[e]) * d + m.k[T.k[e]], c * m.c[T.k[e]])
        # u_j' u_i' = m.c[j] m.c[i] u_{k[j]} u_{k[i]}
        s, e2 = T.of_right(m.k[first])
        i = first[s]
        s, p = _join(T.i[e2], m.k_sorted)
        i, e2, j = i[s], e2[s], m.by_k[p]
        rhs = ((i * d + j) * d + T.k[e2], m.c[j] * m.c[i] * T.c[e2])
        r, key = _worst(lhs, rhs)
        return r, np.unravel_index(key // d, (d, d))

    def _weak_counit(self, first: np.ndarray) -> tuple[float, tuple]:
        """eps(u_b c_1) eps(c_2 u_d) = eps(u_b u_c u_d), with Delta(u_c) = c_1 (x) c_2."""
        d, T = self.dim, self.product
        P, D = self._pairing, self._coproduct_table
        by_first = np.argsort(D.first, kind="stable")
        _, p1 = _runs(P.ptr, first)
        s, q = _join(P.j[p1], D.first[by_first])
        p1, q = p1[s], by_first[q]
        s, p2 = _runs(P.ptr, D.second[q])
        lhs = ((P.i[p1][s] * d + D.src[q][s]) * d + P.j[p2], P.v[p1][s] * P.v[p2])
        _, e = T.of_left(first)
        s, p = _runs(P.ptr, T.k[e])
        rhs = ((T.i[e][s] * d + T.j[e][s]) * d + P.j[p], T.c[e][s] * P.v[p])
        r, key = _worst(lhs, rhs)
        return r, np.unravel_index(key, (d, d, d))

    # -- unit-indexed identities, one instance per basis unit, and the weak unit --------

    def _unit_law(self) -> tuple[float, tuple]:
        """1 u_i = u_i = u_i 1."""
        d, T = self.dim, self.product
        one = np.zeros(d, dtype=complex)
        one[self._layout.zero_units] = 1.0
        left, right = one[T.i] != 0, one[T.j] != 0
        return max(
            _off_identity(T.j[left], T.k[left], one[T.i[left]] * T.c[left], d),
            _off_identity(T.i[right], T.k[right], T.c[right] * one[T.j[right]], d),
        )

    def _coassociativity(self, first: np.ndarray) -> tuple[float, tuple]:
        """(Delta (x) id) Delta(u_i) = (id (x) Delta) Delta(u_i)."""
        d, D = self.dim, self._coproduct_table
        _, t = _runs(D.ptr, first)  # the terms of Delta(u_i)
        i, a, b = D.src[t], D.first[t], D.second[t]
        s, q = _runs(D.ptr, a)
        lhs = (((i[s] * d + D.first[q]) * d + D.second[q]) * d + b[s], np.ones(len(q)))
        s, q = _runs(D.ptr, b)
        rhs = (((i[s] * d + a[s]) * d + D.first[q]) * d + D.second[q], np.ones(len(q)))
        r, key = _worst(lhs, rhs)
        return r, (key // d**3,)

    def _dual_product(self) -> tuple[np.ndarray, np.ndarray]:
        """(phi psi)(u_i) = sum phi(u_i1) psi(u_i2) over Delta(u_i), for the
        block-matrix product of functionals, on the dual basis: delta_a
        delta_b pairs to 1 with u_i exactly when a = (x; r, t), b = (x; t, c)
        and i = (x; r, c), so the terms of the coproduct table must be those
        (i, a, b).  Read per unit i, this is Delta(U_rc) = sum_t U_rt (x) U_tc
        for the corepresentation U of each block, whose entry (r, c) is the
        unit (x; r, c).  Returns the keys (i, a, b) and |LHS - RHS| on each."""
        d, D, lay = self.dim, self._coproduct_table, self._layout
        start = lay.unit(lay.block, lay.row, 0)  # the unit (x; r, 0)
        i, a = _ranges(start, start + lay.sizes[lay.block])
        b = lay.unit(lay.block[i], a - start[i], lay.col[i])
        lhs = ((i * d + a) * d + b, np.ones(len(i)))
        rhs = ((D.src * d + D.first) * d + D.second, np.ones(len(D.src)))
        return _diff(lhs, rhs)

    # -- corepresentation identities, one residual per block ---------------------

    def _per_block(self, units: np.ndarray, diff: np.ndarray) -> np.ndarray:
        """The largest of ``diff`` over the entries of each block, keyed by unit."""
        out = np.zeros(len(self.block_names))
        np.maximum.at(out, self._layout.block[units], diff)
        return out

    def _corep_counit(self) -> np.ndarray:
        """eps(U_rc) = delta_rc.  True by construction: the counit is read
        from ``Layout.diag``, which is row == col."""
        lay = self._layout
        return self._per_block(np.arange(self.dim), np.abs(lay.diag - 1.0 * (lay.row == lay.col)))

    def _partial_isometry(self) -> np.ndarray:
        """U U* U = U, with (U*)_ts = (U_st)*: (U U* U)_rc = sum_s M_rs (x; s, c)
        with M_rs = sum_t (x; r, t) (x; s, t)*.  One block at a time, the
        first join forms every M_rs and the second multiplies it by every
        (x; s, c)."""
        d, T, star, lay = self.dim, self.product, self._star_map, self._layout
        pairs = T.i * d + T.j
        out = np.zeros(len(self.block_names))
        for x, n in enumerate(lay.sizes.tolist()):
            # M_rs as sums keyed (r, s, output unit)
            r, s, t = (w.ravel() for w in np.indices((n, n, n)))
            b = lay.unit(x, s, t)
            p, e = _join(lay.unit(x, r, t) * d + star.k[b], pairs)
            keys, m = _sums((r[p] * n + s[p]) * d + T.k[e], star.c[b[p]] * T.c[e])
            # each term g of M_rs times every (x; s, c), keyed (r, c, output unit)
            g, c = np.divmod(np.arange(len(keys) * n), n)
            rs, q = np.divmod(keys[g], d)
            r, s = np.divmod(rs, n)
            p, e = _join(q * d + lay.unit(x, s, c), pairs)
            lhs = ((r[p] * n + c[p]) * d + T.k[e], m[g[p]] * T.c[e])
            rc = np.arange(n * n)  # U_rc is the unit starts[x] + rc
            out[x] = _worst(lhs, (rc * d + lay.starts[x] + rc, np.ones(n * n)))[0]
        return out

    def _counit_law(self) -> tuple[float, tuple]:
        """(eps (x) id) Delta(u_i) = u_i = (id (x) eps) Delta(u_i)."""
        d, D, diag = self.dim, self._coproduct_table, self._layout.diag
        left, right = diag[D.first], diag[D.second]
        return max(
            _off_identity(D.src[left], D.second[left], np.ones(left.sum()), d),
            _off_identity(D.src[right], D.first[right], np.ones(right.sum()), d),
        )

    def _comultiplicative(self, m: UnitMap, flip: bool) -> tuple[float, tuple]:
        """Delta(u_i') = (' (x) ') Delta(u_i), with the legs swapped when
        ``flip``, for the unit map u_i' = m.c[i] u_{m.k[i]}."""
        d, D = self.dim, self._coproduct_table
        s, q = _runs(D.ptr, m.k)
        lhs = ((s * d + D.first[q]) * d + D.second[q], m.c[s])
        a, b = (D.second, D.first) if flip else (D.first, D.second)
        rhs = ((D.src * d + m.k[a]) * d + m.k[b], m.c[a] * m.c[b])
        r, key = _worst(lhs, rhs)
        return r, (key // (d * d),)

    def _antipode_identity(self, source: bool) -> tuple[float, tuple]:
        """u_i1 S(u_i2) = eps_t(u_i), or S(u_i1) u_i2 = eps_s(u_i) when
        ``source``, summed over Delta(u_i) = u_i1 (x) u_i2."""
        d, T, D, S = self.dim, self.product, self._coproduct_table, self._antipode_map
        if source:
            left, right, coef = S.k[D.first], D.second, S.c[D.first]
            src, key, val = self._eps_s_table
        else:
            left, right, coef = D.first, S.k[D.second], S.c[D.second]
            src, key, val = self._eps_t_table
        s, e = _join(left * d + right, T.i * d + T.j)
        lhs = (D.src[s] * d + T.k[e], coef[s] * T.c[e])
        r, key = _worst(lhs, (src * d + key, val))
        return r, (key // d,)

    def _period_two(self, k: np.ndarray, c: np.ndarray) -> tuple[float, tuple]:
        """f(f(u_i)) = u_i for the conjugate-linear unit map f(u_i) = c[i] u_{k[i]}."""
        return _off_identity(np.arange(self.dim), k[k], c.conj() * c[k], self.dim)

    def _weak_unit(self) -> tuple[float, str]:
        """(Delta(1) (x) 1)(1 (x) Delta(1)) = (Delta (x) id) Delta(1), with
        Delta(1) the coproduct runs of the zero-block units summed per pair
        (a, b) and sorted by it."""
        d, T = self.dim, self.product
        D = self._coproduct_table
        _, p = _runs(D.ptr, self._layout.zero_units)
        pairs, c = _pruned(D.first[p] * d + D.second[p], np.ones(len(p)))
        a, b = np.divmod(pairs, d)
        s, e = T.of_left(b)
        s2, q = _join(T.j[e], a)
        s, e = s[s2], e[s2]
        lhs = ((a[s] * d + T.k[e]) * d + b[q], c[s] * c[q] * T.c[e])
        s, q = _runs(D.ptr, a)
        rhs = ((D.first[q] * d + D.second[q]) * d + b[s], c[s])
        return _worst(lhs, rhs)[0], ""

    def _zero_fiber_projections(self) -> tuple[float, str]:
        """The zero fiber is a commutative *-algebra of orthogonal
        projections: v^0_a v^0_c = delta_ac v^0_a over the fiber table's
        entries with x = y = 0, and the fiber involution fixes each v^0_a.
        Keys are (instance, output slot)."""
        lay, T = self._layout, self._fiber_table
        z, n, outputs = lay.zero, int(lay.sizes[lay.zero]), int(lay.sizes.sum())
        zero, slots, ones = lay.slot_starts[z] + np.arange(n), np.arange(n), np.ones(n)
        x, a, y, c, *_ = T.local
        hit = (x == z) & (y == z)
        product = ((a[hit] * n + c[hit]) * outputs + T.out[hit], T.coeff[hit])
        square = (slots * (n + 1) * outputs + zero, ones)  # v^0_a v^0_a = v^0_a
        involution = (slots * outputs + self._slot_table.star[zero], ones)
        fixed = (slots * outputs + zero, ones)
        return max(_worst(product, square)[0], _worst(involution, fixed)[0]), ""

    def _commute(self, t: tuple, s: tuple) -> tuple[float, str]:
        """t s = s t for every pair of vectors given by their terms (row,
        unit, value), each sorted by row and unit.  Each product is formed
        as ``multiply`` forms it: every term c_x u_i of x meets the product
        entries (i, j, k, c) and the term c_y u_j of y, adding c_x c_y c to
        u_k in that order; keys are (row of t, row of s, k)."""
        T, d, width = self.product, self.dim, int(s[0].max(initial=-1)) + 1
        sides = []
        for (rx, ux, vx), (ry, uy, vy), flip in ((t, s, False), (s, t, True)):
            x, e = T.of_left(ux)
            by_unit = np.argsort(uy, kind="stable")
            q, y = _join(T.j[e], uy[by_unit])
            x, e, y = x[q], e[q], by_unit[y]
            rt, rs = (ry[y], rx[x]) if flip else (rx[x], ry[y])
            sides.append(((rt * width + rs) * d + T.k[e], _cmul(_cmul(vx[x], vy[y]), T.c[e])))
        return _distance(*sides), ""

    def _fixes(self, terms: tuple, m: UnitMap) -> tuple[float, str]:
        """m(m(t)) = t for the linear unit map m and every vector t given by
        its terms (row, unit, value), each image summed and pruned by
        ``_pruned``."""
        d, (row, unit, vals) = self.dim, terms
        for _ in range(2):
            keys, vals = _pruned(row * d + m.k[unit], _cmul(vals, m.c[unit]))
            row, unit = np.divmod(keys, d)
        return _distance((keys, vals), (terms[0] * d + terms[1], terms[2])), ""

    # -- the verification suite ---------------------------------------------------

    def verify_axioms(self) -> AxiomReport:
        """Run every defining identity of the structure at tolerance eps,
        each on all of its instances.

        The suite is one table of rows (name, instances, evaluator), each
        bounded by eps and run in order by :meth:`AxiomReport.run`.  An
        evaluator returns the worst residual and a witness: text, or the
        units of the worst instance.  The rows after "haar system solvable"
        need h, so a StructuralError there ends the suite.

        Every row reads the structure-constant arrays: the identities of the
        product, coproduct, counit, antipode and star, and those of B_t, B_s
        and the zero fiber, are sparse joins over them.  The corepresentation
        identities are joins over the block layout; their comultiplication
        shares one join with the dual pairing, which covers every triple of
        dual basis functionals and units.  The closed-form h (:meth:`haar`)
        meets every Haar row; positivity covers its Gram matrix on dim^2 pairs.

        "translations are automorphisms" checks sigma_t at G's generators and
        by the group law elsewhere (:meth:`_translation_defects`), as mode
        ``"exhaustive by generators"``.  When it passes, the six pair- and
        triple-indexed identities (associativity, coproduct multiplicativity,
        coassociativity, the weak counit identity, antipode and star
        anti-multiplicativity) take as first factor only the least unit of
        each translation orbit, and report ``"exhaustive by translation"``
        with representatives * dim^(arity - 1) instances checked.  Proof:
        sigma_t is monomial with phases of modulus 1, and it intertwines
        every map these identities read (the pairing is eps of the product).
        Each identity is multilinear, conjugate-linear in the star, so its
        entrywise residual at (sigma_t u, sigma_t v, sigma_t w) is the one at
        (u, v, w) times phases of modulus 1, with its output keys permuted by
        sigma_t.  Every instance is thus the translate of one whose first
        factor is a representative, and has its residual.  When the row
        fails, the six take every unit as first factor, as mode
        ``"exhaustive"``.  Either way they join FIRST_FACTOR_BLOCK first
        factors at a time."""
        d, n, eps, sizes = self.dim, self.group.order, self.eps, self._layout.sizes.tolist()
        star, antipode = self._star_map, self._antipode_map
        target, source = self.counital_subalgebras()
        tterms, sterms = _basis_terms(target), _basis_terms(source)
        dual, haar = cache(self._dual_product), cache(self.haar)
        corep = {
            "comultiplication": cache(lambda: self._per_block(dual()[0] // d**2, dual()[1])),
            "counit": cache(self._corep_counit),
            "partial isometry": cache(self._partial_isometry),
        }

        def dual_pairing():
            r, key = _peak(*dual())
            return r, np.unravel_index(key, (d, d, d))

        @cache
        def translations():  # the worst translation defect, with its t as witness
            defects = self._translation_defects()
            t = int(np.argmax(defects))  # the first NaN, if any
            r = float(defects[t])
            generators = sum(k > 1 for k in self.group.factors)  # one per nontrivial cyclic factor
            return r, f"t = {self.block_names[t]}" if r > 0 else "", generators, "exhaustive by generators"

        def reduced(name: str, arity: int, evaluate) -> tuple:
            """The row of an identity of ``arity`` units, its first factors
            reduced by translation once the translation row has passed."""
            def run():
                if translations()[0] <= eps:
                    first, mode = self._orbit_representatives, "exhaustive by translation"
                else:
                    first, mode = np.arange(d), "exhaustive"
                return (*self._blocked(evaluate, first), len(first) * d ** (arity - 1), mode)
            return name, d**arity, run

        rows = [
            ("dimension of B", 1, partial(_dim_check, "dim B", d, n * (n + 1) ** 2 + 4 * n * n)),
            ("translations are automorphisms", n, translations),
            reduced("product associativity", 3, self._associativity),
            ("unit law", d, self._unit_law),
            reduced("coproduct multiplicative", 2, self._coproduct_multiplicative),
            ("coproduct star compatible", d, partial(self._comultiplicative, star, False)),
            reduced("coassociativity", 1, self._coassociativity),
            ("counit law", d, self._counit_law),
            ("weak unit identity", 1, self._weak_unit),
            reduced("weak counit identity", 3, self._weak_counit),
            ("antipode identity (target)", d, partial(self._antipode_identity, False)),
            ("antipode identity (source)", d, partial(self._antipode_identity, True)),
            reduced(
                "antipode anti-multiplicative", 2,
                partial(self._anti_multiplicative, m=antipode, conjugate=False),
            ),
            ("antipode anti-comultiplicative", d, partial(self._comultiplicative, antipode, True)),
            ("star involutive", d, partial(self._period_two, star.k, star.c)),
            reduced("star anti-multiplicative", 2, partial(self._anti_multiplicative, m=star, conjugate=True)),
            # (S o *)^2 = id; like *, S o * is conjugate-linear
            (
                "star-antipode period two", d,
                partial(self._period_two, antipode.k[star.k], star.c * antipode.c[star.k]),
            ),
            ("target subalgebra dimension", 1, partial(_dim_check, "dim B_t", target.dim, n + 1)),
            ("source subalgebra dimension", 1, partial(_dim_check, "dim B_s", source.dim, n + 1)),
            (
                "biconnectedness", 1,
                lambda: _dim_check("dim B_t & B_s", target.intersect(source).dim, 1),
            ),
            (
                "counital subalgebras commute", target.dim * source.dim,
                partial(self._commute, tterms, sterms),
            ),
            (  # regularity: S^2 restricted to the target subalgebra
                "antipode squared fixes target subalgebra", target.dim,
                partial(self._fixes, tterms, antipode),
            ),
            ("zero fiber projections", (n + 1) ** 2, self._zero_fiber_projections),
            ("center dimension", 1, lambda: _dim_check("dim Z(B)", self.center(), n + 1)),
            *(
                (f"corepresentation[{label}] {name}", size**2, partial(_pick, corep[name], x))
                for x, (label, size) in enumerate(zip(self.block_names, sizes))
                for name in corep
            ),
            ("dual pairing multiplicative", d**3, dual_pairing),
            ("haar system solvable", 1, lambda: (haar().residual, "")),
            (  # for the closed-form h, implied by the antipode rows of "haar system
                # solvable"; only a faulted haar() reaches it (kept: the benchmark pins its name)
                "haar antipode invariant", d,
                lambda: (float(np.abs(antipode.c * haar().coeffs[antipode.k] - haar().coeffs).max()), ""),
            ),
            ("haar positive", d**2, lambda: (self._haar_positive(haar().coeffs), "")),
        ]
        label = f"{self.group} tau{'+' if self.tau_sign > 0 else '-'}"
        return AxiomReport.run(label, eps, self.unit_name, [(*row, eps) for row in rows])

    # -- export -----------------------------------------------------------------

    def export_data(self) -> dict:
        """Structure constants in the versioned interchange format, read from
        the layout and the structure arrays, each numeric table a :class:`Table`."""
        lay, T, D = self._layout, self.product, self._coproduct_table
        S, star = self._antipode_map, self._star_map
        blocks, slots = self.block_names, self.slot_names
        basis = [
            {"index": i, "block": blocks[x], "row": slots[x][r], "col": slots[x][c]}
            for i, (x, r, c) in enumerate(zip(lay.block.tolist(), lay.row.tolist(), lay.col.tolist()))
        ]

        def one(*columns: np.ndarray) -> Table:  # coefficient 1 + 0i on every row
            return Table(*columns, np.ones(len(columns[0])), np.zeros(len(columns[0])))

        units = np.arange(self.dim)
        return {
            "format": "ty-wha/1",
            "group": list(self.group.factors),
            "bicharacter": self.bichar.to_json(),
            "tau_sign": self.tau_sign,
            "tolerance": self.eps,
            "dim": self.dim,
            "basis": basis,
            "unit": one(lay.zero_units),
            "product": Table(T.i, T.j, T.k, T.c.real, T.c.imag),
            "coproduct": one(D.src, D.first, D.second),
            "counit": one(np.flatnonzero(lay.diag)),
            "antipode": Table(units, S.k, S.c.real, S.c.imag),
            "star": Table(units, star.k, star.c.real, star.c.imag),
        }
