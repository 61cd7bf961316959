from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tywha.errors import InvariantError, SizeError
from tywha.groups import (
    Bicharacter,
    FiniteAbelianGroup,
    Subgroup,
    enumerate_subgroups,
    orthogonal,
    quotient,
)
from reference import add, full, neg, sub, trivial


def brute_force_subgroups(group):
    """Oracle: all subsets containing 0 that are closed under addition."""
    elems = group.elements()
    n = len(elems)
    found = set()
    for mask in range(1 << n):
        subset = {elems[i] for i in range(n) if mask >> i & 1}
        if group.zero() not in subset:
            continue
        if all(add(group, a, b) in subset for a in subset for b in subset):
            found.add(frozenset(subset))
    return found


def reference_subgroups(group):
    """Reference lattice: breadth first from the trivial subgroup, one
    S + <g> per (S, g) with g the first element of a nontrivial coset of S,
    built by translating S by 0, g, 2g, ... until a multiple of g lies in S.
    Returns the sorted index lists in (order, sorted indices) order."""
    add = group.add_table

    def extend(sub, g):
        steps, x = [0], g
        while x not in sub:
            steps.append(x)
            x = add[x, g]
        return np.sort(add[np.ix_(steps, sub)], axis=None)

    frontier = [np.zeros(1, dtype=np.int64)]
    found = {frontier[0].tobytes(): frontier[0]}
    while frontier:
        nxt = []
        for sub in frontier:
            covered = np.zeros(group.order, dtype=bool)
            covered[sub] = True
            for g in range(group.order):
                if not covered[g]:
                    covered[add[g, sub]] = True
                    bigger = extend(sub, g)
                    if found.setdefault(bigger.tobytes(), bigger) is bigger:
                        nxt.append(bigger)
        frontier = nxt
    return sorted((idx.tolist() for idx in found.values()), key=lambda idx: (len(idx), idx))


LATTICE_GROUPS = [(1,), (2,), (6,), (12,), (16,), (2, 2, 2, 2), (4, 4), (2, 2, 2, 4), (4, 4, 4),
                  (8, 8), (2, 32), (64,), (2,) * 6]


small_groups = st.lists(st.integers(1, 6), min_size=1, max_size=3).filter(
    lambda f: prod(f) <= 12
)


class TestGroupArithmetic:
    def test_order_and_zero(self):
        g = FiniteAbelianGroup((2, 4))
        assert g.order == 8
        assert g.zero() == (0, 0)
        assert add(g, (1, 3), (1, 2)) == (0, 1)
        assert neg(g, (1, 3)) == (1, 1)

    def test_from_spec(self):
        assert FiniteAbelianGroup.from_spec("2,4").factors == (2, 4)
        with pytest.raises(InvariantError):
            FiniteAbelianGroup.from_spec("2,x")
        with pytest.raises(InvariantError):
            FiniteAbelianGroup((0,))

    def test_elements_sorted(self):
        g = FiniteAbelianGroup((2, 2))
        assert g.elements() == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestSubgroups:
    def test_z4_subgroup_count(self):
        g = FiniteAbelianGroup((4,))
        subs = enumerate_subgroups(g)
        assert len(subs) == 3
        assert {s.sorted_elements for s in subs} == {
            ((0,),),
            ((0,), (2,)),
            ((0,), (1,), (2,), (3,)),
        }

    def test_z2z2_subgroup_count(self):
        g = FiniteAbelianGroup((2, 2))
        assert len(enumerate_subgroups(g)) == 5

    def test_trivial_group(self):
        g = FiniteAbelianGroup((1,))
        assert len(enumerate_subgroups(g)) == 1

    @pytest.mark.parametrize("factors", [(2,), (3,), (4,), (6,), (2, 2), (2, 4), (8,), (2, 2, 2), (12,), (16,)])
    def test_agrees_with_brute_force(self, factors):
        g = FiniteAbelianGroup(factors)
        got = {frozenset(s.sorted_elements) for s in enumerate_subgroups(g)}
        assert got == brute_force_subgroups(g)

    @pytest.mark.parametrize("q,rank,expected", [(2, 5, 374), (2, 6, 2825), (3, 3, 28)])
    def test_elementary_abelian_counts(self, q, rank, expected):
        # oracle: subgroups of (Z_q)^n are subspaces, counted by Gaussian
        # binomials; (Z2)^6 sits at the enumeration bound of 64
        def gaussian(n, k):
            num = prod(q ** (n - i) - 1 for i in range(k))
            return num // prod(q ** (i + 1) - 1 for i in range(k))

        assert sum(gaussian(rank, k) for k in range(rank + 1)) == expected
        subs = enumerate_subgroups(FiniteAbelianGroup((q,) * rank))
        assert len(subs) == expected
        assert len({s.sorted_elements for s in subs}) == expected

    @pytest.mark.parametrize("factors", LATTICE_GROUPS)
    def test_lattice_equals_reference(self, factors):
        g = FiniteAbelianGroup(factors)
        subs = enumerate_subgroups(g)
        assert [s.idx.tolist() for s in subs] == reference_subgroups(g)
        # Subgroup.generated shares the lattice's closure step
        rng = np.random.default_rng(sum(factors))
        for _ in range(10):
            gens = [g.elements()[i] for i in rng.integers(g.order, size=rng.integers(1, 4))]
            assert Subgroup.generated(g, gens) in subs
        assert Subgroup.generated(g, []) == subs[0] and Subgroup.generated(g, g.elements()) == subs[-1]

    def test_size_guard(self):
        with pytest.raises(SizeError):
            enumerate_subgroups(FiniteAbelianGroup((128,)))

    def test_not_a_subgroup(self):
        # without 0, or not closed: rejected by every construction path
        g = FiniteAbelianGroup((4,))
        for elements in ([(1,), (2,), (3,)], [(0,), (1,)], [(0,), (1,), (2,)], []):
            with pytest.raises(InvariantError):
                Subgroup(g, frozenset(elements))
            with pytest.raises(InvariantError):
                Subgroup.from_indices(g, [g.index(a) for a in elements])

    def test_not_closed_in_product_group(self):
        g = FiniteAbelianGroup((2, 4))
        with pytest.raises(InvariantError, match="not closed"):
            Subgroup(g, [(0, 0), (1, 1)])
        with pytest.raises(InvariantError, match="identity"):
            Subgroup.from_indices(g, [1, 2, 3])

    def test_equality_and_hash_follow_elements(self):
        g = FiniteAbelianGroup((2, 4))
        a = Subgroup.generated(g, [(0, 2)])
        b = Subgroup(g, frozenset({(0, 0), (0, 2)}))
        c = Subgroup.from_indices(g, [2, 0])
        assert a == b == c and len({a, b, c}) == 1
        assert a.sorted_elements == ((0, 0), (0, 2))
        assert a != Subgroup.from_indices(FiniteAbelianGroup((8,)), [0, 4])
        assert a != Subgroup.generated(g, [(1, 0)]) and len({a, Subgroup.generated(g, [(1, 0)])}) == 2


class TestIndexTables:
    @pytest.mark.parametrize("factors", [(1,), (4,), (2, 3), (2, 2, 4)])
    def test_add_table_matches_tuple_add(self, factors):
        g = FiniteAbelianGroup(factors)
        elems = g.elements()
        assert [g.index(a) for a in elems] == list(range(g.order))
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                assert elems[g.add_table[i, j]] == add(g, a, b)

    def test_index_rejects_non_elements(self):
        g = FiniteAbelianGroup((4,))
        with pytest.raises(InvariantError):
            g.index((4,))

    def test_coset_labels(self):
        # a's coset number names the coset a - K, whose least element is its rep,
        # and the coset of t + a is the translate of a's coset by t's
        g = FiniteAbelianGroup((2, 4))
        for k in enumerate_subgroups(g):
            q = quotient(g, k)
            for a in g.elements():
                c = q.coset_of(a)
                assert q.reps[c] == min(sub(g, a, x) for x in k.sorted_elements)
                for t in g.elements():
                    assert q.trans[q.coset_of(t), c] == q.coset_of(add(g, t, a))

    @pytest.mark.parametrize(
        "factors,matrix",
        [((2, 2), [["0", "1/2"], ["1/2", "0"]]), ((2, 4), [["1/2", "1/2"], ["1/2", "1/4"]]),
         ((3, 3), [["1/3", "2/3"], ["2/3", "0"]])],
    )
    def test_phase_table_matches_fraction_sum(self, factors, matrix):
        g = FiniteAbelianGroup(factors)
        chi = Bicharacter.from_json(g, {"matrix": matrix})
        m = [[Fraction(x) for x in row] for row in matrix]
        for a in g.elements():
            for b in g.elements():
                expected = sum(
                    (a[i] * b[j] * m[i][j] for i in range(g.rank) for j in range(g.rank)),
                    Fraction(0),
                ) % 1
                assert chi.phase(a, b) == expected


class TestQuotients:
    def test_z4_mod_z2(self):
        g = FiniteAbelianGroup((4,))
        k = Subgroup.generated(g, [(2,)])
        q = quotient(g, k)
        assert len(q) == 2
        assert q.reps == ((0,), (1,)) and [q.coset_of((a,)) for a in range(4)] == [0, 1, 0, 1]

    def test_full_quotient_is_single_coset(self):
        g = FiniteAbelianGroup((2,))
        q = quotient(g, full(g))
        assert len(q) == 1

    def test_z2z2_quotient(self):
        g = FiniteAbelianGroup((2, 2))
        k = Subgroup.generated(g, [(1, 0)])
        q = quotient(g, k)
        assert len(q) == 2

    def test_wrong_group_subgroup(self):
        g = FiniteAbelianGroup((4,))
        h = FiniteAbelianGroup((2,))
        k = trivial(h)
        with pytest.raises(InvariantError):
            quotient(g, k)
        # same order, different group
        with pytest.raises(InvariantError, match="different group"):
            quotient(FiniteAbelianGroup((2, 2)), full(g))

    @pytest.mark.parametrize("factors", [(4,), (2, 4), (3, 3), (2, 2, 2)])
    def test_cosets_partition_and_labels(self, factors):
        g = FiniteAbelianGroup(factors)
        for k in enumerate_subgroups(g):
            q = quotient(g, k)
            assert len(q) * k.order == g.order
            members = [[a for i, a in enumerate(g.elements()) if q.label[i] == c] for c in range(len(q))]
            assert [len(m) for m in members] == [k.order] * len(q)
            assert list(q.reps) == [m[0] for m in members] == sorted(q.reps)

    @given(small_groups)
    @settings(max_examples=20, deadline=None)
    def test_translation_simply_transitive(self, factors):
        g = FiniteAbelianGroup(tuple(factors))
        for k in enumerate_subgroups(g):
            q = quotient(g, k)
            images = [int(q.trans[q.coset_of(a), 0]) for a in g.elements()]
            assert sorted(set(images)) == list(range(len(q)))
            assert all(images.count(target) == k.order for target in range(len(q)))


class TestBicharacter:
    def test_standard_z4_generator_phase(self):
        g = FiniteAbelianGroup((4,))
        chi = Bicharacter.standard(g)
        assert chi.phase((1,), (1,)) == Fraction(1, 4)
        assert chi.phase((1,), (0,)) == 0

    def test_standard_z2(self):
        g = FiniteAbelianGroup((2,))
        chi = Bicharacter.standard(g)
        assert chi.phase((1,), (1,)) == Fraction(1, 2)

    def test_symmetry_required(self):
        g = FiniteAbelianGroup((2, 2))
        with pytest.raises(InvariantError):
            Bicharacter(g, ((Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(0))))

    def test_well_defined_required(self):
        g = FiniteAbelianGroup((2,))
        with pytest.raises(InvariantError):
            Bicharacter(g, ((Fraction(1, 3),),))

    def test_nondegeneracy(self):
        # checked at construction: only 0 may pair trivially with everything
        z2, z2z2 = FiniteAbelianGroup((2,)), FiniteAbelianGroup((2, 2))
        Bicharacter(z2, ((Fraction(1, 2),),))
        with pytest.raises(InvariantError, match="^bicharacter degenerate$"):
            Bicharacter(z2, ((Fraction(0),),))
        hyper = Bicharacter(z2z2, ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0))))
        assert hyper.phase((1, 0), (0, 1)) == Fraction(1, 2)
        with pytest.raises(InvariantError, match="^bicharacter degenerate$"):  # (0, 1) pairs trivially
            Bicharacter(z2z2, ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(0))))

    def test_from_json(self):
        g = FiniteAbelianGroup((2, 2))
        chi = Bicharacter.from_json(g, {"matrix": [["0", "1/2"], ["1/2", "0"]]})
        assert chi.phase((1, 0), (0, 1)) == Fraction(1, 2)
        with pytest.raises(InvariantError):
            Bicharacter.from_json(g, {"rows": []})

    @given(small_groups)
    @settings(max_examples=20, deadline=None)
    def test_standard_symmetric_nondegenerate(self, factors):
        g = FiniteAbelianGroup(tuple(factors))
        chi = Bicharacter.standard(g)
        assert not (chi.phase_table[1:] == 0).all(axis=1).any()  # row 0 is the identity
        for a in g.elements():
            for b in g.elements():
                assert chi.phase(a, b) == chi.phase(b, a)


class TestOrthogonal:
    def test_trivial_subgroup(self):
        g = FiniteAbelianGroup((2,))
        chi = Bicharacter.standard(g)
        assert orthogonal(chi, trivial(g)).order == 2

    def test_full_subgroup(self):
        g = FiniteAbelianGroup((2,))
        chi = Bicharacter.standard(g)
        assert orthogonal(chi, full(g)).order == 1

    def test_z4_self_orthogonal(self):
        g = FiniteAbelianGroup((4,))
        chi = Bicharacter.standard(g)
        k = Subgroup.generated(g, [(2,)])
        perp = orthogonal(chi, k)
        # oracle: scan all of Z4 by hand
        expected = frozenset(
            a for a in g.elements() if all(chi.phase(b, a) == 0 for b in k.sorted_elements)
        )
        assert frozenset(perp.sorted_elements) == expected == frozenset(k.sorted_elements)

    def test_degenerate_rejected(self):
        # no degenerate bicharacter reaches orthogonal: its construction fails
        g = FiniteAbelianGroup((2,))
        with pytest.raises(InvariantError):
            orthogonal(Bicharacter(g, ((Fraction(0),),)), trivial(g))

    @given(small_groups)
    @settings(max_examples=15, deadline=None)
    def test_order_product_and_double_annihilator(self, factors):
        g = FiniteAbelianGroup(tuple(factors))
        chi = Bicharacter.standard(g)
        for k in enumerate_subgroups(g):
            perp = orthogonal(chi, k)
            assert k.order * perp.order == g.order
            assert orthogonal(chi, perp) == k
