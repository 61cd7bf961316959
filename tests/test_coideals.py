import dataclasses
import itertools
import types

import numpy as np
import pytest

from tywha import coideals
from tywha.algebra import CoproductTable, FiberTable, TYAlgebra
from tywha.classify import weak_coideal_classes
from tywha.coideals import (
    CoidealSpec,
    assess,
    build_I_m_K,
    build_I_Omega_K,
    build_no_m,
    build_with_m,
    center,
    dims_match,
    fixed_point_algebra,
    is_coideal,
    is_indecomposable,
    spectral_dims,
    verify_weak_coideal,
)
from tywha.errors import InvariantError
from tywha.groups import FiniteAbelianGroup, Subgroup, enumerate_subgroups, orthogonal, quotient
from reference import (
    ACoords, BasisUnit, BlockLabel, Slot, a_level_fixed_point_algebra, a_level_report, add, add_scaled, assemble,
    basis_vectors, blocks, circ, coset_vector, cosets, distance, failures, fiber_rows, invariance, one, representative,
    restricted_is_indecomposable, sharp, slots, spec_of, stacked_is_indecomposable, star, subspace, trivial, unit_pos,
    unit_vector, units, x_spaces,
)
from tywha.linalg import ROUNDOFF, SparseVec, nullspace, sparse_nullspace, tensor_contains


def g(*coords):
    return BlockLabel.grp(tuple(coords))


M = BlockLabel.m()


def labelled(alg, dims):
    """Per-block dimensions keyed by block label."""
    return dict(zip(blocks(alg), dims.tolist()))


@pytest.fixture(scope="module")
def z4():
    return TYAlgebra(FiniteAbelianGroup((4,)), tau_sign=1)


@pytest.fixture(scope="module")
def z4_setup(z4):
    grp = z4.group
    K = Subgroup.generated(grp, [(2,)])
    q = quotient(grp, K)
    lam, mu = cosets(q)  # reps (0,) and (1,)
    return K, q, lam, mu


class TestCosetVectors:
    def test_group_block(self, z4, z4_setup):
        _K, _q, _lam, mu = z4_setup
        v = coset_vector(z4, g(0), mu)
        assert dict(v.items()) == {
            (g(0), Slot.grp((1,))): 1,
            (g(0), Slot.grp((3,))): 1,
        }
        assert v.norm() ** 2 == pytest.approx(len(mu))

    def test_trivial_subgroup_singleton(self, z4):
        grp = z4.group
        q = quotient(grp, trivial(grp))
        lam = cosets(q)[q.coset_of((2,))]
        v = coset_vector(z4, g(1), lam)
        assert dict(v.items()) == {(g(1), Slot.grp((2,))): 1}

    def test_barred_m_vector(self, z4, z4_setup):
        _K, _q, lam, _mu = z4_setup
        v = coset_vector(z4, M, lam, barred=True)
        assert set(v.keys()) == {(M, Slot.bar((0,))), (M, Slot.bar((2,)))}
        with pytest.raises(InvariantError):
            coset_vector(z4, g(0), lam, barred=True)


class TestClosureRelations:
    """Coset-vector product relations used by the m-carrying builder."""

    def test_unbarred_times_barred(self, z4, z4_setup):
        _K, q, lam, mu = z4_setup
        out = circ(z4, coset_vector(z4, M, lam), coset_vector(z4, M, mu, barred=True))
        expected = SparseVec()
        for delta in mu.elements:  # mu - lam = {1,3}
            expected = expected + coset_vector(z4, g(*delta), mu)
        assert distance(out, expected) < 1e-12

    @pytest.mark.parametrize("sign", [1, -1])
    def test_barred_times_unbarred(self, sign, z4_setup):
        alg = TYAlgebra(FiniteAbelianGroup((4,)), tau_sign=sign)
        K, q, lam, mu = z4_setup
        out = circ(alg,
            coset_vector(alg, M, lam, barred=True), coset_vector(alg, M, lam)
        )
        perp = orthogonal(alg.bichar, K)
        expected = SparseVec(
            {(g(*k), Slot.m()): alg.tau * K.order for k in perp.sorted_elements}
        )
        assert distance(out, expected) < 1e-12
        # distinct cosets annihilate
        assert not circ(alg,
            coset_vector(alg, M, lam, barred=True), coset_vector(alg, M, mu)
        )

    def test_m_slot_times_barred_coset(self, z4, z4_setup):
        K, _q, _lam, mu = z4_setup
        # for k in the annihilator the phase chi(k, .) is constant on cosets
        out = circ(z4,
            SparseVec.basis((g(2), Slot.m())), coset_vector(z4, M, mu, barred=True)
        )
        phase = z4.chi((2,), mu.rep)
        assert distance(out, phase * coset_vector(z4, M, mu, barred=True)) < 1e-12

    def test_coset_times_m_slot(self, z4, z4_setup):
        _K, _q, _lam, mu = z4_setup
        out = circ(z4,
            coset_vector(z4, M, mu), SparseVec.basis((g(2), Slot.m()))
        )
        phase = z4.chi(mu.rep, (2,))
        assert distance(out, phase * coset_vector(z4, M, mu)) < 1e-12

    def test_group_coset_products(self, z4, z4_setup):
        _K, q, lam, mu = z4_setup
        # v^g_lam . v^h_mu = [mu == h + lam] v^{g+h}_mu
        a = coset_vector(z4, g(1), lam)
        b = coset_vector(z4, g(1), mu)  # mu = (1,) + lam
        out = circ(z4, a, b)
        assert distance(out, coset_vector(z4, g(2), mu)) < 1e-12
        assert not circ(z4, a, coset_vector(z4, g(2), mu))

    def test_mixed_zero_products(self, z4, z4_setup):
        _K, _q, lam, mu = z4_setup
        km = SparseVec.basis((g(2), Slot.m()))
        assert not circ(z4, km, coset_vector(z4, g(1), lam))
        assert not circ(z4, coset_vector(z4, g(1), lam), km)
        assert not circ(z4, km, coset_vector(z4, M, lam))
        assert not circ(z4, coset_vector(z4, M, lam, barred=True), km)
        assert not circ(z4, coset_vector(z4, M, lam), coset_vector(z4, M, mu))
        assert not circ(z4,
            coset_vector(z4, M, lam, barred=True), coset_vector(z4, M, mu, barred=True)
        )

    def test_sharp_on_coset_vectors(self, z4, z4_setup):
        _K, _q, lam, _mu = z4_setup
        out = sharp(z4, coset_vector(z4, M, lam))
        assert distance(out, 2.0 * coset_vector(z4, M, lam, barred=True)) < 1e-12


class TestBuilders:
    def test_no_m_full_quotient_z2(self):
        alg = TYAlgebra(FiniteAbelianGroup((2,)))
        K = trivial(alg.group)
        q = quotient(alg.group, K)
        wc = build_no_m(alg, spec_of(alg, K, range(len(q))))
        assert wc.dim == 12
        for block, sub in x_spaces(wc).items():
            assert sub.dim == 2
        assert verify_weak_coideal([wc])[0].passed
        assert not is_coideal(wc)
        assert is_indecomposable([wc])[0]

    def test_no_m_requires_nonempty(self, z4, z4_setup):
        # no data reaches a builder without a nonempty Z; no_m takes one side
        K, _q, _lam, _mu = z4_setup
        with pytest.raises(InvariantError, match="must be nonempty"):
            build_no_m(z4, spec_of(z4, K))
        with pytest.raises(InvariantError, match="Z0 or Z1 must be empty"):
            build_no_m(z4, spec_of(z4, K, [0], [0]))

    def test_no_m_side_one_uses_annihilator(self, z4):
        K = trivial(z4.group)  # K_perp = G, quotient is a point
        wc = build_no_m(z4, spec_of(z4, K, (), [0]))
        assert verify_weak_coideal([wc])[0].passed
        assert (wc.spec.z0, wc.spec.z1) == ((), (0,))
        assert wc.label == "no_m(side=1, |Z|=1)"
        # X^g nonzero exactly for g in K_perp = G
        assert {b for b, d in labelled(z4, wc.x_dims()).items() if d} == {g(*e) for e in z4.group.elements()}

    def test_with_m_coideal_iff_full(self, z4, z4_setup):
        K, q, lam, mu = z4_setup
        full = build_with_m(z4, spec_of(z4, K, range(len(q)), [0]))
        assert verify_weak_coideal([full])[0].passed
        assert is_coideal(full)
        partial = build_with_m(z4, spec_of(z4, K, [lam.number], [0]))
        assert verify_weak_coideal([partial])[0].passed
        assert not is_coideal(partial)

    def test_checks_report_coverage(self, z4, z4_setup):
        K, q, _lam, _mu = z4_setup
        wc = build_with_m(z4, spec_of(z4, K, range(len(q)), [0]))
        # the rows count fiber rows r (pairs for the product); on A they
        # counted A's basis rows
        size, r = wc.dim, len(wc.fiber_block)
        assert (size, r) == (82, 14)
        for report, n in ((verify_weak_coideal([wc])[0], r), (a_level_report(wc), size)):
            expected = {
                "unit exists in A": 1,
                "closed under product": n**2,
                "closed under star": n,
                "coproduct maps into A (x) B": n,
                "unit acts as identity": n,
                "coproduct of unit in A (x) B_t": 1,
            }
            for c in report.to_dict()["checks"]:
                assert c["mode"] == "exhaustive", c["name"]
                assert c["instances_checked"] == c["instances_total"] == expected[c["name"]], c["name"]

    def test_I_builders(self, z4, z4_setup):
        K, _q, _lam, _mu = z4_setup
        n = z4.group.order
        im = build_I_m_K(z4, spec_of(z4, K, [0]))
        iom = build_I_Omega_K(z4, spec_of(z4, K, [0]))
        assert im.dim == K.order * (n + 1)
        assert iom.dim == K.order * (n + 1)
        assert verify_weak_coideal([im])[0].passed
        assert verify_weak_coideal([iom])[0].passed
        assert not is_coideal(im)
        assert is_coideal(iom)
        assert is_indecomposable([im])[0]
        assert is_indecomposable([iom])[0]
        # same classification parameters: a singleton Z over K
        assert im.spec.describe() == iom.spec.describe()

    @pytest.mark.parametrize("factors", [(2,), (3,)])
    def test_all_builders_all_subgroups(self, factors):
        alg = TYAlgebra(FiniteAbelianGroup(factors))
        for K in enumerate_subgroups(alg.group):
            q = quotient(alg.group, K)
            qp = quotient(alg.group, orthogonal(alg.bichar, K))
            every = range(len(q))
            built = [
                build_I_m_K(alg, spec_of(alg, K, [0])),
                build_I_Omega_K(alg, spec_of(alg, K, [0])),
                build_no_m(alg, spec_of(alg, K, [0])),
                build_no_m(alg, spec_of(alg, K, every)),
                build_with_m(alg, spec_of(alg, K, [0], [0])),
                build_with_m(alg, spec_of(alg, K, every, [len(qp) - 1])),
            ]
            for wc in built:
                report = verify_weak_coideal([wc])[0]
                assert report.passed, (wc.label, str(K), [c.name for c in failures(report)])


class TestVerifierRejections:
    def test_zero_family_fails(self, z4):
        wc = assemble(z4, *fiber_rows(z4, {}), "zero")
        report = verify_weak_coideal([wc])[0]
        assert not report.passed
        failed = {c.name for c in failures(report)}
        assert "unit exists in A" in failed

    def test_family_without_classification_data(self, z4):
        # assemble takes no spec: the report and the description still
        # work, while the predicted dimensions name the missing data
        wc = assemble(z4, *fiber_rows(z4, {}), "zero")
        assert not verify_weak_coideal([wc])[0].passed
        described = wc.describe()
        assert (described["spec"], described["gamma"], described["unit_support"]) == (None, [], 0)
        message = "coideal zero has no classification data (K, Z0, Z1) to predict its fibers"
        for check in (dims_match, lambda wc: assess([wc])):
            with pytest.raises(InvariantError) as exc:
                check(wc)
            assert str(exc.value) == message

    def test_row_past_its_block_slots_rejected(self, z4):
        # a group block of Z4 has 5 slots; slot 5 lies only in the m block
        rows = np.zeros((1, int(z4._layout.sizes.max())), dtype=complex)
        rows[0, 5] = 1.0
        with pytest.raises(InvariantError) as exc:
            assemble(z4, np.array([1]), rows, "past the slots")
        assert str(exc.value) == "fiber row for block 1 has support past its 5 slots"
        m = assemble(z4, np.array([4]), rows, "in the m block")
        assert (m.fiber_block.tolist(), m.fiber_pivot.tolist()) == ([4], [5])

    def test_dropped_m_slot_breaks_closure(self, z4, z4_setup):
        K, q, lam, _mu = z4_setup
        good = build_with_m(z4, spec_of(z4, K, [lam.number], [0]))
        assert verify_weak_coideal([good])[0].passed

        # rebuild the same family but drop v^g_m from one annihilator block
        drop = (2,)
        x_vectors = {}
        for block, sub in x_spaces(good).items():
            vecs = basis_vectors(sub)
            if block == g(*drop):
                vecs = [v for v in vecs if (block, Slot.m()) not in set(v.keys())]
            x_vectors[block] = vecs
        broken = assemble(z4, *fiber_rows(z4, x_vectors), "with_m minus one m-slot")
        report = verify_weak_coideal([broken])[0]
        assert not report.passed
        failed = {c.name for c in failures(report)}
        assert failed & {"closed under product", "closed under star"}

    def test_spec_shape_rejected(self, z4, z4_setup):
        # K = {0, 2}: both quotients have the two cosets 0 and 1
        K, q, _lam, _mu = z4_setup
        cases = [
            (([0, 2], []), "Z0 coset numbers must lie in 0..1, got (0, 2)"),
            (([], [-1]), "Z1 coset numbers must lie in 0..1, got (-1,)"),
            (([1, 0, 1], []), "Z0 names a coset more than once: (0, 1, 1)"),
            (([0], [1, 1]), "Z1 names a coset more than once: (1, 1)"),
            (([], []), "at least one of Z0, Z1 must be nonempty"),
            (([0, 1], [1, 0]), "no class has both |Z0| > 1 and |Z1| > 1"),
        ]
        for (z0, z1), message in cases:
            with pytest.raises(InvariantError) as exc:
                spec_of(z4, K, z0, z1)
            assert str(exc.value) == message
        spec = spec_of(z4, K, [1, 0], [np.int64(1)])
        assert (spec.z0, spec.z1) == ((0, 1), (1,)) and type(spec.z1[0]) is int


def union(alg, parts, label):
    """The sum of weak coideals, assembled from their fiber bases."""
    merged = {}
    for wc in parts:
        for block, sub in x_spaces(wc).items():
            merged.setdefault(block, []).extend(basis_vectors(sub))
    return assemble(alg, *fiber_rows(alg, merged), label)


def reference_is_indecomposable(wc):
    """is_indecomposable by two kernels: the center and the invariant
    subalgebra solved apart, each with orthonormal rows, and the dimension
    of their intersection taken as the nullity of the two stacked side by
    side."""
    A, alg = ACoords(wc), wc.algebra
    zc = sparse_nullspace(*alg.commutant(A.row, A.unit, A.val), A.size)
    zf = sparse_nullspace(*invariance(wc), A.size)
    return len(nullspace(np.concatenate([zc, -zf]).T[None])[0]) == 1


def two_coset_families(alg):
    """For every proper subgroup K, X^0 spanned by the indicators of two
    K-cosets and no other fiber: the sum of two weak coideals, decomposable."""
    zero = BlockLabel.grp(alg.group.zero())
    out = []
    for K in enumerate_subgroups(alg.group):
        q = quotient(alg.group, K)
        if len(q) > 1:
            gens = {zero: [coset_vector(alg, zero, c) for c in cosets(q)[:2]]}
            out.append(assemble(alg, *fiber_rows(alg, gens), f"two cosets of {K}"))
    return out


def faulted_copies(wc):
    """wc without its last fiber row, and wc with 0.5 added to its last
    fiber row at the first slot of that row's block that is no pivot: both
    are families of fiber rows in reduced echelon form, most of them no
    weak coideal."""
    alg, b, piv, rows = wc.algebra, wc.fiber_block, wc.fiber_pivot, wc.fiber_rows
    out = [coideals.WeakCoideal(alg, b[:-1], piv[:-1], rows[:-1], f"{wc.label} minus a row")]
    free = np.setdiff1d(np.arange(alg._layout.sizes[b[-1]]), piv[b == b[-1]])
    if len(free):
        bent = rows.copy()
        bent[-1, free[0]] += 0.5
        out.append(coideals.WeakCoideal(alg, b, piv, bent, f"{wc.label} with a bent row"))
    return out


def without_rows(wc, keep, label):
    """The family of the fiber rows of wc where ``keep`` holds."""
    return coideals.WeakCoideal(wc.algebra, wc.fiber_block[keep], wc.fiber_pivot[keep], wc.fiber_rows[keep], label)


class TestIndecomposability:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("factors", [(1,), (2,), (3,), (4,), (5,), (6,), (2, 2)])
    def test_matches_two_kernels_on_realized_classes(self, factors, sign):
        built = realized_coideals(factors, sign)
        assert built
        for wc in built:
            assert is_indecomposable([wc])[0] and reference_is_indecomposable(wc), wc.label

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("factors", [(4,), (2, 2), (6,)])
    def test_faulted_subsets_and_zero_x0_match_the_references(self, factors, sign):
        # families that are mostly no weak coideal: faulted copies, random
        # subsets of the fiber rows, and each class without X^0, where
        # A^inv = 0
        rng = np.random.default_rng(sum(factors) + sign)
        verdicts = []
        for wc in realized_coideals(factors, sign):
            zero = wc.fiber_block == wc.algebra._layout.zero
            families = [*faulted_copies(wc), without_rows(wc, ~zero, "no X^0")]
            families += [without_rows(wc, rng.random(len(zero)) < 0.5, "random rows") for _ in range(2)]
            for family in families:
                got = is_indecomposable([family])[0]
                assert got == restricted_is_indecomposable(family) == reference_is_indecomposable(family), family.label
                assert not got or zero[: len(family.fiber_block)].any(), family.label
                verdicts.append(got)
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("factors", [(2,), (3,), (4,), (2, 2), (6,)])
    def test_batch_matches_the_stacked_reference(self, factors, sign):
        # every class followed by its faulted copies, then the zero family,
        # in one batch; then the members that pass, decided on the whole
        # batch's fibers as assess decides them
        batch = [family for wc in realized_coideals(factors, sign) for family in (wc, *faulted_copies(wc))]
        batch.append(assemble(batch[0].algebra, *fiber_rows(batch[0].algebra, {}), "zero"))
        want = stacked_is_indecomposable(batch)
        assert is_indecomposable(batch) == want
        assert any(want) and not all(want) and not want[-1]
        F = coideals._Fibers(batch)
        passed = [wc for wc, report in zip(batch, verify_weak_coideal(batch, F)) if report.passed]
        assert 0 < len(passed) < len(batch)
        assert is_indecomposable(passed, F) == stacked_is_indecomposable(passed, F)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("factors", [(2,), (3,), (4,), (2, 2), (5,), (6,)])
    def test_invariant_subalgebra_is_x0_times_conj_omega(self, factors, sign):
        # dim A^inv = dim X^0, and the kernel of the invariance system over
        # A's basis is X^0 (x) conj(v^0_Omega), on every class and its
        # faulted copies
        for wc in realized_coideals(factors, sign):
            for family in (wc, *faulted_copies(wc)):
                dim_x0 = int((family.fiber_block == family.algebra._layout.zero).sum())
                fixed, solved = fixed_point_algebra(family), a_level_fixed_point_algebra(family)
                assert fixed.dim == solved.dim == dim_x0, family.label
                assert all(solved.contains(v) for v in basis_vectors(fixed)), family.label

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("factors", [(4,), (2, 2), (6,)])
    def test_two_coset_families_are_decomposable(self, factors, sign):
        alg = TYAlgebra(FiniteAbelianGroup(factors), tau_sign=sign)
        families = two_coset_families(alg)
        assert len(families) == len(enumerate_subgroups(alg.group)) - 1
        for wc in families:
            assert verify_weak_coideal([wc])[0].passed, wc.label
            assert not is_indecomposable([wc])[0] and not reference_is_indecomposable(wc), wc.label

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("factors", [(4,), (2, 2)])
    def test_matches_the_central_invariant_intersection(self, factors, sign):
        # every builder over every subgroup and every nonempty Z, plus the
        # decomposable sums of two translates over the trivial subgroup
        alg = TYAlgebra(FiniteAbelianGroup(factors), tau_sign=sign)

        built = []
        for K in enumerate_subgroups(alg.group):
            q0, q1 = quotient(alg.group, K), quotient(alg.group, orthogonal(alg.bichar, K))
            built += [build_no_m(alg, spec_of(alg, K, zs)) for zs in nonempty_subsets(range(len(q0)))]
            built += [build_no_m(alg, spec_of(alg, K, (), zs)) for zs in nonempty_subsets(range(len(q1)))]
            built += [build_with_m(alg, spec_of(alg, K, zs, [0])) for zs in nonempty_subsets(range(len(q0)))]
            built += [build_I_m_K(alg, spec_of(alg, K, [0])), build_I_Omega_K(alg, spec_of(alg, K, [0]))]
        K = trivial(alg.group)
        copies = [build_no_m(alg, spec_of(alg, K, [lam])) for lam in range(alg.group.order)]
        built += [union(alg, pair, "two translates") for pair in itertools.combinations(copies, 2)]
        dims = [center(wc).intersect(a_level_fixed_point_algebra(wc)).dim for wc in built]
        assert is_indecomposable(built) == [d == 1 for d in dims]
        assert sum(d != 1 for d in dims) == 6

    def test_union_of_translates_is_decomposable(self):
        alg = TYAlgebra(FiniteAbelianGroup((2,)))
        grp = alg.group
        K = trivial(grp)
        copy1 = build_no_m(alg, spec_of(alg, K, [0]))
        copy2 = build_no_m(alg, spec_of(alg, K, [1]))
        assert is_indecomposable([copy1])[0] and is_indecomposable([copy2])[0]
        both = union(alg, (copy1, copy2), "two translated copies")
        assert verify_weak_coideal([both])[0].passed
        assert not is_indecomposable([both])[0]
        meet = center(both).intersect(a_level_fixed_point_algebra(both))
        assert meet.dim == 2
        # the block projection onto one copy is a central invariant element
        projection = SparseVec(
            {
                unit_pos(alg)[BasisUnit(g(0), Slot.grp((0,)), c)]: 1.0
                for c in slots(alg, g(0))
            }
        )
        assert meet.contains(projection)

    def test_with_m_km_equals_k0_minus_one(self, z4, z4_setup):
        K, q, lam, _mu = z4_setup
        for zs in ([lam.number], range(len(q))):
            wc = build_with_m(z4, spec_of(z4, K, zs, [0]))
            # X^0 is spanned by disjoint indicators, one per spectral block
            k0 = labelled(z4, wc.x_dims())[g(0)]
            km = x_spaces(wc)[M].dim // 2
            assert km == k0 - 1
            assert is_indecomposable([wc])[0]


class TestSpectralDims:
    def test_singleton_pair_example(self, z4, z4_setup):
        K, q, lam, _mu = z4_setup
        perp = orthogonal(z4.bichar, K)
        spec = spec_of(z4, K, [lam.number], [0])
        dims = labelled(z4, spectral_dims(spec, z4))
        assert dims[M] == 2
        for e in z4.group.elements():
            expected = int(e in K.sorted_elements) + int(e in perp.sorted_elements)
            assert dims[g(*e)] == expected

    def test_m_dim_even(self, z4, z4_setup):
        K, q, _lam, _mu = z4_setup
        for n0 in (1, 2):
            spec = spec_of(z4, K, range(n0), [0])
            assert labelled(z4, spectral_dims(spec, z4))[M] % 2 == 0

    def test_matches_measured_for_builders(self):
        # every group order up to 8; measured dims only need the fiber spaces
        for factors in [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2)]:
            alg = TYAlgebra(FiniteAbelianGroup(factors))
            for K in enumerate_subgroups(alg.group):
                every = range(len(quotient(alg.group, K)))
                candidates = [
                    build_I_m_K(alg, spec_of(alg, K, [0])),
                    build_I_Omega_K(alg, spec_of(alg, K, [0])),
                    build_no_m(alg, spec_of(alg, K, [0])),
                    build_no_m(alg, spec_of(alg, K, every)),
                    build_with_m(alg, spec_of(alg, K, [0], [0])),
                    build_with_m(alg, spec_of(alg, K, every, [0])),
                ]
                for wc in candidates:
                    assert dims_match(wc), (factors, str(K), wc.label)

    def test_x_m_split_swapped_by_sharp(self, z4, z4_setup):
        K, q, lam, _mu = z4_setup
        wc = build_with_m(z4, spec_of(z4, K, [lam.number], [0]))
        xm = x_spaces(wc)[M]
        unbarred = [v for v in basis_vectors(xm) if all(s.kind != 2 for (_b, s) in v.keys())]
        barred = [v for v in basis_vectors(xm) if all(s.kind == 2 for (_b, s) in v.keys())]
        assert len(unbarred) == len(barred) == xm.dim // 2
        for v in unbarred:
            assert xm.contains(sharp(z4, v))


# -- builders against the quotient-based reference ---------------------------------


def reference_assemble(alg, x_vectors, label, spec=None):
    """The generic assembly the builders replace: each fiber the echelon
    Subspace of its generating SparseVecs, Gamma the joint support of X^0's
    pruned basis, and 1_A the sum of the zero-block units on Gamma's rows."""
    fibers = {block: subspace(vecs, eps=alg.eps) for block, vecs in x_vectors.items()}
    zero_block = BlockLabel.grp(alg.group.zero())
    gamma = set()
    if zero_block in fibers:
        for v in basis_vectors(fibers[zero_block]):
            gamma.update(slot for (_b, slot), c in v.items() if abs(c) > alg.eps)
    pos = unit_pos(alg)
    unit = SparseVec({pos[BasisUnit(zero_block, s, c)]: 1.0 + 0j for s in gamma for c in slots(alg, zero_block)})
    return types.SimpleNamespace(algebra=alg, x_vectors=x_vectors, x_spaces=fibers, unit=unit,
                                 label=label, spec=spec)


def reference_coords(ref):
    """_Coords' arrays (row, unit, val, reduce_slot, reduce_coef, reduce_ptr)
    built block by block from the fiber Subspaces of reference_assemble."""
    alg = ref.algebra
    lay = alg._layout
    first_slot = np.cumsum(lay.sizes) - lay.sizes
    ints, vals = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex)
    parts, size = [(ints, ints, vals, ints, ints, vals)], 0
    for b, label in enumerate(blocks(alg)):
        sub = ref.x_spaces.get(label)
        if sub is None or not sub.dim:
            continue
        n, own = int(lay.sizes[b]), slots(alg, label)
        at = np.array([own.index(slot) for _, slot in sub.universe.tolist()], dtype=np.int64)
        fiber = np.zeros((sub.dim, n), dtype=complex)
        fiber[:, at] = np.where(np.abs(sub.basis) > ROUNDOFF, sub.basis, 0.0)
        piv, col = at[sub.pivots], np.arange(n)
        free = np.ones(n, dtype=bool)
        free[piv] = False
        free = np.flatnonzero(free)
        i, s = np.nonzero(fiber)
        r, f = np.nonzero(fiber[:, free])
        parts.append((
            (size + i[:, None] * n + col).ravel(), lay.unit(b, s[:, None], col).ravel(),
            np.repeat(fiber[i, s], n),
            first_slot[b] + np.concatenate([free, piv[r]]), np.concatenate([free, free[f]]),
            np.concatenate([np.ones(len(free)), -fiber[r, free[f]]]),
        ))
        size += sub.dim * n
    row, unit, val, key, slot, coef = map(np.concatenate, zip(*parts))
    order, by_key = np.argsort(row, kind="stable"), np.argsort(key, kind="stable")
    arrays = (row[order], unit[order], val[order], slot[by_key], coef[by_key],
              np.searchsorted(key[by_key], np.arange(lay.sizes.sum() + 1)))
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def coords_bits(wc):
    A = ACoords(wc)
    return [(a.dtype, a.shape, a.tobytes())
            for a in (A.row, A.unit, A.val, A.reduce_slot, A.reduce_coef, A.reduce_ptr)]


def reference_translated(views, group, g, zs):
    """The translates g + lam of the Coset views zs, each found among
    ``views`` by its members."""
    by_members = {frozenset(v.elements): v for v in views}
    return {by_members[frozenset(add(group, g, a) for a in lam.elements)] for lam in zs}


def reference_annihilator(alg, spec):
    """The annihilator of K by ``orthogonal``, which Z1's quotient must be by."""
    perp = orthogonal(alg.bichar, spec.subgroup)
    if spec.q1.subgroup != perp:
        raise InvariantError(f"Z1 must be cosets of the annihilator of K = {spec.subgroup}")
    return perp


def reference_build_no_m(alg, spec):
    """build_no_m by Coset views: Z translated by each group element in turn."""
    if spec.z0 and spec.z1:
        raise InvariantError("no_m takes Z on one side only: Z0 or Z1 must be empty")
    reference_annihilator(alg, spec)
    side, quot, z = (0, spec.q0, spec.z0) if spec.z0 else (1, spec.q1, spec.z1)
    views = cosets(quot)
    zset = {views[c] for c in z}
    x_vectors = {}
    for e in alg.group.elements():
        block = BlockLabel.grp(e)
        hits = zset & reference_translated(views, alg.group, e, zset)
        if hits:
            x_vectors[block] = [coset_vector(alg, block, lam) for lam in sorted(hits, key=lambda c: c.rep)]
    return reference_assemble(alg, x_vectors, f"no_m(side={side}, |Z|={len(zset)})", spec)


def reference_build_with_m(alg, spec):
    """build_with_m by Coset views, as reference_build_no_m."""
    if not spec.z0:
        raise InvariantError("Z must be nonempty")
    if len(spec.z1) != 1:
        raise InvariantError("rho0 must be a single coset of the annihilator of K")
    perp = reference_annihilator(alg, spec)
    views = cosets(spec.q0)
    zset = sorted({views[c] for c in spec.z0}, key=lambda c: c.rep)
    x_vectors = {
        M: [coset_vector(alg, M, lam, barred=False) for lam in zset]
        + [coset_vector(alg, M, lam, barred=True) for lam in zset]
    }
    for e in alg.group.elements():
        block = BlockLabel.grp(e)
        vecs = [
            coset_vector(alg, block, lam)
            for lam in sorted(set(zset) & reference_translated(views, alg.group, e, zset), key=lambda c: c.rep)
        ]
        if e in perp.sorted_elements:
            vecs.append(SparseVec.basis((block, Slot.m())))
        if vecs:
            x_vectors[block] = vecs
    return reference_assemble(alg, x_vectors, f"with_m(|Z|={len(zset)})", spec)


def reference_subgroup_lines(alg, spec, line, label):
    """build_I_m_K (``line`` the m slot) and build_I_Omega_K (every slot)
    by SparseVecs: X^k = C (the all-ones vector over ``line(k's block)``)."""
    if len(spec.z0) != 1 or spec.z1:
        raise InvariantError(f"{label} takes one Z0 coset and no Z1")
    reference_annihilator(alg, spec)
    lines = [BlockLabel.grp(k) for k in spec.subgroup.sorted_elements]
    x_vectors = {b: [SparseVec({(b, s): 1.0 + 0j for s in line(b)})] for b in lines}
    return reference_assemble(alg, x_vectors, label, spec)


def reference_build_I_m_K(alg, spec):
    return reference_subgroup_lines(alg, spec, lambda block: [Slot.m()], "I_m_K")


def reference_build_I_Omega_K(alg, spec):
    return reference_subgroup_lines(alg, spec, lambda block: slots(alg, block), "I_Omega_K")


def reference_spectral_dims(spec, alg):
    """spectral_dims by translating each coset of Z in its side's quotient."""
    group, dims = alg.group, {M: 2 * len(spec.z0) * len(spec.z1)}
    for e in group.elements():
        dims[BlockLabel.grp(e)] = 0
        for quot, z in ((spec.q0, spec.z0), (spec.q1, spec.z1)):
            views = cosets(quot)
            zset = {views[c] for c in z}
            dims[BlockLabel.grp(e)] += len(zset & reference_translated(views, group, e, zset))
    return dims


def nonempty_subsets(cosets):
    return [list(c) for r in range(1, len(cosets) + 1) for c in itertools.combinations(cosets, r)]


def built_bits(wc):
    """Everything a builder sets: the fiber spaces bit for bit, 1_A, Gamma
    as the row slots of 1_A's support, the label and the classification
    data.  Takes a WeakCoideal or a reference_assemble result."""
    if isinstance(wc, types.SimpleNamespace):
        fibers, unit = wc.x_spaces, wc.unit
    else:
        fibers, unit = x_spaces(wc), unit_vector(wc)
    spaces = {b: (s.universe.tolist(), s.pivots, s.basis.shape, s.basis.tobytes()) for b, s in fibers.items()}
    gamma = frozenset(units(wc.algebra)[k].row for k in unit.keys())
    return spaces, dict(unit.items()), gamma, wc.label, wc.spec


class TestBuildersMatchReference:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("factors", [(1,), (2,), (3,), (4,), (5,), (6,), (2, 2), (2, 4), (2, 2, 2)])
    def test_every_datum(self, factors, sign):
        # every builder over every subgroup K, every nonempty Z on either
        # side, with_m under every rho0: the builder, the reference and
        # assemble on the reference's generators agree bit for bit on the
        # fibers, 1_A, Gamma and A's coordinate arrays, and the description
        # names Gamma in slot order
        alg = TYAlgebra(FiniteAbelianGroup(factors), tau_sign=sign)
        for K in enumerate_subgroups(alg.group):
            q0, q1 = quotient(alg.group, K), quotient(alg.group, orthogonal(alg.bichar, K))
            z0s, z1s = nonempty_subsets(range(len(q0))), nonempty_subsets(range(len(q1)))
            calls = [(build_I_m_K, reference_build_I_m_K, ([0], [])),
                     (build_I_Omega_K, reference_build_I_Omega_K, ([0], []))]
            calls += [(build_no_m, reference_build_no_m, (zs, [])) for zs in z0s]
            calls += [(build_no_m, reference_build_no_m, ([], zs)) for zs in z1s]
            calls += [(build_with_m, reference_build_with_m, (zs, [rho0])) for zs in z0s for rho0 in range(len(q1))]
            for build, reference, (z0, z1) in calls:
                spec = CoidealSpec(q0, q1, z0, z1)
                wc, ref = build(alg, spec), reference(alg, spec)
                general = assemble(alg, *fiber_rows(alg, ref.x_vectors), ref.label, ref.spec)
                assert built_bits(wc) == built_bits(ref) == built_bits(general), (str(K), ref.label)
                described, gamma = wc.describe(), built_bits(ref)[2]
                assert described["gamma"] == [str(s) for s in sorted(gamma)], ref.label
                assert described["unit_support"] == len(ref.unit), ref.label
                assert coords_bits(wc) == reference_coords(ref) == coords_bits(general), (str(K), ref.label)
                assert labelled(alg, spectral_dims(wc.spec, alg)) == reference_spectral_dims(ref.spec, alg), ref.label

    def test_errors_match_reference(self, z4, z4_setup):
        K, q, _lam, _mu = z4_setup  # K = {0, 2} is its own annihilator
        # Z1 over the quotient by the trivial subgroup, not by K's annihilator
        stray = quotient(z4.group, trivial(z4.group))
        annihilator = "Z1 must be cosets of the annihilator of K = {(0,),(2,)}"
        cases = [
            (build_no_m, reference_build_no_m, spec_of(z4, K, [0], [1]),
             "no_m takes Z on one side only: Z0 or Z1 must be empty"),
            (build_no_m, reference_build_no_m, CoidealSpec(q, stray, [], [3]), annihilator),
            (build_with_m, reference_build_with_m, spec_of(z4, K, [], [0]), "Z must be nonempty"),
            (build_with_m, reference_build_with_m, spec_of(z4, K, [0], [0, 1]),
             "rho0 must be a single coset of the annihilator of K"),
            (build_with_m, reference_build_with_m, CoidealSpec(q, stray, [0, 1], [2]), annihilator),
            (build_I_m_K, reference_build_I_m_K, spec_of(z4, K, [0, 1]), "I_m_K takes one Z0 coset and no Z1"),
            (build_I_Omega_K, reference_build_I_Omega_K, spec_of(z4, K, [0], [0]),
             "I_Omega_K takes one Z0 coset and no Z1"),
            (build_I_Omega_K, reference_build_I_Omega_K, CoidealSpec(q, stray, [0], []), annihilator),
        ]
        for build, reference, spec, message in cases:
            for fn in (build, reference):
                with pytest.raises(InvariantError) as exc:
                    fn(z4, spec)
                assert str(exc.value) == message, (fn.__name__, spec)


class TestAssess:
    def test_verdicts_of_a_weak_coideal(self, z4, z4_setup):
        K, _q, _lam, _mu = z4_setup
        wc = build_no_m(z4, spec_of(z4, K, [0]))
        ((report, flag, indec, dims_ok),) = assess([wc])
        assert report.to_dict() == verify_weak_coideal([wc])[0].to_dict() and report.passed
        assert (flag, indec, dims_ok) == (is_coideal(wc), is_indecomposable([wc])[0], dims_match(wc))

    def test_failing_checks_leave_indecomposability_undecided(self, z4, z4_setup, monkeypatch):
        K, _q, _lam, _mu = z4_setup
        wc = build_no_m(z4, spec_of(z4, K, [0]))
        x_vectors = {b: basis_vectors(s) for b, s in x_spaces(wc).items()}
        x_vectors[g(2)].append(SparseVec.basis((g(2), Slot.grp((0,)))))
        broken = assemble(z4, *fiber_rows(z4, x_vectors), "stray unit v^2_0", wc.spec)

        def refuse(batch, fibers=None):
            raise AssertionError("is_indecomposable called")

        monkeypatch.setattr(coideals, "is_indecomposable", refuse)
        ((report, flag, indec, dims_ok),) = assess([broken])
        assert [c.name for c in failures(report)] == ["closed under product"]
        assert indec is False
        assert (flag, dims_ok) == (is_coideal(broken), False)

    def test_one_fiber_build_per_batch(self, z4, z4_setup, monkeypatch):
        # a batch's fibers are built once, for the checks and for
        # indecomposability, which still decides only the members that pass
        K, _q, _lam, _mu = z4_setup
        wc = build_no_m(z4, spec_of(z4, K, [0]))
        x_vectors = {b: basis_vectors(s) for b, s in x_spaces(wc).items()}
        x_vectors[g(2)].append(SparseVec.basis((g(2), Slot.grp((0,)))))
        broken = assemble(z4, *fiber_rows(z4, x_vectors), "stray unit v^2_0", wc.spec)
        good = realized_coideals((4,), 1)[:6]
        batch = [good[0], broken, *good[1:]]
        passed = [c for c in batch if c is not broken]
        want = (verify_weak_coideal(batch), is_indecomposable(passed))
        builds, decided = [], []
        fibers, decide = coideals._Fibers, coideals.is_indecomposable

        class Counted(fibers):
            def __init__(self, members):
                builds.append(len(members))
                super().__init__(members)

        def recorded(members, F=None):
            decided.append(list(members))
            return decide(members, F)

        monkeypatch.setattr(coideals, "_Fibers", Counted)
        monkeypatch.setattr(coideals, "is_indecomposable", recorded)
        out = assess(batch)
        assert builds == [len(batch)] and decided == [passed]
        assert [r.to_dict() for r, *_ in out] == [r.to_dict() for r in want[0]]
        assert [r.passed for r, *_ in out] == [c is not broken for c in batch]
        flags = iter(want[1])
        assert [indec for _, _, indec, _ in out] == [c is not broken and next(flags) for c in batch]


# -- array checks against the scalar paths -----------------------------------------


def reference_report(wc):
    """verify_weak_coideal's rows (name, residual, passed, witness, instances),
    recomputed one basis vector at a time with multiply, coproduct, star,
    Subspace.residual/contains_batch and tensor_contains."""
    alg, eps, space, unit = wc.algebra, wc.algebra.eps, generic_space(wc), unit_vector(wc)
    basis = basis_vectors(space)
    size = len(basis)
    rows = []
    unit_ok = unit.norm() > eps and space.contains(unit)
    rows.append(("unit exists in A", 0.0 if unit_ok else float("inf"), unit_ok,
                 "" if unit_ok else "empty or missing unit", 1))

    best, witness = 0.0, ""
    for i, a in enumerate(basis):
        margins = space.contains_batch(alg.multiply(a, b) for b in basis)
        for j, m in enumerate(margins):
            if m > best:
                best, witness = float(m), f"basis pair {(i, j)}"
    rows.append(("closed under product", best, best <= 0.0, witness, size**2))

    best, witness = 0.0, ""
    for i, a in enumerate(basis):
        m = space.residual(star(alg, a)) - eps * (1.0 + a.norm())
        if m > best:
            best, witness = float(m), f"basis vector {i}"
    rows.append(("closed under star", best, best <= 0.0, witness, size))

    bad = [i for i, a in enumerate(basis) if not tensor_contains(alg.coproduct(a), space, None)]
    rows.append(("coproduct maps into A (x) B", float("inf") if bad else 0.0, not bad,
                 f"basis vector {bad[0]}" if bad else "", size))

    best, witness = 0.0, ""
    for i, a in enumerate(basis):
        r = max(distance(alg.multiply(unit, a), a), distance(alg.multiply(a, unit), a))
        if r > best:
            best, witness = r, f"basis vector {i}"
    rows.append(("unit acts as identity", best, best <= eps, witness, size))

    target, _source = alg.counital_subalgebras()
    ok = bool(basis) and tensor_contains(alg.coproduct(unit), space, target)
    rows.append(("coproduct of unit in A (x) B_t", 0.0 if ok else float("inf"), ok, "", 1))
    return rows


def reference_fixed_points(wc):
    """fixed_point_algebra with Delta(1_A)(e_i (x) 1) from tensor_multiply."""
    alg = wc.algebra
    basis = basis_vectors(generic_space(wc))
    delta_unit = alg.coproduct(unit_vector(wc))
    twisted = {
        i: alg.tensor_multiply(delta_unit, SparseVec({(i, j): c for j, c in one(alg).items()}))
        for i in {i for v in basis for i in v.keys()}
    }
    columns = []
    for v in basis:
        col = alg.coproduct(v)
        for i, c in v.items():
            add_scaled(col, twisted[i], -c)
        columns.append(col.prune())
    keys = sorted({k for col in columns for k in col.keys()})
    mat = np.zeros((len(keys), len(columns)), dtype=complex)
    for j, col in enumerate(columns):
        for k, c in col.items():
            mat[keys.index(k), j] = c
    out = []
    for coeffs in nullspace(mat[None])[0]:
        v = SparseVec()
        for j, c in enumerate(coeffs):
            add_scaled(v, basis[j], c)
        out.append(v.prune())
    return subspace(out, eps=alg.eps)


def generic_space(wc):
    """A by the generic echelon of its generators u (x) e_c: each fiber basis
    row u against each column slot c, in block, row and column order."""
    alg, fibers, pos = wc.algebra, x_spaces(wc), unit_pos(wc.algebra)
    generators = []
    for block in blocks(alg):
        sub = fibers.get(block)
        if sub is None or sub.dim == 0:
            continue
        for u in basis_vectors(sub):
            for col in slots(alg, block):
                generators.append(SparseVec({
                    pos[BasisUnit(block, slot, col)]: c for (_b, slot), c in u.items()
                }))
    return subspace(generators, eps=alg.eps)


def assert_space_matches_generic(wc, exact):
    """A's rows (the Kronecker basis of ``_coords``) are the generic echelon
    basis bit for bit, or, where ``exact`` is false and the bases differ,
    span the same space."""
    A, ref = ACoords(wc), generic_space(wc)
    units, at = np.unique(A.unit, return_inverse=True)
    basis = np.zeros((A.size, len(units)), dtype=complex)
    basis[A.row, at] = A.val
    same = units.tolist() == ref.universe.tolist() and np.array_equal(basis, ref.basis)
    assert same or not exact, wc.label
    if not same:
        assert A.size == ref.dim, wc.label
        keys = units.tolist()
        rows = [SparseVec({keys[j]: row[j] for j in np.flatnonzero(np.abs(row) > ROUNDOFF)}) for row in basis]
        assert all(ref.contains(v) for v in rows), wc.label
        assert all(subspace(rows, eps=ref.eps).contains(v) for v in basis_vectors(ref)), wc.label


def assert_matches_reference(wc):
    """The rows on A match the scalar paths in residual, witness and
    instance count, and the rows on the fibers match the rows on A in name
    and verdict; returns the fiber rows' report."""
    assert_space_matches_generic(wc, exact=False)
    on_a = a_level_report(wc)
    want = reference_report(wc)
    assert [c.name for c in on_a.checks] == [w[0] for w in want]
    for c, d, (name, residual, passed, witness, count) in zip(on_a.checks, on_a.to_dict()["checks"], want):
        assert (c.passed, c.witness, d["instances_checked"], c.instances_total, d["mode"]) == (
            passed, witness, count, count, "exhaustive"), name
        assert c.residual == residual or abs(c.residual - residual) <= 1e-12, name
    return assert_verdicts_match(wc, on_a)


def assert_verdicts_match(wc, on_a=None):
    """verify_weak_coideal's rows and the rows on A: the same names in the
    same order, each with the same verdict; returns the fiber rows' report."""
    report, on_a = verify_weak_coideal([wc])[0], on_a or a_level_report(wc)
    assert [(c.name, c.passed) for c in report.checks] == [(c.name, c.passed) for c in on_a.checks], wc.label
    return report


def realized_coideals(factors, sign):
    """The representative of every class, as ``realize_and_verify`` builds
    it (``class_representatives``)."""
    return class_representatives(TYAlgebra(FiniteAbelianGroup(factors), tau_sign=sign))


def z4_family(builder, sign):
    """A family over K = {0, 2} in Z4 on an algebra of its own, for tests
    that break the algebra's tables: Z = {K} and rho0 = K for the m family."""
    alg = TYAlgebra(FiniteAbelianGroup((4,)), tau_sign=sign)
    K = Subgroup.generated(alg.group, [(2,)])
    return {
        "no_m": lambda: build_no_m(alg, spec_of(alg, K, [0])),
        "with_m": lambda: build_with_m(alg, spec_of(alg, K, [0], [0])),
        "I_Omega_K": lambda: build_I_Omega_K(alg, spec_of(alg, K, [0])),
    }[builder]()


class TestFiberRowsMatchRowsOnA:
    """verify_weak_coideal on the fiber rows against the rows on A
    (``reference.a_level_report``) verdict by verdict, and is_indecomposable
    against the solve on A it replaces."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("factors", [
        (1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2), (9,), (3, 3), (10,)])
    def test_every_class(self, factors, sign):
        # verdicts on every class up to order 8, indecomposability up to 10
        built = realized_coideals(factors, sign)
        assert built
        for wc in built:
            if wc.algebra.group.order <= 8:
                assert assert_verdicts_match(wc).passed, wc.label
            assert is_indecomposable([wc])[0] and restricted_is_indecomposable(wc), wc.label

    @pytest.mark.parametrize("builder", ["no_m", "with_m"])
    def test_fiber_residual_matches_generic(self, z4, z4_setup, builder):
        # vectors of sum_z H^z: members of sum_z X^z plus noise, some of it
        # in blocks where X^z = 0, against one Subspace of all fiber rows
        K = z4_setup[0]
        wc = build_no_m(z4, spec_of(z4, K, [0])) if builder == "no_m" else build_with_m(z4, spec_of(z4, K, [0], [0]))
        space = subspace([v for sub in x_spaces(wc).values() for v in basis_vectors(sub)], eps=z4.eps)
        keys = [(b, slot) for b in blocks(z4) for slot in slots(z4, b)]  # in the numbering of all blocks' slots
        held = set(x_spaces(wc))
        outside = [k for k in keys if k[0] not in held]
        rng = np.random.default_rng(11)
        vecs = []
        for k in range(12):
            coeffs = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
            v = SparseVec(dict(zip(space.universe.tolist(), coeffs @ space.basis)))
            pool = keys if k % 3 else outside
            noise = rng.choice(len(pool), size=k % 4, replace=False)
            vecs.append(v + SparseVec({pool[i]: complex(rng.normal(), rng.normal()) for i in noise}))
        vec = np.repeat(np.arange(len(vecs)), [len(v) for v in vecs])
        slot = np.array([keys.index(key) for v in vecs for key in v.keys()])
        val = np.array([c for v in vecs for c in v.data.values()])
        got, norm = coideals._Fibers([wc]).residual(vec, slot, val, len(vecs))
        want = space.residuals(*space.to_dense(vecs))
        assert np.abs(got - want).max() <= 1e-12
        assert np.allclose(norm, [v.norm() for v in vecs], rtol=0, atol=1e-12)
        assert (got[::4] <= 1e-12).all() and (got[[3, 6, 9]] > 1e-3).all()

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("factors", [(2,), (3,), (4,), (2, 2), (5,), (6,)])
    def test_faulted_copies(self, factors, sign):
        failed = set()
        for wc in realized_coideals(factors, sign):
            for broken in faulted_copies(wc):
                failed |= {c.name for c in failures(assert_verdicts_match(broken))}
        # every row but "coproduct maps into A (x) B", which only a broken
        # coproduct table trips
        assert failed == {c.name for c in verify_weak_coideal([wc])[0].checks} - {"coproduct maps into A (x) B"}


class TestArrayChecks:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("factors", [(2,), (3,), (2, 2)])
    def test_realized_classes_match_scalar_paths(self, factors, sign):
        built = realized_coideals(factors, sign)
        assert built
        for wc in built:
            assert assert_matches_reference(wc).passed, wc.label
            fixed, ref = fixed_point_algebra(wc), reference_fixed_points(wc)
            assert fixed.dim == ref.dim, wc.label
            assert all(ref.contains(v) for v in basis_vectors(fixed))
            assert all(fixed.contains(v) for v in basis_vectors(ref))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("factors", [(1,), (2,), (3,), (4,), (2, 2)])
    def test_kronecker_space_is_the_generic_echelon(self, factors, sign):
        built = realized_coideals(factors, sign)
        assert built
        for wc in built:
            assert_space_matches_generic(wc, exact=True)

    @pytest.mark.parametrize("builder", ["no_m", "with_m"])
    def test_block_residual_matches_generic(self, z4, z4_setup, builder):
        # members of A plus noise, some of it in blocks where X^x = 0
        K, _q, _lam, _mu = z4_setup
        wc = build_no_m(z4, spec_of(z4, K, [0])) if builder == "no_m" else build_with_m(z4, spec_of(z4, K, [0], [0]))
        space, A = generic_space(wc), ACoords(wc)
        rng = np.random.default_rng(7)
        outside = [u for u in range(z4.dim) if not A.in_blocks[z4._layout.block[u]]]
        assert outside
        vecs = []
        for k in range(12):
            coeffs = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
            v = SparseVec(dict(zip(space.universe.tolist(), coeffs @ space.basis)))
            noise = rng.choice(z4.dim if k % 3 else outside, size=k % 4, replace=False)
            vecs.append(v + SparseVec({int(u): complex(rng.normal(), rng.normal()) for u in noise}))
        vec = np.repeat(np.arange(len(vecs)), [len(v) for v in vecs])
        unit = np.array([u for v in vecs for u in v.keys()])
        val = np.array([c for v in vecs for c in v.data.values()])
        got, norm = A.residual(vec, unit, val, len(vecs))
        want = space.residuals(*space.to_dense(vecs))
        assert np.abs(got - want).max() <= 1e-12
        assert np.allclose(norm, [v.norm() for v in vecs], rtol=0, atol=1e-12)
        assert (got[::4] <= 1e-12).all() and (got[[3, 6, 9]] > 1e-3).all()

    def test_product_mass_off_a_trips_only_product_closure(self, z4_setup):
        # a fiber entry v^2_0 . v^2_0 -> 0.5 v^1_0, before B's product is
        # built from the table, gives B the product entry (2; 0, 0)(2; 0, 0)
        # -> 0.25 (1; 0, 0), which puts mass in block 1, where X^1 = 0;
        # neither factor is a unit of 1_A
        alg = TYAlgebra(FiniteAbelianGroup((4,)), tau_sign=1)
        F = alg._fiber_table
        alg._fiber_table = FiberTable.of(alg._layout, *(np.append(col, v) for col, v in zip(
            (*F.local, F.coeff), (2, 0, 2, 0, 1, 0, 0.5))))
        K, _q, _lam, _mu = z4_setup
        wc = build_no_m(alg, spec_of(alg, K, [0]))
        assert BlockLabel.grp((1,)) not in x_spaces(wc)
        T, pos = alg.product, unit_pos(alg)
        a = pos[BasisUnit(g(2), Slot.grp((0,)), Slot.grp((0,)))]
        k = pos[BasisUnit(g(1), Slot.grp((0,)), Slot.grp((0,)))]
        assert T.c[(T.i == a) & (T.j == a) & (T.k == k)].tolist() == [0.25]
        report = assert_matches_reference(wc)
        assert [c.name for c in failures(report)] == ["closed under product"]
        assert failures(report)[0].witness == "fiber rows (1, 1)"

    @pytest.fixture
    def no_m_half(self, z4, z4_setup):
        K, _q, _lam, _mu = z4_setup
        return build_no_m(z4, spec_of(z4, K, [0]))  # X^2 = C v^2_lam, lam = {0, 2}

    @pytest.mark.parametrize("with_m", [False, True])
    def test_stray_unit_trips_only_product_closure(self, z4, z4_setup, with_m):
        K, _q, _lam, _mu = z4_setup
        if with_m:  # 37 basis rows: the product pairs span several blocks
            wc = build_with_m(z4, spec_of(z4, K, [0], [0]))
        else:
            wc = build_no_m(z4, spec_of(z4, K, [0]))
        x_vectors = {b: basis_vectors(s) for b, s in x_spaces(wc).items()}
        x_vectors[g(2)].append(SparseVec.basis((g(2), Slot.grp((0,)))))
        broken = assemble(z4, *fiber_rows(z4, x_vectors), "stray unit v^2_0")
        report = assert_matches_reference(broken)
        assert [c.name for c in failures(report)] == ["closed under product"]
        assert failures(a_level_report(broken))[0].witness.startswith("basis pair (")
        assert failures(report)[0].witness.startswith("fiber rows (")

    def test_star_breaking_trips_only_star_closure(self, z4, no_m_half):
        x_vectors = {b: basis_vectors(s) for b, s in x_spaces(no_m_half).items()}
        (v,) = x_vectors[g(2)]
        key = (g(2), Slot.grp((0,)))
        x_vectors[g(2)] = [v + SparseVec({key: v[key]})]  # 2 v^2_0 + v^2_2
        broken = assemble(z4, *fiber_rows(z4, x_vectors), "unbalanced X^2")
        report = assert_matches_reference(broken)
        assert [c.name for c in failures(report)] == ["closed under star"]

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("builder", ["no_m", "with_m", "I_Omega_K"])
    def test_smaller_target_trips_only_unit_coproduct(self, builder, sign, monkeypatch):
        # B_t without its first basis vector no longer holds every second leg
        # of Delta(1_A).  The rows on A read B_t; the fiber row reads the legs
        # from the fiber table's zero block, once per algebra, where halving
        # v^0_0 . v^0_0 = v^0_0 makes eps_t(R_0) = R_0 / 4.  The table is
        # faulted only for that read, so the family gets an algebra of its own
        wc = z4_family(builder, sign)
        alg = wc.algebra
        target, source = alg.counital_subalgebras()
        smaller = subspace(basis_vectors(target)[1:], eps=alg.eps)
        monkeypatch.setattr(type(alg), "counital_subalgebras", lambda self: (smaller, source))
        table, zero = alg._fiber_table, alg._layout.zero
        x, a, y, c, _, _ = table.local
        coeff = np.where((x == zero) & (y == zero) & (a == 0) & (c == 0), 0.5 * table.coeff, table.coeff)
        with monkeypatch.context() as faulted:
            faulted.setattr(alg, "_fiber_table", dataclasses.replace(table, coeff=coeff))
            assert alg._unit_legs_in_target.tolist() == [False] + [True] * alg.group.order
        report = assert_matches_reference(wc)
        assert [c.name for c in failures(report)] == ["coproduct of unit in A (x) B_t"]
        assert failures(report)[0].witness == "second leg e_0 (x) conj(v^0_Omega) of Delta(1_A) not in B_t"
        assert failures(a_level_report(wc))[0].witness == ""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("builder", ["no_m", "with_m", "I_Omega_K"])
    def test_doubled_unit_trips_only_unit_identity(self, builder, sign):
        wc = z4_family(builder, sign)
        wc.unit = 2.0 * wc.unit
        report = assert_matches_reference(wc)
        assert [c.name for c in failures(report)] == ["unit acts as identity"]
        assert failures(report)[0].witness == "fiber row 0"

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("builder", ["no_m", "with_m", "I_Omega_K"])
    def test_first_leg_off_a_trips_only_coproduct_into(self, builder, sign):
        # one term of Delta(u), for a unit u of A outside the support of 1_A,
        # gets a first leg on a unit no row of A reaches
        wc = z4_family(builder, sign)
        alg, A = wc.algebra, ACoords(wc)
        alg.counital_subalgebras()  # B_t and B_s of the unbroken coproduct
        u = next(i for i in A.unit.tolist() if i not in unit_vector(wc).keys())
        C, first = alg._coproduct_table, alg._coproduct_table.first.copy()
        first[C.ptr[u]] = np.flatnonzero(~A.covers)[0]
        alg._coproduct_table = CoproductTable(C.ptr, C.src, first, C.second)
        report = assert_matches_reference(wc)
        assert [c.name for c in failures(report)] == ["coproduct maps into A (x) B"]
        assert failures(report)[0].witness.startswith("fiber row ")

    def test_complex_generator_matches_scalar_paths(self, z4, no_m_half):
        # X^2 = C (v^2_0 + i v^2_2) is again a weak coideal; its star image
        # has conjugated coefficients
        x_vectors = {b: basis_vectors(s) for b, s in x_spaces(no_m_half).items()}
        (v,) = x_vectors[g(2)]
        key = (g(2), Slot.grp((2,)))
        x_vectors[g(2)] = [v + SparseVec({key: (1j - 1) * v[key]})]
        phased = assemble(z4, *fiber_rows(z4, x_vectors), "phased X^2")
        assert assert_matches_reference(phased).passed
        with pytest.raises(InvariantError, match="not 0/1 indicators"):
            phased.key()  # exact keys are for the builders' indicator rows

    def test_zero_family_matches_scalar_paths(self, z4):
        report = assert_matches_reference(assemble(z4, *fiber_rows(z4, {}), "zero"))
        assert {c.name: c.witness for c in failures(report)} == {
            "unit exists in A": "empty or missing unit", "coproduct of unit in A (x) B_t": "A = 0"}

    def test_unit_off_x0_names_the_unit(self, z4):
        # X^0 = span(v^0_0 + v^0_1, v^0_1 + v^0_2): Gamma = {0, 1, 2}, and
        # v^0_0 + v^0_1 + v^0_2 is not in X^0
        zero, own = g(0), slots(z4, g(0))
        rows = [SparseVec({(zero, own[i]): 1.0, (zero, own[i + 1]): 1.0}) for i in (0, 1)]
        wc = assemble(z4, *fiber_rows(z4, {zero: rows}), "unit off X^0")
        report = assert_matches_reference(wc)
        failed = {c.name: c.witness for c in failures(report)}
        assert failed["coproduct of unit in A (x) B_t"] == "v^0_Gamma not in X^0"
        assert failed["unit exists in A"] == "empty or missing unit"


def verdict_bits(report, indecomposable):
    """A report's label and rows, each row's residual by its bits, with the
    indecomposability verdict."""
    rows = [(c.name, c.instances_total, float(c.residual).hex(), c.witness, c.passed) for c in report.checks]
    return report.label, report.passed, rows, indecomposable


def class_representatives(alg):
    """The family realize_and_verify builds for every class, on ``alg``:
    ``reference.representative``, whose rows, labels and keys
    ``TestBatchBuilds`` checks against the batch builds."""
    return [representative(alg, spec) for spec, _ in weak_coideal_classes(alg.group, alg.bichar)[1]]


def faulted(wc, fault):
    """wc with one of the faults the single-class tests use: a stray fiber
    unit v^2_0, or X^2 = C v^2_0 replaced by the unbalanced 2 v^2_0 + v^2_2."""
    x_vectors = {b: basis_vectors(s) for b, s in x_spaces(wc).items()}
    if fault == "unbalanced":
        (v,) = x_vectors[g(2)]
        key = (g(2), Slot.grp((0,)))
        x_vectors[g(2)] = [v + SparseVec({key: v[key]})]
    else:
        x_vectors[g(2)].append(SparseVec.basis((g(2), Slot.grp((0,)))))
    return assemble(wc.algebra, *fiber_rows(wc.algebra, x_vectors), fault, wc.spec)


class TestBatches:
    """Coideals verified in one batch get the verdicts they get alone."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("factors", [(2,), (3,), (4,), (2, 2), (6,)])
    def test_batch_equals_each_alone(self, factors, sign):
        # every class, each followed by its faulted copies, so that residuals
        # and witnesses are not all zero and empty
        built = realized_coideals(factors, sign)
        batch = [family for wc in built for family in (wc, *faulted_copies(wc))]
        together = list(map(verdict_bits, verify_weak_coideal(batch), is_indecomposable(batch)))
        alone = [verdict_bits(verify_weak_coideal([wc])[0], is_indecomposable([wc])[0]) for wc in batch]
        assert together == alone
        assert any(0 < float.fromhex(row[2]) < np.inf for _, _, rows, _ in together for row in rows)
        assert any(not passed for _, passed, _, _ in together) and any(indec for *_, indec in together)
        # and assess, with the coideal flag and the predicted dimensions
        bits = [(verdict_bits(report, indec), flag, dims) for report, flag, indec, dims in assess(built)]
        assert bits == [(verdict_bits(r, i), f, d) for wc in built for r, f, i, d in assess([wc])]
        assert [flag for _, flag, _ in bits] == [is_coideal(wc) for wc in built]

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("factors, swaps", [((2,), 5), ((4,), 11), ((2, 2), 19), ((6,), 35)])
    def test_swap_reuses_its_own_verdicts(self, factors, sign, swaps):
        # realize_and_verify assesses the first class of each key and gives
        # its verdicts to the later ones, the swaps (Kperp, Z1, Z0) of earlier
        # classes: each of those gets the same bits from its own batch of one.
        # Only the report's label, which names the builder, may differ
        # (no_m(side=0) against no_m(side=1)); every class keeps its own
        first, reused = {}, 0
        for wc in realized_coideals(factors, sign):
            report, flag, indec, _ = assess([wc])[0]
            bits = verdict_bits(report, indec)[1:], flag
            if wc.key() in first:
                assert bits == first[wc.key()], wc.label
                reused += 1
            first.setdefault(wc.key(), bits)
        assert reused == swaps

    @pytest.mark.parametrize("fault, builder, failed", [
        ("stray unit v^2_0", build_no_m, "closed under product"),
        ("stray unit v^2_0", build_with_m, "closed under product"),  # 37 basis rows of A once faulted
        ("unbalanced", build_no_m, "closed under star"),
    ])
    def test_one_faulted_class_fails_alone(self, z4, z4_setup, fault, builder, failed):
        K = z4_setup[0]
        broken = faulted(builder(z4, spec_of(z4, K, [0], [0] if builder is build_with_m else [])), fault)
        healthy = class_representatives(z4)
        batch = [*healthy[:5], broken, *healthy[5:]]
        verdicts = assess(batch)
        assert [report.passed for report, *_ in verdicts] == [wc is not broken for wc in batch]
        assert [indec for _, _, indec, _ in verdicts] == [wc is not broken for wc in batch]
        report = verdicts[5][0]
        assert [c.name for c in failures(report)] == [failed]
        assert verdict_bits(report, False) == verdict_bits(assess([broken])[0][0], False)

    def test_compose_pairs_rows_of_one_coideal(self, z4, z4_setup):
        # two coideals over the same slots: every product of the batch joins
        # rows of one coideal, and each coideal's products are those of its
        # batch of one, in the same order
        K = z4_setup[0]
        pair = [build_with_m(z4, spec_of(z4, K, [0], [0])), build_no_m(z4, spec_of(z4, K, [0]))]
        F = coideals._Fibers(pair)
        i, j, key, val = F.compose(F.terms, F.sorted_terms)
        assert len(i) and (F.owner[i] == F.owner[j]).all() and (key // F.slots == F.owner[i]).all()
        for c, wc in enumerate(pair):
            one = coideals._Fibers([wc])
            mine = F.owner[i] == c
            got = (i[mine] - F.start[c], j[mine] - F.start[c], key[mine] - c * F.slots, val[mine])
            want = one.compose(one.terms, one.sorted_terms)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))
            assert val[mine].tobytes() == want[3].tobytes()
