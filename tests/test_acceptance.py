"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed at 1e-9 throughout.
"""

import json
import time

import pytest

from tywha import classify
from tywha.algebra import TYAlgebra
from tywha.classify import _pair_perms, weak_coideal_classes
from tywha.cli import main as cli_main
from tywha.coideals import (
    CoidealSpec,
    build_I_m_K,
    build_I_Omega_K,
    build_no_m,
    build_with_m,
    dims_match,
    is_coideal,
    is_indecomposable,
    verify_weak_coideal,
)
from tywha.errors import StructuralError
from tywha.groups import FiniteAbelianGroup, enumerate_subgroups, orthogonal, quotient
from tywha.linalg import SparseVec
import random

from reference import (
    BlockLabel, Slot, antipode, assemble, basis_vectors, blocks, failures, fiber_rows, haar_value, slots, star, x_spaces,
)

TOL = 1e-9
GROUPS = [(1,), (2,), (3,), (4,), (2, 2)]
COIDEAL_GROUPS = [(2,), (3,), (4,), (2, 2)]


def _report_line(num, desc, ok):
    print(f"\nACCEPTANCE {num} [{desc}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def algebras():
    return {
        (factors, sign): TYAlgebra(FiniteAbelianGroup(factors), tau_sign=sign, eps=TOL)
        for factors in GROUPS
        for sign in (1, -1)
    }


@pytest.fixture(scope="module")
def axiom_runs(algebras):
    runs = {}
    for key, alg in algebras.items():
        start = time.monotonic()
        report = alg.verify_axioms()
        runs[key] = (report, time.monotonic() - start)
    return runs


def test_criterion_1_axiom_suite(axiom_runs):
    ok = True
    for (factors, sign), (report, elapsed) in axiom_runs.items():
        names = {c.name for c in report.checks}
        assert {
            "coproduct multiplicative",
            "coproduct star compatible",
            "weak unit identity",
            "weak counit identity",
            "antipode identity (target)",
            "antipode identity (source)",
            "star-antipode period two",
            "antipode squared fixes target subalgebra",
        } <= names
        worst = max(c.residual for c in report.checks)
        if not report.passed or worst > TOL or elapsed > 60.0:
            ok = False
            print(f"  {factors} tau={sign}: FAILED (residual {worst:.2e}, {elapsed:.1f}s)")
            for c in failures(report):
                print("   ", c.name, c.residual, c.witness)
    _report_line(1, "axiom suite, 5 groups x 2 tau signs, residual <= 1e-9, <= 60s", ok)


def test_criterion_2_dimensions(algebras):
    ok = True
    for factors in GROUPS:
        alg = algebras[(factors, 1)]
        n = alg.group.order
        target, source = alg.counital_subalgebras()
        ok &= alg.dim == n * (n + 1) ** 2 + 4 * n * n
        ok &= target.dim == n + 1 and source.dim == n + 1
        ok &= target.intersect(source).dim == 1
        ok &= alg.center() == n + 1
    ok &= algebras[((2,), 1)].dim == 34
    ok &= algebras[((4,), 1)].dim == 164
    _report_line(2, "dim B formula (34/164), dim B_t = B_s = |G|+1, biconnected, dim Z(B) = |G|+1", ok)


def test_criterion_3_corepresentations(algebras, axiom_runs):
    ok = True
    for (factors, sign), (report, _) in axiom_runs.items():
        alg, rows = algebras[(factors, sign)], {c.name: c for c in report.checks}
        for block in blocks(alg):
            checks = [
                rows[f"corepresentation[{block}] {identity}"]
                for identity in ("comultiplication", "counit", "partial isometry")
            ]
            bad = [(c.name, c.residual) for c in checks if not c.passed or c.residual > TOL]
            ok &= not bad and all(c.instances_total == len(slots(alg, block)) ** 2 for c in checks)
            if bad:
                print(f"  {factors} tau={sign} block {block}: {bad}")
    _report_line(3, "corepresentation identities for every block, residual <= 1e-9", ok)


def test_criterion_4_haar(algebras):
    ok = True
    for (factors, sign), alg in algebras.items():
        try:
            h = alg.haar()
        except StructuralError as exc:
            ok = False
            print(f"  {factors} tau={sign}: {exc}")
            continue
        worst = max(
            abs(haar_value(h, antipode(alg, SparseVec.basis(i))) - haar_value(h, SparseVec.basis(i)))
            for i in range(alg.dim)
        )
        ok &= worst <= TOL
        rng = random.Random(13)
        for _ in range(200):
            b = SparseVec(
                {rng.randrange(alg.dim): complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(6)}
            )
            val = haar_value(h, alg.multiply(star(alg, b), b))
            if val.real < -TOL or abs(val.imag) > TOL:
                ok = False
                break
    _report_line(4, "Haar functional: unique solution, S-invariant, positive on 200 samples", ok)


def _z_families(n):
    """The first coset, every coset and, past two, the first two, as coset
    numbers of a quotient with n cosets; each family once."""
    families = [(0,), tuple(range(n))] + ([(0, 1)] if n > 2 else [])
    return list(dict.fromkeys(families))  # singleton == full for a one-coset quotient


def test_criterion_5_coideal_suite():
    ok = True
    for factors in COIDEAL_GROUPS:
        alg = TYAlgebra(FiniteAbelianGroup(factors), eps=TOL)
        for K in enumerate_subgroups(alg.group):
            q0 = quotient(alg.group, K)
            perp = orthogonal(alg.bichar, K)
            q1 = quotient(alg.group, perp)
            one = CoidealSpec(q0, q1, [0], [])
            builds = [build_I_m_K(alg, one), build_I_Omega_K(alg, one)]
            for fam in _z_families(len(q0)):
                builds.append(build_no_m(alg, CoidealSpec(q0, q1, fam, [])))
            for fam in _z_families(len(q1)):
                builds.append(build_no_m(alg, CoidealSpec(q0, q1, [], fam)))
            for fam in _z_families(len(q0)):
                for rho0 in sorted({0, len(q1) - 1}):
                    builds.append(build_with_m(alg, CoidealSpec(q0, q1, fam, [rho0])))
            for wc, report, indecomposable in zip(builds, verify_weak_coideal(builds), is_indecomposable(builds)):
                if not report.passed:
                    ok = False
                    print(f"  {factors} K={K} {wc.label}: verification failed")
                    continue
                expected_coideal = wc.label == "I_Omega_K" or (
                    wc.label.startswith("with_m") and len(wc.spec.z0) == len(q0)
                )
                if is_coideal(wc) != expected_coideal:
                    ok = False
                    print(f"  {factors} K={K} {wc.label}: coideal flag wrong")
                if not indecomposable:
                    ok = False
                    print(f"  {factors} K={K} {wc.label}: decomposable")
                xm = x_spaces(wc).get(BlockLabel.m())
                if xm is not None and xm.dim % 2 != 0:
                    ok = False
                    print(f"  {factors} K={K} {wc.label}: odd m-fiber dimension")
                if not dims_match(wc):
                    ok = False
                    print(f"  {factors} K={K} {wc.label}: dims mismatch")
    _report_line(
        5,
        "all builders over all subgroups verify; coideal flags exact; "
        "indecomposable; even m-fiber; dims match",
        ok,
    )


def test_criterion_6_classification_counts():
    ok = True
    z2 = FiniteAbelianGroup((2,))
    rep, _ = weak_coideal_classes(z2, TYAlgebra(z2).bichar)
    ok &= rep["total_classes"] == 10 and rep["total_coideal_classes"] == 8

    z1 = FiniteAbelianGroup((1,))
    rep1, _ = weak_coideal_classes(z1, TYAlgebra(z1).bichar)
    ok &= rep1["total_classes"] == 2 and rep1["total_coideal_classes"] == 2

    flip_seen = False
    for factors in [(2,), (3,), (4,), (2, 2)]:
        grp = FiniteAbelianGroup(factors)
        report, _ = weak_coideal_classes(grp, TYAlgebra(grp).bichar)
        for entry in report["per_subgroup"]:
            flip = entry["action"] == "translations+flip"
            expected = 2 if flip else 4
            if entry["n_coideal"] != expected:
                ok = False
                print(f"  {factors} K={entry['K']}: {entry['n_coideal']} != {expected}")
            if factors == (4,) and entry["K"] == [[0], [2]]:
                flip_seen = flip
    ok &= flip_seen
    _report_line(
        6,
        "Z2: 10 classes / 8 coideal; trivial group: 2/2; per-K flags 4 or 2; "
        "Z4 middle subgroup uses the flip",
        ok,
    )


def test_criterion_7_fault_injection(monkeypatch):
    ok = True

    # (a) tau sign flipped in the fiber involution only
    alg = TYAlgebra(FiniteAbelianGroup((2,)), eps=TOL)
    alg._psi_bar *= -1.0
    report = alg.verify_axioms()
    failed = {c.name for c in failures(report)}
    if not {"antipode identity (target)", "antipode identity (source)"} & failed:
        ok = False
        print("  sharp sign flip was not detected by the antipode identities")

    # (b) m-slot generator dropped from one annihilator block
    alg = TYAlgebra(FiniteAbelianGroup((4,)), eps=TOL)
    from tywha.groups import Subgroup

    K = Subgroup.generated(alg.group, [(2,)])
    q, qp = quotient(alg.group, K), quotient(alg.group, orthogonal(alg.bichar, K))
    good = build_with_m(alg, CoidealSpec(q, qp, [0], [0]))
    x_vectors = {}
    for block, sub in x_spaces(good).items():
        vecs = basis_vectors(sub)
        if block == BlockLabel.grp((2,)):
            vecs = [v for v in vecs if (block, Slot.m()) not in set(v.keys())]
        x_vectors[block] = vecs
    broken = assemble(alg, *fiber_rows(alg, x_vectors), "dropped m slot")
    rep_broken = verify_weak_coideal([broken])[0]
    if rep_broken.passed or not (
        {"closed under product", "closed under star"}
        & {c.name for c in failures(rep_broken)}
    ):
        ok = False
        print("  dropped m-slot generator was not detected by closure checks")

    # (c) flip dropped from the orbit action at a self-orthogonal subgroup
    grp = FiniteAbelianGroup((4,))
    monkeypatch.setattr(classify, "_pair_perms", lambda q0, q1, flip: _pair_perms(q0, q1, False))
    try:
        weak_coideal_classes(grp, TYAlgebra(grp).bichar)
        ok = False
        print("  dropped flip was not detected by the orbit cross-check")
    except StructuralError:
        pass

    _report_line(7, "three deliberate faults detected by the corresponding suites", ok)


def test_criterion_8_deterministic_json(tmp_path):
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for path in paths:
        code = cli_main(["classify", "weak-coideals", "--group", "2,2", "--json", str(path)])
        assert code == 0
    ok = paths[0].read_bytes() == paths[1].read_bytes()
    _report_line(8, "classify --json runs are byte-identical", ok)
