import json
import random
import time

import pytest

from tywha.cli import main
from tywha.linalg import SparseVec, distance


def run(argv):
    return main(argv)


def built(label, spec):
    """A built family as "<label> K=.. Z0=.. Z1=..", each group element
    written as its digits."""
    data = (f"{k}={','.join(''.join(map(str, e)) for e in spec[k])}" for k in ("K", "Z0", "Z1"))
    return " ".join([label, *data])


class TestGroupDescribe:
    def test_z4_table(self, capsys):
        assert run(["group", "describe", "--group", "4"]) == 0
        out = capsys.readouterr().out
        assert "{(0,),(2,)}" in out
        assert "K = K_perp" in out

    def test_hyperbolic_bichar_file(self, tmp_path, capsys):
        path = tmp_path / "chi.json"
        path.write_text(json.dumps({"matrix": [["0", "1/2"], ["1/2", "0"]]}))
        assert run(["group", "describe", "--group", "2,2", "--bichar", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 6  # header + 5 subgroups

    def test_degenerate_bichar_exits_2(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"matrix": [["0"]]}))
        assert run(["group", "describe", "--group", "2", "--bichar", str(path)]) == 2
        assert "bicharacter degenerate" in capsys.readouterr().err

    def test_bad_group_exits_2(self):
        assert run(["group", "describe", "--group", "zzz"]) == 2


class TestWhaCommands:
    def test_verify_passes(self, capsys):
        assert run(["wha", "verify", "--group", "2", "--tau", "+"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("group", ["8", "2,4", "9", "2,2,2,2"])
    @pytest.mark.parametrize("tau", ["+", "-"])
    def test_verify_order_8_exhaustive(self, group, tau, tmp_path):
        out = tmp_path / "axioms.json"
        assert run(["wha", "verify", "--group", group, "--tau", tau, "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["passed"]
        for c in payload["checks"]:
            assert c["mode"] == "exhaustive", c["name"]
            assert c["instances_checked"] == c["instances_total"], c["name"]

    @pytest.mark.parametrize("group", ["17", "2,9"])
    @pytest.mark.parametrize(
        "command",
        [["wha", "verify"], ["wha", "export"], ["coideal", "build", "--K", "0"]],
        ids=["verify", "export", "coideal"],
    )
    def test_algebra_over_order_bound_exits_2(self, command, group, tmp_path, capsys):
        start = time.perf_counter()
        code = run([*command, "--group", group, "--json", str(tmp_path / "out.json")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "exceeds" in capsys.readouterr().err

    def test_bad_tau_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run(["wha", "verify", "--group", "2", "--tau", "x"])
        assert err.value.code == 2

    def test_verify_json_reports_coverage(self, tmp_path):
        out = tmp_path / "axioms.json"
        assert run(["wha", "verify", "--group", "3", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "tywha-axioms/2"
        checks = {c["name"]: c for c in payload["checks"]}
        assoc = checks["product associativity"]
        assert assoc["mode"] == "exhaustive"
        assert assoc["instances_checked"] == assoc["instances_total"] == 84**3
        haar = checks["haar positive"]
        assert haar["mode"] == "exhaustive"
        assert haar["instances_checked"] == haar["instances_total"] == 84**2

    def test_export_product_does_not_depend_on_tolerance(self, tmp_path):
        products = []
        for tol in ("1e-9", "0.6"):
            out = tmp_path / f"wha_{tol}.json"
            assert run(["wha", "export", "--group", "4", "--tol", tol, "--json", str(out)]) == 0
            products.append(json.loads(out.read_text())["product"])
        assert len(products[0]) == 1168
        assert products[0] == products[1]

    def test_export_roundtrip(self, tmp_path):
        out = tmp_path / "wha.json"
        assert run(["wha", "export", "--group", "2", "--tau", "-", "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["format"] == "ty-wha/1"
        assert data["dim"] == 34

        table = {}
        for i, j, k, re_, im_ in data["product"]:
            table.setdefault((i, j), []).append((k, complex(re_, im_)))

        from tywha.algebra import TYAlgebra
        from tywha.groups import FiniteAbelianGroup

        alg = TYAlgebra(FiniteAbelianGroup((2,)), tau_sign=-1)
        rng = random.Random(2)
        for _ in range(10):
            a, b = (
                SparseVec(
                    {rng.randrange(alg.dim): complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(6)}
                )
                for _ in range(2)
            )
            redone = {}
            for i, ca in a.items():
                for j, cb in b.items():
                    for k, c in table.get((i, j), ()):
                        redone[k] = redone.get(k, 0) + ca * cb * c
            assert distance(SparseVec(redone), alg.multiply(a, b)) < 1e-9


class TestCoidealCommand:
    def test_named_builder(self, capsys):
        assert run(["coideal", "build", "--group", "2", "--K", "0", "--builder", "I_Omega_K"]) == 0
        out = capsys.readouterr().out
        assert "is_coideal = True" in out

    def test_full_z0_with_rho(self, capsys):
        code = run(
            ["coideal", "build", "--group", "4", "--K", "2", "--Z0", "all", "--Z1", "0"]
        )
        assert code == 0
        assert "is_coideal = True" in capsys.readouterr().out

    def test_both_sides_large_exits_2(self, capsys):
        code = run(
            ["coideal", "build", "--group", "4", "--K", "2", "--Z0", "0;1", "--Z1", "0;1"]
        )
        assert code == 2
        assert "Z0" in capsys.readouterr().err

    def test_no_data_exits_2(self):
        assert run(["coideal", "build", "--group", "2", "--K", "0"]) == 2

    # the family the inferred dispatch builds for each shape of (Z0, Z1)
    @pytest.mark.parametrize("group, K, data, want", [
        ("4", "2", "--Z0 0", "no_m(side=0, |Z|=1) K=0,2 Z0=0 Z1="),
        ("4", "2", "--Z1 0", "no_m(side=1, |Z|=1) K=0,2 Z0= Z1=0"),
        ("4", "2", "--Z0 all", "no_m(side=0, |Z|=2) K=0,2 Z0=0,1 Z1="),
        ("4", "2", "--Z1 all", "no_m(side=1, |Z|=2) K=0,2 Z0= Z1=0,1"),
        ("4", "2", "--Z0 all --Z1 0", "with_m(|Z|=2) K=0,2 Z0=0,1 Z1=0"),
        ("4", "2", "--Z0 0 --Z1 all", "with_m(|Z|=2) K=0,2 Z0=0,1 Z1=0"),
        ("4", "0", "--Z0 0 --Z1 all", "with_m(|Z|=1) K=0,1,2,3 Z0=0 Z1=0"),
        ("4", "0", "--Z1 all", "no_m(side=1, |Z|=1) K=0 Z0= Z1=0"),
        ("2,2", "1,0", "--Z0 0,0", "no_m(side=0, |Z|=1) K=00,10 Z0=00 Z1="),
        ("2,2", "1,0", "--Z1 0,0", "no_m(side=1, |Z|=1) K=00,10 Z0= Z1=00"),
        ("2,2", "1,0", "--Z0 all", "no_m(side=0, |Z|=2) K=00,10 Z0=00,01 Z1="),
        ("2,2", "1,0", "--Z1 all", "no_m(side=1, |Z|=2) K=00,10 Z0= Z1=00,10"),
        ("2,2", "1,0", "--Z0 all --Z1 0,0", "with_m(|Z|=2) K=00,10 Z0=00,01 Z1=00"),
        ("2,2", "1,0", "--Z0 0,0 --Z1 all", "with_m(|Z|=2) K=00,01 Z0=00,10 Z1=00"),
        ("2,2", "0,0", "--Z0 0,0 --Z1 all", "with_m(|Z|=1) K=00,01,10,11 Z0=00 Z1=00"),
        ("2,2", "0,0", "--Z1 all", "no_m(side=1, |Z|=1) K=00 Z0= Z1=00"),
    ])
    def test_inferred_builder(self, tmp_path, group, K, data, want):
        out = tmp_path / "coideal.json"
        argv = ["coideal", "build", "--group", group, "--K", K, *data.split(), "--json", str(out)]
        assert run(argv) == 0
        payload = json.loads(out.read_text())
        assert built(payload["label"], payload["spec"]) == want

    def test_named_no_m_builder(self, capsys):
        code = run(
            ["coideal", "build", "--group", "4", "--K", "2", "--Z0", "all", "--builder", "no_m"]
        )
        assert code == 0
        assert "is_coideal = False" in capsys.readouterr().out

    def test_named_with_m_builder(self, capsys):
        code = run(
            [
                "coideal", "build", "--group", "4", "--K", "2",
                "--Z0", "0", "--Z1", "1", "--builder", "with_m",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "indecomposable = True" in out

    def test_with_m_builder_needs_single_rho(self, capsys):
        code = run(
            ["coideal", "build", "--group", "4", "--K", "2", "--Z0", "0", "--builder", "with_m"]
        )
        assert code == 2

    def test_json_report(self, tmp_path):
        out = tmp_path / "coideal.json"
        code = run(
            [
                "coideal",
                "build",
                "--group",
                "4",
                "--K",
                "2",
                "--Z0",
                "1",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["verified"] is True
        assert payload["is_coideal"] is False
        assert payload["indecomposable"] is True
        assert payload["dims_match_prediction"] is True


class TestClassifyCommands:
    def test_z2_counts(self, capsys):
        assert run(["classify", "weak-coideals", "--group", "2"]) == 0
        out = capsys.readouterr().out
        assert "10 total, 8 coideal-containing" in out

    def test_trivial_group(self, capsys):
        assert run(["classify", "weak-coideals", "--group", "1"]) == 0
        assert "2 total, 2 coideal-containing" in capsys.readouterr().out

    def test_realize_flag(self, capsys):
        assert run(["classify", "weak-coideals", "--group", "2", "--realize"]) == 0
        assert "realized and verified" in capsys.readouterr().out

    def test_guard_exceeded_exits_2(self):
        assert run(["classify", "weak-coideals", "--group", "17"]) == 2

    def test_json_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run(["classify", "weak-coideals", "--group", "2", "--json", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_g_algebras(self, capsys, tmp_path):
        out = tmp_path / "algs.json"
        code = run(
            ["classify", "g-algebras", "--group", "2", "--max-mult", "1", "--json", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        counts = [
            e["types"]["decomposed"]["n_classes"] for e in payload["per_subgroup"]
        ]
        assert counts == [5, 5]
