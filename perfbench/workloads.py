"""Workload command lists and the correctness gate.

A workload is a list of ``Command``s, each one ``tywha`` CLI call. The gate
reads the JSON report each call writes and compares its meaning, not its
bytes, with the pins recorded at the seed commit (``pins.json``). Only
``wha export`` is pinned byte for byte, through its sha256.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

TOL = "1e-9"
SAMPLES = "2000"
PINS = Path(__file__).with_name("pins.json")


@dataclass(frozen=True)
class Command:
    name: str  # key into pins.json; never contains a seeded value
    kind: str  # which gate applies
    argv: tuple[str, ...]  # CLI arguments without --json


def _tau(rng: random.Random) -> str:
    return rng.choice("+-")


def axioms(seed: int) -> list[Command]:
    rng = random.Random(seed)
    return [
        Command(f"verify {group} {tau}", "verify",
                ("wha", "verify", "--group", group, "--tau", tau, "--samples", SAMPLES,
                 "--tol", TOL, "--seed", str(rng.randrange(2**31))))
        for group, tau in (("4", "+"), ("2,2", "-"), ("5", "+"))
    ]


def realize(seed: int) -> list[Command]:
    rng = random.Random(seed)
    cmds = [
        Command(f"realize {group}", "weak-coideals",
                ("classify", "weak-coideals", "--group", group, "--realize",
                 "--tau", _tau(rng), "--tol", TOL))
        for group in ("2", "3")
    ]
    builds = (
        ("4", "2", ("--Z0", "all", "--Z1", "0")),
        ("4", "1", ("--Z0", "0", "--Z1", "all")),
        ("4", "2", ("--builder", "I_m_K")),
        ("2,2", "1,0", ("--Z0", "0,0;0,1")),
        ("2,2", "1,1", ("--builder", "I_Omega_K")),
    )
    cmds += [
        Command(f"build {group} K={K} {' '.join(spec)}", "coideal",
                ("coideal", "build", "--group", group, "--K", K, *spec,
                 "--tau", _tau(rng), "--tol", TOL))
        for group, K, spec in builds
    ]
    return cmds


def export(seed: int) -> list[Command]:
    del seed  # deterministic: export has no random input
    return [
        Command(f"export {group}", "export",
                ("wha", "export", "--group", group, "--tau", "+", "--tol", TOL))
        for group in ("4", "2,2", "5", "6")
    ]


def catalog(seed: int) -> list[Command]:
    del seed  # deterministic: classification has no random input
    cmds = [
        Command(f"classes {group}", "weak-coideals",
                ("classify", "weak-coideals", "--group", group, "--tol", TOL))
        for group in ("8", "2,4", "2,2,2")
    ]
    cmds += [
        Command(f"g-algebras {group} max-mult {mult}", "g-algebras",
                ("classify", "g-algebras", "--group", group, "--max-mult", mult))
        for group, mult in (("6", "2"), ("2,2,2", "1"), ("4", "3"))
    ]
    cmds.append(Command("describe 2,2,2,4", "describe", ("group", "describe", "--group", "2,2,2,4")))
    return cmds


WORKLOADS = {"axioms": axioms, "realize": realize, "catalog": catalog, "export": export}


# -- gate ----------------------------------------------------------------------


def _check_rows(payload: dict) -> list[str]:
    """Every named check passed within the report's tolerance."""
    tol = float(TOL)
    return [
        f"check {c['name']!r} failed (residual {c['residual']})"
        for c in payload["checks"]
        if not c["passed"] or c["residual"] > tol
    ]


def summarize(kind: str, payload, path: Path) -> dict:
    """The facts the gate pins for one command's output."""
    if kind == "verify":
        return {"check_names": sorted({c["name"] for c in payload["checks"]})}
    if kind == "coideal":
        return {
            "check_names": sorted({c["name"] for c in payload["checks"]}),
            "dim": payload["dim"],
            "x_dims": payload["x_dims"],
            "is_coideal": payload["is_coideal"],
            "indecomposable": payload["indecomposable"],
        }
    if kind == "weak-coideals":
        return {
            "total_classes": payload["total_classes"],
            "total_coideal_classes": payload["total_coideal_classes"],
            "per_subgroup": [[e["K"], e["n_classes"], e["n_coideal"]]
                             for e in payload["per_subgroup"]],
        }
    if kind == "g-algebras":
        return {
            "total_classes": payload["total_classes"],
            "per_subgroup": {json.dumps(e["K"]): {t: p["n_classes"] for t, p in e["types"].items()}
                             for e in payload["per_subgroup"]},
        }
    if kind == "describe":
        sizes = Counter((len(s["K"]), len(s["K_perp"]), s["self_orthogonal"])
                        for s in payload["subgroups"])
        return {"subgroups": [[*key, n] for key, n in sorted(sizes.items())]}
    if kind == "export":
        return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    raise ValueError(f"unknown command kind {kind!r}")


def gate(cmd: Command, rc, path: Path, pins: dict) -> list[str]:
    """Problems with one command's result; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    if not path.is_file():
        return ["no JSON report written"]
    try:
        return _gate_report(cmd, path, pins)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]


def _gate_report(cmd: Command, path: Path, pins: dict) -> list[str]:
    payload = None if cmd.kind == "export" else json.loads(path.read_text())
    problems = []
    if cmd.kind == "verify":
        if payload["passed"] is not True:
            problems.append("report not passed")
        problems += _check_rows(payload)
    elif cmd.kind == "coideal":
        for flag in ("verified", "dims_match_prediction"):
            if payload[flag] is not True:
                problems.append(f"{flag} is not true")
        problems += _check_rows(payload)
    elif cmd.kind == "weak-coideals":
        for entry in payload["per_subgroup"]:
            if not entry["burnside_ok"]:
                problems.append(f"Burnside count disagrees for K={entry['K']}")
            if "--realize" in cmd.argv and not all(o.get("verified") for o in entry["orbits"]):
                problems.append(f"an orbit of K={entry['K']} is not verified")
    elif cmd.kind == "g-algebras":
        for entry in payload["per_subgroup"]:
            for name, t in entry["types"].items():
                if t["burnside_count"] != t["n_classes"]:
                    problems.append(f"Burnside count disagrees for K={entry['K']} {name}")

    got, want = summarize(cmd.kind, payload, path), pins[cmd.name]
    for key, expected in want.items():
        if key == "check_names":
            missing = sorted(set(expected) - set(got[key]))
            if missing:
                problems.append(f"checks missing: {missing}")
        elif got[key] != expected:
            problems.append(f"{key}: got {got[key]!r}, pinned {expected!r}")
    return problems


def load_pins() -> dict:
    return json.loads(PINS.read_text())
