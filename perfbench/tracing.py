"""Span tracing of tywha's public functions, installed from outside the package.

Each wrapped call records one span (name, start, end, parent) in flat arrays,
so the 10^4-10^5 calls of ``multiply`` and ``unit_product``
in a pass cost a few dozen bytes each. Wrappers return the wrapped value
unchanged. ``summarize`` turns the spans into per-function calls, self time
(duration minus the time covered by child spans) and, for the functions the
CLI calls directly, total time.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (module, attribute path, span name, counter): the counter maps the call's
# arguments and result to counts added under extra metric names.
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("algebra", "TYAlgebra.verify_axioms", "algebra.verify_axioms", None),
    ("algebra", "TYAlgebra.center", "algebra.center", None),
    ("algebra", "TYAlgebra.haar", "algebra.haar", None),
    ("algebra", "TYAlgebra.counital_subalgebras", "algebra.counital_subalgebras", None),
    ("algebra", "TYAlgebra.multiply", "algebra.multiply", None),
    ("algebra", "TYAlgebra.tensor_multiply", "algebra.tensor_multiply", None),
    ("algebra", "TYAlgebra.coproduct", "algebra.coproduct", None),
    ("algebra", "TYAlgebra.unit_product", "algebra.unit_product", None),
    ("algebra", "TYAlgebra.export_data", "algebra.export_data", None),
    ("linalg", "nullspace", "linalg.nullspace",
     lambda args, out: {"linalg.nullspace.elems": args[0].shape[0] * args[0].shape[1]}),
    ("linalg", "Subspace.__init__", "linalg.Subspace.__init__", None),
    ("linalg", "Subspace.intersect", "linalg.Subspace.intersect", None),
    ("linalg", "Subspace.contains_batch", "linalg.Subspace.contains_batch", None),
    ("linalg", "Subspace.residual", "linalg.Subspace.residual", None),
    ("linalg", "tensor_contains", "linalg.tensor_contains", None),
    ("coideals", "build_no_m", "coideals.build", None),
    ("coideals", "build_with_m", "coideals.build", None),
    ("coideals", "build_I_m_K", "coideals.build", None),
    ("coideals", "build_I_Omega_K", "coideals.build", None),
    ("coideals", "verify_weak_coideal", "coideals.verify_weak_coideal", None),
    ("coideals", "fixed_point_algebra", "coideals.fixed_point_algebra", None),
    ("coideals", "center", "coideals.center", None),
    ("coideals", "is_indecomposable", "coideals.is_indecomposable", None),
    ("classify", "orbit_partition", "classify.orbit_partition",
     lambda args, out: {"classify.points": len(args[0]), "classify.orbits": len(out)}),
    ("classify", "burnside_check", "classify.burnside_check", None),
    ("classify", "weak_coideal_classes", "classify.weak_coideal_classes", None),
    ("classify", "g_algebra_classes", "classify.g_algebra_classes", None),
    ("classify", "realize_and_verify", "classify.realize_and_verify", None),
    ("groups", "enumerate_subgroups", "groups.enumerate_subgroups", None),
    ("groups", "orthogonal", "groups.orthogonal", None),
    ("groups", "quotient", "groups.quotient", None),
    ("groups", "QuotientGroup.coset_of", "groups.QuotientGroup.coset_of", None),
    ("groups", "Bicharacter.phase", "groups.Bicharacter.phase", None),
]

SPAN_NAMES = list(dict.fromkeys(name for _, _, name, _ in TARGETS))
# A span's counts are not added when its parent is this span: burnside_check
# partitions the points it was given again, and counting that partition too
# would double the points and orbits the engine classifies.
RECOUNT_PARENT = {"classify.orbit_partition": "classify.burnside_check"}
COUNTS = ["linalg.nullspace.elems", "classify.points", "classify.orbits"]
# Functions cli.py calls directly: their total_s is the time of the spans
# whose parent is a cli.main span, plus cli.main itself.
TOP_LEVEL = [
    "cli.main", "algebra.verify_axioms", "algebra.export_data", "coideals.build",
    "coideals.verify_weak_coideal", "coideals.is_indecomposable",
    "classify.weak_coideal_classes", "classify.g_algebra_classes",
    "classify.realize_and_verify", "groups.enumerate_subgroups", "groups.orthogonal",
    "groups.quotient",
]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in order."""
    names = [f"{n}.{k}" for n in SPAN_NAMES for k in ("calls", "self_s")]
    return names + COUNTS + [f"{n}.total_s" for n in TOP_LEVEL]


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn, counter=None):
        nid = SPAN_NAMES.index(name)
        recount = SPAN_NAMES.index(RECOUNT_PARENT[name]) if name in RECOUNT_PARENT else None
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx, parent = len(names), stack[-1]
            names.append(nid)
            parents.append(parent)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None and not (parent >= 0 and names[parent] == recount):
                counts.update(counter(args, out))
            return out

        return traced

    def install(self) -> None:
        """Wrap every target: methods on their class, functions in every
        tywha module namespace that bound them (``from .linalg import ...``)."""
        modules = [m for k, m in sys.modules.items() if k == "tywha" or k.startswith("tywha.")]
        for mod_name, path, name, counter in TARGETS:
            owner = sys.modules[f"tywha.{mod_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original, counter)
            if cls_path:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, span_names=np.array(SPAN_NAMES), **self.arrays())


def summarize(spans: dict[str, np.ndarray], counts: dict[str, int],
              passes: int = 1) -> dict[str, float]:
    """Per-layer metrics, per pass, from the spans and counts of ``passes``
    identical passes."""
    name, parent = spans["name"], spans["parent"]
    dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64) * 1e-9
    n = len(SPAN_NAMES)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = np.bincount(name, weights=dur - child, minlength=n)
    calls = np.bincount(name, minlength=n)
    main_id = SPAN_NAMES.index("cli.main")
    under_main = has_parent & (name[np.maximum(parent, 0)] == main_id)
    top = np.bincount(name[under_main], weights=dur[under_main], minlength=n)
    top[main_id] = dur[name == main_id].sum()

    def per_pass(count) -> int:
        if count % passes:
            raise ValueError(f"{count} calls do not split evenly over {passes} passes")
        return int(count) // passes

    out: dict[str, float] = {}
    for i, span in enumerate(SPAN_NAMES):
        out[f"{span}.calls"] = per_pass(calls[i])
        out[f"{span}.self_s"] = float(self_s[i]) / passes
    for key in COUNTS:
        out[key] = per_pass(counts.get(key, 0))
    for span in TOP_LEVEL:
        out[f"{span}.total_s"] = float(top[SPAN_NAMES.index(span)]) / passes
    return out
