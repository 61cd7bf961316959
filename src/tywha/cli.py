"""Command-line front end.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage or input
errors.  Every report can be duplicated to JSON with --json; identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .algebra import ALGEBRA_ORDER_BOUND, Table, TYAlgebra
from .classify import (
    CLASSIFY_ORDER_BOUND, g_algebra_classes, realize_and_verify, weak_coideal_classes
)
from .coideals import (
    CoidealSpec, assess, build_from_spec, build_I_m_K, build_I_Omega_K, build_no_m, build_with_m
)
from .errors import InvariantError, SizeError, StructuralError, check_order
from .groups import (
    SUBGROUP_ENUM_BOUND,
    Bicharacter,
    FiniteAbelianGroup,
    Subgroup,
    enumerate_subgroups,
    orthogonal,
    quotient,
)
from .linalg import DEFAULT_TOL


def _parse_data(args, bound: int, what: str) -> tuple[FiniteAbelianGroup, Bicharacter]:
    """The group and bicharacter of ``args``.  The group's order is checked
    against the command's bound first: validating the bicharacter builds a
    |G| x |G| phase table."""
    group = FiniteAbelianGroup.from_spec(args.group)
    check_order(group.order, bound, what)
    return group, _parse_bichar(group, args.bichar)


def _parse_bichar(group: FiniteAbelianGroup, source: str) -> Bicharacter:
    if source == "standard":
        return Bicharacter.standard(group)
    try:
        data = json.loads(Path(source).read_text())
    except FileNotFoundError:
        raise InvariantError(f"bicharacter file not found: {source}") from None
    except OSError as exc:
        raise InvariantError(f"cannot read bicharacter file {source}: {exc.strerror}") from None
    except ValueError:
        raise InvariantError(f"bicharacter file {source} is not valid JSON") from None
    return Bicharacter.from_json(group, data)


def _parse_elements(group: FiniteAbelianGroup, text: str) -> list:
    if not text.strip():
        return []
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            coords = [int(x) for x in part.split(",")]
        except ValueError:
            raise InvariantError(f"malformed group element {part!r}: expected integers joined by ','") from None
        out.append(group.reduce(coords))
    return out


def _parse_cosets(quot, text: str) -> list[int]:
    """The numbers of the listed elements' cosets, each once, ascending."""
    if text.strip() == "all":
        return list(range(len(quot)))
    return sorted(set(map(quot.coset_of, _parse_elements(quot.group, text))))


def _tau_sign(flag: str) -> int:
    return 1 if flag == "+" else -1


# -- report writer ----------------------------------------------------------------
#
# A report's bytes are those the json module writes with indent=2 and
# sort_keys=True, plus "\n", a Table as the list of its rows.  Any indent sends
# json to its pure-Python encoder, so each piece is encoded compactly by the C
# encoder and laid out by array operations instead, and a table from its
# columns' encoded values.  Pieces and table chunks hold about _PIECE_ITEMS JSON
# values, so the memory a write takes does not grow with the report.

_PIECE_ITEMS = 1 << 12
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ": ")).encode
# byte classes: 1 opens a container, 2 closes one, 3 is a comma, 4 a quote
_CLASS = bytes(dict(zip(b'[{]},"', b"\1\1\2\2\3\4")).get(c, 0) for c in range(256))


def _size(x) -> int:
    """Estimated number of JSON values in x; a list counts its first item's
    estimate once per item, and a table more than a piece, so no piece holds one."""
    if isinstance(x, dict):
        return 1 + sum(map(_size, x.values()))
    if isinstance(x, Table):
        return _PIECE_ITEMS + 1
    if isinstance(x, (list, tuple)) and x:
        return 1 + len(x) * _size(x[0])
    return 1


def _indent(text: str, depth: int) -> np.ndarray:
    """The compact text of one value, laid out as indent=2 lays it out when the
    value sits at nesting depth ``depth``.

    Escape pairs are masked first (the replaces run left to right, like the
    escape grammar), so every remaining quote delimits a string.  A newline and
    two spaces per level go after each opening bracket and comma and before each
    closing bracket outside strings, except inside an empty [] or {}."""
    data = text.encode("ascii")
    masked = data.replace(b"\\\\", b"__").replace(b'\\"', b"__")
    cls = np.frombuffer(masked.translate(_CLASS), np.uint8)
    outside = ~np.logical_xor.accumulate(cls == 4)
    pos = np.flatnonzero(outside & (cls != 0) & (cls != 4)).astype(np.int32)
    kind = cls[pos]
    level = np.cumsum((kind == 1).astype(np.int16) - (kind == 2), dtype=np.int16) + np.int16(depth)
    width = 1 + 2 * level.astype(np.int32)
    empty = np.flatnonzero((kind[:-1] == 1) & (kind[1:] == 2) & (pos[1:] == pos[:-1] + 1))
    width[empty] = width[empty + 1] = 0
    slot = pos + (kind != 2)  # the insertion goes before this byte
    shift = np.zeros(len(data) + 1, np.int32)
    shift[slot] = width
    at = np.cumsum(shift[: len(data)], dtype=np.int32)
    at += np.arange(len(data), dtype=np.int32)
    out = np.full(len(data) + int(width.sum()), ord(" "), np.uint8)
    out[at] = np.frombuffer(data, np.uint8)
    out[(slot + np.cumsum(width, dtype=np.int32) - width)[width > 0]] = ord("\n")
    return out


def _emit_table(write, table: Table, depth: int) -> None:
    """Write a table at nesting depth ``depth`` as indent=2 lays out the list
    of its rows, in chunks of about _PIECE_ITEMS values, from the JSON text of
    each column's distinct values, encoded in one call per column."""
    tokens = []
    for column in table.columns:  # floats keyed by their bits: by value, -0.0 is 0.0
        distinct, index = np.unique(column.view(np.int64) if column.dtype.kind == "f" else column, return_inverse=True)
        tokens.append((np.array(_ENCODE(distinct.view(column.dtype).tolist())[1:-1].split(","), dtype=object), index))
    rows, step = len(tokens[0][1]), max(1, _PIECE_ITEMS // (len(tokens) + 1))
    row_open, row_close = f"\n{'  ' * (depth + 1)}[\n{'  ' * (depth + 2)}", f"\n{'  ' * (depth + 1)}]"
    inner, between = f",\n{'  ' * (depth + 2)}", f"{row_close},{row_open}"
    write(b"[")
    for lo in range(0, rows, step):
        cells = zip(*(text[index[lo : lo + step]].tolist() for text, index in tokens))
        write(f"{',' if lo else ''}{row_open}{between.join(map(inner.join, cells))}{row_close}".encode())
    write(f"\n{'  ' * depth}]".encode() if rows else b"]")


def _emit(write, x, depth: int) -> None:
    """Write x at nesting depth ``depth``: a table by its rows, a scalar or an
    empty container in one piece, else member by member: runs of small members
    encoded together and spliced in between x's brackets, large members and the
    members of a run that holds a table written the same way one level down."""
    if isinstance(x, Table):
        _emit_table(write, x, depth)
        return
    if not (x and isinstance(x, (dict, list, tuple))):
        write(_indent(_ENCODE(x), depth))
        return
    is_dict = isinstance(x, dict)
    members = sorted(x.items(), key=lambda kv: kv[0]) if is_dict else x
    if is_dict or isinstance(x[0], dict):  # records: their sizes vary, so estimate each
        sizes = np.fromiter(map(_size, (v for _, v in members) if is_dict else members), np.int64, len(x))
    else:
        sizes = np.full(len(x), _size(x[0]))
    ends = np.cumsum(sizes)
    close = f"\n{'  ' * depth}{'}' if is_dict else ']'}".encode()
    write(b"{" if is_dict else b"[")
    start = 0
    while start < len(members):
        if start:
            write(b",")
        if sizes[start] <= _PIECE_ITEMS:
            # the run stops before the member that takes it past a piece, so before any large one
            stop = int(np.searchsorted(ends, ends[start] - sizes[start] + _PIECE_ITEMS, "right"))
            run = members[start:stop]
            try:
                piece = _indent(_ENCODE(dict(run) if is_dict else run), depth)
            except TypeError:  # a list's size estimate missed a table: write the run's members alone
                sizes[start:stop] = _PIECE_ITEMS + 1
            else:
                write(piece[1 : len(piece) - len(close)])
                start = stop
                continue
        # the key as json writes it, cut from '{"key": 0}'
        key = _ENCODE({members[start][0]: 0})[1:-4] + ": " if is_dict else ""
        write(f"\n{'  ' * (depth + 1)}{key}".encode())
        _emit(write, members[start][1] if is_dict else members[start], depth + 1)
        start += 1
    write(close)


def _write_json(path: str | None, payload: dict) -> None:
    if not path:  # no --json given
        return
    try:
        with open(path, "wb") as fh:  # truncates in place: inode, mode and links stay
            _emit(fh.write, payload, 0)
            fh.write(b"\n")
    except OSError as exc:
        raise InvariantError(f"cannot write report {path}: {exc.strerror}") from None


def _algebra_data(args) -> tuple[FiniteAbelianGroup, Bicharacter]:
    """The group and bicharacter of an algebra command, with --tol checked."""
    group, chi = _parse_data(args, ALGEBRA_ORDER_BOUND, "algebra")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise InvariantError(f"tolerance must be finite and positive, got {args.tol}")
    return group, chi


def _algebra(args) -> TYAlgebra:
    return TYAlgebra(*_algebra_data(args), _tau_sign(args.tau), eps=args.tol)


# -- commands -------------------------------------------------------------------


def cmd_group_describe(args) -> int:
    group, chi = _parse_data(args, SUBGROUP_ENUM_BOUND, "subgroup enumeration")
    subs = enumerate_subgroups(group)
    lines = [f"group {group}  order {group.order}  factors {','.join(map(str, group.factors))}"]
    lines.append(f"{'K':<28}{'|K|':<6}{'K_perp':<28}{'note'}")
    payload = []
    for K in subs:
        perp = orthogonal(chi, K)
        marker = "K = K_perp" if perp == K else ""
        lines.append(f"{str(K):<28}{K.order:<6}{str(perp):<28}{marker}")
        payload.append(
            {
                "K": [list(e) for e in K.sorted_elements],
                "K_perp": [list(e) for e in perp.sorted_elements],
                "self_orthogonal": perp == K,
            }
        )
    print("\n".join(lines))
    _write_json(
        args.json,
        {
            "schema": "tywha-group/1",
            "group": list(group.factors),
            "bicharacter": chi.to_json(),
            "subgroups": payload,
        },
    )
    return 0


def cmd_wha_verify(args) -> int:
    alg = _algebra(args)
    report = alg.verify_axioms()
    print(report.summary())
    datum = {"bicharacter": alg.bichar.to_json(), "tau_sign": alg.tau_sign}
    _write_json(args.json, {"schema": "tywha-axioms/3", **datum, **report.to_dict()})
    return 0 if report.passed else 1


def cmd_wha_export(args) -> int:
    alg = _algebra(args)
    if not args.json:
        raise InvariantError("wha export needs --json PATH")
    _write_json(args.json, alg.export_data())
    print(f"wrote ty-wha/1 structure constants ({alg.dim} basis units) to {args.json}")
    return 0


def cmd_coideal_build(args) -> int:
    alg = _algebra(args)
    group = alg.group
    K = Subgroup.generated(group, _parse_elements(group, args.K))
    q0, q1 = quotient(group, K), quotient(group, orthogonal(alg.bichar, K))
    z0, z1 = _parse_cosets(q0, args.Z0), _parse_cosets(q1, args.Z1)

    builders = {"no_m": build_no_m, "with_m": build_with_m, "I_m_K": build_I_m_K, "I_Omega_K": build_I_Omega_K}
    if args.builder in ("I_m_K", "I_Omega_K"):
        if z0 or z1:
            raise InvariantError(f"builder {args.builder} takes no --Z0/--Z1")
        z0 = [0]  # the lines of K carry the data (K, {K}, {})
    wc = builders.get(args.builder, build_from_spec)(alg, CoidealSpec(q0, q1, z0, z1))

    ((report, flag, indec, dims_ok),) = assess([wc])
    payload = {
        "schema": "tywha-coideal/3",
        **wc.describe(),
        "tau_sign": alg.tau_sign,
        "verified": report.passed,
        "indecomposable": indec,
        "dims_match_prediction": dims_ok,
        "checks": report.to_dict()["checks"],
    }
    print(report.summary())
    print(
        f"dim A = {wc.dim}; is_coideal = {flag}; indecomposable = {indec}; "
        f"fiber dims {'match' if dims_ok else 'DIFFER from'} prediction"
    )
    _write_json(args.json, payload)
    return 0 if (report.passed and dims_ok) else 1


def cmd_classify_weak(args) -> int:
    group, chi = _algebra_data(args)
    if args.realize:
        alg = TYAlgebra(group, chi, _tau_sign(args.tau), eps=args.tol)
    fields, classes = weak_coideal_classes(group, chi)
    payload, realized = {"schema": "tywha-classify/1", **fields}, []
    if args.realize:
        realized = realize_and_verify(alg, classes)
        payload["distinct_subalgebras"] = len({key for _, key, _ in realized})
    results = iter(realized)
    total = payload["total_classes"]
    print(f"weak-coideal classes of {group}: {total} total, {payload['total_coideal_classes']} coideal-containing")
    for entry in payload["per_subgroup"]:
        K = "{" + ",".join(str(tuple(e)) for e in entry["K"]) + "}"  # as Subgroup prints it
        print(
            f"  K={K} ({entry['action']}): {entry['n_classes']} classes, "
            f"{entry['n_coideal']} coideal, Burnside check {entry['burnside_count']}"
        )
        if args.realize:
            for orbit, (label, _, failure) in zip(entry["orbits"], results):
                orbit["realized"], orbit["verified"] = (None, False) if failure else (label, True)
                if failure:
                    print(f"    realization FAILED: {failure}")
            verified = sum(o["verified"] for o in entry["orbits"])
            count = verified if verified == entry["n_classes"] else f"{verified} of {entry['n_classes']}"
            print(f"    realized and verified {count} representatives")
    if args.realize:
        print(f"built {payload['distinct_subalgebras']} distinct subalgebras for {total} classes")
    _write_json(args.json, payload)
    return 1 if any(failure for *_, failure in realized) else 0


def cmd_classify_algebras(args) -> int:
    group, chi = _parse_data(args, CLASSIFY_ORDER_BOUND, "classification")
    payload = {"schema": "tywha-classify/1", **g_algebra_classes(group, chi, max_mult=args.max_mult)}
    print(f"algebra classes of {group} with multiplicities <= {args.max_mult}: {payload['total_classes']} total")
    for entry in payload["per_subgroup"]:
        kinds = {t: p["n_classes"] for t, p in entry["types"].items()}
        print(f"  K={entry['K']}: {kinds}")
    _write_json(args.json, payload)
    return 0


@functools.cache  # the tree is the same for every call; main parses with it once per command
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tywha",
        description="Construct, verify, and classify the weak Hopf C*-algebra "
        "of Tambara-Yamagami data (G, chi, tau).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tau=True):
        p.add_argument("--group", required=True, help='cyclic factors, e.g. "2,4"')
        p.add_argument("--bichar", default="standard", help='"standard" or a JSON file')
        if tau:
            p.add_argument("--tau", choices=["+", "-"], default="+", help="sign of tau")
            p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="verdict tolerance")
        p.add_argument("--json", default=None, help="duplicate the report to this JSON file")

    group_cmd = sub.add_parser("group", help="group and bicharacter inspection")
    group_sub = group_cmd.add_subparsers(dest="subcommand", required=True)
    p = group_sub.add_parser("describe", help="subgroup lattice with annihilators")
    common(p, tau=False)
    p.set_defaults(func=cmd_group_describe)

    wha_cmd = sub.add_parser("wha", help="construct and verify the algebra")
    wha_sub = wha_cmd.add_subparsers(dest="subcommand", required=True)
    p = wha_sub.add_parser("verify", help="run the full axiom suite")
    common(p)
    ignored = "accepted and ignored: every check is exhaustive"
    p.add_argument("--seed", type=int, help=ignored)
    p.add_argument("--samples", type=int, help=ignored)
    p.set_defaults(func=cmd_wha_verify)
    p = wha_sub.add_parser("export", help="emit ty-wha/1 structure constants")
    common(p)
    p.set_defaults(func=cmd_wha_export)

    coideal_cmd = sub.add_parser("coideal", help="build and verify coideal subalgebras")
    coideal_sub = coideal_cmd.add_subparsers(dest="subcommand", required=True)
    p = coideal_sub.add_parser("build", help="assemble a family and verify it")
    common(p)
    p.add_argument("--K", required=True, help='subgroup generators, e.g. "2" or "1,0;0,1"')
    p.add_argument("--Z0", default="", help='coset reps of K ("all" for the full quotient)')
    p.add_argument("--Z1", default="", help="coset reps of the annihilator of K")
    p.add_argument(
        "--builder",
        choices=["no_m", "with_m", "I_m_K", "I_Omega_K"],
        default=None,
        help="force a named builder instead of inferring one",
    )
    p.set_defaults(func=cmd_coideal_build)

    classify_cmd = sub.add_parser("classify", help="enumerate isomorphism classes")
    classify_sub = classify_cmd.add_subparsers(dest="subcommand", required=True)
    p = classify_sub.add_parser("weak-coideals", help="orbit catalog with coideal flags")
    common(p)
    p.add_argument("--realize", action="store_true", help="build and verify every class")
    p.set_defaults(func=cmd_classify_weak)
    p = classify_sub.add_parser("g-algebras", help="bounded multiplicity-vector catalog")
    common(p, tau=False)
    p.add_argument("--max-mult", type=int, default=2, dest="max_mult")
    p.set_defaults(func=cmd_classify_algebras)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except (InvariantError, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StructuralError as exc:
        print(f"structural error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # stdout's reader has gone, as under `| head`
        # send what is still buffered to devnull, so the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
