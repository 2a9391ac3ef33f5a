"""Batch command-line surface for the exact vertex-algebra toolkit.

Every subcommand loads its inputs, runs one verification or table
build, writes a machine-readable report to stdout and a one-line human
summary to stderr, and exits 0 when all requested checks pass, 1 when
a check fails, 2 on malformed input.  JSON output is byte-identical
for identical arguments and seed.
"""

import argparse
import gc
import json
import re
import sys
from fractions import Fraction
from functools import cache

from .constructions import (boson_sugawara, central_charges, cocycle_basis,
                            fermion_vosa, g_fermion_system, super_construction,
                            susy_report, verify_odd_cocycle, vertex_module,
                            weight_report)
from .fields import (NotLocalError, adjoint_sweep, bracket_check,
                     check_vosa_axioms, field_from_tree, locality_order,
                     ope_singular_part, state_field)
from .liealg import CATALOG, LieAlgebra, sl2
from .modules import (BasisState, Mode, StateVector, VermaModule, grade_str,
                      half2, module_from_descriptor)
from .scalars import Scalar


# -- input parsing ----------------------------------------------------------

def _depth2(args) -> int:
    d2 = half2(args.depth, "depth")
    if d2 < 1:
        raise ValueError("depth must be at least 1/2")
    return d2


def _fraction(value: str, name: str) -> Fraction:
    """A rational number given as a fraction string; a value that is not
    one, or has a zero denominator, raises naming the option."""
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be a fraction, got {value!r}") \
            from None


def _grade2(args) -> int:
    n2 = half2(args.level, "level")
    if n2 < 0:
        raise ValueError(f"level must be nonnegative, got {args.level!r}")
    return n2


def _load_json(text: str):
    """Inline JSON if the argument looks like a literal, else a file path."""
    t = text.strip()
    if t.startswith("{") or t.startswith("["):
        return json.loads(t)
    with open(text) as fh:
        return json.load(fh)


def _algebra(text: str) -> LieAlgebra:
    if text == "sl2":
        return sl2()
    return LieAlgebra.from_json(_load_json(text))


def _module(text: str):
    return module_from_descriptor(_load_json(text))


def _field(text: str):
    return field_from_tree(_load_json(text))


# -- output -----------------------------------------------------------------

def _json_ready(obj):
    if isinstance(obj, Scalar):
        return obj.to_json()
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, BasisState):
        return _state_json(obj)
    if isinstance(obj, StateVector):
        return [{"state": _state_json(s), "coeff": c.to_json()}
                for s, c in obj.sorted_items()]
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _state_json(state: BasisState) -> dict:
    return {"word": [{"kind": m.kind, "color": m.color,
                      "index": str(Fraction(m.n2, 2))} for m in state.word],
            "floor": state.floor}


_LEAF = (Scalar, Fraction, BasisState, StateVector, Mode)


def _is_block(v) -> bool:
    """A mapping, or a list that holds a container and is not a matrix:
    laid out over lines of its own.  A StateVector is a dict but a leaf,
    printed on one line."""
    if isinstance(v, _LEAF):
        return False
    return isinstance(v, dict) or isinstance(v, (list, tuple)) and any(
        isinstance(x, (dict, list, tuple)) and not isinstance(x, _LEAF)
        for x in v) and not _is_matrix(v)


def _text_lines(obj, indent: int, out: list):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if _is_block(v) or _is_matrix(v):
                out.append(f"{pad}{k}:")
                _text_lines(v, indent + 1, out)
            else:
                out.append(f"{pad}{k}: {_text_value(v)}")
    elif isinstance(obj, (list, tuple)):
        if _is_matrix(obj):
            cells = [[str(x) for x in row] for row in obj]
            width = max(len(c) for row in cells for c in row)
            for row in cells:
                out.append(pad + "[ " + "  ".join(c.rjust(width) for c in row)
                           + " ]")
            return
        for v in obj:
            if _is_block(v):
                out.append(f"{pad}-")
                _text_lines(v, indent + 1, out)
            else:
                out.append(f"{pad}- {_text_value(v)}")


def _is_matrix(obj) -> bool:
    return isinstance(obj, (list, tuple)) and bool(obj) and all(
        isinstance(row, (list, tuple)) and row
        and all(isinstance(x, Scalar) for x in row) for row in obj)


def _text_value(v) -> str:
    if isinstance(v, _LEAF):
        return str(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_text_value(x) for x in v) + "]"
    return str(v)


def _emit(args, report: dict, summary: str, code: int) -> int:
    if args.format == "json":
        print(json.dumps(_json_ready(report), sort_keys=True, indent=2))
    else:
        lines = []
        _text_lines(report, 0, lines)
        print("\n".join(lines))
    print(summary, file=sys.stderr)
    return code


# -- subcommands ------------------------------------------------------------

def cmd_validate(args) -> int:
    lie = _algebra(args.algebra)
    report = lie.validate()
    ok = report["valid"]
    return _emit(args, report,
                 f"algebra {lie.name}: {'valid' if ok else 'INVALID'}",
                 0 if ok else 1)


def cmd_catalog(args) -> int:
    report = {"rows": CATALOG, "count": len(CATALOG)}
    return _emit(args, report, f"{len(CATALOG)} simple families", 0)


def cmd_gram(args) -> int:
    module = _module(args.module)
    n2 = _grade2(args)
    basis, matrix = module.gram(n2)
    report = {"level": Fraction(n2, 2), "dim": len(basis),
              "basis": [str(b) for b in basis], "matrix": matrix}
    return _emit(args, report,
                 f"level {grade_str(n2)}: {len(basis)} states", 0)


def cmd_nullvec(args) -> int:
    module = _module(args.module)
    n2 = _grade2(args)
    vectors = module.kernel_vectors(n2)
    dim = len(module.level_basis(n2))
    report = {"level": Fraction(n2, 2), "dim": dim,
              "null_count": len(vectors), "vectors": vectors}
    return _emit(args, report,
                 f"level {grade_str(n2)}: {len(vectors)} of {dim} states null",
                 0)


def cmd_ghosts(args) -> int:
    c, h = _fraction(args.c, "c"), _fraction(args.h, "h")
    module = VermaModule(args.sector, Scalar.of(c), Scalar.of(h))
    report = module.ghost_report(_depth2(args))
    report = {"sector": args.sector, "c": c, "h": h, **report}
    ghost = report["has_ghost"]
    where = (f"first negative at grade {report['first_negative_grade']}"
             if ghost else "no negative-norm directions")
    return _emit(args, report, where, 1 if ghost else 0)


def cmd_ope(args) -> int:
    module = _module(args.module)
    A = _field(args.field_a)
    B = _field(args.field_b)
    depth2 = _depth2(args)
    try:
        loc = locality_order(A, B, module, depth2=depth2, window=args.window)
    except NotLocalError as exc:
        report = {"local": False, "error": str(exc)}
        return _emit(args, report, f"not local: {exc}", 1)
    singular = ope_singular_part(A, B, module, loc["order"])
    report = {"local": True, "order": loc["order"],
              "bracket": loc["bracket"],
              "parity_consistent": loc["parity_consistent"],
              "singular": {str(j): vec for j, vec in singular.items()}}
    ok = loc["parity_consistent"]
    return _emit(args, report,
                 f"order {loc['order']} ({loc['bracket']})"
                 + ("" if ok else ", PARITY MISMATCH"),
                 0 if ok else 1)


def cmd_brackets(args) -> int:
    module = _module(args.module)
    A = _field(args.field_a)
    B = _field(args.field_b)
    report = bracket_check(A, B, module, _depth2(args), args.window)
    ok = report["valid"]
    return _emit(args, report,
                 f"{report['checked']} bracket values "
                 + ("all match the expansion" if ok
                    else f"with {len(report['failures'])} MISMATCHES"),
                 0 if ok else 1)


def cmd_sugawara(args) -> int:
    lie = _algebra(args.algebra)
    cons = boson_sugawara(lie, args.level)
    depth2 = _depth2(args)
    measured = cons.central_charge
    closed = central_charges(lie, args.level)["c_boson"]
    vir = check_vosa_axioms(cons.module, cons.fields, cons.omega,
                            depth2=depth2, window=args.window)
    match = measured == closed
    report = {"algebra": lie.name, "level": args.level,
              "central_charge": measured, "closed_form": closed,
              "match": match, "axioms": vir["checks"],
              "valid": match and vir["valid"]}
    ok = report["valid"]
    return _emit(args, report,
                 f"c = {measured}" + ("" if ok else " with FAILURES"),
                 0 if ok else 1)


def cmd_susy_check(args) -> int:
    lie = _algebra(args.algebra)
    cons = super_construction(lie, args.level)
    depth2 = _depth2(args)
    rep = susy_report(cons, depth2=depth2, window=args.window)
    cc = central_charges(lie, args.level, 0)
    match = rep["central_charge"] == cc["c_total"]
    checks = [{"relation": name, "depth": Fraction(depth2, 2),
               "status": "pass" if ok else "fail"}
              for name, ok in rep["checks"].items()]
    report = {"c_fermion": cc["c_fermion"], "c_boson": cc["c_boson"],
              "c_total": cc["c_total"], "h": cc["h"],
              "measured": rep["central_charge"], "match": match,
              "degree": rep["degree"], "checks": checks}
    ok = rep["valid"] and match
    failed = [c["relation"] for c in checks if c["status"] == "fail"]
    return _emit(args, report,
                 f"c_total = {cc['c_total']}, "
                 + ("all relations pass" if ok
                    else f"FAILED: {', '.join(failed) or 'charge mismatch'}"),
                 0 if ok else 1)


def cmd_module(args) -> int:
    lie = _algebra(args.algebra)
    spin2 = half2(args.spin, "spin")
    vm = vertex_module(lie, args.level, spin2)
    depth2 = _depth2(args)
    wr = weight_report(vm, depth2=depth2)
    cc = central_charges(lie, args.level, spin2)
    report = {"algebra": lie.name, "level": args.level,
              "spin": Fraction(spin2, 2), "h": cc["h"],
              "c_total": cc["c_total"], "levels": wr["levels"],
              "valid": wr["valid"]}
    ok = wr["valid"]
    return _emit(args, report,
                 f"h = {cc['h']}"
                 + (", grading operator verified" if ok else ", FAILURES"),
                 0 if ok else 1)


def cmd_cocycle(args) -> int:
    smax2 = half2(args.smax, "smax")
    charges = [_fraction(c, "c") for c in (args.c or ["0", "1/2", "5/2"])]
    # the odd sweep first: an smax that leaves it empty exits before any work
    odd = [{"c": c, "valid": verify_odd_cocycle(c, smax2)} for c in charges]
    even = cocycle_basis(args.nmax)
    report = {"even": {"dimension": even["dimension"],
                       "spans": [list(p) for p in even["spans"]],
                       "nmax": args.nmax, "valid": even["valid"]},
              "odd": {"smax": Fraction(smax2, 2), "cases": odd}}
    ok = even["valid"] and all(case["valid"] for case in odd)
    return _emit(args, report,
                 f"even space dimension {even['dimension']}, "
                 f"{len(odd)} odd pairings "
                 + ("verified" if ok else "with FAILURES"),
                 0 if ok else 1)


# the options of `axioms` that each construction reads; given to any
# other, an option is refused (an absent one is not in the namespace)
_READS = {"fermion": ("colors",), "g-fermion": ("algebra",),
          "sugawara": ("algebra", "level"), "super": ("algebra", "level")}


def _build_construction(args):
    name = args.construction
    for option in ("colors", "algebra", "level"):
        if hasattr(args, option) and option not in _READS[name]:
            raise ValueError(f"--{option} is not read by the {name} "
                             "construction")
    if name == "fermion":
        return fermion_vosa(getattr(args, "colors", 1))
    lie = _algebra(getattr(args, "algebra", "sl2"))
    if name == "g-fermion":
        return g_fermion_system(lie)
    level = getattr(args, "level", 1)
    if name == "sugawara":
        return boson_sugawara(lie, level)
    return super_construction(lie, level)


def cmd_axioms(args) -> int:
    cons = _build_construction(args)
    depth2 = _depth2(args)
    rep = check_vosa_axioms(cons.module, cons.fields, cons.omega,
                            depth2=depth2, window=args.window)
    named = sorted(cons.fields.items())
    named.append(("L", state_field(cons.module, cons.omega)))
    adjoint = adjoint_sweep(cons.module, named, depth2, args.seed)
    ok = rep["valid"] and adjoint["valid"]
    report = {"construction": cons.name, "checks": rep["checks"],
              "adjoint": adjoint, "valid": ok}
    failed = [k for k, v in rep["checks"].items() if not v]
    if not adjoint["valid"]:
        failed.append("adjoint")
    return _emit(args, report,
                 f"{cons.name}: "
                 + ("all axioms hold" if ok else f"FAILED: {', '.join(failed)}"),
                 0 if ok else 1)


# -- argument wiring --------------------------------------------------------

@cache   # built once per process; parsing leaves the parser unchanged
def _parser() -> argparse.ArgumentParser:
    # parents nest, one option each: common < depth < window
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json",
                        help="report encoding on stdout")
    depth = argparse.ArgumentParser(add_help=False, parents=[common])
    depth.add_argument("--depth", default="2",
                       help="truncation depth, a half-integer (default 2)")
    window = argparse.ArgumentParser(add_help=False, parents=[depth])
    window.add_argument("--window", type=int, default=2,
                        help="mode-index window for sweeps")

    parser = argparse.ArgumentParser(
        prog="nsvertex",
        description="Exact verification toolkit for vertex operator "
                    "superalgebras built from fermions and currents.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check a structure-constant table")
    p.add_argument("--algebra", required=True,
                   help="'sl2', inline JSON, or a JSON file path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("catalog", parents=[common],
                       help="table of simple families with dim and g")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("gram", parents=[common],
                       help="Gram matrix of one graded level")
    p.add_argument("--module", required=True,
                   help="module descriptor (inline JSON or file path)")
    p.add_argument("--level", required=True, help="half-integer grade")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("nullvec", parents=[common],
                       help="kernel of the level form")
    p.add_argument("--module", required=True)
    p.add_argument("--level", required=True, help="half-integer grade")
    p.set_defaults(func=cmd_nullvec)

    p = sub.add_parser("ghosts", parents=[depth],
                       help="norm inertia per level of a Verma module")
    p.add_argument("--sector", choices=("ns", "virasoro"), default="ns")
    p.add_argument("--c", required=True, help="central charge (fraction)")
    p.add_argument("--h", required=True, help="floor weight (fraction)")
    p.set_defaults(func=cmd_ghosts)

    p = sub.add_parser("ope", parents=[window],
                       help="locality order and singular products")
    p.add_argument("--module", required=True)
    p.add_argument("--field-a", required=True,
                   help="field tree (inline JSON or file path)")
    p.add_argument("--field-b", required=True)
    p.set_defaults(func=cmd_ope)

    p = sub.add_parser("brackets", parents=[window],
                       help="mode brackets against the product expansion")
    p.add_argument("--module", required=True)
    p.add_argument("--field-a", required=True)
    p.add_argument("--field-b", required=True)
    p.set_defaults(func=cmd_brackets)

    p = sub.add_parser("sugawara", parents=[window],
                       help="current-bilinear conformal state checks")
    p.add_argument("--algebra", required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_sugawara)

    p = sub.add_parser("susy-check", parents=[window],
                       help="superconformal relations of the combined system")
    p.add_argument("--algebra", required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_susy_check)

    p = sub.add_parser("module", parents=[depth],
                       help="weights of a spin-floor vertex module")
    p.add_argument("--algebra", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--spin", default="0", help="half-integer floor spin")
    p.set_defaults(func=cmd_module)

    p = sub.add_parser("cocycle", parents=[common],
                       help="central-term space and odd-sector pairing")
    p.add_argument("--nmax", type=int, default=12,
                   help="largest even index solved")
    p.add_argument("--smax", default="11/2",
                   help="largest odd index paired (half-integer)")
    p.add_argument("--c", action="append",
                   help="central charge to pair (repeatable fraction)")
    p.set_defaults(func=cmd_cocycle)

    p = sub.add_parser("axioms", parents=[window],
                       help="full axiom report plus a seeded adjoint sweep")
    p.add_argument("--construction", required=True,
                   choices=("fermion", "g-fermion", "sugawara", "super"))
    p.add_argument("--colors", type=int, default=argparse.SUPPRESS,
                   help="fermion colors (fermion only; default 1)")
    p.add_argument("--algebra", default=argparse.SUPPRESS,
                   help="algebra (g-fermion, sugawara and super; "
                        "default sl2)")
    p.add_argument("--level", type=int, default=argparse.SUPPRESS,
                   help="current level (sugawara and super; default 1)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the adjoint sweep")
    p.set_defaults(func=cmd_axioms)

    # argparse's own pattern takes -1 and -0.5 as values but -1/4 as an option
    negative = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    for p in sub.choices.values():
        p._negative_number_matcher = negative
        p.set_defaults(subparser=p)
    return parser


def main(argv=None) -> int:
    # A call frees the cycles it made (a module's field memo holds fields
    # whose caches are keyed by the module) before it returns.  What the
    # caller holds is frozen first, so the collection walks only the
    # call's objects and leaves the caller's garbage to its collector; a
    # caller that froze objects itself keeps them frozen.
    freeze = not gc.get_freeze_count()
    if freeze:
        gc.freeze()
    try:
        return _run(argv)
    finally:
        gc.collect()
        if freeze:
            gc.unfreeze()


def _run(argv) -> int:
    args, extra = _parser().parse_known_args(argv)
    if extra:
        # refused by the chosen subcommand, whose usage lists what it takes
        args.subparser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        # a negative window would empty every sweep and pass
        if getattr(args, "window", 0) < 0:
            raise ValueError("--window must be nonnegative")
        return args.func(args)
    except (ValueError, KeyError, TypeError, ZeroDivisionError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
