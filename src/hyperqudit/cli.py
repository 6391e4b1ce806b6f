"""Command-line surface: build, verify, reduce, classify, convert, matrices.

Exit codes: 0 on success, 1 on input/validation errors, 2 when a
verification suite fails.  With --json, errors go to stderr as a JSON
object and results to stdout as JSON documents.  Output is deterministic
byte-for-byte for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import (
    OrdinalMorphism,
    build_state,
    check_covariance,
    check_stabilizer_pushforward,
    congruent,
    effectivize,
    emit_state,
    hypergraph_from_json,
    hypergraph_to_json,
    index_period,
    isotropy_group,
    lme_check,
    lme_orthonormal,
    marked_to_calibrated,
    poly_to_calibrated,
    primitive_core,
    ring_from_descriptor,
    weighted_to_calibrated,
)
from .errors import HyperquditError, TooLarge
from .fieldpoly import basic_power_matrix, m_polynomial, power_matrix, power_matrix_inverse
from .cyclicity import special_exponents
from .hyperstate import stabilizer_fixes_state
from .states import render_element

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CHECK = 2


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _element_json(e) -> list[int]:
    return list(e.coeffs)


def _matrix_json(mat) -> list[list[list[int]]]:
    return [[_element_json(e) for e in row] for row in mat]


def _print(doc) -> None:
    print(_json_text(doc))


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte, for what the CLI emits.

    Dicts with str keys, lists, tuples, str, int, bool and None; any other
    type raises TypeError.  With an indent the standard library encodes in
    pure Python, one generator step per token; here a list of plain ints is
    one join, memoized per (values, depth) for the document.
    """
    return _encode(doc, "\n", {})


def _encode(o, indent: str, memo: dict) -> str:
    """The text of o, whose closing bracket goes after `indent` (newline and spaces)."""
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = indent + "  "
        if all(type(v) is int for v in o):
            key = (tuple(o), indent)
            text = memo.get(key)
            if text is None:
                text = memo[key] = "[" + inner + ("," + inner).join(map(str, o)) + indent + "]"
            return text
        return "[" + inner + ("," + inner).join([_encode(v, inner, memo) for v in o]) + indent + "]"
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        for k in o:
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
        inner = indent + "  "
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": " + _encode(v, inner, memo)
            for k, v in sorted(o.items())]) + indent + "}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


# -- subcommands ------------------------------------------------------------------

def cmd_ring_info(args) -> int:
    ring = ring_from_descriptor(_load_json(args.ring))
    rows = [(e, ring.trace(e), *index_period(e), ring.is_unit(e)) for e in ring.elements]
    if args.json:
        rows = [(_element_json(e), *data) for e, *data in rows]
        _print({
            "p": ring.p, "r": ring.r, "d": ring.d, "q": ring.q,
            "modulus": list(ring.modulus),
            "trace": [[e, t] for e, t, _, _, _ in rows],
            "units": [e for e, *_, unit in rows if unit],
            "nilpotents": [e for e, *_, unit in rows if not unit],
            "index_period": [[e, iota, pi] for e, _, iota, pi, _ in rows],
        })
    else:
        print(f"GR({ring.char},{ring.d}): p={ring.p} r={ring.r} d={ring.d} q={ring.q}")
        print("element  trace  iota  pi  kind")
        for e, t, iota, pi, unit in rows:
            kind = "unit" if unit else "nilpotent"
            print(f"{render_element(e):>8}  {t:>5}  {iota:>4}  {pi:>2}  {kind}")
    return EXIT_OK


def cmd_state_build(args) -> int:
    hg = hypergraph_from_json(_load_json(args.hypergraph), "calibrated")
    psi = build_state(hg)
    if args.json:
        doc = {
            "basis": psi.basis, "l": psi.l, "norm_exp": psi.norm_exp,
            "char": psi.ring.char, "phases": psi.phases.tolist(),
        }
        _print(doc)
    else:
        sys.stdout.write(emit_state(psi, dense=args.dense))
    return EXIT_OK


def _verify_morphisms(l: int) -> list[OrdinalMorphism]:
    """A deterministic set of distinct ordinal functions out of [l] for covariance suites.

    Every function into [m] while m^l <= 200, then the identity once if some
    grade m was too large to enumerate (or none was enumerated).
    """
    import itertools

    small = [m for m in range(1, l + 1) if m ** l <= 200]
    out = [OrdinalMorphism(l, m, v)
           for m in small for v in itertools.product(range(m), repeat=l)]
    if len(small) < l or not out:
        out.append(OrdinalMorphism.identity(l))
    return out


def cmd_state_verify(args) -> int:
    hg = hypergraph_from_json(_load_json(args.hypergraph), "calibrated")
    build_state(hg)  # every suite needs the phase table, so an oversized grade stops here
    selected = [name for name, on in (
        ("stabilizer", args.stabilizer), ("covariance", args.covariance),
        ("lme", args.lme), ("pushforward", args.pushforward)) if on]
    if not selected:
        selected = ["stabilizer", "covariance", "lme", "pushforward"]
    results = {}
    lines = []
    for name in selected:
        if name == "stabilizer":
            good, total = stabilizer_fixes_state(hg)
            results[name] = {"passed": good, "total": total, "ok": good == total}
            lines.append(f"{good}/{total} stabilizer checks passed"
                         + ("" if good == total else " (FAIL)"))
        elif name == "covariance":
            morphs = _verify_morphisms(hg.l) if hg.l else [OrdinalMorphism.identity(0)]
            good = sum(1 for f in morphs if check_covariance(hg, f))
            results[name] = {"passed": good, "total": len(morphs), "ok": good == len(morphs)}
            lines.append(f"{good}/{len(morphs)} covariance checks passed"
                         + ("" if good == len(morphs) else " (FAIL)"))
        elif name == "lme":
            try:
                ok = lme_check(hg)
                detail = "both paths"
            except TooLarge:
                ok = lme_orthonormal(hg)
                detail = "exact path only (dense path over cap)"
            results[name] = {"ok": ok, "detail": detail}
            lines.append(f"lme {'passed' if ok else 'FAILED'} ({detail})")
        elif name == "pushforward":
            morphs = [OrdinalMorphism.identity(hg.l)]
            if hg.l >= 2:
                swap = list(range(hg.l))
                swap[0], swap[1] = swap[1], swap[0]
                morphs.append(OrdinalMorphism(hg.l, hg.l, tuple(swap)))
                morphs.append(OrdinalMorphism(hg.l, 1, (0,) * hg.l))
            good = sum(1 for f in morphs if check_stabilizer_pushforward(hg, f))
            results[name] = {"passed": good, "total": len(morphs), "ok": good == len(morphs)}
            lines.append(f"{good}/{len(morphs)} stabilizer pushforward checks passed"
                         + ("" if good == len(morphs) else " (FAIL)"))
    ok = all(v["ok"] for v in results.values())
    if args.json:
        _print({"checks": results, "ok": ok})
    else:
        for line in lines:
            print(line)
    return EXIT_OK if ok else EXIT_CHECK


def cmd_reduce(args) -> int:
    hg = hypergraph_from_json(_load_json(args.hypergraph), "calibrated")
    effective, constant = effectivize(hg)
    chart, core = primitive_core(effective)
    doc = {
        "constant": constant,
        "effective": hypergraph_to_json(effective),
        "chart": list(chart.values),
        "core": hypergraph_to_json(core),
    }
    _print(doc)
    return EXIT_OK


def cmd_classify(args) -> int:
    paths = sorted(Path(args.directory).glob("*.json"))
    items = []
    for path in paths:
        hg = hypergraph_from_json(_load_json(str(path)), "calibrated")
        if hg.l > args.max_l:
            raise TooLarge(f"{path.name}: l = {hg.l} exceeds --max-l {args.max_l}")
        effective, _ = effectivize(hg)
        _, core = primitive_core(effective)
        items.append((path.name, core))
    classes: list[dict] = []
    for name, core in items:
        placed = False
        for cls in classes:
            rep = cls["_rep"]
            if rep.l == core.l and rep.ring is core.ring:
                witness = congruent(rep, core)
                if witness is not None:
                    cls["members"].append(name)
                    cls["witnesses"][name] = list(witness.values)
                    placed = True
                    break
        if not placed:
            classes.append({
                "_rep": core,
                "representative": name,
                "members": [name],
                "witnesses": {name: list(range(core.l))},
                "isotropy": [list(f.values) for f in isotropy_group(core)],
            })
    doc = {"classes": [
        {k: v for k, v in cls.items() if k != "_rep"} for cls in classes]}
    _print(doc)
    return EXIT_OK


def cmd_convert(args) -> int:
    doc = _load_json(args.hypergraph)
    if args.to != "calibrated":
        raise HyperquditError(f"unsupported conversion target {args.to!r}")
    if args.source == "weighted":
        hg = weighted_to_calibrated(hypergraph_from_json(doc, "weighted"))
    elif args.source == "marked":
        mhg = hypergraph_from_json(doc, "marked")
        x_star = None
        if args.xstar is not None:
            if not 0 <= args.xstar < mhg.ring.p:
                raise HyperquditError(f"--xstar {args.xstar} is not in [0, {mhg.ring.p})")
            x_star = mhg.ring.from_int(args.xstar)
        hg = marked_to_calibrated(mhg, x_star)
    elif args.source == "poly":
        ring, l, tau = hypergraph_from_json(doc, "poly")
        hg = poly_to_calibrated(ring, l, tau)
    else:
        raise HyperquditError(f"unsupported conversion source {args.source!r}")
    _print(hypergraph_to_json(hg))
    return EXIT_OK


def cmd_matrices(args) -> int:
    ring = ring_from_descriptor(_load_json(args.ring))
    a = power_matrix(ring)
    ainv = power_matrix_inverse(ring)
    c, cinv = basic_power_matrix(ring)
    special = special_exponents(ring)
    polys = {}
    for y, e in enumerate(ring.elements):
        poly = m_polynomial(ring, special.s[y])
        polys[render_element(e)] = [_element_json(cf) for cf in poly.coeffs]
    doc = {
        "A": _matrix_json(a), "A_inverse": _matrix_json(ainv),
        "C": _matrix_json(c), "C_inverse": _matrix_json(cinv),
        "generator_polynomials": polys,
    }
    if args.json:
        _print(doc)
    else:
        def render_matrix(name, mat):
            print(name)
            for row in mat:
                print("  " + "  ".join(render_element(e) for e in row))
        render_matrix("A", a)
        render_matrix("A^-1", ainv)
        render_matrix("C", c)
        render_matrix("C^-1", cinv)
        print("generator polynomials (coefficient arrays, constant first)")
        for label, coeffs in polys.items():
            print(f"  m[s({label})] = {coeffs}")
    return EXIT_OK


# -- driver ------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing never modifies it.

    Each subcommand names its handler, which `main` looks up in this module
    on every call, so a handler rebound after the parser was built still runs.
    """
    parser = argparse.ArgumentParser(
        prog="hyperqudit",
        description="Exact calibrated hypergraph states of Galois-ring qudits.")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="ring inspection")
    ring_sub = ring.add_subparsers(dest="ring_command", required=True)
    info = ring_sub.add_parser("info", help="trace table, units, cyclic data")
    info.add_argument("ring", help="ring descriptor JSON file")
    info.set_defaults(handler="cmd_ring_info")

    state = sub.add_parser("state", help="state construction and verification")
    state_sub = state.add_subparsers(dest="state_command", required=True)
    build = state_sub.add_parser("build", help="emit the exact hypergraph state")
    build.add_argument("hypergraph", help="calibrated hypergraph JSON file")
    build.add_argument("--dense", action="store_true",
                       help="append complex amplitudes (12 significant digits)")
    build.set_defaults(handler="cmd_state_build")
    verify = state_sub.add_parser("verify", help="run invariant suites")
    verify.add_argument("hypergraph", help="calibrated hypergraph JSON file")
    verify.add_argument("--stabilizer", action="store_true")
    verify.add_argument("--covariance", action="store_true")
    verify.add_argument("--lme", action="store_true")
    verify.add_argument("--pushforward", action="store_true")
    verify.set_defaults(handler="cmd_state_verify")

    reduce_p = sub.add_parser("reduce", help="effectivize and take the primitive core")
    reduce_p.add_argument("hypergraph", help="calibrated hypergraph JSON file")
    reduce_p.set_defaults(handler="cmd_reduce")

    classify = sub.add_parser("classify", help="congruence classes of a directory")
    classify.add_argument("directory", help="directory of hypergraph JSON files")
    classify.add_argument("--max-l", type=int, default=6)
    classify.set_defaults(handler="cmd_classify")

    convert = sub.add_parser("convert", help="conversion pipelines")
    convert.add_argument("hypergraph", help="hypergraph JSON file")
    convert.add_argument("--from", dest="source", required=True,
                         choices=["weighted", "marked", "poly"])
    convert.add_argument("--to", default="calibrated", choices=["calibrated"])
    convert.add_argument("--xstar", type=int, default=None,
                         help="control reference element (default p-1)")
    convert.set_defaults(handler="cmd_convert")

    matrices = sub.add_parser("matrices", help="power/basic matrices and polynomials")
    matrices.add_argument("ring", help="ring descriptor JSON file")
    matrices.set_defaults(handler="cmd_matrices")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.handler](args)
    except (HyperquditError, OSError, json.JSONDecodeError) as exc:
        message = {"error": str(exc), "type": type(exc).__name__}
        if getattr(args, "json", False):
            print(json.dumps(message), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
