"""Command line interface.

Every subcommand takes --m (comma separated factor widths), --algebra,
--json, --window and --seed.  Exit status is 0 for successful queries, 1
when a requested check fails (membership, stability, relation or round trip
verification) or stdout is closed before the output is written, and 2 for
usage or parse errors.  Output is deterministic: iteration is sorted and
randomness is seeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from random import Random

from .exactpoly import (ArityMismatch, BasePoly, ExponentOverflow, NotDivisible,
                        grlex_key, poly_to_json, render_poly)
from .skewlaurent import op_to_json, render_op, weyl_membership
from .cuspops import (as_shape, decompose, delta_op, generating_set,
                      membership, phi, presentation, structure_constant)
from .gwa import NotInImage, render_gwa, verify_presentation
from .exprparse import ExprParseError, parse_expression, parse_poly
from .modactions import (LaurentVector, NotStable, act, act_on_quotient,
                         cusp_mask, quotient_mask, render_vector,
                         restriction_blocks, stability_check, support)
from . import classify as classify_mod

SCHEMA = 1

# normalize builds products of about s factors; larger shifts are refused
MAX_NORMALIZE_SHIFT = 256


def _shape(args, parser):
    try:
        widths = [int(p) for p in str(args.m).split(",")]
    except ValueError:
        parser.error("--m expects a comma separated list of integers")
    try:
        return as_shape(widths)
    except (ValueError, TypeError) as exc:
        parser.error(str(exc))


def _print_json(command, payload):
    doc = {"schema": SCHEMA, "command": command}
    doc.update(payload)
    print(json.dumps(doc, sort_keys=True))


def _fmt_degree(alpha) -> str:
    if len(alpha) == 1:
        return str(alpha[0])
    return "(" + ",".join(str(v) for v in alpha) + ")"


def _render_expset(es) -> str:
    bits = []
    if es.le is not None:
        bits.append("(-inf, %d]" % es.le)
    for p in sorted(es.points):
        bits.append("{%d}" % p)
    if es.ge is not None:
        bits.append("[%d, inf)" % es.ge)
    return " u ".join(bits) if bits else "{}"


def _to_vector(op, parser) -> LaurentVector:
    coeffs = {}
    for alpha, poly in op.components.items():
        if not poly.is_constant():
            parser.error("vector coefficients must be rational constants, "
                         "got %s" % render_poly(poly))
        coeffs[alpha] = poly.eval([0] * op.nvars)
    return LaurentVector(op.nvars, coeffs)


# -- subcommand handlers ---------------------------------------------------

def cmd_mul(args, parser):
    shape = _shape(args, parser)
    out = None
    for text in args.expr:
        u = parse_expression(text, shape, args.algebra)
        out = u if out is None else out * u
    if args.json:
        _print_json("mul", {"result": op_to_json(out), "text": render_op(out)})
    else:
        print(render_op(out))
    return 0


def cmd_member(args, parser):
    shape = _shape(args, parser)
    u = parse_expression(args.expr, shape, args.algebra)
    if args.algebra == "DA":
        ok = membership(u, shape)
        where = "the operator ring"
    elif args.algebra == "weyl":
        ok = weyl_membership(u)
        where = "the Weyl algebra"
    else:
        try:
            _, emb = presentation(shape, args.algebra)
        except ValueError as exc:
            parser.error(str(exc))
        try:
            emb.pullback(u)
            ok = True
        except NotInImage:
            ok = False
        where = "the %s image" % args.algebra
    if args.json:
        _print_json("member", {"member": ok, "algebra": args.algebra})
    else:
        print("member of %s: %s" % (where, "true" if ok else "false"))
    return 0 if ok else 1


def cmd_phi(args, parser):
    shape = _shape(args, parser)
    rows = []
    for mi in shape.m:
        for i in args.index:
            rows.append({"m": mi, "index": i, "poly": poly_to_json(phi(mi, i)),
                         "text": render_poly(phi(mi, i))})
    if args.json:
        _print_json("phi", {"entries": rows})
    else:
        for row in rows:
            print("phi(%d, %d) = %s" % (row["m"], row["index"], row["text"]))
    return 0


def _parse_degree_spec(spec, shape, parser):
    try:
        if "@" in spec:
            raw, fraw = spec.split("@", 1)
            degree, factor = int(raw), int(fraw)
        else:
            degree, factor = int(spec), 1
    except ValueError:
        parser.error("bad degree spec %r; expected i or i@k" % spec)
    if not 1 <= factor <= shape.rank:
        parser.error("factor index %d out of range 1..%d" % (factor, shape.rank))
    return tuple(degree if j == factor - 1 else 0 for j in range(shape.rank))


def cmd_delta(args, parser):
    shape = _shape(args, parser)
    rows = []
    for spec in args.degree:
        alpha = _parse_degree_spec(spec, shape, parser)
        op = delta_op(shape, alpha)
        rows.append({"degree": list(alpha), "op": op_to_json(op),
                     "text": render_op(op)})
    if args.json:
        _print_json("delta", {"entries": rows})
    else:
        for spec, row in zip(args.degree, rows):
            print("delta(%s) = %s" % (spec, row["text"]))
    return 0


def cmd_decompose(args, parser):
    shape = _shape(args, parser)
    u = parse_expression(args.expr, shape, args.algebra)
    try:
        coords = decompose(u, shape)
    except NotDivisible as exc:
        if args.json:
            _print_json("decompose", {"member": False, "error": str(exc)})
        else:
            print("not in the operator ring: %s" % exc)
        return 1
    ordered = sorted(coords, key=grlex_key, reverse=True)
    if args.json:
        _print_json("decompose", {"member": True, "coordinates": [
            {"degree": list(alpha), "coefficient": poly_to_json(coords[alpha]),
             "text": render_poly(coords[alpha])} for alpha in ordered]})
    else:
        if not ordered:
            print("0")
        for alpha in ordered:
            print("%s: %s" % (_fmt_degree(alpha), render_poly(coords[alpha])))
    return 0


def cmd_act(args, parser):
    shape = _shape(args, parser)
    u = parse_expression(args.op, shape, args.algebra)
    vec = _to_vector(parse_expression(args.vector, shape, args.algebra), parser)
    if args.quotient:
        try:
            out = act_on_quotient(u, vec, cusp_mask(shape))
        except NotStable as exc:
            if args.json:
                _print_json("act", {"error": str(exc)})
            else:
                print(exc)
            return 1
    else:
        out = act(u, vec)
    if args.json:
        _print_json("act", {"result": {str(_fmt_degree(a)): str(c)
                                       for a, c in out.coeffs.items()},
                            "text": render_vector(out)})
    else:
        print(render_vector(out))
    return 0


def cmd_stability(args, parser):
    shape = _shape(args, parser)
    if args.gens:
        gens = [parse_expression(t, shape, args.algebra) for t in args.gens]
    else:
        gens = generating_set(shape)
    try:
        ok = stability_check(gens, cusp_mask(shape), args.window)
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        _print_json("stability", {"stable": ok, "window": args.window,
                                  "generators": len(gens)})
    else:
        print("stable under %d generators in window %d: %s"
              % (len(gens), args.window, "true" if ok else "false"))
    return 0 if ok else 1


def cmd_relations_check(args, parser):
    shape = _shape(args, parser)
    triples = []
    for mi in shape.m:
        idxs = [i for i in range(-(2 * mi - 1), 2 * mi) if i != 0]
        for i in idxs:
            for j in idxs:
                triples.append((mi, i, j))
    corrupt_at = None
    if args.corrupt:
        corrupt_at = triples[Random(args.seed).randrange(len(triples))]
    failures = []
    for mi, i, j in triples:
        sub = as_shape([mi])
        rel = structure_constant(sub, i, j)
        lhs = delta_op(sub, (i,)) * delta_op(sub, (j,))
        if (mi, i, j) == corrupt_at:
            lhs = lhs + 1
        if lhs != rel.rhs_op(sub):
            failures.append((mi, i, j, rel.case))
    commuted = 0
    commute_failures = []
    if shape.rank >= 2:
        # each generator is h_f or delta(+-k e_f): it involves one factor f
        factor_gens = [[] for _ in shape.m]
        for g in generating_set(shape):
            (deg, coeff), = g.components.items()
            key = deg if any(deg) else next(iter(coeff.terms))
            factor_gens[next(j for j, e in enumerate(key) if e)].append(g)
        for f1 in range(shape.rank):
            for f2 in range(f1 + 1, shape.rank):
                for u in factor_gens[f1]:
                    for v in factor_gens[f2]:
                        commuted += 1
                        if u * v != v * u:
                            commute_failures.append((f1 + 1, f2 + 1))
    bad = bool(failures or commute_failures)
    if args.json:
        _print_json("relations-check", {
            "checked": len(triples), "commutation_checked": commuted,
            "corrupt": bool(args.corrupt),
            "failures": [{"m": mi, "i": i, "j": j, "case": case}
                         for mi, i, j, case in failures],
            "commutation_failures": [list(f) for f in commute_failures]})
    else:
        for mi, i, j, case in failures:
            print("mismatch at m=%d, (i, j)=(%d, %d), case %s" % (mi, i, j, case))
        for f1, f2 in commute_failures:
            print("factors %d and %d fail to commute" % (f1, f2))
        print("checked %d relation pairs, %d cross-factor commutations: %s"
              % (len(triples), commuted,
                 "failures above" if bad else "all hold"))
    return 1 if bad else 0


def _random_element(pres, rng):
    n = pres.nvars
    coords = {}
    for _ in range(2):
        alpha = tuple(rng.randint(-2, 2) for _ in range(n))
        poly = BasePoly.constant(n, rng.randint(-4, 4))
        for j in range(n):
            poly = poly + BasePoly.variable(n, j) * rng.randint(-3, 3)
        coords[alpha] = poly
    return pres.element(coords)


def cmd_gwa_verify(args, parser):
    if args.depth < 1:
        parser.error("--depth must be a positive integer")
    if args.pairs < 0:
        parser.error("--pairs must be a nonnegative integer")
    shape = _shape(args, parser)
    if args.algebra == "DA":
        parser.error("gwa-verify needs --algebra bbA, calA or weyl")
    try:
        pres, emb = presentation(shape, args.algebra)
    except ValueError as exc:
        parser.error(str(exc))
    report = verify_presentation(pres, depth=args.depth)
    rng = Random(args.seed)
    trips_ok, witness = True, ""
    for _ in range(args.pairs):
        u = _random_element(pres, rng)
        back = emb.pullback(emb.apply(u))
        if back != u:
            trips_ok = False
            witness = render_gwa(u)
            break
    ok = report.ok and trips_ok
    if args.json:
        _print_json("gwa-verify", {
            "algebra": args.algebra, "checks": len(report.checks),
            "failures": [c.name for c in report.failures()],
            "round_trips": args.pairs, "round_trips_ok": trips_ok})
    else:
        for c in report.failures():
            print("failed: %s (%s)" % (c.name, c.witness))
        if not trips_ok:
            print("round trip failed at %s" % witness)
        print("%d relation checks, %d round trips: %s"
              % (len(report.checks), args.pairs, "ok" if ok else "FAILED"))
    return 0 if ok else 1


def cmd_classify(args, parser):
    shape = _shape(args, parser)
    if shape.rank != 1:
        parser.error("classification is rank one; pass a single width")
    m = shape.m[0]
    if args.algebra in ("calA", "weyl"):
        parser.error("classify targets --algebra bbA or DA")
    if args.algebra == "DA":
        result = classify_mod.classify_DA_torsion(m)
        if args.json:
            _print_json("classify", {"algebra": "DA",
                                     "result": result.to_json()})
        else:
            for name, supp in result.exceptional:
                print("%s: support %s, infinite dimensional"
                      % (name, supp.render()))
            print("family: %s" % result.family_note)
        return 0
    try:
        entries = classify_mod.classify_bbA(m, args.window)
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        _print_json("classify", {"algebra": "bbA",
                                 "entries": [e.to_json() for e in entries]})
    else:
        for e in entries:
            if e.interval is None:
                print("family: one module per unmarked orbit, "
                      "infinite dimensional")
                continue
            dim = e.dimension
            print("%s: interval %s, dimension %s, annihilator (%s), support %s"
                  % (e.tag, e.interval.render(),
                     "infinite" if dim == classify_mod.INFINITE else dim,
                     ", ".join(e.annihilator), e.support.render()))
    return 0


def cmd_orbit(args, parser):
    shape = _shape(args, parser)
    if shape.rank != 1:
        parser.error("orbits live over the univariate base; pass one width")
    a = parse_poly(args.a, 1)
    if a.is_zero():
        parser.error("--a must be a nonzero polynomial in h")
    try:
        root = Fraction(args.root)
    except (ValueError, ZeroDivisionError):
        parser.error("--root expects a rational number")
    marked = classify_mod.marked_ideals(a)
    intervals = classify_mod.partition_orbit(a, classify_mod.Orbit(root))
    if args.json:
        _print_json("orbit", {
            "marked": [{"orbit": str(orb.rep),
                        "roots": [str(i.root) for i in ideals]}
                       for orb, ideals in marked],
            "intervals": [g.to_json() for g in intervals]})
    else:
        for orb, ideals in marked:
            print("marked on orbit %s: %s"
                  % (orb.rep, ", ".join(i.render() for i in ideals)))
        if not marked:
            print("no marked ideals")
        print("intervals at the orbit of %s:" % root)
        for g in intervals:
            print("  %s" % g.render())
    return 0


def cmd_normalize(args, parser):
    shape = _shape(args, parser)
    if shape.rank != 1:
        parser.error("normalization is rank one; pass a single width")
    algebra = "calA" if args.algebra == "DA" else args.algebra
    try:
        pres, emb = presentation(shape, algebra)
    except ValueError as exc:
        parser.error(str(exc))
    op = parse_expression(args.element, shape, algebra)
    try:
        b = emb.pullback(op)
    except NotInImage as exc:
        parser.error("element is outside the %s image: %s" % (algebra, exc))
    s = classify_mod.normalization_shift(b)
    if s > MAX_NORMALIZE_SHIFT:
        parser.error("normalization needs shift count %d, above the limit %d"
                     % (s, MAX_NORMALIZE_SHIFT))
    was_normal = classify_mod.is_normal(b)
    result = classify_mod.normalize(b)
    if args.json:
        _print_json("normalize", {
            "algebra": algebra, "input": render_gwa(b),
            "normal": was_normal, "s": result.s,
            "alpha": render_poly(result.alpha),
            "beta": render_poly(result.beta),
            "normalized": render_gwa(result.normalized),
            "normalized_coords": [
                {"degree": list(alpha), "coefficient": poly_to_json(c)}
                for alpha, c in sorted(result.normalized.components.items())]})
    else:
        print("input: %s" % render_gwa(b))
        print("normal: %s" % ("true" if was_normal else "false"))
        print("s = %d" % result.s)
        print("alpha = %s" % render_poly(result.alpha))
        print("beta = %s" % render_poly(result.beta))
        print("normalized: %s" % render_gwa(result.normalized))
    return 0


def cmd_support(args, parser):
    shape = _shape(args, parser)
    if shape.rank != 1:
        parser.error("supports are rank one; pass a single width")
    supp_a = support(cusp_mask(shape))
    supp_q = support(quotient_mask(shape))
    try:
        blocks_a, blocks_q = restriction_blocks(shape, args.window)
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        _print_json("support", {
            "A": {"support": supp_a.to_json(),
                  "blocks": [b.to_json() for b in blocks_a]},
            "Aprime": {"support": supp_q.to_json(),
                       "blocks": [b.to_json() for b in blocks_q]}})
    else:
        print("A support: %s" % supp_a.render())
        print("Aprime support: %s" % supp_q.render())
        print("A exponent blocks under the degree one pair: %s"
              % "; ".join(_render_expset(b) for b in blocks_a))
        print("Aprime exponent blocks under the degree one pair: %s"
              % "; ".join(_render_expset(b) for b in blocks_q))
    return 0


# -- parser assembly -------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--m", default="2",
                        help="comma separated factor widths (default 2)")
    common.add_argument("--algebra", default="DA",
                        choices=["DA", "bbA", "calA", "weyl"],
                        help="algebra context for expressions and checks")
    common.add_argument("--json", action="store_true",
                        help="emit a single JSON document")
    common.add_argument("--window", type=int, default=12,
                        help="exponent window for module computations")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized sweeps")

    parser = argparse.ArgumentParser(
        prog="cuspdiff",
        description="exact computations in rings of differential operators "
                    "on monomial curve algebras")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("mul", parents=[common],
                       help="multiply operator expressions")
    p.add_argument("expr", nargs="+", help="operator expressions")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("member", parents=[common],
                       help="membership test in the selected algebra")
    p.add_argument("expr", help="operator expression")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("phi", parents=[common],
                       help="graded coefficient polynomials")
    p.add_argument("index", nargs="+", type=int, help="degrees")
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("delta", parents=[common],
                       help="graded generators as Laurent operators")
    p.add_argument("degree", nargs="+", help="degree specs i or i@k")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("decompose", parents=[common],
                       help="coordinates on the delta basis")
    p.add_argument("expr", help="operator expression")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("act", parents=[common],
                       help="apply an operator to a Laurent vector")
    p.add_argument("op", help="operator expression")
    p.add_argument("vector", help="vector expression (x monomials)")
    p.add_argument("--quotient", action="store_true",
                   help="act on the quotient by the monomial subalgebra")
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("stability", parents=[common],
                       help="check that generators preserve the monomial mask")
    p.add_argument("--gens", action="append", default=None, metavar="EXPR",
                   help="generator expression (repeatable; default: the "
                        "canonical generating set)")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("relations-check", parents=[common],
                       help="verify the product table of the graded generators")
    p.add_argument("--corrupt", action="store_true",
                   help="perturb one product to demonstrate detection")
    p.set_defaults(func=cmd_relations_check)

    p = sub.add_parser("gwa-verify", parents=[common],
                       help="verify a generalized Weyl presentation and its "
                            "Laurent embedding")
    p.add_argument("--depth", type=int, default=3,
                   help="coordinate bound for the associativity sweep")
    p.add_argument("--pairs", type=int, default=20,
                   help="number of random embed/pullback round trips")
    p.set_defaults(func=cmd_gwa_verify)

    p = sub.add_parser("classify", parents=[common],
                       help="simple weight module tables")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("orbit", parents=[common],
                       help="marked ideals and interval partition of an orbit")
    p.add_argument("--a", required=True, metavar="POLY",
                   help="base polynomial in h")
    p.add_argument("--root", default="0",
                   help="rational root selecting the orbit (default 0)")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("normalize", parents=[common],
                       help="normality test and normalization of a "
                            "nonpositive-degree element")
    p.add_argument("--element", required=True, metavar="EXPR",
                   help="element expression; resolved through the algebra's "
                        "Laurent embedding (DA uses the canonical "
                        "presentation on X = x^m, Y = delta(-m))")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("support", parents=[common],
                       help="weight supports and restriction blocks")
    p.set_defaults(func=cmd_support)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        code = args.func(args, parser)
        sys.stdout.flush()
        return code
    except (ExprParseError, ArityMismatch, ExponentOverflow,
            classify_mod.WrongShape, classify_mod.NonlinearFactor) as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
