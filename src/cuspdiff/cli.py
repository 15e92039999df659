"""Command line interface.

Every subcommand takes --m (comma separated factor widths) and --json, and
only those of --algebra, --window and --seed that its handler reads:
--algebra for mul, member, decompose, act, normalize, stability, classify
and gwa-verify; --window for stability alone, as its sweep's cost cap;
--seed for relations-check and gwa-verify.  Any other flag is a usage
error, refused before argparse can hand its value to a positional.  Exit
status is 0 for successful queries, 1 when a requested check fails
(membership, stability, relation or round trip verification) or stdout is
closed before the output is written, and 2 for usage or parse errors.
Output is deterministic: iteration is sorted and randomness is seeded.

Each handler cmd_x(args) returns (exit code, payload, lines): the --json body
without its schema and command keys, and the text output.  Usage errors are
ValueErrors; main alone writes stdout, and maps a ValueError to exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from random import Random

from .exactpoly import (BasePoly, NotDivisible, grlex_key, poly_to_json,
                        read_int, render_number, render_poly)
from .skewlaurent import (graded_divisor, monomial_product, op_to_json,
                          render_op, unit)
from .cuspops import (as_shape, decompose, delta_op, embedding,
                      factor_generators, generating_set, membership, phi,
                      structure_constant)
from .gwa import NotInImage, render_gwa, verify_presentation
from .exprparse import ALGEBRAS, parse_expression, parse_poly
from .modactions import (MODULES, LaurentVector, NotStable, _saturation,
                         act, act_on_quotient, cusp_mask, render_vector,
                         restriction_blocks, stability_check, support)
from . import classify as classify_mod

SCHEMA = 1

# normalize builds products of about s factors; larger shifts are refused
MAX_NORMALIZE_SHIFT = 256

# p or p/q in ASCII digits, which read_int reads at any length
_RATIONAL = re.compile(r"\s*([-+]?)([0-9]+)(?:/([0-9]+))?\s*")


def _int(text: str) -> int:
    """_RATIONAL's p alone, as an int; int() reads other digits and "_" too."""
    match = _RATIONAL.fullmatch(text)
    if match is None or match[3] is not None:
        raise ValueError("invalid integer %r" % text)
    return -read_int(match[2]) if match[1] == "-" else read_int(match[2])


_int.__name__ = "int"  # argparse names the type: "invalid int value: ..."


def _shape(args, rank_one=None):
    """The shape --m names; rank_one, if given, is the message that refuses
    a shape of rank two or more."""
    try:
        widths = [_int(p) for p in str(args.m).split(",")]
    except ValueError:
        raise ValueError("--m expects a comma separated list of integers")
    shape = as_shape(widths)
    if rank_one and shape.rank != 1:
        raise ValueError(rank_one)
    return shape


def _fmt_degree(alpha) -> str:
    if len(alpha) == 1:
        return str(alpha[0])
    return "(" + ",".join(str(v) for v in alpha) + ")"


def _render_points(points) -> str:
    return " u ".join("{%s}" % render_number(p) for p in points)


def _to_vector(op) -> LaurentVector:
    coeffs = {}
    for alpha, poly in op.components.items():
        if not poly.is_constant():
            raise ValueError("vector coefficients must be rational constants, "
                             "got %s" % render_poly(poly))
        coeffs[alpha] = poly.eval([0] * op.nvars)
    return LaurentVector(op.nvars, coeffs)


# -- subcommand handlers ---------------------------------------------------

def cmd_mul(args):
    shape = _shape(args)
    out = None
    for text in args.expr:
        u = parse_expression(text, shape, args.algebra)
        out = u if out is None else out * u
    text = render_op(out)
    return 0, {"result": op_to_json(out), "text": text}, [text]


def cmd_member(args):
    shape = _shape(args)
    u = parse_expression(args.expr, shape, args.algebra)
    where = {"DA": "the operator ring", "weyl": "the Weyl algebra"}.get(
        args.algebra, "the %s image" % args.algebra)
    if args.algebra == "DA":
        ok = membership(u, shape)
    else:
        try:
            embedding(shape, args.algebra).pullback(u)
            ok = True
        except NotInImage:
            ok = False
    return (0 if ok else 1, {"member": ok, "algebra": args.algebra},
            ["member of %s: %s" % (where, "true" if ok else "false")])


def cmd_phi(args):
    shape = _shape(args)
    rows, lines = [], []
    for mi in shape.m:
        for i in args.index:
            poly = phi(mi, i)
            text = render_poly(poly)
            rows.append({"m": mi, "index": i, "poly": poly_to_json(poly),
                         "text": text})
            lines.append("phi(%d, %d) = %s" % (mi, i, text))
    return 0, {"entries": rows}, lines


def _parse_degree_spec(spec, shape):
    try:
        if "@" in spec:
            raw, fraw = spec.split("@", 1)
            degree, factor = _int(raw), _int(fraw)
        else:
            degree, factor = _int(spec), 1
    except ValueError:
        raise ValueError("bad degree spec %r; expected i or i@k" % spec)
    if not 1 <= factor <= shape.rank:
        raise ValueError("factor index %d out of range 1..%d"
                         % (factor, shape.rank))
    return unit(shape.rank, factor - 1, degree)


def cmd_delta(args):
    shape = _shape(args)
    rows, lines = [], []
    for spec in args.degree:
        alpha = _parse_degree_spec(spec, shape)
        op = delta_op(shape, alpha)
        text = render_op(op)
        rows.append({"degree": list(alpha), "op": op_to_json(op),
                     "text": text})
        lines.append("delta(%s) = %s" % (spec, text))
    return 0, {"entries": rows}, lines


def cmd_decompose(args):
    shape = _shape(args)
    u = parse_expression(args.expr, shape, args.algebra)
    try:
        coords = decompose(u, shape)
    except NotDivisible as exc:
        return (1, {"member": False, "error": str(exc)},
                ["not in the operator ring: %s" % exc])
    rows, lines = [], []
    for alpha in sorted(coords, key=grlex_key, reverse=True):
        text = render_poly(coords[alpha])
        rows.append({"degree": list(alpha),
                     "coefficient": poly_to_json(coords[alpha]), "text": text})
        lines.append("%s: %s" % (_fmt_degree(alpha), text))
    return 0, {"member": True, "coordinates": rows}, lines or ["0"]


def cmd_act(args):
    shape = _shape(args)
    u = parse_expression(args.op, shape, args.algebra)
    vec = _to_vector(parse_expression(args.vector, shape, args.algebra))
    if args.quotient:
        try:
            out = act_on_quotient(u, vec, shape)
        except NotStable as exc:
            return 1, {"error": str(exc)}, [str(exc)]
    else:
        out = act(u, vec)
    text = render_vector(out)
    return 0, {"result": {_fmt_degree(a): render_number(c)
                          for a, c in out.components.items()},
               "text": text}, [text]


def cmd_stability(args):
    shape = _shape(args)
    mask, gens = cusp_mask(shape), generating_set(shape)
    window = (max(12, _saturation(mask, gens))
              if args.window is None else args.window)
    if args.gens:
        gens = [parse_expression(t, shape, args.algebra) for t in args.gens]
    ok = stability_check(gens, mask, window)
    return (0 if ok else 1,
            {"stable": ok, "window": window, "generators": len(gens)},
            ["stable under %d generators in window %d: %s"
             % (len(gens), window, "true" if ok else "false")])


def cmd_relations_check(args):
    shape = _shape(args)
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
        rel = structure_constant(mi, i, j)
        degree, coefficient = monomial_product(
            ((i,), graded_divisor((mi,), (i,))),
            ((j,), graded_divisor((mi,), (j,))))
        if (mi, i, j) == corrupt_at:
            coefficient = coefficient + 1
        if rel.rhs_op(mi).components != {degree: coefficient}:
            failures.append((mi, i, j, rel.case))
    commuted = 0
    commute_failures = []
    if shape.rank >= 2:
        factor_gens = [factor_generators(shape, f) for f in range(shape.rank)]
        for f1 in range(shape.rank):
            for f2 in range(f1 + 1, shape.rank):
                for u in factor_gens[f1]:
                    for v in factor_gens[f2]:
                        commuted += 1
                        if u * v != v * u:
                            commute_failures.append(
                                (f1 + 1, f2 + 1, render_op(u), render_op(v)))
    bad = bool(failures or commute_failures)
    lines = ["mismatch at m=%d, (i, j)=(%d, %d), case %s" % f
             for f in failures]
    lines += ["factors %d and %d fail to commute: u = %s, v = %s" % f
              for f in commute_failures]
    lines.append("checked %d relation pairs, %d cross-factor commutations: %s"
                 % (len(triples), commuted,
                    "failures above" if bad else "all hold"))
    return 1 if bad else 0, {
        "checked": len(triples), "commutation_checked": commuted,
        "corrupt": bool(args.corrupt),
        "failures": [{"m": mi, "i": i, "j": j, "case": case}
                     for mi, i, j, case in failures],
        "commutation_failures": [{"factors": [f1, f2], "u": u, "v": v}
                                 for f1, f2, u, v in commute_failures]}, lines


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


def cmd_gwa_verify(args):
    if args.depth < 1:
        raise ValueError("--depth must be a positive integer")
    if args.pairs < 0:
        raise ValueError("--pairs must be a nonnegative integer")
    shape = _shape(args)
    if args.algebra == "DA":
        raise ValueError("gwa-verify needs --algebra bbA, calA or weyl")
    emb = embedding(shape, args.algebra)
    pres = emb.presentation  # the table's own, so apply takes its shortcut
    report = verify_presentation(pres, depth=args.depth)
    rng = Random(args.seed)
    failures = report.failures()
    lines = ["failed: %s (%s)" % (c.name, c.witness) for c in failures]
    trips_ok = True
    for _ in range(args.pairs):
        u = _random_element(pres, rng)
        if emb.pullback(emb.apply(u)) != u:
            trips_ok = False
            lines.append("round trip failed at %s" % render_gwa(u))
            break
    ok = report.ok and trips_ok
    lines.append("%d relation checks, %d round trips: %s"
                 % (len(report.checks), args.pairs, "ok" if ok else "FAILED"))
    return 0 if ok else 1, {
        "algebra": args.algebra, "checks": len(report.checks),
        "failures": [c.name for c in failures],
        "round_trips": args.pairs, "round_trips_ok": trips_ok}, lines


def cmd_classify(args):
    shape = _shape(args, "classification is rank one; pass a single width")
    m = shape.m[0]
    if args.algebra in ("calA", "weyl"):
        raise ValueError("classify targets --algebra bbA or DA")
    if args.algebra == "DA":
        result = classify_mod.classify_DA_torsion(m)
        lines = ["%s: support %s, infinite dimensional" % (name, supp.render())
                 for name, supp in result.exceptional]
        lines.append("family: %s" % result.family_note)
        return 0, {"algebra": "DA", "result": result.to_json()}, lines
    entries = classify_mod.classify_bbA(m)
    lines = []
    for e in entries:
        if e.interval is None:
            lines.append("family: one module per unmarked orbit, "
                         "infinite dimensional")
            continue
        dim = e.dimension
        lines.append("%s: interval %s, dimension %s, annihilator (%s), "
                     "support %s"
                     % (e.tag, e.interval.render(),
                        "infinite" if dim == classify_mod.INFINITE else dim,
                        ", ".join(e.annihilator), e.support.render()))
    return 0, {"algebra": "bbA",
               "entries": [e.to_json() for e in entries]}, lines


def _rational(text: str) -> Fraction:
    """text as a Fraction: p or p/q through read_int, any other ASCII form
    (decimals, exponents) as Fraction() reads it."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        if not text.isascii():
            raise ValueError("non-ASCII rational %r" % text)
        return Fraction(text)
    sign, num, den = match.groups()
    value = Fraction(read_int(num), read_int(den) if den else 1)
    return -value if sign == "-" else value


def cmd_orbit(args):
    shape = _shape(args,
                   "orbits live over the univariate base; pass one width")
    a = parse_poly(args.a, 1)
    if a.is_zero():
        raise ValueError("--a must be a nonzero polynomial in h")
    try:
        root = _rational(args.root)
    except (ValueError, ZeroDivisionError):
        raise ValueError("--root expects a rational number")
    marked = classify_mod.marked_ideals(a)
    intervals = classify_mod.partition_orbit(a, classify_mod.Orbit(root))
    lines = ["marked on orbit %s: %s"
             % (render_number(orb.rep), ", ".join(i.render() for i in ideals))
             for orb, ideals in marked] or ["no marked ideals"]
    lines.append("intervals at the orbit of %s:" % render_number(root))
    lines += ["  %s" % g.render() for g in intervals]
    return 0, {
        "marked": [{"orbit": render_number(orb.rep),
                    "roots": [render_number(i.root) for i in ideals]}
                   for orb, ideals in marked],
        "intervals": [g.to_json() for g in intervals]}, lines


def cmd_normalize(args):
    shape = _shape(args, "normalization is rank one; pass a single width")
    algebra = "calA" if args.algebra == "DA" else args.algebra
    emb = embedding(shape, algebra)
    op = parse_expression(args.element, shape, algebra)
    try:
        b = emb.pullback(op)
    except NotInImage as exc:
        raise ValueError("element is outside the %s image: %s"
                         % (algebra, exc))
    s = classify_mod.normalization_shift(b)
    if s > MAX_NORMALIZE_SHIFT:
        raise ValueError("normalization needs shift count %d, above the "
                         "limit %d" % (s, MAX_NORMALIZE_SHIFT))
    was_normal = classify_mod.is_normal(b)
    result = classify_mod.normalize(b)
    doc = {"algebra": algebra, "input": render_gwa(b), "normal": was_normal,
           "s": result.s, "alpha": render_poly(result.alpha),
           "beta": render_poly(result.beta),
           "normalized": render_gwa(result.normalized),
           "normalized_coords": [
               {"degree": list(alpha), "coefficient": poly_to_json(c)}
               for alpha, c in sorted(result.normalized.components.items())]}
    return 0, doc, ["input: %(input)s" % doc,
                    "normal: %s" % ("true" if was_normal else "false"),
                    "s = %(s)d" % doc, "alpha = %(alpha)s" % doc,
                    "beta = %(beta)s" % doc,
                    "normalized: %(normalized)s" % doc]


def cmd_support(args):
    shape = _shape(args, "supports are rank one; pass a single width")
    payload, supports, blocks = {}, [], []
    for (name, (mask, _)), exps in zip(MODULES.items(),
                                       restriction_blocks(shape)):
        supp = support(mask(shape))
        payload[name] = {"support": supp.to_json(),
                         "blocks": [b.to_json() for b in exps]}
        supports.append("%s support: %s" % (name, supp.render()))
        blocks.append("%s exponent blocks under the degree one pair: %s"
                      % (name, "; ".join(
                          b.render("(-inf, %s]", _render_points, "[%s, inf)")
                          for b in exps)))
    return 0, payload, supports + blocks


# -- parser assembly -------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    def option(flag, **kwargs):
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(flag, **kwargs)
        return parent

    # one parent parser per common option, in usage order
    options = {
        "m": option("--m", default="2",
                    help="comma separated factor widths (default 2)"),
        "algebra": option("--algebra", default="DA",
                          choices=ALGEBRAS,
                          help="algebra context for expressions and checks"),
        "json": option("--json", action="store_true",
                       help="emit a single JSON document"),
        "window": option("--window", type=_int,
                         help="cost cap of the stability sweep; a window "
                              "below its bound is refused (default 12, or "
                              "the canonical generators' bound if larger)"),
        "seed": option("--seed", type=_int, default=0,
                       help="seed for randomized sweeps")}

    parser = argparse.ArgumentParser(
        prog="cuspdiff",
        description="exact computations in rings of differential operators "
                    "on monomial curve algebras")
    sub = parser.add_subparsers(dest="subcommand")

    def command(name, summary, *reads):
        """A subcommand taking --m, --json and the options in reads."""
        return sub.add_parser(name, help=summary, parents=[
            parent for key, parent in options.items()
            if key in ("m", "json") + reads])

    p = command("mul", "multiply operator expressions", "algebra")
    p.add_argument("expr", nargs="+", help="operator expressions")
    p.set_defaults(func=cmd_mul)

    p = command("member", "membership test in the selected algebra",
                "algebra")
    p.add_argument("expr", help="operator expression")
    p.set_defaults(func=cmd_member)

    p = command("phi", "graded coefficient polynomials")
    p.add_argument("index", nargs="+", type=_int, help="degrees")
    p.set_defaults(func=cmd_phi)

    p = command("delta", "graded generators as Laurent operators")
    p.add_argument("degree", nargs="+", help="degree specs i or i@k")
    p.set_defaults(func=cmd_delta)

    p = command("decompose", "coordinates on the delta basis", "algebra")
    p.add_argument("expr", help="operator expression")
    p.set_defaults(func=cmd_decompose)

    p = command("act", "apply an operator to a Laurent vector", "algebra")
    p.add_argument("op", help="operator expression")
    p.add_argument("vector", help="vector expression (x monomials)")
    p.add_argument("--quotient", action="store_true",
                   help="act on the quotient by the monomial subalgebra")
    p.set_defaults(func=cmd_act)

    p = command("stability", "check that generators preserve the monomial "
                "mask", "algebra", "window")
    p.add_argument("--gens", action="append", default=None, metavar="EXPR",
                   help="generator expression (repeatable; default: the "
                        "canonical generating set)")
    p.set_defaults(func=cmd_stability)

    p = command("relations-check", "verify the product table of the graded "
                "generators", "seed")
    p.add_argument("--corrupt", action="store_true",
                   help="perturb one product to demonstrate detection")
    p.set_defaults(func=cmd_relations_check)

    p = command("gwa-verify", "verify a generalized Weyl presentation and its "
                "Laurent embedding", "algebra", "seed")
    p.add_argument("--depth", type=_int, default=3,
                   help="coordinate bound for the associativity sweep")
    p.add_argument("--pairs", type=_int, default=20,
                   help="number of random embed/pullback round trips")
    p.set_defaults(func=cmd_gwa_verify)

    p = command("classify", "simple weight module tables", "algebra")
    p.set_defaults(func=cmd_classify)

    p = command("orbit", "marked ideals and interval partition of an orbit")
    p.add_argument("--a", required=True, metavar="POLY",
                   help="base polynomial in h")
    p.add_argument("--root", default="0",
                   help="rational root selecting the orbit (default 0)")
    p.set_defaults(func=cmd_orbit)

    p = command("normalize", "normality test and normalization of a "
                "nonpositive-degree element", "algebra")
    p.add_argument("--element", required=True, metavar="EXPR",
                   help="element expression; resolved through the algebra's "
                        "Laurent embedding (DA uses the canonical "
                        "presentation on X = x^m, Y = delta(-m))")
    p.set_defaults(func=cmd_normalize)

    p = command("support", "weight supports and restriction blocks")
    p.set_defaults(func=cmd_support)

    parser.subcommands = sub.choices
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process; parse_args leaves a parser as it was."""
    return build_parser()


def _split_argv(subcommands, argv):
    """(unknown flags, argv to parse).  An unknown flag is a --flag before a
    bare -- that the subcommand does not declare (a unique prefix is read as
    argparse reads it); argparse alone would hand such a flag's value to a
    positional, and refuse the value.  argparse also reads a value that
    begins with "-", such as -h*x or -1/2, as a flag.  So an option's value
    that begins with one "-" is passed joined, as --opt=value; and when a
    positional begins with "-" or an option splits the positionals, argv is
    parsed as options, --, positionals.  Any other argv is parsed as given."""
    command = next((t for t in argv if not t.startswith("-")), None)
    if command not in subcommands:
        return [], argv
    known = subcommands[command]._option_string_actions
    at = argv.index(command) + 1
    tokens = [*argv[at:], "--"]
    cut = tokens.index("--")
    unknown = [t for t in tokens[:cut] if t.startswith("--") and not any(
        flag.startswith(t.split("=", 1)[0]) for flag in known)]
    head, options, values, rest = [], [], [], iter(tokens[:cut])
    gap = split = False  # an option after a positional; a positional after it
    for t in rest:
        flag = t.startswith("--") or t in known
        split = split or gap and not flag
        gap = gap or flag and bool(values)
        (options if flag else values).append(t)
        head.append(t)
        if flag and "=" not in t and any(
                f.startswith(t) and known[f].nargs is None for f in known):
            for value in islice(rest, 1):  # the option's value
                if value[:1] == "-" != value[1:2]:
                    options[-1] = head[-1] = t + "=" + value
                else:
                    options.append(value)
                    head.append(value)
    if split or any(v.startswith("-") and v != "-" for v in values):
        return unknown, [*argv[:at], *options, "--", *values,
                         *tokens[cut + 1:-1]]
    return unknown, [*argv[:at], *head, *tokens[cut:-1]]


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else argv
    unknown, argv = _split_argv(parser.subcommands, argv)
    if unknown:
        parser.error("unrecognized arguments: %s" % " ".join(unknown))
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        code, payload, lines = args.func(args)
        if args.json:
            lines = [json.dumps({"schema": SCHEMA, "command": args.subcommand,
                                 **payload}, sort_keys=True)]
        for line in lines:
            print(line)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        # handlers and every input the library rejects raise a ValueError
        parser.error(str(exc))
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1

if __name__ == "__main__":
    raise SystemExit(main())
