"""Golden output corpus: seeded library text and CLI calls, one hash a line.

Each family below builds a seeded list of (input, text) lines with stdlib
random: the text forms of polynomials, operators, GWA elements and module
vectors at ranks 1 to 3 (Fraction, negative and multi-digit coefficients),
the repr, render and to_json of every Value class, and in-process cli.main
calls over every subcommand in text and --json, each recorded as its exit
code, stdout and stderr.  tests/golden_output.json holds one short hash per
line and one digest per family.  On a mismatch the test names the family,
the input and the new text of the first line that changed, so no old text
need be stored.

A change that means to alter output re-records the file and says so:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cuspdiff import cli
from cuspdiff.classify import (LinMaxIdeal, Orbit,
                               build_weight_module, classify_bbA,
                               classify_DA_torsion, normalize, partition_orbit)
from cuspdiff.cuspops import CuspShape, presentation, structure_constant
from cuspdiff.exactpoly import (BasePoly, linear_factors, poly_to_json,
                                render_number, render_poly)
from cuspdiff.gwa import GwaPresentation, render_gwa, verify_presentation
from cuspdiff.modactions import (ExponentSet, LaurentVector, WeightSupport,
                                 render_vector)
from cuspdiff.skewlaurent import LaurentOp, op_to_json, render_op

RECORD = Path(__file__).with_name("golden_output.json")


def _line_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def _coef(rng):
    """A nonzero int or Fraction: small, multi-digit, negative or not."""
    kind = rng.randrange(4)
    if kind == 0:
        c = rng.randint(1, 9)
    elif kind == 1:
        c = rng.randint(10, 10 ** rng.randint(2, 25))
    elif kind == 2:
        c = Fraction(rng.randint(1, 99), rng.randint(2, 12))
    else:
        c = Fraction(rng.randint(1, 10 ** 12), rng.randint(2, 10 ** 8))
    return -c if rng.random() < 0.5 else c


def _poly(rng, n, terms=3, degree=3):
    return BasePoly(n, {tuple(rng.randint(0, degree) for _ in range(n)):
                        _coef(rng) for _ in range(rng.randint(0, terms))})


def _degree(rng, n, span=3):
    return tuple(rng.randint(-span, span) for _ in range(n))


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True)


# -- library families --------------------------------------------------------

def family_numbers(rng):
    out = []
    for _ in range(150):
        c = _coef(rng)
        out.append((repr(c), render_number(c)))
    # integral Fractions are written as their int
    for k in range(-25, 26):
        out.append(("Fraction(%d)" % k, render_number(Fraction(k))))
    return out


def family_render_poly(rng):
    out = []
    for _ in range(650):
        n = rng.randint(1, 3)
        p = _poly(rng, n, terms=5)
        text = "%s | %r | %s" % (render_poly(p), p, _dumps(poly_to_json(p)))
        out.append(("BasePoly(%d, %r)" % (n, p.terms), text))
    return out


def family_render_op(rng):
    out = []
    for _ in range(550):
        n = rng.randint(1, 3)
        u = LaurentOp(n, {_degree(rng, n): _poly(rng, n)
                          for _ in range(rng.randint(0, 4))})
        text = "%s | %r | %s" % (render_op(u), u, _dumps(op_to_json(u)))
        out.append(("LaurentOp(%d, %s)" % (n, render_op(u)), text))
    return out


def _presentations(rng):
    """Presentations at ranks 1 to 3: the algebras of small shapes and
    random base polynomials with random steps."""
    pres = [presentation(shape, algebra)[0]
            for shape in (2, 3, (2, 3), (2, 2, 3))
            for algebra in ("calA", "bbA", "weyl")]
    for _ in range(6):
        n = rng.randint(1, 3)
        a = [_poly(rng, 1, terms=3) + BasePoly.variable(1, 0) ** 3
             for _ in range(n)]
        pres.append(GwaPresentation(a, [rng.randint(1, 4) for _ in range(n)]))
    return pres


def family_render_gwa(rng):
    out = []
    pres = _presentations(rng)
    for _ in range(450):
        p = rng.choice(pres)
        n = p.nvars
        u = p.element({_degree(rng, n): _poly(rng, n)
                       for _ in range(rng.randint(0, 4))})
        out.append(("%r: %s" % (p, render_gwa(u)),
                    "%s | %r" % (render_gwa(u), u)))
    return out


def family_render_vector(rng):
    out = []
    for _ in range(600):
        n = rng.randint(1, 3)
        v = LaurentVector(n, {_degree(rng, n, 6): _coef(rng)
                              for _ in range(rng.randint(0, 5))})
        out.append(("LaurentVector(%d, %r)" % (n, {d: v.coeffs[d] for d in
                                                   v.support()}),
                    "%s | %r" % (render_vector(v), v)))
    return out


def _value_lines(obj, label):
    """repr, render() and to_json() of a value, each that its class has."""
    out = []
    if type(obj).__repr__ is not object.__repr__:
        out.append((label + " repr", repr(obj)))
    if hasattr(obj, "render") and obj.render.__code__.co_argcount == 1:
        out.append((label + " render", obj.render()))
    if hasattr(obj, "to_json"):
        out.append((label + " to_json", _dumps(obj.to_json())))
    return out


def _rational(rng):
    if rng.random() < 0.5:
        return rng.randint(-30, 30)
    return Fraction(rng.randint(-99, 99), rng.randint(1, 9))


def family_values(rng):
    out = []
    for _ in range(120):
        points = [rng.randint(-20, 20) for _ in range(rng.randint(0, 4))]
        ge = rng.choice([None, rng.randint(-5, 30)])
        le = rng.choice([None, rng.randint(-30, 5)])
        es = ExponentSet(points=points, ge=ge, le=le)
        label = "ExponentSet(%r, ge=%r, le=%r)" % (sorted(points), ge, le)
        out += _value_lines(es, label)
        out.append((label + " render", es.render(
            "(-inf, %s]", lambda ps: ",".join(map(render_number, ps)),
            "[%s, inf)")))
        out += _value_lines(WeightSupport(es), "WeightSupport(%s)" % label)
    for _ in range(100):
        r = _rational(rng)
        out += _value_lines(LinMaxIdeal(r), "LinMaxIdeal(%s)" % r)
        out += _value_lines(Orbit(r), "Orbit(%s)" % r)
    for _ in range(60):
        rep = Fraction(rng.randint(0, 5), rng.randint(1, 6))
        roots = [rep + rng.randint(-6, 6) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.3:
            roots.append(rep + Fraction(1, 7))
        a = linear_factors(roots) * rng.choice([1, -3, Fraction(2, 5)])
        label = "partition_orbit(%s, Orbit(%s))" % (render_poly(a), rep)
        for gamma in partition_orbit(a, Orbit(rep)):
            out += _value_lines(gamma, label)
            module = build_weight_module(a, gamma, rng.randint(1, 3),
                                         rng.randint(1, 4))
            out += _value_lines(module, label + " module")
    for _ in range(40):
        widths = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 3)))
        out += _value_lines(CuspShape(widths), "CuspShape(%r)" % (widths,))
    for _ in range(150):
        m = rng.randint(2, 6)
        i, j = (rng.choice([k for k in range(1 - 2 * m, 2 * m) if k])
                for _ in range(2))
        rel = structure_constant(m, i, j)
        label = "structure_constant(%d, %d, %d)" % (m, i, j)
        out += _value_lines(rel, label)
        out.append((label + " fields", "%s | %r | %s" % (
            render_poly(rel.coefficient), rel.residual,
            render_op(rel.rhs_op(m)))))
    for m in range(2, 9):
        for entry in classify_bbA(m):
            out += _value_lines(entry, "classify_bbA(%d) %s" % (m, entry.tag))
        out += _value_lines(classify_DA_torsion(m),
                            "classify_DA_torsion(%d)" % m)
    for m in (2, 3):
        pres = presentation(m, "bbA")[0]
        for _ in range(15):
            b = pres.element({(-k,): rng.choice([1, -2, Fraction(3, 4)])
                              * linear_factors([rng.randint(-3, 3) for _ in
                                                range(rng.randint(0, 2))])
                              for k in range(rng.randint(1, 2) + 1)})
            out += _value_lines(normalize(b), "normalize(%s)" % render_gwa(b))
    for p in _presentations(rng):
        out += _value_lines(p, "GwaPresentation")
        out += _value_lines(verify_presentation(p, depth=1),
                            "verify_presentation(%r, depth=1)" % p)
    return out


# -- the CLI ------------------------------------------------------------------

def _run(argv):
    """One in-process cli.main call as text: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return "exit %r\n--- stdout\n%s--- stderr\n%s" % (code, out.getvalue(),
                                                       err.getvalue())


def _expression(rng, n):
    """A random operator expression of the parser's grammar at rank n."""
    def index(k):
        return "" if n == 1 else "%d" % rng.randint(1, n)

    def atom():
        kind = rng.randrange(7)
        if kind == 0:
            return "h" + index(0)
        if kind == 1:
            return "x%s^%d" % (index(0), rng.randint(-3, 3))
        if kind == 2:
            at = "" if n == 1 else "@%d" % rng.randint(1, n)
            return "delta(%d%s)" % (rng.choice([-3, -2, -1, 1, 2, 3]), at)
        if kind == 3:
            return "d(%d)" % rng.randint(1, n)
        if kind == 4:
            return render_number(abs(_rational(rng)))
        if kind == 5:
            return "(h%s-%d)" % (index(0), rng.randint(0, 4))
        return "%s^%d" % (rng.choice(["h", "x"]) + index(0), rng.randint(0, 3))

    def term():
        return "*".join(atom() for _ in range(rng.randint(1, 3)))

    # no leading sign, which argparse would read as a flag
    return term() + "".join(rng.choice(["+", "-"]) + term()
                            for _ in range(rng.randint(0, 2)))


def _vector(rng, n):
    names = ["x"] if n == 1 else ["x%d" % (i + 1) for i in range(n)]
    terms = []
    for _ in range(rng.randint(1, 3)):
        c = render_number(_rational(rng) or 1)
        mono = "*".join("%s^%d" % (name, rng.randint(-4, 4))
                        for name in names)
        terms.append("(%s)*%s" % (c, mono))
    return "+".join(terms)


_SHAPES = {1: ["1", "2", "3", "4"], 2: ["2,3", "2,2", "1,3"], 3: ["2,3,2"]}

# the exit 2 paths that random calls rarely reach
_USAGE = ["", "frobnicate", "phi --m zero 1", "phi --m 0 1", "mul --m 2 'h+$'",
          "mul --m 2 --window 3 h", "phi --m 2 --algebra bbA 1",
          "delta --m 2 1@2", "act --m 2 'd(1)' 'h*x'",
          "classify --m 2,3", "classify --m 2 --algebra calA",
          "orbit --a 0", "orbit --a 'h^2+1'", "orbit --a h --root 1/0",
          "normalize --m 2 --algebra bbA --element x",
          "normalize --m 2,3 --algebra bbA --element h",
          "stability --m 2 --window 1", "stability --m 2,3 --window 6",
          "gwa-verify --m 2 --json", "gwa-verify --m 2 --algebra calA --depth 0",
          "support --m 2,3", "support --m 3 --window 5"]


def _cli_argvs(rng):
    argvs = [shlex.split(line) for line in _USAGE]
    for _ in range(60):
        n = rng.choice([1, 1, 2, 3])
        m = rng.choice(_SHAPES[n])
        exprs = [_expression(rng, n) for _ in range(rng.randint(1, 2))]
        argvs.append(["mul", "--m", m, *exprs])
        argvs.append(["member", "--m", m, "--algebra",
                      rng.choice(["DA", "weyl"]), exprs[0]])
        argvs.append(["decompose", "--m", m, exprs[0]])
        argvs.append(["act", "--m", m, exprs[0], _vector(rng, n)])
        argvs.append(["act", "--m", m, "--quotient",
                      "delta(%d)" % rng.choice([-3, -2, -1, 1, 2, 3]),
                      _vector(rng, n)])
        argvs.append(["act", "--m", m, "--quotient", exprs[0],
                      _vector(rng, n)])
    for _ in range(25):
        m = rng.choice(_SHAPES[1][1:])
        gens = [_expression(rng, 1) for _ in range(rng.randint(1, 2))]
        argvs.append(["stability", "--m", m, "--window", "30",
                      *("--gens=" + g for g in gens)])
        algebra = rng.choice(["calA", "bbA"])
        k = rng.randint(0, 3)
        argvs.append(["member", "--m", m, "--algebra", algebra,
                      "Y^%d*h+X*%s" % (k, rng.choice(["Y", "h", "1"]))])
        argvs.append(["normalize", "--m", m, "--algebra", algebra,
                      "--element=%s*Y^%d*h+h-%d" % (
                          render_number(_rational(rng) or 1), k,
                          rng.randint(0, 3))])
        argvs.append(["phi", "--m", m, "--",
                      *(str(rng.randint(-8, 8)) for _ in range(3))])
        argvs.append(["delta", "--m", m, "--",
                      *(str(rng.randint(-6, 6)) for _ in range(2))])
        roots = [_rational(rng) for _ in range(rng.randint(0, 3))]
        a = render_poly(linear_factors(roots) * rng.choice([1, -2]))
        root = rng.choice(roots or [0]) + rng.randint(-2, 2)
        argvs.append(["orbit", "--a=" + a, "--root=" + render_number(root)])
    for m in ("1", "2", "3", "4", "5", "2,3", "1,2", "2,3,2"):
        argvs.append(["stability", "--m", m, "--window", "14"])
        argvs.append(["delta", "--m", m, "1", "-1"])
    for m in ("2", "3", "2,3"):
        argvs.append(["relations-check", "--m", m])
        argvs.append(["relations-check", "--m", m, "--corrupt", "--seed",
                      str(rng.randint(0, 99))])
    for m in ("1", "2", "3", "2,3"):
        for algebra in ("calA", "bbA", "weyl"):
            argvs.append(["gwa-verify", "--m", m, "--algebra", algebra,
                          "--depth", "1", "--pairs", "2", "--seed",
                          str(rng.randint(0, 99))])
    for m in range(1, 7):
        for algebra in ("bbA", "DA"):
            argvs.append(["classify", "--m", str(m), "--algebra", algebra])
        argvs.append(["support", "--m", str(m)])
    return argvs


def family_cli(rng):
    out = []
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage to it
    try:
        for argv in _cli_argvs(rng):
            for call in (argv, argv[:1] + ["--json"] + argv[1:]):
                out.append((shlex.join(call), _run(call)))
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return out


FAMILIES = {
    "numbers": (family_numbers, 101),
    "render_poly": (family_render_poly, 102),
    "render_op": (family_render_op, 103),
    "render_gwa": (family_render_gwa, 104),
    "render_vector": (family_render_vector, 105),
    "values": (family_values, 106),
    "cli": (family_cli, 107),
}


def build(name):
    """The (input, text) lines of one family, from its seed."""
    family, seed = FAMILIES[name]
    return family(random.Random(seed))


def _digest(lines) -> str:
    h = hashlib.sha256()
    for _, text in lines:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def record():
    doc = {}
    for name in FAMILIES:
        lines = build(name)
        doc[name] = {"digest": _digest(lines),
                     "lines": [_line_hash(text) for _, text in lines]}
    RECORD.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text())


def test_record_covers_every_family(recorded):
    assert sorted(recorded) == sorted(FAMILIES)
    assert sum(len(f["lines"]) for f in recorded.values()) >= 3651


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_matches_record(recorded, name):
    lines = build(name)
    want = recorded[name]
    if _digest(lines) == want["digest"]:
        return
    got = [_line_hash(text) for _, text in lines]
    for index, ((source, text), old) in enumerate(zip(lines, want["lines"])):
        if _line_hash(text) != old:
            pytest.fail("%s line %d changed\ninput: %s\nnew text:\n%s"
                        % (name, index, source, text))
    pytest.fail("%s has %d lines, recorded %d" % (name, len(got),
                                                  len(want["lines"])))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_golden.py --record")
    for name, family in record().items():
        print("%-14s %5d lines  %s" % (name, len(family["lines"]),
                                       family["digest"]))
