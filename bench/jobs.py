"""Seeded job mixes for the benchmark, each job with an output check.

A workload is a sequence of rounds.  Round r of workload w under seed s is
built from Random("w:s:r") alone, so the same seed always gives the same
inputs, and every round of one workload has the same composition: the same
number of jobs of each kind at the same sizes, with only the random
coefficients, degrees and roots changing.  That keeps the cost of a round
steady across seeds while the inputs stay distinct.

Jobs call the library through module attributes (``cuspops.membership``
rather than a name imported here), so the wrappers that the traced run
installs on those attributes see every call.  Checks do not reuse the path
under test: decompositions are compared with the coefficients the operator
was built from, GWA products with their Laurent images, normalization with a
shift count computed from the known roots, and operator products with their
action on monomials.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from fractions import Fraction
from random import Random

from cuspdiff import classify, cli, cuspops, exprparse, gwa, modactions
from cuspdiff.exactpoly import BasePoly, NotDivisible, render_poly
from cuspdiff.gwa import NotInImage, render_gwa
from cuspdiff.modactions import LaurentVector, render_vector
from cuspdiff.skewlaurent import LaurentOp, render_op

class CheckFailed(Exception):
    """A job's output disagrees with its independent check."""


def need(cond, message):
    if not cond:
        raise CheckFailed(message)


class Job:
    """One unit of work: run() is timed, check(result) is not.

    check returns the canonical text of the result, which feeds the output
    digest, and raises CheckFailed when the result is wrong.  A job whose run
    raises an exception of a type in ``expect`` has check called with that
    exception as its result; any other exception is a failure.
    """

    __slots__ = ("kind", "run", "check", "expect")

    def __init__(self, kind, run, check, expect=()):
        self.kind = kind
        self.run = run
        self.check = check
        self.expect = expect


def build_round(workload: str, seed: int, index: int) -> list:
    rng = Random("%s:%d:%d" % (workload, seed, index))
    jobs = ROUNDS[workload](rng)
    rng.shuffle(jobs)
    return jobs


# -- shared input helpers ---------------------------------------------------

def _coef(rng, bound=5):
    c = rng.randint(1, bound)
    return c if rng.random() < 0.5 else -c


def _rand_poly(rng, nvars, maxdeg, nterms=3):
    """A nonzero polynomial with up to nterms terms of total degree <= maxdeg."""
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        exp = [0] * nvars
        for _ in range(rng.randint(0, maxdeg)):
            exp[rng.randrange(nvars)] += 1
        terms[tuple(exp)] = _coef(rng)
    return BasePoly(nvars, terms)


def _split_poly(lead, roots):
    """lead * prod (h - r), built term by term."""
    coeffs = [Fraction(lead)]  # coeffs[e] is the coefficient of h^e
    for r in roots:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for e, c in enumerate(coeffs):
            nxt[e + 1] += c
            nxt[e] -= r * c
        coeffs = nxt
    return BasePoly(1, {(e,): c for e, c in enumerate(coeffs) if c})


def _unit(n, i, k):
    return tuple(k if j == i else 0 for j in range(n))


def _eval_terms(poly, point):
    """Evaluate from the term table with plain arithmetic (no BasePoly.eval)."""
    total = Fraction(0)
    for exp, c in poly.terms.items():
        val = Fraction(c)
        for v, e in zip(point, exp):
            val *= Fraction(v) ** e
        total += val
    return total


def _apply_direct(op, coeffs):
    """Action of a Laurent operator on {degree: scalar}, computed directly.

    d(h) x^alpha sends x^beta to d(alpha + beta + 1) x^(alpha + beta).
    """
    out = {}
    for alpha, poly in op.components.items():
        for beta, c in coeffs.items():
            val = _eval_terms(poly, [a + b + 1 for a, b in zip(alpha, beta)])
            if val:
                deg = tuple(a + b for a, b in zip(alpha, beta))
                out[deg] = out.get(deg, 0) + c * val
    return {d: c for d, c in out.items() if c}


def _grid(nvars, lo, hi):
    pts = [()]
    for _ in range(nvars):
        pts = [p + (k,) for p in pts for k in range(lo, hi + 1)]
    return pts


def _check_product_by_action(prod, left, right, nvars):
    """prod == left * right, tested by acting on monomials x^t of a window."""
    lo, hi = (-6, 6) if nvars == 1 else (-3, 3)
    for t in _grid(nvars, lo, hi):
        inner = _apply_direct(right, {t: Fraction(1)})
        need(_apply_direct(prod, {t: Fraction(1)}) == _apply_direct(left, inner),
             "product disagrees with the composed action at x^%r" % (t,))


def _bool(b):
    return "true" if b else "false"


# -- in-process CLI jobs and whole-process CLI commands ---------------------

def run_cli(argv):
    """cli.main in-process: (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def check_cli_output(argv, code, stdout, expect_code, predicate):
    need(code == expect_code, "exit %r, expected %d for %r" % (code, expect_code, argv))
    if expect_code == 2:
        need(stdout == "", "usage error printed to stdout")
        return "exit 2"
    doc = json.loads(stdout)
    need(doc.get("schema") == 1 and doc.get("command") == argv[0],
         "bad JSON envelope for %r" % (argv,))
    need(predicate(doc), "unexpected JSON for %r" % (argv,))
    return "exit %d %s" % (code, stdout.strip())


def _relations_ok(m):
    pairs = (2 * (2 * m - 1)) ** 2
    return lambda d: d["failures"] == [] and d["checked"] == pairs


def _finite_dims(m):
    return lambda d: sorted(e["dimension"] for e in d["entries"]
                            if isinstance(e["dimension"], int)) == sorted([1, m - 1])


# b = Y*h + h over bbA(2) has left coefficients h + 1 at v_{-1} and h at v_0,
# so beta_0 = beta_{-1} = h with root 0 and a = h(h-1)(h-2): not normal, and
# the least shift putting 0 - s below 0 is s = 1.
def _normalize_doc_ok(d):
    return d["normal"] is False and d["s"] == 1

# (argv, expected exit code, predicate on the JSON document).  Each set has a
# check that fails (exit 1) and a usage error (exit 2) beside the successes.
CLI_COMMANDS = {
    "ring": [
        (["relations-check", "--m", "4", "--json"], 0, _relations_ok(4)),
        (["member", "--m", "3", "--json", "d(1)"], 1, lambda d: d["member"] is False),
        (["mul", "--m", "2", "--json", "delta(("], 2, None),
    ],
    "gwa": [
        (["gwa-verify", "--m", "3", "--algebra", "calA", "--depth", "4", "--json"], 0,
         lambda d: d["failures"] == [] and d["round_trips_ok"] is True),
        (["member", "--m", "2", "--algebra", "bbA", "--json", "x"], 1,
         lambda d: d["member"] is False),
        (["gwa-verify", "--m", "2", "--json"], 2, None),
    ],
    "modules": [
        (["classify", "--m", "8", "--algebra", "bbA", "--json"], 0, _finite_dims(8)),
        (["normalize", "--m", "2", "--algebra", "bbA", "--element", "Y*h+h", "--json"],
         0, _normalize_doc_ok),
        (["stability", "--m", "2", "--window", "8", "--gens", "x", "--json"], 1,
         lambda d: d["stable"] is False),
        (["normalize", "--m", "2,3", "--algebra", "bbA", "--element", "h", "--json"],
         2, None),
    ],
}


def _cli_job(argv, expect_code, predicate):
    def check(result):
        code, stdout = result
        return check_cli_output(argv, code, stdout, expect_code, predicate)
    return Job("cli", lambda: run_cli(argv), check)


# -- ring: operator-ring jobs -----------------------------------------------

def _structure_job(rng, m):
    i = rng.choice([k for k in range(-(2 * m - 1), 2 * m) if k])
    j = rng.choice([k for k in range(-(2 * m - 1), 2 * m) if k])

    def run():
        rel = cuspops.structure_constant(m, i, j)
        lhs = cuspops.delta_op(m, (i,)) * cuspops.delta_op(m, (j,))
        return rel, lhs, lhs == rel.rhs_op(m)

    def check(result):
        rel, lhs, equal = result
        need(equal is True, "delta_%d*delta_%d != rhs at m=%d" % (i, j, m))
        left = LaurentOp.monomial(1, (i,), cuspops.phi(m, i))
        right = LaurentOp.monomial(1, (j,), cuspops.phi(m, j))
        _check_product_by_action(lhs, left, right, 1)
        return "sc %d %d %d %s %s %s" % (m, i, j, rel.case,
                                         render_poly(rel.coefficient), render_op(lhs))
    return Job("structure", run, check)


def _phi_nonconstant(shape, alpha):
    return any(a < 0 or 0 < a < mi for a, mi in zip(alpha, shape))


def _member_job(rng, shape, member):
    n = len(shape)
    coords = {}
    for _ in range(rng.randint(1, 3)):
        alpha = tuple(rng.randint(-(2 * mi - 1), 2 * mi - 1) for mi in shape)
        coords[alpha] = _rand_poly(rng, n, 2)
    comps = {a: c * cuspops.phi_multi(shape, a) for a, c in coords.items()}
    if not member:
        # a constant added where phi is not constant leaves the ring
        while True:
            beta = tuple(rng.randint(-(2 * mi - 1), 2 * mi - 1) for mi in shape)
            if _phi_nonconstant(shape, beta):
                break
        comps[beta] = comps.get(beta, BasePoly.zero(n)) + 1
    u = LaurentOp(n, comps)

    def run():
        ok = cuspops.membership(u, shape)
        try:
            return ok, cuspops.decompose(u, shape)
        except NotDivisible:
            return ok, None

    def check(result):
        ok, got = result
        need(ok is member, "membership %r, built as %r" % (ok, member))
        if not member:
            need(got is None, "decompose accepted a non-member")
            return "member %r false" % (shape,)
        need(got == coords, "decompose differs from the construction")
        return "member %r %s" % (shape, " ; ".join(
            "%r:%s" % (a, render_poly(got[a])) for a in sorted(got)))
    return Job("member", run, check)


def _commute_job(rng):
    shape = (2, 3)
    ups = rng.sample([k for k in range(-3, 4) if k], 2)
    downs = rng.sample([k for k in range(-5, 6) if k], 2)
    cu = {i: _rand_poly(rng, 1, 2).inject(2, 0) for i in ups}
    cv = {j: _rand_poly(rng, 1, 2).inject(2, 1) for j in downs}
    u = LaurentOp(2, {(i, 0): c * cuspops.phi_multi(shape, (i, 0)) for i, c in cu.items()})
    v = LaurentOp(2, {(0, j): c * cuspops.phi_multi(shape, (0, j)) for j, c in cv.items()})
    # generators of distinct factors commute, and each product of two
    # single-factor deltas is the delta of the combined degree
    expected = LaurentOp(2, {(i, j): cu[i] * cv[j] * cuspops.phi_multi(shape, (i, j))
                             for i in ups for j in downs})

    def run():
        return u * v, v * u

    def check(result):
        uv, vu = result
        need(uv == expected and vu == expected, "cross-factor products differ")
        return "commute %s" % render_op(uv)
    return Job("commute", run, check)


def _expr_term(rng, shape):
    """(text, degree, coefficient) of one random summand of an expression."""
    n = len(shape)
    f = rng.randrange(n)
    hname = "h" if n == 1 else "h%d" % (f + 1)
    at = "" if n == 1 else "@%d" % (f + 1)
    hvar = BasePoly.variable(n, f)
    c = Fraction(rng.randint(1, 5), rng.choice([2, 3]) if rng.random() < 0.2 else 1)
    ctext = "%d/%d" % (c.numerator, c.denominator) if c.denominator > 1 else str(c)
    kind = rng.randrange(4)
    k = rng.choice([v for v in range(-(2 * shape[f] - 1), 2 * shape[f]) if v])
    alpha = _unit(n, f, k)
    phi = cuspops.phi_multi(shape, alpha)
    if kind == 0:
        text, poly = "%s*delta(%d%s)" % (ctext, k, at), phi
    elif kind == 1:
        e = rng.randint(1, 2)
        text = "%s*%s^%d*delta(%d%s)" % (ctext, hname, e, k, at)
        poly = hvar ** e * phi
    elif kind == 2:
        # x^k * d = shift(d, k) * x^k puts the h on the right through the shift
        text = "%s*delta(%d%s)*%s" % (ctext, k, at, hname)
        poly = phi * (hvar - k)
    else:
        xname = "x" if n == 1 else "x%d" % (f + 1)
        text, poly = "%s*%s^%d" % (ctext, xname, k), BasePoly.one(n)
    sign = 1 if rng.random() < 0.7 else -1
    return text, sign, alpha, poly * (c * sign)


def _expression(rng, shape):
    n = len(shape)
    texts, comps = [], {}
    for idx in range(rng.randint(1, 3)):
        text, sign, alpha, poly = _expr_term(rng, shape)
        if idx == 0:
            texts.append(("-" if sign < 0 else "") + text)
        else:
            texts.append((" - " if sign < 0 else " + ") + text)
        comps[alpha] = comps.get(alpha, BasePoly.zero(n)) + poly
    return "".join(texts), LaurentOp(n, comps)


def _parse_job(rng):
    shape = rng.choice([(2,), (3,), (4,), (2, 3)])
    text_a, op_a = _expression(rng, shape)
    text_b, op_b = _expression(rng, shape)

    def run():
        a = exprparse.parse_expression(text_a, shape)
        b = exprparse.parse_expression(text_b, shape)
        return a, b, a * b

    def check(result):
        a, b, prod = result
        need(a == op_a, "parse of %r differs from its construction" % text_a)
        need(b == op_b, "parse of %r differs from its construction" % text_b)
        _check_product_by_action(prod, op_a, op_b, len(shape))
        return "parse %s" % render_op(prod)
    return Job("parse", run, check)


def _ring_cli_jobs(rng):
    m = rng.randint(2, 5)
    # delta(-1) delta(1) = h (h - 1)(h - m)
    text = "(h^3-%d*h^2+%d*h)" % (m + 1, m)
    return [
        _cli_job(["relations-check", "--m", "3", "--json"], 0, _relations_ok(3)),
        _cli_job(["mul", "--m", str(m), "--json", "delta(-1)*delta(1)"], 0,
                 lambda d: d["text"] == text),
        _cli_job(["member", "--m", str(rng.randint(2, 5)), "--json", "d(1)"], 1,
                 lambda d: d["member"] is False),
    ]


def ring_round(rng):
    jobs = []
    for m in range(2, 9):
        jobs += [_structure_job(rng, m) for _ in range(5)]
    for k in range(24):
        jobs.append(_member_job(rng, (rng.randint(2, 8),), member=k % 2 == 0))
    for k in range(16):
        jobs.append(_member_job(rng, (2, 3), member=k % 2 == 0))
    jobs += [_commute_job(rng) for _ in range(16)]
    jobs += [_parse_job(rng) for _ in range(16)]
    jobs += _ring_cli_jobs(rng)
    return jobs


# -- gwa: presentations, products and pullbacks -----------------------------

def _presentation(algebra, shape):
    if algebra == "calA":
        return cuspops.calA_presentation(shape)
    if algebra == "bbA":
        return cuspops.bbA_presentation(shape)
    return cuspops.weyl_presentation(len(shape))


def _expected_checks(n, extra):
    """Number of named checks verify_presentation reports."""
    samples = 1 + 2 * n + extra
    return n * (2 + 2 * samples) + 4 * (n * (n - 1) // 2) + 1


def _verify_job(rng, algebra, shape, depth):
    # a fresh presentation per job, so no job inherits another's pair cache
    pres, _ = _presentation(algebra, shape)
    extra = tuple(_rand_poly(rng, len(shape), 2) for _ in range(2))

    def run():
        return gwa.verify_presentation(pres, depth, extra_base=extra)

    def check(report):
        need(report.ok, "%s %r fails %s" % (algebra, shape,
                                            [c.name for c in report.failures()]))
        need(len(report.checks) == _expected_checks(len(shape), len(extra)),
             "unexpected number of checks")
        return "verify %s %r %d %s" % (algebra, shape, depth,
                                       ",".join(c.name for c in report.checks))
    return Job("verify", run, check)


def _gwa_element(rng, pres):
    """Coordinate degrees <= 4 (rank 1) or <= 2 per factor, coefficient degree <= 3."""
    n = pres.nvars
    coords = {}
    for _ in range(rng.randint(1, 3)):
        if n == 1:
            alpha = (rng.randint(-4, 4),)
        else:
            alpha = tuple(rng.randint(-2, 2) for _ in range(n))
        coords[alpha] = _rand_poly(rng, n, 3 if n == 1 else 2)
    return pres.element(coords)


_PRODUCT_PRESENTATIONS = [("calA", (2,)), ("calA", (3,)), ("calA", (4,)),
                          ("bbA", (2,)), ("bbA", (3,)), ("weyl", (1,)),
                          ("calA", (2, 3)), ("bbA", (2, 3))]


def _product_job(rng, pres, emb):
    u = _gwa_element(rng, pres)
    v = _gwa_element(rng, pres)

    def run():
        return gwa.gwa_multiply(u, v)

    def check(uv):
        need(emb.apply(uv) == emb.apply(u) * emb.apply(v),
             "GWA product disagrees with its Laurent image")
        return "product %s" % render_gwa(uv)
    return Job("product", run, check)


def _roundtrip_job(rng, pres, emb, in_image):
    u = _gwa_element(rng, pres)
    if in_image:
        def run():
            return emb.pullback(emb.apply(u))

        def check(back):
            need(back == u, "pullback(apply(u)) != u")
            return "roundtrip %s" % render_gwa(back)
        return Job("roundtrip", run, check)
    # one step down in the first factor the Y image has a nonconstant
    # coefficient, so adding 1 there leaves the image
    n = pres.nvars
    op = emb.apply(u) + LaurentOp.monomial(n, _unit(n, 0, -pres.steps[0]), 1)

    def run_bad():
        return emb.pullback(op)

    def check_bad(result):
        need(isinstance(result, NotInImage), "pullback accepted a non-image operator")
        return "roundtrip not-in-image"
    return Job("roundtrip", run_bad, check_bad, expect=NotInImage)


# (algebra, shape, depth) of the verifications in every round: the rank-2
# depth-3 sweep, rank 2 at depth 2 and rank 1 at depth 5-6.  They take most
# of a round's time, so they set jobs_per_s; the 400 products and round trips
# beside them give job_p50_ms and job_p90_ms enough samples.
_VERIFY_CONFIGS = [("calA", (2, 3), 3),
                   ("calA", (2, 3), 2), ("bbA", (2, 3), 2), ("weyl", (2, 2), 2),
                   ("calA", (3,), 5), ("bbA", (3,), 5), ("weyl", (1,), 5),
                   ("calA", (2,), 6), ("bbA", (4,), 6)]


def gwa_round(rng):
    jobs = [_verify_job(rng, *config) for config in _VERIFY_CONFIGS]
    built = {key: _presentation(*key) for key in _PRODUCT_PRESENTATIONS}
    for k in range(240):
        jobs.append(_product_job(rng, *built[_PRODUCT_PRESENTATIONS[k % 8]]))
    for k in range(160):
        jobs.append(_roundtrip_job(rng, *built[_PRODUCT_PRESENTATIONS[k % 8]],
                                   in_image=k % 4 != 3))
    jobs.append(_cli_job(["gwa-verify", "--m", "2", "--algebra", "bbA", "--depth", "1",
                          "--pairs", "4", "--seed", str(rng.randint(0, 999)), "--json"],
                         0, lambda d: d["failures"] == [] and d["round_trips_ok"] is True))
    return jobs


# -- modules: normalization, classification and module actions --------------

def _bbA_roots(m):
    return [Fraction(0), Fraction(1), Fraction(m)]


def _least_shift(roots0, others, step):
    """Least s >= 0 with r - s*step below every integer-comparable root."""
    s = 0
    for r in roots0:
        for t in others:
            if (r - t).denominator == 1 and r >= t:
                s = max(s, int((r - t) // step) + 1)
    return s


def _roots_less(aroots, broots):
    return all(not ((r - t).denominator == 1 and r >= t) for r in aroots for t in broots)


_ROOT_POOL = [Fraction(v) for v in range(-3, 5)]

# (m', shift count) of the normalizations in every round.  The degrees of
# the coefficients follow from the slot too, so each round holds the same
# spread of sizes and the heavy ones (m' = 3 with a large shift) keep a
# fixed share; the seed picks the roots and leading coefficients.
_NORMALIZE_SLOTS = [(mp, s) for mp in range(4) for s in range(8)]


def _slot_degrees(mprime, target):
    """Degree of the left coefficient at each v_{-k}, k = 0..m'."""
    # a shift count of 5 or more needs two roots of beta_0 far apart
    deg0 = 0 if target == 0 else 3 if target >= 5 else 1 + (mprime + target) % 3
    return [deg0] + [1 + (k + target) % 3 for k in range(1, mprime + 1)]


def _normal_candidate(rng, mprime, target):
    degrees = _slot_degrees(mprime, target)
    for _ in range(100000):
        m = rng.randint(2, 4)
        left_roots = [[rng.choice(_ROOT_POOL) for _ in range(d)] for d in degrees]
        roots0 = left_roots[0]
        # the right coefficient at v_{-m'} is the left one shifted by m'
        rootsm = [r + mprime for r in left_roots[mprime]]
        s = _least_shift(roots0, rootsm + roots0 + _bbA_roots(m), 1)
        if s == target:
            break
    else:
        raise RuntimeError("no candidate with m'=%d and shift %d" % (mprime, target))
    pres, _ = cuspops.bbA_presentation(m)
    leads = [rng.choice([1, 2, 3, -1, -2]) for _ in left_roots]
    b = pres.element({(-k,): _split_poly(lead, roots)
                      for k, (lead, roots) in enumerate(zip(leads, left_roots))})
    return b, m, s, leads, left_roots


def _expected_normalization(m, s, leads, left_roots):
    """alpha, beta and the normalized coordinates, from the roots alone.

    sigma^{-i} moves every root down by i, alpha = prod_{i=0}^{s} sigma^{-i}(beta_0)
    and beta = prod_{i=1}^{s+m'} sigma^{-i}(beta_0), and coordinate k of the
    result is beta * c_k / sigma^{-k}(alpha).
    """
    mprime = len(left_roots) - 1
    roots0, lead0 = left_roots[0], leads[0]
    alpha_roots = [r - i for i in range(s + 1) for r in roots0]
    beta_roots = [r - i for i in range(1, s + mprime + 1) for r in roots0]
    coords = {}
    for k, (lead, roots) in enumerate(zip(leads, left_roots)):
        rest = Counter(beta_roots) + Counter(roots)
        rest.subtract(r - k for r in alpha_roots)
        need(min(rest.values(), default=0) >= 0, "sigma^-%d(alpha) does not divide beta*c" % k)
        # leading coefficients: lead0^(s+m') * lead / lead0^(s+1)
        coords[k] = (Fraction(lead0) ** (mprime - 1) * lead, sorted(rest.elements()))
    # the result is normal: beta_0 below beta_{-m'} (shifted up by m') and below a
    top = [r + mprime for r in coords[mprime][1]]
    need(_roots_less(coords[0][1], top) and _roots_less(coords[0][1], _bbA_roots(m)),
         "the expected normalized element is not normal")
    return (_split_poly(Fraction(lead0) ** (s + 1), alpha_roots),
            _split_poly(Fraction(lead0) ** (s + mprime), beta_roots),
            {(-k,): _split_poly(lead, roots) for k, (lead, roots) in coords.items()})


def _normalize_job(rng, mprime, target):
    b, m, s, leads, left_roots = _normal_candidate(rng, mprime, target)
    roots0, rootsm = left_roots[0], [r + mprime for r in left_roots[mprime]]
    was_normal = _roots_less(roots0, rootsm) and _roots_less(roots0, _bbA_roots(m))

    def run():
        return classify.is_normal(b), classify.normalize(b)

    def check(result):
        normal, res = result
        need(normal is was_normal, "is_normal(b) is %r, roots say %r" % (normal, was_normal))
        need(res.s == s, "shift %d, least shift from the roots is %d" % (res.s, s))
        alpha, beta, coords = _expected_normalization(m, s, leads, left_roots)
        need(res.alpha == alpha and res.beta == beta, "multipliers differ from the roots")
        need(res.normalized.coords == coords, "normalized element differs from the roots")
        return "normalize %s | %d %s" % (render_gwa(b), res.s, render_gwa(res.normalized))
    return Job("normalize", run, check)


def _classify_job(rng):
    m = rng.randint(2, 12)

    def run():
        return classify.classify_bbA(m)

    def check(entries):
        need(len(entries) == 5 and entries[4].module is None,
             "expected four intervals and a family")
        finite = sorted(e.dimension for e in entries[:4] if e.module.finite)
        need(finite == sorted([1, m - 1]), "finite dimensions %r at m=%d" % (finite, m))
        return "classify %d %s" % (m, json.dumps([e.to_json() for e in entries], sort_keys=True))
    return Job("classify", run, check)


def _partition_job(rng):
    pool = [Fraction(v) for v in range(-3, 7)] + \
        [Fraction(2 * v + 1, 2) for v in range(-2, 3)] + [Fraction(1, 3), Fraction(-5, 3)]
    roots = [rng.choice(pool) for _ in range(rng.randint(2, 5))]
    a = _split_poly(rng.choice([1, 2, -3]), roots)
    rep = rng.choice(roots + [Fraction(2, 5)])
    orbit = classify.Orbit(rep)
    marks = sorted({r for r in roots if (r - rep).denominator == 1})
    if marks:
        expected = [("left_ray", None, marks[0])]
        expected += [("half_open", lo, hi) for lo, hi in zip(marks, marks[1:])]
        expected.append(("right_ray", marks[-1], None))
    else:
        expected = [("full", None, None)]

    def run():
        return classify.partition_orbit(a, orbit)

    def check(pieces):
        got = [(g.kind, g.lower.root if g.lower else None, g.upper.root if g.upper else None)
               for g in pieces]
        need(got == expected, "orbit pieces %r, roots give %r" % (got, expected))
        return "partition %s %s %s" % (render_poly(a), rep, "; ".join(g.render() for g in pieces))
    return Job("partition", run, check)


def _stability_job(rng, stable):
    m = rng.randint(2, 4)
    gens = cuspops.generating_set(m)
    if not stable:
        gens.append(LaurentOp.x(1, 0, rng.randint(1, m - 1)))
    mask = modactions.cusp_mask(m)

    def run():
        return modactions.stability_check(gens, mask, 4 * m)

    def check(ok):
        need(ok is stable, "stability %r, expected %r" % (ok, stable))
        return "stability %d %d %s" % (m, len(gens), _bool(ok))
    return Job("stability", run, check)


def _probe_job(rng, module, honest):
    m = rng.randint(2, 5)
    # a degree one jump never crosses the gap, so the deliberately wrong probe fails
    jump = None if honest else 1

    def run():
        return modactions.simplicity_probe(module, m, 4 * m, gap_jump=jump)

    def check(ok):
        need(ok is honest, "probe %s m=%d gave %r" % (module, m, ok))
        return "probe %s %d %s" % (module, m, _bool(ok))
    return Job("probe", run, check)


def _act_job(rng):
    shape = rng.choice([(2,), (3,), (5,), (2, 3)])
    n = len(shape)
    comps = {}
    for _ in range(rng.randint(2, 4)):
        alpha = tuple(rng.randint(-(2 * mi - 1), 2 * mi - 1) for mi in shape)
        comps[alpha] = _rand_poly(rng, n, 2) * cuspops.phi_multi(shape, alpha)
    op = LaurentOp(n, comps)
    coeffs = {}
    for _ in range(rng.randint(3, 6)):
        beta = tuple(rng.randint(-8, 8) for _ in range(n))
        coeffs[beta] = Fraction(_coef(rng), rng.choice([1, 1, 2]))
    vec = LaurentVector(n, coeffs)

    def run():
        return modactions.act(op, vec)

    def check(w):
        need(w.coeffs == _apply_direct(op, coeffs), "action differs from direct evaluation")
        return "act %s" % render_vector(w)
    return Job("act", run, check)


def modules_round(rng):
    jobs = [_normalize_job(rng, mp, s) for mp, s in _NORMALIZE_SLOTS]
    jobs += [_classify_job(rng) for _ in range(10)]
    jobs += [_partition_job(rng) for _ in range(12)]
    jobs += [_stability_job(rng, stable=k != 2) for k in range(3)]
    jobs += [_probe_job(rng, module, honest=k != 1)
             for module in ("A", "Aprime") for k in range(3)]
    jobs += [_act_job(rng) for _ in range(36)]
    jobs.append(_cli_job(["classify", "--m", str(rng.randint(2, 12)), "--algebra", "bbA",
                          "--json"], 0, lambda d: len(d["entries"]) == 5))
    jobs.append(_cli_job(["normalize", "--m", "2", "--algebra", "bbA", "--element",
                          "Y*h+h", "--json"], 0, _normalize_doc_ok))
    return jobs


ROUNDS = {"ring": ring_round, "gwa": gwa_round, "modules": modules_round}
