"""Acceptance gate: the thirteen end-to-end criteria, one test and one printed
PASS/FAIL line each, and two for criterion 12 (its operator and module
halves).  Everything is exact arithmetic; the runtime-bounded sweeps are
seeded and deterministic.  Criterion 13 is the centre half of the claim that
D(A(m)) is central simple: a proof per width, checked on a trial space."""

import json
import random
import time
from fractions import Fraction

from cuspdiff.classify import classify_bbA, is_normal, normalize
from cuspdiff.cli import main as cli_main
from cuspdiff.cuspops import (CuspShape, bbA_presentation, calA_presentation,
                              decompose, delta_op, factor_generators,
                              generating_set, membership, structure_constant,
                              w_minus)
from cuspdiff.exactpoly import BasePoly, NotDivisible
from cuspdiff.exprparse import parse_expression
from cuspdiff.gwa import GwaElement, gwa_multiply
from cuspdiff.modactions import (LaurentVector, WeightSupport, act,
                                 act_on_quotient, cusp_mask, quotient_mask,
                                 restriction_blocks, simplicity_probe,
                                 stability_check, support)
from cuspdiff.skewlaurent import (LaurentOp, commutator, monomial_product,
                                  render_op)

H = BasePoly.variable(1, 0)


def _report(n, ok, detail, cap):
    """One line per criterion, printed past the capture layer."""
    verdict = "PASS" if ok else "FAIL"
    line = "CRITERION %d: %s" % (n, verdict)
    if detail:
        line += " (%s)" % detail
    with cap.disabled():
        print(line, flush=True)
    return line


def test_criterion_01_defining_relations_exact(capfd):
    start = time.monotonic()
    failures = []
    pairs = 0
    for m in range(2, 7):
        shape = CuspShape((m,))
        indices = [k for k in range(-2 * m + 1, 2 * m) if k != 0]
        for i in indices:
            for j in indices:
                pairs += 1
                try:
                    rel = structure_constant(shape, i, j)
                except NotDivisible:
                    failures.append((m, i, j, "division"))
                    continue
                lhs = delta_op(shape, (i,)) * delta_op(shape, (j,))
                if lhs != rel.rhs_op(shape):
                    failures.append((m, i, j, rel.case))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10.0
    line = _report(1, ok, "%d pairs, m=2..6, %.2f s" % (pairs, elapsed), capfd)
    assert ok, line + " failures=%r" % failures[:5]


def test_criterion_02_semigroup_identities(capfd):
    failures = []
    for m in range(2, 7):
        shape = CuspShape((m,))
        for i in range(m, 3 * m + 1):
            for j in range(m, 3 * m + 1):
                if delta_op(shape, (-i,)) * delta_op(shape, (-j,)) != \
                        delta_op(shape, (-i - j,)):
                    failures.append((m, -i, -j))
                if delta_op(shape, (i,)) * delta_op(shape, (j,)) != \
                        delta_op(shape, (i + j,)):
                    failures.append((m, i, j))
    ok = not failures
    line = _report(2, ok, "m=2..6, m <= i,j <= 3m both signs", capfd)
    assert ok, line + " failures=%r" % failures[:5]


def _random_gwa_element(pres, rng):
    """Coordinate degrees <= 4, coefficient degrees <= 3."""
    coords = {}
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(-4, 4)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[(rng.randint(0, 3),)] = rng.randint(-9, 9)
        poly = BasePoly(1, terms)
        if not poly.is_zero():
            coords[(deg,)] = poly
    return GwaElement(pres, coords)


def test_criterion_03_gwa_laurent_oracle(capfd):
    start = time.monotonic()
    rng = random.Random(20240308)
    configs = [calA_presentation(2), calA_presentation(3),
               calA_presentation(4), bbA_presentation(2)]
    checked = 0
    failures = []
    for pres, emb in configs:
        for _ in range(250):
            u = _random_gwa_element(pres, rng)
            v = _random_gwa_element(pres, rng)
            left = emb.apply(gwa_multiply(u, v))
            right = emb.apply(u) * emb.apply(v)
            checked += 1
            if left != right:
                failures.append((pres.a, u.coords, v.coords))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30.0
    line = _report(3, ok, "%d seeded pairs, %.2f s" % (checked, elapsed), capfd)
    assert ok, line + " failures=%d" % len(failures)


def _weyl_generator_roots(m, i):
    """Roots of the monic coefficient c(h) of w_{-i} = c(h) x^{-i}, read off
    the definitions rather than from cuspops.

    On monomials h x^k = (k+1) x^k, so c(h) x^{-i} sends x^k to
    c(k-i+1) x^{k-i}.  It must vanish at k - i + 1 wherever x^k lies in
    A(m) = span{x^k : k in S}, S = {0} u [m, oo), and x^{k-i} does not
    (D(A) = {theta : theta(A) in A}), and wherever 0 <= k < i (the Weyl
    algebra keeps polynomials).  For k >= i + m both x^k and x^{k-i} lie in
    A(m), so the window k < i + m is complete.
    """
    def in_s(k):
        return k == 0 or k >= m
    roots = {k - i + 1 for k in range(i + m) if in_s(k) and not in_s(k - i)}
    roots |= {k - i + 1 for k in range(i)}
    return sorted(roots)


def _generator_mismatch(w, m, i):
    """None if w is prod_{r in roots} (h - r) x^{-i}, else what differs.

    The coefficient is evaluated from its stored terms by plain integer
    arithmetic at len(roots) + 1 points past every root; with equal degrees
    that many points pin the polynomial down.
    """
    if set(w.components) != {(-i,)}:
        return "degrees %r" % sorted(w.components)
    roots = _weyl_generator_roots(m, i)
    terms = w.components[(-i,)].terms
    degree = max(e[0] for e in terms)
    if degree != len(roots):
        return "degree %d, expected %d" % (degree, len(roots))
    for t in range(m + 1, m + 2 + len(roots)):
        got = sum(c * t ** e[0] for e, c in terms.items())
        expected = 1
        for r in roots:
            expected *= t - r
        if got != expected:
            return "c(%d) = %s, expected %d" % (t, got, expected)
    return None


def test_criterion_04_weyl_intersection_identities(capfd):
    # the identity list (a)-(f) for m = 2..6, with the universally quantified
    # family (a) swept over i = m..m+4.  Parts (a) and (c) carry the forms the
    # definitions force, w(-i)w(-1) = (h+i-m) w(-i-1),
    # [w(-i), w(-1)] = (i-m+1) w(-i-1) and w(-1)^m = (h-1) w(-m); they agree
    # with the printed list at i = m.  docs/ERRATA.md gives the printed
    # coefficients and why they fail.  The generators themselves are checked
    # first against the vanishing conditions of D(A(m)) and A_1, so that a
    # wrong w_minus cannot pass (a)-(f) by agreeing with itself.
    failures = []
    for m in range(2, 7):
        shape = CuspShape((m,))
        for i in range(1, m + 6):
            why = _generator_mismatch(w_minus(shape, i), m, i)
            if why is not None:
                failures.append((m, "gen", "w(-%d): %s" % (i, why)))
        w1 = w_minus(shape, 1)
        d1 = delta_op(shape, (1,))
        # (a) w_{-i} w_{-1} = (h+i-m) w_{-i-1}, w_{-1} w_{-i} = (h-1) w_{-1-i},
        #     [w_{-i}, w_{-1}] = (i-m+1) w_{-i-1}, for all i >= m
        for i in range(m, m + 5):
            wi = w_minus(shape, i)
            wnext = w_minus(shape, i + 1)
            if wi * w1 != LaurentOp.from_poly(H + (i - m)) * wnext:
                failures.append((m, "a", "w(-%d)w(-1) = (h%+d) w(-%d)"
                                 % (i, i - m, i + 1)))
            if w1 * wi != LaurentOp.from_poly(H - 1) * wnext:
                failures.append((m, "a", "w(-1)w(-%d) = (h-1) w(-%d)" % (i, i + 1)))
            if commutator(wi, w1) != (i - m + 1) * wnext:
                failures.append((m, "a", "[w(-%d), w(-1)] = %d w(-%d)"
                                 % (i, i - m + 1, i + 1)))
        # (b) (w_{-1})^i = w_{-i} below the width
        for i in range(1, m):
            if w1 ** i != w_minus(shape, i):
                failures.append((m, "b", "w(-1)^%d = w(-%d)" % (i, i)))
        # (c) (w_{-1})^m = (h-1) w_{-m}
        if w1 ** m != LaurentOp.from_poly(H - 1) * w_minus(shape, m):
            failures.append((m, "c", "w(-1)^%d = (h-1) w(-%d)" % (m, m)))
        # (d) [delta_1, x^i] = i x^{i+1}
        for i in range(1, 2 * m):
            xi = LaurentOp.x(1, 0, i)
            if commutator(d1, xi) != i * LaurentOp.x(1, 0, i + 1):
                failures.append((m, "d", "[delta(1), x^%d]" % i))
        # (e) w_{-1} delta_1 = h(h-1)(h-m), delta_1 w_{-1} = (h-1)(h-2)(h-m-1)
        if w1 * d1 != LaurentOp.from_poly(H * (H - 1) * (H - m)):
            failures.append((m, "e", "w(-1)delta(1)"))
        if d1 * w1 != LaurentOp.from_poly((H - 1) * (H - 2) * (H - m - 1)):
            failures.append((m, "e", "delta(1)w(-1)"))
        # (f) w_{-1} delta_i = h(h-m) delta_{i-1},
        #     delta_i w_{-1} = (h-i-1)(h-i-m) delta_{i-1}, for 2 <= i <= m-1
        for i in range(2, m):
            di = delta_op(shape, (i,))
            dprev = delta_op(shape, (i - 1,))
            if w1 * di != LaurentOp.from_poly(H * (H - m)) * dprev:
                failures.append((m, "f", "w(-1)delta(%d)" % i))
            if di * w1 != LaurentOp.from_poly((H - i - 1) * (H - i - m)) * dprev:
                failures.append((m, "f", "delta(%d)w(-1)" % i))
    ok = not failures
    detail = ("generators i=1..m+5 and derived identities m=2..6, "
              "printed forms in docs/ERRATA.md")
    if failures:
        parts = sorted({p for _, p, _ in failures})
        detail += "; %d instances fail in parts %s" % (len(failures),
                                                       ",".join(parts))
    line = _report(4, ok, detail, capfd)
    assert ok, line + " first failures: %r" % failures[:6]


def test_criterion_05_degree_pair_values(capfd):
    failures = []
    for m in range(3, 7):
        shape = CuspShape((m,))
        d1, dm1 = delta_op(shape, (1,)), delta_op(shape, (-1,))
        d2, dm2 = delta_op(shape, (2,)), delta_op(shape, (-2,))
        checks = [
            ("delta(-1)delta(1)", dm1 * d1, H * (H - 1) * (H - m)),
            ("delta(1)delta(-1)", d1 * dm1, (H - 1) * (H - 2) * (H - m - 1)),
            ("delta(-2)delta(2)", dm2 * d2,
             (H + 1) * (H - m + 1) * (H - m) * (H - 1)),
            ("delta(2)delta(-2)", d2 * dm2,
             (H - 3) * (H - 1) * (H - m - 1) * (H - m - 2)),
        ]
        for name, got, expected in checks:
            if got != LaurentOp.from_poly(expected):
                failures.append((m, name))
    # degenerate width two: delta_2 = x^2 since phi_2 = 1
    shape = CuspShape((2,))
    d1, dm1 = delta_op(shape, (1,)), delta_op(shape, (-1,))
    d2, dm2 = delta_op(shape, (2,)), delta_op(shape, (-2,))
    checks = [
        ("delta(2) = x^2", d2, LaurentOp.x(1, 0, 2)),
        ("delta(-1)delta(1)", dm1 * d1,
         LaurentOp.from_poly(H * (H - 1) * (H - 2))),
        ("delta(1)delta(-1)", d1 * dm1,
         LaurentOp.from_poly((H - 1) * (H - 2) * (H - 3))),
        ("delta(-2)delta(2)", dm2 * d2,
         LaurentOp.from_poly((H + 1) * (H - 2))),
        ("delta(2)delta(-2)", d2 * dm2,
         LaurentOp.from_poly((H - 1) * (H - 4))),
    ]
    for name, got, expected in checks:
        if got != expected:
            failures.append((2, name))
    ok = not failures
    line = _report(5, ok, "m=3..6 plus the degenerate m=2 reading", capfd)
    assert ok, line + " failures=%r" % failures


def test_criterion_06_stability_and_gap_transitions(capfd):
    failures = []
    for m in range(2, 7):
        shape = CuspShape((m,))
        if not stability_check(generating_set(shape), cusp_mask(shape), 4 * m):
            failures.append((m, "stability"))
        if not simplicity_probe("A", shape, 4 * m):
            failures.append((m, "gap transitions A"))
        if not simplicity_probe("Aprime", shape, 4 * m):
            failures.append((m, "gap transitions Aprime"))
        sup_a = support(cusp_mask(shape))
        sup_q = support(quotient_mask(shape))
        for r in range(-20, 21):
            if sup_a.contains_root(r) == sup_q.contains_root(r):
                failures.append((m, "support partition at root %d" % r))
                break
    ok = not failures
    line = _report(6, ok, "window 4m, supports on [-20, 20], m=2..6", capfd)
    assert ok, line + " failures=%r" % failures


def test_criterion_07_classification_dimensions(capfd):
    failures = []
    for m in range(2, 9):
        entries = classify_bbA(m)
        finite = [e for e in entries[:4] if e.module is not None
                  and e.module.finite]
        dims = sorted(e.dimension for e in finite)
        if dims != sorted([1, m - 1]):
            failures.append((m, "dims %r" % dims))
        blocks_a, blocks_q = restriction_blocks(m)
        independent = {WeightSupport(b.translate(1))
                       for b in blocks_a + blocks_q}
        classified = {e.support for e in entries[:4]}
        if independent != classified:
            failures.append((m, "support mismatch"))
    ok = not failures
    line = _report(7, ok, "two finite simples of dimensions {1, m-1}, m=2..8", capfd)
    assert ok, line + " failures=%r" % failures


def _random_normal_candidate(pres, rng):
    """Shape sum v_{-k} beta_{-k}: split coefficients, degree <= 3, m' <= 3."""
    mprime = rng.randint(0, 3)
    coords = {}
    for k in range(0, mprime + 1):
        if k not in (0, mprime) and rng.random() < 0.3:
            continue
        c = BasePoly.constant(1, rng.choice([1, 2, 3, -1, -2]))
        for _ in range(rng.randint(0, 3)):
            root = rng.choice([-3, -2, -1, 0, 1, 2, 3, 4])
            c = c * (H - root)
        coords[(-k,)] = c
    return GwaElement(pres, coords)


def _reference_roots_less(aroots, broots):
    """The strict orbit order pair by pair, as classify computed it before it
    grouped roots by orbit: each integer-comparable pair r, s has r < s."""
    return all(r < s for r in aroots for s in broots
               if (r - s).denominator == 1)


def _minimality_witness(b, s):
    """True when shift count s satisfies the three orbit-order conditions."""
    from cuspdiff.classify import _nonpositive_coords, _split_roots
    mprime, left = _nonpositive_coords(b)
    pres = b.presentation
    step = pres.steps[0]
    # the right coefficient at v_{-k} is sigma^{k step} of the left one
    roots0 = _split_roots(left[0])
    rootsm = _split_roots(left[mprime].shift([mprime * step]))
    shifted = [r - s * step for r in roots0]
    return (_reference_roots_less(shifted, rootsm)
            and _reference_roots_less(shifted, roots0)
            and _reference_roots_less(shifted, _split_roots(pres.a[0])))


def test_criterion_08_normalization(capfd):
    rng = random.Random(20240570)
    presentations = [bbA_presentation(2)[0], bbA_presentation(3)[0],
                     bbA_presentation(4)[0]]
    failures = []
    for trial in range(500):
        pres = presentations[trial % 3]
        b = _random_normal_candidate(pres, rng)
        result = normalize(b)
        if not is_normal(result.normalized):
            failures.append((trial, "not normal"))
        if result.s > 0 and _minimality_witness(b, result.s - 1):
            failures.append((trial, "s not minimal"))
    ok = not failures
    line = _report(8, ok, "500 seeded elements, m' <= 3, coefficients split", capfd)
    assert ok, line + " failures=%r" % failures[:5]


def test_criterion_09_rank_two_consistency(capfd):
    shape = CuspShape((2, 3))
    failures = []
    # generators of distinct factors commute
    factor_gens = []
    for idx, mi in enumerate(shape.m):
        gens = [LaurentOp.h(2, idx)]
        for k in range(1, 2 * mi):
            for signed in (k, -k):
                alpha = tuple(signed if j == idx else 0 for j in range(2))
                gens.append(delta_op(shape, alpha))
        factor_gens.append(gens)
    for g1 in factor_gens[0]:
        for g2 in factor_gens[1]:
            if g1 * g2 != g2 * g1:
                failures.append(("commutation", render_op(g1), render_op(g2)))
    # membership and decompose factor through the tensor decomposition
    rng = random.Random(20249)
    for trial in range(200):
        u1 = _random_factor_op(2, rng)
        u2 = _random_factor_op(3, rng)
        u = _tensor(u1, u2)
        member = membership(u, shape)
        expected = membership(u1, 2) and membership(u2, 3)
        if member != expected:
            failures.append(("membership", trial))
            continue
        if member:
            coords = decompose(u, shape)
            c1 = decompose(u1, 2)
            c2 = decompose(u2, 3)
            product = {}
            for (a1,), p1 in c1.items():
                for (a2,), p2 in c2.items():
                    product[(a1, a2)] = p1.inject(2, 0) * p2.inject(2, 1)
            if coords != product:
                failures.append(("decompose", trial))
    ok = not failures
    line = _report(9, ok, "m=(2,3), cross-factor pairs and 200 random elements", capfd)
    assert ok, line + " failures=%r" % failures[:5]


def _random_factor_op(m, rng):
    """Nonzero rank-one operator; half the time a member by construction."""
    shape = CuspShape((m,))
    u = LaurentOp.zero(1)
    as_member = rng.random() < 0.5
    for _ in range(rng.randint(1, 2)):
        deg = rng.randint(-3, 3)
        coeff = BasePoly(1, {(rng.randint(0, 2),): rng.randint(-5, 5)})
        if coeff.is_zero():
            coeff = BasePoly.one(1)
        if as_member:
            u = u + LaurentOp.from_poly(coeff) * delta_op(shape, (deg,))
        else:
            u = u + LaurentOp.monomial(1, (deg,), coeff)
    if u.is_zero():
        u = LaurentOp.one(1)
    return u


def _tensor(u1, u2):
    out = LaurentOp.zero(2)
    for d1, c1 in u1.components.items():
        for d2, c2 in u2.components.items():
            out = out + LaurentOp.monomial(
                2, (d1[0], d2[0]), c1.inject(2, 0) * c2.inject(2, 1))
    return out


def test_criterion_10_cli_determinism(capsys):
    failures = []
    outputs = []
    for _ in range(2):
        code = cli_main(["relations-check", "--m", "2", "--json"])
        outputs.append(capsys.readouterr().out)
        if code != 0:
            failures.append("relations-check exit %d" % code)
    if outputs[0] != outputs[1]:
        failures.append("output differs between runs")
    if json.loads(outputs[0]).get("schema") != 1:
        failures.append("missing schema tag")
    # golden corpus round trip
    rng = random.Random(2024)
    for n in range(100):
        u = LaurentOp.zero(1)
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(-4, 4)
            coeff = BasePoly(1, {(rng.randint(0, 3),): rng.randint(-9, 9)})
            u = u + LaurentOp.monomial(1, (deg,), coeff)
        if parse_expression(render_op(u), 2) != u:
            failures.append("round trip %d" % n)
            break
    ok = not failures
    line = _report(10, ok, "byte-identical JSON, 100-string corpus", capsys)
    assert ok, line + " failures=%r" % failures


def _least_coefficient(m, i):
    """Coefficients, lowest degree first, of the monic c(h) of least degree
    with c(h) x^i in D(A(m)), read off the definitions rather than from
    skewlaurent.

    c(h) x^i sends x^k to c(k+i+1) x^{k+i}, so c vanishes at k + i + 1
    wherever x^k lies in A(m) and x^{k+i} does not; for k >= m + |i| both
    do, so the window k < m + |i| is complete.
    """
    def in_s(k):
        return k == 0 or k >= m
    roots = [k + i + 1 for k in range(m + abs(i))
             if in_s(k) and not in_s(k + i)]
    out = [Fraction(1)]
    for r in roots:
        out = [Fraction(0)] + out  # times h, then minus r times the old
        for e in range(len(out) - 1):
            out[e] -= r * out[e + 1]
    return out


def _coefficients(p, var):
    """Coefficients of p in h_{var+1}, lowest degree first; p involves no
    other variable."""
    out = [Fraction(0)] * (max(e[var] for e in p.terms) + 1)
    for e, c in p.terms.items():
        out[e[var]] += c
    return out


def _remainder(a, b):
    """a mod b in Q[h], both nonzero coefficient lists, lowest degree first."""
    a = list(a)
    while len(a) >= len(b):
        q = a.pop() / b[-1]
        at = len(a) + 1 - len(b)
        for j, c in enumerate(b[:-1]):
            a[at + j] -= q * c
        while a and not a[-1]:
            a.pop()
    return a


def _gcd(a, b):
    """The monic gcd in Q[h] of a nonzero a and b, by Euclid."""
    while b:
        a, b = b, _remainder(a, b)
    return [c / a[-1] for c in a]


def _word_gcds(gens, length, targets, var=0):
    """{i: monic gcd of the h_{var+1} coefficients of the words of degree
    i e_{var+1} and length <= length in gens}, for the i in targets.

    Every word lies in D(A(m)), so each gcd is a multiple of its target, and
    a degree takes no more words once its gcd has come down to the target.
    """
    letters = [item for g in gens for item in g.components.items()]
    gcds, level = {}, [None]  # the empty word
    for step in range(length):
        last, longer = step == length - 1, []
        for w in level:
            for g in letters:
                i = g[0][var] + (w[0][var] if w else 0)
                done = i not in targets or gcds.get(i) == targets[i]
                if last and done:
                    continue
                word = monomial_product(w, g) if w else g
                longer.append(word)
                if not done:
                    c = _coefficients(word[1], var)
                    gcds[i] = _gcd(gcds[i], c) if i in gcds else _gcd(c, [])
        level = longer
    return gcds


def test_criterion_11_generators_generate(capfd):
    """generating_set(m) generates D(A(m)): m = 2..6, 1 <= |i| <= 3m, words
    of length <= 3, and mixed degrees at shape (2, 3).

    Words in the generators are homogeneous and h is one of them, so the
    degree i part of the subalgebra they generate is a left K[h]-module.
    K[h] is a principal ideal domain, so by Bezout that part holds g x^i,
    where g is the gcd of the coefficients of the degree i words.  It holds
    delta(i) = phi(m, i) x^i, and so all of D(A(m)) in degree i, exactly
    when g = phi(m, i) up to a scalar.  The gcd is taken by Euclid over
    Fractions, and phi is read off the definitions, so no root search runs.
    Each delta(k) with |k| < 2m has |k| <= 3m, so the words check every
    generator; a factor_generators that stops at k < m fails.

    At shape (2, 3) a word of mixed degree (i, j) is a word u in factor 1's
    generators times one v in factor 2's, since the factors commute.  The
    words with u of length <= l and v of length <= 3 - l span the ideal of
    g_1(h1) g_2(h2), the product of the two one-factor gcds, and the least
    coefficient at (i, j) is phi(2, i)(h1) phi(3, j)(h2).

    Observation, not an erratum: the set is not minimal.  h and delta(+-k)
    for k <= m alone, in words of length <= 3, already give g = phi(m, i)
    at every 1 <= |i| <= 3m for m = 2..6, so they generate every
    delta(+-k) with k < 2m and with it D(A(m)); at m = 2,
    delta(3) = [delta(1), delta(2)] / 2.
    """
    start = time.monotonic()
    failures = []
    for m in range(2, 7):
        targets = {i: _least_coefficient(m, i)
                   for i in range(-3 * m, 3 * m + 1) if i}
        gens = generating_set(m)
        failures += [("not a member", m, g) for g in gens
                     if not membership(g, m)]
        prefix = [g for g in gens if all(abs(d) <= m for (d,) in g.components)]
        for name, words in (("generating_set", gens), ("k <= m", prefix)):
            gcds = _word_gcds(words, 3, targets)
            failures += [(name, m, i, gcds.get(i)) for i in targets
                         if gcds.get(i) != targets[i]]
    delta = [delta_op(2, (k,)) for k in (1, 2, 3)]
    if commutator(delta[0], delta[1]) != 2 * delta[2]:
        failures.append("delta(3) at m = 2")
    shape = CuspShape((2, 3))
    split = {}
    for f in (0, 1):
        targets = {i: _least_coefficient(shape.m[f], i)
                   for i in range(-3 * shape.m[f], 3 * shape.m[f] + 1) if i}
        gens = factor_generators(shape, f)
        failures += [("not a member", shape, g) for g in gens
                     if not membership(g, shape)]
        for length in (1, 2):
            gcds = _word_gcds(gens, length, targets, f)
            split[f, length] = {i for i in targets
                                if gcds.get(i) == targets[i]}
    mixed = [(1, 1), (-1, 2), (3, -5), (-3, 6), (-6, 4), (5, -2)]
    failures += [("mixed", alpha) for alpha in mixed
                 if not any(alpha[0] in split[0, length]
                            and alpha[1] in split[1, 3 - length]
                            for length in (1, 2))]
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 2.0
    line = _report(11, ok, "m=2..6, 1 <= |i| <= 3m, words of length <= 3, "
                           "%d mixed degrees, %.2f s" % (len(mixed), elapsed),
                   capfd)
    assert ok, line + " failures=%r" % failures[:5]


def _echelon_insert(basis, v):
    """Reduce the sparse row v (a dict, consumed) by basis, whose rows have
    leading coefficient 1 and are keyed by their highest key, over Fraction;
    add what is left, and say whether anything was."""
    while v:
        lead = max(v)
        q, pivot = v[lead], basis.get(lead)
        if pivot is None:
            basis[lead] = {e: Fraction(x) / q for e, x in v.items()}
            return True
        for e, x in pivot.items():
            y = v.get(e, 0) - q * x
            if y:
                v[e] = y
            else:
                del v[e]
    return False


def _growth(shape, top):
    """dim V^N for N = 0 .. top, V = K 1 + span(generating_set(shape)).

    Words in the generators are homogeneous, so V^N is graded, and its
    degree alpha part is spanned by the coefficients of its words of that
    degree.  Each part keeps one echelon basis over Fraction, pivoting on
    the highest exponent.  V^N = V^(N-1) + (new words of V^(N-1)) * V, so
    each layer multiplies only the words the layer before added.
    """
    letters = [item for g in generating_set(shape)
               for item in g.components.items()]
    bases = {}

    def added(word):
        alpha, c = word
        return _echelon_insert(bases.setdefault(alpha, {}), c.terms)

    n = len(letters[0][0])
    fresh = [((0,) * n, BasePoly.one(n))]
    added(fresh[0])
    dims = [1]
    for _ in range(top):
        fresh = [w for w in (monomial_product(u, g) for u in fresh
                             for g in letters) if added(w)]
        dims.append(dims[-1] + len(fresh))
    return dims


def _differences(seq, k):
    for _ in range(k):
        seq = [b - a for a, b in zip(seq, seq[1:])]
    return seq


def test_criterion_12_growth(capfd):
    """dim V^N grows like a polynomial of degree 2n, as GK dimension 2n asks:
    its 2n-th difference is constant and positive over the last three N.

    V = K 1 + span(generating_set(shape)); the GK dimension is the growth
    degree of dim V^N for any finite generating space V containing 1
    (Krause-Lenagan, ch. 1).  The test reaches m = 2 at N <= 8, m = 3 at
    N <= 5, (1, 1) at N <= 7 and (2, 1) at N <= 6, and pins the m = 2
    sequence, which a skew rule shifting by -alpha changes from N = 2 on.

    Observation, not a theorem: at rank one the constant second difference
    is (2m - 1)^2, 9 and 25 here; finite data cannot prove it, and the
    paper's abstract does not state it.  At (1, 1) the fourth difference is
    4 and at (2, 1) it is 18.
    """
    start = time.monotonic()
    failures = []
    constants = []
    for shape, top in (((2,), 8), ((3,), 5), ((1, 1), 7), ((2, 1), 6)):
        dims = _growth(shape, top)
        last = _differences(dims, 2 * len(shape))[-3:]
        constants.append("%s: %d" % (shape, last[-1]))
        if len(set(last)) != 1 or last[0] <= 0:
            failures.append((shape, dims))
        if shape == (2,) and dims != [1, 8, 26, 53, 89, 134, 188, 251, 323]:
            failures.append(("m = 2 sequence", dims))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 2.0
    line = _report(12, ok, "2n-th differences %s, %.2f s"
                   % (", ".join(constants), elapsed), capfd)
    assert ok, line + " failures=%r" % failures[:5]


def _module_growth(shape, top, quotient):
    """dim V^N v for N = 1 .. top, V = K 1 + span(generating_set(shape)),
    with v = 1 in A(m), or v = x^(-1, ..., -1) in the quotient
    K[x^+-1]/A(m) if quotient.

    Each generator is homogeneous, so every word sends x^beta to a multiple
    of one monomial, and V^N v is spanned by the monomials that words of
    length <= N reach.  Each layer acts only on the sum of the monomials
    the layer before added; a generator sends distinct monomials to
    distinct degrees, so nothing in that sum cancels.
    """
    shape = CuspShape(shape)
    n = shape.rank
    gens = generating_set(shape)
    fresh = [(-1,) * n if quotient else (0,) * n]
    seen, dims = set(fresh), []
    for _ in range(top):
        v = LaurentVector(n, dict.fromkeys(fresh, 1))
        images = [act_on_quotient(g, v, shape) if quotient else act(g, v)
                  for g in gens]
        fresh = {d for image in images for d in image.components} - seen
        seen |= fresh
        dims.append(len(seen))
    return dims


# the constant second differences of dim V^N 1 and of dim V^N x^(-1,-1)
# in the quotient at rank 2, observed from N = 3 on
_RANK_TWO_GROWTH = {(1, 1): (1, 3), (2, 1): (3, 9), (2, 2): (9, 27),
                    (3, 2): (15, 45)}


def test_criterion_12_module_growth(capfd):
    """The module half of criterion 12: V^N 1 in A(m) and V^N x^-1 in the
    quotient K[x^+-1]/A(m) grow with degree n, as the Bernstein analogue
    asks of a nonzero finitely generated module.  The vectors go through
    act and act_on_quotient.

    Observations, not theorems.  At rank 1, m = 2, 3, 4 and N = 1 .. 8:
    dim V^N 1 = (2m - 1) N - (m - 2), and the quotient grows by exactly
    2m - 1 a step from 5, 8 and 11 at N = 1.  At rank 2, shapes (1, 1),
    (2, 1), (2, 2) and (3, 2) and N = 1 .. 8: the second difference
    dim V^(N+1) - 2 dim V^N + dim V^(N-1) is constant from N = 3 on, 1, 3,
    9 and 15 for V^N 1, that is (2 m_1 - 1)(2 m_2 - 1), and three times
    that, 3, 9, 27 and 45, for V^N x^(-1,-1) in the quotient: degree 2.
    """
    start = time.monotonic()
    failures = []
    for m in (2, 3, 4):
        step = 2 * m - 1
        for quotient, first in ((False, m + 1), (True, 3 * m - 1)):
            dims = _module_growth((m,), 8, quotient)
            if dims != [first + step * k for k in range(8)]:
                failures.append((m, quotient, dims))
    for shape, constants in _RANK_TWO_GROWTH.items():
        for quotient, constant in zip((False, True), constants):
            dims = _module_growth(shape, 8, quotient)
            # dims[k] is N = k + 1: the second differences at N = 3 .. 7
            second = [dims[k + 1] - 2 * dims[k] + dims[k - 1]
                      for k in range(2, 7)]
            if second != [constant] * 5:
                failures.append((shape, quotient, dims))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 1.0
    line = _report(12, ok, "module half: first differences 2m - 1 in A(m) "
                   "and its quotient, m = 2..4, and constant second "
                   "differences at four rank-2 shapes, %.2f s" % elapsed,
                   capfd)
    assert ok, line + " failures=%r" % failures[:5]


def test_criterion_13_centre(capfd):
    """The centre of D(A(m)) is K, for m = 1..5.

    The argument, per width: an element z commuting with h lies in degree 0,
    because [h, c x^k] = k c x^k; and a p(h) commuting with delta(1), that
    is with phi(m, 1) x, satisfies p(h) = p(h - 1), so p is constant.

    The test also computes the commutant of generating_set(m) on the
    trial space phi(m, k) span(1, h, h^2, h^3) x^k at each degree
    |k| <= 2m: the operators there that commute with every generator form
    the kernel of a Fraction matrix whose rows are the commutators of the
    four basis operators, so its dimension is 4 minus their rank.  It must
    be 1 (the constants) at degree 0 and 0 at every other degree.  With a
    skew rule that leaves out the shift every operator commutes with every
    other, and each degree reads dimension 4.
    """
    start = time.monotonic()
    failures = []
    for m in range(1, 6):
        gens = generating_set(m)
        for k in range(-2 * m, 2 * m + 1):
            trial = [LaurentOp.from_poly(H ** j) * delta_op(m, (k,))
                     for j in range(4)]
            rows = [{(g, deg, e): c
                     for g, gen in enumerate(gens)
                     for deg, poly in commutator(b, gen).components.items()
                     for (e,), c in poly.terms.items()}
                    for b in trial]
            echelon = {}
            dim = 4 - sum(_echelon_insert(echelon, row) for row in rows)
            if dim != (1 if k == 0 else 0):
                failures.append((m, k, dim))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 1.0
    line = _report(13, ok, "the centre is K: commutant of generating_set(m) "
                   "on phi_k span(1, h, h^2, h^3) x^k, |k| <= 2m, "
                   "m = 1..5, %.2f s" % elapsed, capfd)
    assert ok, line + " failures=%r" % failures[:5]
