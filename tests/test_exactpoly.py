"""Exact polynomial layer: ring axioms, shift, division, roots, text forms."""

import random
from decimal import Decimal
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from cuspdiff import exactpoly
from cuspdiff.classify import LinMaxIdeal, Orbit, normalize
from cuspdiff.cli import main
from cuspdiff.cuspops import CuspShape, bbA_presentation
from cuspdiff.exactpoly import (ArityMismatch, BasePoly, DivisionByZero,
                                ExponentOverflow, NotDivisible, exact_divide, grlex_key, linear_factors,
                                poly_forms, rational_roots, render_poly)
from cuspdiff.exprparse import parse_poly
from cuspdiff.gwa import GwaElement
from cuspdiff.modactions import LaurentVector
from cuspdiff.skewlaurent import (ExponentSet, LaurentOp, monomial_power,
                                  weyl_membership)

H = BasePoly.variable(1, 0)


def poly1(*coeffs):
    """Univariate polynomial with coeffs listed from the constant term up."""
    return BasePoly(1, {(k,): c for k, c in enumerate(coeffs)})


coeffs = st.integers(min_value=-9, max_value=9)


@st.composite
def polys(draw, nvars=1, maxdeg=4):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        exp = tuple(draw(st.integers(min_value=0, max_value=maxdeg))
                    for _ in range(nvars))
        terms[exp] = draw(coeffs)
    return BasePoly(nvars, terms)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        assert BasePoly(1, {(3,): 0, (1,): 2}) == poly1(0, 2)
        assert BasePoly(1, {(2,): 0}).is_zero()

    def test_integral_fractions_stored_as_ints(self):
        p = BasePoly(1, {(1,): Fraction(4, 2)})
        assert p == poly1(0, 2)

    def test_constant_and_variable(self):
        assert BasePoly.constant(1, 5).eval([7]) == 5
        assert BasePoly.variable(2, 1).eval([3, 11]) == 11

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            BasePoly(1, {(-1,): 1})

    def test_immutable(self):
        with pytest.raises(AttributeError):
            H.terms = {}

    def test_public_constructor_validates(self):
        with pytest.raises(ArityMismatch):
            BasePoly(2, {(1,): 1})
        with pytest.raises(ValueError):
            BasePoly(0, {})
        with pytest.raises(TypeError):
            BasePoly(1, {(1,): 0.5})


# each builder of an exact value, with the error and message it refuses a
# scalar with; all of them pass the value through exactpoly._norm_coef
_GATED = {
    "BasePoly": (lambda v: BasePoly(1, {(0,): v}), TypeError,
                 "coefficient must be int or Fraction"),
    "LaurentVector": (lambda v: LaurentVector(1, {(0,): v}), TypeError,
                      "coefficient must be int or Fraction"),
    "linear_factors": (lambda v: linear_factors([v]), TypeError,
                       "root must be int or Fraction"),
    "LinMaxIdeal": (LinMaxIdeal, TypeError, "root must be int or Fraction"),
    "Orbit": (Orbit, TypeError, "root must be int or Fraction"),
    "ExponentSet": (lambda v: ExponentSet(points=[v]), ValueError,
                    "ExponentSet needs integers"),
    "CuspShape": (lambda v: CuspShape((v,)), ValueError,
                  "CuspShape needs integers"),
}


@pytest.mark.parametrize("value", [True, 0.5, "1", Decimal(1)],
                         ids=["bool", "float", "str", "Decimal"])
@pytest.mark.parametrize("name", sorted(_GATED))
def test_one_scalar_gate(name, value):
    # an int (never a bool) or a Fraction, the int when integral; a float,
    # str or Decimal is refused, not read as a nearby rational
    build, error, message = _GATED[name]
    with pytest.raises(error, match=message):
        build(value)
    assert build(3) == build(Fraction(6, 2))


def test_a_bool_is_no_scalar():
    # a bool is refused where an int is taken, and is unequal to every sum
    x = LaurentOp.x(1)
    for make in (lambda: BasePoly.constant(1, True), lambda: x * True,
                 lambda: True + x, lambda: H - False):
        with pytest.raises(TypeError, match="got 'bool'"):
            make()
    assert x * 1 == x and (x == True) is False
    assert BasePoly.one(1) != True and BasePoly.one(1) == 1


mixed_coeffs = st.one_of(
    coeffs, st.fractions(min_value=-9, max_value=9, max_denominator=4))


@st.composite
def mixed_polys(draw, nvars, maxdeg=3):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        exp = tuple(draw(st.integers(min_value=0, max_value=maxdeg))
                    for _ in range(nvars))
        terms[exp] = draw(mixed_coeffs)
    return BasePoly(nvars, terms)


def assert_stored_as_validated(p):
    """p.terms is exactly what the validating constructor would store."""
    rebuilt = BasePoly(p.nvars, dict(p.terms)).terms
    assert rebuilt == p.terms
    for exp, c in p.terms.items():
        assert type(rebuilt[exp]) is type(c)
        assert c != 0
        assert all(type(e) is int for e in exp)


class TestTrustedResults:
    """Internal results skip validation, so they must already satisfy it."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_results_round_trip_through_validation(self, data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        p = data.draw(mixed_polys(n))
        q = data.draw(mixed_polys(n))
        k = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        results = [p + q, p - q, -p, p * q, p ** data.draw(st.integers(0, 3)),
                   p.shift(k), p + Fraction(1, 2), Fraction(2, 3) * p,
                   (p + q) - q]
        if not q.is_zero():
            results.append(exact_divide(p * q, q))
        if n == 1:
            results.append(p.inject(3, data.draw(st.integers(0, 2))))
        for r in results:
            assert_stored_as_validated(r)

    def test_cancellation_drops_terms_and_demotes_fractions(self):
        half = BasePoly(1, {(1,): Fraction(1, 2), (0,): Fraction(1, 2)})
        total = half + half
        assert total.terms == {(1,): 1, (0,): 1}
        assert all(type(c) is int for c in total.terms.values())
        assert (half - half).terms == {}
        assert_stored_as_validated(half * 2)

    def test_constants_variables_and_scalings(self):
        # constant and variable build their terms without validation; a
        # scalar factor is a product with a constant, under the field rule
        half = BasePoly(2, {(1, 0): Fraction(1, 2), (0, 3): 3})
        for r in (BasePoly.constant(2, Fraction(4, 2)), BasePoly.constant(1, 0),
                  BasePoly.variable(3, 1), BasePoly.variable(1, 0),
                  half * 2, half * 0, half * Fraction(-2, 3), 4 * half):
            assert_stored_as_validated(r)
        assert BasePoly.constant(2, Fraction(4, 2)) == BasePoly(2, {(0, 0): 2})
        assert BasePoly.variable(3, 1) == BasePoly(3, {(0, 1, 0): 1})
        assert half * 1 is half
        assert (half * 0).is_zero()
        assert half * Fraction(2, 3) == half * BasePoly.constant(2, Fraction(2, 3))
        wide = BasePoly(2, {(2 ** 31, 0): 1})
        assert wide * 1 is wide
        for scalar in (3, 0, Fraction(1, 2)):
            with pytest.raises(ExponentOverflow):
                wide * scalar
        with pytest.raises(ValueError):
            BasePoly.constant(0, 1)
        with pytest.raises(TypeError):
            BasePoly.constant(1, 0.5)


class TestArithmetic:
    def test_known_product(self):
        # (h-1)(h-2) = h^2 - 3h + 2
        assert (H - 1) * (H - 2) == poly1(2, -3, 1)

    def test_mixed_arity_rejected(self):
        with pytest.raises(ArityMismatch):
            H + BasePoly.variable(2, 0)

    def test_scalar_coercion(self):
        assert H + Fraction(1, 2) == BasePoly(1, {(1,): 1, (0,): Fraction(1, 2)})
        assert 3 * H == poly1(0, 3)
        assert (2 - H) == -(H - 2)

    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)

    @given(polys(nvars=2, maxdeg=3), st.integers(-5, 5), st.integers(-5, 5),
           st.fractions(min_value=-4, max_value=4, max_denominator=8))
    @settings(max_examples=60, deadline=None)
    def test_eval_is_a_homomorphism(self, p, a, b, t):
        q = p * p + p
        assert q.eval([a, t]) == p.eval([a, t]) ** 2 + p.eval([a, t])
        assert (p + q).eval([b, t]) == p.eval([b, t]) + q.eval([b, t])


def _reference_eval(p, point):
    """The earlier all-Fraction evaluation, kept as an independent oracle."""
    point = [Fraction(v) for v in point]
    total = Fraction(0)
    powcache = [{0: Fraction(1)} for _ in range(p.nvars)]
    for exp, c in p.terms.items():
        val = Fraction(c)
        for j, e in enumerate(exp):
            if e not in powcache[j]:
                powcache[j][e] = point[j] ** e
            val *= powcache[j][e]
        total += val
    return total


class TestEvalOracle:
    def test_matches_fraction_evaluation(self):
        rng = random.Random(5)
        # int, Fraction and mixed coefficients
        coefficient_draws = [
            lambda: rng.randint(-9, 9),
            lambda: Fraction(rng.randint(-9, 9), rng.randint(2, 6)),
            lambda: rng.choice([Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                                rng.randint(-9, 9)]),
        ]
        # int, Fraction and bool coordinates
        point_draws = [
            lambda: rng.randint(-7, 7),
            lambda: Fraction(rng.randint(-7, 7), rng.randint(1, 5)),
            lambda: rng.random() < 0.5,
        ]
        for nvars in (1, 2, 3):
            for draw_coef in coefficient_draws:
                for _ in range(40):
                    p = BasePoly(nvars, {
                        tuple(rng.randint(0, 4) for _ in range(nvars)): draw_coef()
                        for _ in range(rng.randint(0, 6))})
                    points = [[draw() for _ in range(nvars)]
                              for draw in point_draws]
                    points.append([rng.choice(point_draws)()
                                   for _ in range(nvars)])
                    for point in points:
                        got = p.eval(point)
                        want = _reference_eval(p, point)
                        assert got == want, (p, point)
                        # exact and unboxed: an int exactly when integral
                        assert type(got) is (int if want.denominator == 1
                                             else Fraction), (p, point)


class TestShift:
    def test_direction(self):
        # shift(k) substitutes h -> h - k
        assert H.shift([1]) == H - 1
        assert H.shift([-2]) == H + 2

    def test_known_expansion(self):
        p = H * H
        assert p.shift([1]) == poly1(1, -2, 1)

    @given(polys(), st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_composition_and_identity(self, p, a, b):
        assert p.shift([0]) == p
        assert p.shift([a]).shift([b]) == p.shift([a + b])

    @given(polys(), polys(), st.integers(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_ring_homomorphism(self, p, q, k):
        assert (p + q).shift([k]) == p.shift([k]) + q.shift([k])
        assert (p * q).shift([k]) == p.shift([k]) * q.shift([k])

    @given(polys(), st.integers(-4, 4), st.fractions(min_value=-6, max_value=6, max_denominator=8))
    @settings(max_examples=60, deadline=None)
    def test_eval_compatibility(self, p, k, t):
        assert p.shift([k]).eval([t]) == p.eval([t - k])

    def test_multivariate_shifts_are_independent(self):
        p = BasePoly.variable(2, 0) * BasePoly.variable(2, 1)
        q = p.shift([1, -1])
        assert q.eval([3, 5]) == (3 - 1) * (5 + 1)

    def test_returns_self_when_nothing_moves(self):
        h1, h2, h3 = (BasePoly.variable(3, j) for j in range(3))
        cases = [
            (H * H + 1, [0]),
            (BasePoly.zero(3), [1, -2, 3]),
            (BasePoly.constant(2, Fraction(3, 4)), [2, -1]),
            (BasePoly.variable(2, 0) ** 3 + 2, [0, 5]),
            (h1 * h3 ** 2 - h3, [0, -4, 0]),
            (h2 ** 4 + 7 * h2, [3, 0, -1]),
        ]
        for p, k in cases:
            assert p.shift(k) is p, (p, k)
        # one moved variable that some term involves is enough to move
        p = h1 * h3 ** 2 - h3
        assert p.shift([0, -4, 1]) is not p
        assert p.shift([0, -4, 1]) == h1 * (h3 - 1) ** 2 - (h3 - 1)


def _reference_shift(p, k):
    """The earlier term-by-term shift, kept as an independent oracle.

    Each term prod_i h_i^{e_i} is expanded as prod_i (h_i - k_i)^{e_i} with
    one binomial row per variable, over tuples of exponent prefixes.
    """
    out = {}
    for exp, c in p.terms.items():
        partial = [((), c)]
        for e, kj in zip(exp, k):
            if e == 0 or kj == 0:
                partial = [(pe + (e,), pc) for pe, pc in partial]
                continue
            row = [((t,), comb(e, t) * (-kj) ** (e - t)) for t in range(e + 1)]
            partial = [(pe + te, pc * rc) for pe, pc in partial for te, rc in row]
        for pe, pc in partial:
            out[pe] = out.get(pe, 0) + pc
    return BasePoly(p.nvars, out)


def _random_poly(rng, nvars, maxdeg, nterms):
    """Int and Fraction coefficients, some exponents up to maxdeg."""
    return BasePoly(nvars, {
        tuple(rng.randint(0, maxdeg) for _ in range(nvars)):
            rng.choice([rng.randint(-20, 20),
                        Fraction(rng.randint(-20, 20), rng.randint(1, 9))])
        for _ in range(nterms)})


class TestTaylorShiftOracle:
    def test_matches_term_by_term_expansion(self):
        rng = random.Random(12)
        for nvars in (1, 2, 3):
            for _ in range(60):
                p = _random_poly(rng, nvars, rng.choice([2, 5, 12]),
                                 rng.randint(0, 8))
                # negative entries, several nonzero entries, and zeros
                k = [rng.choice([0, rng.randint(-6, 6)]) for _ in range(nvars)]
                k[rng.randrange(nvars)] = rng.choice([-3, -1, 2, 5])
                got, want = p.shift(k), _reference_shift(p, k)
                assert _typed(got.terms) == _typed(want.terms), (p, k)

    def test_dense_high_degree(self):
        p = linear_factors(range(-9, 11))
        for k in ([7], [-13]):
            assert _typed(p.shift(k).terms) == _typed(_reference_shift(p, k).terms)
        assert p.shift([7]) == linear_factors(range(-2, 18))

    def test_polynomials_missing_a_shifted_variable(self):
        rng = random.Random(19)
        for nvars in (2, 3):
            for _ in range(40):
                absent = rng.randrange(nvars)
                p = BasePoly(nvars, {
                    tuple(0 if v == absent else e for v, e in enumerate(exp)): c
                    for exp, c in _random_poly(rng, nvars, rng.choice([2, 5]),
                                               rng.randint(1, 6)).terms.items()})
                k = [rng.choice([0, rng.randint(-6, 6)]) for _ in range(nvars)]
                k[absent] = rng.choice([-3, -1, 2, 5])
                got, want = p.shift(k), _reference_shift(p, k)
                assert _typed(got.terms) == _typed(want.terms), (p, k)
                if not any(k[v] for v in range(nvars) if v != absent):
                    assert got is p

    def test_sparse_univariate(self):
        cases = [H ** 12 + H,
                 3 * H ** 20 - H ** 7 + Fraction(1, 2) * H ** 3,
                 Fraction(-5, 3) * H ** 9]
        for p in cases:
            for k in ([1], [-1], [3], [-7]):
                got, want = p.shift(k), _reference_shift(p, k)
                assert _typed(got.terms) == _typed(want.terms), (p, k)


class TestTermsView:
    def test_round_trip_through_the_constructor(self):
        rng = random.Random(7)
        for nvars in (1, 2, 3):
            for _ in range(40):
                p = _random_poly(rng, nvars, 9, rng.randint(0, 7))
                assert BasePoly(p.nvars, p.terms) == p
                assert _typed(BasePoly(p.nvars, p.terms).terms) == _typed(p.terms)
        big = BasePoly(1, {(2 ** 70,): 3, (5,): -1})
        assert BasePoly(1, big.terms) == big
        wide = BasePoly(2, {(2 ** 32 - 1, 0): 1, (1, 2 ** 32 - 1): 2})
        assert wide.terms == {(2 ** 32 - 1, 0): 1, (1, 2 ** 32 - 1): 2}

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_sorted_terms_is_the_grlex_sort_of_the_view(self, data):
        # read off the packed keys; exponents near a field's top included
        n = data.draw(st.integers(1, 3))
        exps = st.one_of(st.integers(0, 4), st.integers(2 ** 32 - 3, 2 ** 32 - 1))
        p = BasePoly(n, data.draw(st.dictionaries(
            st.tuples(*[exps] * n), mixed_coeffs, max_size=6)))
        assert p.sorted_terms() == sorted(
            p.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def test_view_is_read_only(self):
        p = H * H + 1
        p.terms[(7,)] = 1
        assert p == H * H + 1


class TestDivision:
    def test_exact(self):
        p = (H - 1) * (H + 3) * (H - Fraction(1, 2))
        assert exact_divide(p, H - 1) == (H + 3) * (H - Fraction(1, 2))

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            exact_divide(H * H + 1, H - 1)

    def test_by_zero(self):
        with pytest.raises(DivisionByZero):
            exact_divide(H, BasePoly.zero(1))

    def test_zero_dividend(self):
        assert exact_divide(BasePoly.zero(1), H).is_zero()

    def test_multivariate(self):
        h1, h2 = BasePoly.variable(2, 0), BasePoly.variable(2, 1)
        p = (h1 + h2) * (h1 * h2 - 2)
        assert exact_divide(p, h1 + h2) == h1 * h2 - 2

    def test_lex_and_graded_leading_terms_differ(self):
        # h1 leads h1 + h2^2 in lex order, h2^2 in graded-lex order
        h1, h2 = BasePoly.variable(2, 0), BasePoly.variable(2, 1)
        q = h1 + h2 * h2
        for c in (h1 * h2 - 3, h2 ** 3 + Fraction(1, 2) * h1, h1 ** 2 - h2):
            assert exact_divide(q * c, q) == c
        for p in (h2 * h2, h1 * h2 + h2 ** 3 + 1, q * h1 + h2, h2 ** 4 - h1):
            with pytest.raises(NotDivisible):
                exact_divide(p, q)
        assert exact_divide(h2 ** 4 - h1 * h1, q) == h2 * h2 - h1
        # the key of h1 exceeds that of h2, but h2 does not divide h1
        for p, d in ((h1 * h2, h2 * h2), (h1, h2 + 1), (h1 * h2 + h1, h2 * h2)):
            with pytest.raises(NotDivisible):
                exact_divide(p, d)

    def test_unit_divisor_hands_back_the_dividend(self):
        h1, h2 = BasePoly.variable(2, 0), BasePoly.variable(2, 1)
        for p in (3 * H * H - H + Fraction(1, 2), h1 * h2 - 7, H):
            assert exact_divide(p, BasePoly.one(p.nvars)) is p
        # the type, arity and zero checks still come first
        with pytest.raises(TypeError):
            exact_divide(1, BasePoly.one(1))
        with pytest.raises(ArityMismatch):
            exact_divide(h1, BasePoly.one(1))
        assert exact_divide(BasePoly.zero(1), BasePoly.one(1)).is_zero()

    def test_constant_divisor_still_divides(self):
        p = 4 * H * H - 3 * H + 1
        got = exact_divide(p, BasePoly.constant(1, 2))
        assert got == 2 * H * H - Fraction(3, 2) * H + Fraction(1, 2)
        assert_stored_as_validated(got)
        assert exact_divide(p, BasePoly.constant(1, -1)) == -p

    @given(polys(), polys())
    @settings(max_examples=80, deadline=None)
    def test_product_roundtrip(self, p, q):
        if q.is_zero():
            return
        assert exact_divide(p * q, q) == p


def _no_rendering(p):
    raise AssertionError("a polynomial was rendered")


class TestErrorTextOnDemand:
    def test_failed_membership_renders_nothing(self, monkeypatch):
        # a divisibility test that fails catches NotDivisible unread
        monkeypatch.setattr(exactpoly, "render_poly", _no_rendering)
        assert not weyl_membership(LaurentOp.monomial(1, (-1,), H * H + 1))
        with pytest.raises(NotDivisible):
            exact_divide(H * H + 1, H - 1)

    def test_text_matches_the_rendered_pair(self):
        rng = random.Random(20)
        seen = 0
        for nvars in (1, 2):
            for _ in range(60):
                p = _random_poly(rng, nvars, 3, rng.randint(1, 4))
                q = _random_poly(rng, nvars, 2, rng.randint(1, 3))
                if q.is_zero():
                    continue
                try:
                    exact_divide(p, q)
                except NotDivisible as exc:
                    seen += 1
                    assert str(exc) == "%s does not divide %s" % (
                        render_poly(q), render_poly(p))
        assert seen > 50

    def test_plain_text_prints_unchanged(self):
        assert str(NotDivisible("plain text")) == "plain text"


class TestQuotientTypes:
    def test_no_integral_fraction_is_stored(self):
        # monic divisors take no coefficient division, so a remainder of
        # Fractions can lead with an integral one; the quotient stores ints
        rng = random.Random(41)
        for nvars in (1, 2, 3):
            for monic in (True, False):
                for _ in range(60):
                    q = _random_poly(rng, nvars, 3, rng.randint(1, 4))
                    if q.is_zero():
                        continue
                    if monic:
                        q = q * (1 / Fraction(q.terms[max(q.terms)]))
                    c = _random_poly(rng, nvars, 3, rng.randint(1, 5))
                    got = exact_divide(q * c, q)
                    assert _typed(got.terms) == _typed(c.terms), (q, c)
                    assert_stored_as_validated(got)


def _reference_linear_factors(roots):
    """prod (h - r) by BasePoly products, one factor at a time."""
    out = BasePoly.one(1)
    for r in roots:
        out = out * (H - Fraction(r))
    return out


class TestLinearFactorsOracle:
    def test_matches_the_product_of_factors(self):
        rng = random.Random(29)
        for fractions in (False, True):
            for _ in range(30):
                roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                         if fractions and rng.random() < 0.5
                         else rng.randint(-9, 9)
                         for _ in range(rng.randint(0, 9))]
                lead = rng.choice([1, -3, Fraction(2, 5), Fraction(-6, 3)])
                got = linear_factors(roots, lead)
                want = _reference_linear_factors(roots) * lead
                assert _typed(got.terms) == _typed(want.terms), roots
                assert_stored_as_validated(got)
        with pytest.raises(ValueError):
            linear_factors([1, 2], 0)

    @pytest.mark.parametrize("roots", [
        [], [0], [0, 0], [1, -1], [2, 2, -2, -2, 0], [3, 1, 2, 0, -4],
        [Fraction(1, 2)], [Fraction(1, 2), Fraction(-1, 2)],
        [Fraction(4, 2), Fraction(-6, 3)], [Fraction(0), Fraction(3, 1)],
        [1, Fraction(-1)], [Fraction(1, 3), 0, Fraction(-1, 3), 2],
        [Fraction(2, 3), Fraction(2, 3), -1, Fraction(3, 2)]])
    def test_int_and_fraction_roots_store_validated_terms(self, roots):
        # int roots take the int path; any other root takes the Fraction one
        got = linear_factors(roots)
        assert got == _reference_linear_factors(roots)
        assert_stored_as_validated(got)
        for c in got.terms.values():
            assert c != 0
            assert not (type(c) is Fraction and c.denominator == 1), roots


class TestRationalRoots:
    def test_monic_split(self):
        roots, cof = rational_roots((H - 1) * (H - 1) * (H + 4))
        assert roots == [Fraction(-4), Fraction(1), Fraction(1)]
        assert cof == BasePoly.one(1)

    def test_fractional_roots_and_leading_coefficient(self):
        p = (2 * H - 1) * (H + 3)
        roots, cof = rational_roots(p)
        assert roots == [Fraction(-3), Fraction(1, 2)]
        assert cof == BasePoly.constant(1, 2)

    def test_roots_at_zero(self):
        roots, cof = rational_roots(H * H * (H - 5))
        assert roots == [0, 0, Fraction(5)]
        assert cof == BasePoly.one(1)

    def test_irreducible_cofactor(self):
        roots, cof = rational_roots((H * H + 1) * (H - 2))
        assert roots == [Fraction(2)]
        assert cof == H * H + 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            rational_roots(BasePoly.zero(1))

    def test_root_types(self):
        # integral roots are ints, the others Fractions, in ascending order
        p = H * H * (H - 2) * (3 * H + 1) * (2 * H + 6)
        roots, cof = rational_roots(p)
        assert roots == [-3, Fraction(-1, 3), 0, 0, 2]
        assert [type(r) for r in roots] == [int, Fraction, int, int, int]
        assert _typed(cof.terms) == {(0,): (int, 6)}
        for q, root in ((2 * H - 4, 2), (2 * H - 3, Fraction(3, 2)),
                        (Fraction(1, 3) * H + Fraction(5, 7), Fraction(-15, 7))):
            (got,), _ = rational_roots(q)
            assert got == root and type(got) is type(root)

    def test_memo_answers_again_without_a_search(self, monkeypatch):
        from cuspdiff import exactpoly

        p = (2 * H - 1) * (H + 3) * (H * H + 1)
        roots, cof = rational_roots(p)

        def no_search(n):
            raise AssertionError("the roots were searched again")

        monkeypatch.setattr(exactpoly, "_divisors", no_search)
        assert rational_roots(p) == (roots, cof)
        # each call hands out a fresh list
        again, _ = rational_roots(p)
        again.append(99)
        again[0] = 0
        assert rational_roots(p) == ([-3, Fraction(1, 2)], 2 * H * H + 2)
        # the memo is kept per object: an equal new polynomial is searched
        with pytest.raises(AssertionError):
            rational_roots((2 * H - 1) * (H + 3) * (H * H + 1))

    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), max_size=4),
           st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction(self, roots, lead):
        p = linear_factors(roots) * lead
        got, cof = rational_roots(p)
        assert got == sorted(roots)
        assert cof == BasePoly.constant(1, lead)


def _reference_divisors(n):
    """Positive divisors of |n|, n != 0, by trial division."""
    n = abs(n)
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    divs = [1]
    for prime, mult in factors.items():
        divs = [dv * prime ** e for dv in divs for e in range(mult + 1)]
    return divs


def _typed(terms):
    # dict equality alone would let Fraction(2) stand for the stored int 2
    return {e: (type(c), c) for e, c in terms.items()}


def _reference_rational_roots(p):
    """The earlier Fraction candidate scan, kept as an independent oracle.

    Every candidate of the rational root theorem is built as a Fraction,
    tested with BasePoly.eval and divided out with exact_divide.
    """
    roots = []
    val = min(e for (e,) in p.terms)
    for _ in range(val):
        p = exact_divide(p, H)
        roots.append(Fraction(0))
    if p.is_constant():
        return sorted(roots), p
    denom_lcm = 1
    for c in p.terms.values():
        denom_lcm = lcm(denom_lcm, Fraction(c).denominator)
    ints = {e: int(c * denom_lcm) for (e,), c in p.terms.items()}
    content = 0
    for c in ints.values():
        content = gcd(content, c)
    ints = {e: c // content for e, c in ints.items()}
    a0, alead = ints[min(ints)], ints[max(ints)]
    candidates = set()
    for num in _reference_divisors(a0):
        for den in _reference_divisors(alead):
            candidates.add(Fraction(num, den))
            candidates.add(Fraction(-num, den))
    for r in sorted(candidates):
        while not p.is_constant() and p.eval([r]) == 0:
            p = exact_divide(p, BasePoly(1, {(1,): 1, (0,): -r}))
            roots.append(r)
    return sorted(roots), p


@st.composite
def split_products(draw):
    """(p, roots): a Fraction times products of (d*h - n), maybe times h^2 + k."""
    lead = draw(st.fractions(min_value=-7, max_value=7, max_denominator=5)
                .filter(bool))
    p, roots = BasePoly.constant(1, lead), []
    factors = draw(st.lists(st.tuples(st.integers(1, 4),
                                      st.one_of(st.just(0), st.integers(-8, 8)),
                                      st.integers(1, 2)),
                            max_size=4))
    for d, n, mult in factors:
        for _ in range(mult):
            p = p * BasePoly(1, {(1,): d, (0,): -n})
            roots.append(Fraction(n, d))
    if draw(st.booleans()):
        p = p * (H * H + draw(st.integers(1, 9)))
    return p, sorted(roots)


class TestRationalRootsOracle:
    @given(split_products())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_scan(self, case):
        p, roots = case
        got, cof = rational_roots(p)
        want, ref_cof = _reference_rational_roots(p)
        assert got == want == roots
        assert _typed(cof.terms) == _typed(ref_cof.terms)
        assert linear_factors(got) * cof == p

    def test_linear_and_huge_roots(self):
        # a linear polynomial's root is read off with no divisor search; the
        # huge roots here have constant terms that trial division factors fast
        big = 2 ** 100
        cases = [3 * H - 2, 7 - 2 * H, Fraction(1, 3) * H + Fraction(5, 7),
                 H - big, 3 * H + big, H * (5 * H - 10 ** 30),
                 (H - big) * (H + 1), (2 * H - 10 ** 30) * (H - 3) * H]
        for p in cases:
            got, cof = rational_roots(p)
            want, ref_cof = _reference_rational_roots(p)
            assert got == want, p
            assert [type(r) for r in got] == [
                int if r.denominator == 1 else Fraction for r in want]
            assert _typed(cof.terms) == _typed(ref_cof.terms)
            assert linear_factors(got) * cof == p

    def test_degree_nine_many_divisors(self):
        p = parse_poly("-h^9-54*h^8-1281*h^7-17514*h^6-152019*h^5-868266*h^4"
                       "-3261299*h^3-7762806*h^2-10616760*h-6350400")
        got, cof = rational_roots(p)
        assert got == [-9, -8, -7, -7, -6, -5, -5, -4, -3]
        assert _typed(cof.terms) == {(0,): (int, -1)}
        want, ref_cof = _reference_rational_roots(p)
        assert got == want
        assert _typed(ref_cof.terms) == _typed(cof.terms)
        assert linear_factors(got) * cof == p


_TRAVEL_ROOTS = [-4, -1, 0, 2, 5, Fraction(6, 3), Fraction(1, 2), Fraction(-7, 3),
                 Fraction(5, 4)]
_TRAVEL_LEADS = [2, -3, Fraction(1, 2), Fraction(-4, 3), Fraction(6, 5)]


def _recorded(rng):
    """Polynomials that record their roots as they are built: linear_factors
    of int and Fraction roots at a lead, monomial_power of one, and the end
    coordinates and multipliers of normalize."""
    def leaf():
        return linear_factors(rng.choices(_TRAVEL_ROOTS, k=rng.randint(0, 3)),
                              rng.choice(_TRAVEL_LEADS))

    for _ in range(50):
        c = leaf()
        yield c
        yield monomial_power(((rng.choice([-2, -1, 1, 3]),), c),
                             rng.randint(2, 4))[1]
    for m in (2, 3):
        pres, _ = bbA_presentation(m)
        for mprime in range(4):
            # products record nothing, so normalize searches these ends
            b = GwaElement(pres, {(-k,): leaf() * rng.choice(_TRAVEL_LEADS)
                                  for k in range(mprime + 1)})
            result = normalize(b)
            ends = result.normalized.coords
            yield from (result.alpha, result.beta, ends[(0,)], ends[(-mprime,)])


class TestRootsTravel:
    """Roots are recorded where a polynomial is built from them, or once a
    search has found them, and read back with no second search."""

    def _no_search(self, monkeypatch):
        def refuse(p):
            raise AssertionError("searched %s again" % render_poly(p))

        monkeypatch.setattr(exactpoly, "_split", refuse)

    def test_carried_roots_match_a_fresh_search(self, monkeypatch):
        built = list(_recorded(random.Random(2021)))
        assert sum(not p.is_constant() for p in built) >= 100
        self._no_search(monkeypatch)
        carried = [rational_roots(p) for p in built]
        monkeypatch.undo()
        for p, (got, cof) in zip(built, carried):
            fresh = BasePoly(1, p.terms)
            assert fresh._roots is None
            want, ref_cof = _reference_rational_roots(fresh)
            assert got == want, p
            assert [type(r) for r in got] == [
                int if r.denominator == 1 else Fraction for r in want], p
            assert _typed(cof.terms) == _typed(ref_cof.terms), p
            assert rational_roots(fresh) == (got, cof)

    def test_unknown_or_nonlinear_factors_stop_the_carry(self, monkeypatch):
        split = (H - 1) * (2 * H + 1)
        rational_roots(split)
        nonlinear = (H * H + 1) * (H - 2)
        rational_roots(nonlinear)
        searched = []
        real = exactpoly._split

        def counting(p):
            searched.append(p)
            return real(p)

        monkeypatch.setattr(exactpoly, "_split", counting)
        unknown = (H - 3) * (H + 4)
        for p in (split * unknown, split * nonlinear, nonlinear.shift([1])):
            searched.clear()
            roots, cof = rational_roots(p)
            assert searched == [p]
            assert linear_factors(roots) * cof == p


class TestFieldLimit:
    """Multivariate exponents live in 32-bit fields of one packed int key."""

    def test_overflow_is_a_value_error(self):
        assert issubclass(ExponentOverflow, ValueError)
        with pytest.raises(ExponentOverflow):
            BasePoly(2, {(2 ** 32, 0): 1})
        with pytest.raises(ExponentOverflow):
            BasePoly(1, {(2 ** 32,): 1}).inject(2, 1)

    def test_products_never_carry_into_the_next_variable(self):
        top = BasePoly(2, {(2 ** 31 - 1, 2 ** 31 - 1): 1})
        assert (top * top).terms == {(2 ** 32 - 2, 2 ** 32 - 2): 1}
        low = BasePoly(2, {(0, 2 ** 31): 1})
        h1, h2 = BasePoly.variable(2, 0), BasePoly.variable(2, 1)
        for a, b in ((low, low), (top * top, h2), (h1, top * top)):
            with pytest.raises(ExponentOverflow):
                a * b
        with pytest.raises(ExponentOverflow):
            exact_divide(BasePoly(2, {(0, 2 ** 31 + 1): 1}), h2)

    def test_univariate_has_no_limit(self):
        big = H ** (2 ** 63)
        assert big.terms == {(2 ** 63,): 1}
        assert (big * big * H).terms == {(2 ** 64 + 1,): 1}
        assert exact_divide(big * (H - 1), big) == H - 1
        # the whole key is the exponent: none of it is masked away
        assert (H ** (2 ** 32) + 3).eval([0]) == 3

    def test_cli_exit_codes(self, capsys):
        assert main(["mul", "--m", "1", "h^9223372036854775808"]) == 0
        assert capsys.readouterr().out == "(h^9223372036854775808)\n"
        with pytest.raises(SystemExit) as exc:
            main(["mul", "--m", "2,3", "h1^4294967296"])
        assert exc.value.code == 2
        assert "exponent" in capsys.readouterr().err


class TestTextForm:
    def test_canonical_rendering(self):
        assert render_poly((H - 1) * (H - 2)) == "h^2-3*h+2"
        assert render_poly(BasePoly.zero(1)) == "0"
        assert render_poly(-H) == "-h"
        assert render_poly(H + Fraction(1, 2)) == "h+1/2"

    def test_multivariate_rendering_uses_graded_order(self):
        h1, h2 = BasePoly.variable(2, 0), BasePoly.variable(2, 1)
        assert render_poly(h1 * h2 + h1 + 1) == "h1*h2+h1+1"


def _digits_to_int(digits):
    n = 0
    for ch in digits:
        n = n * 10 + int(ch)
    return n


class TestHugeCoefficients:
    """Ints past the interpreter's 4300-digit str() limit still render."""

    def test_render_and_json(self):
        rng = random.Random(3)
        digits = "7" + "".join(rng.choice("0123456789") for _ in range(4999))
        n = _digits_to_int(digits)
        p = BasePoly(1, {(1,): n, (0,): -n, (2,): Fraction(1, n)})
        assert render_poly(p) == "1/%s*h^2+%s*h-%s" % (digits, digits, digits)
        assert poly_forms(p)[0]["terms"] == [
            {"exp": [2], "coef": "1/" + digits},
            {"exp": [1], "coef": digits},
            {"exp": [0], "coef": "-" + digits}]

    def test_zero_runs_across_the_split(self):
        rng = random.Random(4)
        for size in (3600, 4301, 5000, 9000, 20000):
            digits = "".join(rng.choice(["0" * 40, "9", "1", "05"])
                             for _ in range(size))[:size]
            digits = "3" + digits[1:]
            n = _digits_to_int(digits)
            assert render_poly(BasePoly(1, {(0,): n})) == digits
            assert render_poly(BasePoly(1, {(0,): -n})) == "-" + digits

    def test_decimal_join_agrees_with_str_past_the_switch(self):
        # up to 14,000 bits str() still works, so it checks the join
        rng = random.Random(6)
        for bits in (12001, 12002, 12345, 12800, 13000, 14000):
            for n in (rng.getrandbits(bits) | 1 << (bits - 1),
                      1 << (bits - 1), (1 << bits) - 1):
                assert exactpoly._int_str(n) == str(n)
                assert exactpoly._int_str(-n) == str(-n)

    def test_100000_digits_round_trip(self):
        rng = random.Random(7)
        digits = "8" + "".join(rng.choice("0123456789") for _ in range(99999))
        n = exactpoly.read_int(digits)
        assert exactpoly.render_number(n) == digits
        assert exactpoly.render_number(-n) == "-" + digits
        assert exactpoly.render_number(10 ** 100000) == "1" + "0" * 100000
        assert exactpoly.render_number(10 ** 100000 - 1) == "9" * 100000
        p = BasePoly(1, {(3,): n, (1,): -Fraction(1, n + 2),
                         (0,): 10 ** 99999 + 1})
        assert parse_poly(render_poly(p)) == p


class TestReadInt:
    """read_int is the inverse of the digit text, at any length."""

    def test_inverts_render_number(self):
        rng = random.Random(5)
        for n in (0, 7, -7, 10 ** 4300, -(10 ** 4300) + 1, 3 ** 20000,
                  -(7 ** 9000), rng.getrandbits(60000)):
            assert exactpoly.read_int(exactpoly.render_number(n)) == n

    def test_zero_runs_across_the_split(self):
        for digits in ("1" + "0" * 4400, "9" * 4300 + "0" * 4301 + "5",
                       "0" * 5000 + "12"):
            assert exactpoly.render_number(exactpoly.read_int(digits)) == (
                digits.lstrip("0"))


class TestJson:
    def test_fraction_coefficients_survive(self):
        h1, h2 = BasePoly.variable(2, 0), BasePoly.variable(2, 1)
        p = Fraction(3, 7) * h1 * h1 * h2 - 2 * h2 * h2 - Fraction(1, 2) * h1 - 5
        assert poly_forms(p)[0] == {"nvars": 2, "terms": [
            {"exp": [2, 1], "coef": "3/7"},
            {"exp": [0, 2], "coef": "-2"},
            {"exp": [1, 0], "coef": "-1/2"},
            {"exp": [0, 0], "coef": "-5"}]}


def test_grlex_orders_by_total_degree_first():
    assert grlex_key((0, 2)) > grlex_key((1, 0))
    assert grlex_key((1, 1)) > grlex_key((0, 2))


def test_sorted_terms_descending():
    p = H * H + 3 * H + 2
    exps = [e for e, _ in p.sorted_terms()]
    assert exps == [(2,), (1,), (0,)]
