"""Exact polynomial layer: ring axioms, shift, division, roots, text forms."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from cuspdiff.exactpoly import (ArityMismatch, BasePoly, DivisionByZero,
                                NotDivisible, divides, exact_divide,
                                grlex_key, linear_factors, poly_to_json,
                                rational_roots, render_poly)
from cuspdiff.exprparse import parse_poly

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
                        assert type(got) is Fraction, (p, point)
                        assert got == _reference_eval(p, point), (p, point)


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

    @given(polys(), polys())
    @settings(max_examples=80, deadline=None)
    def test_product_roundtrip(self, p, q):
        if q.is_zero():
            return
        assert exact_divide(p * q, q) == p
        assert divides(q, p * q)


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


class TestTextForm:
    def test_canonical_rendering(self):
        assert render_poly((H - 1) * (H - 2)) == "h^2-3*h+2"
        assert render_poly(BasePoly.zero(1)) == "0"
        assert render_poly(-H) == "-h"
        assert render_poly(H + Fraction(1, 2)) == "h+1/2"

    def test_multivariate_rendering_uses_graded_order(self):
        h1, h2 = BasePoly.variable(2, 0), BasePoly.variable(2, 1)
        assert render_poly(h1 * h2 + h1 + 1) == "h1*h2+h1+1"


class TestJson:
    def test_fraction_coefficients_survive(self):
        h1, h2 = BasePoly.variable(2, 0), BasePoly.variable(2, 1)
        p = Fraction(3, 7) * h1 * h1 * h2 - 2 * h2 * h2 - Fraction(1, 2) * h1 - 5
        assert poly_to_json(p) == {"nvars": 2, "terms": [
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
