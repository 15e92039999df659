"""Ambient skew Laurent ring: twist rule, Weyl generators, membership, text forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuspdiff import exactpoly
from cuspdiff.cuspops import decompose, embedding
from cuspdiff.exactpoly import (ArityMismatch, BasePoly, linear_factors,
                                rational_roots)
from cuspdiff.gwa import Embedding, GwaPresentation
from cuspdiff.skewlaurent import (LaurentOp, commutator, graded_divisor,
                                  monomial_power, monomial_product, op_to_json,
                                  render_op, weyl_membership)

H = BasePoly.variable(1, 0)
x = LaurentOp.x(1, 0)
xinv = LaurentOp.x(1, 0, -1)
h = LaurentOp.h(1, 0)
d = LaurentOp.d(1, 0)


@st.composite
def ops(draw, nvars=1):
    components = {}
    for _ in range(draw(st.integers(0, 3))):
        deg = tuple(draw(st.integers(-3, 3)) for _ in range(nvars))
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            exp = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
            terms[exp] = draw(st.integers(-7, 7))
        components[deg] = BasePoly(nvars, terms)
    return LaurentOp(nvars, components)


class TestTwistRule:
    def test_x_moves_past_h(self):
        # x e(h) = e(h-1) x and x^{-1} e(h) = e(h+1) x^{-1}
        assert x * h == (h - 1) * x
        assert xinv * h == (h + 1) * xinv

    def test_weyl_relation(self):
        assert commutator(d, x) == LaurentOp.one(1)

    def test_partial_x_and_x_partial(self):
        # h = partial x, so x partial = h - 1
        assert d * x == LaurentOp.from_poly(H)
        assert x * d == LaurentOp.from_poly(H - 1)

    def test_inverse_pair(self):
        assert x * xinv == LaurentOp.one(1)
        assert xinv * x == LaurentOp.one(1)

    def test_powers_of_partial_close_up(self):
        # partial^k = h(h+1)...(h+k-1) x^{-k}
        for k in range(1, 6):
            rising = BasePoly.one(1)
            for j in range(k):
                rising = rising * (H + j)
            expected = LaurentOp.monomial(1, (-k,), rising)
            assert d ** k == expected

    def test_rank_two_factors_commute(self):
        x1, x2 = LaurentOp.x(2, 0), LaurentOp.x(2, 1)
        h1, h2 = LaurentOp.h(2, 0), LaurentOp.h(2, 1)
        d2 = LaurentOp.d(2, 1)
        assert x1 * h2 == h2 * x1
        assert x1 * d2 == d2 * x1
        assert h1 * h2 == h2 * h1


class TestArithmetic:
    @given(ops(), ops(), ops())
    @settings(max_examples=50, deadline=None)
    def test_associativity_and_distributivity(self, u, v, w):
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w
        assert (u + v) * w == u * w + v * w

    @given(ops())
    @settings(max_examples=30, deadline=None)
    def test_units_and_negation(self, u):
        one = LaurentOp.one(1)
        assert u * one == u
        assert one * u == u
        assert u + (-u) == LaurentOp.zero(1)

    def test_scalar_and_poly_coercion(self):
        assert 2 * x == x + x
        assert (H - 1) * x == LaurentOp.from_poly(H - 1) * x
        assert x - 1 == x + LaurentOp.one(1) * (-1)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            x * LaurentOp.x(2, 0)

    @given(ops(), ops())
    @settings(max_examples=30, deadline=None)
    def test_commutator_antisymmetry(self, u, v):
        assert commutator(u, v) == -commutator(v, u)

    def test_power_rejects_negative(self):
        with pytest.raises(ValueError):
            x ** -1

    @pytest.mark.parametrize("cls, value", [
        (BasePoly, H + 2), (LaurentOp, h * x + d)])
    def test_power_makes_no_wasted_product(self, cls, value, monkeypatch):
        # square-and-multiply from the lowest set bit: p^8 is three squarings,
        # p^5 is two squarings and one product, and p^0 multiplies nothing
        calls = []
        original = cls.__mul__

        def counting(a, b):
            calls.append(1)
            return original(a, b)

        expected = {0: value ** 0}
        acc = value ** 0
        for k in range(1, 9):
            acc = acc * value
            expected[k] = acc
        monkeypatch.setattr(cls, "__mul__", counting)
        for k, products in ((8, 3), (5, 3), (1, 0), (0, 0)):
            calls.clear()
            assert value ** k == expected[k]
            assert len(calls) == products, k
        assert value ** 0 == 1


    def test_disjoint_sum_adds_no_polynomials(self, monkeypatch):
        # a degree only one operand has keeps that operand's coefficient:
        # no zero polynomial is built and nothing is added to one
        u = h * x * x + 3 * d
        v = (h - 1) * xinv * xinv * xinv + 5 * LaurentOp.x(1, 0, 4)
        expected = LaurentOp(1, {**u.components, **v.components})
        calls = {"add": 0, "zero": 0}
        add, zero = BasePoly.__add__, BasePoly.__dict__["zero"].__func__

        def counting_add(a, b):
            calls["add"] += 1
            return add(a, b)

        def counting_zero(cls, nvars):
            calls["zero"] += 1
            return zero(cls, nvars)

        monkeypatch.setattr(BasePoly, "__add__", counting_add)
        monkeypatch.setattr(BasePoly, "__radd__", counting_add)
        monkeypatch.setattr(BasePoly, "zero", classmethod(counting_zero))
        total = u + v
        assert calls == {"add": 0, "zero": 0}
        monkeypatch.undo()
        assert total == expected
        assert v + u == expected


class TestSupport:
    def test_components_and_support(self):
        u = h * xinv + x * x * 3
        assert u.support() == [(2,), (-1,)]
        assert u.graded_component((2,)) == BasePoly.constant(1, 3)
        assert u.graded_component((5,)).is_zero()

    def test_zero_components_dropped(self):
        u = LaurentOp(1, {(2,): BasePoly.zero(1)})
        assert u.is_zero()


class TestWeylSubalgebra:
    def test_obvious_members(self):
        assert weyl_membership(x ** 3)
        assert weyl_membership(d ** 2)
        assert weyl_membership(h * h + x)

    def test_bare_inverse_is_outside(self):
        assert not weyl_membership(xinv)
        assert not weyl_membership(h * LaurentOp.x(1, 0, -2))

    def test_graded_divisor_at_width_one(self):
        # only negative coordinates contribute, each a rising product
        h1, h2 = BasePoly.variable(2, 0), BasePoly.variable(2, 1)
        assert graded_divisor((1, 1), (-2, -1)) == h1 * (h1 + 1) * h2
        assert graded_divisor((1, 1), (3, -3)) == h2 * (h2 + 1) * (h2 + 2)
        assert graded_divisor((1, 1), (4, 0)) == BasePoly.one(2)

    def test_divisibility_threshold(self):
        # degree -2 needs the factor h(h+1)
        assert weyl_membership(LaurentOp.monomial(1, (-2,), H * (H + 1)))
        assert not weyl_membership(LaurentOp.monomial(1, (-2,), H * H))

    @given(st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=25, deadline=None)
    def test_products_of_generators_stay_inside(self, i, j):
        assert weyl_membership(x ** i * d ** j)
        assert weyl_membership(d ** j * x ** i)

    def test_decompose_rebuilds(self):
        u = d ** 3 * (h + 2) + x ** 2 - 5
        layers = decompose(u, 1)
        rebuilt = LaurentOp.zero(1)
        for alpha, coeff in layers.items():
            piece = LaurentOp.from_poly(coeff)
            for j, k in enumerate(alpha):
                gen = LaurentOp.x(1, j) if k > 0 else LaurentOp.d(1, j)
                piece = piece * gen ** abs(k)
            rebuilt = rebuilt + piece
        assert rebuilt == u


class TestTextAndJson:
    def test_render_known_forms(self):
        assert render_op(h * xinv) == "(h) * x^-1"
        assert render_op(LaurentOp.zero(1)) == "0"
        u = LaurentOp.monomial(2, (-1, 2), BasePoly.variable(2, 0))
        assert render_op(u) == "(h1) * x1^-1 * x2^2"

    def test_render_orders_by_degree(self):
        u = xinv + x * x
        assert render_op(u) == "(1) * x^2 + (1) * x^-1"

    def test_json_pinned_form(self):
        h1, h2 = BasePoly.variable(2, 0), BasePoly.variable(2, 1)
        p = Fraction(3, 7) * h1 * h1 * h2 - 2 * h2 * h2 - Fraction(1, 2) * h1 - 5
        u = (LaurentOp.monomial(2, (-1, 2), p)
             + LaurentOp.monomial(2, (1, 0), Fraction(-2, 3))
             + LaurentOp.h(2, 1))
        assert op_to_json(u) == {"nvars": 2, "components": [
            {"degree": [1, 0], "coeff": {"nvars": 2, "terms": [
                {"exp": [0, 0], "coef": "-2/3"}]}},
            {"degree": [-1, 2], "coeff": {"nvars": 2, "terms": [
                {"exp": [2, 1], "coef": "3/7"},
                {"exp": [0, 2], "coef": "-2"},
                {"exp": [1, 0], "coef": "-1/2"},
                {"exp": [0, 0], "coef": "-5"}]}},
            {"degree": [0, 0], "coeff": {"nvars": 2, "terms": [
                {"exp": [0, 1], "coef": "1"}]}}]}

    def test_fraction_coefficients(self):
        u = LaurentOp.monomial(1, (1,), Fraction(2, 3))
        assert render_op(u) == "(2/3) * x"


# -- powers of a monomial --------------------------------------------------

def _walk(u, k):
    """The oracle: u^k as k products by u from the unit, each shifting only
    u's coefficient, which is how powers were formed before the dense pass."""
    alpha, c = u
    out = ((0,) * len(alpha), BasePoly.one(c.nvars))
    for _ in range(k):
        out = monomial_product(out, u)
    return out


def _generator(img):
    """The one (degree, coefficient) pair of a generator image."""
    (pair,) = img.components.items()
    return pair


POWERS = (0, 1, 2, 3, 5, 8, 13, 21, 34, 40)


class TestMonomialPower:
    """monomial_power against the walk it replaced: closed forms, the dense
    pass over the moved roots, and the walk it keeps for the rest."""

    @pytest.mark.parametrize("algebra, shape", [
        ("calA", (2,)), ("calA", (3,)), ("calA", (2, 3)), ("calA", (2, 2, 3)),
        ("bbA", (2,)), ("bbA", (4,)), ("bbA", (2, 3)), ("bbA", (3, 2, 2)),
        ("weyl", (1,)), ("weyl", (1, 1)), ("weyl", (1, 1, 1))])
    def test_generator_powers_match_the_walk(self, algebra, shape):
        emb = embedding(shape, algebra)
        for img in emb.x_images + emb.y_images:
            gen = _generator(img)
            for k in POWERS:
                assert monomial_power(gen, k) == _walk(gen, k), (img, k)

    @pytest.mark.parametrize("algebra, m", [
        ("calA", 2), ("calA", 5), ("bbA", 3), ("weyl", 1)])
    def test_recorded_roots_are_the_roots(self, algebra, m):
        # the dense pass records the moved roots on its result, where later
        # searches read them: each is a root, and they give the result back
        for img in embedding((m,), algebra).y_images:
            degree, c = monomial_power(_generator(img), 12)
            roots, rest = rational_roots(c)
            assert all(c.eval([r]) == 0 for r in roots)
            assert linear_factors(roots) * rest == c

    def test_split_generator_power_shifts_and_multiplies_nothing(
            self, monkeypatch):
        gen = _generator(embedding((3,), "calA").y_images[0])
        expected = _walk(gen, 9)
        calls = []
        monkeypatch.setattr(BasePoly, "shift",
                            lambda self, by: calls.append(("shift", by)))
        monkeypatch.setattr(BasePoly, "__mul__",
                            lambda self, other: calls.append(("mul", other)))
        got = monomial_power(gen, 9)
        monkeypatch.undo()
        assert calls == []
        assert got == expected

    def test_unsplit_user_generator_is_walked(self):
        # a = h^2 + 1 has no rational root, so Y's powers take the walk
        pres = GwaPresentation((H * H + 1,), (2,))
        emb = Embedding(pres, [LaurentOp.x(1, 0, 2)],
                        [LaurentOp.monomial(1, (-2,), H * H + 1)])
        gen = _generator(emb.y_images[0])
        for k in range(13):
            assert monomial_power(gen, k) == _walk(gen, k)
            assert emb.image((-k,)) == _walk(gen, k)

    def test_fraction_roots(self):
        # (h - 1/2)(h + 3) * x^2: walked while its roots are unknown, then,
        # once a search has split it, one dense pass over Fraction roots
        c = (H - Fraction(1, 2)) * (H + 3)
        u = ((2,), c)
        walked = [monomial_power(u, k) for k in range(13)]
        assert c._roots is None
        rational_roots(c)
        for k, expected in enumerate(walked):
            assert monomial_power(u, k) == expected == _walk(u, k)

    def test_multivariate_coefficient_is_walked(self):
        h1, h2 = BasePoly.variable(2, 0), BasePoly.variable(2, 1)
        u = ((1, 0), h1 + h2)
        for k in range(9):
            assert monomial_power(u, k) == _walk(u, k)

    @pytest.mark.parametrize("u", [
        ((1,), H), ((-2,), H * H - H - 2), ((0,), H + 5), ((3,), 7 * H ** 0),
        ((1, 0), BasePoly.variable(2, 0) + BasePoly.variable(2, 1))])
    def test_zeroth_and_first_powers(self, u):
        alpha, c = u
        one = BasePoly.one(c.nvars)
        assert monomial_power(u, 0) == ((0,) * len(alpha), one)
        assert monomial_power(u, 1) == u

    def test_constant_and_degree_zero_powers_are_closed(self):
        assert monomial_power(((3,), BasePoly.constant(1, 2)), 5) == (
            (15,), BasePoly.constant(1, 32))
        assert monomial_power(((0,), H + 1), 3) == ((0,), (H + 1) ** 3)

    def test_never_searches_for_roots(self, monkeypatch):
        # only roots that c records, or the root of a linear c, are read:
        # (h - 1) ... (h - 40), built afresh from its terms, records none and
        # has a 48-digit constant term whose divisor scan would not end in
        # time, so its powers are walked
        c = BasePoly(1, linear_factors(range(1, 41)).terms)
        u = ((1,), c)
        expected = _walk(u, 2)

        def refuse(n):
            raise AssertionError("searched the divisors of %d" % n)

        monkeypatch.setattr(exactpoly, "_divisors", refuse)
        assert monomial_power(u, 2) == expected
        assert monomial_power(((-1,), H - 7), 30) == _walk(((-1,), H - 7), 30)
        assert monomial_power(((1,), H ** 3 * (H + 2)), 6) == _walk(
            ((1,), H ** 3 * (H + 2)), 6)
