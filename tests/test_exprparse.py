"""Expression parser: atoms, precedence, noncommutative order, error positions,
algebra-specific generator pairs, round trips through the renderer, and base
polynomials read with the same grammar."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuspdiff.cuspops import delta_op, w_minus
from cuspdiff.exactpoly import BasePoly, render_poly
from cuspdiff.exprparse import ExprParseError, parse_expression, parse_poly
from cuspdiff.skewlaurent import LaurentOp, render_op

H = BasePoly.variable(1, 0)
x = LaurentOp.x(1, 0)
h = LaurentOp.h(1, 0)


def parse(text, shape=2, algebra="DA"):
    return parse_expression(text, shape, algebra)


class TestAtoms:
    def test_rationals(self):
        assert parse("3") == LaurentOp.one(1) * 3
        assert parse("2/3") == LaurentOp.monomial(1, (0,), Fraction(2, 3))
        assert parse("-5") == LaurentOp.one(1) * (-5)

    def test_h_and_x(self):
        assert parse("h") == h
        assert parse("x") == x
        assert parse("x^-1") == LaurentOp.x(1, 0, -1)
        assert parse("x^3") == LaurentOp.x(1, 0, 3)

    def test_indexed_names(self):
        shape = (2, 3)
        assert parse("h2", shape) == LaurentOp.h(2, 1)
        assert parse("x1^-2", shape) == LaurentOp.x(2, 0, -2)
        assert parse("x2", shape) == LaurentOp.x(2, 1)

    def test_delta(self):
        assert parse("delta(-1)") == delta_op(2, (-1,))
        assert parse("delta(3)") == delta_op(2, (3,))
        # any degree is allowed, not just the generator window
        assert parse("delta(-7)") == delta_op(2, (-7,))
        assert parse("delta(2@2)", (2, 3)) == delta_op((2, 3), (0, 2))

    def test_w(self):
        assert parse("w(-1)") == w_minus(2, 1)
        assert parse("w(-3)", 3) == w_minus(3, 3)

    def test_d(self):
        assert parse("d(1)") == LaurentOp.d(1, 0)
        assert parse("d(2)", (2, 2)) == LaurentOp.d(2, 1)

    def test_parenthesized(self):
        assert parse("(h-2)") == h - 2


class TestPrecedenceAndOrder:
    def test_sum_of_products(self):
        assert parse("h+2*h") == 3 * h
        assert parse("h*h-1") == h * h - 1

    def test_power_binds_tightest(self):
        assert parse("2*x^3") == 2 * LaurentOp.x(1, 0, 3)
        assert parse("h^2") == h * h

    def test_unary_minus(self):
        assert parse("-h") == -h
        assert parse("-h^2") == -(h * h)
        assert parse("2--3") == 5 * LaurentOp.one(1)

    def test_noncommutative_order_is_preserved(self):
        # x^{-1} h = (h+1) x^{-1} while h x^{-1} keeps h on the left
        left = parse("x^-1*h")
        right = parse("h*x^-1")
        assert left == LaurentOp.monomial(1, (-1,), H + 1)
        assert right == LaurentOp.monomial(1, (-1,), H)
        assert left != right

    def test_known_product(self):
        assert parse("delta(-1)*delta(1)") == LaurentOp.from_poly(
            H * (H - 1) * (H - 2))

    def test_grouped_coefficient_times_monomial(self):
        assert parse("h*(h-2)*x^-1") == delta_op(2, (-1,))


class TestExponentRules:
    def test_negative_exponent_only_on_x(self):
        with pytest.raises(ExprParseError):
            parse("h^-1")
        with pytest.raises(ExprParseError):
            parse("(h+1)^-2")
        with pytest.raises(ExprParseError):
            parse("delta(1)^-1")

    def test_nonnegative_powers_fine_everywhere(self):
        assert parse("delta(1)^2") == delta_op(2, (1,)) ** 2
        assert parse("(h-1)^0") == LaurentOp.one(1)


class TestErrors:
    def test_position_reported(self):
        with pytest.raises(ExprParseError, match="position 2"):
            parse("h+$")
        with pytest.raises(ExprParseError, match="position 4"):
            parse("h + + h")

    def test_trailing_input(self):
        with pytest.raises(ExprParseError, match="trailing"):
            parse("h h")

    def test_unknown_name(self):
        with pytest.raises(ExprParseError, match="unknown name"):
            parse("q")

    def test_unbalanced_parens(self):
        with pytest.raises(ExprParseError):
            parse("(h+1")

    def test_zero_denominator(self):
        with pytest.raises(ExprParseError, match="zero denominator"):
            parse("1/0")

    def test_w_needs_negative_degree(self):
        with pytest.raises(ExprParseError, match="negative"):
            parse("w(2)")

    def test_factor_index_range(self):
        with pytest.raises(ExprParseError, match="factor index"):
            parse("d(3)")
        with pytest.raises(ExprParseError, match="factor index"):
            parse("h5", (2, 2))
        with pytest.raises(ExprParseError, match="factor index"):
            parse("delta(1@3)", (2, 2))

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ExprParseError):
            parse("2h")

    def test_empty_input(self):
        with pytest.raises(ExprParseError):
            parse("")


class TestAlgebraPairs:
    def test_weyl(self):
        assert parse("X", 1, "weyl") == x
        assert parse("Y", 1, "weyl") == LaurentOp.monomial(1, (-1,), H)

    def test_calA(self):
        assert parse("X", 3, "calA") == LaurentOp.x(1, 0, 3)
        assert parse("Y", 3, "calA") == delta_op(3, (-3,))

    def test_bbA(self):
        assert parse("X", 2, "bbA") == delta_op(2, (1,))
        assert parse("Y", 2, "bbA") == delta_op(2, (-1,))

    def test_bbA_needs_width_two(self):
        with pytest.raises(ExprParseError, match="width"):
            parse("X", 1, "bbA")

    def test_plain_ring_has_no_pair(self):
        with pytest.raises(ExprParseError, match="named algebra"):
            parse("X", 2, "DA")

    def test_pair_with_factor_index(self):
        got = parse("X@2 * Y@2", (2, 3), "calA")
        expected = LaurentOp.x(2, 1, 3) * delta_op((2, 3), (0, -3))
        assert got == expected

    def test_right_coefficient_style_input(self):
        got = parse("Y*h + h", 2, "bbA")
        expected = delta_op(2, (-1,)) * h + h
        assert got == expected


class TestRoundTrip:
    def test_rendered_ops_parse_back(self):
        samples = [
            delta_op(2, (-2,)) * 3 + LaurentOp.from_poly(H * H - 2),
            w_minus(3, 2) - LaurentOp.x(1, 0, 4),
            LaurentOp.monomial(1, (0,), Fraction(1, 2)) + LaurentOp.x(1, 0, -3),
        ]
        for u in samples:
            assert parse(render_op(u), 3) == u

    def test_rank_two_round_trip(self):
        u = (delta_op((2, 3), (1, -2)) * 2
             + LaurentOp.monomial(2, (0, 1), BasePoly.variable(2, 0)))
        assert parse(render_op(u), (2, 3)) == u


coeffs = st.one_of(st.integers(min_value=-9, max_value=9),
                   st.fractions(min_value=-9, max_value=9, max_denominator=4))


@st.composite
def polys(draw, nvars, maxdeg):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        exp = tuple(draw(st.integers(min_value=0, max_value=maxdeg))
                    for _ in range(nvars))
        terms[exp] = draw(coeffs)
    return BasePoly(nvars, terms)


def typed_terms(p):
    return {exp: (type(c), c) for exp, c in p.terms.items()}


class TestParsePoly:
    def test_parse_known(self):
        assert parse_poly("h^2-3*h+2") == (H - 1) * (H - 2)
        assert parse_poly("-h+1/2") == -H + Fraction(1, 2)
        assert parse_poly("h1*h2+1", nvars=2) == \
            BasePoly.variable(2, 0) * BasePoly.variable(2, 1) + 1
        assert parse_poly("0") == BasePoly.zero(1)
        assert parse_poly("0", nvars=2) == BasePoly.zero(2)

    def test_parse_error_carries_position(self):
        with pytest.raises(ExprParseError) as err:
            parse_poly("h^")
        assert "position" in str(err.value)

    def test_parse_rejects_variable_index_zero(self):
        # variables are h1..hn; h0 must not wrap around to the last one
        for text, nvars, at in (("h0", 1, 0), ("h0+h1", 2, 0),
                                ("2*h1*h0^2", 2, 5)):
            with pytest.raises(ExprParseError) as err:
                parse_poly(text, nvars=nvars)
            assert "position %d" % at in str(err.value)

    def test_rejects_terms_of_nonzero_degree(self):
        for text in ("x", "d(1)", "delta(1)", "x^-1"):
            with pytest.raises(ExprParseError, match="not a polynomial"):
                parse_poly(text)
        with pytest.raises(ExprParseError, match="not a polynomial"):
            parse_poly("h1+x2", nvars=2)

    @given(polys(nvars=1, maxdeg=4))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, p):
        q = parse_poly(render_poly(p), nvars=1)
        assert q == p and typed_terms(q) == typed_terms(p)

    @given(polys(nvars=2, maxdeg=3))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_rank_two(self, p):
        q = parse_poly(render_poly(p), nvars=2)
        assert q == p and typed_terms(q) == typed_terms(p)
