"""Expression parser: atoms, precedence, noncommutative order, error positions,
algebra-specific generator pairs, round trips through the renderer, and base
polynomials read with the same grammar."""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cuspdiff import cuspops, exactpoly
from cuspdiff.cuspops import delta_op, generator_pair, w_minus
from cuspdiff.exactpoly import BasePoly, ExponentOverflow, render_poly
from cuspdiff.exprparse import ExprParseError, parse_expression, parse_poly
from cuspdiff.gwa import render_gwa
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

    def test_bbA_pair_needs_every_width_two(self):
        # X and Y are the images of the algebra's one embedding, so a bbA
        # pair is refused at its token wherever a width is 1, as the
        # presentation itself is
        with pytest.raises(ExprParseError, match="^the degree one pair needs "
                                                 "width >= 2 at position 2$"):
            parse("h*X@2", (1, 3), "bbA")
        assert parse("h*X@2", (3, 1), "weyl") == (LaurentOp.h(2, 0)
                                                  * LaurentOp.x(2, 1))

    def test_plain_ring_has_no_pair(self):
        with pytest.raises(ExprParseError, match="named algebra"):
            parse("X", 2, "DA")

    def test_pair_with_factor_index(self):
        got = parse("X@2 * Y@2", (2, 3), "calA")
        expected = LaurentOp.x(2, 1, 3) * delta_op((2, 3), (0, -3))
        assert got == expected

    def test_pair_with_trailing_index(self):
        # X<k> and Y<k> name factor k as h<k> and x<k> do, and as X@k does
        for algebra, shape in (("calA", (2, 3)), ("bbA", (2, 3, 2)),
                               ("weyl", (1, 1))):
            for k in range(1, len(shape) + 1):
                for name in ("X", "Y"):
                    assert parse("%s%d^2*h%d" % (name, k, k), shape,
                                 algebra) == parse("%s@%d^2*h%d" % (
                                     name, k, k), shape, algebra)
        assert parse("X1", 2, "calA") == parse("X", 2, "calA")

    def test_trailing_index_out_of_range_is_no_name(self):
        # only the names of the shape's factors are generators, so the
        # recorded errors of exprparse_errors.json stand
        with pytest.raises(ExprParseError,
                           match="^unknown name 'Y3' at position 0$"):
            parse("Y3", (2, 3), "calA")
        with pytest.raises(ExprParseError,
                           match="^unknown name 'X0' at position 0$"):
            parse("X0", (2, 3), "calA")
        with pytest.raises(ExprParseError, match="^X2 is only defined for a "
                           r"named algebra \(bbA, calA or weyl\) at "
                           "position 0$"):
            parse("X2", (2, 3))

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

    @pytest.mark.parametrize("algebra, shape", [
        ("calA", (2,)), ("calA", (2, 3)), ("calA", (3, 2, 2)),
        ("bbA", (3,)), ("bbA", (2, 3)), ("bbA", (2, 2, 3)),
        ("weyl", (1,)), ("weyl", (1, 1)), ("weyl", (1, 1, 1))])
    def test_gwa_text_parses_back(self, algebra, shape):
        # render_gwa names factor i's generators Xi and Yi above rank one,
        # and its text is the embedding's image of the element
        pres, emb = cuspops.presentation(shape, algebra)
        n = pres.nvars
        rng = random.Random(41)
        for _ in range(15):
            coords = {}
            for _ in range(rng.randint(1, 4)):
                alpha = tuple(rng.randint(-3, 3) for _ in range(n))
                coords[alpha] = BasePoly(n, {
                    tuple(rng.randint(0, 2) for _ in range(n)):
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                    for _ in range(rng.randint(1, 3))})
            u = pres.element(coords)
            assert parse(render_gwa(u), shape, algebra) == emb.apply(u), \
                render_gwa(u)


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


# -- the recorded error corpus ------------------------------------------------

CORPUS = json.loads((Path(__file__).parent / "exprparse_errors.json").read_text())


class TestErrorCorpus:
    """Every truncation, a bad character inserted at and substituted for each
    position, and each doubled operator of ten seed expressions: the error
    text, or the rendered value of a variant that parses, stays as recorded
    in exprparse_errors.json."""

    def test_outcomes_are_unchanged(self):
        changed = []
        for case in CORPUS["cases"]:
            try:
                got = {"value": render_op(parse(case["text"],
                                                tuple(case["shape"]),
                                                case["algebra"]))}
            except ExprParseError as exc:
                got = {"error": str(exc)}
            want = {k: case[k] for k in ("value", "error") if k in case}
            if got != want:
                changed.append((case["text"], got, want))
        assert changed == []
        assert len(CORPUS["cases"]) > 600


class TestAsciiTokens:
    @pytest.mark.parametrize("text, char, at", [
        ("h^²", "²", 2),      # superscript two
        ("x^١", "١", 2),      # Arabic-Indic digit one
        ("h١", "١", 1),
        ("é", "é", 0),
        ("2*h + ٣", "٣", 6)])
    def test_non_ascii_characters_are_refused(self, text, char, at):
        with pytest.raises(ExprParseError) as err:
            parse(text)
        assert str(err.value) == ("unexpected character %r at position %d"
                                  % (char, at))

    def test_unicode_whitespace_still_separates(self):
        assert parse("h\u00a0+\u20032") == h + 2


class TestIntegersOfAnyLength:
    def test_long_literal(self):
        digits = "9" * 4401
        assert parse(digits) == LaurentOp.one(1) * (10 ** 4401 - 1)
        assert parse("1/" + digits + "*h") == h * Fraction(1, 10 ** 4401 - 1)

    def test_long_exponent_and_factor_index(self):
        digits = "0" * 4400 + "3"
        assert parse("x^" + digits) == LaurentOp.x(1, 0, 3)
        assert parse("h" + digits, (2, 2, 2)) == LaurentOp.h(3, 2)
        with pytest.raises(ExprParseError,
                           match="factor index 1%s out of range 1..2"
                           % ("0" * 4400)):
            parse("d(1%s)" % ("0" * 4400), (2, 2))

    def test_5001_digit_coefficient_round_trips(self):
        u = (LaurentOp.monomial(1, (2,), BasePoly(1, {(1,): 10 ** 5000,
                                                      (0,): -3}))
             + LaurentOp.monomial(1, (-1,), Fraction(1, 7 ** 6000)))
        assert parse(render_op(u)) == u

    def test_100000_digit_coefficients_round_trip(self):
        big = 10 ** 99999 + 7 ** 100000  # 100,000 digits
        rng = random.Random(9)
        u = (LaurentOp.monomial(1, (2,), BasePoly(1, {(1,): big, (0,): -3}))
             + LaurentOp.monomial(1, (-1,), Fraction(1, big + 2)))
        assert parse(render_op(u)) == u
        assert parse_poly(render_poly(big * H - 1)) == big * H - 1
        # the GWA text form reads back as the element's image (at rank 1:
        # above it, render_gwa writes X1 where the parser reads X@1)
        for widths, algebra in (((2,), "calA"), ((3,), "bbA"), ((1,), "weyl")):
            pres, emb = cuspops.presentation(widths, algebra)
            u = pres.element({(rng.randint(-2, 2),): BasePoly(
                1, {(1,): big, (0,): -rng.randint(1, 9)}) for _ in range(3)})
            assert parse(render_gwa(u), widths, algebra) == emb.apply(u)


# -- a value oracle -------------------------------------------------------------

ORACLE_SHAPES = [((2,), "DA"), ((3,), "calA"), ((2,), "bbA"), ((1,), "weyl"),
                 ((2, 3), "DA"), ((2, 3), "bbA"), ((3, 2), "calA"),
                 ((2, 2, 3), "weyl"), ((2, 3, 4), "DA")]


class _Oracle:
    """Random expression text with its value built by LaurentOp arithmetic
    alone, never by the parser."""

    def __init__(self, rng, shape, algebra):
        self.rng, self.shape, self.algebra = rng, shape, algebra
        self.n = len(shape)

    def name(self, letter, j):
        if self.n == 1 and self.rng.random() < 0.7:
            return letter
        return "%s%d" % (letter, j + 1)

    def at(self, j):
        if self.n == 1 and self.rng.random() < 0.7:
            return ""
        return "@%d" % (j + 1)

    def unit(self, j, k):
        return tuple(k if i == j else 0 for i in range(self.n))

    def literal(self):
        rng = self.rng
        p = rng.choice([0, 1, 2, 3, 7, 12])
        if rng.random() < 0.4:
            q = rng.choice([1, 2, 3, 6])
            return "%d/%d" % (p, q), Fraction(p, q)
        return str(p), p

    def atom(self):
        """(text, value, exponents it takes) of a random atom."""
        rng, n = self.rng, self.n
        j = rng.randrange(n)
        kinds = ["literal", "h", "x", "delta", "w", "d"]
        if self.algebra != "DA":
            kinds += ["XY"] * 2
        kind = rng.choice(kinds)
        if kind == "literal":
            text, value = self.literal()
            return text, LaurentOp.one(n) * value, range(0, 3)
        if kind == "h":
            return self.name("h", j), LaurentOp.h(n, j), range(0, 4)
        if kind == "x":
            return self.name("x", j), LaurentOp.x(n, j), range(-3, 4)
        if kind == "delta":
            k = rng.randint(-4, 4)
            return ("delta(%d%s)" % (k, self.at(j)),
                    delta_op(self.shape, self.unit(j, k)), range(0, 3))
        if kind == "w":
            k = rng.randint(1, 3)
            coeff = w_minus(self.shape[j], k).graded_component((-k,))
            return ("w(%d%s)" % (-k, self.at(j)),
                    LaurentOp.monomial(n, self.unit(j, -k),
                                       coeff.inject(n, j)), range(0, 2))
        if kind == "d":
            return "d(%d)" % (j + 1), LaurentOp.d(n, j), range(0, 3)
        if self.algebra == "bbA" and self.shape[j] < 2:
            j = self.shape.index(max(self.shape))
        letter = rng.choice("XY")
        pair = generator_pair(self.shape, self.algebra, j)
        return (letter + self.at(j), pair[letter == "Y"], range(0, 3))

    def factor(self, depth):
        rng = self.rng
        if rng.random() < 0.15:
            text, value = self.factor(depth)
            return "-" + text, -value
        if depth and rng.random() < 0.2:
            text, value = self.expr(depth - 1)
            text, value, powers = "(" + text + ")", value, range(0, 3)
        else:
            text, value, powers = self.atom()
        if rng.random() < 0.4:
            e = rng.choice(powers)
            if e == 1 and rng.random() < 0.5:
                return text + "^1", value
            if e < 0:
                # a negative power is only written on a bare x, as x^e
                return text + "^%d" % e, LaurentOp.monomial(
                    self.n, tuple(v * e for v in value.support()[0]), 1)
            return text + "^%d" % e, value ** e
        return text, value

    def term(self, depth):
        text, value = self.factor(depth)
        for _ in range(self.rng.randint(0, 2)):
            more, v = self.factor(depth)
            text, value = text + self.rng.choice(["*", " * "]) + more, value * v
        return text, value

    def expr(self, depth=1):
        text, value = self.term(depth)
        for _ in range(self.rng.randint(0, 2)):
            more, v = self.term(depth)
            if self.rng.random() < 0.5:
                text, value = text + " + " + more, value + v
            else:
                text, value = text + " - " + more, value - v
        return text, value


class TestValueOracle:
    @pytest.mark.parametrize("shape, algebra", ORACLE_SHAPES,
                             ids=["%s-%s" % (",".join(map(str, s)), a)
                                  for s, a in ORACLE_SHAPES])
    def test_seeded_expressions(self, shape, algebra):
        rng = random.Random("%s:%s" % (shape, algebra))
        oracle = _Oracle(rng, shape, algebra)
        for _ in range(60):
            text, expected = oracle.expr()
            got = parse(text, shape, algebra)
            assert got == expected, text
            assert render_op(got) == render_op(expected), text

    def test_the_oracle_reaches_every_form(self):
        texts = []
        for shape, algebra in ORACLE_SHAPES:
            oracle = _Oracle(random.Random("%s:%s" % (shape, algebra)),
                             shape, algebra)
            texts += [oracle.expr()[0] for _ in range(60)]
        text = "\n".join(texts)
        for needle in ("/", "0*", "^0", "h^", "h2", "x^-", "x2", "delta(",
                       "@", "w(-", "d(", "X", "Y", "-(", ")^", ")*", "*("):
            assert needle in text, needle


# -- work counts ----------------------------------------------------------------

class TestWorkCounts:
    def test_monomial_terms_make_no_laurent_product(self, monkeypatch):
        expected = (3 * h * h * delta_op(2, (5,))
                    - Fraction(4, 3) * LaurentOp.x(1, 0, -2) * h)
        products = []
        real = LaurentOp.__mul__

        def counting(self, other):
            products.append(other)
            return real(self, other)

        monkeypatch.setattr(LaurentOp, "__mul__", counting)
        got = parse("3*h^2*delta(5) - 4/3*x^-2*h")
        monkeypatch.undo()
        assert products == []
        assert got == expected

    @pytest.mark.parametrize("k", [3, 7, 20])
    def test_power_shifts_only_the_generator(self, monkeypatch, k):
        # calA's Y at m = 2 has coefficient (h + 1)(h - 2), whose roots the
        # table records, so Y^k is one dense pass over the moved roots, with
        # no BasePoly shift and no product.  The table keeps its powers for
        # the process: clear it and prove the relations before counting
        cuspops._canonical.cache_clear()
        cuspops._canonical((2,), "calA")
        y = generator_pair(2, "calA", 0)[1]
        calls = []
        monkeypatch.setattr(BasePoly, "shift",
                            lambda self, by: calls.append(("shift", by)))
        monkeypatch.setattr(BasePoly, "__mul__",
                            lambda self, other: calls.append(("mul", other)))
        got = parse("Y^%d" % k, 2, "calA")
        monkeypatch.undo()
        assert calls == []
        assert got == y ** k

    def test_powers_search_no_roots(self, monkeypatch):
        # delta(-40) at width 1 is h (h + 1) ... (h + 39), and calA's Y at
        # m = 40 has 40 roots too: a divisor scan of their constant terms
        # would not end in time, so a power reads only the roots that travel
        # with its coefficient, or walks
        def refuse(n):
            raise AssertionError("searched the divisors of %d" % n)

        expected = [delta_op(1, (-40,)) ** 2,
                    generator_pair(40, "calA", 0)[1] ** 2]
        monkeypatch.setattr(exactpoly, "_divisors", refuse)
        got = [parse("delta(-40)^2", 1), parse("Y^2", 40, "calA")]
        assert got == expected

    @pytest.mark.parametrize("algebra", ["calA", "weyl"])
    def test_constant_generator_power_walks_nothing(self, monkeypatch,
                                                    algebra):
        # X of calA and weyl has coefficient 1: the embedding forms its
        # power in closed form, however large, with no walk; the relations
        # shift, so they are proved first, at the algebra's table key
        cuspops.embedding(2, algebra)
        shifts = []
        monkeypatch.setattr(BasePoly, "shift",
                            lambda self, by: shifts.append(by))
        got = parse("X^100000000", 2, algebra)
        monkeypatch.undo()
        assert shifts == []
        step = 2 if algebra == "calA" else 1
        assert got == LaurentOp.x(1, 0, 100000000 * step)

    def test_products_are_polynomial_products(self, monkeypatch):
        # a literal is a degree zero monomial and 0 the empty operator, so
        # every coefficient product multiplies two polynomials
        cases = [
            ("3*h^2*delta(5) - 4/3*x^-2*h", 2,
             3 * h * h * delta_op(2, (5,))
             - Fraction(4, 3) * LaurentOp.x(1, 0, -2) * h),
            ("2*(h+1)*x^-1*3", 2, 2 * (h + 1) * LaurentOp.x(1, 0, -1) * 3),
            ("-1/2*h1*delta(1@2)^2*5", (2, 3),
             -Fraction(1, 2) * LaurentOp.h(2, 0)
             * delta_op((2, 3), (0, 1)) ** 2 * 5),
            ("0*h + 0^0*x", 2, 0 * h + LaurentOp.zero(1) ** 0 * x),
        ]
        operands = []
        real = BasePoly.__mul__

        def recording(self, other):
            operands.append((self, other))
            return real(self, other)

        monkeypatch.setattr(BasePoly, "__mul__", recording)
        got = [parse(text, shape) for text, shape, _ in cases]
        monkeypatch.undo()
        assert operands
        assert [pair for pair in operands
                if not all(isinstance(v, BasePoly) for v in pair)] == []
        assert got == [expected for _, _, expected in cases]

    def test_power_of_h_squares(self):
        # a degree zero base keeps BasePoly squaring
        start = time.perf_counter()
        got = parse("h^1000000")
        assert time.perf_counter() - start < 0.1
        assert got.components == {(0,): BasePoly(1, {(1000000,): 1})}


# -- the 2^31 field rule --------------------------------------------------------

WIDE = 2 ** 31  # an exponent at rank >= 2 that no product may take as a factor


def _coefficient(alpha, terms):
    return LaurentOp(2, {alpha: BasePoly(2, terms)})


class TestExponentFieldRule:
    # negation, a zero scalar and a walked power multiply no coefficient that
    # a product of the same operators would not
    @pytest.mark.parametrize("text, expected", [
        ("-h1^%d" % WIDE, _coefficient((0, 0), {(WIDE, 0): -1})),
        ("-(h1^%d+1)" % WIDE, _coefficient((0, 0), {(WIDE, 0): -1, (0, 0): -1})),
        ("0*h1^%d" % WIDE, LaurentOp.zero(2)),
        ("h1^%d*0" % WIDE, LaurentOp.zero(2)),
        ("0*(h1^%d+1)" % WIDE, LaurentOp.zero(2)),
        ("1*h1^%d" % WIDE, _coefficient((0, 0), {(WIDE, 0): 1})),
        # the walk reaches 5e >= 2^31 as a factor, squaring only 4e
        ("(x1*h2^429496730)^6", _coefficient((6, 0), {(0, 6 * 429496730): 1})),
    ])
    def test_accepted(self, text, expected):
        assert parse(text, (2, 2)) == expected

    @pytest.mark.parametrize("text", [
        "2*h1^%d" % WIDE, "1/2*h1^%d" % WIDE, "(x1*h2^%d)^3" % (WIDE // 2)])
    def test_refused(self, text):
        with pytest.raises(ExponentOverflow):
            parse(text, (2, 2))
