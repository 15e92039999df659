"""Operator ring of the cusp algebra: phi table, deltas, structure constants,
the Weyl intersection, and canonical presentations."""

import json
import random
from fractions import Fraction

import pytest

from cuspdiff.cuspops import (CuspShape, as_shape, bbA_presentation,
                              calA_presentation, decompose, delta_op,
                              factor_generators, generating_set,
                              generator_pair, membership, phi,
                              phi_multi, presentation, structure_constant,
                              w_minus, weyl_presentation)
from cuspdiff import cuspops, exactpoly
from cuspdiff.cli import main
from cuspdiff.exactpoly import (ArityMismatch, BasePoly, NotDivisible,
                                exact_divide, linear_factors, render_poly)
from cuspdiff.exprparse import parse_expression, parse_poly
from cuspdiff.gwa import NotInImage, verify_presentation
from cuspdiff.skewlaurent import (LaurentOp, commutator, graded_divisor,
                                  vanishing_roots, weyl_membership)

H = BasePoly.variable(1, 0)


def p(text):
    return parse_poly(text, 1)


def rising(t):
    """h (h+1) ... (h+t-1), multiplied out by hand."""
    out = BasePoly.one(1)
    for k in range(t):
        out = out * (H + k)
    return out


class TestShape:
    def test_basic(self):
        s = CuspShape((2, 3))
        assert s.rank == 2 and s.m == (2, 3)
        assert as_shape(3) == CuspShape((3,))
        assert as_shape(s) is s

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            CuspShape((0,))
        with pytest.raises(ValueError):
            CuspShape(())

    @pytest.mark.parametrize("width", [2.5, Fraction(7, 2), "3"])
    def test_non_integral_width_is_refused(self, width):
        # widths follow ExponentSet's rule: an int or an integral Fraction
        for make in (CuspShape, as_shape):
            with pytest.raises(ValueError, match="CuspShape needs integers"):
                make((width,))
        assert CuspShape((Fraction(6, 2),)) == CuspShape((3,))

    def test_an_equal_float_does_not_find_an_interned_shape(self):
        as_shape((2,))
        with pytest.raises(ValueError, match="CuspShape needs integers"):
            as_shape((2.0,))


@pytest.fixture
def fresh_shapes():
    """An empty shape intern table before and after the test."""
    for table in cuspops._shapes.values():
        table.clear()
    yield
    for table in cuspops._shapes.values():
        table.clear()


def _error(make, shape):
    with pytest.raises(Exception) as exc:
        make(shape)
    return exc.type, str(exc.value)


class TestInternedShapes:
    def test_one_object_per_input(self, fresh_shapes):
        for shape in (3, (3,), (2, 3)):
            first = as_shape(shape)
            assert as_shape(shape) is first
            assert first == CuspShape(shape)

    def test_list_input(self, fresh_shapes):
        assert as_shape([2, 3]) == CuspShape((2, 3))

    def test_invalid_inputs_raise_as_cuspshape(self, fresh_shapes):
        # 2.0 equals 2, but only the int is a width
        bad = (0, (), (2, 0), "a", (2, [1]), 2.0)
        before = [_error(as_shape, shape) for shape in bad]
        for valid in (2, (2,), (2, 3)):
            as_shape(valid)
        after = [_error(as_shape, shape) for shape in bad]
        assert before == after == [_error(CuspShape, shape) for shape in bad]


class TestPhi:
    def test_zero_and_high_degrees(self):
        for m in range(1, 7):
            assert phi(m, 0) == BasePoly.one(1)
            for i in range(m, m + 4):
                assert phi(m, i) == BasePoly.one(1)

    def test_positive_window(self):
        # h - i - 1 strictly below the width
        assert phi(2, 1) == p("h-2")
        assert phi(4, 1) == p("h-2")
        assert phi(4, 2) == p("h-3")
        assert phi(4, 3) == p("h-4")

    def test_negative_hand_values(self):
        assert phi(2, -1) == p("h^2-2*h")
        assert phi(2, -2) == p("h^2-h-2")
        assert phi(2, -3) == p("h^3-4*h")
        assert phi(2, -4) == p("h^4+2*h^3-5*h^2-6*h")
        assert phi(3, -1) == p("h^2-3*h")
        assert phi(3, -2) == p("h^3-4*h^2+h+6")
        assert phi(3, -3) == p("h^3-3*h^2-4*h+12")

    def test_negative_product_form(self):
        # (h+t-1) * prod_{j=m-t+1..m, j != 1} (h-j)
        for m in (2, 3, 5):
            for t in (1, 2, m, m + 2):
                expected = H + (t - 1)
                for j in range(m - t + 1, m + 1):
                    if j != 1:
                        expected = expected * (H - j)
                assert phi(m, -t) == expected

    def test_width_one_is_rising_factorial(self):
        for t in range(1, 5):
            assert phi(1, -t) == rising(t)

    def test_multi(self):
        shape = CuspShape((2, 3))
        got = phi_multi(shape, (-1, 2))
        h1 = BasePoly.variable(2, 0)
        h2 = BasePoly.variable(2, 1)
        assert got == (h1 * h1 - 2 * h1) * (h2 - 3)


class TestDelta:
    def test_rank_one_values(self):
        assert delta_op(2, (-1,)) == LaurentOp.monomial(1, (-1,), p("h^2-2*h"))
        assert delta_op(2, (2,)) == LaurentOp.x(1, 0, 2)
        assert delta_op(2, (-2,)) == LaurentOp.monomial(1, (-2,), p("h^2-h-2"))

    def test_rank_two_is_product_of_factors(self):
        shape = CuspShape((2, 3))
        u = delta_op(shape, (-1, 2))
        comp = u.graded_component((-1, 2))
        assert comp == phi_multi(shape, (-1, 2))
        assert u.support() == [(-1, 2)]

    @pytest.mark.parametrize("widths", [(2,), (5,), (2, 3)])
    def test_memoized_delta_is_the_monomial(self, widths):
        n = len(widths)
        for alpha in [(k,) * n for k in range(-11, 12)] + [
                tuple(range(-n, 0)), tuple(range(1, n + 1))]:
            expected = LaurentOp.monomial(n, alpha, phi_multi(widths, alpha))
            assert delta_op(widths, alpha) == expected
            # one shared object per key, whatever form the shape takes
            assert delta_op(CuspShape(widths), list(alpha)) is delta_op(widths, alpha)

    def test_degree_of_the_wrong_length(self):
        for widths, alpha in (((2,), (1, 1)), ((2, 3), (1,)), ((2, 3), ())):
            with pytest.raises(ArityMismatch):
                delta_op(widths, alpha)


class TestMembership:
    def test_generators_inside(self):
        # every delta is a member by construction: the module sweeps act
        # with them, modulo A(m), and check none of them
        for m in range(1, 13):
            assert membership(LaurentOp.h(1, 0), m)
            for k in range(1, 3 * m + 1):
                assert membership(delta_op(m, (k,)), m)
                assert membership(delta_op(m, (-k,)), m)

    def test_bare_x_and_partial_outside(self):
        for m in (2, 3):
            assert not membership(LaurentOp.x(1, 0), m)
            assert not membership(LaurentOp.d(1, 0), m)
        # width one has no positive constraint at degree 1
        assert membership(LaurentOp.x(1, 0), 1)

    def test_x_to_the_m_inside(self):
        for m in (2, 3, 4):
            assert membership(LaurentOp.x(1, 0, m), m)
            assert not membership(LaurentOp.x(1, 0, m - 1), m)

    def test_closure_under_products(self):
        gens = generating_set(3)
        for i in range(0, len(gens), 3):
            for j in range(1, len(gens), 3):
                assert membership(gens[i] * gens[j], 3)

    def test_rank_two_factorwise(self):
        shape = CuspShape((2, 3))
        assert membership(delta_op(shape, (1, -2)), shape)
        bad = LaurentOp.monomial(2, (1, 0), BasePoly.one(2))
        assert not membership(bad, shape)


class TestDecompose:
    def test_known_coordinates(self):
        u = LaurentOp.from_poly(H) * delta_op(2, (1,)) + 3 * delta_op(2, (-2,))
        coords = decompose(u, 2)
        assert coords == {(1,): H, (-2,): BasePoly.constant(1, 3)}

    def test_round_trip(self):
        shape = as_shape(3)
        u = (delta_op(shape, (2,)) * 5 - delta_op(shape, (-4,))
             + LaurentOp.from_poly(H * H))
        coords = decompose(u, shape)
        rebuilt = LaurentOp.zero(1)
        for alpha, c in coords.items():
            rebuilt = rebuilt + LaurentOp.from_poly(c) * delta_op(shape, alpha)
        assert rebuilt == u

    def test_rejects_outsiders(self):
        with pytest.raises(NotDivisible):
            decompose(LaurentOp.x(1, 0), 2)

    def test_first_failure_in_support_order(self):
        # both components fail; the error names degree 1, the top of the
        # support, though degree -1 was stored first
        u = LaurentOp(1, {(-1,): BasePoly.one(1), (1,): BasePoly.one(1)})
        with pytest.raises(NotDivisible) as exc:
            decompose(u, 2)
        assert str(exc.value) == "h-2 does not divide 1"
        assert not membership(u, 2)


def _no_rendering(p):
    raise AssertionError("a polynomial was rendered")


class TestErrorTextOnDemand:
    def test_non_members_render_nothing(self, monkeypatch):
        monkeypatch.setattr(exactpoly, "render_poly", _no_rendering)
        for m in (2, 3):
            assert not membership(LaurentOp.x(1, 0), m)
            assert not membership(LaurentOp.d(1, 0), m)
        with pytest.raises(NotDivisible):
            decompose(LaurentOp.x(1, 0), 2)
        pres, emb = calA_presentation(2)
        with pytest.raises(NotInImage):
            emb.pullback(LaurentOp.monomial(1, (-2,), H))

    def test_structure_shortfall_text_matches_the_rendered_pair(self, monkeypatch):
        # an extra root in phi_{i+j}, absent from phi_i * shift(phi_j, i)
        rng = random.Random(7)
        real = cuspops._roots
        for _ in range(20):
            m = rng.randint(1, 4)
            i, j = rng.choice(_index_pairs(m))
            extra = rng.randint(50, 90)
            monkeypatch.setattr(
                cuspops, "_roots",
                lambda w, k, s=i + j, r=extra: real(w, k) + (r,) if k == s else real(w, k))
            with pytest.raises(NotDivisible) as exc:
                structure_constant(m, i, j)
            top = phi(m, i) * phi(m, j).shift([i])
            bottom = phi(m, i + j) * (H - extra)
            assert str(exc.value) == "%s does not divide %s" % (
                render_poly(bottom), render_poly(top)), (m, i, j)


def _window_table(m, s):
    """The structure-constant windows as a table: (case, residual) at i+j = s."""
    if abs(s) < 2 * m:
        return "|i+j| < 2m", ((s, 1),)
    if 2 * m <= s < 3 * m:
        return "2m <= i+j < 3m", ((s - m, 1), (m, 1))
    if s >= 3 * m:
        return "3m <= i+j < 4m", ((s - 2 * m, 1), (m, 2))
    if -3 * m < s:
        return "-3m < i+j <= -2m", ((s + m, 1), (-m, 1))
    return "-4m < i+j <= -3m", ((s + 2 * m, 1), (-m, 2))


def _reference_structure_coefficient(m, i, j):
    """phi_i * shift(phi_j, i) / phi_{i+j}, multiplied and divided out."""
    return exact_divide(phi(m, i) * phi(m, j).shift([i]), phi(m, i + j))


class TestStructureConstants:
    def test_case_labels(self):
        assert structure_constant(2, 1, 1).case == "|i+j| < 2m"
        assert structure_constant(2, 2, 2).case == "2m <= i+j < 3m"
        assert structure_constant(2, 3, 3).case == "3m <= i+j < 4m"
        assert structure_constant(2, -1, -3).case == "-3m < i+j <= -2m"
        assert structure_constant(2, -3, -3).case == "-4m < i+j <= -3m"

    def test_hand_coefficients(self):
        assert structure_constant(2, 1, 1).coefficient == p("h^2-5*h+6")
        assert structure_constant(2, 2, -3).coefficient == p("h-4")
        assert structure_constant(2, 3, -1).coefficient == p("h^2-8*h+15")
        # the composite-index divisor matters on the negative side
        rel = structure_constant(2, -1, -3)
        assert rel.coefficient == p("h-1")
        assert rel.residual == ((-2, 1), (-2, 1))

    def test_windows_match_the_five_branch_table(self):
        for m in range(1, 13):
            idxs = [i for i in range(-(2 * m - 1), 2 * m) if i != 0]
            for i in idxs:
                for j in idxs:
                    rel = structure_constant(m, i, j)
                    assert (rel.case, rel.residual) == _window_table(m, i + j)

    def test_coefficients_match_the_exact_quotient(self):
        for m in range(1, 13):
            idxs = [i for i in range(-(2 * m - 1), 2 * m) if i != 0]
            for i in idxs:
                for j in idxs:
                    assert (structure_constant(m, i, j).coefficient
                            == _reference_structure_coefficient(m, i, j)), (m, i, j)

    def test_root_shortfall_names_both_polynomials(self, monkeypatch):
        # a table whose phi_{i+j} has a root phi_i * shift(phi_j, i) lacks
        real = cuspops._roots
        monkeypatch.setattr(cuspops, "_roots",
                            lambda m, i: real(m, i) + (9,) if i == 2 else real(m, i))
        with pytest.raises(NotDivisible) as exc:
            structure_constant(3, 1, 1)
        # phi_2 now (h - 3)(h - 9); phi_1 * shift(phi_1, 1) = (h - 2)(h - 3)
        assert str(exc.value) == "h^2-12*h+27 does not divide h^2-5*h+6"

    def test_relations_hold_in_laurent_ring(self):
        for m in (2, 3):
            shape = as_shape(m)
            pairs = [(1, 1), (m, m), (2 * m - 1, 2 * m - 1), (-1, -1),
                     (-m, -m), (-2 * m + 1, -2 * m + 1), (1, -1),
                     (2 * m - 1, -m), (-2 * m + 1, m)]
            for i, j in pairs:
                rel = structure_constant(shape, i, j)
                lhs = delta_op(shape, (i,)) * delta_op(shape, (j,))
                assert lhs == rel.rhs_op(shape), (m, i, j)

    def test_index_range_enforced(self):
        with pytest.raises(ValueError):
            structure_constant(2, 0, 1)
        with pytest.raises(ValueError):
            structure_constant(2, 4, 1)

    def test_semigroup_sample(self):
        # past the width the indices just add
        for m in (2, 4):
            shape = as_shape(m)
            for i in (m, m + 1, 2 * m):
                for j in (m, 2 * m - 1):
                    di = delta_op(shape, (i,))
                    dj = delta_op(shape, (j,))
                    assert di * dj == delta_op(shape, (i + j,))
                    mi = delta_op(shape, (-i,))
                    mj = delta_op(shape, (-j,))
                    assert mi * mj == delta_op(shape, (-i - j,))


def _reference_rhs(rel, m):
    """coefficient times the residual delta powers, multiplied out with no
    table: rhs_op as it was before the residual table."""
    out = LaurentOp.from_poly(rel.coefficient)
    for index, power in rel.residual:
        out = out * delta_op(m, (index,)) ** power
    return out


def _index_pairs(m):
    idxs = [i for i in range(-(2 * m - 1), 2 * m) if i != 0]
    return [(i, j) for i in idxs for j in idxs]


def _canonical_residual(m, s):
    """The residual product of i + j = s at width m, from the table."""
    return cuspops._delta_product(m, cuspops._window(m, s)[1])


@pytest.fixture
def fresh_residuals():
    """An empty residual table before and after the test, so that residuals
    multiplied out under a monkeypatch never reach another test, and
    residuals built by hand elsewhere never reach a count."""
    cuspops._delta_product.cache_clear()
    yield
    cuspops._delta_product.cache_clear()


@pytest.fixture
def fresh_tables():
    """Empty case and roots tables before and after the test."""
    for table in (cuspops._window, cuspops._roots):
        table.cache_clear()
    yield
    for table in (cuspops._window, cuspops._roots):
        table.cache_clear()


class TestResidualTable:
    def test_rhs_matches_the_reference_product(self):
        for m in range(1, 9):
            for i, j in _index_pairs(m):
                rel = structure_constant(m, i, j)
                assert rel.rhs_op(m) == _reference_rhs(rel, m), (m, i, j)

    def test_rhs_only_at_the_relation_width(self):
        rel = structure_constant(2, 1, 1)
        assert rel.m == 2
        assert rel.rhs_op(2) == delta_op(2, (1,)) * delta_op(2, (1,))
        with pytest.raises(ValueError) as exc:
            rel.rhs_op(3)
        assert exc.type is ValueError
        with pytest.raises(ArityMismatch):
            rel.rhs_op((2, 2))

    def test_one_entry_per_width_and_sum(self, fresh_residuals):
        for m in (2, 3):
            for i, j in _index_pairs(m):
                structure_constant(m, i, j).rhs_op(m)
        assert cuspops._delta_product.cache_info().currsize == (8 * 2 - 3) + (8 * 3 - 3)

    def test_case_and_roots_tables_stay_per_width(self, capsys, fresh_tables):
        for m in ("2", "3"):
            assert main(["relations-check", "--m", m]) == 0
        capsys.readouterr()
        for table in (cuspops._window, cuspops._roots):
            assert table.cache_info().currsize <= (8 * 2 - 3) + (8 * 3 - 3)
        # no memo per (m, i, j): each call builds its own relation
        assert structure_constant(3, 1, 2) is not structure_constant(3, 1, 2)

    def test_widths_never_share_a_residual(self, fresh_residuals):
        # each width is asked after its neighbour has filled the table
        differ = 0
        orders = [(m, m + 1) for m in range(1, 8)] + [(m + 1, m) for m in range(1, 8)]
        for first, second in orders:
            common = set(_index_pairs(first)) & set(_index_pairs(second))
            for m in (first, second):
                for i, j in sorted(common):
                    rel = structure_constant(m, i, j)
                    assert rel.rhs_op(m) == _reference_rhs(rel, m), (m, i, j)
                    # every residual product is delta_{i+j} exactly
                    assert _canonical_residual(m, i + j) == delta_op(m, (i + j,))
            differ += sum(_canonical_residual(first, i + j)
                          != _canonical_residual(second, i + j)
                          for i, j in common)
        assert differ > 0

    def test_wrong_shift_fails_relations_check(self, capsys, monkeypatch,
                                               fresh_residuals):
        argv = ["relations-check", "--m", "3", "--json"]
        assert main(argv) == 0
        capsys.readouterr()
        cuspops._delta_product.cache_clear()
        real = BasePoly.shift
        monkeypatch.setattr(BasePoly, "shift",
                            lambda self, k: real(self, [v + 1 for v in k]))
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().out)["failures"]

    def test_corrupt_pair_found_with_a_warm_table(self, capsys, fresh_residuals):
        argv = ["relations-check", "--m", "3", "--json", "--corrupt", "--seed", "5"]
        found = []
        for _ in range(2):
            assert main(argv) == 1
            found.append(json.loads(capsys.readouterr().out)["failures"])
            assert cuspops._delta_product.cache_info().currsize == 8 * 3 - 3
        assert len(found[0]) == 1 and found[1] == found[0]


class TestWeylIntersection:
    def test_w_one_is_delta_minus_one(self):
        for m in (2, 3, 5):
            assert w_minus(m, 1) == delta_op(m, (-1,))

    def test_hand_values(self):
        assert w_minus(2, 2) == LaurentOp.monomial(1, (-2,), p("h^3-h^2-2*h"))
        assert w_minus(3, 2) == LaurentOp.monomial(
            1, (-2,), p("h^4-4*h^3+h^2+6*h"))

    def test_lies_in_both_rings(self):
        for m in (2, 3, 4):
            for i in range(1, m + 3):
                u = w_minus(m, i)
                assert membership(u, m) and weyl_membership(u)

    def test_partial_in_weyl_but_not_intersection(self):
        d = LaurentOp.d(1, 0)
        assert weyl_membership(d)
        for m in (2, 3):
            assert not (membership(d, m) and weyl_membership(d))

    def test_minimality_of_coefficient(self):
        # dividing out any root of the coefficient leaves one of the two rings
        for m in (2, 3):
            for i in (1, m):
                u = w_minus(m, i)
                c = u.graded_component((-i,))
                for root in sorted({r for r in range(-i, m + 1)}):
                    quotient, ok = _try_divide(c, H - root)
                    if not ok:
                        continue
                    smaller = LaurentOp.monomial(1, (-i,), quotient)
                    assert not (weyl_membership(smaller)
                                and membership(smaller, m))

    def test_product_identities(self):
        # w_{-i} w_{-1} = (h + i - m) w_{-i-1} once i reaches m - 1,
        # and w_{-1} w_{-i} = (h - 1) w_{-i-1} there too; the derived forms
        # recorded in docs/ERRATA.md, which criterion 4 asserts for i >= m
        for m in range(2, 7):
            shape = as_shape(m)
            w1 = w_minus(shape, 1)
            for i in range(m - 1, m + 5):
                wi = w_minus(shape, i)
                wnext = w_minus(shape, i + 1)
                assert wi * w1 == LaurentOp.from_poly(H + (i - m)) * wnext
                assert w1 * wi == LaurentOp.from_poly(H - 1) * wnext
                assert commutator(wi, w1) == (i - m + 1) * wnext

    def test_powers_of_w_one(self):
        for m in range(2, 7):
            shape = as_shape(m)
            w1 = w_minus(shape, 1)
            acc = w1
            for i in range(2, m):
                acc = acc * w1  # actually w1^i
                assert acc == w_minus(shape, i)
            # at i = m the product picks up a factor of h - 1
            acc = acc * w1
            assert acc == LaurentOp.from_poly(H - 1) * w_minus(shape, m)
            assert w1 ** m == acc

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            w_minus(2, 0)


# -- independent oracles: the stored terms read with plain integer arithmetic

def _in_cusp_set(m, k):
    """k in S_m = {0} u [m, infinity), the exponents of the width m algebra."""
    return k == 0 or k >= m


def _int_value(poly, r):
    """c(r) from the stored terms of a univariate polynomial."""
    return sum(c * r ** e for (e,), c in poly.terms.items())


def _dense_mul(a, b):
    """Product of dense integer coefficient lists, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestVanishingRule:
    WINDOW = 40

    def test_roots_match_the_window_definition(self):
        for m in range(1, 9):
            for i in range(-20, 21):
                expected = [i + k + 1 for k in range(self.WINDOW)
                            if _in_cusp_set(m, k)
                            and not _in_cusp_set(m, i + k)]
                assert vanishing_roots(m, i) == expected

    def test_rejects_width_zero(self):
        with pytest.raises(ValueError):
            vanishing_roots(0, -1)
        # the shared set of width 2 is never found by 2.0 or True
        assert vanishing_roots(2, -1) == [0, 2] and vanishing_roots(1, 1) == []
        for width in (2.0, True):
            with pytest.raises(ValueError, match="ExponentSet needs integers"):
                vanishing_roots(width, -1)

    def test_membership_against_monomial_action(self):
        # c(h) x^alpha maps span{x^k : k in S_m} into itself exactly when
        # c(alpha+k+1) = 0 for every k in S_m with alpha+k outside S_m,
        # because h x^k = (k+1) x^k; the window covers every such k
        rng = random.Random(20261018)
        verdicts = {True: 0, False: 0}
        for m in range(1, 7):
            for alpha in range(-3 * m - 2, 3 * m + 3):
                for _ in range(5):
                    dense = [rng.choice((-3, -2, -1, 1, 2, 3))]
                    for _ in range(rng.randint(0, 2)):
                        dense = _dense_mul(dense, [rng.randint(-9, 9), 1])
                    for r in range(alpha - 1, m + 3):
                        if rng.random() < 0.7:
                            dense = _dense_mul(dense, [-r, 1])
                    c = BasePoly(1, {(e,): v for e, v in enumerate(dense)})
                    expected = all(
                        _int_value(c, alpha + k + 1) == 0
                        for k in range(self.WINDOW + 1)
                        if _in_cusp_set(m, k)
                        and not _in_cusp_set(m, alpha + k))
                    u = LaurentOp.monomial(1, (alpha,), c)
                    assert membership(u, m) == expected, (m, alpha, c)
                    if m == 1:
                        assert weyl_membership(u) == expected, (alpha, c)
                    verdicts[expected] += 1
        assert min(verdicts.values()) > 100

    def test_w_minus_closed_form(self):
        # prod_{j=lo}^{m} (h-j) * h (h+1) ... (h+i-1), lo = m-i+1 while
        # i <= m-2 and 2 from there on
        for m in range(2, 9):
            for i in range(1, 3 * m + 6):
                lo = m - i + 1 if i <= m - 2 else 2
                dense = [1]
                for j in range(lo, m + 1):
                    dense = _dense_mul(dense, [-j, 1])
                for k in range(i):
                    dense = _dense_mul(dense, [k, 1])
                u = w_minus(m, i)
                assert list(u.components) == [(-i,)]
                got = u.components[(-i,)].terms
                assert got == {(e,): v for e, v in enumerate(dense) if v}
                assert all(type(v) is int for v in got.values())


def _try_divide(c, factor):
    from cuspdiff.exactpoly import exact_divide
    try:
        return exact_divide(c, factor), True
    except NotDivisible:
        return None, False


class TestGeneratingSet:
    def test_count_and_membership(self):
        for m in (2, 3):
            gens = generating_set(m)
            assert len(gens) == 1 + 2 * (2 * m - 1)
            for g in gens:
                assert membership(g, m)

    def test_rank_two_count(self):
        shape = CuspShape((2, 3))
        gens = generating_set(shape)
        assert len(gens) == 2 + 2 * (2 * 2 - 1) + 2 * (2 * 3 - 1)

    def test_factor_generators(self):
        shape = CuspShape((2, 3))
        second = factor_generators(shape, 1)
        assert second == [LaurentOp.h(2, 1)] + [
            delta_op(shape, (0, s * k)) for k in range(1, 6) for s in (1, -1)]
        assert generating_set(shape) == factor_generators(shape, 0) + second
        assert generating_set(3) == factor_generators(3, 0)


def _unit(n, i, k):
    return tuple(k if j == i else 0 for j in range(n))


def _oracle(widths, algebra):
    """The hand-typed presentation data: (a, steps, x images, y images)."""
    n = len(widths)
    a, steps, xs, ys = [], [], [], []
    for i, m in enumerate(widths):
        if algebra == "calA":
            a.append(phi(m, -m))
            steps.append(m)
            xs.append(LaurentOp.x(n, i, m))
            ys.append(LaurentOp.monomial(n, _unit(n, i, -m),
                                         phi(m, -m).inject(n, i)))
        elif algebra == "bbA":
            a.append(H * (H - 1) * (H - m))
            steps.append(1)
            xs.append(LaurentOp.monomial(n, _unit(n, i, 1),
                                         phi(m, 1).inject(n, i)))
            ys.append(LaurentOp.monomial(n, _unit(n, i, -1),
                                         phi(m, -1).inject(n, i)))
        else:
            a.append(H)
            steps.append(1)
            xs.append(LaurentOp.x(n, i))
            ys.append(LaurentOp.d(n, i))
    return [poly.inject(n, i) for i, poly in enumerate(a)], steps, xs, ys


ORACLE_SHAPES = [(m,) for m in range(1, 9)] + [(2, 3)]


class TestPresentations:
    def test_gwa_A_pair_products(self):
        X, Y = generator_pair(2, "calA", 0)
        assert Y * X == LaurentOp.from_poly(p("h^2-h-2"))
        assert X * Y == LaurentOp.from_poly(p("h^2-5*h+4"))

    def test_bbA_pair_products(self):
        for m in (2, 3, 5):
            X, Y = generator_pair(m, "bbA", 0)
            assert Y * X == LaurentOp.from_poly(H * (H - 1) * (H - m))
            assert X * Y == LaurentOp.from_poly(
                (H - 1) * (H - 2) * (H - m - 1))

    def test_bbA_needs_width_two(self):
        with pytest.raises(ValueError, match="width >= 2"):
            generator_pair(1, "bbA", 0)
        with pytest.raises(ValueError, match="width >= 2"):
            bbA_presentation((2, 1))

    def test_bbA_pair_needs_only_its_own_width_two(self):
        # the pair of factor i is read off m_i alone; the presentation
        # needs every factor's pair
        assert generator_pair((2, 1), "bbA", 0) == (
            delta_op((2, 1), (1, 0)), delta_op((2, 1), (-1, 0)))
        with pytest.raises(ValueError, match="width >= 2"):
            generator_pair((2, 1), "bbA", 1)

    def test_weyl_pair_is_x_and_partial(self):
        for m in ((1,), (3,), (2, 3)):
            n = len(m)
            for i in range(n):
                assert generator_pair(m, "weyl", i) == (LaurentOp.x(n, i),
                                                        LaurentOp.d(n, i))

    @pytest.mark.parametrize("algebra", ["calA", "bbA", "weyl"])
    def test_presentation_matches_hand_table(self, algebra):
        for widths in ORACLE_SHAPES:
            if algebra == "bbA" and min(widths) < 2:
                with pytest.raises(ValueError):
                    presentation(widths, algebra)
                continue
            a, steps, xs, ys = _oracle(widths, algebra)
            pres, emb = presentation(widths, algebra)
            assert list(pres.a) == a, widths
            assert list(pres.steps) == steps, widths
            assert list(emb.x_images) == xs, widths
            assert list(emb.y_images) == ys, widths

    @pytest.mark.parametrize("algebra", ["calA", "bbA", "weyl"])
    def test_parser_atoms_are_the_pairs(self, algebra):
        for widths in ORACLE_SHAPES:
            if algebra == "bbA" and min(widths) < 2:
                continue
            _, emb = presentation(widths, algebra)
            read = {text: parse_expression(text, widths, algebra)
                    for text in ("X", "Y", "X@1", "Y@1")}
            assert read["X"] == read["X@1"] == emb.x_images[0]
            assert read["Y"] == read["Y@1"] == emb.y_images[0]
            if len(widths) > 1:
                assert parse_expression("X@2", widths, algebra) == emb.x_images[1]
                assert parse_expression("Y@2", widths, algebra) == emb.y_images[1]

    def test_bases_come_from_one_table(self):
        # each call builds a new presentation with empty caches (a caller
        # timing a fresh presentation inherits no pair or shift cache), but
        # the a_i are one shared object per (widths, algebra); the relations
        # were proved once, on the table's own presentation
        first, _ = presentation(3, "bbA")
        first.pair_coefficient(0, 2, -1)
        first.sigma_of_a(0, 5)
        second, _ = presentation(3, "bbA")
        assert first is not second
        assert second._pair_cache == {}
        assert second._shift_cache == {}
        assert first.a[0] is second.a[0]

    @pytest.mark.parametrize("widths, algebra", [
        ((3,), "bbA"), ((2, 3), "calA"), ((1, 1), "weyl")])
    def test_relations_are_proved_once(self, monkeypatch, widths, algebra):
        # the table holds one validated embedding per key: a second call
        # proves nothing again and hands back that embedding
        _, first = presentation(widths, algebra)
        products = []
        real = LaurentOp.__mul__

        def counting(self, other):
            products.append(other)
            return real(self, other)

        monkeypatch.setattr(LaurentOp, "__mul__", counting)
        pres, second = presentation(widths, algebra)
        monkeypatch.undo()
        assert products == []
        assert second is first
        assert pres == second.presentation
        assert pres is not second.presentation

    def test_weyl_shapes_share_one_entry(self):
        # weyl's generators live on widths (1, ..., 1) whatever the shape,
        # so the table keys every rank-2 weyl shape there
        cuspops._canonical.cache_clear()
        embeddings = [presentation((2, 3), "weyl")[1],
                      weyl_presentation(2)[1],
                      presentation((5, 4), "weyl")[1]]
        assert cuspops._canonical.cache_info().currsize == 1
        assert embeddings[0] is embeddings[1] is embeddings[2]

    def test_classify_bbA_searches_its_base_once(self, monkeypatch):
        from cuspdiff.classify import classify_bbA
        real_split, searched = exactpoly._split, []

        def counting_split(q):
            searched.append(q)
            return real_split(q)

        monkeypatch.setattr(exactpoly, "_split", counting_split)
        cuspops._canonical.cache_clear()  # a fresh table
        m = 7
        entries = [classify_bbA(m), classify_bbA(m)]
        # the table builds a = Y X as a structure constant from its roots,
        # which it records, so the base is searched not once but never
        assert searched == []
        assert entries[1][0].module.a._roots == ((0, 1, m), 1)
        assert entries[0][0].module.a == H * (H - 1) * (H - m)

    def test_tables_change_no_object_they_did_not_build(self):
        # roots are recorded where a polynomial is built from them, so
        # building an embedding writes nothing onto the shared deltas, and
        # what a delta's coefficient records does not depend on what ran
        # before it in the process
        for table in (cuspops._canonical, cuspops._delta, graded_divisor):
            table.cache_clear()
        c = delta_op(3, (-1,)).components[(-1,)]
        before = c._roots
        emb = cuspops.embedding(3, "bbA")
        cuspops.embedding(3, "calA")
        assert before == c._roots == ((0, 3), 1)
        assert emb.presentation.a[0]._roots == ((0, 1, 3), 1)
        for m in (1, 2, 3):
            for d in range(1 - 2 * m, 2 * m):
                assert graded_divisor((m,), (d,)) is phi(m, d)
        q = linear_factors([-2, Fraction(1, 2)], Fraction(3, 4))
        assert q.inject(1, 0) is q
        assert q._roots == ((-2, Fraction(1, 2)), Fraction(3, 4))
        for built in (c * q, q * q, c.shift([2]), q.shift([-1])):
            assert built._roots is None

    def test_plain_ring_has_no_presentation(self):
        with pytest.raises(ValueError):
            presentation(2, "DA")
        with pytest.raises(ValueError):
            generator_pair(2, "DA", 0)

    def test_presentations_verify(self):
        for m in (2, 3):
            pres, emb = calA_presentation(m)
            assert verify_presentation(pres, depth=2).ok
            assert pres.steps == (m,)
            pres, emb = bbA_presentation(m)
            assert verify_presentation(pres, depth=2).ok
            assert pres.steps == (1,)
        pres, emb = weyl_presentation(1)
        assert pres.a[0] == H
        assert verify_presentation(pres, depth=2).ok

    def test_calA_defining_polynomial(self):
        pres, emb = calA_presentation(2)
        assert pres.a[0] == phi(2, -2)
        assert emb.y_images[0] == delta_op(2, (-2,))
        assert emb.x_images[0] == LaurentOp.x(1, 0, 2)
