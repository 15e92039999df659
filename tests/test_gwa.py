"""Generalized Weyl algebra core: defining relations, pair coefficients,
abstract arithmetic against the concrete Laurent model, pullbacks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuspdiff import gwa
from cuspdiff.cuspops import (bbA_presentation, calA_presentation, delta_op,
                              membership, weyl_presentation)
from cuspdiff.exactpoly import ArityMismatch, BasePoly
from cuspdiff.gwa import (Embedding, GwaElement, GwaPresentation,
                          ImagesViolateRelations, NotInImage,
                          PresentationMismatch, _box, gwa_multiply,
                          render_gwa, verify_presentation)
from cuspdiff.skewlaurent import LaurentOp, render_op

H = BasePoly.variable(1, 0)


def weyl():
    pres, emb = weyl_presentation(1)
    return pres, emb


class TestPresentation:
    def test_defining_data(self):
        pres = GwaPresentation((H * H - 1,), (1,))
        assert pres.nvars == 1
        assert pres.a == (H * H - 1,)
        assert pres.steps == (1,)

    def test_rejects_bad_data(self):
        with pytest.raises(ValueError):
            GwaPresentation((BasePoly.zero(1),), (1,))
        with pytest.raises(ValueError):
            GwaPresentation((H,), (0,))
        with pytest.raises(ValueError):
            GwaPresentation((H,), (1, 1))

    def test_sigma_moves_down(self):
        pres = GwaPresentation((H,), (2,))
        assert pres.sigma_power(H, (1,)) == H - 2
        assert pres.sigma_power(H, (-3,)) == H + 6
        assert pres.sigma_of_a(0, 2) == H - 4

    def test_defining_products(self):
        # Y X = a and X Y = sigma(a)
        pres = GwaPresentation((H * (H - 1),), (1,))
        X, Y = pres.basis((1,)), pres.basis((-1,))
        assert Y * X == pres.from_base(H * (H - 1))
        assert X * Y == pres.from_base((H - 1) * (H - 2))

    def test_base_commutes_through_sigma(self):
        pres = GwaPresentation((H,), (1,))
        X = pres.basis((1,))
        # X d = sigma(d) X as left-coordinate elements
        lhs = X * pres.from_base(H)
        assert lhs == GwaElement(pres, {(1,): H - 1})


class TestPairCoefficients:
    def test_same_sign_trivial(self):
        pres = GwaPresentation((H * H + 1,), (1,))
        assert pres.pair_coefficient(0, 2, 3) == BasePoly.one(1)
        assert pres.pair_coefficient(0, -1, -4) == BasePoly.one(1)
        assert pres.pair_coefficient(0, 0, 5) == BasePoly.one(1)

    def test_mixed_sign_counts(self):
        a = H
        pres = GwaPresentation((a,), (1,))
        # v_2 v_{-1} picks up sigma^2(a)
        assert pres.pair_coefficient(0, 2, -1) == H - 2
        # v_1 v_{-2} picks up sigma(a)
        assert pres.pair_coefficient(0, 1, -2) == H - 1
        # v_{-1} v_2 picks up sigma^0(a)
        assert pres.pair_coefficient(0, -1, 2) == H
        # v_{-2} v_2 picks up sigma^{-1}(a) sigma^0(a)
        assert pres.pair_coefficient(0, -2, 2) == (H + 1) * H

    def test_oracle_against_laurent_model(self):
        # the concrete Weyl model realizes every pair coefficient
        pres, emb = weyl()
        for n in range(-4, 5):
            for m in range(-4, 5):
                lhs = emb.basis_image((n,)) * emb.basis_image((m,))
                rhs = (LaurentOp.from_poly(pres.pair_coefficient(0, n, m))
                       * emb.basis_image((n + m,)))
                assert lhs == rhs, (n, m)


@st.composite
def gwa_elements(draw, pres):
    coords = {}
    for _ in range(draw(st.integers(0, 3))):
        deg = draw(st.integers(-3, 3))
        c = draw(st.integers(-5, 5))
        e = draw(st.integers(0, 2))
        coords[(deg,)] = BasePoly(1, {(e,): c})
    return GwaElement(pres, coords)


class TestArithmetic:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, data):
        pres = GwaPresentation((H * (H - 2),), (1,))
        u = data.draw(gwa_elements(pres))
        v = data.draw(gwa_elements(pres))
        w = data.draw(gwa_elements(pres))
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w
        assert (u + v) * w == u * w + v * w
        assert u - u == GwaElement(pres)

    def test_scalar_and_base_coercion(self):
        pres = GwaPresentation((H,), (1,))
        X = pres.basis((1,))
        assert 2 * X == X + X
        assert X * 0 == GwaElement(pres)
        assert (1 - X) + X == pres.basis((0,))

    def test_power(self):
        pres = GwaPresentation((H,), (1,))
        Y = pres.basis((-1,))
        assert Y ** 3 == pres.basis((-3,))
        assert Y ** 0 == pres.basis((0,))
        with pytest.raises(ValueError):
            Y ** -2

    def test_mismatched_presentations(self):
        p1 = GwaPresentation((H,), (1,))
        p2 = GwaPresentation((H + 1,), (1,))
        with pytest.raises(PresentationMismatch):
            p1.basis((0,)) + p2.basis((0,))

    def test_rank_two_cross_factor(self):
        h1 = BasePoly.variable(2, 0)
        h2 = BasePoly.variable(2, 1)
        pres = GwaPresentation((h1, h2 * h2 - 1), (1, 2))
        X1 = pres.basis((1, 0))
        Y2 = pres.basis((0, -1))
        assert X1 * Y2 == Y2 * X1 == pres.basis((1, -1))
        # sigma_2 leaves h1 alone
        assert pres.sigma_power(h1, (0, 1)) == h1
        got = pres.basis((0, 1)) * pres.from_base(h2)
        assert got == GwaElement(pres, {(0, 1): h2 - 2})


def _rank_two():
    h1, h2 = BasePoly.variable(2, 0), BasePoly.variable(2, 1)
    return GwaPresentation((h1 - Fraction(1, 2), h2 * h2 - 1), (1, 2))


@st.composite
def mixed_gwa_elements(draw, pres):
    n = pres.nvars
    coords = {}
    for _ in range(draw(st.integers(0, 3))):
        deg = tuple(draw(st.integers(-3, 3)) for _ in range(n))
        exp = tuple(draw(st.integers(0, 2)) for _ in range(n))
        c = draw(st.one_of(st.integers(-5, 5),
                           st.fractions(-5, 5, max_denominator=3)))
        coords[deg] = BasePoly(n, {exp: c})
    return GwaElement(pres, coords)


class TestTrustedProducts:
    """gwa_multiply skips element validation, so its results must pass it."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_product_coordinates_round_trip(self, data):
        pres = data.draw(st.sampled_from(
            [GwaPresentation((H * (H - 2),), (1,)),
             calA_presentation(3)[0], _rank_two()]))
        u = data.draw(mixed_gwa_elements(pres))
        v = data.draw(mixed_gwa_elements(pres))
        for w in (u * v, gwa_multiply(v, u), u * v - v * u):
            for c in w.coords.values():
                assert not c.is_zero()
                rebuilt = BasePoly(c.nvars, dict(c.terms)).terms
                assert rebuilt == c.terms
                assert all(type(rebuilt[e]) is type(x)
                           for e, x in c.terms.items())

    def test_cancelled_coordinate_is_dropped(self):
        pres = GwaPresentation((H,), (1,))
        u = pres.basis((1,)) + 1
        v = pres.basis((-1,)) - pres.from_base(H - 1)
        # X*Y = h-1 cancels against 1*(-(h-1)) at degree zero
        assert (0,) not in gwa_multiply(u, v).coords


class TestVerify:
    def test_canonical_presentations_pass(self):
        for make in (lambda: weyl(),
                     lambda: calA_presentation(2),
                     lambda: calA_presentation(3),
                     lambda: bbA_presentation(2),
                     lambda: bbA_presentation(4)):
            pres, emb = make()
            report = verify_presentation(pres, depth=3)
            assert report.ok, report.failures()

    def test_rank_two_passes(self):
        h1 = BasePoly.variable(2, 0)
        h2 = BasePoly.variable(2, 1)
        pres = GwaPresentation((h1 * (h1 - 1), h2), (1, 1))
        assert verify_presentation(pres, depth=2).ok

    def test_report_shape(self):
        pres, _ = weyl()
        report = verify_presentation(pres, depth=2)
        assert report.failures() == []
        assert all(c.ok for c in report.checks)


def _reference_associativity(pres, depth):
    """The plain sweep: four products and three basis builds per triple.

    Returns the first triple (a, b, c) with (v_a v_b) v_c != v_a (v_b v_c),
    or None.
    """
    n = pres.nvars
    span = range(-depth, depth + 1)
    if n == 1:
        triples = [((p,), (q,), (r,)) for p in span for q in span for r in span]
    else:
        vecs = [v for v in _box(n, depth) if sum(abs(c) for c in v) <= depth]
        triples = [(a, b, c) for a in vecs for b in vecs for c in vecs]
    for a, b, c in triples:
        va, vb, vc = pres.basis(a), pres.basis(b), pres.basis(c)
        if (va * vb) * vc != va * (vb * vc):
            return (a, b, c)
    return None


def _associativity_check(report, depth):
    name = "associativity(depth=%d)" % depth
    (check,) = [c for c in report.checks if c.name == name]
    return check


def _shifted_pair_coefficient(original, factor=None):
    """pair_coefficient with the t range of the n > 0 > m case one too low,
    on every factor or only on the given one."""
    def mutated(self, i, n, m):
        if n > 0 > m and factor in (None, i):
            out = BasePoly.one(self.nvars)
            for t in range(n - min(n, -m), n):
                out = out * self.sigma_of_a(i, t)
            return out
        return original(self, i, n, m)
    return mutated


def _raised_pair_coefficient(original):
    """pair_coefficient with the t range of the n < 0 < m case one too high."""
    def mutated(self, i, n, m):
        if n < 0 < m:
            out = BasePoly.one(self.nvars)
            for t in range(n + 2, n + min(-n, m) + 2):
                out = out * self.sigma_of_a(i, t)
            return out
        return original(self, i, n, m)
    return mutated


_MUTATIONS = {
    "shifted": _shifted_pair_coefficient,
    "shifted_factor0": lambda f: _shifted_pair_coefficient(f, factor=0),
    "shifted_factor1": lambda f: _shifted_pair_coefficient(f, factor=1),
    "raised": _raised_pair_coefficient,
}


def _mutate(monkeypatch, mutation):
    monkeypatch.setattr(
        GwaPresentation, "pair_coefficient",
        _MUTATIONS[mutation](GwaPresentation.pair_coefficient))


def _assert_matches_reference(pres, depth):
    bad = _reference_associativity(pres, depth)
    check = _associativity_check(verify_presentation(pres, depth), depth)
    assert check.ok is (bad is None)
    assert check.witness == ("" if bad is None else "failed at %r" % (bad,))
    return check


_SWEEP_PRESENTATIONS = {
    "weyl": lambda: weyl()[0],
    "calA2": lambda: calA_presentation(2)[0],
    "calA3": lambda: calA_presentation(3)[0],
    "calA4": lambda: calA_presentation(4)[0],
    "bbA2": lambda: bbA_presentation(2)[0],
    "bbA3": lambda: bbA_presentation(3)[0],
    "bbA4": lambda: bbA_presentation(4)[0],
    "rank2": _rank_two,
    "calA23": lambda: calA_presentation((2, 3))[0],
    "bbA23": lambda: bbA_presentation((2, 3))[0],
}


class TestAssociativitySweep:
    """The per-factor sweep against the plain four-product loop over every
    triple of the whole sweep."""

    @pytest.mark.parametrize("name, depth", [
        ("weyl", 3), ("calA2", 3), ("calA3", 3), ("calA4", 3),
        ("bbA2", 3), ("bbA3", 3), ("bbA4", 3), ("rank2", 2),
        ("calA23", 3), ("bbA23", 3)])
    @pytest.mark.parametrize("mutated", [False, True])
    def test_matches_reference(self, name, depth, mutated, monkeypatch):
        if mutated:
            _mutate(monkeypatch, "shifted")
        _assert_matches_reference(_SWEEP_PRESENTATIONS[name](), depth)

    @pytest.mark.parametrize("name, depth", [
        ("rank2", 2), ("calA23", 3), ("bbA23", 3)])
    @pytest.mark.parametrize("mutation", ["shifted_factor0", "shifted_factor1"])
    def test_one_factor_mutation_matches_reference(self, name, depth, mutation,
                                                   monkeypatch):
        _mutate(monkeypatch, mutation)
        assert not _assert_matches_reference(
            _SWEEP_PRESENTATIONS[name](), depth).ok

    @pytest.mark.parametrize("name, depth", [
        ("weyl", 3), ("calA3", 3), ("bbA3", 3), ("rank2", 2),
        ("calA23", 3), ("bbA23", 3)])
    def test_other_range_mutation_matches_reference(self, name, depth,
                                                    monkeypatch):
        _mutate(monkeypatch, "raised")
        assert not _assert_matches_reference(
            _SWEEP_PRESENTATIONS[name](), depth).ok

    def test_mutated_pair_coefficient_fails_with_witness(self, monkeypatch):
        _mutate(monkeypatch, "shifted")
        pres, _ = calA_presentation(3)
        check = _associativity_check(verify_presentation(pres, depth=3), 3)
        assert not check.ok
        assert check.witness == "failed at ((-3,), (1,), (-3,))"

    def test_second_factor_mutation_names_a_whole_triple(self, monkeypatch):
        # the failing triple of factor 1 first shows up next to a nonzero
        # coordinate of factor 0, and the witness is that whole triple
        _mutate(monkeypatch, "shifted_factor1")
        pres, _ = calA_presentation((2, 3))
        check = _associativity_check(verify_presentation(pres, depth=3), 3)
        assert not check.ok
        assert check.witness == "failed at ((-2, -1), (-2, 1), (-2, -1))"

    @pytest.mark.parametrize("name, depth", [("calA3", 3), ("rank2", 2)])
    def test_every_triple_is_multiplied_out(self, name, depth, monkeypatch):
        calls = []

        def counting(u, v):
            calls.append(1)
            return gwa_multiply(u, v)

        monkeypatch.setattr(gwa, "gwa_multiply", counting)
        pres = _SWEEP_PRESENTATIONS[name]()
        report = verify_presentation(pres, depth)
        assert report.ok
        n = pres.nvars
        samples = 1 + 2 * n
        # per factor: Y*X, X*Y and four shift products per base sample;
        # per pair of factors: u*v and v*u for four generator pairs
        relations = n * (2 + 4 * samples) + 4 * n * (n - 1)
        # per factor: the pair table and both sides of every triple of the
        # 2 depth + 1 vectors k e_i
        n1 = 2 * depth + 1
        assert len(calls) == relations + n * (n1 ** 2 + 2 * n1 ** 3)

    @pytest.mark.parametrize("depth", [0, -1, 1.5, "3"])
    def test_rejects_depth_that_is_not_positive(self, depth):
        pres, _ = weyl()
        with pytest.raises(ValueError):
            verify_presentation(pres, depth)


class TestEmbedding:
    def test_images_must_satisfy_relations(self):
        pres, emb = weyl()
        with pytest.raises(ImagesViolateRelations):
            Embedding(pres, [LaurentOp.x(1, 0, 2)], emb.y_images)

    def test_violation_names_the_relation(self):
        pres, emb = weyl()
        with pytest.raises(ImagesViolateRelations, match=r"yx=a\[0\]"):
            Embedding(pres, [LaurentOp.x(1, 0, 2)], emb.y_images)
        pres, emb = weyl_presentation(2)
        with pytest.raises(ImagesViolateRelations, match=r"yx=a\[1\]"):
            Embedding(pres, [emb.x_images[0], LaurentOp.x(2, 1, 2)],
                      emb.y_images)

    def test_apply_known_element(self):
        pres, emb = bbA_presentation(2)
        u = GwaElement(pres, {(0,): H, (-1,): H + 1})
        got = emb.apply(u)
        expected = (LaurentOp.from_poly(H)
                    + LaurentOp.from_poly(H + 1) * delta_op(2, (-1,)))
        assert got == expected

    def test_homomorphism_property_seeded(self):
        rng = random.Random(7)
        for maker, m in ((calA_presentation, 2), (calA_presentation, 3),
                         (bbA_presentation, 2), (bbA_presentation, 3)):
            pres, emb = maker(m)
            for _ in range(25):
                u = _random_gwa(pres, rng)
                v = _random_gwa(pres, rng)
                assert emb.apply(gwa_multiply(u, v)) == emb.apply(u) * emb.apply(v)

    def test_homomorphism_property_rank_two_seeded(self):
        # verify_presentation sweeps one factor at a time, so products whose
        # coordinates mix factors are checked here, against the Laurent model
        rng = random.Random(23)
        mixed = 0
        for maker in (calA_presentation, bbA_presentation):
            pres, emb = maker((2, 3))
            for _ in range(25):
                u = _random_gwa(pres, rng)
                v = _random_gwa(pres, rng)
                mixed += any(all(alpha) for alpha in u.coords) and \
                    any(all(beta) for beta in v.coords)
                assert emb.apply(gwa_multiply(u, v)) == emb.apply(u) * emb.apply(v)
        assert mixed >= 25

    def test_pullback_round_trip(self):
        rng = random.Random(11)
        pres, emb = bbA_presentation(3)
        for _ in range(25):
            u = _random_gwa(pres, rng)
            assert emb.pullback(emb.apply(u)) == u

    def test_pullback_rejects_outsiders(self):
        pres, emb = calA_presentation(2)
        with pytest.raises(NotInImage):
            emb.pullback(LaurentOp.x(1, 0))  # degree not a multiple of the step
        with pytest.raises(NotInImage):
            emb.pullback(LaurentOp.monomial(1, (-2,), H))  # coefficient escapes

    def test_deep_power_round_trip(self):
        # generator powers are built by a loop, not one stack frame per power
        pres, emb = calA_presentation(2)
        u = pres.basis((1100,))
        assert emb.pullback(emb.apply(u)) == u


def _random_gwa(pres, rng):
    n = pres.nvars
    coords = {}
    for _ in range(rng.randint(1, 3)):
        deg = tuple(rng.randint(-3, 3) for _ in range(n))
        exp = tuple(rng.randint(0, 2) for _ in range(n))
        coords[deg] = BasePoly(n, {exp: rng.randint(-4, 4)})
    return GwaElement(pres, coords)


class TestTextAndJson:
    def test_render(self):
        pres, _ = weyl()
        u = GwaElement(pres, {(0,): H, (2,): BasePoly.one(1), (-1,): H - 1,
                              (-3,): Fraction(-1, 2) * H * H + 3})
        assert render_gwa(u) == \
            "(1) * X^2 + (h) + (h-1) * Y + (-1/2*h^2+3) * Y^3"
        assert render_gwa(GwaElement(pres)) == "0"

    def test_render_rank_two(self):
        pres, _ = calA_presentation((2, 3))
        h1, h2 = BasePoly.variable(2, 0), BasePoly.variable(2, 1)
        u = GwaElement(pres, {(1, 0): h1 * h2 - 2, (0, -2): BasePoly.one(2),
                              (1, -2): -h2, (0, 0): 5})
        assert render_gwa(u) == \
            "(h1*h2-2) * X1 + (5) + (-h2) * X1 * Y2^2 + (1) * Y2^2"

    def test_render_op_rank_two_negative_exponents(self):
        h1, h2 = BasePoly.variable(2, 0), BasePoly.variable(2, 1)
        u = LaurentOp(2, {(-1, 2): h1 * h1 - 3 * h1, (0, 0): h2 - 2,
                          (2, -3): -1, (0, -1): Fraction(1, 3) * h1})
        assert render_op(u) == ("(h1^2-3*h1) * x1^-1 * x2^2 + (h2-2)"
                                " + (-1) * x1^2 * x2^-3 + (1/3*h1) * x2^-1")


class TestRingsStayApart:
    """LaurentOp and GwaElement are different rings over the same base."""

    def test_gwa_element_is_not_a_laurent_op(self):
        pres, _ = weyl()
        assert not isinstance(pres.basis((1,)), LaurentOp)
        assert not isinstance(LaurentOp.x(1, 0), GwaElement)

    def test_mixed_sums_and_products_raise_type_error(self):
        pres, _ = weyl()
        u, X = LaurentOp.x(1, 0), pres.basis((1,))
        for combine in (lambda a, b: a + b, lambda a, b: a * b,
                        lambda a, b: a - b):
            with pytest.raises(TypeError):
                combine(u, X)
            with pytest.raises(TypeError):
                combine(X, u)

    def test_membership_rejects_gwa_elements(self):
        pres, _ = calA_presentation(2)
        with pytest.raises(TypeError):
            membership(pres.basis((1,)), 2)

    def test_units_of_different_arity_differ(self):
        assert (LaurentOp.one(1) == LaurentOp.one(2)) is False
        assert (LaurentOp.one(1) != LaurentOp.one(2)) is True

    def test_arity_mismatch_across_ranks(self):
        u, v = LaurentOp.x(1, 0), LaurentOp.x(2, 1)
        for combine in (lambda a, b: a + b, lambda a, b: a * b):
            with pytest.raises(ArityMismatch):
                combine(u, v)
            with pytest.raises(ArityMismatch):
                combine(v, u)

    def test_presentations_do_not_mix(self):
        X2 = calA_presentation(2)[0].basis((1,))
        X3 = calA_presentation(3)[0].basis((1,))
        for combine in (lambda a, b: a + b, lambda a, b: a * b,
                        lambda a, b: a - b, lambda a, b: a == b):
            with pytest.raises(PresentationMismatch):
                combine(X2, X3)
