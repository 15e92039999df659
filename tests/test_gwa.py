"""Generalized Weyl algebra core: defining relations, pair coefficients,
abstract arithmetic against the concrete Laurent model, pullbacks."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cuspdiff import cuspops, gwa
from cuspdiff.cuspops import (bbA_presentation, calA_presentation, delta_op,
                              membership, presentation, weyl_presentation)
from cuspdiff.exactpoly import ArityMismatch, BasePoly
from cuspdiff.gwa import (Embedding, GwaElement, GwaPresentation,
                          ImagesViolateRelations, NotInImage,
                          PresentationMismatch, gwa_multiply,
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
                lhs = (emb.apply(pres.basis((n,)))
                       * emb.apply(pres.basis((m,))))
                rhs = (LaurentOp.from_poly(pres.pair_coefficient(0, n, m))
                       * emb.apply(pres.basis((n + m,))))
                assert lhs == rhs, (n, m)


def _pair_oracle(pres, i, n, m):
    """The product of sigma_i^t(a_i) over pair_interval(n, m), each factor
    shifted here and multiplied out in order."""
    out = BasePoly.one(pres.nvars)
    for t in gwa.pair_interval(n, m):
        by = [0] * pres.nvars
        by[i] = t * pres.steps[i]
        out = out * pres.a[i].shift(by)
    return out


class TestPairCoefficientGrowth:
    """Each missing pair coefficient grows from its cached neighbour one step
    toward m = 0, so the order of the fills must not matter."""

    @pytest.mark.parametrize("name", ["calA23", "bbA4", "weyl", "non_split"])
    @pytest.mark.parametrize("descending", [False, True])
    def test_every_key_matches_the_interval_product(self, name, descending):
        pres = _SWEEP_PRESENTATIONS[name]()
        span = range(-8, 9)
        keys = sorted(((i, n, m) for i in range(pres.nvars) for n in span
                       for m in span),
                      key=lambda key: abs(key[2]), reverse=descending)
        for i, n, m in keys:
            assert pres.pair_coefficient(i, n, m) == _pair_oracle(
                pres, i, n, m), (name, i, n, m)

    @pytest.mark.parametrize("n, m, neighbour", [
        (3, -3, (3, -2)), (-3, 3, (-3, 2)), (5, -2, (5, -1)),
        (-4, 1, (-4, 0))])
    def test_cold_key_next_to_a_cached_one_makes_one_product(
            self, monkeypatch, n, m, neighbour):
        pres = GwaPresentation((H * H + 1,), (2,))
        pres.pair_coefficient(0, *neighbour)
        calls = []
        real = BasePoly.__mul__

        def counting(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(BasePoly, "__mul__", counting)
        got = pres.pair_coefficient(0, n, m)
        monkeypatch.undo()
        assert len(calls) == 1
        assert got == _pair_oracle(pres, 0, n, m)

    @pytest.mark.parametrize("n, m", [(2, -3), (-2, 5), (1, -8)])
    def test_saturated_key_reuses_its_neighbour(self, n, m):
        # once min(|n|, |m|) = |n| the interval stops growing
        pres = GwaPresentation((H * H + 1,), (2,))
        step = 1 if m < 0 else -1
        before = pres.pair_coefficient(0, n, m + step)
        assert pres.pair_coefficient(0, n, m) is before

    def test_deep_fill_is_a_loop(self):
        # a recursion would pass the interpreter's default depth here
        pres = GwaPresentation((BasePoly.constant(1, 2),), (1,))
        assert pres.pair_coefficient(0, 1500, -1500) == 2 ** 1500
        assert pres.pair_coefficient(0, -1500, 1500) == 2 ** 1500
        assert pres.pair_coefficient(0, -700, 1500) == 2 ** 700


class TestPairInterval:
    @pytest.mark.parametrize("n, m, ts", [
        (2, -1, [2]), (1, -2, [1]), (3, -2, [2, 3]), (-1, 2, [0]),
        (-2, 2, [-1, 0]), (-5, 2, [-4, -3]), (2, 3, []), (-1, -4, []),
        (0, 5, []), (4, 0, [])])
    def test_values(self, n, m, ts):
        assert list(gwa.pair_interval(n, m)) == ts

    def test_widened_interval_fails_associativity(self, monkeypatch):
        original = gwa.pair_interval

        def widened(n, m):
            ts = original(n, m)
            return range(ts.start - 1, ts.stop) if ts else ts

        monkeypatch.setattr(gwa, "pair_interval", widened)
        pres, _ = calA_presentation(3)
        assert not _associativity_check(verify_presentation(pres, 3), 3).ok


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


class TestTrustedRoundTrips:
    """apply and pullback wrap what they compute without the public
    constructors' checks, so their results must pass those checks."""

    @pytest.mark.parametrize("widths, algebra", [
        ((3,), "calA"), ((2,), "bbA"), ((1,), "weyl"), ((2, 3), "calA"),
        ((3, 2), "bbA"), ((1, 1), "weyl")])
    def test_results_rebuild_unchanged(self, widths, algebra):
        rng = random.Random(41)
        pres, emb = presentation(widths, algebra)
        for _ in range(30):
            u = _random_gwa(pres, rng) + _random_gwa(pres, rng)
            op = emb.apply(u)
            back = emb.pullback(op)
            assert back == u
            for w, rebuilt in ((op, LaurentOp(op.nvars, op.components)),
                               (back, GwaElement(back.presentation,
                                                 back.coords))):
                assert rebuilt.components == w.components
                assert len(w.components) == len(u.coords)
                for deg, c in w.components.items():
                    assert type(deg) is tuple
                    assert all(type(d) is int for d in deg)
                    assert isinstance(c, BasePoly) and not c.is_zero()
                    assert c.nvars == pres.nvars
                    terms = BasePoly(c.nvars, dict(c.terms)).terms
                    assert terms == c.terms
                    assert all(type(terms[e]) is type(x)
                               for e, x in c.terms.items())


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

    def test_witness_only_for_failed_relations(self, monkeypatch):
        pres, _ = bbA_presentation(2)
        assert all(c.ok and c.witness == ""
                   for c in verify_presentation(pres, depth=1).checks)
        x, y = pres.basis([1]), pres.basis([-1])
        # multiplying in the reverse order turns y x into x y = sigma(a)
        monkeypatch.setattr(gwa, "gwa_multiply", lambda u, v: gwa_multiply(v, u))
        checks = {c.name: c for c in verify_presentation(pres, depth=1).checks}
        assert not checks["yx=a[0]"].ok
        assert checks["yx=a[0]"].witness == render_gwa(gwa_multiply(x, y))
        assert not checks["x-shift[0,1]"].ok
        assert checks["x-shift[0,1]"].witness != ""
        # the base sample 1 commutes with x however the product is ordered
        assert checks["x-shift[0,0]"].ok
        assert checks["x-shift[0,0]"].witness == ""


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
        vecs = [v for v in product(span, repeat=n)
                if sum(abs(c) for c in v) <= depth]
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
    "non_split": lambda: GwaPresentation((H * H + 1,), (2,)),
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

    def test_round_trip_makes_no_laurent_product(self, monkeypatch):
        # images and their powers are single monomials; apply and pullback
        # multiply and divide coefficients only
        rng = random.Random(5)
        pres, emb = bbA_presentation((2, 3))
        products = []
        real = LaurentOp.__mul__

        def counting(self, other):
            products.append(other)
            return real(self, other)

        monkeypatch.setattr(LaurentOp, "__mul__", counting)
        for _ in range(10):
            u = _random_gwa(pres, rng)
            assert emb.pullback(emb.apply(u)) == u
        assert products == []

    @pytest.mark.parametrize("algebra, k", [
        ("calA", 4), ("calA", -6), ("bbA", 3), ("bbA", -5)])
    def test_power_shifts_only_the_generator(self, monkeypatch, algebra, k):
        # X^k (Y^-k) shifts the generator's coefficient k - 1 times, by the
        # degrees of the powers before it, and shifts nothing else, unless
        # that coefficient is constant (calA's X = x^m): its power is read
        # off k with no walk; the table keeps its powers for the process,
        # so it is cleared first
        cuspops._canonical.cache_clear()
        pres, emb = presentation(2, algebra)
        gen = (emb.x_images if k > 0 else emb.y_images)[0]
        ((step,), coeff), = gen.components.items()
        shifts = []
        real = BasePoly.shift

        def counting(self, by):
            shifts.append((self is coeff, tuple(by)))
            return real(self, by)

        monkeypatch.setattr(BasePoly, "shift", counting)
        u = pres.basis((k,))
        back = emb.pullback(emb.apply(u))
        monkeypatch.undo()
        assert back == u
        walk = [] if coeff.is_constant() else range(1, abs(k))
        assert coeff.is_constant() == (algebra == "calA" and k > 0)
        assert shifts == [(True, (step * j,)) for j in walk]

    @pytest.mark.parametrize("algebra", ["calA", "bbA", "weyl"])
    def test_basis_image_oracle_seeded(self, algebra):
        # the image of v_alpha is the Laurent product of generator powers,
        # X_i^alpha_i or Y_i^-alpha_i, in factor order; one embedding serves
        # every alpha and keeps each image it forms
        rng = random.Random(31)
        for widths in ((2,), (3,), (2, 3), (3, 2)):
            pres, emb = presentation(widths, algebra)
            n = pres.nvars
            for _ in range(12):
                alpha = tuple(rng.randint(-4, 4) for _ in range(n))
                expected = LaurentOp.one(n)
                for i, k in enumerate(alpha):
                    if k > 0:
                        expected = expected * emb.x_images[i] ** k
                    elif k < 0:
                        expected = expected * emb.y_images[i] ** -k
                assert emb.apply(pres.basis(alpha)) == expected, (widths,
                                                                  alpha)

    def test_deep_power_round_trip(self):
        # generator powers are built by a loop, not one stack frame per power
        pres, emb = calA_presentation(2)
        u = pres.basis((1100,))
        assert emb.pullback(emb.apply(u)) == u

    def test_image_is_formed_once(self, monkeypatch):
        pres, table = calA_presentation((2, 3))
        emb = Embedding(pres, table.x_images, table.y_images)
        first = emb.image((-3, 2))
        calls = []
        monkeypatch.setattr(gwa, "monomial_product",
                            lambda u, v: calls.append((u, v)))
        assert emb.image((-3, 2)) is first
        assert emb.pullback(emb.apply(pres.basis((-3, 2)))) == pres.basis(
            (-3, 2))
        assert calls == []

    @pytest.mark.parametrize("algebra, widths", [
        ("weyl", (1, 1)), ("calA", (2, 3)), ("bbA", (2, 2))])
    def test_degree_rules_a_component_out_unformed(self, monkeypatch,
                                                   algebra, widths):
        # Y_1^40 has a coefficient of degree 40 at least: h1^3 at that
        # degree is not in the image, and no power of Y_1 is formed to say so
        pres, table = presentation(widths, algebra)
        emb = Embedding(pres, table.x_images, table.y_images)
        calls = []
        monkeypatch.setattr(gwa, "monomial_product",
                            lambda u, v: calls.append((u, v)))
        h1 = BasePoly.variable(2, 0)
        op = LaurentOp.monomial(2, (-40 * pres.steps[0], 0), h1 ** 3)
        with pytest.raises(NotInImage):
            emb.pullback(op)
        assert calls == []
        monkeypatch.undo()
        # at the degree of the image itself the power is formed and divides
        degree, psi = emb.image((-40, 0))
        assert emb.pullback(LaurentOp.monomial(2, degree, psi * h1)) == (
            pres.element({(-40, 0): h1}))


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

    def test_one_presentation_is_not_compared(self, monkeypatch):
        # operands of one presentation object skip GwaPresentation.__eq__;
        # equal presentations built apart still combine, through it
        pres, _ = calA_presentation(2)
        twin, _ = calA_presentation(2)
        X, Y = pres.basis((1,)), pres.basis((-1,))
        compared = []
        original = GwaPresentation.__eq__

        def counting(a, b):
            compared.append(1)
            return original(a, b)

        monkeypatch.setattr(GwaPresentation, "__eq__", counting)
        sums, products, equal = X + Y, X * Y, X == X
        assert compared == []
        assert (twin.basis((1,)) + Y) == sums
        assert compared
        monkeypatch.undo()
        assert products == pres.element({(0,): pres.a[0].shift(pres.steps)})
        assert equal is True

    def test_presentations_do_not_mix(self):
        # arithmetic across presentations raises; equality answers False
        X2 = calA_presentation(2)[0].basis((1,))
        X3 = calA_presentation(3)[0].basis((1,))
        for combine in (lambda a, b: a + b, lambda a, b: a * b,
                        lambda a, b: a - b):
            with pytest.raises(PresentationMismatch):
                combine(X2, X3)
        assert (X2 == X3, X2 != X3, X3 in [X2]) == (False, True, False)


# two presentations per rank, so that elements of both meet in one test
_TWO_PRESENTATIONS = {n: [presentation(shape, algebra)[0]
                          for shape, algebra in pairs]
                      for n, pairs in {1: [(2, "calA"), (3, "bbA")],
                                       2: [((2, 3), "calA"),
                                           ((1, 1), "weyl")]}.items()}


@st.composite
def ring_values(draw):
    """An int or a Fraction, or a BasePoly, LaurentOp or GwaElement of rank
    1 or 2 holding one term: a small constant, plus h1 at times, at a degree
    that is mostly zero, so that values of different kinds are often equal."""
    c = draw(st.one_of(st.integers(-2, 2),
                       st.fractions(-2, 2, max_denominator=2)))
    kind = draw(st.sampled_from(["number", "poly", "op", "gwa"]))
    if kind == "number":
        return c
    n = draw(st.integers(1, 2))
    poly = BasePoly.constant(n, c) + draw(st.sampled_from(
        [0, 0, BasePoly.variable(n, 0)]))
    if kind == "poly":
        return poly
    degree = tuple(draw(st.sampled_from([0, 0, 0, 1, -1])) for _ in range(n))
    if kind == "op":
        return LaurentOp(n, {degree: poly})
    return GwaElement(draw(st.sampled_from(_TWO_PRESENTATIONS[n])),
                      {degree: poly})


class TestEqualityAcrossKinds:
    """== coerces numbers into polynomials, polynomials into operators and
    both into GWA elements, so it must never raise, must be symmetric, and
    equal values must hash alike.  It is strict across arities and
    presentations, so not transitive: 3 == BasePoly.constant(1, 3) and
    3 == BasePoly.constant(2, 3), but the two polynomials differ."""

    @given(ring_values(), ring_values())
    @settings(max_examples=400, deadline=None)
    def test_equality_is_total_symmetric_and_hashed_alike(self, a, b):
        assert (a == b) == (b == a)
        assert (a != b) == (not a == b)
        if a == b:
            assert hash(a) == hash(b)

    def test_constants_hash_as_numbers(self):
        pres = _TWO_PRESENTATIONS[1][0]
        three = BasePoly.constant(1, 3)
        for value in (three, LaurentOp.from_poly(three), pres.from_base(three)):
            assert value == 3 and hash(value) == hash(3)
        for zero in (BasePoly.zero(2), LaurentOp(2), pres.element({})):
            assert zero == 0 and hash(zero) == 0
        assert three != BasePoly.constant(2, 3)

