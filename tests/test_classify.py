"""Weight-module classification: orbit cutting, interval modules, the orbit
order, normal elements, and normalization."""

import random
import re
import sys
from fractions import Fraction

import pytest

from cuspdiff.classify import (INFINITE, ClassifiedModule, GammaInterval,
                               InvalidInterval, LinMaxIdeal, NonlinearFactor,
                               Orbit, WrongShape, build_weight_module,
                               classify_DA_torsion, classify_bbA, is_normal,
                               marked_ideals, normalization_shift, normalize,
                               partition_orbit)
from cuspdiff.classify import _least_shift, _nonpositive_coords
from cuspdiff.cuspops import bbA_presentation, calA_presentation
from cuspdiff.exactpoly import BasePoly, exact_divide, rational_roots
from cuspdiff.exprparse import parse_poly
from cuspdiff.gwa import GwaElement
from cuspdiff.modactions import ExponentSet, WeightSupport

H = BasePoly.variable(1, 0)


def p(text):
    return parse_poly(text, 1)


def bba_element(m, coords):
    pres, _ = bbA_presentation(m)
    return GwaElement(pres, {(k,): c for k, c in coords.items()})


# the weight model of an interval module, kept here as the oracle that the
# classification's annihilators and supports are checked against

def in_interval(gamma, root):
    """Whether a root lies in the interval: in its orbit and between its anchors."""
    root = Fraction(root)
    if not gamma.orbit.contains_root(root):
        return False
    if gamma.kind == "full":
        return True
    if gamma.kind == "left_ray":
        return root <= gamma.upper.root
    if gamma.kind == "right_ray":
        return root > gamma.lower.root
    return gamma.lower.root < root <= gamma.upper.root


def up_scalar(wm, lam):
    """Scalar of the transition lam -> lam + step: 1 where both ends lie inside."""
    lam = Fraction(lam)
    inside = in_interval(wm.interval, lam) and \
        in_interval(wm.interval, lam + wm.step)
    return Fraction(1 if inside else 0)


def down_scalar(wm, lam):
    """Scalar of the transition lam -> lam - step: a(lam - step) where both
    ends lie inside, so down(up(lam)) = a(lam)."""
    lam = Fraction(lam)
    if in_interval(wm.interval, lam) and in_interval(wm.interval, lam - wm.step):
        return wm.a.eval([lam - wm.step])
    return Fraction(0)


class TestOrbits:
    def test_rep_is_fractional_part(self):
        assert Orbit(5).rep == 0
        assert Orbit(-3).rep == 0
        assert Orbit(Fraction(7, 2)).rep == Fraction(1, 2)
        assert Orbit(Fraction(-1, 3)).rep == Fraction(2, 3)

    def test_contains(self):
        orb = Orbit(Fraction(1, 2))
        assert orb.contains_root(Fraction(5, 2))
        assert not orb.contains_root(2)

    def test_equality(self):
        assert Orbit(2) == Orbit(-7)
        assert Orbit(Fraction(1, 2)) != Orbit(0)

    def test_integral_values_are_ints(self):
        # as rational_roots gives roots: an int when integral, else a Fraction
        for value, want in ((Fraction(8, 2), int), (-3, int), ("5", int),
                            (Fraction(7, 2), Fraction), ("-1/3", Fraction)):
            assert type(LinMaxIdeal(value).root) is want
            assert type(Orbit(value).rep) is want
        assert LinMaxIdeal(Fraction(8, 2)) == LinMaxIdeal(4)
        assert Orbit(Fraction(8, 2)) == Orbit(0)
        assert Orbit(0).contains_root(7) and Orbit(0).contains_root(Fraction(-4))
        assert not Orbit(0).contains_root(Fraction(1, 2))


class TestMarkedIdeals:
    def test_single_orbit(self):
        marked = marked_ideals(H * (H - 1) * (H - 4))
        assert len(marked) == 1
        orb, ideals = marked[0]
        assert orb == Orbit(0)
        assert [i.root for i in ideals] == [0, 1, 4]

    def test_two_orbits_sorted_by_rep(self):
        a = p("2*h-1") * p("2*h-3") * (H - 2)
        marked = marked_ideals(a)
        assert [orb.rep for orb, _ in marked] == [0, Fraction(1, 2)]
        assert [i.root for i in marked[1][1]] == [Fraction(1, 2),
                                                 Fraction(3, 2)]

    def test_repeated_roots_collapse(self):
        marked = marked_ideals(H * H * (H - 1))
        assert [i.root for i in marked[0][1]] == [0, 1]

    def test_nonsplit_rejected(self):
        with pytest.raises(NonlinearFactor):
            marked_ideals(H * H + 1)

    def test_ideal_render(self):
        assert LinMaxIdeal(2).render() == "(h-2)"
        assert LinMaxIdeal(0).render() == "(h)"
        assert LinMaxIdeal(-3).render() == "(h+3)"


class TestPartition:
    def test_three_marks_make_four_pieces(self):
        a = H * (H - 1) * (H - 4)
        pieces = partition_orbit(a, Orbit(0))
        assert [g.kind for g in pieces] == ["left_ray", "half_open",
                                           "half_open", "right_ray"]
        assert pieces[0].upper.root == 0
        assert pieces[1].lower.root == 0 and pieces[1].upper.root == 1
        assert pieces[2].lower.root == 1 and pieces[2].upper.root == 4
        assert pieces[3].lower.root == 4

    def test_unmarked_orbit_stays_whole(self):
        a = p("2*h-1")
        pieces = partition_orbit(a, Orbit(0))
        assert len(pieces) == 1 and pieces[0].kind == "full"

    def test_disjoint_cover(self):
        a = H * (H - 1) * (H - 4)
        pieces = partition_orbit(a, Orbit(0))
        for r in range(-20, 21):
            assert sum(in_interval(g, r) for g in pieces) == 1

    def test_render(self):
        a = H * (H - 1)
        pieces = partition_orbit(a, Orbit(0))
        assert pieces[1].render() == "((h), (h-1)]"
        assert pieces[0].render() == "(-inf, (h)]"
        assert pieces[2].render() == "((h-1), +inf)"


class TestIntervalValidation:
    def test_kind_follows_the_ends(self):
        lo, hi = LinMaxIdeal(0), LinMaxIdeal(2)
        assert GammaInterval(Orbit(0)).kind == "full"
        assert GammaInterval(Orbit(0), upper=hi).kind == "left_ray"
        assert GammaInterval(Orbit(0), lower=lo).kind == "right_ray"
        assert GammaInterval(Orbit(0), lo, hi).kind == "half_open"

    def test_half_open_order(self):
        with pytest.raises(InvalidInterval):
            GammaInterval(Orbit(0), lower=LinMaxIdeal(2),
                          upper=LinMaxIdeal(1))

    def test_anchor_must_lie_in_orbit(self):
        with pytest.raises(InvalidInterval):
            GammaInterval(Orbit(0), upper=LinMaxIdeal(Fraction(1, 2)))


class TestWeightModules:
    def setup_method(self):
        self.a = H * (H - 1) * (H - 4)
        self.pieces = partition_orbit(self.a, Orbit(0))

    def test_half_open_dimensions(self):
        wm1 = build_weight_module(self.a, self.pieces[1], 1)
        wm3 = build_weight_module(self.a, self.pieces[2], 1)
        assert wm1.weights == (1,) and wm1.dimension == 1
        assert wm3.weights == (2, 3, 4) and wm3.dimension == 3

    def test_rays_are_infinite(self):
        wm = build_weight_module(self.a, self.pieces[0], 1, window=6)
        assert wm.dimension == INFINITE
        assert wm.weights == tuple(range(-5, 1))
        wm = build_weight_module(self.a, self.pieces[3], 1, window=6)
        assert wm.weights == tuple(range(5, 11))

    def test_full_orbit_is_windowed_both_ways(self):
        (whole,) = partition_orbit(self.a, Orbit(Fraction(1, 2)))
        wm = build_weight_module(self.a, whole, 2, window=2)
        assert wm.dimension == INFINITE and not wm.finite
        assert wm.weights == tuple(Fraction(k, 2) for k in (-7, -3, 1, 5, 9))
        assert repr(wm) == ("WeightModule(the whole orbit of root 1/2 mod 1, "
                            "dim=inf)")

    def test_boundary_down_map_vanishes(self):
        # the scalar of the down transition out of the bottom weight is a at
        # the marked root, which is zero
        wm = build_weight_module(self.a, self.pieces[2], 1)
        assert down_scalar(wm, 2) == 0
        assert down_scalar(wm, 3) == self.a.eval([2]) != 0

    def test_transition_composition(self):
        wm = build_weight_module(self.a, self.pieces[2], 1)
        for lam in (2, 3):
            up = up_scalar(wm, lam)
            down = down_scalar(wm, lam + 1)
            assert down * up == self.a.eval([lam])

    def test_top_weight_cannot_go_up(self):
        wm = build_weight_module(self.a, self.pieces[1], 1)
        assert up_scalar(wm, 1) == 0

    def test_step_two(self):
        a2 = H * (H - 4)
        pieces = partition_orbit(a2, Orbit(0))
        wm = build_weight_module(a2, pieces[1], 2)
        assert wm.weights == (2, 4)
        # a step that does not divide the length stops above the lower end
        a3 = H * (H - 3)
        wm = build_weight_module(a3, partition_orbit(a3, Orbit(0))[1], 2)
        assert wm.weights == (1, 3)

    def test_weights_are_ints_when_integral(self):
        for piece in self.pieces:
            wm = build_weight_module(self.a, piece, 1, window=4)
            assert {type(w) for w in wm.weights} == {int}
        a = p("2*h-1") * p("2*h-5")
        half = Orbit(Fraction(1, 2))
        for piece in partition_orbit(a, half):
            wm = build_weight_module(a, piece, 1, window=4)
            assert {type(w) for w in wm.weights} == {Fraction}
        ray = build_weight_module(a, partition_orbit(a, half)[0], 1, window=2)
        assert ray.weights == (Fraction(-1, 2), Fraction(1, 2))


def _reference_bbA_table(m):
    """The bbA annihilators and supports as typed by hand, kept as an oracle."""
    annihilators = [
        ["h", "delta(1)"],
        ["delta(-1)", "h-1", "delta(1)"],
        ["delta(-1)^%d" % (m - 1) if m > 2 else "delta(-1)",
         "h-%d" % m, "delta(1)"],
        ["h-%d" % (m + 1), "delta(-1)"],
    ]
    supports = [
        WeightSupport(ExponentSet(le=0)),
        WeightSupport(ExponentSet(points=(1,))),
        WeightSupport(ExponentSet(points=range(2, m + 1))),
        WeightSupport(ExponentSet(ge=m + 1)),
    ]
    return annihilators, supports


_DELTA = re.compile(r"delta\((-?1)\)(?:\^(\d+))?$")


def _walk(wm, lam, t, k):
    """Product of the delta(t) scalars along k steps from the weight lam."""
    prod = 1
    for _ in range(k):
        prod *= up_scalar(wm, lam) if t == 1 else down_scalar(wm, lam)
        lam += t
    return prod


class TestClassifyBbA:
    def test_dimension_pattern(self):
        for m in range(2, 9):
            entries = classify_bbA(m)
            dims = [e.dimension for e in entries[:4]]
            assert dims == [INFINITE, 1, m - 1, INFINITE]
            assert entries[4].tag == "family"

    def test_tags(self):
        entries = classify_bbA(4)
        assert [e.tag for e in entries] == ["Gamma-", "Gamma1", "Gamma(m-1)",
                                            "Gamma+", "family"]

    def test_supports(self):
        entries = classify_bbA(3)
        assert entries[0].support == WeightSupport(ExponentSet(le=0))
        assert entries[1].support == WeightSupport(ExponentSet(points=(1,)))
        assert entries[2].support == WeightSupport(ExponentSet(points=(2, 3)))
        assert entries[3].support == WeightSupport(ExponentSet(ge=4))

    def test_annihilators(self):
        entries = classify_bbA(2)
        assert entries[0].annihilator == ("h", "delta(1)")
        assert entries[1].annihilator == ("delta(-1)", "h-1", "delta(1)")
        assert entries[2].annihilator == ("delta(-1)", "h-2", "delta(1)")
        assert entries[3].annihilator == ("h-3", "delta(-1)")
        entries = classify_bbA(5)
        assert entries[2].annihilator == ("delta(-1)^4", "h-5", "delta(1)")

    def test_intervals_match_marked_roots(self):
        entries = classify_bbA(6)
        assert entries[1].interval.lower.root == 0
        assert entries[1].interval.upper.root == 1
        assert entries[2].interval.lower.root == 1
        assert entries[2].interval.upper.root == 6

    def test_json(self):
        entries = classify_bbA(2)
        data = [e.to_json() for e in entries]
        assert data[0]["dimension"] == "infinite"
        assert data[1]["dimension"] == 1
        assert data[1]["interval"] == {"kind": "half_open",
                                       "anchors": ["0", "1"]}
        assert data[4]["interval"] is None

    def test_width_guard(self):
        with pytest.raises(ValueError):
            classify_bbA(1)

    def test_matches_hand_typed_table(self):
        for m in range(2, 13):
            entries = classify_bbA(m)
            annihilators, supports = _reference_bbA_table(m)
            for e, ann, supp in zip(entries, annihilators, supports):
                want = ClassifiedModule(e.tag, e.interval, ann, e.module, supp)
                assert e.to_json() == want.to_json()

    def test_annihilators_kill_the_anchored_vector(self):
        # read each generator back and act with it in the weight model
        for m in range(2, 13):
            for e in classify_bbA(m)[:4]:
                wm = e.module
                polys = [g for g in e.annihilator if not g.startswith("delta")]
                assert len(polys) == 1
                g = parse_poly(polys[0])
                w0 = -g.eval([0])
                assert g == H - w0 and g.eval([w0]) == 0
                assert w0 in (wm.weights[0], wm.weights[-1])
                deltas = [_DELTA.match(d) for d in e.annihilator
                          if d.startswith("delta")]
                assert all(deltas)
                steps = {int(d.group(1)): int(d.group(2) or 1) for d in deltas}
                assert len(steps) == len(deltas) == (2 if wm.finite else 1)
                for t, k in steps.items():
                    assert _walk(wm, w0, t, k) == 0
                    assert _walk(wm, w0, t, k - 1) != 0

    def test_supports_are_the_interval_roots(self):
        for m in range(2, 13):
            for e in classify_bbA(m)[:4]:
                window = range(-3 * m - 5, 4 * m + 6)
                assert e.support.roots.window(window[0], window[-1]) == [
                    k for k in window if in_interval(e.interval, k)]


class TestClassifyTorsion:
    def test_two_exceptional_entries(self):
        tc = classify_DA_torsion(2)
        names = [name for name, _ in tc.exceptional]
        assert names == ["A", "Aprime"]
        sup_a = tc.exceptional[0][1]
        sup_q = tc.exceptional[1][1]
        assert sup_a.contains_root(1) and not sup_a.contains_root(2)
        assert sup_q.contains_root(2) and not sup_q.contains_root(1)

    def test_json(self):
        data = classify_DA_torsion(3).to_json()
        assert all(e["dimension"] == "infinite" for e in data["exceptional"])
        assert "family" in data


def _reference_roots_less(aroots, broots):
    """The pairwise loop the per-orbit order replaced, kept as an oracle."""
    for r in aroots:
        for s in broots:
            if (r - s).denominator == 1 and not r < s:
                return False
    return True


def _reference_least_shift(roots0, targets, step):
    """The pairwise loop the per-orbit shift bound replaced, kept as an oracle."""
    s = 0
    for r in roots0:
        for t in targets:
            d = r - t
            if d.denominator == 1 and d >= 0:
                s = max(s, d.numerator // step + 1)
    return s


# ints, integral Fractions and Fractions in the orbits of 1/2, 1/3 and 2/3
_ORDER_VALUES = ([*range(-6, 7), Fraction(4), Fraction(-2)]
                 + [Fraction(k, 2) for k in range(-9, 10, 2)]
                 + [Fraction(k, 3) for k in range(-8, 9) if k % 3])


def _below(aroots, broots):
    """The strict orbit order: the least shift of aroots below broots is 0."""
    return _least_shift(aroots, broots, 1) == 0


class TestOrbitOrder:
    def test_matches_pairwise_loops(self):
        rng = random.Random(47)
        verdicts, shifts = set(), set()
        for _ in range(1500):
            aroots = rng.choices(_ORDER_VALUES, k=rng.randint(0, 5))
            broots = rng.choices(_ORDER_VALUES, k=rng.randint(0, 5))
            verdict = _reference_roots_less(aroots, broots)
            verdicts.add(verdict)
            for step in (1, 2, 3):
                s = _least_shift(aroots, broots, step)
                assert s == _reference_least_shift(aroots, broots, step)
                assert (s == 0) is verdict, (aroots, broots, step)
                assert type(s) is int
                shifts.add(s)
        assert verdicts == {False, True}
        assert max(shifts) >= 5

    def test_comparable_pairs(self):
        assert _below([0], [1])
        assert not _below([1], [0])
        assert not _below([0], [0])     # strict

    def test_products(self):
        assert _below([0, 1], [2, 3])
        assert not _below([0, 3], [2, 4])

    def test_incomparable_is_vacuous(self):
        half = Fraction(1, 2)
        assert _below([half], [1])
        assert _below([1], [half])

    def test_constants_are_vacuous(self):
        assert _below([], [0])
        assert _below([0], [])

    def test_nonsplit_rejected(self):
        # beta_{-m'} = h^2 + 1 has no rational root
        with pytest.raises(NonlinearFactor):
            is_normal(bba_element(2, {0: H, -1: H * H + 1}))


class TestIsNormal:
    def test_constant_degree_zero_part(self):
        assert is_normal(bba_element(2, {0: BasePoly.one(1), -1: H}))

    def test_worked_example_is_not_normal(self):
        assert not is_normal(bba_element(2, {0: H, -1: H + 1}))

    def test_shape_errors(self):
        with pytest.raises(WrongShape):
            is_normal(bba_element(2, {1: H}))
        with pytest.raises(WrongShape):
            is_normal(bba_element(2, {-1: H}))
        with pytest.raises(WrongShape):
            is_normal(bba_element(2, {}))

    def test_nonsplit_coefficient(self):
        with pytest.raises(NonlinearFactor):
            is_normal(bba_element(2, {0: H * H + 1, -1: BasePoly.one(1)}))


class TestNormalize:
    def test_worked_example(self):
        b = bba_element(2, {0: H, -1: H + 1})
        result = normalize(b)
        assert result.s == 1
        assert result.alpha == p("h^2+h")
        assert result.beta == p("h^2+3*h+2")
        assert result.normalized.coords == {(0,): H + 2, (-1,): H + 1}
        assert is_normal(result.normalized)

    def test_already_normal_constant_part(self):
        b = bba_element(2, {0: BasePoly.constant(1, 2), -1: H})
        result = normalize(b)
        assert result.s == 0
        assert result.normalized == b

    def test_zero_and_shape_errors(self):
        with pytest.raises(WrongShape):
            normalize(bba_element(2, {}))
        with pytest.raises(WrongShape):
            normalize(bba_element(3, {2: H, 0: H}))

    def test_seeded_randoms_normalize(self):
        rng = random.Random(23)
        pres2, _ = bbA_presentation(2)
        pres3, _ = bbA_presentation(3)
        for trial in range(60):
            pres = pres2 if trial % 2 else pres3
            b = _random_lower(pres, rng)
            result = normalize(b)
            assert is_normal(result.normalized)
            if result.s > 0:
                assert not _shift_ok(b, result.s - 1)

    def test_calA_step_two(self):
        pres, _ = calA_presentation(2)
        b = GwaElement(pres, {(0,): H - 1, (-1,): BasePoly.one(1)})
        result = normalize(b)
        assert is_normal(result.normalized)
        # step 2 moves the shifted root down two at a time
        assert result.s >= 1

    def test_closed_form_shift_matches_search(self):
        def search(roots0, targets, step):
            # the linear search the closed form replaced
            s = 0
            while not _reference_roots_less([r - s * step for r in roots0],
                                            targets):
                s += 1
            return s

        rng = random.Random(11)
        values = [Fraction(k, 2) for k in range(-9, 10)] + [Fraction(1, 3)]
        for _ in range(300):
            roots0 = rng.choices(values, k=rng.randint(0, 3))
            targets = rng.choices(values, k=rng.randint(0, 4)) + roots0
            for step in (1, 2, 3):
                assert (_least_shift(roots0, targets, step)
                        == search(roots0, targets, step)), (roots0, targets, step)

    def test_normalization_shift_is_the_used_shift(self):
        rng = random.Random(29)
        pres, _ = bbA_presentation(3)
        for _ in range(20):
            b = _random_lower(pres, rng)
            assert normalization_shift(b) == normalize(b).s


def _random_lower(pres, rng):
    """Random element with split coefficients, lowest degree >= -2."""
    mprime = rng.randint(0, 2)
    coords = {}
    for k in range(0, mprime + 1):
        c = BasePoly.constant(1, rng.choice([1, 2, 3, -1]))
        for _ in range(rng.randint(0, 2)):
            c = c * (H - rng.randint(-3, 3))
        if k in (0, mprime):
            coords[(-k,)] = c
        elif rng.random() < 0.7:
            coords[(-k,)] = c
    return GwaElement(pres, coords)


def _shift_ok(b, s):
    """Check the three orbit-order conditions at shift count s."""
    from cuspdiff.classify import _nonpositive_coords, _split_roots
    mprime, left = _nonpositive_coords(b)
    pres = b.presentation
    step = pres.steps[0]
    # the right coefficient at v_{-k} is sigma^{k step} of the left one
    beta0 = left[0]
    betam = left[mprime].shift([mprime * step])
    shifted = [r - s * step for r in _split_roots(beta0)]
    return (_reference_roots_less(shifted, _split_roots(betam))
            and _reference_roots_less(shifted, _split_roots(beta0))
            and _reference_roots_less(shifted, _split_roots(pres.a[0])))


def _reference_normalize(b):
    """The earlier normalize, kept as an independent oracle.

    s is found by linear search; alpha and beta are multiplied out, and each
    coordinate is beta * c_k divided exactly by sigma^{-k}(alpha).
    """
    s = 0
    while not _shift_ok(b, s):
        s += 1
    mprime, left = _nonpositive_coords(b)
    step = b.presentation.steps[0]
    beta0 = left[0]
    alpha = BasePoly.one(1)
    for i in range(0, s + 1):
        alpha = alpha * beta0.shift([-i * step])
    beta = BasePoly.one(1)
    for i in range(1, s + mprime + 1):
        beta = beta * beta0.shift([-i * step])
    coords = {(-k,): exact_divide(beta * left[k], alpha.shift([-k * step]))
              for k in range(0, mprime + 1) if not left[k].is_zero()}
    return s, alpha, beta, coords


_ROOTS = [-3, -2, -1, 0, 1, 2, 3, Fraction(1, 2), Fraction(-5, 2),
          Fraction(2, 3), Fraction(7, 3)]
_LEADS = [1, -1, 2, 3, Fraction(1, 2), Fraction(-3, 4)]


def _random_split_element(pres, mprime, rng):
    """Split coefficients with Fraction roots and leads; middle ones may vanish."""
    coords = {}
    for k in range(0, mprime + 1):
        if 0 < k < mprime and rng.random() < 0.4:
            continue
        c = BasePoly.constant(1, rng.choice(_LEADS))
        for r in rng.choices(_ROOTS, k=rng.randint(0, 3)):
            c = c * (H - r)
        coords[(-k,)] = c
    return GwaElement(pres, coords)


def _normalize_cases():
    rng = random.Random(41)
    for algebra in (bbA_presentation, calA_presentation):
        for m in (2, 3, 4):
            pres, _ = algebra(m)
            for mprime in range(4):
                for _ in range(8):
                    yield _random_split_element(pres, mprime, rng)
    # long chains: beta_0 with roots far apart needs shift count >= 6, here
    # with a Fraction root and a non-unit lead at a large shift
    pres, _ = bbA_presentation(2)
    far = [(1, (H - 4) * (H + 2)),
           (-3, (H - 9) * (3 * H - 1)),
           (Fraction(2, 5), (2 * H - 7) * (H + 5) * (H - 30))]
    for mprime in range(4):
        for lead, beta0 in far:
            coords = {(0,): lead * beta0}
            if mprime:
                coords[(-mprime,)] = (H - mprime) * (2 * H + 1)
            if mprime > 1:
                coords[(-1,)] = H * H + 1  # a middle coordinate need not split
            yield GwaElement(pres, coords)


class TestNormalizeOracle:
    def test_matches_exact_division(self):
        cases = list(_normalize_cases())
        steps = {b.presentation.steps[0] for b in cases}
        assert steps >= {1, 2, 3, 4}
        # some case has a vanishing middle coordinate
        assert any(len(b.coords) < 1 - min(k for (k,) in b.coords) for b in cases)
        shifts = set()
        for b in cases:
            result = normalize(b)
            s, alpha, beta, coords = _reference_normalize(b)
            shifts.add(s)
            assert result.s == s, b
            assert result.alpha == alpha, b
            assert result.beta == beta, b
            assert result.normalized.coords == coords, b
        assert max(shifts) >= 6

    def test_chain_multiplies_no_shift(self, monkeypatch):
        # f_j = sigma^{-j}(beta_0) is built from the roots of beta_0, and
        # c_{m'} joins its product by its own roots, so normalize shifts
        # nothing; its only polynomial products are one per nonzero middle
        # coordinate c_k, 1 <= k < m'
        shifts, products = [], []
        real_shift, real_mul = BasePoly.shift, BasePoly.__mul__

        def counting_shift(q, k):
            shifts.append(k)
            return real_shift(q, k)

        def counting_mul(q, other):
            products.append(1)
            return real_mul(q, other)

        monkeypatch.setattr(BasePoly, "shift", counting_shift)
        monkeypatch.setattr(BasePoly, "__mul__", counting_mul)
        monkeypatch.setattr(BasePoly, "__rmul__", counting_mul)
        large = 0
        for b in _normalize_cases():
            mprime = -min(k for (k,) in b.coords)
            shifts.clear()
            products.clear()
            result = normalize(b)
            assert shifts == [], b
            assert len(products) <= max(mprime - 1, 0), b
            large += result.s >= 6
        assert large >= 4

    def test_work_counts(self, monkeypatch):
        from cuspdiff import classify, exactpoly
        roots_calls, divide_calls = [], []

        def counting_roots(p):
            roots_calls.append(1)
            return rational_roots(p)

        def counting_divide(p, q):
            divide_calls.append(1)
            return exact_divide(p, q)

        monkeypatch.setattr(classify, "rational_roots", counting_roots)
        # every module binding, so one imported into classify again counts too
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("cuspdiff") and \
                    getattr(mod, "exact_divide", None) is exact_divide:
                monkeypatch.setattr(mod, "exact_divide", counting_divide)
        assert exactpoly.exact_divide is counting_divide
        for b in _normalize_cases():
            roots_calls.clear()
            is_normal(b)
            assert len(roots_calls) <= 3, b
            roots_calls.clear()
            normalize(b)
            assert len(roots_calls) <= 6, b
        assert divide_calls == []

    def test_closing_check_searches_nothing(self, monkeypatch):
        # normalize splits beta_0, the top coefficient and a on entry, and
        # builds the normalized element's ends from those roots, which the
        # ends record, so the closing is_normal searches nothing
        from cuspdiff import classify, exactpoly
        real_split, real_is_normal = exactpoly._split, classify.is_normal
        searched, closing = [], []

        def counting_split(q):
            searched.append(q)
            return real_split(q)

        def closing_is_normal(b):
            before = len(searched)
            ok = real_is_normal(b)
            closing.append(len(searched) - before)
            return ok

        monkeypatch.setattr(exactpoly, "_split", counting_split)
        monkeypatch.setattr(classify, "is_normal", closing_is_normal)
        nonconstant_ends = 0
        for b in _normalize_cases():
            searched.clear()
            closing.clear()
            result = normalize(b)
            assert closing == [0], b
            assert len(searched) <= 3, b
            assert not any(q.is_constant() for q in searched), b
            nonconstant_ends += not result.normalized.coords[(0,)].is_constant()
        assert nonconstant_ends >= 100
        searched.clear()
        three = BasePoly.constant(1, 3)
        assert rational_roots(three) == ([], three)
        assert searched == []

    def test_cli_order_searches_each_polynomial_once(self, monkeypatch):
        # the normalize command asks normalization_shift, is_normal and
        # normalize in turn; each end coefficient of b, and a, is searched
        # for roots at most once across the three
        from cuspdiff import classify, exactpoly
        divisors = exactpoly._divisors
        calls, searched = [], set()

        def tracking_roots(q):
            calls.append(q)
            return rational_roots(q)

        def tracking_divisors(n):
            searched.add(len(calls) - 1)
            return divisors(n)

        monkeypatch.setattr(classify, "rational_roots", tracking_roots)
        monkeypatch.setattr(exactpoly, "_divisors", tracking_divisors)
        pres, _ = bbA_presentation(3)
        # degree two ends, so that neither is read off as a linear root
        ends = [(H - 1) * (H - 2), (H + 1) * (2 * H - 9)]
        b = GwaElement(pres, {(0,): ends[0], (-1,): H + 1, (-2,): ends[1]})
        normalization_shift(b)
        is_normal(b)
        normalize(b)
        split = [calls[i] for i in searched]
        for q in [b.graded_component((0,)), b.graded_component((-2,))]:
            assert sum(s is q for s in split) == 1
        assert sum(s is pres.a[0] for s in split) <= 1
