"""Module actions on Laurent monomials, masked quotients, stability, and the
weight-support bookkeeping behind restriction."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuspdiff import modactions
from cuspdiff.cuspops import (CuspShape, delta_op, generating_set,
                              generator_pair, graded_divisor)
from cuspdiff.exactpoly import ArityMismatch, BasePoly, linear_factors
from cuspdiff.modactions import (ExponentSet, LaurentVector, NotStable,
                                 WeightSupport, act, act_on_quotient,
                                 cusp_mask, quotient_mask, render_vector,
                                 restriction_blocks, simplicity_probe,
                                 stability_check, support)
from cuspdiff.skewlaurent import LaurentOp

H = BasePoly.variable(1, 0)
x = LaurentOp.x(1, 0)
d = LaurentOp.d(1, 0)


def mono(k, c=1):
    return LaurentVector.monomial(1, (k,), c)


class TestAct:
    def test_h_reads_the_weight(self):
        # h x^k = (k + 1) x^k
        for k in (-3, 0, 2, 5):
            assert act(LaurentOp.h(1, 0), mono(k)) == mono(k, k + 1)

    def test_partial_drops_degree(self):
        assert act(d, mono(2)) == mono(1, 2)
        assert act(d, mono(0)).is_zero()
        assert act(d, mono(-1)) == mono(-2, -1)

    def test_x_shifts_up(self):
        assert act(x, mono(3)) == mono(4)

    def test_delta_boundary_vanishing(self):
        # delta_1 kills x^0 and delta_{-1} kills x^m for every width
        for m in (2, 3, 4):
            assert act(delta_op(m, (1,)), mono(0)).is_zero()
            assert act(delta_op(m, (-1,)), mono(m)).is_zero()
            assert not act(delta_op(m, (1,)), mono(m)).is_zero()

    def test_linearity(self):
        u = delta_op(2, (1,))
        v = mono(1, 2) + mono(4, -1)
        assert act(u, v) == 2 * act(u, mono(1)) + (-1) * act(u, mono(4))

    def test_cancelling_contributions_leave_no_entry(self):
        # x sends x^0 and -1 sends x^1 to x^1, with opposite signs
        got = act(x - 1, mono(0) + mono(1))
        assert got == mono(2) + mono(0, -1)
        assert set(got.coeffs) == {(2,), (0,)}
        # integral coefficients are stored as ints
        assert all(type(c) is int for c in got.coeffs.values())

    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_action_axiom(self, i, j, k):
        # (u v) w == u (v w) with u, v running over monomial operators
        u = LaurentOp.monomial(1, (i,), H + i)
        v = LaurentOp.monomial(1, (j,), H * H - j)
        w = mono(k)
        assert act(u * v, w) == act(u, act(v, w))

    def test_rank_two(self):
        shape = CuspShape((2, 2))
        u = delta_op(shape, (1, -1))
        # coefficient evaluates at the shifted weight (3, 3) factorwise
        got = act(u, LaurentVector.monomial(2, (1, 3)))
        assert got == LaurentVector.monomial(2, (2, 2), 3)
        # a boundary weight kills the same operator
        assert act(u, LaurentVector.monomial(2, (0, 2))).is_zero()


def _direct_act(u, v):
    """All-Fraction oracle for act, read off the coefficient terms.

    (d * x^alpha) x^beta = d(alpha + beta + 1) x^{alpha + beta}, with d
    summed term by term; BasePoly.eval is never called.
    """
    out = {}
    for alpha, dpoly in u.components.items():
        for beta, c in v.coeffs.items():
            deg = tuple(a + b for a, b in zip(alpha, beta))
            scalar = Fraction(0)
            for exp, coef in dpoly.terms.items():
                term = Fraction(coef)
                for e, k in zip(exp, deg):
                    term *= Fraction(k + 1) ** e
                scalar += term
            out[deg] = out.get(deg, Fraction(0)) + Fraction(c) * scalar
    return {deg: c for deg, c in out.items() if c}


class TestActOracle:
    @staticmethod
    def _coef(rng):
        # ints, and Fractions with denominators 1 to 3
        num = rng.randint(-6, 6)
        return num if rng.random() < 0.4 else Fraction(num, rng.randint(1, 3))

    @pytest.mark.parametrize("nvars", [1, 2])
    def test_matches_direct_evaluation(self, nvars):
        rng = random.Random(17 + nvars)
        seen = set()
        for _ in range(80):
            def degree(lo, hi):
                return tuple(rng.randint(lo, hi) for _ in range(nvars))
            u = LaurentOp(nvars, {
                degree(-4, 4): BasePoly(nvars, {degree(0, 3): self._coef(rng)
                                                for _ in range(rng.randint(1, 4))})
                for _ in range(rng.randint(1, 4))})
            v = LaurentVector(nvars, {degree(-5, 5): self._coef(rng)
                                      for _ in range(rng.randint(1, 5))})
            got = act(u, v)
            assert got.coeffs == _direct_act(u, v), (u, v)
            for c in list(v.coeffs.values()) + list(got.coeffs.values()):
                # exact and unboxed: an int exactly when integral
                assert type(c) is (int if c.denominator == 1 else Fraction)
                seen.add(type(c))
        assert seen == {int, Fraction}

    def test_integral_fraction_products_are_stored_as_int(self):
        # 3/2 * h on 1/3 * x^1 gives 3/2 * 1/3 * 2 = 1
        got = act(LaurentOp.monomial(1, (0,), Fraction(3, 2) * H),
                  mono(1, Fraction(1, 3)))
        assert got.coeffs == {(1,): 1}
        assert type(got.coeffs[(1,)]) is int


class TestMasks:
    def test_cusp_mask_exponents(self):
        mask = cusp_mask(3)
        f = mask.factors[0]
        assert 0 in f and 3 in f and 10 in f
        assert 1 not in f and 2 not in f and -1 not in f

    def test_quotient_mask_is_complement(self):
        mask_a = cusp_mask(3)
        mask_q = quotient_mask(3)
        for k in range(-6, 7):
            assert (k in mask_a.factors[0]) != (k in mask_q.factors[0])

    def test_window_and_translate(self):
        s = ExponentSet(points=(1,), ge=4)
        assert s.window(-2, 6) == [1, 4, 5, 6]
        t = s.translate(2)
        assert t.window(0, 8) == [3, 6, 7, 8]

    def test_integral_input_is_stored_as_ints(self):
        s = ExponentSet(points=[Fraction(4, 2), 5, Fraction(-3)],
                        ge=Fraction(14, 2), le=Fraction(-10, 2))
        assert s == ExponentSet(points=(2, 5, -3), ge=7, le=-5)
        assert {type(p) for p in s.points} == {int}
        assert type(s.ge) is int and type(s.le) is int
        assert ExponentSet(points=range(1, 4)).points == frozenset({1, 2, 3})

    @pytest.mark.parametrize("kwargs", [
        {"points": [Fraction(1, 2)]},
        {"points": [2, 2.7]},
        {"points": [2.0]},
        {"ge": Fraction(7, 2)},
        {"le": Fraction(-1, 3)},
        {"ge": 3.0},
        {"points": ["3"]},
    ])
    def test_non_integral_input_is_refused(self, kwargs):
        with pytest.raises(ValueError, match="ExponentSet needs integers"):
            ExponentSet(**kwargs)

    def test_masked_monomials(self):
        shape = CuspShape((2,))
        mask = cusp_mask(shape)
        assert mask.masked_monomials(3) == [(0,), (2,), (3,)]

    def test_projections(self):
        mask = cusp_mask(2)
        v = mono(0) + mono(1, 5) + mono(2)
        assert mask.project_outside(v) == mono(1, 5)


class TestQuotientAction:
    def test_submodule_is_stable_so_action_descends(self):
        # delta_{-2} x^1 = phi(2,-2)(2) x^{-1} = -2 x^{-1} survives in the quotient
        got = act_on_quotient(delta_op(2, (-2,)), mono(1), 2)
        assert got == mono(-1, -2)

    def test_inside_part_is_projected_away(self):
        got = act_on_quotient(delta_op(2, (-1,)), mono(1), 2)
        # delta_{-1} x = phi(2,-1)(2) x^0 = 0 * x^0, lands in the mask anyway
        assert got.is_zero()
        # delta_2 x = x^3 lies in A(2), so it is zero in the quotient
        assert act_on_quotient(delta_op(2, (2,)), mono(1), 2).is_zero()

    def test_rejects_unstable_operator(self):
        with pytest.raises(NotStable):
            act_on_quotient(x, mono(1), 2)

    def test_unstable_operator_is_refused_whatever_the_vector(self):
        # x is outside the ring for every width >= 2, even where its image
        # happens to miss the mask
        for v in (mono(-3), mono(-3, Fraction(2, 3)), mono(1) + mono(5),
                  LaurentVector(1)):
            with pytest.raises(NotStable):
                act_on_quotient(x, v, 2)
        x1 = LaurentOp.x(2, 0)
        with pytest.raises(NotStable):
            act_on_quotient(x1, LaurentVector.monomial(2, (-2, 1)), (2, 3))

    @pytest.mark.parametrize("shape", [2, 3, (2, 3)], ids=["2", "3", "2,3"])
    def test_generators_kill_the_submodule(self, shape):
        # A(m) is zero in the quotient, and every generator keeps it there
        shape = CuspShape(shape)
        inside = cusp_mask(shape).masked_monomials(8)
        assert inside
        for g in generating_set(shape):
            for gamma in inside:
                v = LaurentVector.monomial(shape.rank, gamma, 3)
                assert act_on_quotient(g, v, shape).is_zero(), (g, gamma)


class TestStability:
    def test_generating_set_is_stable(self):
        for m in (2, 3):
            gens = generating_set(m)
            assert stability_check(gens, cusp_mask(m), window=4 * m)

    def test_bare_x_breaks_stability(self):
        gens = generating_set(2) + [x]
        assert not stability_check(gens, cusp_mask(2), window=8)

    def test_window_guard(self):
        with pytest.raises(ValueError):
            stability_check(generating_set(2), cusp_mask(2), window=1)


class TestSupport:
    def test_translate_by_one(self):
        sup = support(cusp_mask(2))
        assert sup.contains_root(1)
        assert not sup.contains_root(2)
        assert sup.contains_root(3) and sup.contains_root(11)
        assert not sup.contains_root(0)

    def test_render(self):
        sup = support(cusp_mask(2))
        assert sup.render() == "{(h-1)} u {(h-j) : j >= 3}"
        supq = support(quotient_mask(2))
        assert supq.render() == "{(h-j) : j <= 0} u {(h-2)}"

    def test_render_signs_each_root(self):
        # the ideal at root r is (h - r) in render_poly form at any sign
        roots = ExponentSet(points=(-3, 0, 2))
        assert WeightSupport(roots).render() == "{(h+3)} u {(h)} u {(h-2)}"

    def test_disjoint_union_covers_everything(self):
        for m in (2, 3, 5):
            a = support(cusp_mask(m))
            q = support(quotient_mask(m))
            for r in range(-20, 21):
                assert a.contains_root(r) != q.contains_root(r)

    def test_rank_two_rejected(self):
        with pytest.raises(ArityMismatch):
            support(cusp_mask(CuspShape((2, 2))))


class TestSimplicity:
    def test_both_modules_probe_simple(self):
        # at width 1, Aprime is the single run x^k, k <= -1, with no gap
        for m in (1, 2, 3, 4):
            assert simplicity_probe("A", m, window=4 * m)
            assert simplicity_probe("Aprime", m, window=4 * m)

    def test_gap_needs_the_wide_generator(self):
        # restricting the jump to degree 1 strands the gap
        assert not simplicity_probe("A", 2, window=8, gap_jump=1)
        assert not simplicity_probe("Aprime", 3, window=12, gap_jump=1)

    def test_width_one_has_no_gap(self):
        # A(1) = K[x] is one run of exponents, as its blocks say, so a wide
        # gap_jump has no gap to strand
        assert restriction_blocks(1)[0] == [ExponentSet(ge=0)]
        for jump in (2, 3):
            assert simplicity_probe("A", 1, window=4, gap_jump=jump)

    def test_window_guard(self):
        with pytest.raises(ValueError):
            simplicity_probe("A", 3, window=4)

    @pytest.mark.parametrize("module", ["A", "Aprime"])
    def test_window_guard_names_the_least_window(self, module):
        # at m = 3 the least window is 2m + 2 = 8
        with pytest.raises(ValueError) as err:
            simplicity_probe(module, 3, window=7)
        assert str(err.value) == "window 7 too small; need at least 8"
        assert simplicity_probe(module, 3, window=8)
        # and the message names 2m + 2 at every width
        for m in (1, 2, 4, 5):
            with pytest.raises(ValueError) as err:
                simplicity_probe(module, m, window=2 * m + 1)
            assert str(err.value) == ("window %d too small; need at least %d"
                                      % (2 * m + 1, 2 * m + 2))
            assert simplicity_probe(module, m, window=2 * m + 2)

    def test_unknown_module(self):
        with pytest.raises(ValueError):
            simplicity_probe("B", 2, window=8)


class TestProbeWork:
    """The probes check each operator against the ring once, not per exponent."""

    @pytest.fixture
    def membership_calls(self, monkeypatch):
        calls = []
        real = modactions.membership

        def counting(u, shape):
            calls.append(u)
            return real(u, shape)

        monkeypatch.setattr(modactions, "membership", counting)
        return calls

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_probe_checks_each_operator_once(self, membership_calls, m):
        for window in (2 * m + 2, 4 * m, 40):
            membership_calls.clear()
            assert simplicity_probe("Aprime", m, window)
            # delta_{+-1}, then the gap pair delta_{+-2}
            assert membership_calls == [delta_op(m, (1,)), delta_op(m, (-1,)),
                                        delta_op(m, (2,)), delta_op(m, (-2,))]
            membership_calls.clear()
            # the subalgebra module acts without a quotient: no check at all
            assert simplicity_probe("A", m, window)
            assert membership_calls == []

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_blocks_check_the_pair_once(self, membership_calls, m):
        restriction_blocks(m)
        assert membership_calls == [delta_op(m, (1,)), delta_op(m, (-1,))]


class TestRestrictionBlocks:
    def test_width_two(self):
        blocks_a, blocks_q = restriction_blocks(2)
        assert blocks_a == [ExponentSet(points=(0,)), ExponentSet(ge=2)]
        assert blocks_q == [ExponentSet(le=-1), ExponentSet(points=(1,))]

    def test_width_four(self):
        blocks_a, blocks_q = restriction_blocks(4)
        assert blocks_a == [ExponentSet(points=(0,)), ExponentSet(ge=4)]
        assert blocks_q == [ExponentSet(le=-1),
                            ExponentSet(points=(1, 2, 3))]

    def test_width_one_uses_the_weyl_pair(self):
        # bbA has no degree one pair at width 1; there delta_{+-1} is the
        # Weyl pair (x, partial), which links every neighbour
        assert generator_pair(1, "weyl", 0) == (delta_op(1, (1,)),
                                                delta_op(1, (-1,)))
        assert restriction_blocks(1) == ([ExponentSet(ge=0)],
                                         [ExponentSet(le=-1)])

    def test_blocks_partition_each_module(self):
        for m in (2, 3):
            mask_a = cusp_mask(m)
            mask_q = quotient_mask(m)
            blocks_a, blocks_q = restriction_blocks(m)
            for k in range(-10, 11):
                assert sum(k in b for b in blocks_a) == (1 if k in mask_a.factors[0] else 0)
                assert sum(k in b for b in blocks_q) == (1 if k in mask_q.factors[0] else 0)


@pytest.fixture
def full_walk(monkeypatch):
    """Run stability_check with _saturation's bound replaced by reach, so
    that a walk can be cut short."""
    def run(reach, sweep, *args):
        with monkeypatch.context() as patched:
            patched.setattr(modactions, "_saturation",
                            lambda *_, **__: reach)
            return sweep(*args)
    return run


def _failures(gens, mask, window):
    """Every masked exponent in the window that some generator moves out of
    the mask, straight from act."""
    return [gamma for gamma in mask.masked_monomials(window)
            for g in gens
            if any(not mask.contains(deg) for deg in act(
                g, LaurentVector.monomial(mask.nvars, gamma)).coeffs)]


def _seeded_ops(rng, widths):
    """Three monomial operators of degree at most 3 whose coefficients are
    products of a few (h_j - r); each is a ring member with odds 1/2."""
    n = len(widths)
    ops = []
    for _ in range(3):
        alpha = tuple(rng.randint(-3, 3) for _ in range(n))
        c = BasePoly.constant(n, rng.choice([1, -2, 3]))
        for _ in range(rng.randint(0, 3)):
            c = c * linear_factors([rng.randint(-5, 5)]).inject(
                n, rng.randrange(n))
        if rng.random() < 0.5:
            c = c * graded_divisor(widths, alpha)
        ops.append(LaurentOp.monomial(n, alpha, c))
    return ops


class TestSaturation:
    """stability_check walks to the bound of _saturation and refuses a window
    below it; the probes and blocks stop there.  Every window a sweep
    accepts gives the exact answer, that of a walk with a large reach."""

    @pytest.mark.parametrize("widths, large", [
        ((1,), 200), ((2,), 200), ((3,), 200), ((4,), 200),
        ((1, 1), 16), ((2, 3), 16), ((3, 2), 16)])
    def test_seeded_stability_saturates(self, widths, large):
        answers = set()
        for seed in range(40):
            gens = _seeded_ops(random.Random(seed), widths)
            least = 2 * max(abs(k) for g in gens for deg in g.components
                            for k in deg)
            for mask in (cusp_mask(widths), quotient_mask(widths)):
                bound = modactions._saturation(mask, gens)
                expected = not _failures(gens, mask, large)
                answers.add(expected)
                for window in range(least, max(least, bound) + 3):
                    if window < bound:
                        with pytest.raises(ValueError, match="sweep bound"):
                            stability_check(gens, mask, window)
                    else:
                        assert stability_check(gens, mask,
                                               window) == expected, (seed,
                                                                     window)
                assert stability_check(gens, mask, large) == expected, seed
        assert answers == {True, False}

    @pytest.mark.parametrize("mask, gen", [
        # A'(2) = (-inf, -1] u {1}: x^-3 -> x^0 is the only escape that
        # (h-3)(h-5) does not kill, at |gamma| = E + A - 1 = 1 + 3 - 1
        (quotient_mask(2), LaurentOp.monomial(
            1, (3,), linear_factors([3, 5]))),
        # A(3) = {0} u [3, inf): x^4 -> x^2 at |gamma| = 3 + 2 - 1
        (cusp_mask(3), LaurentOp.monomial(1, (-2,), linear_factors([-1, 2])))],
        ids=["quotient", "cusp"])
    def test_rank_one_failure_on_the_ray_at_the_bound(self, mask, gen):
        bound = modactions._saturation(mask, [gen])
        failures = _failures([gen], mask, 60)
        assert [max(map(abs, g)) for g in failures] == [bound]
        for window in range(6, 61):
            assert not stability_check([gen], mask, window)

    def test_rank_two_far_coordinate_needs_all_d_plus_one_points(
            self, full_walk):
        # A'(1, 1) = (-inf, -1]^2.  x1 moves x1^-1 out, with coefficient
        # c(0, t + 1), which vanishes at the D = 3 ray points t = -1..-3; the
        # first failure is at t = -4 = -(E + D)
        mask = quotient_mask((1, 1))
        gen = LaurentOp.monomial(
            2, (1, 0), linear_factors([0, -1, -2]).inject(2, 1))
        bound = modactions._saturation(mask, [gen])
        assert bound == 4
        failures = _failures([gen], mask, 30)
        assert min(max(map(abs, g)) for g in failures) == bound
        assert (-1, -bound) in failures
        for window in range(2, 31):
            if window < bound:
                # the window cannot hold the failure, so it is refused
                with pytest.raises(ValueError, match="sweep bound 4"):
                    stability_check([gen], mask, window)
            else:
                assert not stability_check([gen], mask, window)
        # a walk that stops one short of the bound misses it
        assert full_walk(bound - 1, stability_check, [gen], mask, bound - 1)

    def test_degree_zero_components_leave_the_bound_alone(self):
        # h2^3000 keeps every x^gamma in place; x1 alone sets the bound
        mask = cusp_mask((2, 3))
        x1 = LaurentOp.monomial(2, (1, 0), BasePoly.constant(2, 1))
        still = LaurentOp.monomial(2, (0, 0), BasePoly.variable(2, 1) ** 3000)
        assert (modactions._saturation(mask, [x1 + still])
                == modactions._saturation(mask, [x1]) == 3)
        assert stability_check([still], mask, 3)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_windows_below_twice_the_degree_answer_exactly(self, m):
        # the walk runs to the bound whatever the window, so a window in
        # [B, 2 * maxdeg), which an older guard refused, answers as 200 does
        checked = 0
        for seed in range(40):
            gens = _seeded_ops(random.Random(seed), (m,)) + generating_set(m)
            maxdeg = max(abs(k) for g in gens for deg in g.components
                         for k in deg)
            for mask in (cusp_mask(m), quotient_mask(m)):
                bound = modactions._saturation(mask, gens)
                expected = stability_check(gens, mask, 200)
                for window in range(bound, 2 * maxdeg):
                    assert stability_check(gens, mask, window) == expected, (
                        seed, window)
                    checked += 1
        assert checked

    @pytest.mark.parametrize("m", range(1, 9))
    def test_probes_and_blocks_saturate(self, m):
        # an oracle that acts on every monomial of [-200, 200]
        reach = 200
        up, down = delta_op(m, (1,)), delta_op(m, (-1,))
        cusp = cusp_mask(m)

        def moves(op, k, quotient):
            return any(not (quotient and cusp.contains(deg))
                       for deg in act(op, mono(k)).coeffs)

        def exponents(module):
            return [k for k in range(-reach, reach + 1) if k in module]

        blocks = []
        for mask, quotient in ((cusp, False), (quotient_mask(m), True)):
            runs = []
            for k in exponents(mask.factors[0]):
                if runs and k == runs[-1][-1] + 1 and (
                        moves(up, k - 1, quotient) or moves(down, k, quotient)):
                    runs[-1].append(k)
                else:
                    runs.append([k])
            blocks.append([ExponentSet(le=r[-1]) if r[0] == -reach else
                           ExponentSet(ge=r[0]) if r[-1] == reach else
                           ExponentSet(points=r) for r in runs])
        assert restriction_blocks(m) == tuple(blocks)

        for module, quotient, gaps, wide in (
                ("A", False, [(0, m)], m),
                ("Aprime", True, [(-1, 1)] if m > 1 else [], 2)):
            exps = set(exponents((quotient_mask(m) if quotient else cusp
                                  ).factors[0]))
            linked = all(moves(up, k, quotient) and moves(down, k + 1, quotient)
                         for k in exps if k + 1 in exps)
            for jump in (None, 1):
                j = wide if jump is None else jump
                exact = linked and all(
                    moves(delta_op(m, (j,)), lo, quotient)
                    and moves(delta_op(m, (-j,)), hi, quotient)
                    for lo, hi in gaps)
                for window in [*range(2 * m + 2, 61), 2000]:
                    assert simplicity_probe(module, m, window,
                                            jump) == exact, (module, window)


class TestVectors:
    def test_render(self):
        assert render_vector(mono(-1, -2) + mono(2, 3)) == "3*x^2 - 2*x^-1"
        assert render_vector(LaurentVector(1)) == "0"
        # a size-1 coefficient is dropped before a monomial, kept alone
        assert render_vector(mono(0, -1) - mono(2) + mono(1, Fraction(-1, 2))
                             ) == "-x^2 - 1/2*x - 1"

    @pytest.mark.parametrize("c", [0.1, 1.0, "1/2"])
    def test_coefficients_are_checked_as_basepoly_checks_them(self, c):
        # a float or a string is refused, not read as a nearby rational
        for build in (lambda: LaurentVector(1, {(0,): c}),
                      lambda: BasePoly(1, {(0,): c})):
            with pytest.raises(TypeError,
                               match="coefficient must be int or Fraction"):
                build()

    def test_integral_fraction_coefficients_are_stored_as_int(self):
        v = LaurentVector(2, {(1, -1): Fraction(6, 3), (0, 0): Fraction(0)})
        assert v.coeffs == {(1, -1): 2}
        assert type(v.coeffs[(1, -1)]) is int

    def test_algebra(self):
        v = mono(1) + mono(1)
        assert v == mono(1, 2)
        assert (v - v).is_zero()
