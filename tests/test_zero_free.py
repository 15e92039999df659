"""Stored sums hold no zero: the cleaning rule of exactpoly.RingOps.

_trusted and _like wrap a dict unchecked, so arithmetic that can cancel
passes its dict through _clean first.  A seeded sweep at ranks 1 and 2 runs
the operations of the four ring element classes, the module actions and the
structure constants' right-hand sides, on random operands and on operands
built to cancel, and checks every stored dict: each coefficient is truthy,
no Fraction is integral, and a BasePoly coefficient's own dict passes too.
"""

import random
from fractions import Fraction

from cuspdiff.cuspops import delta_op, structure_constant
from cuspdiff.exactpoly import BasePoly
from cuspdiff.gwa import GwaPresentation, gwa_multiply
from cuspdiff.modactions import LaurentVector, act, act_on_quotient
from cuspdiff.skewlaurent import LaurentOp

SEED = 20


def _assert_zero_free(u):
    for key, c in u.components.items():
        assert c, (u, key)
        assert not (isinstance(c, Fraction) and c.denominator == 1), (u, key)
        if isinstance(c, BasePoly):
            _assert_zero_free(c)


def _scalar(rng):
    # few values, so that random sums cancel often
    return rng.choice((-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)))


def _exps(rng, n, low):
    return tuple(rng.randint(low, 2) for _ in range(n))


def _poly(rng, n):
    return BasePoly(n, {_exps(rng, n, 0): _scalar(rng)
                        for _ in range(rng.randint(1, 3))})


def _graded(rng, n):
    return {_exps(rng, n, -2): _poly(rng, n) for _ in range(rng.randint(1, 3))}


def _vector(rng, n):
    return LaurentVector(n, {_exps(rng, n, -2): _scalar(rng)
                             for _ in range(rng.randint(1, 3))})


def _check_ring(u, v, c):
    # (u + 1)(u - 1): the cross terms u * -1 and 1 * u cancel
    for w in (u + v, u - v, -u, u * v, c * u, u - u, (u + 1) * (u - 1)):
        _assert_zero_free(w)


def _presentation(n):
    h = [BasePoly.variable(n, i) for i in range(n)]
    return GwaPresentation([hi * (hi - 2) for hi in h], [1] * n)


def test_every_stored_dict_is_zero_free():
    rng = random.Random(SEED)
    for n in (1, 2):
        pres = _presentation(n)
        for _ in range(25):
            c = _scalar(rng)
            _check_ring(_poly(rng, n), _poly(rng, n), c)
            u, v = (LaurentOp(n, _graded(rng, n)) for _ in range(2))
            _check_ring(u, v, c)
            g, k = (pres.element(_graded(rng, n)) for _ in range(2))
            _check_ring(g, k, c)
            _assert_zero_free(gwa_multiply(g, k))
            a, b = _vector(rng, n), _vector(rng, n)
            for w in (a + b, a - b, -a, c * a, 0 * a, a - a):
                _assert_zero_free(w)
            _assert_zero_free(act(u, a))


def test_module_actions_and_structure_constants_are_zero_free():
    rng = random.Random(SEED)
    for m in (2, 3):
        degrees = [i for i in range(-2 * m + 1, 2 * m) if i]
        for _ in range(10):
            u = sum((_scalar(rng) * delta_op(m, (i,))
                     for i in rng.sample(degrees, 3)), LaurentOp.zero(1))
            v = _vector(rng, 1)
            _assert_zero_free(act(u, v))
            _assert_zero_free(act_on_quotient(u, v, m))
        for i in degrees:
            for j in degrees:
                _assert_zero_free(structure_constant(m, i, j).rhs_op(m))


def test_cancelling_operands_leave_no_zero():
    # (x + 1)(x - 1): the degree 1 terms cancel in each ring
    h = BasePoly.variable(1, 0)
    x = LaurentOp.x(1, 0)
    X = _presentation(1).basis((1,))
    for y in (h, x, X):
        product = (y + 1) * (y - 1)
        _assert_zero_free(product)
        assert product == y * y - 1
    # x and 1 send 1 - x to x - x at degree 1; halves scale to integers
    v = LaurentVector(1, {(0,): 1, (1,): -1})
    assert act(x + 1, v) == LaurentVector(1, {(0,): 1, (2,): -1})
    halves = LaurentVector(1, {(0,): Fraction(1, 2), (1,): Fraction(3, 2)})
    for w in (act(2 * x + 2, halves), Fraction(2, 3) * halves, 2 * halves,
              halves + halves, act(LaurentOp.one(1), v) - v):
        _assert_zero_free(w)
