"""A reference kernel that measures how fast the interpreter runs right now.

On a shared machine the same Python work can take up to twice as long in
one phase as in another, and a phase lasts seconds.  Every timing metric is
therefore reported at a nominal speed.  Each measured time is multiplied by
NOMINAL_S / t_ref, where t_ref is the time of this kernel measured next to
the measurement.  The kernel does the kind of work the library does: sparse
polynomial products and shifts on dicts of exponent tuples, with int and
Fraction coefficients and small immutable objects.  It is a separate copy,
so it never imports cuspdiff, and a change to the library cannot change it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from statistics import median
from time import perf_counter

NOMINAL_S = 0.0025   # kernel time at the nominal speed
REFRESH_S = 0.1      # re-measure when the last measurement is older than this


class _Poly:
    __slots__ = ("terms",)

    def __init__(self, terms):
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c})


def _mul(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _Poly(out)


def _shift(p, k):
    out = {}
    for (e,), c in p.terms.items():
        for t in range(e + 1):
            out[(t,)] = out.get((t,), 0) + c * comb(e, t) * (-k) ** (e - t)
    return _Poly(out)


def kernel():
    p = _Poly({(e,): e * 7 + 3 for e in range(6)})
    q = _Poly({(e,): Fraction(e + 1, 3) for e in range(5)})
    for k in range(8):
        r = _mul(p, _shift(q, k))
        terms = sorted(r.terms.items(), key=lambda t: (sum(t[0]), t[0]))
    return terms


def kernel_time():
    """Fastest of three timed kernel runs; an interruption only adds time."""
    samples = []
    for _ in range(3):
        start = perf_counter()
        kernel()
        samples.append(perf_counter() - start)
    return min(samples)


class SpeedScale:
    """Factor that converts a measured time to the nominal speed.

    The factor uses the median of the last three kernel times, so one
    disturbed kernel run does not move it; a phase change shows within
    three refreshes.
    """

    def __init__(self):
        kernel()
        self.recent = []
        self.history = []
        self.refresh()

    def refresh(self):
        self.recent = self.recent[-2:] + [kernel_time()]
        self.factor = NOMINAL_S / median(self.recent)
        self.at = perf_counter()
        self.history.append(self.factor)
        return self.factor

    def current(self):
        if perf_counter() - self.at > REFRESH_S:
            self.refresh()
        return self.factor

    def nominal(self, elapsed, before):
        """elapsed at the nominal speed, given the factor taken before it.

        A measurement longer than the refresh interval is scaled by the mean
        of the factors taken before and after it.
        """
        if elapsed > REFRESH_S:
            return elapsed * (before + self.refresh()) / 2
        return elapsed * before
