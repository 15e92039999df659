"""Weight module classification and normal element machinery at rank one.

Everything here lives over the base polynomial ring in one variable h.  The
shift automorphism acts on linear maximal ideals by moving roots up by one,
so each orbit is a coset of the integers (or of a rational translate).  An
ideal is marked when it contains the defining base element a; marked ideals
cut their orbit into intervals, and each interval carries one simple weight
module whose up and down transitions follow the defining relation y x = a.
Normal elements of nonpositive degree support the torsion-free side: they
are detected by the strict orbit order and repaired by the normalization
identity b -> beta b alpha^{-1}.

Roots come from exactpoly._splitting: an int for an integral root, a
Fraction otherwise.  A polynomial records them where it is built from them,
as the named algebras' a is, or once a search finds them, never through a
product or shift; so a presentation's a and the stored coefficients of an
element are split at most once however many tests read them.  normalize
shifts nothing: its results are built from roots it holds and record them,
so the normalized element is never searched.  Ideal roots, orbit
representatives and weights are stored the same way, an int when integral
and a Fraction otherwise.  One root list lies below another in the orbit
order when its least shift below the other is 0: per shared orbit, the top
root of the first lies below the bottom root of the second.  Each root list
is grouped by orbit once.
"""

from __future__ import annotations

from math import floor

from .exactpoly import (ArityMismatch, BasePoly, Value, _from_dense,
                        _norm_coef, _splitting, _times_linear, render_ideal,
                        render_number, render_poly)
from .gwa import GwaElement, _wrap
from .modactions import MODULES, ExponentSet, WeightSupport, support
from .cuspops import as_shape, embedding

INFINITE = float("inf")


class NonlinearFactor(ValueError):
    """A base polynomial has an irrational (non-linear) factor."""


class WrongShape(ValueError):
    """An element does not have the nonpositive-degree shape."""


class InvalidInterval(ValueError):
    """Interval anchors are misordered or outside the interval's orbit."""


class LinMaxIdeal(Value):
    """The maximal ideal (h - root) of the base ring, written in parentheses
    around exactpoly.render_ideal(root)."""

    __slots__ = _fields = ("root",)

    def __init__(self, root):
        super().__init__(_norm_coef(root, "root"))

    def __repr__(self):
        return "LinMaxIdeal(%s)" % render_number(self.root)

    def render(self) -> str:
        return "(%s)" % render_ideal(self.root)


class Orbit(Value):
    """Shift orbit of linear maximal ideals: roots sharing a fractional part."""

    __slots__ = _fields = ("rep",)

    def __init__(self, rep):
        rep = _norm_coef(rep, "root")
        super().__init__(rep - floor(rep))

    def contains_root(self, root) -> bool:
        """Whether an int or Fraction root lies in this orbit."""
        return (root - self.rep).denominator == 1

    def __repr__(self):
        return "Orbit(%s)" % render_number(self.rep)


def _split_roots(p: BasePoly, k: int = 0):
    """Rational roots of sigma^k(p) = p(h - k): p's recorded tuple, plus k.

    Raises NonlinearFactor, naming sigma^k(p) and its cofactor, when p does
    not split over Q.
    """
    roots, cofactor = _splitting(p)
    if cofactor.__class__ is BasePoly:  # a constant one is held as its value
        raise NonlinearFactor("%s has the non-linear factor %s"
                              % (render_poly(p.shift([k])),
                                 render_poly(cofactor.shift([k]))))
    return tuple([r + k for r in roots]) if k else roots


def marked_ideals(a: BasePoly):
    """Ideals containing a, grouped by orbit.

    Returns a list of (Orbit, [LinMaxIdeal...]) pairs; ideals appear once each
    in ascending root order, orbits in ascending representative order.
    """
    if a.nvars != 1:
        raise ArityMismatch("marked ideals live over the univariate base")
    roots = sorted(set(_split_roots(a)))
    grouped = {}
    for r in roots:
        orbit = Orbit(r)
        grouped.setdefault(orbit.rep, []).append(LinMaxIdeal(r))
    return [(Orbit(rep), ideals) for rep, ideals in sorted(grouped.items())]


class GammaInterval(Value):
    """One piece (lower, upper] of an orbit cut at marked ideals.

    lower and upper are marked ideals or None: a missing lower end is -inf
    and a missing upper end +inf, and the piece contains its upper end.
    kind names the shape the ends give: "full" (no end), "left_ray" (upper
    only), "right_ray" (lower only) or "half_open" (both).
    """

    __slots__ = _fields = ("orbit", "lower", "upper")

    def __init__(self, orbit, lower=None, upper=None):
        if (lower is not None and upper is not None
                and lower.root >= upper.root):
            raise InvalidInterval("anchors must satisfy lower < upper")
        for anchor in (lower, upper):
            if anchor is not None and not orbit.contains_root(anchor.root):
                raise InvalidInterval("anchor %s outside orbit %r"
                                      % (anchor.render(), orbit))
        super().__init__(orbit, lower, upper)

    @property
    def kind(self) -> str:
        if self.lower is None:
            return "full" if self.upper is None else "left_ray"
        return "right_ray" if self.upper is None else "half_open"

    def render(self) -> str:
        lower, upper = self.lower, self.upper
        if lower is None and upper is None:
            return ("the whole orbit of root %s mod 1"
                    % render_number(self.orbit.rep))
        return "(%s, %s" % ("-inf" if lower is None else lower.render(),
                            "+inf)" if upper is None else upper.render() + "]")

    def __repr__(self):
        return "GammaInterval(%s)" % self.render()

    def to_json(self) -> dict:
        ends = [end for end in (self.lower, self.upper) if end is not None]
        return {"kind": self.kind,
                "anchors": [render_number(end.root) for end in ends]}


def partition_orbit(a: BasePoly, orbit: Orbit):
    """Cut an orbit at the ideals marked by a.

    With marked roots p_1 < ... < p_s the pieces are
    (-inf, p_1], (p_1, p_2], ..., (p_{s-1}, p_s], (p_s, +inf); an unmarked
    orbit stays whole.
    """
    ends = [None, *(ideal for orb, ideals in marked_ideals(a) if orb == orbit
                    for ideal in ideals), None]
    return [GammaInterval(orbit, lo, hi) for lo, hi in zip(ends, ends[1:])]


class WeightModule(Value):
    """Weight-by-weight model of the simple module attached to an interval.

    Weights (a tuple) are roots in the interval reachable from its anchored
    end in multiples of step; infinite intervals are windowed, and the module
    is finite exactly when the interval has both ends.  The up transition
    lambda -> lambda + step has scalar 1 where both ends lie in the interval;
    the down transition lambda -> lambda - step has scalar a(lambda - step),
    so down(up(lambda)) = a(lambda) holds on the nose and boundary down maps
    vanish exactly because their scalar sits at a marked root.
    """

    __slots__ = _fields = ("a", "step", "interval", "weights")

    @property
    def finite(self) -> bool:
        return self.interval.lower is not None and self.interval.upper is not None

    @property
    def dimension(self):
        return len(self.weights) if self.finite else INFINITE

    def __repr__(self):
        return "WeightModule(%s, dim=%s)" % (self.interval.render(),
                                             self.dimension)


def build_weight_module(a: BasePoly, gamma: GammaInterval, step: int,
                        window: int = 10) -> WeightModule:
    """Weight module of an interval for the GWA with base a and shift step."""
    if a.nvars != 1:
        raise ArityMismatch("the base element must be univariate")
    step = int(step)
    if step < 1:
        raise ValueError("step must be a positive integer")
    if window < 1:
        raise ValueError("window must be positive")
    lower, upper = gamma.lower, gamma.upper
    if upper is not None:
        # walk down from upper: to lower, or for window steps on a left ray
        top = upper.root
        count = window if lower is None else -((lower.root - top) // step)
        weights = [top - k * step for k in range(count - 1, -1, -1)]
    elif lower is not None:
        bottom = lower.root + step
        weights = [bottom + k * step for k in range(window)]
    else:
        rep = gamma.orbit.rep
        weights = [rep + k * step for k in range(-window, window + 1)]
    return WeightModule(a, step, gamma, tuple(weights))


class ClassifiedModule(Value):
    """One entry of a classification list: interval, quotient data, support.

    annihilator is a tuple of generator texts.
    """

    __slots__ = _fields = ("tag", "interval", "annihilator", "module", "support")

    @property
    def dimension(self):
        return self.module.dimension if self.module is not None else INFINITE

    def __repr__(self):
        return "ClassifiedModule(%s, dim=%s)" % (self.tag, self.dimension)

    def to_json(self) -> dict:
        dim = self.dimension
        return {
            "tag": self.tag,
            "interval": self.interval.to_json() if self.interval else None,
            "annihilator": list(self.annihilator),
            "dimension": "infinite" if dim == INFINITE else dim,
            "support": self.support.to_json() if self.support else None,
        }


def classify_bbA(m: int):
    """Simple weight modules of the degree one GWA pair for width m >= 2.

    The base element h (h-1)(h-m), read from the cuspops table and so split
    once per process, marks the roots 0, 1, m of the integer orbit, so that
    orbit breaks into four intervals; every other orbit stays whole and
    contributes a one-parameter family.  Returns five entries: the two rays
    (infinite dimensional), the two half-open pieces of dimensions 1 and
    m-1, and the family descriptor.  No window enters an entry, which is
    read off its interval's ends (a ray keeps build_weight_module's default).
    """
    m = int(m)
    if m < 2:
        raise ValueError("classification needs width m >= 2")
    a = embedding(m, "bbA").presentation.a[0]
    gammas = partition_orbit(a, Orbit(0))
    tags = ["Gamma-", "Gamma1", "Gamma(m-1)", "Gamma+"]
    entries = []
    for tag, gamma in zip(tags, gammas):
        wm = build_weight_module(a, gamma, 1)
        ann, supp = _bbA_annihilator_and_support(wm)
        entries.append(ClassifiedModule(tag, gamma, ann, wm, supp))
    entries.append(ClassifiedModule(
        "family", None,
        ("h-r for any root r with 0 < r mod 1",), None, None))
    return entries


def _bbA_annihilator_and_support(wm: WeightModule):
    """Annihilator of the anchored weight vector, and the weight support.

    The anchored weight w0 is the top weight, or the bottom one of a right
    ray, and s = +1 steps from w0 out of the module (s = -1 for a right ray).
    The vector at w0 is killed by h - w0 and delta(s), and on a finite module
    of dimension k by delta(-s)^k, the least power of delta(-s) that walks
    past the far end.
    """
    s = -1 if wm.interval.kind == "right_ray" else 1
    w0 = wm.weights[0] if s == -1 else wm.weights[-1]
    ann = []
    if wm.finite:
        k = len(wm.weights)
        ann.append("delta(%d)" % -s + ("^%d" % k if k > 1 else ""))
    ann += [render_ideal(w0), "delta(%d)" % s]
    if wm.interval.kind == "left_ray":
        roots = ExponentSet(le=w0)
    elif wm.interval.kind == "right_ray":
        roots = ExponentSet(ge=w0)
    else:
        roots = ExponentSet(points=wm.weights)
    return tuple(ann), WeightSupport(roots)


class TorsionClassification(Value):
    """The simple modules with base torsion: two exceptional plus a family.

    exceptional is a tuple of (name, WeightSupport) pairs.
    """

    __slots__ = _fields = ("exceptional", "family_note")

    def to_json(self) -> dict:
        return {
            "exceptional": [{"name": name, "support": supp.to_json(),
                             "dimension": "infinite"}
                            for name, supp in self.exceptional],
            "family": self.family_note,
        }


def classify_DA_torsion(m: int) -> TorsionClassification:
    """Simple base-torsion modules of the operator ring at rank one.

    The monomial module and its quotient are the two exceptional entries; all
    other entries are quotients by maximal ideals outside the integer orbit,
    one per ideal.  Every entry is infinite dimensional.
    """
    shape = as_shape(m)
    return TorsionClassification(
        tuple((name, support(mask(shape)))
              for name, (mask, _) in MODULES.items()),
        "one simple module per maximal ideal of the base localization whose "
        "orbit misses the integer roots; all infinite dimensional")


# -- the orbit order and normal elements ----------------------------------

def _orbit_extremes(roots, pick) -> dict:
    """{orbit key r - floor(r): pick (min or max) of the roots in that orbit}."""
    out = {}
    for r in roots:
        key = r - floor(r)
        out[key] = pick(out[key], r) if key in out else r
    return out


def _least_shift(roots0, targets, step: int) -> int:
    """Least s >= 0 with r - s*step < t for every integer-comparable pair.

    r runs over roots0 and t over targets.  A pair with r >= t needs
    s*step > r - t, so s = floor((r - t)/step) + 1; the answer is the largest
    such bound, or 0 when no pair constrains s.  In each orbit the largest
    bound comes from the largest r and the least t.  Least shift 0, for any
    step, is the strict orbit order: roots0 lies below targets when every
    integer-comparable pair has r < t, and pairs in different orbits impose
    nothing.
    """
    least = _orbit_extremes(targets, min)
    return max(((r - least[key]) // step + 1
                for key, r in _orbit_extremes(roots0, max).items()
                if key in least and r >= least[key]), default=0)


def _nonpositive_coords(b: GwaElement):
    """(m', b.components) once b has the shape sum_{k=0}^{m'} v_{-k} beta_{-k},
    read off its degrees; the caller reads the coordinates by degree."""
    if b.presentation.nvars != 1:
        raise WrongShape("normal elements are rank one")
    if b.is_zero():
        raise WrongShape("the zero element has no normal form")
    if max(b.components) > (0,):
        raise WrongShape("positive-degree coordinates present")
    if (0,) not in b.components:
        raise WrongShape("the degree zero coordinate vanishes")
    return -min(b.components)[0], b.components


def _split_ends(b: GwaElement):
    """(m', left coords, roots of beta_0, roots of beta_{-m'}) of b.

    The right coefficient at v_{-k} is sigma^{k step} of the left one, so
    beta_0 is the stored left[(0,)], and the roots of beta_{-m'} are those
    of left[(-m',)] moved up by m' step; only the stored objects are split.
    """
    mprime, left = _nonpositive_coords(b)
    return (mprime, left, _split_roots(left[(0,)]),
            _split_roots(left[(-mprime,)], mprime * b.presentation.steps[0]))


def is_normal(b: GwaElement) -> bool:
    """Normality test for b = v_{-m'} beta_{-m'} + ... + beta_0.

    b is normal when beta_0 < beta_{-m'} and beta_0 < a in the strict orbit
    order (right coefficients): the least shift of the roots of beta_0 below
    each is 0, read off the splittings that b's stored ends and, only when
    beta_0 < beta_{-m'}, a record.  Raises WrongShape for positive degrees or
    a vanishing degree zero part, NonlinearFactor for a non-split coefficient.
    """
    _, _, roots0, rootsm = _split_ends(b)
    return (_least_shift(roots0, rootsm, 1) == 0 and
            _least_shift(roots0, _split_roots(b.presentation.a[0]), 1) == 0)


class NormalizationResult(Value):
    """Outcome of normalize: the shift count and the two multipliers."""

    __slots__ = _fields = ("s", "alpha", "beta", "normalized")

    def __repr__(self):
        return "NormalizationResult(s=%d)" % self.s


def _normalization_data(b: GwaElement):
    """(m', left coords, roots of beta_0 and beta_{-m'}, least shift) of b."""
    mprime, left, roots0, rootsm = _split_ends(b)
    pres = b.presentation
    return mprime, left, roots0, rootsm, _least_shift(
        roots0, rootsm + roots0 + _split_roots(pres.a[0]), pres.steps[0])


def normalization_shift(b: GwaElement) -> int:
    """The shift count s that normalize(b) uses, without building alpha or beta.

    Raises the same shape and splitting errors as is_normal.
    """
    return _normalization_data(b)[4]


def normalize(b: GwaElement) -> NormalizationResult:
    """Multiply b into normal position: beta * b * alpha^{-1}.

    s is the least shift count making sigma^{-s}(beta_0) strictly below
    beta_{-m'}, beta_0 and a in the orbit order.  With f_j = sigma^{-j}(beta_0),

      alpha = prod_{j=0}^{s} f_j,
      beta  = prod_{j=1}^{s+m'} f_j,

    and the coordinate c_k at v_{-k} becomes beta * c_k / sigma^{-k}(alpha),
    where sigma^{-k}(alpha) = prod_{j=k}^{s+k} f_j.  The quotient telescopes,
    so nothing is divided: c_0 = beta_0 = f_0 cancels and leaves
    prod_{j=s+1}^{s+m'} f_j, and for 1 <= k <= m' the interval [k, s+k] lies
    inside [1, s+m'], which leaves c_k * prod_{j=1}^{k-1} f_j *
    prod_{j=s+k+1}^{s+m'} f_j.  beta_0 is never shifted: f_j has the roots
    r - j*step and the lead of beta_0, so a product of f_j's grows as a dense
    integer list, by one primitive factor den*h - num at a time, with its
    lead and roots, and c_{m'} joins f_1 ... f_{m'-1} by its own roots and
    lead the same way; only the results become polynomials, the ends and
    multipliers record their roots, and the nonzero coordinates are wrapped
    unchecked.  b's are read as stored.  The result is normal.  Raises
    is_normal's errors.  The cost grows with s; normalization_shift gives s.
    """
    mprime, left, roots0, rootsm, s = _normalization_data(b)
    step, top = b.presentation.steps[0], s + mprime
    lead0, leadm = (left[(-k,)].components[max(left[(-k,)].components)]
                    for k in (0, mprime))

    def grow(part, js, roots=roots0, lead=lead0):
        for j in js:  # part: (dense list, lead, roots) of a product
            moved = [r - j * step for r in roots]
            part = (_times_linear(part[0], moved), part[1] * lead, part[2] + moved)
        return part

    # low[j] = f_1 ... f_j, kept for j < m' (the coordinates) and j = s, top
    low = {0: ([1], 1, [])}
    part = low[0]
    for j in range(1, top + 1):
        part = grow(part, (j,))
        if j < mprime or j in (s, top):
            low[j] = part
    coords = {(0,): _from_dense(*grow(low[0], range(s + 1, top + 1)))}
    for k in range(1, mprime):
        if (-k,) in left:
            coords[(-k,)] = left[(-k,)] * _from_dense(
                *grow(low[k - 1], range(s + k + 1, top + 1)))
    if mprime:  # c_{m'} has the roots of beta_{-m'} moved down m' steps
        coords[(-mprime,)] = _from_dense(
            *grow(low[mprime - 1], (mprime,), rootsm, leadm))
    normalized = _wrap(b.presentation, coords)  # nonzero products, by degree
    if not is_normal(normalized):
        raise RuntimeError("normalization produced a non-normal element")
    return NormalizationResult(s, _from_dense(*grow(low[s], (0,))),
                               _from_dense(*low[top]), normalized)
