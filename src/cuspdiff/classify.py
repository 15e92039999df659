"""Weight module classification and normal element machinery at rank one.

Everything here lives over the base polynomial ring in one variable h.  The
shift automorphism acts on linear maximal ideals by moving roots up by one,
so each orbit is a coset of the integers (or of a rational translate).  An
ideal is marked when it contains the defining base element a; marked ideals
cut their orbit into intervals, and each interval carries one simple weight
module whose up and down transitions follow the defining relation y x = a.
Normal elements of nonpositive degree support the torsion-free side: they
are detected by a strict root ordering and repaired by the normalization
identity b -> beta b alpha^{-1}.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

from .exactpoly import ArityMismatch, BasePoly, rational_roots, render_poly
from .gwa import GwaElement, GwaPresentation
from .modactions import ExponentSet, WeightSupport, cusp_mask, quotient_mask, support
from .cuspops import as_shape

INFINITE = float("inf")


class NonlinearFactor(ValueError):
    """A base polynomial has an irrational (non-linear) factor."""


class WrongShape(ValueError):
    """An element does not have the nonpositive-degree shape."""


class InvalidInterval(ValueError):
    """Interval anchors are missing, misordered or in different orbits."""


class LinMaxIdeal:
    """The maximal ideal (h - root) of the base ring."""

    __slots__ = ("root",)

    def __init__(self, root):
        object.__setattr__(self, "root", Fraction(root))

    def __setattr__(self, name, value):
        raise AttributeError("LinMaxIdeal is immutable")

    def __eq__(self, other):
        if not isinstance(other, LinMaxIdeal):
            return NotImplemented
        return self.root == other.root

    def __hash__(self):
        return hash(("LinMaxIdeal", self.root))

    def __repr__(self):
        return "LinMaxIdeal(%s)" % self.root

    def render(self) -> str:
        r = self.root
        if r == 0:
            return "(h)"
        if r > 0:
            return "(h-%s)" % r
        return "(h+%s)" % (-r)


class Orbit:
    """Shift orbit of linear maximal ideals: roots sharing a fractional part."""

    __slots__ = ("rep",)

    def __init__(self, rep):
        rep = Fraction(rep)
        object.__setattr__(self, "rep", rep - floor(rep))

    def __setattr__(self, name, value):
        raise AttributeError("Orbit is immutable")

    def contains_root(self, root) -> bool:
        return (Fraction(root) - self.rep).denominator == 1

    def __eq__(self, other):
        if not isinstance(other, Orbit):
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        return hash(("Orbit", self.rep))

    def __repr__(self):
        return "Orbit(%s)" % self.rep


def _split_roots(p: BasePoly):
    """Rational roots of p; NonlinearFactor when p does not split over Q."""
    roots, cofactor = rational_roots(p)
    if not cofactor.is_constant():
        raise NonlinearFactor("%s has the non-linear factor %s"
                              % (render_poly(p), render_poly(cofactor)))
    return roots


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


class GammaInterval:
    """One piece of an orbit cut at marked ideals.

    kind is one of "full", "left_ray", "half_open", "right_ray"; rays and
    half-open pieces are anchored at marked ideals, with the half-open piece
    (lower, upper] containing its upper anchor.
    """

    __slots__ = ("kind", "orbit", "lower", "upper")

    def __init__(self, kind, orbit, lower=None, upper=None):
        if kind not in ("full", "left_ray", "half_open", "right_ray"):
            raise InvalidInterval("unknown interval kind %r" % kind)
        if kind == "full":
            if lower is not None or upper is not None:
                raise InvalidInterval("a full orbit has no anchors")
        elif kind == "left_ray":
            if upper is None or lower is not None:
                raise InvalidInterval("a left ray needs exactly an upper anchor")
        elif kind == "right_ray":
            if lower is None or upper is not None:
                raise InvalidInterval("a right ray needs exactly a lower anchor")
        else:
            if lower is None or upper is None:
                raise InvalidInterval("a half-open interval needs both anchors")
            if lower.root >= upper.root:
                raise InvalidInterval("anchors must satisfy lower < upper")
        for anchor in (lower, upper):
            if anchor is not None and not orbit.contains_root(anchor.root):
                raise InvalidInterval("anchor %s outside orbit %r"
                                      % (anchor.render(), orbit))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "orbit", orbit)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def __setattr__(self, name, value):
        raise AttributeError("GammaInterval is immutable")

    def __eq__(self, other):
        if not isinstance(other, GammaInterval):
            return NotImplemented
        return (self.kind == other.kind and self.orbit == other.orbit
                and self.lower == other.lower and self.upper == other.upper)

    def __hash__(self):
        return hash((self.kind, self.orbit, self.lower, self.upper))

    def render(self) -> str:
        if self.kind == "full":
            return "the whole orbit of root %s mod 1" % self.orbit.rep
        if self.kind == "left_ray":
            return "(-inf, %s]" % self.upper.render()
        if self.kind == "right_ray":
            return "(%s, +inf)" % self.lower.render()
        return "(%s, %s]" % (self.lower.render(), self.upper.render())

    def __repr__(self):
        return "GammaInterval(%s)" % self.render()

    def to_json(self) -> dict:
        anchors = []
        if self.lower is not None:
            anchors.append(str(self.lower.root))
        if self.upper is not None:
            anchors.append(str(self.upper.root))
        return {"kind": self.kind, "anchors": anchors}


def partition_orbit(a: BasePoly, orbit: Orbit):
    """Cut an orbit at the ideals marked by a.

    With marked roots p_1 < ... < p_s the pieces are
    (-inf, p_1], (p_1, p_2], ..., (p_{s-1}, p_s], (p_s, +inf); an unmarked
    orbit stays whole.
    """
    marks = [ideal for orb, ideals in marked_ideals(a) if orb == orbit
             for ideal in ideals]
    if not marks:
        return [GammaInterval("full", orbit)]
    out = [GammaInterval("left_ray", orbit, upper=marks[0])]
    for lo, hi in zip(marks, marks[1:]):
        out.append(GammaInterval("half_open", orbit, lower=lo, upper=hi))
    out.append(GammaInterval("right_ray", orbit, lower=marks[-1]))
    return out


class WeightModule:
    """Weight-by-weight model of the simple module attached to an interval.

    Weights are roots in the interval reachable from its anchored end in
    multiples of step; infinite intervals are windowed.  The up transition
    lambda -> lambda + step has scalar 1 where both ends lie in the interval;
    the down transition lambda -> lambda - step has scalar a(lambda - step),
    so down(up(lambda)) = a(lambda) holds on the nose and boundary down maps
    vanish exactly because their scalar sits at a marked root.
    """

    __slots__ = ("a", "step", "interval", "weights", "finite")

    def __init__(self, a, step, interval, weights, finite):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "step", int(step))
        object.__setattr__(self, "interval", interval)
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in weights))
        object.__setattr__(self, "finite", bool(finite))

    def __setattr__(self, name, value):
        raise AttributeError("WeightModule is immutable")

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
    if gamma.kind == "half_open":
        weights = []
        w = gamma.upper.root
        while w > gamma.lower.root:
            weights.append(w)
            w -= step
        weights.reverse()
        return WeightModule(a, step, gamma, weights, True)
    if gamma.kind == "left_ray":
        top = gamma.upper.root
        weights = [top - k * step for k in range(window - 1, -1, -1)]
        return WeightModule(a, step, gamma, weights, False)
    if gamma.kind == "right_ray":
        bottom = gamma.lower.root + step
        weights = [bottom + k * step for k in range(window)]
        return WeightModule(a, step, gamma, weights, False)
    rep = gamma.orbit.rep
    weights = [rep + k * step for k in range(-window, window + 1)]
    return WeightModule(a, step, gamma, weights, False)


class ClassifiedModule:
    """One entry of a classification list: interval, quotient data, support."""

    __slots__ = ("tag", "interval", "annihilator", "module", "support")

    def __init__(self, tag, interval, annihilator, module, supp):
        self.tag = tag
        self.interval = interval
        self.annihilator = annihilator
        self.module = module
        self.support = supp

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
            "annihilator": self.annihilator,
            "dimension": "infinite" if dim == INFINITE else dim,
            "support": self.support.to_json() if self.support else None,
        }


def classify_bbA(m: int, window: int = 10):
    """Simple weight modules of the degree one GWA pair for width m >= 2.

    The base element h (h-1)(h-m) marks the roots 0, 1, m of the integer
    orbit, so that orbit breaks into four intervals; every other orbit stays
    whole and contributes a one-parameter family.  Returns five entries: the
    two rays (infinite dimensional), the two half-open pieces of dimensions 1
    and m-1, and the family descriptor.
    """
    m = int(m)
    if m < 2:
        raise ValueError("classification needs width m >= 2")
    h = BasePoly.variable(1, 0)
    a = h * (h - 1) * (h - m)
    gammas = partition_orbit(a, Orbit(0))
    tags = ["Gamma-", "Gamma1", "Gamma(m-1)", "Gamma+"]
    entries = []
    for tag, gamma in zip(tags, gammas):
        wm = build_weight_module(a, gamma, 1, window)
        ann, supp = _bbA_annihilator_and_support(wm)
        entries.append(ClassifiedModule(tag, gamma, ann, wm, supp))
    entries.append(ClassifiedModule(
        "family", None,
        ["h-r for any root r with 0 < r mod 1"], None, None))
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
    ann += [render_poly(BasePoly.variable(1, 0) - w0), "delta(%d)" % s]
    if wm.interval.kind == "left_ray":
        roots = ExponentSet(le=w0)
    elif wm.interval.kind == "right_ray":
        roots = ExponentSet(ge=w0)
    else:
        roots = ExponentSet(points=wm.weights)
    return ann, WeightSupport(roots)


class TorsionClassification:
    """The simple modules with base torsion: two exceptional plus a family."""

    __slots__ = ("exceptional", "family_note")

    def __init__(self, exceptional, family_note):
        self.exceptional = list(exceptional)
        self.family_note = family_note

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
        [("A", support(cusp_mask(shape))),
         ("Aprime", support(quotient_mask(shape)))],
        "one simple module per maximal ideal of the base localization whose "
        "orbit misses the integer roots; all infinite dimensional")


# -- the orbit order and normal elements ----------------------------------

def _roots_less(aroots, broots) -> bool:
    """Strict orbit order on root lists.

    True when every root of aroots lies strictly below every root of broots
    that it is integer-comparable with; pairs in different orbits impose
    nothing, so the comparison is vacuously true when no comparable pairs
    exist.
    """
    for r in aroots:
        for s in broots:
            if (r - s).denominator == 1 and not r < s:
                return False
    return True


def _nonpositive_coords(b: GwaElement):
    """Validate the shape sum_{k=0}^{m'} v_{-k} beta_{-k} and return (m', left coords)."""
    pres = b.presentation
    if pres.nvars != 1:
        raise WrongShape("normal elements are rank one")
    if b.is_zero():
        raise WrongShape("the zero element has no normal form")
    degrees = [alpha[0] for alpha in b.components]
    if any(k > 0 for k in degrees):
        raise WrongShape("positive-degree coordinates present")
    if 0 not in degrees:
        raise WrongShape("the degree zero coordinate vanishes")
    mprime = -min(degrees)
    return mprime, {k: b.graded_component((-k,)) for k in range(mprime + 1)}


def _right_coeff(pres: GwaPresentation, k: int, left: BasePoly) -> BasePoly:
    """Right coefficient at v_{-k}: conjugate the left one by sigma^k."""
    return left.shift([k * pres.steps[0]])


def _split_ends(b: GwaElement):
    """(m', left coords, right beta_0, roots of beta_0, roots of beta_{-m'}) of b."""
    mprime, left = _nonpositive_coords(b)
    pres = b.presentation
    beta0 = _right_coeff(pres, 0, left[0])
    betam = _right_coeff(pres, mprime, left[mprime])
    return mprime, left, beta0, _split_roots(beta0), _split_roots(betam)


def is_normal(b: GwaElement) -> bool:
    """Normality test for b = v_{-m'} beta_{-m'} + ... + beta_0.

    b is normal when beta_0 < beta_{-m'} and beta_0 < a in the strict orbit
    order (right coefficients).  Raises WrongShape for elements with positive
    degrees or vanishing degree zero part, NonlinearFactor when a coefficient
    does not split over Q.  a is split only when beta_0 < beta_{-m'} holds.
    """
    _, _, _, roots0, rootsm = _split_ends(b)
    return (_roots_less(roots0, rootsm)
            and _roots_less(roots0, _split_roots(b.presentation.a[0])))


class NormalizationResult:
    """Outcome of normalize: the shift count and the two multipliers."""

    __slots__ = ("s", "alpha", "beta", "normalized")

    def __init__(self, s, alpha, beta, normalized):
        self.s = s
        self.alpha = alpha
        self.beta = beta
        self.normalized = normalized

    def __repr__(self):
        return "NormalizationResult(s=%d)" % self.s


def _least_shift(roots0, targets, step: int) -> int:
    """Least s >= 0 with r - s*step < t for every integer-comparable pair.

    r runs over roots0 and t over targets.  A pair with r >= t needs
    s*step > r - t, so s = floor((r - t)/step) + 1; the answer is the largest
    such bound, or 0 when no pair constrains s.
    """
    s = 0
    for r in roots0:
        for t in targets:
            d = r - t
            if d.denominator == 1 and d >= 0:
                s = max(s, d.numerator // step + 1)
    return s


def _normalization_data(b: GwaElement):
    """(m', left coords, right beta_0, least shift count) of b."""
    mprime, left, beta0, roots0, rootsm = _split_ends(b)
    pres = b.presentation
    rootsa = _split_roots(pres.a[0])
    s = _least_shift(roots0, rootsm + roots0 + rootsa, pres.steps[0])
    return mprime, left, beta0, s


def normalization_shift(b: GwaElement) -> int:
    """The shift count s that normalize(b) uses, without building alpha or beta.

    Raises the same shape and splitting errors as is_normal.
    """
    return _normalization_data(b)[3]


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
    prod_{j=s+k+1}^{s+m'} f_j.  Both products are read off running prefix
    and suffix products of the f_j.  The result is normal.  Raises the same
    shape and splitting errors as is_normal.  The cost grows with s;
    normalization_shift(b) gives s first.
    """
    mprime, left, beta0, s = _normalization_data(b)
    pres = b.presentation
    step = pres.steps[0]
    top = s + mprime
    f = [beta0] + [beta0.shift([-j * step]) for j in range(1, top + 1)]
    one = BasePoly.one(1)
    # low[j] = f_1 ... f_j and high[j] = f_j ... f_top; only high[s+1 ..] is read
    low = [one]
    for j in range(1, top + 1):
        low.append(low[-1] * f[j])
    high = {top + 1: one}
    for j in range(top, s, -1):
        high[j] = f[j] * high[j + 1]
    coords = {(0,): high[s + 1]}
    for k in range(1, mprime + 1):
        if not left[k].is_zero():
            coords[(-k,)] = left[k] * low[k - 1] * high[s + k + 1]
    normalized = GwaElement(pres, coords)
    if not is_normal(normalized):
        raise RuntimeError("normalization produced a non-normal element")
    return NormalizationResult(s, beta0 * low[s], low[top], normalized)

