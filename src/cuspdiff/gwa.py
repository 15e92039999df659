"""Generalized Weyl algebras over shift polynomial rings, with exact products.

A rank n presentation consists of base elements a_1..a_n (a_i a polynomial in
h_i alone) and positive shift steps s_1..s_n.  The algebra is generated over
the base by X_i, Y_i subject to

    X_i d = sigma_i(d) X_i,   Y_i d = sigma_i^{-1}(d) Y_i,
    Y_i X_i = a_i,            X_i Y_i = sigma_i(a_i),

where sigma_i sends h_i to h_i - s_i and fixes the other variables, and
generators of distinct factors commute.  Elements are stored on the basis
v_alpha = prod_i v_{alpha_i}(i) with v_k(i) = X_i^k for k >= 0 and
Y_i^{-k} for k < 0, with base coefficients written on the left.
GwaElement shares its sums, equality and text form with
skewlaurent.LaurentOp through their common base, and keeps its own product,
gwa_multiply.  The relations above are listed once, in _relations, and
checked both by verify_presentation on GWA elements and by Embedding on the
generator images in the Laurent ring.  Embedding multiplies its monomial
images with skewlaurent.monomial_product, never as Laurent products.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product
from operator import add

from .exactpoly import (ArityMismatch, BasePoly, Frozen, NotDivisible, Value,
                        _clean, exact_divide, render_poly)
from .skewlaurent import (Graded, LaurentOp, monomial_power,
                          monomial_product, unit)


class PresentationMismatch(ValueError):
    """Elements of different presentations cannot be combined."""


class ImagesViolateRelations(ValueError):
    """Proposed generator images fail the defining relations."""


class NotInImage(ArithmeticError):
    """A Laurent operator is not in the image of the embedding."""


class GwaPresentation(Value):
    """Defining data: one base polynomial and one shift step per factor."""

    __slots__ = ("nvars", "a", "steps", "_pair_cache", "_shift_cache")
    _fields = ("a", "steps")  # the caches follow from these

    def __init__(self, a, steps):
        a = list(a)
        steps = [int(s) for s in steps]
        if len(a) != len(steps) or not a:
            raise ValueError("need one base polynomial and one step per factor")
        nvars = len(a)
        stored = []
        for i, poly in enumerate(a):
            if not isinstance(poly, BasePoly):
                raise TypeError("base elements must be BasePoly")
            if poly.nvars == 1 and nvars > 1:
                poly = poly.inject(nvars, i)
            if poly.nvars != nvars:
                raise ArityMismatch("base element %d has arity %d, expected %d"
                                    % (i, poly.nvars, nvars))
            if poly.is_zero():
                raise ValueError("base element %d is zero" % i)
            for exp in poly.terms:
                if any(e and j != i for j, e in enumerate(exp)):
                    raise ValueError(
                        "base element %d must involve only h%d" % (i, i + 1))
            stored.append(poly)
        for i, s in enumerate(steps):
            if s < 1:
                raise ValueError("step %d must be a positive integer" % i)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "a", tuple(stored))
        object.__setattr__(self, "steps", tuple(steps))
        object.__setattr__(self, "_pair_cache", {})
        object.__setattr__(self, "_shift_cache", {})

    def __repr__(self):
        return "GwaPresentation(a=[%s], steps=%s)" % (
            ", ".join(render_poly(p) for p in self.a), list(self.steps))

    def sigma_power(self, d: BasePoly, alpha) -> BasePoly:
        """Apply prod_i sigma_i^{alpha_i} to a base polynomial."""
        key = tuple(map(int, alpha))
        return d.shift([k * s for k, s in zip(key, self.steps)])

    def sigma_of_a(self, i: int, t: int) -> BasePoly:
        """sigma_i^t(a_i), cached."""
        key = (i, t)
        if key not in self._shift_cache:
            self._shift_cache[key] = self.a[i].shift(
                unit(self.nvars, i, t * self.steps[i]))
        return self._shift_cache[key]

    def pair_coefficient(self, i: int, n: int, m: int) -> BasePoly:
        """The base coefficient (n, m) with v_n(i) v_m(i) = (n, m) v_{n+m}(i):
        the product of sigma_i^t(a_i) over t in pair_interval(n, m), cached.
        A missing key grows from its neighbour one step toward m = 0 by the
        one t that its interval adds (none once min(|n|, |m|) saturates), in
        a loop that walks to the nearest cached key or empty interval first.
        """
        out = self._pair_cache.get((i, n, m))
        if out is not None:
            return out
        cache, step, end = self._pair_cache, -1 if m > 0 else 1, m
        while (i, n, m) not in cache and pair_interval(n, m):
            m += step
        out = cache.get((i, n, m)) or BasePoly.one(self.nvars)
        for m in range(m - step, end - step, -step):
            for t in {*pair_interval(n, m)} - {*pair_interval(n, m + step)}:
                out = out * self.sigma_of_a(i, t)
            cache[i, n, m] = out
        return out

    # -- element constructors --------------------------------------------

    def element(self, coords) -> "GwaElement":
        return GwaElement(self, coords)

    def basis(self, alpha) -> "GwaElement":
        return GwaElement(self, {tuple(alpha): BasePoly.one(self.nvars)})

    def from_base(self, d: BasePoly) -> "GwaElement":
        return GwaElement(self, {(0,) * self.nvars: d})


def pair_interval(n: int, m: int) -> range:
    """The t with sigma^t(a) a factor of the pair coefficient (n, m).

    Same signs or a zero degree give no factor.  For n > 0 > m the t run
    down from n, min(n, -m) of them; for n < 0 < m they run up from n + 1,
    min(-n, m) of them.
    """
    if n > 0 > m:
        return range(n - min(n, -m) + 1, n + 1)
    if n < 0 < m:
        return range(n + 1, n + min(-n, m) + 1)
    return range(0)


class GwaElement(Graded):
    """Element sum_alpha c_alpha v_alpha with left base coefficients.

    components (also named coords) maps coordinate vectors alpha to the
    nonzero base coefficients c_alpha.
    """

    __slots__ = ("presentation",)

    def __init__(self, presentation: GwaPresentation, coords=None):
        object.__setattr__(self, "presentation", presentation)
        super().__init__(presentation.nvars, coords)

    def _like(self, components: dict) -> "GwaElement":
        return _wrap(self.presentation, components)

    @property
    def coords(self) -> dict:
        return self.components

    def _coerce(self, other):
        if isinstance(other, GwaElement):
            if (other.presentation is not self.presentation
                    and other.presentation != self.presentation):
                raise PresentationMismatch("elements of different presentations")
            return other
        if isinstance(other, BasePoly):
            return self.presentation.from_base(other)
        if isinstance(other, (int, Fraction)):
            return self.presentation.from_base(BasePoly.constant(self.nvars, other))
        return NotImplemented

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return gwa_multiply(self, other)

    @staticmethod
    def _letter(e: int):
        return ("X", e) if e > 0 else ("Y", -e)


_set_presentation = GwaElement.presentation.__set__


def _wrap(pres: GwaPresentation, components: dict) -> GwaElement:
    """A GwaElement of pres holding components, as _trusted wraps them."""
    u = GwaElement._trusted(pres.nvars, components)
    _set_presentation(u, pres)
    return u


def gwa_multiply(u: GwaElement, v: GwaElement) -> GwaElement:
    """Product via the closed-form pair coefficients, factor by factor."""
    if u.presentation is not v.presentation and u.presentation != v.presentation:
        raise PresentationMismatch("elements of different presentations")
    pres = u.presentation
    pair = pres.pair_coefficient
    factors = range(pres.nvars)
    coords = {}
    for alpha, c in u.components.items():
        shift_vec = [k * s for k, s in zip(alpha, pres.steps)]
        for beta, d in v.components.items():
            poly = c * d.shift(shift_vec)
            # same signs or a zero degree give the pair coefficient 1
            for i in factors:
                n, m = alpha[i], beta[i]
                if (n > 0 > m) or (n < 0 < m):
                    poly = poly * pair(i, n, m)
            gamma = tuple(map(add, alpha, beta))
            prev = coords.get(gamma)
            coords[gamma] = poly if prev is None else prev + poly
    return u._like(_clean(coords))


def render_gwa(u: GwaElement) -> str:
    """Text form on the v-basis using X/Y names (X1, Y1, ... for rank > 1)."""
    return u._render()


def _relations(pres: GwaPresentation, xs, ys, lift, samples):
    """Yield (name, lhs, rhs) for each defining relation of pres.

    xs and ys are the images of X_i and Y_i in some ring, and lift maps a
    base polynomial into it.  Per factor i: Y_i X_i = a_i, X_i Y_i =
    sigma_i(a_i), and X_i d = sigma_i(d) X_i, Y_i d = sigma_i^{-1}(d) Y_i for
    each base sample d; then u v = v u for u in (X_i, Y_i) and v in (X_j,
    Y_j), j > i.
    """
    n = pres.nvars
    for i in range(n):
        X, Y = xs[i], ys[i]
        yield "yx=a[%d]" % i, Y * X, lift(pres.a[i])
        yield "xy=sigma(a)[%d]" % i, X * Y, lift(pres.sigma_of_a(i, 1))
        for k, d in enumerate(samples):
            yield ("x-shift[%d,%d]" % (i, k), X * lift(d),
                   lift(pres.sigma_power(d, unit(n, i))) * X)
            yield ("y-shift[%d,%d]" % (i, k), Y * lift(d),
                   lift(pres.sigma_power(d, unit(n, i, -1))) * Y)
        for j in range(i + 1, n):
            for u in (X, Y):
                for v in (xs[j], ys[j]):
                    yield "commute[%d,%d]" % (i, j), u * v, v * u


def verify_presentation(pres: GwaPresentation, depth: int = 3,
                        extra_base=()) -> "GwaReport":
    """Check defining relations and associativity up to a coordinate bound.

    Runs the relations _relations lists, on GWA elements: Y_i X_i = a_i,
    X_i Y_i = sigma_i(a_i), the commutation rules X_i d = sigma_i(d) X_i and
    Y_i d = sigma_i^{-1}(d) Y_i on the base samples 1, h_1..h_n, a_1..a_n and
    extra_base, and cross-factor commutation.  Then it checks associativity
    of v_alpha v_beta v_gamma for all coordinate vectors bounded by depth:
    every coordinate in [-depth, depth] and, at rank > 1, |alpha|_1 <= depth.

    Associativity is checked one factor at a time.  Each a_i and sigma_i
    involves h_i alone, so both sides of (v_a v_b) v_c = v_a (v_b v_c) are
    products over i of the two sides of the one-factor triple
    (a_i e_i, b_i e_i, c_i e_i), and that triple lies inside the sweep.  Each
    factor sweep runs over the N1 = 2 depth + 1 vectors k e_i at full rank,
    builds each basis element and each pairwise product once, and multiplies
    out both sides of every triple with gwa_multiply: n (N1^2 + 2 N1^3)
    products in all.  When every factor passes, so does the whole sweep.
    Otherwise the whole sweep is walked in (alpha, beta, gamma) order, only
    the triples with a failing factor triple are multiplied out again, and the
    first real mismatch is named as the witness, the same one a sweep over
    every triple names.  depth must be a positive integer (ValueError), so the
    sweep is never empty.
    """
    if not isinstance(depth, int) or depth < 1:
        raise ValueError("depth must be a positive integer, got %r" % (depth,))
    checks = []
    n = pres.nvars
    samples = [BasePoly.one(n), *(BasePoly.variable(n, i) for i in range(n)),
               *pres.a, *extra_base]
    xs = [pres.basis(unit(n, i)) for i in range(n)]
    ys = [pres.basis(unit(n, i, -1)) for i in range(n)]
    for name, lhs, rhs in _relations(pres, xs, ys, pres.from_base, samples):
        ok = lhs == rhs
        checks.append(GwaCheck(name, ok, "" if ok else render_gwa(lhs)))

    factor_failures = [_factor_failures(pres, i, depth) for i in range(n)]
    bad = None
    if any(factor_failures):
        # bound the coordinate sum for higher rank to keep the sweep small
        vecs = [(v, pres.basis(v))
                for v in product(range(-depth, depth + 1), repeat=n)
                if sum(map(abs, v)) <= depth]
        bad = next(((a, b, c) for a, va in vecs for b, vb in vecs
                    for c, vc in vecs
                    if any(t in failures for t, failures
                           in zip(zip(a, b, c), factor_failures))
                    and gwa_multiply(gwa_multiply(va, vb), vc)
                    != gwa_multiply(va, gwa_multiply(vb, vc))), None)
    checks.append(GwaCheck("associativity(depth=%d)" % depth, bad is None,
                           "" if bad is None else "failed at %r" % (bad,)))
    return GwaReport(tuple(checks))


def _factor_failures(pres, i, depth):
    """The set of int triples (a, b, c) in [-depth, depth] at which
    (v_a v_b) v_c != v_a (v_b v_c) for v_k = v_k(i), at full rank."""
    ks = range(-depth, depth + 1)
    basis = [pres.basis(unit(pres.nvars, i, k)) for k in ks]
    table = [[gwa_multiply(u, v) for v in basis] for u in basis]
    return {(a, b, c)
            for a, va, row_a in zip(ks, basis, table)
            for b, ab, row_b in zip(ks, row_a, table)
            for c, vc, bc in zip(ks, basis, row_b)
            if gwa_multiply(ab, vc) != gwa_multiply(va, bc)}


# a named check of verify_presentation; a failed one carries the text of what
# it computed, a passing one ""
GwaCheck = namedtuple("GwaCheck", "name ok witness")


class GwaReport(Value):
    """Outcome of verify_presentation: a tuple of named checks plus an overall
    verdict."""

    __slots__ = _fields = ("checks",)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def __repr__(self):
        return "GwaReport(ok=%s, checks=%d)" % (self.ok, len(self.checks))


def _degree(p: BasePoly) -> int:
    """Total degree; shifts keep it and products add it."""
    return max(map(sum, p.terms))


class Embedding(Frozen):
    """A homomorphism into the skew Laurent ring given by generator images.

    The images must satisfy every defining relation of the presentation inside
    the Laurent ring, the same list verify_presentation checks, with the
    variables h_j as base samples; this is checked on construction and the
    first violation raises ImagesViolateRelations.  Base polynomials map to
    degree zero operators.

    The x-shift relations on h_1..h_n leave X_i and Y_i one component each,
    at degrees +-s_i e_i.  So v_alpha maps to one monomial, image(alpha): the
    monomial_product, in factor order, of the skewlaurent.monomial_power's
    X_i^alpha_i (Y_i^-alpha_i if negative), formed once and kept by alpha;
    apply and pullback scale by its coefficient or divide by it.
    """

    __slots__ = ("presentation", "x_images", "y_images", "_images")

    def __init__(self, presentation: GwaPresentation, x_images, y_images):
        n = presentation.nvars
        x_images = tuple(x_images)
        y_images = tuple(y_images)
        if len(x_images) != n or len(y_images) != n:
            raise ArityMismatch("need one X and one Y image per factor")
        for img in x_images + y_images:
            if not isinstance(img, LaurentOp) or img.nvars != n:
                raise ArityMismatch("images must be LaurentOp of arity %d" % n)
        samples = [BasePoly.variable(n, j) for j in range(n)]
        for name, lhs, rhs in _relations(presentation, x_images, y_images,
                                         LaurentOp.from_poly, samples):
            if lhs != rhs:
                raise ImagesViolateRelations("images fail %s" % name)
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "x_images", x_images)
        object.__setattr__(self, "y_images", y_images)
        # the images formed so far, by alpha, as (degree, coefficient)
        # pairs; the generators' own are at the units e_i and -e_i
        object.__setattr__(self, "_images", {
            unit(n, i, 1 if up else -1): next(iter(img.components.items()))
            for up, images in ((True, x_images), (False, y_images))
            for i, img in enumerate(images)})

    def image(self, alpha: tuple):
        """The image of v_alpha, a monomial (degree, coefficient)."""
        out = self._images.get(alpha)
        if out is not None:
            return out
        for i, k in enumerate(alpha):
            if k:
                gen = self._images[unit(len(alpha), i, k // abs(k))]
                pair = monomial_power(gen, abs(k))
                out = pair if out is None else monomial_product(out, pair)
        out = self._images[alpha] = out or (alpha, BasePoly.one(len(alpha)))
        return out

    def apply(self, u: GwaElement) -> LaurentOp:
        """The image of u, wrapped unchecked: its components are products of
        nonzero polynomials at the distinct degrees of distinct alpha."""
        if u.presentation != self.presentation:
            raise PresentationMismatch("element from a different presentation")
        comps = {}
        for alpha, c in u.components.items():
            degree, psi = self.image(alpha)
            comps[degree] = c * psi
        return LaurentOp._trusted(u.nvars, comps)

    def pullback(self, op: LaurentOp) -> GwaElement:
        """Inverse of apply on the image subalgebra; NotInImage otherwise.

        The component of degree deg is the image of one coordinate, alpha
        with alpha_i s_i = deg_i, so each coordinate is that component
        divided exactly by the coefficient of image(alpha), which is not
        formed when its degree alone rules the component out.  These nonzero
        quotients at distinct alpha are wrapped unchecked, as _like wraps.
        """
        pres, images = self.presentation, self._images
        n = pres.nvars
        if op.nvars != n:
            raise ArityMismatch("operator arity %d != %d" % (op.nvars, n))
        coords = {}
        for deg, poly in op.components.items():
            alpha = []
            for v, s in zip(deg, pres.steps):
                if v % s:
                    raise NotInImage(
                        "degree %r is not a multiple of the steps" % (deg,))
                alpha.append(v // s)
            alpha = tuple(alpha)
            try:
                # an image not formed yet is not formed to divide a component
                # of lower degree: its degree is |k| times X_i's (Y_i's)
                if alpha not in images and _degree(poly) < sum(
                        abs(k) * _degree(images[unit(n, i, k // abs(k))][1])
                        for i, k in enumerate(alpha) if k):
                    raise NotDivisible("of lower degree than the image")
                coords[alpha] = exact_divide(poly, self.image(alpha)[1])
            except NotDivisible as exc:
                raise NotInImage(
                    "component at %r is not a multiple of the basis image"
                    % (deg,)) from exc
        return _wrap(pres, coords)
