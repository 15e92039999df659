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
generator images in the Laurent ring.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from operator import add, mul

from .exactpoly import (ArityMismatch, BasePoly, NotDivisible, exact_divide,
                        render_poly)
from .skewlaurent import Graded, LaurentOp


class PresentationMismatch(ValueError):
    """Elements of different presentations cannot be combined."""


class ImagesViolateRelations(ValueError):
    """Proposed generator images fail the defining relations."""


class NotInImage(ArithmeticError):
    """A Laurent operator is not in the image of the embedding."""


class GwaPresentation:
    """Defining data: one base polynomial and one shift step per factor."""

    __slots__ = ("nvars", "a", "steps", "_pair_cache", "_shift_cache")

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

    def __setattr__(self, name, value):
        raise AttributeError("GwaPresentation is immutable")

    def __eq__(self, other):
        if not isinstance(other, GwaPresentation):
            return NotImplemented
        return self.a == other.a and self.steps == other.steps

    def __hash__(self):
        return hash((self.a, self.steps))

    def __repr__(self):
        return "GwaPresentation(a=[%s], steps=%s)" % (
            ", ".join(render_poly(p) for p in self.a), list(self.steps))

    def sigma_power(self, d: BasePoly, alpha) -> BasePoly:
        """Apply prod_i sigma_i^{alpha_i} to a base polynomial."""
        key = tuple(int(v) for v in alpha)
        return d.shift([k * s for k, s in zip(key, self.steps)])

    def sigma_of_a(self, i: int, t: int) -> BasePoly:
        """sigma_i^t(a_i), cached."""
        key = (i, t)
        if key not in self._shift_cache:
            shift_vec = [0] * self.nvars
            shift_vec[i] = t * self.steps[i]
            self._shift_cache[key] = self.a[i].shift(shift_vec)
        return self._shift_cache[key]

    def pair_coefficient(self, i: int, n: int, m: int) -> BasePoly:
        """The base coefficient (n, m) with v_n(i) v_m(i) = (n, m) v_{n+m}(i).

        Same signs give 1.  Mixed signs give a product of sigma-shifts of a_i:
        for n > 0 > -m', the factors are sigma^t(a_i) for t descending from n,
        min(n, m') of them; for -n' < 0 < m, the factors are sigma^t(a_i) for
        t ascending from -n'+1, min(n', m) of them.
        """
        key = (i, n, m)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        if n == 0 or m == 0 or (n > 0) == (m > 0):
            out = BasePoly.one(self.nvars)
        elif n > 0:
            mp = -m
            count = min(n, mp)
            out = BasePoly.one(self.nvars)
            for t in range(n - count + 1, n + 1):
                out = out * self.sigma_of_a(i, t)
        else:
            np = -n
            count = min(np, m)
            out = BasePoly.one(self.nvars)
            for t in range(-np + 1, -np + count + 1):
                out = out * self.sigma_of_a(i, t)
        self._pair_cache[key] = out
        return out

    # -- element constructors --------------------------------------------

    def element(self, coords) -> "GwaElement":
        return GwaElement(self, coords)

    def basis(self, alpha) -> "GwaElement":
        return GwaElement(self, {tuple(alpha): BasePoly.one(self.nvars)})

    def from_base(self, d: BasePoly) -> "GwaElement":
        return GwaElement(self, {(0,) * self.nvars: d})


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
        u = Graded._like(self, components)
        _set_presentation(u, self.presentation)
        return u

    def __hash__(self):
        return hash((self.presentation, Graded.__hash__(self)))

    @property
    def coords(self) -> dict:
        return self.components

    def _coerce(self, other):
        if isinstance(other, GwaElement):
            if other.presentation != self.presentation:
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
    return u._like(coords)


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
        e = tuple(1 if j == i else 0 for j in range(n))
        yield "yx=a[%d]" % i, Y * X, lift(pres.a[i])
        yield "xy=sigma(a)[%d]" % i, X * Y, lift(pres.sigma_of_a(i, 1))
        for k, d in enumerate(samples):
            yield ("x-shift[%d,%d]" % (i, k), X * lift(d),
                   lift(pres.sigma_power(d, e)) * X)
            yield ("y-shift[%d,%d]" % (i, k), Y * lift(d),
                   lift(pres.sigma_power(d, tuple(-v for v in e))) * Y)
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
    units = [[int(j == i) for j in range(n)] for i in range(n)]
    xs = [pres.basis(e) for e in units]
    ys = [pres.basis([-v for v in e]) for e in units]
    for name, lhs, rhs in _relations(pres, xs, ys, pres.from_base, samples):
        checks.append(GwaCheck(name, lhs == rhs, render_gwa(lhs)))

    factor_failures = [_factor_failures(pres, i, depth) for i in range(n)]
    bad = None
    if any(factor_failures):
        # bound the coordinate sum for higher rank to keep the sweep small
        vecs = [v for v in _box(n, depth) if sum(map(abs, v)) <= depth]
        bad = next(((a, b, c) for a in vecs for b in vecs for c in vecs
                    if any(t in failures for t, failures
                           in zip(zip(a, b, c), factor_failures))
                    and not _associates(pres, a, b, c)), None)
    checks.append(GwaCheck("associativity(depth=%d)" % depth, bad is None,
                           "" if bad is None else "failed at %r" % (bad,)))
    return GwaReport(checks)


def _factor_failures(pres, i, depth):
    """The set of int triples (a, b, c) in [-depth, depth] at which
    (v_a v_b) v_c != v_a (v_b v_c) for v_k = v_k(i), at full rank."""
    ks = range(-depth, depth + 1)
    basis = [pres.basis([k if j == i else 0 for j in range(pres.nvars)])
             for k in ks]
    table = [[gwa_multiply(u, v) for v in basis] for u in basis]
    return {(a, b, c)
            for a, va, row_a in zip(ks, basis, table)
            for b, ab, row_b in zip(ks, row_a, table)
            for c, vc, bc in zip(ks, basis, row_b)
            if gwa_multiply(ab, vc) != gwa_multiply(va, bc)}


def _associates(pres, a, b, c):
    va, vb, vc = pres.basis(a), pres.basis(b), pres.basis(c)
    return gwa_multiply(gwa_multiply(va, vb), vc) == \
        gwa_multiply(va, gwa_multiply(vb, vc))


def _box(n, depth):
    if n == 0:
        return [()]
    rest = _box(n - 1, depth)
    return [(v,) + r for v in range(-depth, depth + 1) for r in rest]


# a named check of verify_presentation, with the text of what it computed
GwaCheck = namedtuple("GwaCheck", "name ok witness")


class GwaReport:
    """Outcome of verify_presentation: named checks plus an overall verdict."""

    def __init__(self, checks):
        self.checks = list(checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def __repr__(self):
        return "GwaReport(ok=%s, checks=%d)" % (self.ok, len(self.checks))


class Embedding:
    """A homomorphism into the skew Laurent ring given by generator images.

    The images must satisfy every defining relation of the presentation inside
    the Laurent ring, the same list verify_presentation checks, with the
    variables h_j as base samples; this is checked on construction and the
    first violation raises ImagesViolateRelations.  Base polynomials map to
    degree zero operators.
    """

    __slots__ = ("presentation", "x_images", "y_images", "_powers")

    def __init__(self, presentation: GwaPresentation, x_images, y_images):
        n = presentation.nvars
        x_images = tuple(x_images)
        y_images = tuple(y_images)
        if len(x_images) != n or len(y_images) != n:
            raise ArityMismatch("need one X and one Y image per factor")
        for img in x_images + y_images:
            if not isinstance(img, LaurentOp) or img.nvars != n:
                raise ArityMismatch("images must be LaurentOp of arity %d" % n)
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "x_images", x_images)
        object.__setattr__(self, "y_images", y_images)
        object.__setattr__(self, "_powers", {})
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("Embedding is immutable")

    def _validate(self):
        n = self.presentation.nvars
        samples = [BasePoly.variable(n, j) for j in range(n)]
        for name, lhs, rhs in _relations(self.presentation, self.x_images,
                                         self.y_images, LaurentOp.from_poly,
                                         samples):
            if lhs != rhs:
                raise ImagesViolateRelations("images fail %s" % name)

    def _power(self, i: int, k: int) -> LaurentOp:
        """X_i^k for k > 0, Y_i^-k for k < 0; cached.

        A missing power is built up from the largest one of the same sign
        already stored (the generator itself if none is), and every power on
        the way is stored too.
        """
        powers = self._powers
        gen = self.x_images[i] if k > 0 else self.y_images[i]
        step = 1 if k > 0 else -1
        j = k
        while j != step and (i, j) not in powers:
            j -= step
        acc = powers.setdefault((i, j), gen)
        while j != k:
            j += step
            acc = acc * gen
            powers[(i, j)] = acc
        return acc

    def apply(self, u: GwaElement) -> LaurentOp:
        if u.presentation != self.presentation:
            raise PresentationMismatch("element from a different presentation")
        out = LaurentOp.zero(self.presentation.nvars)
        for alpha, c in u.components.items():
            img = LaurentOp.from_poly(c)
            if any(alpha):
                img = img * self.basis_image(alpha)
            out = out + img
        return out

    def basis_image(self, alpha) -> LaurentOp:
        powers = [self._power(i, k) for i, k in enumerate(alpha) if k]
        return reduce(mul, powers) if powers else \
            LaurentOp.one(self.presentation.nvars)

    def pullback(self, op: LaurentOp) -> GwaElement:
        """Inverse of apply on the image subalgebra; NotInImage otherwise.

        Each basis image is homogeneous of Laurent degree (alpha_i * s_i), so
        the coordinates are recovered one graded component at a time by exact
        division.
        """
        pres = self.presentation
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
            img = self.basis_image(alpha)
            psi = img.components.get(deg)
            if psi is None:
                raise NotInImage("basis image at %r vanishes" % (alpha,))
            try:
                coords[alpha] = exact_divide(poly, psi)
            except NotDivisible as exc:
                raise NotInImage(
                    "component at %r is not a multiple of the basis image"
                    % (deg,)) from exc
        return GwaElement(pres, coords)

