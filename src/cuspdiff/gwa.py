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
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .exactpoly import (ArityMismatch, BasePoly, NotDivisible, RingOps,
                        exact_divide, grlex_key, render_poly)
from .skewlaurent import LaurentOp


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


class GwaElement(RingOps):
    """Element sum_alpha c_alpha v_alpha with left base coefficients."""

    __slots__ = ("presentation", "coords")

    @staticmethod
    def _trusted(presentation: GwaPresentation, coords: dict) -> "GwaElement":
        """Wrap coords whose keys are int tuples of length nvars and whose
        values are nonzero BasePoly of arity nvars, without re-checking."""
        u = object.__new__(GwaElement)
        object.__setattr__(u, "presentation", presentation)
        object.__setattr__(u, "coords", coords)
        return u

    def __init__(self, presentation: GwaPresentation, coords=None):
        clean = {}
        n = presentation.nvars
        for alpha, poly in (coords or {}).items():
            alpha = tuple(int(v) for v in alpha)
            if len(alpha) != n:
                raise ArityMismatch("coordinate %r has length != %d" % (alpha, n))
            if not isinstance(poly, BasePoly):
                poly = BasePoly.constant(n, poly)
            if poly.nvars != n:
                raise ArityMismatch("coefficient arity %d != %d" % (poly.nvars, n))
            if not poly.is_zero():
                clean[alpha] = poly
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "coords", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GwaElement is immutable")

    def support(self):
        return sorted(self.coords, key=grlex_key, reverse=True)

    def is_zero(self) -> bool:
        return not self.coords

    def _coerce(self, other):
        if isinstance(other, GwaElement):
            if other.presentation != self.presentation:
                raise PresentationMismatch("elements of different presentations")
            return other
        if isinstance(other, BasePoly):
            return self.presentation.from_base(other)
        if isinstance(other, (int, Fraction)):
            n = self.presentation.nvars
            return self.presentation.from_base(BasePoly.constant(n, other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        coords = dict(self.coords)
        n = self.presentation.nvars
        for alpha, poly in other.coords.items():
            coords[alpha] = coords.get(alpha, BasePoly.zero(n)) + poly
        return GwaElement(self.presentation, coords)

    __radd__ = __add__

    def __neg__(self):
        return GwaElement(self.presentation,
                          {a: -p for a, p in self.coords.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return gwa_multiply(self, other)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return gwa_multiply(other, self)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.presentation,
                     frozenset(self.coords.items())))

    def __repr__(self):
        return "GwaElement(%s)" % render_gwa(self)


def gwa_multiply(u: GwaElement, v: GwaElement) -> GwaElement:
    """Product via the closed-form pair coefficients, factor by factor."""
    if u.presentation is not v.presentation and u.presentation != v.presentation:
        raise PresentationMismatch("elements of different presentations")
    pres = u.presentation
    pair = pres.pair_coefficient
    factors = range(pres.nvars)
    coords = {}
    for alpha, c in u.coords.items():
        shift_vec = [k * s for k, s in zip(alpha, pres.steps)]
        for beta, d in v.coords.items():
            poly = c * d.shift(shift_vec)
            # same signs or a zero degree give the pair coefficient 1
            for i in factors:
                n, m = alpha[i], beta[i]
                if (n > 0 > m) or (n < 0 < m):
                    poly = poly * pair(i, n, m)
            gamma = tuple(map(add, alpha, beta))
            prev = coords.get(gamma)
            coords[gamma] = poly if prev is None else prev + poly
    return GwaElement._trusted(
        pres, {gamma: p for gamma, p in coords.items() if not p.is_zero()})


def render_gwa(u: GwaElement) -> str:
    """Text form on the v-basis using X/Y names (X1, Y1, ... for rank > 1)."""
    if u.is_zero():
        return "0"
    n = u.presentation.nvars
    parts = []
    for alpha in u.support():
        pieces = ["(%s)" % render_poly(u.coords[alpha])]
        for i, k in enumerate(alpha):
            if k == 0:
                continue
            name = ("X" if k > 0 else "Y") if n == 1 else \
                ("X%d" % (i + 1) if k > 0 else "Y%d" % (i + 1))
            e = abs(k)
            pieces.append(name if e == 1 else "%s^%d" % (name, e))
        parts.append(" * ".join(pieces))
    return " + ".join(parts)


def verify_presentation(pres: GwaPresentation, depth: int = 3,
                        extra_base=()) -> "GwaReport":
    """Check defining relations and associativity up to a coordinate bound.

    Runs the relations Y_i X_i = a_i, X_i Y_i = sigma_i(a_i), the commutation
    rules X_i d = sigma_i(d) X_i and Y_i d = sigma_i^{-1}(d) Y_i on sample base
    elements, cross-factor commutation, and associativity of v_alpha v_beta
    v_gamma for all coordinate vectors bounded by depth: every coordinate in
    [-depth, depth] and, at rank > 1, |alpha|_1 <= depth.

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

    def record(name, ok, witness=""):
        checks.append(GwaCheck(name, bool(ok), witness))

    base_samples = [BasePoly.one(n)]
    for i in range(n):
        base_samples.append(BasePoly.variable(n, i))
    base_samples.extend(pres.a)
    base_samples.extend(extra_base)

    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        X = pres.basis(e)
        Y = pres.basis(tuple(-v for v in e))
        prod = Y * X
        record("yx=a[%d]" % i, prod == pres.from_base(pres.a[i]),
               render_gwa(prod))
        prod = X * Y
        record("xy=sigma(a)[%d]" % i,
               prod == pres.from_base(pres.sigma_of_a(i, 1)), render_gwa(prod))
        for k, d in enumerate(base_samples):
            lhs = X * pres.from_base(d)
            rhs = pres.from_base(pres.sigma_power(d, e)) * X
            record("x-shift[%d,%d]" % (i, k), lhs == rhs, render_gwa(lhs))
            lhs = Y * pres.from_base(d)
            rhs = pres.from_base(pres.sigma_power(d, tuple(-v for v in e))) * Y
            record("y-shift[%d,%d]" % (i, k), lhs == rhs, render_gwa(lhs))
        for j in range(i + 1, n):
            f = tuple(1 if k == j else 0 for k in range(n))
            for u in (pres.basis(e), pres.basis(tuple(-v for v in e))):
                for v in (pres.basis(f), pres.basis(tuple(-w for w in f))):
                    uv = u * v
                    record("commute[%d,%d]" % (i, j), uv == v * u,
                           render_gwa(uv))

    factor_failures = [_factor_failures(pres, i, depth) for i in range(n)]
    bad = None
    if any(factor_failures):
        # bound the coordinate sum for higher rank to keep the sweep small
        vecs = [v for v in _box(n, depth) if sum(map(abs, v)) <= depth]
        bad = next(((a, b, c) for a in vecs for b in vecs for c in vecs
                    if any(t in failures for t, failures
                           in zip(zip(a, b, c), factor_failures))
                    and not _associates(pres, a, b, c)), None)
    record("associativity(depth=%d)" % depth, bad is None,
           "" if bad is None else "failed at %r" % (bad,))
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


class GwaCheck:
    __slots__ = ("name", "ok", "witness")

    def __init__(self, name, ok, witness=""):
        self.name = name
        self.ok = ok
        self.witness = witness


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
    the Laurent ring; this is checked on construction and violations raise
    ImagesViolateRelations.  Base polynomials map to degree zero operators.
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
        pres = self.presentation
        n = pres.nvars
        for i in range(n):
            X, Y = self.x_images[i], self.y_images[i]
            if Y * X != LaurentOp.from_poly(pres.a[i]):
                raise ImagesViolateRelations("Y%d*X%d != a%d" % (i + 1, i + 1, i + 1))
            if X * Y != LaurentOp.from_poly(pres.sigma_of_a(i, 1)):
                raise ImagesViolateRelations("X%d*Y%d != sigma(a%d)"
                                             % (i + 1, i + 1, i + 1))
            for j in range(n):
                hj = BasePoly.variable(n, j)
                shift_vec = [0] * n
                shift_vec[i] = pres.steps[i]
                sig_h = hj.shift(shift_vec)
                if X * hj != LaurentOp.from_poly(sig_h) * X:
                    raise ImagesViolateRelations(
                        "X%d does not shift h%d correctly" % (i + 1, j + 1))
                inv = hj.shift([-v for v in shift_vec])
                if Y * hj != LaurentOp.from_poly(inv) * Y:
                    raise ImagesViolateRelations(
                        "Y%d does not shift h%d correctly" % (i + 1, j + 1))
            for j in range(i + 1, n):
                for u in (self.x_images[i], self.y_images[i]):
                    for v in (self.x_images[j], self.y_images[j]):
                        if u * v != v * u:
                            raise ImagesViolateRelations(
                                "factor %d and %d images do not commute"
                                % (i + 1, j + 1))

    def _power(self, i: int, k: int) -> LaurentOp:
        """X_i^k for k >= 0, Y_i^-k for k < 0; cached.

        A missing power is built up from the largest one of the same sign
        already stored, and every power on the way is stored too.
        """
        powers = self._powers
        if (i, 0) not in powers:
            powers[(i, 0)] = LaurentOp.one(self.presentation.nvars)
        step = 1 if k > 0 else -1
        j = k
        while (i, j) not in powers:
            j -= step
        gen = self.x_images[i] if k > 0 else self.y_images[i]
        acc = powers[(i, j)]
        while j != k:
            j += step
            acc = acc * gen
            powers[(i, j)] = acc
        return acc

    def apply(self, u: GwaElement) -> LaurentOp:
        if u.presentation != self.presentation:
            raise PresentationMismatch("element from a different presentation")
        n = self.presentation.nvars
        out = LaurentOp.zero(n)
        for alpha, c in u.coords.items():
            img = LaurentOp.from_poly(c)
            for i, k in enumerate(alpha):
                if k:
                    img = img * self._power(i, k)
            out = out + img
        return out

    def basis_image(self, alpha) -> LaurentOp:
        out = LaurentOp.one(self.presentation.nvars)
        for i, k in enumerate(alpha):
            if k:
                out = out * self._power(i, k)
        return out

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

