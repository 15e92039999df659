"""The ambient skew Laurent ring: Laurent operators over shift polynomials.

Elements are finite sums  sum_alpha  d_alpha(h) * x^alpha  with alpha in Z^n
and d_alpha in Q[h1..hn].  Multiplication moves x past coefficients by the
shift rule  x^alpha * d = shift(d, alpha) * x^alpha, which encodes
x_i h_i = (h_i - 1) x_i.  That rule is written once, in monomial_product:
LaurentOp.__mul__ sums it over pairs of components, and exprparse and
gwa.Embedding multiply monomials with it and take powers by monomial_power.
The Weyl algebra sits inside via partial_i = h_i x_i^{-1}.  Whether c x^i
keeps a monomial set is one rule, ExponentSet.escape_roots; on the cusp set
it is vanishing_roots, whose graded divisor is what an operator ring allows,
and membership is one loop, graded_quotients, that divides each component by
it; the Weyl algebra is the width 1 instance of both.  phi and graded_divisor
are per-process tables: each key yields one shared immutable BasePoly.

The private base Graded holds what the package's three Z^n-graded sums share
beyond the finite-sum body of exactpoly.RingOps: LaurentOp, gwa.GwaElement
(both with left coefficients in Q[h1..hn]) and modactions.LaurentVector
(scalar coefficients) get validation and support from it, and the two
polynomial ones their coercion and text form.  Each subclass names its
coefficient rule, _coefficient, and keeps its own product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import add

from .exactpoly import (ArityMismatch, BasePoly, NotDivisible, RingOps, Value,
                        _clean, _integer, _new, _set_components, _set_nvars,
                        _splitting, exact_divide, factor_name, grlex_key,
                        linear_factors, poly_forms, render_number,
                        render_poly)


class Graded(RingOps):
    """A finite sum  sum_alpha  c_alpha * m_alpha  graded by alpha in Z^n.

    The shared base of LaurentOp, GwaElement and LaurentVector; sums,
    negation, equality and hashing are RingOps's.  components maps degree
    vectors (int tuples of length nvars) to the nonzero coefficients c_alpha,
    each validated by the class's _coefficient rule: by default a BasePoly
    of arity nvars written on the left of the degree alpha monomial m_alpha.
    Any coefficient kind whose zero is falsy fits, so the base never
    branches on it.  _coerce puts a scalar or BasePoly at degree zero by
    that rule.  A subclass supplies its products; a polynomial one also
    _letter (the name and power that one nonzero entry of alpha renders
    as), and one with more slots naming its ring extends _like with them.
    """

    __slots__ = ()

    def __init__(self, nvars: int, components=None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        object.__setattr__(self, "nvars", nvars)
        clean = {}
        for deg, c in (components or {}).items():
            deg = tuple(map(int, deg))
            if len(deg) != nvars:
                raise ArityMismatch("degree %r has length != %d" % (deg, nvars))
            c = self._coefficient(c)
            if c:
                clean[deg] = c
        object.__setattr__(self, "components", clean)

    def _coefficient(self, c) -> BasePoly:
        """c as a BasePoly of arity nvars: a scalar as a constant."""
        if not isinstance(c, BasePoly):
            return BasePoly.constant(self.nvars, c)
        if c.nvars != self.nvars:
            raise ArityMismatch("coefficient arity %d != %d"
                                % (c.nvars, self.nvars))
        return c

    @classmethod
    def _trusted(cls, nvars: int, components: dict):
        """Wrap components whose keys are int tuples of length nvars and whose
        values are nonzero coefficients, unchecked: a caller whose arithmetic
        can cancel passes them through exactpoly._clean first."""
        u = _new(cls)
        _set_nvars(u, nvars)
        _set_components(u, components)
        return u

    def support(self):
        """Degree vectors with nonzero coefficient, graded-lex descending."""
        return sorted(self.components, key=grlex_key, reverse=True)

    def _coerce(self, other):
        """other in self's ring: self's class as is, a BasePoly, int or
        Fraction at degree zero by _coefficient; else NotImplemented."""
        if other.__class__ is self.__class__:
            return other
        if not isinstance(other, (BasePoly, int, Fraction)):
            return NotImplemented
        c = self._coefficient(other)
        return self._like({(0,) * self.nvars: c} if c else {})

    def graded_component(self, degree):
        c = self.components.get(tuple(degree))
        return self._coefficient(0) if c is None else c

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def _render(self, terms) -> str:
        """Terms (text) * monomial over (degree, text) pairs, joined by ' + '."""
        return " + ".join(" * ".join(
            ["(%s)" % text] + [factor_name(i, self.nvars, *self._letter(e))
                               for i, e in enumerate(deg) if e])
            for deg, text in terms) or "0"

    def __repr__(self):
        return "%s(%d, %s)" % (type(self).__name__, self.nvars, render_op(self))


class LaurentOp(Graded):
    """An element of the skew Laurent ring, graded by x-degree in Z^n.

    components maps degree vectors to nonzero BasePoly coefficients, always
    written with the polynomial on the left of the monomial x^alpha.
    """

    __slots__ = ()

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentOp":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "LaurentOp":
        return cls.monomial(nvars, (0,) * nvars, 1)

    @classmethod
    def monomial(cls, nvars: int, degree, coeff) -> "LaurentOp":
        return cls(nvars, {tuple(degree): coeff})

    @classmethod
    def from_poly(cls, poly: BasePoly) -> "LaurentOp":
        return cls(poly.nvars, {(0,) * poly.nvars: poly})

    @classmethod
    def x(cls, nvars: int, j: int = 0, power: int = 1) -> "LaurentOp":
        """x_{j+1}^power (power may be negative)."""
        return cls.monomial(nvars, unit(nvars, j, power), 1)

    @classmethod
    def h(cls, nvars: int, j: int = 0) -> "LaurentOp":
        return cls.from_poly(BasePoly.variable(nvars, j))

    @classmethod
    def d(cls, nvars: int, j: int = 0) -> "LaurentOp":
        """The partial derivative operator for factor j: h_j * x_j^{-1}."""
        return cls.monomial(nvars, unit(nvars, j, -1),
                            BasePoly.variable(nvars, j))

    # -- arithmetic -------------------------------------------------------

    # entries of this class's own dict, so that wrapping them (as
    # bench/spans.py does) leaves the other sums alone
    __add__ = __radd__ = RingOps.__add__

    def __mul__(self, other):
        if not isinstance(other, LaurentOp):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        self._check_arity(other)
        comps = {}
        for u in self.components.items():
            for v in other.components.items():
                deg, term = monomial_product(u, v)
                prev = comps.get(deg)
                comps[deg] = term if prev is None else prev + term
        return self._like(_clean(comps))

    @staticmethod
    def _letter(e: int):
        return "x", e


def unit(n: int, i: int, k: int = 1) -> tuple:
    """The degree k e_i in Z^n: k at the zero-based factor i, 0 elsewhere."""
    return (0,) * i + (k,) + (0,) * (n - i - 1)


def monomial_product(u, v):
    """(alpha, c) * (beta, d) = (alpha + beta, c * sigma^alpha(d)): the
    product of the monomials c x^alpha and d x^beta, given as (degree,
    BasePoly coefficient) pairs, with sigma^alpha = BasePoly.shift(alpha)."""
    (alpha, c), (beta, d) = u, v
    return tuple(map(add, alpha, beta)), c * d.shift(alpha)


def monomial_power(u, k: int):
    """(alpha, c)^k = (k alpha, prod_{j<k} sigma^{j alpha}(c)), k >= 0: closed
    (k alpha, c^k) if k < 2, alpha = 0 or c is constant; else linear_factors
    of c's _splitting roots r + j alpha at lead^k if c splits unsearched (it
    records its roots, or it is linear past h^v); else monomial_products."""
    alpha, c = u
    if k < 2 or not any(alpha) or c.is_constant():
        return tuple([a * k for a in alpha]), c ** k
    terms = c.components
    if c.nvars == 1 and (c._roots or max(terms) - min(terms) < 2):
        roots, rest = _splitting(c)
        if rest.__class__ is not BasePoly:  # c splits: rest is its lead
            return (k * alpha[0],), linear_factors(
                [r + j * alpha[0] for j in range(k) for r in roots], rest ** k)
    return reduce(monomial_product, [u] * k)


def commutator(u: LaurentOp, v: LaurentOp) -> LaurentOp:
    return u * v - v * u


class ExponentSet(Value):
    """Subset of Z given by finitely many points plus up and down rays.

    Points and bounds are ints or integral Fractions (a range of points is
    fine); anything else raises ValueError.
    """

    __slots__ = _fields = ("points", "ge", "le")

    def __init__(self, points=(), ge=None, le=None):
        super().__init__(
            frozenset(_integer(p, "ExponentSet") for p in points),
            None if ge is None else _integer(ge, "ExponentSet"),
            None if le is None else _integer(le, "ExponentSet"))

    def __contains__(self, k: int) -> bool:
        return (k in self.points or self.ge is not None and k >= self.ge
                or self.le is not None and k <= self.le)

    def window(self, lo: int, hi: int) -> list[int]:
        return [k for k in range(lo, hi + 1) if k in self]

    def escape_roots(self, i: int) -> list[int]:
        """The k + i + 1 for k in the set with k + i outside it, ascending:
        as h x^k = (k + 1) x^k, c(h) x^i keeps span{x^k : k in the set}
        exactly when c vanishes at each.  A k on a ray leaves the set only
        across the ray's end, so the candidates are the points and the |i|
        ray points nearest the end that i moves toward."""
        ks = set(self.points)
        if self.ge is not None and i < 0:
            ks.update(range(self.ge, self.ge - i))
        if self.le is not None and i > 0:
            ks.update(range(self.le - i + 1, self.le + 1))
        return [k + i + 1 for k in sorted(ks) if k + i not in self]

    def translate(self, offset: int) -> "ExponentSet":
        return ExponentSet(
            points=(p + offset for p in self.points),
            ge=None if self.ge is None else self.ge + offset,
            le=None if self.le is None else self.le + offset)

    def render(self, down, points, up, sep=" u ", empty="{}") -> str:
        """The set as text, in increasing order: down % le, points(the
        sorted points) and up % ge, each part that is present, joined by
        sep; empty when none is.  The bounds go through render_number."""
        bits = [] if self.le is None else [down % render_number(self.le)]
        if self.points:
            bits.append(points(sorted(self.points)))
        if self.ge is not None:
            bits.append(up % render_number(self.ge))
        return sep.join(bits) or empty

    def __repr__(self):
        return "ExponentSet(%s)" % self.render(
            "<=%s", lambda ps: "{%s}" % ",".join(map(render_number, ps)),
            ">=%s", " | ", "empty")

    def to_json(self) -> dict:
        return {"points": sorted(self.points), "ge": self.ge, "le": self.le}


@lru_cache(maxsize=None, typed=True)
def cusp_set(m: int) -> ExponentSet:
    """S_m = {0} union [m, infinity), the exponents of the width m cusp
    algebra: one shared set per width and type, so 2.0 never finds S_2."""
    if m < 1:
        raise ValueError("width must be >= 1")
    return ExponentSet(points=(0,), ge=m)


def vanishing_roots(m: int, i: int) -> list[int]:
    """Roots at which a degree i coefficient must vanish on the width m set,
    cusp_set(m).escape_roots(i).  Every graded coefficient table is an
    instance: phi is the product of (h - r) over these roots, width 1
    (S_1 = N) is the Weyl algebra, and the Weyl intersection takes the
    union of both root sets."""
    return cusp_set(m).escape_roots(i)


@lru_cache(maxsize=None)
def phi(mi: int, i: int) -> BasePoly:
    """The coefficient polynomial of the degree i graded generator (one factor).

    linear_factors(vanishing_roots(mi, i)), which records those roots.
    Written out, with h the shift variable and width mi:

      phi(mi, 0) = 1
      phi(mi, i) = h - i - 1          for 1 <= i <= mi - 1
      phi(mi, i) = 1                  for i >= mi
      phi(mi, -t) = (h + t - 1) * prod (h - j),  j from mi - t + 1 to mi
                                                 skipping j = 1,  for t >= 1.

    At width 1 this is phi(1, i) = 1 for i >= 0 and
    phi(1, -t) = h (h+1) ... (h+t-1), the coefficient of the t-th derivative.
    """
    return linear_factors(vanishing_roots(mi, i))


@lru_cache(maxsize=None)
def graded_divisor(widths, alpha) -> BasePoly:
    """prod_i phi(widths_i, alpha_i)(h_i): the least coefficient at degree alpha.

    A component d * x^alpha lies in the operator ring of the widths exactly
    when this product divides d.  Widths (1, ..., 1) give the Weyl algebra,
    where only partial_i = h_i x_i^{-1} brings in x_i^{-1}.  Memoized per
    process, as phi is, so widths and alpha must be tuples; every caller
    shares one immutable BasePoly per key, at rank one phi's own.
    """
    n = len(alpha)
    out = BasePoly.one(n)
    for i, (mi, ai) in enumerate(zip(widths, alpha)):
        out = out * phi(mi, ai).inject(n, i)
    return out


def graded_quotients(u: LaurentOp, widths) -> dict:
    """{alpha: coefficient of u at alpha / graded_divisor(widths, alpha)}.

    The membership rule of every operator ring: u lies in the ring of the
    widths (a tuple) exactly when this succeeds.  Walks the support order
    and raises NotDivisible at the first component that the divisor does
    not divide.
    """
    if u.nvars != len(widths):
        raise ArityMismatch("operator arity %d != shape rank %d"
                            % (u.nvars, len(widths)))
    comps = u.components
    return {alpha: exact_divide(comps[alpha], graded_divisor(widths, alpha))
            for alpha in u.support()}


def weyl_membership(u: LaurentOp) -> bool:
    """Whether u lies in the Weyl subalgebra generated by the x_i and partial_i:
    whether graded_quotients succeeds at widths (1, ..., 1).  The library
    pulls u back along the weyl embedding instead; this alias stays only
    while the bench tracer wraps it by name (ROADMAP.md, item 1)."""
    try:
        graded_quotients(u, (1,) * u.nvars)
    except NotDivisible:
        return False
    return True


# -- canonical text and json forms ----------------------------------------

def render_op(u: LaurentOp) -> str:
    """Canonical text form, e.g. (h^2-3*h) * x1^-1 * x2^2 + (h-2).

    Components are sorted graded-lex descending on the degree vector; each
    coefficient polynomial is parenthesized.  render_gwa's form too.
    """
    return u._render([(d, render_poly(u.components[d])) for d in u.support()])


def graded_forms(u: Graded) -> tuple:
    """(the --json form of u, its text form) of a LaurentOp or GwaElement,
    from one reading of its digits: poly_forms of each coefficient."""
    rows = [(d, *poly_forms(u.components[d])) for d in u.support()]
    docs = [{"degree": list(d), "coeff": doc} for d, doc, _ in rows]
    return {"nvars": u.nvars, "components": docs}, u._render(
        [(d, text) for d, _, text in rows])
