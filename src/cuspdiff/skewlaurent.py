"""The ambient skew Laurent ring: Laurent operators over shift polynomials.

Elements are finite sums  sum_alpha  d_alpha(h) * x^alpha  with alpha in Z^n
and d_alpha in Q[h1..hn].  Multiplication moves x past coefficients by the
shift rule  x^alpha * d = shift(d, alpha) * x^alpha, which encodes
x_i h_i = (h_i - 1) x_i.  The Weyl algebra sits inside via
partial_i = h_i x_i^{-1}.  Which components an operator ring allows is one
rule, the graded divisor of vanishing_roots; the Weyl algebra is its width 1
instance.

The private base Graded holds what LaurentOp shares with gwa.GwaElement, the
other Z^n-graded sum with left coefficients in Q[h1..hn]: validation,
immutability, support, sums, negation, equality, hashing and the text form.
Each subclass keeps its own product, coercion and monomial names.
modactions.LaurentVector stays apart: its coefficients are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exactpoly import (ArityMismatch, BasePoly, RingOps, divides, grlex_key,
                        linear_factors, poly_to_json, render_poly)


class Graded(RingOps):
    """A finite sum  sum_alpha  c_alpha * m_alpha  graded by alpha in Z^n.

    The shared body of LaurentOp and GwaElement.  components maps degree
    vectors (int tuples of length nvars) to nonzero BasePoly coefficients of
    arity nvars, each written on the left of the degree alpha monomial
    m_alpha.  A subclass supplies _coerce, __mul__ and _letter (the name and
    power that one nonzero entry of alpha renders as); one with more slots
    naming its ring extends _like and __hash__ with them.
    """

    __slots__ = ("nvars", "components")

    def __init__(self, nvars: int, components=None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        clean = {}
        for deg, poly in (components or {}).items():
            deg = tuple(int(v) for v in deg)
            if len(deg) != nvars:
                raise ArityMismatch("degree %r has length != %d" % (deg, nvars))
            if not isinstance(poly, BasePoly):
                poly = BasePoly.constant(nvars, poly)
            if poly.nvars != nvars:
                raise ArityMismatch("coefficient arity %d != %d"
                                    % (poly.nvars, nvars))
            if not poly.is_zero():
                clean[deg] = poly
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "components", clean)

    def _like(self, components: dict):
        """An element of self's ring holding components, which must already
        meet the invariant apart from zero coefficients; those are dropped."""
        u = _new(type(self))
        _set_nvars(u, self.nvars)
        _set_components(u, {d: p for d, p in components.items()
                            if not p.is_zero()})
        return u

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def support(self):
        """Degree vectors with nonzero coefficient, graded-lex descending."""
        return sorted(self.components, key=grlex_key, reverse=True)

    def graded_component(self, degree) -> BasePoly:
        return self.components.get(tuple(degree), BasePoly.zero(self.nvars))

    def is_zero(self) -> bool:
        return not self.components

    def _check_arity(self, other):
        if self.nvars != other.nvars:
            raise ArityMismatch("mixed arities %d and %d"
                                % (self.nvars, other.nvars))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_arity(other)
        comps = dict(self.components)
        for deg, poly in other.components.items():
            comps[deg] = comps.get(deg, BasePoly.zero(self.nvars)) + poly
        return self._like(comps)

    __radd__ = __add__

    def __neg__(self):
        return self._like({d: -p for d, p in self.components.items()})

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.nvars == other.nvars and self.components == other.components

    def __hash__(self):
        return hash((self.nvars, frozenset(self.components.items())))

    def _render(self) -> str:
        """Terms (coefficient) * monomial, graded-lex descending on the degree
        vector, joined by ' + '; factor names carry an index at rank > 1."""
        if self.is_zero():
            return "0"
        parts = []
        for deg in self.support():
            pieces = ["(%s)" % render_poly(self.components[deg])]
            for i, e in enumerate(deg):
                if e:
                    letter, power = self._letter(e)
                    name = letter if self.nvars == 1 else "%s%d" % (letter, i + 1)
                    pieces.append(name if power == 1 else "%s^%d" % (name, power))
            parts.append(" * ".join(pieces))
        return " + ".join(parts)

    def __repr__(self):
        return "%s(%d, %s)" % (type(self).__name__, self.nvars, self._render())


# slot setters for Graded._like, which bypasses __init__ and __setattr__
_new = object.__new__
_set_nvars = Graded.nvars.__set__
_set_components = Graded.components.__set__


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
        deg = tuple(power if i == j else 0 for i in range(nvars))
        return cls.monomial(nvars, deg, 1)

    @classmethod
    def h(cls, nvars: int, j: int = 0) -> "LaurentOp":
        return cls.from_poly(BasePoly.variable(nvars, j))

    @classmethod
    def d(cls, nvars: int, j: int = 0) -> "LaurentOp":
        """The partial derivative operator for factor j: h_j * x_j^{-1}."""
        deg = tuple(-1 if i == j else 0 for i in range(nvars))
        return cls.monomial(nvars, deg, BasePoly.variable(nvars, j))

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentOp):
            return other
        if isinstance(other, BasePoly):
            return LaurentOp.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return LaurentOp.monomial(self.nvars, (0,) * self.nvars, other)
        return NotImplemented

    # entries of this class's own dict, so that wrapping them (as
    # bench/spans.py does) leaves GwaElement's sums alone
    __add__ = __radd__ = Graded.__add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_arity(other)
        comps = {}
        for alpha, dpoly in self.components.items():
            for beta, epoly in other.components.items():
                deg = tuple(a + b for a, b in zip(alpha, beta))
                term = dpoly * epoly.shift(alpha)
                prev = comps.get(deg)
                comps[deg] = term if prev is None else prev + term
        return self._like(comps)

    @staticmethod
    def _letter(e: int):
        return "x", e


def commutator(u: LaurentOp, v: LaurentOp) -> LaurentOp:
    return u * v - v * u


def vanishing_roots(m: int, i: int) -> list[int]:
    """Roots at which a degree i coefficient must vanish on the width m set.

    S_m = {0} union [m, infinity) is the exponent set of the width m cusp
    algebra, and h x^k = (k+1) x^k, so c(h) x^i maps span{x^k : k in S_m}
    into itself exactly when c(i+k+1) = 0 for every k in S_m with
    i + k not in S_m.  Only k = 0 and m <= k < m - i can leave the set.
    Every graded coefficient table is an instance: phi is the product of
    (h - r) over these roots, width 1 (S_1 = N) is the Weyl algebra, and
    the Weyl intersection takes the union of both root sets.
    """
    if m < 1:
        raise ValueError("width must be >= 1")
    return [i + k + 1 for k in (0, *range(m, m - i))
            if not (i + k == 0 or i + k >= m)]


@lru_cache(maxsize=None)
def phi(mi: int, i: int) -> BasePoly:
    """The coefficient polynomial of the degree i graded generator (one factor).

    The product of (h - r) over vanishing_roots(mi, i).  Written out, with h
    the shift variable and width mi:

      phi(mi, 0) = 1
      phi(mi, i) = h - i - 1          for 1 <= i <= mi - 1
      phi(mi, i) = 1                  for i >= mi
      phi(mi, -t) = (h + t - 1) * prod (h - j),  j from mi - t + 1 to mi
                                                 skipping j = 1,  for t >= 1.

    At width 1 this is phi(1, i) = 1 for i >= 0 and
    phi(1, -t) = h (h+1) ... (h+t-1), the coefficient of the t-th derivative.
    """
    return linear_factors(vanishing_roots(mi, i))


def graded_divisor(widths, alpha) -> BasePoly:
    """prod_i phi(widths_i, alpha_i)(h_i): the least coefficient at degree alpha.

    A component d * x^alpha lies in the operator ring of the widths exactly
    when this product divides d.  Widths (1, ..., 1) give the Weyl algebra,
    where only partial_i = h_i x_i^{-1} brings in x_i^{-1}.
    """
    n = len(alpha)
    out = BasePoly.one(n)
    for i, (mi, ai) in enumerate(zip(widths, alpha)):
        out = out * phi(mi, ai).inject(n, i)
    return out


def weyl_membership(u: LaurentOp) -> bool:
    """Whether u lies in the Weyl subalgebra generated by the x_i and partial_i.

    That is membership at widths (1, ..., 1): graded_divisor divides each
    component.
    """
    widths = (1,) * u.nvars
    return all(divides(graded_divisor(widths, alpha), dpoly)
               for alpha, dpoly in u.components.items())


# -- canonical text and json forms ----------------------------------------

def render_op(u: LaurentOp) -> str:
    """Canonical text form, e.g. (h^2-3*h) * x1^-1 * x2^2 + (h-2).

    Components are sorted graded-lex descending on the degree vector; each
    coefficient polynomial is parenthesized.
    """
    return u._render()


def op_to_json(u: LaurentOp) -> dict:
    return {
        "nvars": u.nvars,
        "components": [{"degree": list(deg), "coeff": poly_to_json(u.components[deg])}
                       for deg in u.support()],
    }
