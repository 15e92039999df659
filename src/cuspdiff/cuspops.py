"""Differential operators on cusp-type monomial subalgebras.

For a width vector (m_1, ..., m_n) the subalgebra of polynomials spanned by 1
and the monomials x_i^j with j >= m_i in each factor has a ring of
differential operators that embeds in the skew Laurent ring.  Its graded
component in degree alpha is the left ideal generated by
delta_alpha = prod_i phi(m_i, alpha_i)(h_i) * x^alpha, so membership is a
divisibility condition coefficient by coefficient.  This module builds the
graded generators, decides membership, decomposes elements and produces the
structure constants that rewrite products of generators.
"""

from __future__ import annotations

from functools import lru_cache

from .exactpoly import (ArityMismatch, BasePoly, divides, exact_divide,
                        linear_factors)
from .gwa import Embedding, GwaPresentation
from .skewlaurent import LaurentOp, vanishing_roots, weyl_membership


class CuspShape:
    """Width vector of the subalgebra, one entry per tensor factor."""

    __slots__ = ("m",)

    def __init__(self, m):
        if isinstance(m, int):
            m = (m,)
        m = tuple(int(v) for v in m)
        if not m:
            raise ValueError("shape needs at least one factor")
        if any(v < 1 for v in m):
            raise ValueError("widths must be positive integers")
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError("CuspShape is immutable")

    @property
    def rank(self) -> int:
        return len(self.m)

    def __eq__(self, other):
        if isinstance(other, CuspShape):
            return self.m == other.m
        return NotImplemented

    def __hash__(self):
        return hash(self.m)

    def __repr__(self):
        return "CuspShape(%s)" % (self.m,)


def as_shape(shape) -> CuspShape:
    if isinstance(shape, CuspShape):
        return shape
    return CuspShape(shape)


def _require_rank_one(shape: CuspShape) -> int:
    if shape.rank != 1:
        raise ArityMismatch("this operation is defined factorwise; rank 1 only")
    return shape.m[0]


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


def phi_multi(shape, alpha) -> BasePoly:
    """prod_i phi(m_i, alpha_i) as a polynomial in h_1..h_n."""
    shape = as_shape(shape)
    alpha = tuple(int(v) for v in alpha)
    if len(alpha) != shape.rank:
        raise ArityMismatch("degree %r has length != %d" % (alpha, shape.rank))
    out = BasePoly.one(shape.rank)
    for i, (mi, ai) in enumerate(zip(shape.m, alpha)):
        out = out * phi(mi, ai).inject(shape.rank, i)
    return out


def delta_op(shape, alpha) -> LaurentOp:
    """The graded generator phi(m, alpha)(h) * x^alpha of the operator ring."""
    shape = as_shape(shape)
    alpha = tuple(int(v) for v in alpha)
    return LaurentOp.monomial(shape.rank, alpha, phi_multi(shape, alpha))


def _as_op(u) -> LaurentOp:
    if isinstance(u, LaurentOp):
        return u
    if isinstance(u, BasePoly):
        return LaurentOp.from_poly(u)
    raise TypeError("expected LaurentOp or BasePoly")


def membership(u, shape) -> bool:
    """Whether u lies in the operator ring of the shape.

    Checks that the coefficient at each degree alpha is divisible by
    prod_i phi(m_i, alpha_i)(h_i).
    """
    shape = as_shape(shape)
    u = _as_op(u)
    if u.nvars != shape.rank:
        raise ArityMismatch("operator arity %d != shape rank %d"
                            % (u.nvars, shape.rank))
    for alpha, coeff in u.components.items():
        if not divides(phi_multi(shape, alpha), coeff):
            return False
    return True


def decompose(u, shape) -> dict:
    """Coefficients c_alpha with u = sum c_alpha * delta_alpha.

    Raises NotDivisible when u is outside the operator ring.
    """
    shape = as_shape(shape)
    u = _as_op(u)
    if u.nvars != shape.rank:
        raise ArityMismatch("operator arity %d != shape rank %d"
                            % (u.nvars, shape.rank))
    out = {}
    for alpha in u.support():
        out[alpha] = exact_divide(u.components[alpha], phi_multi(shape, alpha))
    return out


def a1_membership(u, shape) -> bool:
    """Membership in the intersection of the operator ring with the Weyl algebra."""
    shape = as_shape(shape)
    u = _as_op(u)
    return membership(u, shape) and weyl_membership(u)


class StructureRelation:
    """The rewriting of delta_i * delta_j as coefficient times residual deltas.

    coefficient multiplies the residual product from the left; residual is a
    list of (index, power) pairs naming delta factors in order.  The composite
    degree i + j determines which of five windows applies:

      |i+j| < 2m            ->  delta_{i+j}
      2m <= i+j < 3m        ->  delta_{i+j-m} delta_m
      3m <= i+j < 4m        ->  delta_{i+j-2m} delta_m^2
      -3m < i+j <= -2m      ->  delta_{i+j+m} delta_{-m}
      -4m < i+j <= -3m      ->  delta_{i+j+2m} delta_{-m}^2

    Each residual product equals delta_{i+j} exactly (deltas of indices past
    the width multiply by concatenation), so the coefficient is the exact
    quotient phi_i * shift(phi_j, i) / phi_{i+j}; exactness is a consequence
    of the ring being closed under multiplication.
    """

    __slots__ = ("i", "j", "case", "coefficient", "residual")

    def __init__(self, i, j, case, coefficient, residual):
        self.i = i
        self.j = j
        self.case = case
        self.coefficient = coefficient
        self.residual = residual

    def rhs_op(self, shape) -> LaurentOp:
        """coefficient * product of the residual deltas, in the Laurent ring."""
        shape = as_shape(shape)
        out = LaurentOp.from_poly(self.coefficient)
        for index, power in self.residual:
            out = out * delta_op(shape, (index,)) ** power
        return out

    def __repr__(self):
        return "StructureRelation(i=%d, j=%d, case=%r)" % (self.i, self.j,
                                                           self.case)


def structure_constant(shape, i: int, j: int) -> StructureRelation:
    """Structure constant for delta_i * delta_j at rank one.

    Defined for 1 <= |i|, |j| <= 2m - 1.  See StructureRelation for the case
    table and why the division is exact.
    """
    m = _require_rank_one(as_shape(shape))
    for idx in (i, j):
        if idx == 0 or abs(idx) > 2 * m - 1:
            raise ValueError("index %d out of range; need 1 <= |index| <= %d"
                             % (idx, 2 * m - 1))
    s = i + j
    if abs(s) < 2 * m:
        case = "|i+j| < 2m"
        residual = [(s, 1)]
    elif 2 * m <= s < 3 * m:
        case = "2m <= i+j < 3m"
        residual = [(s - m, 1), (m, 1)]
    elif s >= 3 * m:
        case = "3m <= i+j < 4m"
        residual = [(s - 2 * m, 1), (m, 2)]
    elif -3 * m < s:
        case = "-3m < i+j <= -2m"
        residual = [(s + m, 1), (-m, 1)]
    else:
        case = "-4m < i+j <= -3m"
        residual = [(s + 2 * m, 1), (-m, 2)]
    product = phi(m, i) * phi(m, j).shift([i])
    coefficient = exact_divide(product, phi(m, s))
    return StructureRelation(i, j, case, coefficient, residual)


def w_minus(shape, i: int) -> LaurentOp:
    """Generator of the degree -i component of the Weyl intersection (i >= 1).

    Its coefficient vanishes at the roots of both rings, the union of
    vanishing_roots(m, -i) and vanishing_roots(1, -i), which is the least
    common multiple of phi(m, -i) and h (h+1) ... (h+i-1).  Written out,
    it is a_i(h) * h (h+1) ... (h+i-1) with

      a_i = prod_{j=m-i+1}^{m} (h - j)   for 1 <= i <= m - 2,
      a_i = prod_{j=2}^{m} (h - j)       for i >= m - 1.
    """
    m = _require_rank_one(as_shape(shape))
    if i < 1:
        raise ValueError("w_minus expects i >= 1")
    roots = set(vanishing_roots(m, -i)) | set(vanishing_roots(1, -i))
    return LaurentOp.monomial(1, (-i,), linear_factors(sorted(roots)))


def w_basis(shape, k: int) -> LaurentOp:
    """Graded generator of the Weyl intersection at any degree k.

    Positive degrees reuse the deltas, degree zero is 1, negative degrees are
    the w_minus generators.
    """
    shape = as_shape(shape)
    _require_rank_one(shape)
    if k > 0:
        return delta_op(shape, (k,))
    if k == 0:
        return LaurentOp.one(1)
    return w_minus(shape, -k)


def generating_set(shape) -> list[LaurentOp]:
    """h_i together with the deltas of index 1..2m_i-1 of both signs, per factor."""
    shape = as_shape(shape)
    gens = [LaurentOp.h(shape.rank, i) for i in range(shape.rank)]
    for i, mi in enumerate(shape.m):
        for k in range(1, 2 * mi):
            for signed in (k, -k):
                alpha = tuple(signed if j == i else 0 for j in range(shape.rank))
                gens.append(delta_op(shape, alpha))
    return gens


def gwa_A_generators(shape):
    """(h, X, Y) with X = x^m and Y = delta_{-m}; rank one.

    Y X = (h + m - 1)(h - 2)...(h - m) and the pair generates the operator
    ring together with h over the degrees divisible by m.
    """
    shape = as_shape(shape)
    m = _require_rank_one(shape)
    return (LaurentOp.h(1, 0), LaurentOp.x(1, 0, m), delta_op(shape, (-m,)))


def bbA_generators(shape):
    """(delta_{-1}, h, delta_1); rank one, width >= 2.

    delta_{-1} delta_1 = h (h - 1)(h - m) and
    delta_1 delta_{-1} = (h - 1)(h - 2)(h - m - 1).
    """
    shape = as_shape(shape)
    m = _require_rank_one(shape)
    if m < 2:
        raise ValueError("the degree one pair needs width >= 2")
    return (delta_op(shape, (-1,)), LaurentOp.h(1, 0), delta_op(shape, (1,)))


# -- canonical GWA presentations and their Laurent embeddings --------------

def calA_presentation(shape):
    """GWA on X_i = x_i^{m_i}, Y_i = delta_{-m_i}(i) with steps m_i.

    Base elements a_i = phi(m_i, -m_i)(h_i); returns (presentation, embedding).
    """
    shape = as_shape(shape)
    n = shape.rank
    pres = GwaPresentation([phi(mi, -mi) for mi in shape.m], list(shape.m))
    xs, ys = [], []
    for i, mi in enumerate(shape.m):
        deg = tuple(mi if j == i else 0 for j in range(n))
        xs.append(LaurentOp.monomial(n, deg, 1))
        ys.append(LaurentOp.monomial(
            n, tuple(-v for v in deg), phi(mi, -mi).inject(n, i)))
    return pres, Embedding(pres, xs, ys)


def bbA_presentation(shape):
    """GWA on X_i = delta_1(i), Y_i = delta_{-1}(i) with steps 1; widths >= 2.

    Base elements a_i = h_i (h_i - 1)(h_i - m_i); returns
    (presentation, embedding).
    """
    shape = as_shape(shape)
    n = shape.rank
    if any(mi < 2 for mi in shape.m):
        raise ValueError("the degree one pair needs widths >= 2")
    h = BasePoly.variable(1, 0)
    pres = GwaPresentation([h * (h - 1) * (h - mi) for mi in shape.m],
                           [1] * n)
    xs, ys = [], []
    for i, mi in enumerate(shape.m):
        up = tuple(1 if j == i else 0 for j in range(n))
        xs.append(LaurentOp.monomial(n, up, phi(mi, 1).inject(n, i)))
        ys.append(LaurentOp.monomial(
            n, tuple(-v for v in up), phi(mi, -1).inject(n, i)))
    return pres, Embedding(pres, xs, ys)


def weyl_presentation(nvars: int):
    """The Weyl algebra as a GWA: X_i = x_i, Y_i = partial_i, a_i = h_i."""
    pres = GwaPresentation([BasePoly.variable(1, 0) for _ in range(nvars)],
                           [1] * nvars)
    xs = [LaurentOp.x(nvars, i) for i in range(nvars)]
    ys = [LaurentOp.d(nvars, i) for i in range(nvars)]
    return pres, Embedding(pres, xs, ys)
