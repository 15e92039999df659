"""Differential operators on cusp-type monomial subalgebras.

For a width vector (m_1, ..., m_n) the subalgebra of polynomials spanned by 1
and the monomials x_i^j with j >= m_i in each factor has a ring of
differential operators that embeds in the skew Laurent ring.  Its graded
component in degree alpha is the left ideal generated by
delta_alpha = prod_i phi(m_i, alpha_i)(h_i) * x^alpha, so membership is a
divisibility condition coefficient by coefficient: an element is a member
exactly when its decomposition over the deltas succeeds.  This module builds
the graded generators per factor, decomposes elements, decides membership and
produces the structure constants that rewrite products of generators.  Each
named algebra (calA, bbA, weyl) is fixed by one pair of graded generators per
factor, and its GWA presentation is read off those pairs.  The graded
divisors, the deltas and the embeddings (one per algebra and generator
widths) are per-process tables; presentation() adds a new, equal presentation.
The structure relations read three more tables.  A relation's case label
and residual depend only on m and s = i + j, so they are worked out once per
(m, s); the vanishing roots of the indices i, j and i + j are kept per
(m, k) as tuples; and the product of a residual's deltas is kept per
(m, residual).  Each holds 8m - 3 keys per width m, as a residual determines
its s.  Nothing is kept per (m, i, j).  as_shape interns its int and tuple
inputs the same way, one shared CuspShape per distinct input.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import mul

from .exactpoly import (ArityMismatch, BasePoly, NotDivisible, Value,
                        _integer, linear_factors)
from .gwa import Embedding, GwaPresentation
# phi is re-exported: the package root and the bench read cuspops.phi
from .skewlaurent import (LaurentOp, graded_divisor, graded_quotients, phi,
                          unit, vanishing_roots)


class CuspShape(Value):
    """Width vector of the subalgebra, one entry per tensor factor: each a
    positive int or integral Fraction, else ValueError."""

    __slots__ = _fields = ("m",)

    def __init__(self, m):
        if isinstance(m, int):
            m = (m,)
        m = tuple(_integer(v, "CuspShape") for v in m)
        if not m:
            raise ValueError("shape needs at least one factor")
        if any(v < 1 for v in m):
            raise ValueError("widths must be positive integers")
        super().__init__(m)

    @property
    def rank(self) -> int:
        return len(self.m)

    def __repr__(self):
        return "CuspShape(%s)" % (self.m,)


# interned shapes: one table per input class, so 2.0 never finds the shape of 2
_shapes = {int: {}, tuple: {}}


def as_shape(shape) -> CuspShape:
    """shape as a CuspShape; every int or tuple input gives one shared object.

    Other inputs (a list, say) build a new CuspShape each call.  Invalid
    inputs raise as CuspShape does and are never stored.
    """
    if isinstance(shape, CuspShape):
        return shape
    table = _shapes.get(shape.__class__)
    if table is None:
        return CuspShape(shape)
    try:
        hit = table.get(shape)
    except TypeError:  # a tuple holding an unhashable entry
        return CuspShape(shape)
    if hit is None:
        hit = table[shape] = CuspShape(shape)
    elif shape.__class__ is tuple and sum(shape).__class__ is not int:
        return CuspShape(shape)  # (2.0,) finds (2,) but sums to a float
    return hit


def _require_rank_one(shape: CuspShape) -> int:
    if shape.rank != 1:
        raise ArityMismatch("this operation is defined factorwise; rank 1 only")
    return shape.m[0]


def _graded_key(shape, alpha):
    """(widths, alpha) as int tuples, with alpha checked against the rank."""
    shape = as_shape(shape)
    alpha = tuple(map(int, alpha))
    if len(alpha) != shape.rank:
        raise ArityMismatch("degree %r has length != %d" % (alpha, shape.rank))
    return shape.m, alpha


def phi_multi(shape, alpha) -> BasePoly:
    """prod_i phi(m_i, alpha_i) as a polynomial in h_1..h_n."""
    return graded_divisor(*_graded_key(shape, alpha))


def delta_op(shape, alpha) -> LaurentOp:
    """The graded generator phi(m, alpha)(h) * x^alpha of the operator ring.

    Memoized per process by (widths, alpha): callers share one immutable
    LaurentOp per key.
    """
    return _delta(*_graded_key(shape, alpha))


@lru_cache(maxsize=None)
def _delta(widths, alpha) -> LaurentOp:
    return LaurentOp.monomial(len(widths), alpha, graded_divisor(widths, alpha))


def _as_op(u) -> LaurentOp:
    if isinstance(u, LaurentOp):
        return u
    if isinstance(u, BasePoly):
        return LaurentOp.from_poly(u)
    raise TypeError("expected LaurentOp or BasePoly")


def membership(u, shape) -> bool:
    """Whether u lies in the operator ring of the shape: whether its
    decomposition over the deltas succeeds."""
    # not through decompose: bench/spans.py counts calls to that name
    try:
        graded_quotients(_as_op(u), as_shape(shape).m)
    except NotDivisible:
        return False
    return True


def decompose(u, shape) -> dict:
    """Coefficients c_alpha with u = sum c_alpha * delta_alpha, in support
    order (skewlaurent.graded_quotients).

    Raises NotDivisible when u is outside the operator ring.
    """
    return graded_quotients(_as_op(u), as_shape(shape).m)


class StructureRelation(Value):
    """The rewriting of delta_i * delta_j at width m as coefficient times
    residual deltas.

    coefficient multiplies the residual product from the left; residual is a
    tuple of (index, power) pairs naming delta factors in order.  With
    s = i + j and k = max(0, |s| // m - 1), the residual is
    delta_{s - sign(s) k m} delta_{sign(s) m}^k: the first factor's index
    is below 2m in size, and k is 0, 1 or 2 for 1 <= |i|, |j| <= 2m - 1.
    The case label names the window of s that gives k, e.g.
    "2m <= i+j < 3m" for k = 1 and s > 0.  Case and residual depend on
    (m, i + j) alone, so both are read from a per-(m, i + j) table shared by
    every pair with that sum.

    Each residual product equals delta_{i+j} exactly (deltas of indices past
    the width multiply by concatenation), so the coefficient is the exact
    quotient phi_i * shift(phi_j, i) / phi_{i+j}; exactness is a consequence
    of the ring being closed under multiplication.  All three are products
    of (h - r) over vanishing_roots (shift by i adds i to each root), so the
    quotient is the product over a root multiset difference; the roots are
    read from a per-(m, k) table of tuples.
    """

    __slots__ = _fields = ("m", "i", "j", "case", "coefficient", "residual")

    def rhs_op(self, shape) -> LaurentOp:
        """coefficient * (product of the residual deltas), in the Laurent ring.

        shape must be the relation's width m.  The residual product is the
        Laurent product of the generators, read from a per-process table
        keyed by (m, residual) and computed on first use.  It is one
        monomial, and the degree zero coefficient on its left shifts
        nothing, so the right-hand side is that monomial's coefficient
        scaled by this one.
        """
        m = _require_rank_one(as_shape(shape))
        if m != self.m:
            raise ValueError("relation of width %d read at width %d"
                             % (self.m, m))
        residual = _delta_product(m, self.residual)
        (degree, poly), = residual.components.items()
        return residual._like({degree: self.coefficient * poly})

    def __repr__(self):
        return "StructureRelation(i=%d, j=%d, case=%r)" % (self.i, self.j,
                                                           self.case)


@lru_cache(maxsize=None)
def _window(m: int, s: int):
    """(case, residual) of the structure constants with i + j = s at width m,
    a per-process table of 8m - 3 keys per width."""
    sign = 1 if s > 0 else -1
    k = max(0, abs(s) // m - 1)
    first = (s - sign * k * m, 1)
    if k == 0:
        return "|i+j| < 2m", (first,)
    if s > 0:
        return "%dm <= i+j < %dm" % (k + 1, k + 2), (first, (m, k))
    return "-%dm < i+j <= -%dm" % (k + 2, k + 1), (first, (-m, k))


@lru_cache(maxsize=None)
def _roots(m: int, k: int) -> tuple:
    """vanishing_roots(m, k) as a tuple, a per-process table: the indices
    i, j and i + j of the structure constants give 8m - 3 keys per width."""
    return tuple(vanishing_roots(m, k))


@lru_cache(maxsize=None)
def _delta_product(m: int, residual) -> LaurentOp:
    """The product of the deltas a residual names, in order, a per-process
    table keyed by (m, residual)."""
    return reduce(mul, [delta_op(m, (index,)) ** power
                        for index, power in residual])


def structure_constant(shape, i: int, j: int) -> StructureRelation:
    """Structure constant for delta_i * delta_j at rank one.

    Defined for 1 <= |i|, |j| <= 2m - 1.  See StructureRelation for the case
    table and why the division is exact; the coefficient is read off the
    root multisets, the roots of i plus the roots of j moved by +i, less
    the roots of i + j, each read from the per-(m, k) roots table.  Nothing
    is kept per (m, i, j): each call builds a new relation.
    """
    m = _require_rank_one(as_shape(shape))
    for idx in (i, j):
        if idx == 0 or abs(idx) > 2 * m - 1:
            raise ValueError("index %d out of range; need 1 <= |index| <= %d"
                             % (idx, 2 * m - 1))
    s = i + j
    case, residual = _window(m, s)
    top = [*_roots(m, i), *[r + i for r in _roots(m, j)]]
    rest = top[:]
    for r in _roots(m, s):
        if r not in rest:
            raise NotDivisible(*(linear_factors(sorted(roots))
                                 for roots in (_roots(m, s), top)))
        rest.remove(r)
    rest.sort()
    return StructureRelation(m, i, j, case, linear_factors(rest), residual)


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


def factor_generators(shape, i: int) -> list[LaurentOp]:
    """h_i, then delta(k e_i) and delta(-k e_i) for k = 1 .. 2 m_i - 1."""
    shape = as_shape(shape)
    n = shape.rank
    gens = [LaurentOp.h(n, i)]
    for k in range(1, 2 * shape.m[i]):
        for signed in (k, -k):
            gens.append(delta_op(shape, unit(n, i, signed)))
    return gens


def generating_set(shape) -> list[LaurentOp]:
    """The factor generators of every factor in turn."""
    shape = as_shape(shape)
    return [g for i in range(shape.rank) for g in factor_generators(shape, i)]


# -- canonical GWA presentations and their Laurent embeddings --------------

def generator_pair(shape, algebra: str, i: int):
    """(X_i, Y_i) = (delta_{k e_i}, delta_{-k e_i}) of a named algebra.

    calA takes k = m_i, so X_i = x_i^{m_i} since phi(m, k) = 1 for k >= m;
    bbA takes k = 1 and needs m_i >= 2; weyl is the bbA pair at widths
    (1, ..., 1), which is (x_i, partial_i) whatever the shape.
    """
    shape = as_shape(shape)
    if algebra == "weyl":
        shape = CuspShape((1,) * shape.rank)
    elif algebra == "bbA" and shape.m[i] < 2:
        raise ValueError("the degree one pair needs width >= 2")
    elif algebra not in ("bbA", "calA"):
        raise ValueError("no canonical presentation for algebra %r" % algebra)
    k = shape.m[i] if algebra == "calA" else 1
    return (delta_op(shape, unit(shape.rank, i, k)),
            delta_op(shape, unit(shape.rank, i, -k)))


def embedding(shape, algebra: str) -> Embedding:
    """The one embedding of a named algebra that the process keeps, keyed
    by the widths its generators live on: (1, ..., 1) for every weyl shape."""
    widths = as_shape(shape).m
    if algebra == "weyl":
        widths = (1,) * len(widths)
    return _canonical(widths, algebra)


def presentation(shape, algebra: str):
    """The GWA of a named algebra, new and with empty caches, and the
    table's embedding, whose equal presentation pulled-back elements carry."""
    emb = embedding(shape, algebra)
    return GwaPresentation(emb.presentation.a, emb.presentation.steps), emb


@lru_cache(maxsize=None)
def _canonical(widths, algebra: str) -> Embedding:
    """embedding()'s table entry, its relations proved once per key: the step
    s_i is the degree of X_i, and a_i the coefficient of the structure
    constant of delta_{-s_i} delta_{s_i} at width m_i, built from its roots
    and recording them; the Embedding proves it equal to Y_i X_i."""
    xs, ys = zip(*(generator_pair(widths, algebra, i)
                   for i in range(len(widths))))
    steps = [x.support()[0][i] for i, x in enumerate(xs)]
    return Embedding(GwaPresentation(
        [structure_constant(m, -s, s).coefficient
         for m, s in zip(widths, steps)], steps), xs, ys)


def calA_presentation(shape):
    """presentation(shape, "calA")."""
    return presentation(shape, "calA")


def bbA_presentation(shape):
    """presentation(shape, "bbA")."""
    return presentation(shape, "bbA")


def weyl_presentation(nvars: int):
    """presentation((1,) * nvars, "weyl"): a_i = h_i, steps 1."""
    return presentation((1,) * nvars, "weyl")
