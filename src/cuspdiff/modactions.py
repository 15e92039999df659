"""Actions of Laurent operators on Laurent polynomial modules.

The ambient module is the span of the monomials x^beta, beta in Z^n, with
(d * x^alpha) acting on x^beta as d evaluated at (alpha + beta + 1) times
x^{alpha+beta}; in particular h_i acts on x^beta as beta_i + 1.  Submodules
are cut out by masks on the exponent lattice; the quotient is always the one
by the subalgebra itself, A(m) = the span of the monomials in cusp_mask.

One rule, ExponentSet.escape_roots, says which monomials c(h) x^alpha moves
out of a mask: stability_check divides by its roots' product, and the rank
one probes and blocks, one walk (_walk), read links off vanishing_roots, the
rule on A(m).  No answer reads a window; where one is taken, it only guards
input.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import add, mul

from .exactpoly import (ArityMismatch, Frozen, NotDivisible, Value, _clean,
                        _norm_coef, coefficient_texts, exact_divide,
                        linear_factors, render_ideal, render_sum)
from .skewlaurent import (ExponentSet, Graded, LaurentOp, cusp_set,
                          vanishing_roots)
from .cuspops import as_shape, membership


class NotStable(ValueError):
    """An operator outside the ring was asked to act on a quotient."""


class LaurentVector(Graded):
    """Finite rational combination of monomials x^beta, beta in Z^n.

    A graded sum on skewlaurent.Graded whose coefficient rule is
    exactpoly's scalar one: an int or a Fraction (anything else raises
    TypeError), an integral one stored as an int.  Vectors add, subtract,
    negate and scale by scalars; operators act on them through act.
    """

    __slots__ = ()

    _coefficient = staticmethod(_norm_coef)

    def __pow__(self, n):  # a module, not a ring: vectors have no product
        return NotImplemented

    @classmethod
    def monomial(cls, nvars: int, degree, c=1) -> "LaurentVector":
        return cls(nvars, {tuple(degree): c})

    @property
    def coeffs(self) -> dict:
        return self.components

    def _coerce(self, other):
        return other if isinstance(other, LaurentVector) else NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._like(_clean({d: other * c
                                      for d, c in self.components.items()}))
        return NotImplemented

    def __repr__(self):
        return "LaurentVector(%s)" % render_vector(self)


def render_vector(v: LaurentVector) -> str:
    """Canonical text form, e.g. 3*x^2 - 2*x^-1 (see vector_forms)."""
    return vector_forms(v)[1]


def vector_forms(v: LaurentVector) -> tuple:
    """([(degree, coefficient text)] in support order, the text: render_sum in
    x over them, joined by ' + ' and ' - '), from one reading of v's digits."""
    texts = coefficient_texts((d, v.components[d]) for d in v.support())
    return texts, render_sum(texts, "x", v.nvars, " + ", " - ")


def act(u: LaurentOp, v: LaurentVector) -> LaurentVector:
    """Apply an operator to a vector.

    Componentwise, (d * x^alpha) sends x^beta to
    d(alpha_1 + beta_1 + 1, ..., alpha_n + beta_n + 1) x^{alpha + beta}.
    """
    out = {}
    for alpha, dpoly in _operator(u, v.nvars).components.items():
        for beta, c in v.components.items():
            deg = tuple(map(add, alpha, beta))
            scalar = dpoly.eval([k + 1 for k in deg])
            if scalar:
                out[deg] = out.get(deg, 0) + c * scalar
    return v._like(_clean(out))


def _operator(u, nvars: int) -> LaurentOp:
    """u, once it is checked to be an operator of arity nvars."""
    if not isinstance(u, LaurentOp):
        raise TypeError("expected an operator")
    if u.nvars != nvars:
        raise ArityMismatch("operator arity %d != vector arity %d"
                            % (u.nvars, nvars))
    return u


class GradedMask(Frozen):
    """Product mask on Z^n: one ExponentSet per factor.

    A monomial x^gamma is inside the mask when every coordinate lies in its
    factor's set; at rank >= 2 each factor needs a ray (see stability_check).
    A mask is a set of exponents only; quotient actions take the shape, not
    a mask (see act_on_quotient).
    """

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("mask needs at least one factor")
        for f in factors:
            if not isinstance(f, ExponentSet):
                raise TypeError("mask factors must be ExponentSet")
            if len(factors) > 1 and f.ge is None and f.le is None:
                raise ValueError("a mask of rank >= 2 needs a ray in every factor")
        object.__setattr__(self, "factors", factors)

    @property
    def nvars(self) -> int:
        return len(self.factors)

    def contains(self, degree) -> bool:
        if len(degree) != len(self.factors):
            raise ArityMismatch("degree %r has length != %d"
                                % (tuple(degree), self.nvars))
        return all(k in f for k, f in zip(degree, self.factors))

    def project_outside(self, v: LaurentVector) -> LaurentVector:
        return v._like({d: c for d, c in v.components.items()
                        if not self.contains(d)})


def cusp_mask(shape) -> GradedMask:
    """Exponent mask of the subalgebra itself: {0} union [m_i, infinity) per factor."""
    shape = as_shape(shape)
    return GradedMask([cusp_set(mi) for mi in shape.m])


def quotient_mask(shape) -> GradedMask:
    """Exponent mask of the quotient module: the complement, per factor.

    Only meaningful factorwise; a rank one quotient has basis exponents
    (-infinity, -1] union [1, m-1].
    """
    return GradedMask([ExponentSet(points=range(1, mi), le=-1)
                       for mi in as_shape(shape).m])


# The monomial modules by name, each with its mask and the mask it is acted
# on modulo: "A" is A(m) itself, "Aprime" the quotient A'(m) = K[x^+-1]/A(m).
MODULES = {"A": (cusp_mask, None), "Aprime": (quotient_mask, cusp_mask)}


def act_on_quotient(u, v: LaurentVector, shape) -> LaurentVector:
    """Action on the quotient of the Laurent module by the submodule A(m).

    A(m) is the span of the monomials in cusp_mask(shape), and it is stable
    under exactly the operators of the shape's ring; u must be one (else
    NotStable), so the induced action is well defined: apply, then discard
    every component inside the mask.
    """
    if not membership(u, shape):
        raise NotStable("operator is outside the ring; quotient action undefined")
    return cusp_mask(shape).project_outside(act(u, v))


@lru_cache(maxsize=None)
def _escape_divisor(factors, alpha):
    """The least coefficient at alpha that keeps the mask of the factors,
    prod (h_i - r) over factors_i.escape_roots(alpha_i); a per-process memo."""
    n = len(alpha)
    return reduce(mul, [linear_factors(f.escape_roots(a)).inject(n, i)
                        for i, (f, a) in enumerate(zip(factors, alpha))])


def stability_check(gens, mask: GradedMask, window=None) -> bool:
    """Whether every generator maps span{x^gamma : gamma in mask} into itself.

    A generator sends x^gamma to distinct degrees, so it keeps the span when
    each component c x^alpha does: when c vanishes at every gamma + alpha + 1
    with gamma in the mask and gamma + alpha not.  Those points fill the
    hyperplanes h_i = r, r an escape root of alpha_i, up to the other
    factors' sets, each with a ray and so Zariski dense: _escape_divisor must
    divide c.  The first component it does not divide answers False.  window
    is unused, accepted for callers that still pass one.
    """
    for g in gens:
        for alpha, c in _operator(g, mask.nvars).components.items():
            if any(alpha):
                try:
                    exact_divide(c, _escape_divisor(mask.factors, alpha))
                except NotDivisible:
                    return False
    return True


class WeightSupport(Value):
    """Support of a module over the base: the set of roots of its weight ideals.

    Stored as an ExponentSet of integer roots; the ideal at root r is (h - r),
    written around exactpoly.render_ideal(r), from one reading of r.
    """

    __slots__ = _fields = ("roots",)

    def contains_root(self, r: int) -> bool:
        return r in self.roots

    def __repr__(self):
        return "WeightSupport(%r)" % (self.roots,)

    def render(self) -> str:
        return self.roots.render(
            "{(h-j) : j <= %s}",
            lambda ps: " u ".join("{(%s)}" % render_ideal(p) for p in ps),
            "{(h-j) : j >= %s}")

    def to_json(self) -> dict:
        return self.roots.to_json()


def support(mask: GradedMask) -> WeightSupport:
    """Weight support of a masked monomial module at rank one.

    The monomial x^k is an h-eigenvector of eigenvalue k + 1, so the weight
    ideals are (h - k - 1) for k in the mask.
    """
    if mask.nvars != 1:
        raise ArityMismatch("weight supports are computed factorwise; rank 1 only")
    return WeightSupport(mask.factors[0].translate(1))


def _moved(m: int, k: int, exponents, mask: GradedMask | None) -> set:
    """The e in exponents whose x^e delta_k at width m sends to a nonzero
    vector modulo mask (A(m)) if given: delta_k x^e is
    phi(m, k)(e + k + 1) x^(e + k), zero exactly when e + k + 1 is one of
    vanishing_roots(m, k) or x^(e + k) lies in the mask.  delta_k is in the
    ring by construction, so its action modulo A(m) is defined."""
    roots = set(vanishing_roots(m, k))
    return {e for e in exponents if e + k + 1 not in roots
            and (mask is None or not mask.contains((e + k,)))}


def _walk(module: str, shape):
    """The rank one walk of a module of MODULES under delta_1 and delta_-1:
    (cut, by, exponents, up, down), with by the mask it is acted on modulo
    (or None), its exponents in [-cut, cut] and those that delta_1 and
    delta_-1 move, each found by one _moved.  The cut is m + 4: the pair's
    roots vanishing_roots(m, +-1) lie in [0, m], and both masks change only
    in [-1, m], so every link (k, k + 1) with k >= m + 3 or k + 1 <= -(m + 3)
    has the outcome of every link further out."""
    shape = as_shape(shape)
    if shape.rank != 1:
        raise ArityMismatch("the module walks are rank one")
    if module not in MODULES:
        raise ValueError("module must be 'A' or 'Aprime'")
    mask, by = (f(shape) if f else None for f in MODULES[module])
    cut = shape.m[0] + 4
    exponents = mask.factors[0].window(-cut, cut)
    up, down = (_moved(shape.m[0], s, exponents, by) for s in (1, -1))
    return cut, by, exponents, up, down


def simplicity_probe(module: str, shape, window: int,
                     gap_jump: int | None = None) -> bool:
    """Probe that each adjacent pair of module exponents is linked both ways.

    module is "A" (the subalgebra) or "Aprime" (its quotient in the Laurent
    module), walked by _walk.  Neighbours k, k + 1 need delta_1 up and
    delta_-1 down; a gap a < b needs delta_(b-a) up from x^a and delta_(a-b)
    down from x^b, and gap_jump replaces b - a, which is how a deliberately
    wrong probe is demonstrated.  The walk stops at m + 4, standing for all
    links beyond (see _walk), so the window, at least 2m + 2, only guards
    input.
    """
    m = as_shape(shape).m[0]
    if window < 2 * m + 2:
        raise ValueError("window %d too small; need at least %d"
                         % (window, 2 * m + 2))
    _, by, exponents, up, down = _walk(module, shape)

    def crossed(a, b):
        jump = b - a if gap_jump is None else gap_jump
        return _moved(m, jump, [a], by) and _moved(m, -jump, [b], by)

    return all(a in up and b in down if b == a + 1 else crossed(a, b)
               for a, b in zip(exponents, exponents[1:]))


def restriction_blocks(shape):
    """Connected blocks of the two monomial modules under the degree +-1 pair.

    Returns (blocks_A, blocks_Aprime): for each module, the partition of its
    exponents into components linked by nonzero delta_{+-1} transitions,
    described as ExponentSets.  The walk (_walk) covers [-(m + 4), m + 4],
    one link past the bound of the links; every link past
    it joins (the pair's coefficients are nonzero there, A'(m)'s ray lies
    outside A(m)), so a block reaching the cut is reported as a ray.

    The decomposition is what restriction to the subalgebra generated by
    delta_{+-1} and h sees: the wider gap-crossing generators are not
    available, so the gap disconnects each module into two blocks.
    """
    def blocks(module):
        cut, _, exponents, up, down = _walk(module, shape)
        out = []
        for k in exponents:
            if out and k == out[-1][-1] + 1 and (k - 1 in up or k in down):
                out[-1].append(k)
            else:
                out.append([k])
        return [ExponentSet(le=b[-1]) if b[0] == -cut else
                ExponentSet(ge=b[0]) if b[-1] == cut else
                ExponentSet(points=b) for b in out]

    return blocks("A"), blocks("Aprime")
