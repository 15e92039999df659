"""Actions of Laurent operators on Laurent polynomial modules.

The ambient module is the span of the monomials x^beta, beta in Z^n, with
(d * x^alpha) acting on x^beta as d evaluated at (alpha + beta + 1) times
x^{alpha+beta}; in particular h_i acts on x^beta as beta_i + 1.  Submodules
are cut out by masks on the exponent lattice; the quotient is always the one
by the subalgebra itself, A(m) = the span of the monomials in cusp_mask.

The sweeps stability_check, simplicity_probe and restriction_blocks stop at
a bound that the mask and the operators fix (proved at _saturation), so no
answer depends on a window; where one is taken, it only refuses input.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .exactpoly import (ArityMismatch, Frozen, Value, _clean, _integer,
                        _norm_coef, linear_factors, render_number,
                        render_poly, render_sum)
from .skewlaurent import Graded, LaurentOp
from .cuspops import as_shape, delta_op, membership


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
    """Canonical text form, e.g. 3*x^2 - 2*x^-1: render_sum in x over the
    support, terms joined by ' + ' and ' - '."""
    return render_sum(((d, v.components[d]) for d in v.support()), "x", v.nvars,
                      " + ", " - ")


def act(u: LaurentOp, v: LaurentVector) -> LaurentVector:
    """Apply an operator to a vector.

    Componentwise, (d * x^alpha) sends x^beta to
    d(alpha_1 + beta_1 + 1, ..., alpha_n + beta_n + 1) x^{alpha + beta}.
    """
    if not isinstance(u, LaurentOp):
        raise TypeError("expected an operator")
    if u.nvars != v.nvars:
        raise ArityMismatch("operator arity %d != vector arity %d"
                            % (u.nvars, v.nvars))
    out = {}
    for alpha, dpoly in u.components.items():
        for beta, c in v.components.items():
            deg = tuple(map(add, alpha, beta))
            scalar = dpoly.eval([k + 1 for k in deg])
            if scalar:
                out[deg] = out.get(deg, 0) + c * scalar
    return v._like(_clean(out))


class ExponentSet(Value):
    """Subset of Z given by finitely many points plus up and down rays.

    Points and bounds are ints or integral Fractions (a range of points is
    fine); anything else raises ValueError.
    """

    __slots__ = _fields = ("points", "ge", "le")

    def __init__(self, points=(), ge=None, le=None):
        object.__setattr__(self, "points", frozenset(
            _integer(p, "ExponentSet") for p in points))
        object.__setattr__(self, "ge",
                           None if ge is None else _integer(ge, "ExponentSet"))
        object.__setattr__(self, "le",
                           None if le is None else _integer(le, "ExponentSet"))

    def __contains__(self, k: int) -> bool:
        if k in self.points:
            return True
        if self.ge is not None and k >= self.ge:
            return True
        if self.le is not None and k <= self.le:
            return True
        return False

    def window(self, lo: int, hi: int) -> list[int]:
        return [k for k in range(lo, hi + 1) if k in self]

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


class GradedMask(Frozen):
    """Product mask on Z^n: one ExponentSet per factor.

    A monomial x^gamma is inside the mask when every coordinate lies in its
    factor's set.  A mask is a set of exponents only; quotient actions take
    the shape, not a mask (see act_on_quotient).
    """

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("mask needs at least one factor")
        for f in factors:
            if not isinstance(f, ExponentSet):
                raise TypeError("mask factors must be ExponentSet")
        object.__setattr__(self, "factors", factors)

    @property
    def nvars(self) -> int:
        return len(self.factors)

    def contains(self, degree) -> bool:
        if len(degree) != len(self.factors):
            raise ArityMismatch("degree %r has length != %d"
                                % (tuple(degree), self.nvars))
        return all(k in f for k, f in zip(degree, self.factors))

    def masked_monomials(self, window: int):
        """All degree vectors inside the mask with coordinates in [-window, window]."""
        axes = [f.window(-window, window) for f in self.factors]
        out = [()]
        for axis in axes:
            out = [v + (k,) for v in out for k in axis]
        return out

    def project_outside(self, v: LaurentVector) -> LaurentVector:
        return v._like({d: c for d, c in v.components.items()
                        if not self.contains(d)})


def cusp_mask(shape) -> GradedMask:
    """Exponent mask of the subalgebra itself: {0} union [m_i, infinity) per factor."""
    shape = as_shape(shape)
    return GradedMask([ExponentSet(points=(0,), ge=mi) for mi in shape.m])


def quotient_mask(shape) -> GradedMask:
    """Exponent mask of the quotient module: the complement, per factor.

    Only meaningful factorwise; a rank one quotient has basis exponents
    (-infinity, -1] union [1, m-1].
    """
    return GradedMask([ExponentSet(points=range(1, mi), le=-1)
                       for mi in as_shape(shape).m])


def act_on_quotient(u, v: LaurentVector, shape) -> LaurentVector:
    """Action on the quotient of the Laurent module by the submodule A(m).

    A(m) is the span of the monomials in cusp_mask(shape), and it is stable
    under exactly the operators of the shape's ring; u must be one (else
    NotStable), so the induced action is well defined: apply, then discard
    every component inside the mask.
    """
    _require_stable(u, shape)
    return cusp_mask(shape).project_outside(act(u, v))


def _require_stable(u, shape):
    """Raise NotStable unless u lies in the operator ring of the shape."""
    if not membership(u, shape):
        raise NotStable("operator is outside the ring; quotient action undefined")


def _saturation(mask: GradedMask, ops) -> int:
    """The exponent bound B past which a sweep of ops over mask is constant.

    E is the largest |point| or |ray start| of a mask factor.  A component
    c x^alpha of an op, with |alpha_i| <= A and degree <= D in each
    variable, sends x^gamma to c(gamma + alpha + 1) x^(gamma + alpha).

    Stability: gamma fails when it is in the mask, gamma + alpha is not, and
    c(gamma + alpha + 1) != 0.  If |gamma_i| >= E + A, then gamma_i and
    gamma_i + alpha_i lie on one ray, so only coordinates with |gamma_i| <=
    E + A - 1 leave the mask, and B = E + A - 1 at rank 1.  At rank n, c is
    a nonzero polynomial of degree <= D in any other coordinate t of a
    failure; it is nonzero at one of the D + 1 ray points E <= |t| <= E + D
    on t's side, and moving t there keeps a failure: B = E + max(A - 1, D).

    Links: the probes and blocks walk the degree +-1 pair of A(m) (E = m,
    A = 1), whose coefficients vanish only at vanishing_roots(m, +-1) in
    [0, m]; so every link (k, k + 1) with k >= m + 3 or k + 1 <= -(m + 3)
    has the outcome of every link further out, and they cut at m + 4.
    """
    extent = max((abs(v) for f in mask.factors
                  for v in (*f.points, f.ge, f.le) if v is not None), default=0)
    reach = degree = 0
    for op in ops:
        for alpha, c in op.components.items():
            if not any(alpha):
                continue  # x^gamma -> c(gamma + 1) x^gamma stays put
            reach = max(reach, *map(abs, alpha))
            if mask.nvars > 1:
                degree = max(degree, *map(max, c.terms))
    return extent + max(reach - 1, degree, 0)


def stability_check(gens, mask: GradedMask, window: int) -> bool:
    """Whether every generator maps every masked monomial into the mask.

    The walk goes to _saturation's bound B: c x^alpha moves no x^gamma past
    it across a mask end, and a c of degree D cannot vanish at D + 1 ray
    points.  The window caps the cost: one below B is refused, and every
    other window gives the answer of the walk to B.
    """
    gens = list(gens)
    bound = _saturation(mask, gens)
    if window < bound:
        raise ValueError("window %d below the sweep bound %d"
                         % (window, bound))
    for gamma in mask.masked_monomials(bound):
        vec = LaurentVector._trusted(mask.nvars, {gamma: 1})
        for g in gens:
            image = act(g, vec)
            for deg in image.components:
                if not mask.contains(deg):
                    return False
    return True


class WeightSupport(Value):
    """Support of a module over the base: the set of roots of its weight ideals.

    Stored as an ExponentSet of integer roots; the ideal at root r is (h - r),
    written render_poly(linear_factors([r])).
    """

    __slots__ = _fields = ("roots",)

    def contains_root(self, r: int) -> bool:
        return r in self.roots

    def __repr__(self):
        return "WeightSupport(%r)" % (self.roots,)

    def render(self) -> str:
        return self.roots.render(
            "{(h-j) : j <= %s}",
            lambda ps: " u ".join("{(%s)}" % render_poly(linear_factors([p]))
                                  for p in ps),
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


def _unit_pair(shape):
    """The degree +-1 pair (delta_1, delta_-1) of a rank one shape, read
    from the delta table: bbA's generator pair at width >= 2, the Weyl pair
    (x, partial) at width 1."""
    return delta_op(shape, (1,)), delta_op(shape, (-1,))


def _moved(op, exponents, mask: GradedMask | None) -> set:
    """The k in exponents whose x^k the one-degree op sends to a nonzero
    vector modulo mask (A(m)) if given, from one act on the sum of the x^k:
    op sends them to distinct degrees.  The caller checks op's membership."""
    (alpha,), = op.components
    image = act(op, LaurentVector._trusted(1, {(k,): 1 for k in exponents}))
    return {d - alpha for (d,) in image.components
            if mask is None or not mask.contains((d,))}


def simplicity_probe(module: str, shape, window: int,
                     gap_jump: int | None = None) -> bool:
    """Probe that each adjacent pair of module exponents is linked both ways.

    module is "A" (the subalgebra) or "Aprime" (its quotient in the Laurent
    module).  Runs of consecutive exponents are linked by the degree +-1
    generators; the gap between the two runs needs the wider generators, of
    degree +-m for "A" and +-2 for "Aprime".  gap_jump overrides the gap
    generator degree, which is how a deliberately wrong probe is demonstrated.
    A run stops at m + 4, standing for all links beyond (see _saturation),
    so the window, at least 2m + 2, only guards input.
    """
    shape = as_shape(shape)
    if shape.rank != 1:
        raise ArityMismatch("simplicity probes are rank one")
    m = shape.m[0]
    if window < 2 * m + 2:
        raise ValueError("window %d too small; need at least %d"
                         % (window, 2 * m + 2))
    up1, down1 = _unit_pair(shape)
    mask = cusp_mask(shape)
    cut = m + 4
    if module == "A":
        jump = m if gap_jump is None else gap_jump
        # at width 1, A(1) = K[x] is the one run [0, cut): no gap to cross
        runs, mask = [range(m if m > 1 else 0, cut)], None
        gap = (0, m) if m > 1 else None
    elif module == "Aprime":
        jump = 2 if gap_jump is None else gap_jump
        runs = [range(-cut, -1), range(1, m - 1)]
        # at width 1 the run [1, m-1] is empty, so there is no gap to cross
        gap = (-1, 1) if m > 1 else None
    else:
        raise ValueError("module must be 'A' or 'Aprime'")
    gap_up, gap_down = delta_op(shape, (jump,)), delta_op(shape, (-jump,))
    if mask is not None:
        for op in (up1, down1, gap_up, gap_down):
            _require_stable(op, shape)
    links = [k for run in runs for k in run]
    up = _moved(up1, links, mask)
    down = _moved(down1, [k + 1 for k in links], mask)
    return (all(k in up and k + 1 in down for k in links)
            and (gap is None or all(_moved(op, [k], mask) for op, k
                                    in zip((gap_up, gap_down), gap))))


def restriction_blocks(shape):
    """Connected blocks of the two monomial modules under the degree +-1 pair.

    Returns (blocks_A, blocks_Aprime): for each module, the partition of its
    exponents into components linked by nonzero delta_{+-1} transitions,
    described as ExponentSets.  The walk covers [-(m + 4), m + 4], one link
    past the bound of the links (see _saturation); every link past it joins
    (the pair's coefficients are nonzero there, A'(m)'s ray lies outside
    A(m)), so a block reaching the cut is reported as a ray.

    The decomposition is what restriction to the subalgebra generated by
    delta_{+-1} and h sees: the wider gap-crossing generators are not
    available, so the gap disconnects each module into two blocks.
    """
    shape = as_shape(shape)
    if shape.rank != 1:
        raise ArityMismatch("restriction blocks are rank one")
    up1, down1 = _unit_pair(shape)
    mask = cusp_mask(shape)
    _require_stable(up1, shape)
    _require_stable(down1, shape)
    cut = shape.m[0] + 4

    def blocks(exponents, quotient_by):
        up, down = (_moved(op, exponents, quotient_by) for op in (up1, down1))
        out = []
        for k in exponents:
            if out and k == out[-1][-1] + 1 and (k - 1 in up or k in down):
                out[-1].append(k)
            else:
                out.append([k])
        return [ExponentSet(le=b[-1]) if b[0] == -cut else
                ExponentSet(ge=b[0]) if b[-1] == cut else
                ExponentSet(points=b) for b in out]

    return (blocks(mask.factors[0].window(-cut, cut), None),
            blocks(quotient_mask(shape).factors[0].window(-cut, cut),
                   mask))
