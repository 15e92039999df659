"""Exact sparse polynomial arithmetic over Q in the shift variables h1, ..., hn.

Polynomials are the coefficient objects for everything else in this package:
operator coefficients, structure constants, weight scalars.  All arithmetic is
exact; there is no floating point anywhere.  Coefficients are stored as python
ints when integral and as fractions.Fraction otherwise, which keeps the common
all-integer computations on the fast path.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from operator import add


class ArityMismatch(ValueError):
    """Operands live over different numbers of variables."""


class NotDivisible(ArithmeticError):
    """Exact division was requested but the remainder is nonzero."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero polynomial."""


def _norm_coef(c):
    # ints and integral Fractions are the same coefficient; store the int.
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError("coefficient must be int or Fraction, got %r" % type(c).__name__)


def _clean(terms: dict) -> dict:
    """Drop zero coefficients and store integral Fractions as int.

    For the int and Fraction values that arithmetic produces this is exactly
    what validation stores, without re-checking the exponents.
    """
    return {e: (c.numerator if c.__class__ is Fraction and c.denominator == 1 else c)
            for e, c in terms.items() if c}


def _div_coef(a, b):
    q = Fraction(a) / Fraction(b)
    return q.numerator if q.denominator == 1 else q


def grlex_key(exp: tuple[int, ...]):
    """Sort key for graded lexicographic order (total degree first, then lex)."""
    return (sum(exp), exp)


class RingOps:
    """Subtraction and powers, shared by the ring element classes.

    The class provides _coerce (returning NotImplemented for foreign
    operands), __add__, __neg__ and __mul__; the identity is _coerce(1).
    """

    __slots__ = ()

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be nonnegative integers")
        out = self._coerce(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


class BasePoly(RingOps):
    """Sparse multivariate polynomial with exact rational coefficients.

    The variables are written h1..hn (plain h when nvars == 1).  Instances are
    treated as immutable; no method mutates self.

    Stored terms invariant: ``terms`` maps exponent tuples of length nvars,
    whose entries are nonnegative ints, to nonzero coefficients, and an
    integral coefficient is stored as an int, never as a Fraction.

    Only the public constructor BasePoly(nvars, terms) validates; use it for
    every outside input.  Results the class computes itself (sums, negation,
    products, shifts, exact quotients, inject) already satisfy the invariant
    and are wrapped by the private _trusted constructor without re-checking.
    """

    __slots__ = ("nvars", "terms")

    @staticmethod
    def _trusted(nvars: int, terms: dict) -> "BasePoly":
        """Wrap a term dict that already satisfies the stored-terms invariant."""
        p = _new(BasePoly)
        _set_nvars(p, nvars)
        _set_terms(p, terms)
        return p

    def __init__(self, nvars: int, terms=None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        clean = {}
        for exp, c in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise ArityMismatch("exponent %r has length != %d" % (exp, nvars))
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent in polynomial term: %r" % (exp,))
            c = _norm_coef(c)
            if c:
                clean[exp] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BasePoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "BasePoly":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "BasePoly":
        return cls.constant(nvars, 1)

    @classmethod
    def constant(cls, nvars: int, c) -> "BasePoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, j: int) -> "BasePoly":
        """The variable h_{j+1} (0-based index j)."""
        if not 0 <= j < nvars:
            raise ValueError("variable index %d out of range for nvars=%d" % (j, nvars))
        exp = tuple(1 if k == j else 0 for k in range(nvars))
        return cls(nvars, {exp: 1})

    # -- predicates and views --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        # stored exponents are distinct, so only one term can be constant
        terms = self.terms
        return not terms or (len(terms) == 1 and not any(next(iter(terms))))

    def leading_term(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=grlex_key)
        return exp, self.terms[exp]

    def sorted_terms(self):
        """Terms in graded-lex descending order (the canonical order)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    # -- ring operations --------------------------------------------------

    def _check_arity(self, other: "BasePoly"):
        if self.nvars != other.nvars:
            raise ArityMismatch(
                "mixed arities %d and %d" % (self.nvars, other.nvars))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_arity(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return BasePoly._trusted(self.nvars, _clean(terms))

    __radd__ = __add__

    def __neg__(self):
        return BasePoly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def _is_one(self) -> bool:
        terms = self.terms
        return len(terms) == 1 and terms.get((0,) * self.nvars) == 1

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_arity(other)
        # instances are immutable, so a factor 1 can hand back the other one
        if self._is_one():
            return other
        if other._is_one():
            return self
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(add, e1, e2))
                terms[exp] = terms.get(exp, 0) + c1 * c2
        return BasePoly._trusted(self.nvars, _clean(terms))

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, BasePoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BasePoly.constant(self.nvars, other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BasePoly.constant(self.nvars, other)
        if not isinstance(other, BasePoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return "BasePoly(%d, %s)" % (self.nvars, render_poly(self))

    # -- shift, evaluation ------------------------------------------------

    def shift(self, k) -> "BasePoly":
        """Substitute h_i -> h_i - k_i for an integer vector k.

        This is the automorphism sigma^k of the coefficient ring; shift is a
        ring homomorphism and shift(shift(p, k), l) == shift(p, k + l).
        """
        k = tuple(map(int, k))
        if len(k) != self.nvars:
            raise ArityMismatch("shift vector has length %d, nvars=%d"
                                % (len(k), self.nvars))
        if not any(k) or self.is_constant():
            return self
        out = {}
        for exp, c in self.terms.items():
            # expand prod_i (h_i - k_i)^{e_i} over exponent prefixes, one
            # binomial row per variable; distinct prefixes never collide
            partial = [((), c)]
            for e, kj in zip(exp, k):
                if e == 0 or kj == 0:
                    partial = [(pe + (e,), pc) for pe, pc in partial]
                    continue
                row = [((t,), comb(e, t) * (-kj) ** (e - t)) for t in range(e + 1)]
                partial = [(pe + te, pc * rc) for pe, pc in partial for te, rc in row]
            for pe, pc in partial:
                out[pe] = out.get(pe, 0) + pc
        return BasePoly._trusted(self.nvars, _clean(out))

    def eval(self, point) -> Fraction:
        """Evaluate at a rational point (one value per variable).

        Integer points stay in int arithmetic: int coordinates are not boxed,
        so int coefficients at an int point sum as ints.  Only the other
        coordinates become Fractions, and the total is boxed as a Fraction
        once at the end.
        """
        point = [v if v.__class__ is int else Fraction(v) for v in point]
        if len(point) != self.nvars:
            raise ArityMismatch("point has length %d, nvars=%d"
                                % (len(point), self.nvars))
        total = 0
        powcache = [{} for _ in range(self.nvars)]
        for exp, c in self.terms.items():
            for j, e in enumerate(exp):
                if e:
                    powers = powcache[j]
                    if e not in powers:
                        powers[e] = point[j] ** e
                    c *= powers[e]
            total += c
        return Fraction(total)

    def inject(self, nvars: int, j: int) -> "BasePoly":
        """View a univariate polynomial as a polynomial in h_{j+1} of a larger ring."""
        if self.nvars != 1:
            raise ArityMismatch("inject expects a univariate polynomial")
        if not 0 <= j < nvars:
            raise ValueError("variable index %d out of range for nvars=%d" % (j, nvars))
        before, after = (0,) * j, (0,) * (nvars - j - 1)
        return BasePoly._trusted(
            nvars, {before + exp + after: c for exp, c in self.terms.items()})


# slot setters for BasePoly._trusted, which bypasses __init__ and __setattr__
_new = object.__new__
_set_nvars = BasePoly.nvars.__set__
_set_terms = BasePoly.terms.__set__


def exact_divide(p: BasePoly, q: BasePoly) -> BasePoly:
    """Return p / q when q divides p exactly, else raise NotDivisible.

    Reduction by the single divisor's graded-lex leading term decides exact
    divisibility: if p == c*q, the reduction can never get stuck, because a
    stuck remainder would be a multiple of q whose leading monomial is not
    divisible by the leading monomial of q.
    """
    if not isinstance(p, BasePoly) or not isinstance(q, BasePoly):
        raise TypeError("exact_divide expects BasePoly operands")
    if p.nvars != q.nvars:
        raise ArityMismatch("mixed arities %d and %d" % (p.nvars, q.nvars))
    if q.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if p.is_zero():
        return BasePoly.zero(p.nvars)
    qlead, qc = q.leading_term()
    rem = dict(p.terms)
    quot = {}
    while rem:
        exp = max(rem, key=grlex_key)
        if any(a < b for a, b in zip(exp, qlead)):
            raise NotDivisible("%s does not divide %s"
                               % (render_poly(q), render_poly(p)))
        t = tuple(a - b for a, b in zip(exp, qlead))
        c = _div_coef(rem[exp], qc)
        quot[t] = quot.get(t, 0) + c
        for qe, qco in q.terms.items():
            ne = tuple(a + b for a, b in zip(t, qe))
            nc = rem.get(ne, 0) - c * qco
            if nc:
                rem[ne] = nc
            else:
                rem.pop(ne, None)
    return BasePoly._trusted(p.nvars, _clean(quot))


def divides(q: BasePoly, p: BasePoly) -> bool:
    try:
        exact_divide(p, q)
        return True
    except NotDivisible:
        return False


# -- rational roots -------------------------------------------------------

def _divisors(n: int) -> list[int]:
    """Positive divisors of |n|, n != 0, by trial division."""
    n = abs(n)
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    divs = [1]
    for prime, mult in factors.items():
        divs = [dv * prime ** e for dv in divs for e in range(mult + 1)]
    return sorted(divs)


def _horner(coeffs, num: int, den: int) -> int:
    """den^d * P(num/den) for P with integer coeffs listed from the leading one down."""
    acc, dpow = coeffs[0], 1
    for c in coeffs[1:]:
        dpow *= den
        acc = acc * num + c * dpow
    return acc


def _deflate(coeffs, num: int, den: int) -> list[int]:
    """P / (den*h - num) by synthetic division, for a root num/den of P.

    With gcd(num, den) == 1 and P integral the quotient is integral (Gauss's
    lemma), so every step is an exact integer division.
    """
    quot, carry = [], 0
    for c in coeffs[:-1]:
        carry = (c + num * carry) // den
        quot.append(carry)
    return quot


def rational_roots(p: BasePoly):
    """All rational roots of a univariate polynomial, with multiplicity.

    Returns (roots, cofactor) where roots is an ascending list of Fractions
    (repeated according to multiplicity) and cofactor is the polynomial left
    after dividing out every (h - root) factor; the cofactor has no rational
    root and keeps the leading coefficient, so
    p == cofactor * prod (h - root).

    Roots at 0 come off the trailing exponent.  The rest of the search works
    on the dense list of the primitive integer coefficients of p.  By the
    rational root theorem each other root is num/den in lowest terms, with
    den dividing the leading coefficient and num the constant term; these
    are tried as plain int pairs of both signs, and only while they still
    divide the current quotient's end coefficients.  A pair is tested by
    homogeneous integer Horner, sum a_i num^i den^(d-i), and each hit is
    divided out by exact integer synthetic division by (den*h - num), then
    tried again for a repeated root.  The integer quotient is scaled back
    once at the end, by content * prod(den) / lcm of the denominators, so
    the cofactor keeps the leading coefficient of p.
    """
    if p.nvars != 1:
        raise ArityMismatch("rational_roots expects a univariate polynomial")
    if p.is_zero():
        raise ValueError("the zero polynomial has every root")
    # roots at 0 come from the trailing exponent
    val = min(e for (e,) in p.terms)
    deg = max(e for (e,) in p.terms)
    roots = [Fraction(0)] * val
    # primitive integer form, dense from the leading coefficient down
    denom_lcm = 1
    for c in p.terms.values():
        if c.__class__ is Fraction:
            denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    coeffs = [int(p.terms.get((e,), 0) * denom_lcm) for e in range(deg, val - 1, -1)]
    scale = 0
    for c in coeffs:
        scale = gcd(scale, c)
    coeffs = [c // scale for c in coeffs]
    dens = _divisors(coeffs[0])
    pairs = ((sign * num, den)
             for num in _divisors(coeffs[-1])
             for den in dens if gcd(num, den) == 1
             for sign in (-1, 1))
    for num, den in pairs:
        while (len(coeffs) > 1 and coeffs[0] % den == 0
               and coeffs[-1] % num == 0 and _horner(coeffs, num, den) == 0):
            coeffs = _deflate(coeffs, num, den)
            scale *= den
            roots.append(Fraction(num, den))
        if len(coeffs) == 1:
            break
    # p == h^val * (scale / denom_lcm) * coeffs * prod (h - root) over the other roots
    top = len(coeffs) - 1
    terms = {(top - k,): _div_coef(c * scale, denom_lcm)
             for k, c in enumerate(coeffs) if c}
    roots.sort()
    return roots, BasePoly._trusted(1, terms)


def linear_factors(roots, nvars: int = 1, j: int = 0) -> BasePoly:
    """prod (h_{j+1} - r) over the given roots, as a polynomial in nvars variables."""
    out = BasePoly.one(nvars)
    h = BasePoly.variable(nvars, j)
    for r in roots:
        out = out * (h - BasePoly.constant(nvars, Fraction(r)))
    return out


# -- canonical text form --------------------------------------------------

def _var_names(nvars: int) -> list[str]:
    if nvars == 1:
        return ["h"]
    return ["h%d" % (i + 1) for i in range(nvars)]


def _coef_str(c) -> str:
    if isinstance(c, Fraction):
        return "%d/%d" % (c.numerator, c.denominator)
    return str(c)


def render_poly(p: BasePoly) -> str:
    """Canonical text form: graded-lex descending terms, e.g. h^2-3*h+2."""
    if p.is_zero():
        return "0"
    names = _var_names(p.nvars)
    chunks = []
    for exp, c in p.sorted_terms():
        factors = []
        for name, e in zip(names, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append("%s^%d" % (name, e))
        negative = c < 0
        mag = -c if negative else c
        if not factors:
            body = _coef_str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_coef_str(mag)] + factors)
        if not chunks:
            chunks.append(("-" if negative else "") + body)
        else:
            chunks.append(("-" if negative else "+") + body)
    return "".join(chunks)


def poly_to_json(p: BasePoly) -> dict:
    return {
        "nvars": p.nvars,
        "terms": [{"exp": list(exp), "coef": _coef_str(c)}
                  for exp, c in p.sorted_terms()],
    }
