"""Exact sparse polynomial arithmetic over Q in the shift variables h1, ..., hn.

Polynomials are the coefficient objects for everything else in this package:
operator coefficients, structure constants, weight scalars.  All arithmetic is
exact; there is no floating point anywhere.  Coefficients are stored as python
ints when integral and as fractions.Fraction otherwise, which keeps the common
all-integer computations on the fast path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd
from operator import or_


class ArityMismatch(ValueError):
    """Operands live over different numbers of variables."""


class NotDivisible(ArithmeticError):
    """Exact division was requested but the remainder is nonzero."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero polynomial."""


class ExponentOverflow(ValueError):
    """A multivariate exponent does not fit the field of its packed key."""


_FIELD = 32  # bits per variable in a packed key (see BasePoly)
_MASK = (1 << _FIELD) - 1


@lru_cache(maxsize=None)
def _guard(nvars: int) -> int:
    return 0 if nvars == 1 else sum(1 << _FIELD * i + _FIELD - 1 for i in range(nvars))


def _unpack(key: int, nvars: int) -> tuple:
    return (key,) if nvars == 1 else tuple(
        key >> at & _MASK for at in range(_FIELD * (nvars - 1), -1, -_FIELD))


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
    what validation stores, without re-checking the keys.
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
        if n == 0:
            return self._coerce(1)
        # square up to the lowest set bit, then fold in the higher ones
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        out = base
        while n > 1:
            n >>= 1
            base = base * base
            if n & 1:
                out = out * base
        return out


class BasePoly(RingOps):
    """Sparse multivariate polynomial with exact rational coefficients.

    The variables are written h1..hn (plain h when nvars == 1).  Instances are
    treated as immutable; no method mutates self.

    Stored terms invariant: ``_packed`` maps packed keys to nonzero
    coefficients, an integral one stored as an int, never as a Fraction.  A
    key has a _FIELD-bit field per variable, variable 0 most significant (one
    variable: the key is the exponent, of any size), so int order on keys is
    lex and keys add as exponents do.  Products and quotients refuse factors
    with a field's top bit set (_guard), so no sum carries between fields.
    ``terms`` is a read-only view by exponent tuple.

    Only the public constructor BasePoly(nvars, terms) validates; use it for
    every outside input.  Results the class computes itself (sums, negation,
    products, shifts, exact quotients, inject) already satisfy the invariant
    and are wrapped by the private _trusted constructor without re-checking.
    """

    __slots__ = ("nvars", "_packed")

    @staticmethod
    def _trusted(nvars: int, packed: dict) -> "BasePoly":
        """Wrap a packed dict that already satisfies the stored-terms invariant."""
        p = _new(BasePoly)
        _set_nvars(p, nvars)
        _set_packed(p, packed)
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
            if nvars > 1 and any(e > _MASK for e in exp):
                raise ExponentOverflow("exponent %r passes 2^%d" % (exp, _FIELD))
            c = _norm_coef(c)
            if c:
                clean[reduce(lambda key, e: key << _FIELD | e, exp, 0)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_packed", clean)

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

    @property
    def terms(self) -> dict:
        return {_unpack(key, self.nvars): c for key, c in self._packed.items()}

    def is_zero(self) -> bool:
        return not self._packed

    def is_constant(self) -> bool:
        return not self._packed or (len(self._packed) == 1 and 0 in self._packed)

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
        terms = dict(self._packed)
        for key, c in other._packed.items():
            terms[key] = terms.get(key, 0) + c
        return BasePoly._trusted(self.nvars, _clean(terms))

    __radd__ = __add__

    def __neg__(self):
        return BasePoly._trusted(self.nvars, {k: -c for k, c in self._packed.items()})

    def _is_one(self) -> bool:
        return len(self._packed) == 1 and self._packed.get(0) == 1

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
        left, right, guard = self._packed, other._packed, _guard(self.nvars)
        if guard and (reduce(or_, left, 0) | reduce(or_, right, 0)) & guard:
            raise ExponentOverflow("a factor has an exponent >= 2^%d" % (_FIELD - 1))
        terms = {}
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                key = e1 + e2
                terms[key] = terms.get(key, 0) + c1 * c2
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
        return self.nvars == other.nvars and self._packed == other._packed

    def __hash__(self):
        return hash((self.nvars, frozenset(self._packed.items())))

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
        n, packed = self.nvars, self._packed
        mask = _MASK if n > 1 else -1  # a univariate key is all exponent
        for i, ki in enumerate(k):
            if not ki:
                continue
            # Ruffini-Horner Taylor shift in h_i of each column of terms
            at, columns = _FIELD * (n - 1 - i), {}
            for key, c in packed.items():
                e = key >> at & mask
                columns.setdefault(key - (e << at), {})[e] = c
            packed = {}
            for rest, column in columns.items():
                a = [column.get(e, 0) for e in range(max(column) + 1)]
                d = len(a) - 1
                for low in range(d):
                    acc = a[d]
                    for e in range(d - 1, low - 1, -1):
                        acc = a[e] = a[e] - ki * acc
                packed.update((rest + (e << at), c) for e, c in enumerate(a) if c)
        return BasePoly._trusted(n, _clean(packed))

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
        total, mask = 0, (_MASK if self.nvars > 1 else -1)
        fields = [({}, x) for x in reversed(point)]  # power caches, last field first
        for key, c in self._packed.items():
            for powers, x in fields:
                e = key & mask
                if e:
                    if e not in powers:
                        powers[e] = x ** e
                    c *= powers[e]
                key >>= _FIELD
            total += c
        return Fraction(total)

    def inject(self, nvars: int, j: int) -> "BasePoly":
        """View a univariate polynomial as a polynomial in h_{j+1} of a larger ring."""
        if self.nvars != 1:
            raise ArityMismatch("inject expects a univariate polynomial")
        if not 0 <= j < nvars:
            raise ValueError("variable index %d out of range for nvars=%d" % (j, nvars))
        if nvars > 1 and max(self._packed, default=0) > _MASK:
            raise ExponentOverflow("exponent passes 2^%d" % _FIELD)
        return BasePoly._trusted(nvars, {e << _FIELD * (nvars - 1 - j): c
                                         for e, c in self._packed.items()})


# slot setters for BasePoly._trusted, which bypasses __init__ and __setattr__
_new = object.__new__
_set_nvars = BasePoly.nvars.__set__
_set_packed = BasePoly._packed.__set__


def exact_divide(p: BasePoly, q: BasePoly) -> BasePoly:
    """Return p / q when q divides p exactly, else raise NotDivisible.

    Reduction by the single divisor's leading term in the lex order of the
    packed keys decides exact divisibility: if p == c*q, the reduction can
    never get stuck, because a stuck remainder would be a multiple of q whose
    leading monomial is not divisible by the leading monomial of q.
    """
    if not isinstance(p, BasePoly) or not isinstance(q, BasePoly):
        raise TypeError("exact_divide expects BasePoly operands")
    if p.nvars != q.nvars:
        raise ArityMismatch("mixed arities %d and %d" % (p.nvars, q.nvars))
    if q.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if p.is_zero():
        return BasePoly.zero(p.nvars)
    qterms, guard = q._packed, _guard(p.nvars)
    if guard and (reduce(or_, p._packed) | reduce(or_, qterms)) & guard:
        raise ExponentOverflow("a factor has an exponent >= 2^%d" % (_FIELD - 1))
    qlead, qc = max(qterms.items())  # keys are distinct: coefficients never compared
    rem, quot = dict(p._packed), {}
    while rem:
        lead = max(rem)
        t = lead - qlead
        # a field of lead below qlead borrows: from the sign or a top bit
        if t < 0 or t & guard:
            raise NotDivisible("%s does not divide %s"
                               % (render_poly(q), render_poly(p)))
        c = quot[t] = _div_coef(rem[lead], qc)
        for qe, qco in qterms.items():
            ne = t + qe
            nc = rem.get(ne, 0) - c * qco
            if nc:
                rem[ne] = nc
            else:
                rem.pop(ne, None)
    return BasePoly._trusted(p.nvars, quot)


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
    val, deg = min(p._packed), max(p._packed)
    roots = [Fraction(0)] * val
    # primitive integer form, dense from the leading coefficient down
    denom_lcm = 1
    for c in p._packed.values():
        if c.__class__ is Fraction:
            denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    coeffs = [int(p._packed.get(e, 0) * denom_lcm) for e in range(deg, val - 1, -1)]
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
    terms = {top - k: _div_coef(c * scale, denom_lcm)
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


def _int_str(n: int) -> str:
    """Decimal digits of n, split in halves below the interpreter's str limit."""
    if n.bit_length() <= 12000:
        return str(n)
    m = n.bit_length() * 3 // 20  # about half the digits: log10(2) ~ 0.3
    hi, lo = divmod(abs(n), 10 ** m)
    return ("-" if n < 0 else "") + _int_str(hi) + _int_str(lo).zfill(m)


def _coef_str(c) -> str:
    if isinstance(c, Fraction):
        return "%s/%s" % (_int_str(c.numerator), _int_str(c.denominator))
    return _int_str(c)


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
