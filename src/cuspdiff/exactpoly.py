"""Exact sparse polynomial arithmetic over Q in the shift variables h1, ..., hn.

Polynomials are the coefficient objects for everything else in this package:
operator coefficients, structure constants, weight scalars.  All arithmetic is
exact; there is no floating point anywhere.  Coefficients are stored as python
ints when integral and as fractions.Fraction otherwise, which keeps the common
all-integer computations on the fast path.

The private base Frozen makes every value class of the package immutable.
Its subclass Value gives the plain-data ones equality and hashing by fields,
and its subclass RingOps is the one body of a finite sum of nonzero terms:
BasePoly here and skewlaurent's graded sums keep only their keys,
coefficient rule, product, shift and text.  The cleaning rule is RingOps's.

Every exact value of the package becomes text here and nowhere else:
render_number writes an int or Fraction of any size (past the interpreter's
4300-digit str() limit), coefficient_texts is the one reader of a sum's
coefficients, render_sum writes a signed sum from their texts, render_poly
is that sum in h, render_ideal the generator h - r of an ideal (h - r) from
r alone, and poly_forms gives both the --json rows and render_poly's text
from one reading.  The operator, GWA and vector forms and every ideal,
root, weight and orbit representative the CLI prints are built from these.
read_int is the way back for integers: any length of digits.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd
from operator import or_


class ArityMismatch(ValueError):
    """Operands live over different numbers of variables."""


class NotDivisible(ArithmeticError):
    """Exact division was requested but the remainder is nonzero.

    Raised with the divisor q and the dividend p, it renders its text
    "<q> does not divide <p>" only when read, so a caller that just catches
    it renders nothing.  Raised with one string, that string is its text.
    """

    def __str__(self):
        if len(self.args) == 2:
            return "%s does not divide %s" % tuple(map(render_poly, self.args))
        return super().__str__()


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
    return (key,) if nvars == 1 else tuple([
        key >> at & _MASK for at in range(_FIELD * (nvars - 1), -1, -_FIELD)])


def _norm_coef(c, what="coefficient"):
    """The one scalar gate: c as an int, or a Fraction when not integral.
    An int is tested by class, so a bool is refused; anything but an int or
    Fraction raises TypeError, naming c as what."""
    if c.__class__ is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError("%s must be int or Fraction, got %r"
                    % (what, type(c).__name__))


def _integer(v, owner: str) -> int:
    """v as an int that _norm_coef admits, else ValueError for owner."""
    try:
        n = _norm_coef(v)
    except TypeError:
        n = None
    if n.__class__ is not int:
        raise ValueError("%s needs integers, got %r" % (owner, v))
    return n


def _clean(terms: dict) -> dict:
    """Drop zero coefficients and store integral Fractions as int.

    For the int, Fraction and BasePoly values that arithmetic produces this
    is exactly what validation stores, without re-checking the keys.
    """
    return {e: (c.numerator if c.__class__ is Fraction and c.denominator == 1 else c)
            for e, c in terms.items() if c}


def _div_coef(a, b):
    if a.__class__ is int and b.__class__ is int and a % b == 0:
        return a // b
    q = Fraction(a) / Fraction(b)
    return q.numerator if q.denominator == 1 else q


def _taylor(a: list, k: int) -> list:
    """sum_e a_e (h - k)^e as a dense list, lowest degree first, by Ruffini-Horner.

    a is the dense list of sum_e a_e h^e and is overwritten in place.
    """
    d = len(a) - 1
    for low in range(d):
        acc = a[d]
        for e in range(d - 1, low - 1, -1):
            acc = a[e] = a[e] - k * acc
    return a


def grlex_key(exp: tuple[int, ...]):
    """Sort key for graded lexicographic order (total degree first, then lex)."""
    return (sum(exp), exp)


class Frozen:
    """Base of the immutable classes: assigning an attribute raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)


class Value(Frozen):
    """A Frozen class equal and hashed by the slots _fields names.

    The default constructor stores one value per _fields entry, in order and
    as given (TypeError on a wrong count), so a record needs no __init__ of
    its own; one that validates or converts its input passes the results on
    to it.  Objects of different classes are never equal.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError("%s has %d fields, got %d values"
                            % (type(self).__name__, len(self._fields),
                               len(values)))
        for field, value in zip(self._fields, values):
            object.__setattr__(self, field, value)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __hash__(self):
        return hash((self.__class__, *(getattr(self, f) for f in self._fields)))


class RingOps(Frozen):
    """The one body of a finite sum, shared by the ring element classes.

    components maps keys to nonzero coefficients, an integral one stored as
    an int, never as a Fraction; nvars is the number of variables.  This
    base holds what every sum does alike: is_zero, the arity check, sums,
    negation, subtraction, powers, equality and hashing.  The class provides
    _trusted(nvars, components), _coerce (returning NotImplemented for
    foreign operands) and __mul__; the identity is _coerce(1).

    Cleaning rule: _trusted and _like wrap a dict that already holds no
    zero, unchecked.  Arithmetic that can cancel (a sum, a product, an
    action) passes its dict through _clean first; negation cannot cancel.
    """

    __slots__ = ("nvars", "components")

    def is_zero(self) -> bool:
        return not self.components

    def _check_arity(self, other):
        if self.nvars != other.nvars:
            raise ArityMismatch("mixed arities %d and %d"
                                % (self.nvars, other.nvars))

    def _like(self, components: dict):
        """An element of self's ring holding components, as _trusted."""
        return self._trusted(self.nvars, components)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_arity(other)
        comps = dict(self.components)
        for key, c in other.components.items():
            prev = comps.get(key)
            comps[key] = c if prev is None else prev + c
        return self._like(_clean(comps))

    __radd__ = __add__

    def __neg__(self):
        return self._like({key: -c for key, c in self.components.items()})

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (TypeError, ValueError):  # a bool, another arity or ring
            return False
        if other is NotImplemented:
            return NotImplemented
        return self.nvars == other.nvars and self.components == other.components

    def __hash__(self):
        # equal across _coerce, so hashed alike: the zero as 0, and a lone
        # term at the zero key (0, or the zero degree) as its coefficient
        (key, c), *more = self.components.items() or [(0, 0)]
        if not more and key in (0, (0,) * self.nvars):
            return hash(c)
        return hash((self.nvars, frozenset(self.components.items())))

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

    Stored terms invariant: ``components`` maps packed keys to nonzero
    coefficients, as RingOps states it.  A key has a _FIELD-bit field per
    variable, variable 0 most significant (one variable: the key is the
    exponent, of any size), so int order on keys is lex and keys add as
    exponents do.  Products and quotients refuse factors with a field's top
    bit set (_guard), so no sum carries between fields.  ``terms`` is a
    read-only view by exponent tuple.

    Only the public constructor BasePoly(nvars, terms) validates; use it for
    every outside input.  Results the class computes itself (sums, negation,
    products, shifts, exact quotients, inject) are wrapped by the private
    _trusted constructor without re-checking, under RingOps's cleaning rule.
    """

    # _roots is None until the roots are known: linear_factors records them
    # on what it builds from them, and rational_roots what its search finds;
    # no arithmetic carries them (see rational_roots)
    __slots__ = ("_roots",)

    @staticmethod
    def _trusted(nvars: int, packed: dict) -> "BasePoly":
        """Wrap a packed dict that already satisfies the stored-terms invariant."""
        p = _new(BasePoly)
        _set_nvars(p, nvars)
        _set_components(p, packed)
        _set_roots(p, None)
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
        object.__setattr__(self, "components", clean)
        object.__setattr__(self, "_roots", None)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "BasePoly":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "BasePoly":
        return cls.constant(nvars, 1)

    @classmethod
    def constant(cls, nvars: int, c) -> "BasePoly":
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        c = _norm_coef(c)
        return BasePoly._trusted(nvars, {0: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, j: int) -> "BasePoly":
        """The variable h_{j+1} (0-based index j)."""
        if not 0 <= j < nvars:
            raise ValueError("variable index %d out of range for nvars=%d" % (j, nvars))
        return BasePoly._trusted(nvars, {1 << _FIELD * (nvars - 1 - j): 1})

    # -- predicates and views --------------------------------------------

    @property
    def terms(self) -> dict:
        return {_unpack(key, self.nvars): c for key, c in self.components.items()}

    def __bool__(self) -> bool:
        # falsy at zero, as an int or Fraction coefficient is, so that _clean
        # drops zero coefficients of either kind
        return bool(self.components)

    def is_constant(self) -> bool:
        terms = self.components
        return not terms or (len(terms) == 1 and 0 in terms)

    def sorted_terms(self):
        """Terms in graded-lex descending order (the canonical order), read
        off the packed keys: int order on keys is lex on exponents."""
        n, packed = self.nvars, self.components
        if n == 1:
            return [((e,), packed[e]) for e in sorted(packed, reverse=True)]
        terms = sorted([(sum(e), key, e, c) for key, c in packed.items()
                        for e in [_unpack(key, n)]], reverse=True)
        return [(e, c) for _, _, e, c in terms]

    # -- ring operations --------------------------------------------------

    # entries of this class's own dict, so that wrapping them (as
    # bench/spans.py does) leaves the other sums alone
    __add__ = __radd__ = RingOps.__add__

    def _is_one(self) -> bool:
        return len(self.components) == 1 and self.components.get(0) == 1

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
        left, right, guard = self.components, other.components, _guard(self.nvars)
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

    def __repr__(self):
        return "BasePoly(%d, %s)" % (self.nvars, render_poly(self))

    # -- shift, evaluation ------------------------------------------------

    def shift(self, k) -> "BasePoly":
        """Substitute h_i -> h_i - k_i for an integer vector k.

        This is the automorphism sigma^k of the coefficient ring; shift is a
        ring homomorphism and shift(shift(p, k), l) == shift(p, k + l).

        It is a Ruffini-Horner Taylor shift, with two paths.  At nvars == 1
        it runs one pass over the dense coefficient list.  At nvars > 1 it
        splits the terms into columns by their exponent in h_i and runs one
        pass per column, for each variable h_i that moves (k_i != 0) and
        that some term involves.  When nothing moves (a zero vector, a
        constant, or no term in a moved variable) it returns self.  A
        shifted polynomial records no roots, as no product does (see
        rational_roots).
        """
        k = tuple(map(int, k))
        if len(k) != self.nvars:
            raise ArityMismatch("shift vector has length %d, nvars=%d"
                                % (len(k), self.nvars))
        if not any(k) or self.is_constant():
            return self
        n, packed = self.nvars, self.components
        if n == 1:
            a = [0] * (max(packed) + 1)
            for e, c in packed.items():
                a[e] = c
            return BasePoly._trusted(1, _clean(dict(enumerate(_taylor(a, k[0])))))
        used = reduce(or_, packed)  # a field is nonzero iff a term involves it
        moved = [(i, ki) for i, ki in enumerate(k)
                 if ki and used >> _FIELD * (n - 1 - i) & _MASK]
        if not moved:
            return self
        for i, ki in moved:
            at, columns = _FIELD * (n - 1 - i), {}
            for key, c in packed.items():
                e = key >> at & _MASK
                columns.setdefault(key - (e << at), {})[e] = c
            packed = {}
            for rest, column in columns.items():
                a = _taylor([column.get(e, 0) for e in range(max(column) + 1)], ki)
                packed.update((rest + (e << at), c) for e, c in enumerate(a) if c)
        return BasePoly._trusted(n, _clean(packed))

    def eval(self, point) -> int | Fraction:
        """Evaluate at a rational point (one value per variable).

        The value is exact and unboxed: an int when it is integral, a
        Fraction otherwise, as rational_roots gives its roots.  int
        coordinates are not boxed, so int coefficients at an int point sum
        as ints; only the other coordinates become Fractions.
        """
        point = [v if v.__class__ is int else Fraction(v) for v in point]
        if len(point) != self.nvars:
            raise ArityMismatch("point has length %d, nvars=%d"
                                % (len(point), self.nvars))
        total, mask = 0, (_MASK if self.nvars > 1 else -1)
        point.reverse()  # the last variable sits in the lowest field
        for key, c in self.components.items():
            for x in point:
                e = key & mask
                if e:
                    c *= x ** e
                key >>= _FIELD
            total += c
        if total.__class__ is Fraction and total.denominator == 1:
            return total.numerator
        return total

    def inject(self, nvars: int, j: int) -> "BasePoly":
        """View a univariate polynomial as a polynomial in h_{j+1} of a larger
        ring; into one variable it is self, with any roots it records."""
        if self.nvars != 1:
            raise ArityMismatch("inject expects a univariate polynomial")
        if not 0 <= j < nvars:
            raise ValueError("variable index %d out of range for nvars=%d" % (j, nvars))
        if nvars == 1:
            return self
        if max(self.components, default=0) > _MASK:
            raise ExponentOverflow("exponent passes 2^%d" % _FIELD)
        return BasePoly._trusted(nvars, {e << _FIELD * (nvars - 1 - j): c
                                         for e, c in self.components.items()})


# slot setters for the _trusted constructors, which bypass __init__ and
# __setattr__
_new = object.__new__
_set_nvars = RingOps.nvars.__set__
_set_components = RingOps.components.__set__
_set_roots = BasePoly._roots.__set__


def exact_divide(p: BasePoly, q: BasePoly) -> BasePoly:
    """Return p / q when q divides p exactly, else raise NotDivisible.

    Reduction by the single divisor's leading term in the lex order of the
    packed keys decides exact divisibility: if p == c*q, the reduction can
    never get stuck, because a stuck remainder would be a multiple of q whose
    leading monomial is not divisible by the leading monomial of q.  A
    monic q (every graded divisor is one) needs no coefficient division, and
    q == 1 no division at all: p comes back, as * hands back a 1's cofactor.
    """
    if not isinstance(p, BasePoly) or not isinstance(q, BasePoly):
        raise TypeError("exact_divide expects BasePoly operands")
    p._check_arity(q)
    if q.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if p.is_zero():
        return BasePoly.zero(p.nvars)
    if q._is_one():
        return p
    qterms, guard = q.components, _guard(p.nvars)
    if guard and (reduce(or_, p.components) | reduce(or_, qterms)) & guard:
        raise ExponentOverflow("a factor has an exponent >= 2^%d" % (_FIELD - 1))
    qlead, qc = max(qterms.items())  # keys are distinct: coefficients never compared
    rem, quot = dict(p.components), {}
    while rem:
        lead = max(rem)
        t = lead - qlead
        # a field of lead below qlead borrows: from the sign or a top bit
        if t < 0 or t & guard:
            raise NotDivisible(q, p)
        c = quot[t] = rem[lead] if qc == 1 else _div_coef(rem[lead], qc)
        for qe, qco in qterms.items():
            ne = t + qe
            nc = rem.get(ne, 0) - c * qco
            if nc:
                rem[ne] = nc
            else:
                rem.pop(ne, None)
    # a remainder of Fractions can lead with an integral one, kept as int
    return BasePoly._trusted(p.nvars, _clean(quot) if qc == 1 else quot)


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

    Returns (roots, cofactor) where roots is an ascending list (repeated
    according to multiplicity) holding an int for each integral root and a
    Fraction for each other one, and cofactor is the polynomial left after
    dividing out every (h - root) factor; the cofactor has no rational root
    and keeps the leading coefficient, so p == cofactor * prod (h - root).

    Once the roots of a polynomial are known they are kept on it, which is
    immutable: linear_factors records them on the polynomial it builds from
    them, and the first search of any other polynomial records what it
    finds.  Arithmetic records nothing, so a product or shift of split
    polynomials is a new polynomial, searched on its first call.  A
    constant is answered with ([], p) and no search.  Every call returns a
    fresh roots list.

    Roots at 0 come off the trailing exponent.  The rest of the search works
    on the dense list of the primitive integer coefficients of p.  A linear
    one, c1 h + c0, has the root -c0/c1 in lowest terms and needs no search.
    Otherwise, by the rational root theorem each root is num/den in lowest
    terms, with den dividing the leading coefficient and num the constant
    term; these are tried as plain int pairs of both signs, and only while
    they still divide the current quotient's end coefficients.  A pair is
    tested by homogeneous integer Horner, sum a_i num^i den^(d-i), and each
    hit is divided out by exact integer synthetic division by (den*h - num),
    then tried again for a repeated root.  The integer quotient is scaled back
    once at the end, by content * prod(den) / lcm of the denominators, so the
    cofactor keeps the leading coefficient of p.
    """
    roots, cofactor = _splitting(p)
    return list(roots), (cofactor if cofactor.__class__ is BasePoly
                         else BasePoly._trusted(1, {0: cofactor}))


def _splitting(p: BasePoly):
    """(roots as a tuple, cofactor) as p records them, a constant cofactor
    held as its value: found by _split and recorded on first use."""
    if p.nvars != 1:
        raise ArityMismatch("rational_roots expects a univariate polynomial")
    if p.is_zero():
        raise ValueError("the zero polynomial has every root")
    known = p._roots
    if known is None:
        known = ((), p.components[0]) if p.is_constant() else _split(p)
        _set_roots(p, known)
    return known


def _split(p: BasePoly):
    """(ascending roots as a tuple, cofactor) of a nonconstant univariate p.

    A constant cofactor is given as its value, the leading coefficient of p.
    """
    # roots at 0 come from the trailing exponent
    val, deg = min(p.components), max(p.components)
    roots = [0] * val
    # primitive integer form, dense from the leading coefficient down
    denom_lcm = 1
    for c in p.components.values():
        if c.__class__ is Fraction:
            denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    coeffs = [int(p.components.get(e, 0) * denom_lcm) for e in range(deg, val - 1, -1)]
    scale = 0
    for c in coeffs:
        scale = gcd(scale, c)
    coeffs = [c // scale for c in coeffs]
    if len(coeffs) == 2:
        # c1 h + c0 is primitive, so -c0/c1 is already in lowest terms
        sign = 1 if coeffs[0] > 0 else -1
        pairs = [(-sign * coeffs[1], sign * coeffs[0])]
    else:
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
            roots.append(num if den == 1 else Fraction(num, den))
        if len(coeffs) == 1:
            break
    # p == h^val * (scale / denom_lcm) * coeffs * prod (h - root) over the other roots
    roots.sort()
    top = len(coeffs) - 1
    if not top:
        return tuple(roots), _div_coef(coeffs[0] * scale, denom_lcm)
    terms = {top - k: _div_coef(c * scale, denom_lcm)
             for k, c in enumerate(coeffs) if c}
    return tuple(roots), BasePoly._trusted(1, terms)


def _times_linear(coeffs: list, roots) -> list:
    """Dense integer coeffs, lowest degree first, times prod (den*h - num)
    over int or Fraction roots num/den: no Fraction arithmetic."""
    for r in roots:
        num, den, pairs = r.numerator, r.denominator, zip(coeffs + [0], [0] + coeffs)
        coeffs = ([b - num * a for a, b in pairs] if den == 1 else
                  [den * b - num * a for a, b in pairs])
    return coeffs


def _from_dense(coeffs: list, lead, roots) -> BasePoly:
    """Dense integer coeffs, lowest degree first, of prod (h - r) over the
    roots up to scale, scaled to the nonzero lead; records roots and lead."""
    scale = _div_coef(lead, coeffs[-1])
    terms = {e: scale * c for e, c in enumerate(coeffs) if c}
    p = BasePoly._trusted(1, terms if scale.__class__ is int else _clean(terms))
    _set_roots(p, (tuple(sorted(roots)), _norm_coef(lead)))
    return p


def linear_factors(roots, lead=1) -> BasePoly:
    """lead * prod (h - r) over the int or rational roots, as a univariate
    polynomial that records its roots, so no search ever splits it."""
    lead = _norm_coef(lead)
    if not lead:
        raise ValueError("linear_factors needs a nonzero lead")
    roots = [_norm_coef(r, "root") for r in roots]
    return _from_dense(_times_linear([1], roots), lead, roots)


# -- canonical text form --------------------------------------------------

def _int_str(n: int) -> str:
    """Decimal digits of n, of any size: str() up to 12,000 bits; above, the
    halves of a split on powers of two joined as exact Decimals, in near-linear
    time, as CPython 3.12's _pylong.int_to_decimal_string does."""
    if n.bit_length() <= 12000:
        return str(n)
    pows = {}

    def join(m, w):  # m < 2**w as an exact Decimal
        if w <= 128:
            return Decimal(m)
        h, hi = w >> 1, m >> (w >> 1)
        p = pows[h] = pows.get(h) or Decimal(2) ** h
        return join(m - (hi << h), h) + join(hi, w - h) * p
    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX)):
        return ("-" if n < 0 else "") + str(join(abs(n), n.bit_length()))


def read_int(digits: str) -> int:
    """The int that a string of ASCII decimal digits, perhaps after a "-",
    spells, of any length: the inverse of _int_str, split in halves above
    the interpreter's 4300-digit int() limit."""
    if len(digits) <= 4300:
        return int(digits)
    if digits[0] == "-":
        return -read_int(digits[1:])
    m = len(digits) // 2
    return read_int(digits[:-m]) * 10 ** m + read_int(digits[-m:])


def render_number(c) -> str:
    """Text of an exact number of any size: 12, -3/4; an integral Fraction
    is written as its int."""
    if isinstance(c, Fraction):
        if c.denominator != 1:
            return _int_str(c.numerator) + "/" + _int_str(c.denominator)
        c = c.numerator
    return _int_str(c)


@lru_cache(maxsize=1 << 12)
def factor_name(i: int, nvars: int, letter: str, power: int) -> str:
    """The name of factor i (0-based) of nvars to the power: letter at rank 1
    and letter<i+1> above it, with ^power written unless the power is 1."""
    name = letter if nvars == 1 else "%s%d" % (letter, i + 1)
    return name if power == 1 else "%s^%d" % (name, power)


def coefficient_texts(terms) -> list:
    """[(key, render_number(c))] over (key, c) pairs, in order: the one reader
    of a sum's coefficients, whose texts render_sum and the --json rows share."""
    return [(key, render_number(c)) for key, c in terms]


def render_sum(terms, letter: str, nvars: int, plus: str, minus: str) -> str:
    """Text of sum c * monomial over (exponent, render_number(c)) pairs, in order.

    A monomial is the product of its factor_name's (zero exponents left out),
    a coefficient of size 1 is not written before one, terms after the first
    are joined by plus or minus as their text is signed, the first is signed
    by a bare "-", and the empty sum is "0".
    """
    out = []
    for exp, text in terms:
        factors = [factor_name(i, nvars, letter, e)
                   for i, e in enumerate(exp) if e]
        negative, mag = text[0] == "-", text.lstrip("-")
        if mag != "1" or not factors:
            factors.insert(0, mag)
        if out:
            out.append(minus if negative else plus)
        elif negative:
            out.append("-")
        out.append("*".join(factors))
    return "".join(out) or "0"


def render_poly(p: BasePoly) -> str:
    """Canonical text form: graded-lex descending terms, e.g. h^2-3*h+2."""
    return render_sum(coefficient_texts(p.sorted_terms()), "h", p.nvars, "+", "-")


def render_ideal(r) -> str:
    """The generator h-r of the maximal ideal (h - r), for an int or Fraction
    r, as render_poly writes linear_factors([r]), from one reading of r."""
    terms = [((1,), "1")] + ([((0,), render_number(-r))] if r else [])
    return render_sum(terms, "h", 1, "+", "-")


def poly_forms(p: BasePoly) -> tuple:
    """(the --json form of p, render_poly(p)) from one reading of p's digits."""
    terms = coefficient_texts(p.sorted_terms())
    rows = [{"exp": list(exp), "coef": text} for exp, text in terms]
    return {"nvars": p.nvars, "terms": rows}, render_sum(terms, "h", p.nvars, "+", "-")
