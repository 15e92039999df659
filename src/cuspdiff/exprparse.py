"""Parser for operator expressions in the ambient skew Laurent ring.

Grammar (noncommutative, left associative):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' exponent)?
    atom   := rational | 'h' | 'h<k>' | 'x' | 'x<k>'
            | 'delta' '(' int ['@' int] ')'
            | 'w' '(' int ['@' int] ')'
            | 'd' '(' int ')'
            | 'X' ['@' int] | 'Y' ['@' int]
            | '(' expr ')'

Rationals are written p or p/q.  h and x may carry a trailing factor index
(h2, x3); the bare names mean factor 1.  Negative exponents are allowed only
on x atoms.  delta and w take a degree (w degrees are negative), d takes a
factor index, and X/Y are the distinguished generator pair of the selected
algebra, unavailable in the plain operator ring context.

Tokens are ASCII: an integer is a run of the digits 0-9, read at any length
by exactpoly.read_int, and a name is an ASCII letter followed by letters,
digits and '_'.  Any other character that is not whitespace is refused with
its position.

Evaluation builds as few Laurent operators as it can.  D(A(m)) is
Z^n-graded, so a parsed value is one of two kinds: a monomial (alpha, c),
the nonzero coefficient c in Q[h1..hn] on the left of x^alpha, or a
LaurentOp.  Every atom is a monomial: a literal p or p/q is the degree zero
monomial with constant coefficient, except that 0 is the empty LaurentOp, so
no monomial holds a zero coefficient.  A product of monomials is one
monomial, skewlaurent.monomial_product(a, b); any other product is LaurentOp
arithmetic, and a product with 0 runs over no components.  A power of a
monomial of nonzero degree and nonconstant coefficient c is walked one
factor at a time, each step shifting only c: X_i^k and Y_i^k (images of
v_{+-k e_i}) in cuspops' embedding's power cache, where a pullback finds
them, others by reduce(monomial_product, repeat(value, k)).  Squaring does
every other power, and one whose walk passes the 2^31 field rule (BasePoly).
Negation negates a coefficient, so it multiplies nothing.  A LaurentOp is
built only for 0, for a sum, which adds its terms degree by degree, and for
the value of the whole expression; a product or power with a parenthesized
sum in it is LaurentOp arithmetic.

parse_poly reads base polynomials (the render_poly text form) with the same
grammar and rejects any term of nonzero degree.
"""

from __future__ import annotations

import re
import string
from fractions import Fraction
from functools import reduce
from itertools import repeat

from .exactpoly import BasePoly, ExponentOverflow, read_int, render_number
from .skewlaurent import LaurentOp, graded_divisor, monomial_product, unit
from .cuspops import _canonical, as_shape, w_minus

# a token is an int, a name or one other character that is not whitespace;
# _KINDS reads the kind of each from its first character
_TOKEN = re.compile(r"[0-9]+|[A-Za-z][A-Za-z0-9_]*|\S")
_KINDS = {**dict.fromkeys(string.digits, "int"),
          **dict.fromkeys(string.ascii_letters, "name"),
          **{c: c for c in "+-*^/()@"}}

ALGEBRAS = ("DA", "bbA", "calA", "weyl")  # the ring, then presentations


class ExprParseError(ValueError):
    """Raised with a position when an expression does not parse."""


def _tokenize(text: str):
    """(kinds, texts) of the tokens, closed by kind "end" and text "".

    The kind of a symbol is the symbol itself.  A character of no kind is
    refused at its position.
    """
    texts = _TOKEN.findall(text)
    kinds = [_KINDS.get(tok[0]) for tok in texts]
    if None in kinds:
        k = kinds.index(None)
        raise ExprParseError("unexpected character %r at position %d"
                             % (texts[k], _position(text, k)))
    kinds.append("end")
    texts.append("")
    return kinds, texts


def _position(text: str, k: int) -> int:
    """The position in text of token k, or len(text) for the closing one."""
    for j, match in enumerate(_TOKEN.finditer(text)):
        if j == k:
            return match.start()
    return len(text)


def _negated(value):
    """-value of a parsed value."""
    if value.__class__ is tuple:
        return value[0], -value[1]
    return -value


def _power(value, k: int):
    """value^k for k >= 0 (see the module docstring)."""
    if value.__class__ is not tuple:
        return value ** k
    alpha, c = value
    if not (k and any(alpha)) or c.is_constant():
        return tuple(a * k for a in alpha), c ** k
    try:
        return reduce(monomial_product, repeat(value, k))
    except ExponentOverflow:
        # the walk's partial products pass the 2^31 field rule of a product
        # before squaring's do; squaring raises only where it must
        return LaurentOp(len(alpha), {alpha: c}) ** k


class _ExprParser:
    """Recursive descent over the token list, one token of lookahead.

    kind is the kind of the current token, number pos; take() consumes it
    and returns its number, and is never called on the closing "end" token,
    which nothing matches.  The values passed around are monomials (degree
    tuple, nonzero BasePoly coefficient) and LaurentOps, 0 among them as
    the empty one; parse() returns a LaurentOp.
    """

    def __init__(self, text, shape, algebra):
        self.shape = as_shape(shape)
        self.rank = self.shape.rank
        self.algebra = algebra
        self.text = text
        self.kinds, self.texts = _tokenize(text)
        self.pos = 0
        self.kind = self.kinds[0]

    # token helpers

    def take(self) -> int:
        k = self.pos
        self.pos = k + 1
        self.kind = self.kinds[k + 1]
        return k

    def found(self, k: int) -> str:
        return self.texts[k] or "end of input"

    def expect(self, kind) -> int:
        if self.kind != kind:
            k = self.pos
            raise ExprParseError("expected %r at position %d, found %r"
                                 % (kind, _position(self.text, k),
                                    self.found(k)))
        return self.take()

    def fail(self, k: int, message):
        raise ExprParseError("%s at position %d"
                             % (message, _position(self.text, k)))

    # values

    def pairs(self, value):
        """The (degree, coefficient) pairs of a parsed value."""
        if value.__class__ is tuple:
            return (value,)
        return value.components.items()

    def total(self, pairs) -> LaurentOp:
        """The LaurentOp summing (degree, coefficient) pairs."""
        comps = {}
        for alpha, c in pairs:
            prev = comps.get(alpha)
            comps[alpha] = c if prev is None else prev + c
        return LaurentOp(self.rank, comps)

    def operator(self, value) -> LaurentOp:
        """A parsed value as a LaurentOp."""
        if isinstance(value, LaurentOp):
            return value
        return self.total(self.pairs(value))

    def product(self, a, b):
        """a * b of parsed values, in that order."""
        if a.__class__ is tuple and b.__class__ is tuple:
            return monomial_product(a, b)
        return self.operator(a) * self.operator(b)

    # grammar

    def parse(self) -> LaurentOp:
        value = self.expr()
        if self.kind != "end":
            self.fail(self.pos, "trailing input %r" % self.texts[self.pos])
        return self.operator(value)

    def expr(self):
        value = self.term()
        if self.kind != "+" and self.kind != "-":
            return value
        pairs = list(self.pairs(value))
        while self.kind == "+" or self.kind == "-":
            negate = self.kind == "-"
            self.take()
            pairs += [(alpha, -c if negate else c)
                      for alpha, c in self.pairs(self.term())]
        return self.total(pairs)

    def term(self):
        value = self.factor()
        while self.kind == "*":
            self.take()
            value = self.product(value, self.factor())
        return value

    def factor(self):
        if self.kind == "-":
            self.take()
            return _negated(self.factor())
        first = self.pos
        value = self.atom()
        if self.kind != "^":
            return value
        caret = self.take()
        exponent = self.signed_int()
        # atom takes no name starting with x but a bare x variable
        if self.texts[first][0] == "x":
            return tuple(a * exponent for a in value[0]), value[1]
        if exponent < 0:
            self.fail(caret, "negative exponents need a bare x variable")
        if self.texts[first] in ("X", "Y") and not value[1].is_constant():
            return self.image(first, [exponent * ((d > 0) - (d < 0))
                                      for d in value[0]])
        return _power(value, exponent)

    def signed_int(self) -> int:
        if self.kind == "-":
            self.take()
            return -read_int(self.texts[self.expect("int")])
        return read_int(self.texts[self.expect("int")])

    def factor_index(self, k: int, digits: str) -> int:
        """The zero-based factor that digits name, refused at token k when
        it is out of range."""
        i = read_int(digits)
        if not 1 <= i <= self.rank:
            self.fail(k, "factor index %s out of range 1..%d"
                      % (render_number(i), self.rank))
        return i - 1

    def indexed_args(self):
        """'(' int ['@' int] ')' -> (degree, zero-based factor, its token)."""
        self.expect("(")
        k = self.pos
        degree = self.signed_int()
        factor = self.at_factor()
        self.expect(")")
        return degree, factor, k

    def at_factor(self) -> int:
        if self.kind != "@":
            return 0
        self.take()
        k = self.expect("int")
        return self.factor_index(k, self.texts[k])

    def image(self, k: int, alpha):
        """The image of v_alpha under the algebra's embedding, a monomial."""
        try:
            emb = _canonical(self.shape.m, self.algebra)
        except ValueError as exc:
            self.fail(k, str(exc))
        (item,) = emb.apply(emb.presentation.basis(alpha)).components.items()
        return item

    def atom(self):
        kind = self.kind
        if kind != "int" and kind != "name" and kind != "(":
            self.fail(self.pos, "expected an operand, found %r"
                      % self.found(self.pos))
        k = self.take()
        name = self.texts[k]
        n = self.rank
        if kind == "int":
            num = read_int(name)
            if self.kind == "/":
                self.take()
                den = self.expect("int")
                q = read_int(self.texts[den])
                if q == 0:
                    self.fail(den, "zero denominator")
                num = Fraction(num, q)
            if not num:
                return LaurentOp.zero(n)
            return (0,) * n, BasePoly.constant(n, num)
        if kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        if name == "delta":
            # delta_op(shape, alpha) is graded_divisor(widths, alpha) * x^alpha
            degree, factor, _ = self.indexed_args()
            alpha = unit(n, factor, degree)
            return alpha, graded_divisor(self.shape.m, alpha)
        if name[0] in ("h", "x") and (len(name) == 1 or name[1:].isdigit()):
            factor = 0 if len(name) == 1 else self.factor_index(k, name[1:])
            if name[0] == "h":
                return (0,) * n, BasePoly.variable(n, factor)
            return unit(n, factor), BasePoly.one(n)
        if name == "w":
            degree, factor, at = self.indexed_args()
            if degree >= 0:
                self.fail(at, "w degrees are negative")
            (coeff,) = w_minus(self.shape.m[factor], -degree).components.values()
            return unit(n, factor, degree), coeff.inject(n, factor)
        if name == "d":
            self.expect("(")
            at = self.expect("int")
            factor = self.factor_index(at, self.texts[at])
            self.expect(")")
            return unit(n, factor, -1), BasePoly.variable(n, factor)
        if name == "X" or name == "Y":
            factor = self.at_factor()
            if self.algebra == "DA":
                self.fail(k, "%s is only defined for a named algebra "
                          "(bbA, calA or weyl)" % name)
            return self.image(k, unit(n, factor, -1 if name == "Y" else 1))
        self.fail(k, "unknown name %r" % name)


def parse_expression(text: str, shape, algebra: str = "DA") -> LaurentOp:
    """Parse an operator expression over the given shape.

    algebra selects the meaning of the X/Y atoms; the plain operator ring
    context ("DA") has none.  Raises ExprParseError with a position on bad
    input.
    """
    if algebra not in ALGEBRAS:
        raise ValueError("unknown algebra tag %r" % algebra)
    return _ExprParser(text, shape, algebra).parse()


def parse_poly(text: str, nvars: int = 1) -> BasePoly:
    """Parse a base polynomial in h (h1..hn when nvars > 1).

    The text is read as an operator expression over nvars factors in the
    plain operator ring context; ExprParseError is raised unless every term
    has degree zero.
    """
    op = parse_expression(text, (1,) * nvars)
    zero = (0,) * nvars
    for alpha in op.components:
        if alpha != zero:
            raise ExprParseError("%r is not a polynomial in h: it has a term "
                                 "of degree %s"
                                 % (text, ",".join(map(str, alpha))))
    return op.graded_component(zero)
