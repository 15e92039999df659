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

parse_poly reads base polynomials (the render_poly text form) with the same
grammar and rejects any term of nonzero degree.
"""

from __future__ import annotations

from fractions import Fraction

from .exactpoly import BasePoly
from .skewlaurent import LaurentOp
from .cuspops import as_shape, delta_op, generator_pair, w_minus

_SYMBOLS = "+-*^/()@"


class ExprParseError(ValueError):
    """Raised with a position when an expression does not parse."""


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self):
        return "_Token(%s, %r, %d)" % (self.kind, self.text, self.pos)


def _tokenize(text: str):
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("int", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("name", text[i:j], i))
            i = j
            continue
        if c in _SYMBOLS:
            out.append(_Token(c, c, i))
            i += 1
            continue
        raise ExprParseError("unexpected character %r at position %d" % (c, i))
    out.append(_Token("end", "", n))
    return out


class _ExprParser:
    """Recursive descent over the token list; produces LaurentOp values."""

    def __init__(self, text, shape, algebra):
        self.text = text
        self.shape = as_shape(shape)
        self.algebra = algebra
        self.tokens = _tokenize(text)
        self.pos = 0

    # token helpers

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ExprParseError("expected %r at position %d, found %r"
                                 % (kind, tok.pos, tok.text or "end of input"))
        return tok

    def fail(self, tok, message):
        raise ExprParseError("%s at position %d" % (message, tok.pos))

    # grammar

    def parse(self) -> LaurentOp:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(tok, "trailing input %r" % tok.text)
        return value

    def expr(self) -> LaurentOp:
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> LaurentOp:
        value = self.factor()
        while self.peek().kind == "*":
            self.next()
            value = value * self.factor()
        return value

    def factor(self) -> LaurentOp:
        if self.peek().kind == "-":
            self.next()
            return -self.factor()
        value, kind = self.atom()
        exponent = 1
        if self.peek().kind == "^":
            caret = self.next()
            exponent = self.signed_int()
            if kind != "xvar":
                if exponent < 0:
                    self.fail(caret, "negative exponents need a bare x variable")
                return value ** exponent
        if kind == "xvar":
            # value is the factor index of a bare x variable
            return LaurentOp.x(self.shape.rank, value, exponent)
        return value

    def signed_int(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        tok = self.expect("int")
        return sign * int(tok.text)

    def factor_index(self, tok, raw: str) -> int:
        k = int(raw)
        if not 1 <= k <= self.shape.rank:
            self.fail(tok, "factor index %d out of range 1..%d"
                      % (k, self.shape.rank))
        return k - 1

    def indexed_args(self):
        """'(' int ['@' int] ')' -> (degree, zero-based factor)."""
        self.expect("(")
        tok = self.peek()
        value = self.signed_int()
        factor = self.at_factor()
        self.expect(")")
        return value, factor, tok

    def at_factor(self) -> int:
        if self.peek().kind == "@":
            self.next()
            ftok = self.expect("int")
            return self.factor_index(ftok, ftok.text)
        return 0

    def atom(self):
        tok = self.next()
        n = self.shape.rank
        if tok.kind == "int":
            num = int(tok.text)
            if self.peek().kind == "/":
                self.next()
                den = self.expect("int")
                if int(den.text) == 0:
                    self.fail(den, "zero denominator")
                return LaurentOp.one(n) * Fraction(num, int(den.text)), "op"
            return LaurentOp.one(n) * num, "op"
        if tok.kind == "(":
            value = self.expr()
            self.expect(")")
            return value, "op"
        if tok.kind != "name":
            self.fail(tok, "expected an operand, found %r"
                      % (tok.text or "end of input"))
        name = tok.text
        if name == "delta":
            degree, factor, _ = self.indexed_args()
            alpha = tuple(degree if j == factor else 0 for j in range(n))
            return delta_op(self.shape, alpha), "op"
        if name == "w":
            degree, factor, dtok = self.indexed_args()
            if degree >= 0:
                self.fail(dtok, "w degrees are negative")
            base = w_minus(self.shape.m[factor], -degree)
            coeff = base.components[(degree,)].inject(n, factor)
            alpha = tuple(degree if j == factor else 0 for j in range(n))
            return LaurentOp.monomial(n, alpha, coeff), "op"
        if name == "d":
            self.expect("(")
            ftok = self.expect("int")
            factor = self.factor_index(ftok, ftok.text)
            self.expect(")")
            return LaurentOp.d(n, factor), "op"
        if name in ("X", "Y"):
            factor = self.at_factor()
            if self.algebra == "DA":
                self.fail(tok, "%s is only defined for a named algebra "
                          "(bbA, calA or weyl)" % name)
            try:
                pair = generator_pair(self.shape, self.algebra, factor)
            except ValueError as exc:
                self.fail(tok, str(exc))
            return pair[name == "Y"], "op"
        if name[0] in ("h", "x") and (len(name) == 1 or name[1:].isdigit()):
            factor = 0 if len(name) == 1 else self.factor_index(tok, name[1:])
            if name[0] == "h":
                return LaurentOp.h(n, factor), "op"
            return factor, "xvar"
        self.fail(tok, "unknown name %r" % name)


def parse_expression(text: str, shape, algebra: str = "DA") -> LaurentOp:
    """Parse an operator expression over the given shape.

    algebra selects the meaning of the X/Y atoms; the plain operator ring
    context ("DA") has none.  Raises ExprParseError with a position on bad
    input.
    """
    if algebra not in ("DA", "bbA", "calA", "weyl"):
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
