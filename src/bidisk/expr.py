"""Text form for polynomials.

Grammar (whitespace insensitive, juxtaposition multiplies):

    expr   := term { ("+" | "-") term }
    term   := signed { ["*"] signed }
    signed := "-" signed | factor
    factor := base [ "^" uint ]
    base   := number | "i" | "z1" | "z2" | "z" | "(" expr ")"

"z" is an alias for "z1".  Exponents are plain nonnegative integers; an
exponent (or product) pushing the degree above DEFAULT_MAX_DEGREE is rejected
early so that a typo like ``z1^999999`` cannot allocate a huge grid.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .poly import Poly2

__all__ = ["parse_polynomial", "to_expression"]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>z1|z2|z|i)"
    r"|(?P<op>[-+*^()]))"
)

DEFAULT_MAX_DEGREE = 256


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                bad = len(text) - len(stripped)
                raise ParseError(f"unexpected character {text[bad]!r}", bad)
            kind = m.lastgroup
            self.items.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self):
        if self.i < len(self.items):
            return self.items[self.i]
        return ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


class _Parser:
    def __init__(self, text: str):
        self.toks = _Tokens(text)

    def parse(self) -> Poly2:
        value = self.expr()
        kind, lit, pos = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected {lit!r}", pos)
        return value

    def expr(self) -> Poly2:
        value = self.term()
        while True:
            kind, lit, _ = self.toks.peek()
            if kind == "op" and lit in "+-":
                self.toks.next()
                rhs = self.term()
                value = value + rhs if lit == "+" else value - rhs
            else:
                return value

    def term(self) -> Poly2:
        value = self.signed()
        while True:
            kind, lit, _ = self.toks.peek()
            if kind == "op" and lit == "*":
                self.toks.next()
                value = self._checked_mul(value, self.signed())
            elif kind in ("number", "ident") or (kind == "op" and lit == "("):
                value = self._checked_mul(value, self.signed())
            else:
                return value

    def signed(self) -> Poly2:
        kind, lit, _ = self.toks.peek()
        if kind == "op" and lit == "-":
            self.toks.next()
            return -self.signed()
        return self.factor()

    def factor(self) -> Poly2:
        value = self.base()
        kind, lit, pos = self.toks.peek()
        if kind == "op" and lit == "^":
            self.toks.next()
            ekind, elit, epos = self.toks.next()
            if ekind != "number" or not elit.isdigit():
                raise ParseError("exponent must be a nonnegative integer", epos)
            exponent = int(elit)
            m, n = value.bidegree
            if max(m, n) * exponent > DEFAULT_MAX_DEGREE:
                raise ParseError(
                    f"exponent overflow: degree would exceed {DEFAULT_MAX_DEGREE}", epos
                )
            value = value**exponent
        return value

    def base(self) -> Poly2:
        kind, lit, pos = self.toks.next()
        if kind == "number":
            return Poly2.const(float(lit))
        if kind == "ident":
            if lit == "i":
                return Poly2.const(1j)
            if lit in ("z1", "z"):
                return Poly2.monomial(1, 0)
            return Poly2.monomial(0, 1)
        if kind == "op" and lit == "(":
            value = self.expr()
            ckind, clit, cpos = self.toks.next()
            if not (ckind == "op" and clit == ")"):
                raise ParseError("expected ')'", cpos)
            return value
        raise ParseError(f"unexpected {lit!r}" if lit else "unexpected end of input", pos)

    def _checked_mul(self, a: Poly2, b: Poly2) -> Poly2:
        ma, na = a.bidegree
        mb, nb = b.bidegree
        if ma + mb > DEFAULT_MAX_DEGREE or na + nb > DEFAULT_MAX_DEGREE:
            raise ParseError(f"degree would exceed {DEFAULT_MAX_DEGREE}", self.toks.peek()[2])
        return a * b


def parse_polynomial(text: str) -> Poly2:
    """Parse expression text into a polynomial."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text).parse()


def _coeff_text(v: complex) -> str:
    if v.imag == 0:
        r = repr(v.real)
        return r if v.real >= 0 else f"({r})"
    return f"({v.real!r}+{v.imag!r}*i)"


def to_expression(p: Poly2) -> str:
    """Expression text that parses back to exactly the same coefficients."""
    parts = []
    for k, l, v in p.terms():
        bits = [_coeff_text(v)]
        if k == 1:
            bits.append("z1")
        elif k > 1:
            bits.append(f"z1^{k}")
        if l == 1:
            bits.append("z2")
        elif l > 1:
            bits.append(f"z2^{l}")
        parts.append("*".join(bits))
    return " + ".join(parts) if parts else "0"
