"""Scalars in the formal square root s of q, and the one expression grammar.

The twisted torus products pick up half-integer powers of the deformation
parameter q, so coefficients are Laurent polynomials in a formal symbol s
with s**2 = q, over Gaussian rationals.  Keeping s formal avoids choosing a
branch of q**(1/2) and certifies every identity for all q on the unit circle
at once; ``eval_numeric`` fixes the branch s = exp(i*pi*theta) for
q = exp(2*pi*i*theta), theta in [0, 2).

A scalar is a ``PhaseScalar``, an element of the rank-0 algebra
``qtorus.algebra.POINT``, whose flat terms and arithmetic live in
``qtorus.algebra``; this module re-exports ``GaussianRational`` and
``PhaseScalar`` and adds ``ONE``, ``ZERO`` and ``phase_pow``.

This module also holds the library's one expression grammar: the tokenizer
and the recursive-descent parser behind both :func:`parse_phase` (scalars
alone) and ``qtorus.cli.parse_expression`` (elements of a named algebra,
whose generators the parser takes from the algebra it is given).

All values are immutable and all operations are pure functions, so they may
be shared freely between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .algebra import _GR_ONE, POINT, AlgebraElement, GaussianRational, PhaseScalar

__all__ = [
    "GaussianRational",
    "ParseError",
    "PhaseScalar",
    "ONE",
    "ZERO",
    "phase_pow",
    "parse_phase",
    "parse_tokens",
    "tokenize",
]

ZERO = AlgebraElement._raw(POINT, {})
ONE = AlgebraElement._raw(POINT, {((), 0): _GR_ONE})


def phase_pow(e: int) -> PhaseScalar:
    """The monomial s**e, i.e. q**(e/2)."""
    return AlgebraElement._raw(POINT, {((), e): _GR_ONE}) if e else ONE


# --- tokenizing and parsing of expression text ---

class ParseError(ValueError):
    """Syntax error in expression text, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@lru_cache(maxsize=None)
def _token_pattern(names: tuple[str, ...]) -> "re.Pattern[str]":
    # longest generator names first so e.g. "U1" wins over "U"
    alts = sorted(set(names) | {"q", "i"}, key=len, reverse=True)
    alt = "|".join(re.escape(n) for n in alts)
    return re.compile(
        rf"(?P<num>\d+(?:/\d+)?)|(?P<name>{alt})|(?P<word>[A-Za-z]\w*)|(?P<op>[\^()*+\-])"
    )


Token = tuple[str, object, int]


def tokenize(text: str, names: tuple[str, ...] = ()) -> list[Token]:
    """Split expression text into (kind, value, position) tokens.

    ``names`` are the generator symbols of the ambient algebra; adjacent
    generators need no separator ("U1U2" is two tokens).  Unknown identifiers
    tokenize as kind "word" so the caller can report them.
    """
    pattern = _token_pattern(tuple(names))
    tokens: list[Token] = []
    pos, n = 0, len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = pattern.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "num":
            num, _, den = m.group().partition("/")
            if den and not int(den):
                raise ParseError("zero denominator", pos)
            tokens.append(("num", Fraction(int(num), int(den or 1)), pos))
        else:
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


# Parentheses nest at most this deep; canonical renderings nest at most 2.
MAX_NESTING = 100

_I = PhaseScalar(GaussianRational(0, 1))


class _Parser:
    """Recursive descent over tokens for the one expression grammar::

        expr   := [sign] term ((+|-) term)*
        term   := factor+            with '*' allowed between factors
        factor := gen [^ int] | rational | i | q [^ q-exp] | ( expr )

    Products are left-associative.  Scalar factors evaluate to PhaseScalar
    and stay scalars until they meet a generator.  ``algebra`` (an
    AlgebraDescriptor, or None for scalars alone) supplies the generators
    and the unit into which a scalar is lifted when it is added to an element.
    ``end``, the length of the text, is the position of an error at the end
    of the input.
    """

    def __init__(self, tokens: list[Token], end: int, algebra=None):
        self.tokens = tokens
        self.end = end
        self.algebra = algebra
        self.i = 0
        self.depth = 0

    def _at(self, ops: str) -> bool:
        """Whether the next token is one of the operators in ``ops``."""
        tokens, i = self.tokens, self.i
        return i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in ops

    def _close(self) -> None:
        """Consume the ')' that must come next."""
        if not self._at(")"):
            i = self.i
            pos = self.tokens[i][2] if i < len(self.tokens) else self.end
            raise ParseError("expected ')'", pos)
        self.i += 1

    def _sign(self) -> int:
        if self._at("+-"):
            self.i += 1
            return -1 if self.tokens[self.i - 1][1] == "-" else 1
        return 1

    def _add(self, a, b):
        if isinstance(a, PhaseScalar) != isinstance(b, PhaseScalar):
            unit = self.algebra.unit()
            a, b = (unit.scale(a), b) if isinstance(a, PhaseScalar) else (a, unit.scale(b))
        return a + b

    def expr(self):
        total = self._signed_term()
        while self._at("+-"):
            total = self._add(total, self._signed_term())
        return total

    def _signed_term(self):
        sign = self._sign()
        term = self.term()
        return term if sign == 1 else -term

    def term(self):
        value = self.factor()
        while self.i < len(self.tokens):
            kind, op, _ = self.tokens[self.i]
            if kind == "op" and op == "*":
                self.i += 1
            elif kind == "op" and op != "(":
                break  # no factor starts here
            value = value * self.factor()
        return value

    def factor(self):
        if self.i >= len(self.tokens):
            raise ParseError("expected an expression", self.end)
        kind, value, pos = self.tokens[self.i]
        self.i += 1
        if kind == "num":
            return PhaseScalar(value)
        if kind == "name":
            if value == "i":
                return _I
            units = 2 if value == "q" else 1
            power = units  # a bare symbol is its first power
            if self._at("^"):
                self.i += 1
                power = self._exponent(units)
            if value == "q":
                return phase_pow(power)
            return self.algebra.generator(value, power)
        if kind == "word":
            where = f" for algebra {self.algebra.name!r}" if self.algebra else ""
            raise ParseError(f"unknown generator {value!r}{where}", pos)
        if value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError("expression nested too deeply", pos)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self._close()
            return inner
        raise ParseError(f"unexpected {value!r}", pos)

    def _exponent(self, units: int) -> int:
        """An exponent, optionally parenthesized and signed, times ``units``.

        Generator powers are read with units 1 and q powers with units 2
        (s-exponent units); either way the result must be an integer.
        """
        parens = self._at("(")
        if parens:
            self.i += 1
        sign = self._sign()
        if self.i >= len(self.tokens):
            raise ParseError("expected an exponent", self.end)
        if self.tokens[self.i][0] != "num":
            raise ParseError("expected an exponent", self.tokens[self.i][2])
        scaled = sign * units * self.tokens[self.i][1]
        if scaled.denominator != 1:
            what = "q exponent must be a multiple of 1/2" if units == 2 else (
                "generator exponent must be an integer")
            raise ParseError(what, self.tokens[self.i][2])
        self.i += 1
        if parens:
            self._close()
        return int(scaled)


def parse_tokens(tokens: list[Token], end: int, algebra=None):
    """Parse a whole token list: a PhaseScalar, or an element of ``algebra``
    if the expression names one of its generators.  ``end`` is the length of
    the text the tokens came from."""
    parser = _Parser(tokens, end, algebra)
    value = parser.expr()
    if parser.i != len(tokens):
        raise ParseError("unexpected trailing input", tokens[parser.i][2])
    return value


def parse_phase(text: str) -> PhaseScalar:
    """Parse the canonical scalar rendering back into a PhaseScalar."""
    return parse_tokens(tokenize(text), len(text))
