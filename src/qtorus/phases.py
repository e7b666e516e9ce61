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

This module also holds the library's one expression grammar: the tokenizer,
one ``finditer`` scan of one cached pattern per generator set, and the
recursive-descent parser behind both :func:`parse_phase` (scalars alone) and
``qtorus.cli.parse_expression`` (elements of a named algebra, whose
generators the parser takes from the algebra it is given).  The parser sums
the terms of a sum in one merge.

All values are immutable and all operations are pure functions, so they may
be shared freely between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .algebra import (_GR_ONE, POINT, AlgebraElement, GaussianRational, PhaseScalar,
                      _merge_into, _reduced)

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
    """The monomial s**e, i.e. q**(e/2); TypeError for an ``e`` whose type is not int."""
    if type(e) is not int:
        raise TypeError(f"s-exponent must be an integer, got {e!r}")
    return AlgebraElement._raw(POINT, {((), e): _GR_ONE}) if e else ONE


# --- tokenizing and parsing of expression text ---

class ParseError(ValueError):
    """Syntax error in expression text, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@lru_cache(maxsize=None)
def _token_pattern(names: tuple[str, ...]) -> "re.Pattern[str]":
    # longest generator names first so e.g. "U1" wins over "U"; "bad" is any other
    # character but whitespace, which the scan skips as matching nothing
    alts = sorted(set(names) | {"q", "i"}, key=len, reverse=True)
    alt = "|".join(re.escape(n) for n in alts)
    return re.compile(
        rf"(?P<op>[\^()*+\-])|(?P<num>\d+(?:/\d+)?)|(?P<name>{alt})|(?P<word>[A-Za-z]\w*)"
        rf"|(?P<bad>\S)"
    )


Token = tuple[str, object, int]


@lru_cache(maxsize=1024)
def _number(text: str) -> Fraction | None:
    """The value of a number token, or None if its denominator is zero.
    Renderings repeat a few numbers, so a cache saves building most Fractions."""
    num, _, den = text.partition("/")
    if den and not int(den):
        return None
    return Fraction(int(num), int(den or 1))


def tokenize(text: str, names: tuple[str, ...] = ()) -> list[Token]:
    """Split expression text into (kind, value, position) tokens.

    One ``finditer`` scan of one pattern per generator set: every character
    but whitespace (``\\s``, which is what ``str.isspace`` accepts) starts a
    token or is a "bad" match, so the scan skips exactly the whitespace.
    Numbers are ``Fraction`` values, in any Unicode decimal digits.  ``names``
    are the generator symbols of the ambient algebra; adjacent generators need
    no separator ("U1U2" is two tokens).  Unknown identifiers tokenize as kind
    "word" so the caller can report them.
    """
    tokens: list[Token] = []
    for m in _token_pattern(tuple(names)).finditer(text):
        kind, value, pos = m.lastgroup, m[0], m.start()
        if kind == "num":
            try:
                value = _number(value)
            except ValueError:  # more digits than int() converts
                raise ParseError("number too long", pos) from None
            if value is None:
                raise ParseError("zero denominator", pos)
        elif kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
        tokens.append((kind, value, pos))
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
    ``end``, the length of the text, is the position of the "end" token that
    closes the token list, where an error at the end of the input is reported.
    """

    def __init__(self, tokens: list[Token], end: int, algebra=None):
        self.tokens = [*tokens, ("end", None, end)]
        self.algebra = algebra
        self.i = 0
        self.depth = 0

    def _at(self, ops: str) -> bool:
        """Whether the next token is one of the operators in ``ops``."""
        kind, value, _ = self.tokens[self.i]
        return kind == "op" and value in ops

    def _close(self) -> None:
        """Consume the ')' that must come next."""
        if not self._at(")"):
            raise ParseError("expected ')'", self.tokens[self.i][2])
        self.i += 1

    def _sign(self) -> int:
        if self._at("+-"):
            self.i += 1
            return -1 if self.tokens[self.i - 1][1] == "-" else 1
        return 1

    def expr(self):
        """A sum: its terms are merged into one dict, each term once.  If any term
        is an element, the scalar terms are lifted into the algebra's unit first."""
        terms = [self._signed_term()]
        while self._at("+-"):
            terms.append(self._signed_term())
        if len(terms) == 1:
            return terms[0]
        if all(isinstance(t, PhaseScalar) for t in terms):
            algebra = POINT
        else:
            algebra, unit = self.algebra, self.algebra.unit()
            terms = [unit.scale(t) if isinstance(t, PhaseScalar) else t for t in terms]
        out = dict(terms[0]._terms)
        for t in terms[1:]:
            _merge_into(out, t._terms.items())
        return AlgebraElement._raw(algebra, out)

    def _signed_term(self):
        sign = self._sign()
        term = self.term()
        return term if sign == 1 else -term

    def term(self):
        value = self.factor()
        while True:
            kind, op, _ = self.tokens[self.i]
            if kind == "op" and op == "*":
                self.i += 1
            elif kind == "end" or (kind == "op" and op != "("):
                break  # no factor starts here
            value = value * self.factor()
        return value

    def factor(self):
        kind, value, pos = self.tokens[self.i]
        self.i += 1
        if kind == "num":  # the triple of GaussianRational.from_value, none for 0
            c = _reduced(value.numerator, 0, value.denominator)
            return AlgebraElement._raw(POINT, {((), 0): c} if value else {})
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
        if kind == "end":
            raise ParseError("expected an expression", pos)
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
        kind, value, pos = self.tokens[self.i]
        if kind != "num":
            raise ParseError("expected an exponent", pos)
        power, rest = divmod(sign * units * value.numerator, value.denominator)
        if rest:
            what = "q exponent must be a multiple of 1/2" if units == 2 else (
                "generator exponent must be an integer")
            raise ParseError(what, pos)
        self.i += 1
        if parens:
            self._close()
        return power


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
