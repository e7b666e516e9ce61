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
``qtorus.cli.parse_expression`` (elements of a named algebra, whose generators
and product kernel it uses).  A term folds its one-term factors into one flat
term through that kernel, building no element, and a sum merges its terms once.

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

_I, _MINUS_ONE = GaussianRational(0, 1), GaussianRational(-1)


class _Parser:
    """Recursive descent over tokens for the one expression grammar::

        expr   := [sign] term ((+|-) term)*
        term   := factor+            with '*' allowed between factors
        factor := gen [^ int] | rational | i | q [^ q-exp] | ( expr )

    A term folds its factors of one flat term into one flat term through the
    algebra's product kernel and builds no element; only a parenthesized sum of
    several flat terms is an element, multiplied in order.  Products are left-
    associative.  ``algebra`` (an AlgebraDescriptor, ``POINT`` for scalars alone)
    supplies the generators and the kernel, and holds the value of the whole
    expression.  ``end``, the text's length, is the position of the closing "end"
    token, where an error at the end of the input is reported.
    """

    def __init__(self, tokens: list[Token], end: int, algebra=POINT):
        self.tokens = [*tokens, ("end", None, end)]
        self.algebra, self.i, self.depth = algebra, 0, 0

    def expr(self) -> tuple:
        """A sum, as (its algebra, its flat terms), building no element: each term's flat triple,
        or its element's flat terms, go into one merge, a scalar term at the zero index of an
        element sum.  A parenthesized sum of scalars alone stays in ``POINT`` to scale its term."""
        pairs, element, (kind, op, _) = [], not self.depth, self.tokens[self.i]
        while True:
            if kind == "op" and op in "+-":  # a sign, optional before the first term
                self.i += 1
            term = self.term(_MINUS_ONE if (kind, op) == ("op", "-") else _GR_ONE)
            flat = type(term) is tuple
            element = element or (term[0] != () if flat else type(term) is AlgebraElement)
            if not flat:
                pairs += term._terms.items()
            elif term[2]:  # a zero coefficient adds nothing
                pairs.append(((term[0], term[1]), term[2]))
            kind, op, _ = self.tokens[self.i]
            if kind != "op" or op not in "+-":
                zero = (0,) * self.algebra.d if element else ()  # an element sum's scalar index
                pairs = (((a or zero, e), c) for (a, e), c in pairs) if zero else pairs
                return self.algebra if element else POINT, _merge_into({}, pairs)

    def term(self, c: GaussianRational):
        """The product of the factors times the sign ``c``: its flat triple (index, s-exponent,
        coefficient), building no element, when every factor folds, else an element.  A factor's
        flat term (b, f, d) folds into (a, e, c), a being () while the term is a scalar; before a
        sum of several flat terms, and at the end, the fold multiplies ``value`` and restarts."""
        tokens, a, e, value = self.tokens, (), 0, None  # None: nothing multiplied yet
        while True:
            factor = self.factor()
            flat = type(factor) is tuple
            if flat:
                b, f, d = factor  # delta^a delta^b is s**g delta^(a + b); () is a scalar's index
                a, g = (a, 0) if not b else (b, 0) if not a else self.algebra._kernel(a, b)
                e += f + g
                c = d if c is _GR_ONE else c if d is _GR_ONE else c * d
            kind, op, _ = tokens[self.i]
            if kind == "op" and op == "*":
                self.i += 1
            last = kind == "end" or (kind == "op" and op not in "(*")  # no factor follows
            if last and value is None and flat:
                return a, e, c
            if last or not flat:
                if a or e or c is not _GR_ONE:  # the fold is not 1
                    fold = AlgebraElement._raw(self.algebra if a else POINT,
                                               {(a, e): c} if c else {})
                    value, a, e, c = fold if value is None else value * fold, (), 0, _GR_ONE
                if not flat:
                    value = factor if value is None else value * factor
                if last:
                    return value

    def factor(self):
        """A factor's flat term (index, () for a scalar; s-exponent; coefficient),
        or the value of a parenthesized sum of several flat terms or none."""
        kind, value, pos = self.tokens[self.i]
        self.i += 1
        if kind == "num":
            n, d = value.as_integer_ratio()
            return (), 0, _reduced(n, 0, d)
        if kind == "name":
            if value == "i":
                return (), 0, _I
            power = units = 2 if value == "q" else 1  # a bare symbol is its first power
            if self.tokens[self.i][1] == "^":  # only an operator token holds "^"
                self.i += 1
                power = self._exponent(units)
            if value == "q":
                return (), power, _GR_ONE
            names = self.algebra.generator_names
            at = names.index(value)
            return (0,) * at + (power,) + (0,) * (len(names) - at - 1), 0, _GR_ONE
        if kind == "word":
            where = f" for algebra {self.algebra.name!r}" if self.algebra is not POINT else ""
            raise ParseError(f"unknown generator {value!r}{where}", pos)
        if value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError("expression nested too deeply", pos)
            self.depth += 1
            algebra, terms = self.expr()
            self.depth -= 1
            if self.tokens[self.i][:2] != ("op", ")"):
                raise ParseError("expected ')'", self.tokens[self.i][2])
            self.i += 1
            if len(terms) != 1:
                return AlgebraElement._raw(algebra, terms)
            ((b, f), d), = terms.items()
            return b, f, d
        raise ParseError("expected an expression" if kind == "end" else f"unexpected {value!r}",
                         pos)

    def _exponent(self, units: int) -> int:
        """A signed exponent, perhaps in parentheses, times ``units`` (1 for a generator,
        2 for q, in s-exponent units); the result must be an integer."""
        tokens, i = self.tokens, self.i
        parens = tokens[i][:2] == ("op", "(")
        i += parens
        kind, value, pos = tokens[i]
        sign = -1 if kind == "op" and value == "-" else 1
        if kind == "op" and value in "+-":
            i += 1
            kind, value, pos = tokens[i]
        if kind != "num":
            raise ParseError("expected an exponent", pos)
        n, d = value.as_integer_ratio()
        power, rest = divmod(sign * units * n, d)
        if rest:
            raise ParseError("q exponent must be a multiple of 1/2" if units == 2 else
                             "generator exponent must be an integer", pos)
        self.i = i = i + 1 + parens
        if parens and tokens[i - 1][:2] != ("op", ")"):
            raise ParseError("expected ')'", tokens[i - 1][2])
        return power


def parse_tokens(tokens: list[Token], end: int, algebra=POINT):
    """Parse a whole token list into an element of ``algebra``, a PhaseScalar
    for ``POINT``.  ``end`` is the length of the text the tokens came from."""
    parser = _Parser(tokens, end, algebra)
    _, terms = parser.expr()
    if parser.i != len(tokens):
        raise ParseError("unexpected trailing input", tokens[parser.i][2])
    return AlgebraElement._raw(algebra, terms)


def parse_phase(text: str) -> PhaseScalar:
    """Parse the canonical scalar rendering back into a PhaseScalar."""
    return parse_tokens(tokenize(text), len(text))
