"""Exact coefficient arithmetic for a unit-modulus deformation parameter.

The twisted torus products pick up half-integer powers of the deformation
parameter q, so coefficients are Laurent polynomials in a formal symbol s
with s**2 = q, over Gaussian rationals.  Keeping s formal avoids choosing a
branch of q**(1/2) and certifies every identity for all q on the unit circle
at once; :meth:`PhaseScalar.eval_numeric` fixes the branch s = exp(i*pi*theta)
for q = exp(2*pi*i*theta), theta in [0, 2).

A Gaussian rational is stored as one reduced integer triple
(re_num, im_num, den) with den > 0 and gcd(re_num, im_num, den) == 1, so its
arithmetic is plain integer arithmetic and equality is structural.

This module also holds the library's one expression grammar: the tokenizer
and the recursive-descent parser behind both :func:`parse_phase` (scalars
alone) and ``qtorus.cli.parse_expression`` (elements of a named algebra,
whose generators the parser takes from the algebra it is given).

All values are immutable and all operations are pure functions, so they may
be shared freely between threads.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from types import MappingProxyType
from typing import Iterator, Mapping, Union

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

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "GaussianRational"]


_new_object = object.__new__


def _ratio_str(n: int, d: int) -> str:
    """n/d in lowest terms, written without a denominator when it is 1."""
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    return str(n) if d == 1 else f"{n}/{d}"


class GaussianRational:
    """A complex number a + b*i with exact rational parts.

    Stored as one reduced integer triple ``(re_num, im_num, den)`` standing
    for ``(re_num + im_num*i) / den``, with ``den > 0`` and
    ``gcd(re_num, im_num, den) == 1``.  The triple is unique for each value,
    so equality is plain structural equality, and every operation is integer
    arithmetic followed by one gcd, which is skipped when the denominator is 1.
    ``re`` and ``im`` give the parts as lowest-terms ``Fraction`` values.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        re, im = Fraction(re), Fraction(im)
        rd, imd = re.denominator, im.denominator
        # the lcm of two lowest-terms denominators leaves the triple reduced
        d = rd * imd // gcd(rd, imd)
        self._a = re.numerator * (d // rd)
        self._b = im.numerator * (d // imd)
        self._d = d

    @staticmethod
    def _raw(a: int, b: int, d: int) -> "GaussianRational":
        """The triple (a, b, d) as is; the caller guarantees the invariant."""
        self = _new_object(GaussianRational)
        self._a = a
        self._b = b
        self._d = d
        return self

    @classmethod
    def from_value(cls, value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, int):
            return cls._raw(int(value), 0, 1)
        if isinstance(value, Fraction):
            return cls._raw(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def record_parts(self) -> tuple[int, int, int, int]:
        """(re numerator, re denominator, im numerator, im denominator), lowest terms."""
        a, b, d = self._a, self._b, self._d
        if d == 1:
            return a, 1, b, 1
        g, h = gcd(a, d), gcd(b, d)
        return a // g, d // g, b // h, d // h

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational.from_value(other)
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._raw(-self._a, -self._b, self._d)

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        return self + (-GaussianRational.from_value(other))

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return (-self) + other

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational.from_value(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        # d / (a + b*i) = d*(a - b*i) / (a*a + b*b)
        a, b, d = self._a, self._b, self._d
        norm = a * a + b * b
        if not norm:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _reduced(d * a, -d * b, norm)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self._a, -self._b, self._d)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and self._d == other.denominator and self._a == other.numerator
        return NotImplemented

    def __hash__(self) -> int:
        # a real value hashes like the equal int or Fraction
        if self._b == 0:
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __bool__(self) -> bool:
        return bool(self._a) or bool(self._b)

    def to_complex(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        a, b, d = self._a, self._b, self._d
        if not b:
            return _ratio_str(a, d)
        if b == d:
            imtxt = "i"
        elif b == -d:
            imtxt = "-i"
        else:
            imtxt = f"{_ratio_str(b, d)}i"
        if not a:
            return imtxt
        if b > 0:
            imtxt = "+" + imtxt
        return f"({_ratio_str(a, d)}{imtxt})"


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i) / d for d > 0, divided through by the common gcd."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return GaussianRational._raw(a, b, d)


_GR_ONE = GaussianRational(1)


def _half_exp_str(e: int) -> str:
    """s-exponent e rendered as the q-exponent e/2."""
    return str(e // 2) if e % 2 == 0 else f"{e}/2"


def join_signed(parts: list[str]) -> str:
    """Join rendered terms with " + "/" - ", folding a leading minus sign."""
    out = [parts[0]]
    for p in parts[1:]:
        if p.startswith("-"):
            out.append(f" - {p[1:]}")
        else:
            out.append(f" + {p}")
    return "".join(out)


class PhaseScalar:
    """Laurent polynomial in s over Gaussian rationals, s**2 = q.

    The monomial c*s**e stands for c*q**(e/2).  Stored in canonical sparse
    form: a mapping from s-exponent to nonzero coefficient, so two scalars
    are equal as formal Laurent polynomials iff their term maps coincide.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, ScalarLike] | ScalarLike = ()):
        if isinstance(terms, (int, Fraction, GaussianRational)):
            terms = {0: terms}
        data = {}
        for e, c in dict(terms).items():
            if not isinstance(e, int):
                raise TypeError(f"s-exponent must be an integer, got {e!r}")
            c = GaussianRational.from_value(c)
            if c:
                data[e] = c
        self._terms = data

    @classmethod
    def _raw(cls, terms: dict[int, GaussianRational]) -> "PhaseScalar":
        self = object.__new__(cls)
        self._terms = terms
        return self

    @property
    def terms(self) -> Mapping[int, GaussianRational]:
        return MappingProxyType(self._terms)

    def items(self) -> Iterator[tuple[int, GaussianRational]]:
        return iter(self._terms.items())

    def as_monomial(self) -> tuple[int, GaussianRational] | None:
        """Return (s-exponent, coefficient) if this is a single term, else None."""
        if len(self._terms) != 1:
            return None
        return next(iter(self._terms.items()))

    def __add__(self, other: "PhaseScalar | ScalarLike") -> "PhaseScalar":
        if not isinstance(other, (PhaseScalar, int, Fraction, GaussianRational)):
            return NotImplemented
        other = _as_phase(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                acc = acc + c
                if acc:
                    out[e] = acc
                else:
                    del out[e]
        return PhaseScalar._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "PhaseScalar":
        return PhaseScalar._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "PhaseScalar | ScalarLike") -> "PhaseScalar":
        if not isinstance(other, (PhaseScalar, int, Fraction, GaussianRational)):
            return NotImplemented
        return self + (-_as_phase(other))

    def __rsub__(self, other: "PhaseScalar | ScalarLike") -> "PhaseScalar":
        return (-self) + other

    def __mul__(self, other: "PhaseScalar | ScalarLike") -> "PhaseScalar":
        if not isinstance(other, (PhaseScalar, int, Fraction, GaussianRational)):
            return NotImplemented
        return self._times(_as_phase(other), 0)

    __rmul__ = __mul__

    def _times(self, other: "PhaseScalar", shift: int) -> "PhaseScalar":
        """The product self * other * s**shift.

        This is the one scalar product: ``__mul__`` is the case shift == 0,
        and an element product asks for its phase-shifted coefficient in
        this one call.
        """
        terms = self._terms
        if len(terms) == 1:
            ((e, c),) = terms.items()
            e += shift
            if c is _GR_ONE or c == _GR_ONE:
                if e == 0:
                    return other
                return PhaseScalar._raw({f + e: d for f, d in other._terms.items()})
            return PhaseScalar._raw({e + f: c * d for f, d in other._terms.items()})
        out: dict[int, GaussianRational] = {}
        for e, c in terms.items():
            e += shift
            for f, d in other._terms.items():
                g = e + f
                prod = c * d
                acc = out.get(g)
                out[g] = prod if acc is None else acc + prod
        return PhaseScalar._raw({e: c for e, c in out.items() if c})

    def __pow__(self, n: int) -> "PhaseScalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def inverse(self) -> "PhaseScalar":
        mono = self.as_monomial()
        if mono is None:
            raise ValueError("only single-term phase scalars are invertible")
        e, c = mono
        return PhaseScalar._raw({-e: c.inverse()})

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PhaseScalar):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self._terms == PhaseScalar(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        # a constant hashes like its coefficient, which it compares equal to
        if not self._terms:
            return 0
        if len(self._terms) == 1 and 0 in self._terms:
            return hash(self._terms[0])
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def to_records(self) -> list:
        """Machine-readable form: [[s-exp, re-num, re-den, im-num, im-den], ...]."""
        return [[e, *c.record_parts()] for e, c in sorted(self._terms.items())]

    def eval_numeric(self, theta: float) -> complex:
        """Evaluate at s = exp(i*pi*theta), i.e. q = exp(2*pi*i*theta)."""
        # s has period 2 in theta; the reduction is exact and keeps pi*theta finite
        base = cmath.exp(1j * math.pi * math.fmod(theta, 2.0))
        return sum((c.to_complex() * base**e for e, c in self._terms.items()), 0j)

    def render(self) -> str:
        """Canonical text: terms by ascending s-exponent, powers written in q."""
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms):
            c = self._terms[e]
            if e == 0:
                parts.append(str(c))
            elif c == _GR_ONE:
                parts.append(f"q^({_half_exp_str(e)})")
            elif c == GaussianRational(-1):
                parts.append(f"-q^({_half_exp_str(e)})")
            else:
                parts.append(f"{c}*q^({_half_exp_str(e)})")
        return join_signed(parts)

    __str__ = render

    def __repr__(self) -> str:
        return f"PhaseScalar({dict(sorted(self._terms.items()))!r})"


def _as_phase(value: "PhaseScalar | ScalarLike") -> PhaseScalar:
    if isinstance(value, PhaseScalar):
        return value
    return PhaseScalar(value)


ZERO = PhaseScalar._raw({})
ONE = PhaseScalar._raw({0: _GR_ONE})


def phase_pow(e: int) -> PhaseScalar:
    """The monomial s**e, i.e. q**(e/2)."""
    if e == 0:
        return ONE
    return PhaseScalar._raw({e: _GR_ONE})


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
