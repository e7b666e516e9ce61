"""Cocycle-twisted group algebras over Z^d, stored as flat exact term maps.

With s = q**(1/2) kept formal, each algebra is the group algebra over Q(i) of
a central extension Z x_phi Z^d (Rieffel's twisted group algebra, with the
cocycle made central).  An element is one flat dict (a, e) -> c standing for
the sum of c * s**e * delta^a: ``a`` is the integer exponent vector of a
basis monomial, ``e`` the s-exponent, ``c`` a nonzero Gaussian rational.  The
one product is delta^(a,e) * delta^(b,f) = delta^(a+b, e+f+phi(a,b)), with
phi an integer bilinear form in s-exponent units (an entry of 2 is one full
power of q); bilinearity makes it associative, which the test suite verifies
rather than assumes.  The product runs two functions generated from the
cocycle on first use: the straight-line kernel (a, b) -> (a+b, phi(a,b)),
whose text is ``kernel_source``, and, when the left factor is one term, the
row function (a, e, keys) -> [(a+b, e+f+phi(a,b)) for (b, f) in keys], which
works out c = a^T Phi once, so that phi(a, b) = c . b, and whose text is
``row_source``.  Rendering runs a third, generated from the generator names:
``monomial_text``, whose text is ``monomial_source``.  A sum that cancels is
dropped where its key merges: a sum, a scaling and a structure map run the one
merge ``_merge_into``, and the general product writes the same merge out in its
loop.  Sorted keys (a, e) give the canonical rendering order.

The scalars are the elements of the rank-0 algebra ``POINT`` (d = 0, not in
``ALGEBRAS``), each a :class:`PhaseScalar`.  A scalar acts on every algebra
by :meth:`AlgebraElement.scale`, which adds s-exponents and multiplies
coefficients; that action is also the product of ``POINT``.  The algebras in
``ALGEBRAS``: ``CIRCLE`` (commutative convolution algebra on Z), ``TORUS``
(U V = q V U), and its deformed tensor square ``P2`` and cube ``P3``, built by
one rule (``_power``).  Elements are finitely supported; identities extend to
infinite sums by (bi)linearity.

Coefficients are ``GaussianRational`` integer triples.  Values are immutable
and operations pure; everything is safe to share between threads.  A descriptor
is a plain frozen class, equal, hashed and pickled by its name, generators and
cocycle, so this module, like ``phases``, imports no ``dataclasses``.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from math import fsum, gcd
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Union

__all__ = [
    "GaussianRational",
    "MultiIndex",
    "AlgebraDescriptor",
    "AlgebraElement",
    "PhaseScalar",
    "POINT",
    "CIRCLE",
    "TORUS",
    "P2",
    "P3",
    "ALGEBRAS",
]

MultiIndex = tuple[int, ...]
RationalLike = Union[int, Fraction]
Number = Union[int, Fraction, "GaussianRational"]
ScalarLike = Union[Number, "PhaseScalar"]

_new_object = object.__new__
_real, _imag = attrgetter("real"), attrgetter("imag")


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

    @classmethod
    def from_value(cls, value: Number) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, int):
            return _reduced(int(value), 0, 1)
        if isinstance(value, Fraction):
            return _reduced(value.numerator, 0, value.denominator)
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

    def __add__(self, other: Number) -> "GaussianRational":
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
        return _reduced(-self._a, -self._b, self._d)

    def __sub__(self, other: Number) -> "GaussianRational":
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        return self + (-GaussianRational.from_value(other))

    def __rsub__(self, other: Number) -> "GaussianRational":
        return (-self) + other

    def __mul__(self, other: Number) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational.from_value(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def _times_each(self, others) -> list:
        """[self * o for o in others] for Gaussian rationals ``others``, in one call."""
        a, b, d = self._a, self._b, self._d
        return [_reduced(a * o._a - b * o._b, a * o._b + b * o._a, d * o._d) for o in others]

    def inverse(self) -> "GaussianRational":
        # d / (a + b*i) = d*(a - b*i) / (a*a + b*b)
        a, b, d = self._a, self._b, self._d
        norm = a * a + b * b
        if not norm:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _reduced(d * a, -d * b, norm)

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
    """(a + b*i) / d for d > 0, divided through by the common gcd, which is skipped
    when d == 1; every arithmetic result is built here, each sum of ``_merge_into`` too."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    self = _new_object(GaussianRational)
    self._a = a
    self._b = b
    self._d = d
    return self


def _merge_into(out: dict, pairs) -> dict:
    """Add each (key, coefficient) of ``pairs`` into the flat terms ``out`` and
    return ``out``; a sum that cancels is dropped at its merge, so none is zero."""
    for key, c in pairs:
        acc = out.get(key)
        if acc is None:
            out[key] = c
        else:
            acc = acc + c
            if acc:
                out[key] = acc
            else:
                del out[key]
    return out


_GR_ONE = GaussianRational(1)
_INT = frozenset((int,))
_NUMBERS = (int, Fraction, GaussianRational)
# theta: {e: s**e for |e| <= 256}, for at most eight thetas (never a NaN, equal to no other), all
# dropped when a ninth comes; a race between threads at worst builds a table twice.  -0.0 and 0.0
# share a table: their powers differ at most in a zero's sign, which eval_numeric's 0j + removes.
_S_POWERS: dict[float, dict[int, complex]] = {}


def _sorted_by_index(terms: dict) -> groupby:
    """The flat items ((a, e), c) in canonical order, grouped by the index a."""
    return groupby(sorted(terms.items()), lambda item: item[0][0])


def join_signed(parts: list[str]) -> str:
    """Join rendered terms with " + "/" - ", folding a leading minus sign."""
    out = [parts[0]]
    for p in parts[1:]:
        if p.startswith("-"):
            out.append(f" - {p[1:]}")
        else:
            out.append(f" + {p}")
    return "".join(out)


def _tuple_text(items: list[str]) -> str:
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


def _sum_text(terms) -> str:
    """Python text of the sum of m*v over the pairs (m, v) with m nonzero, e.g. "a0 - 2*a1"."""
    parts = [v if m == 1 else f"-{v}" if m == -1 else f"{m}*{v}" for m, v in terms if m]
    return join_signed(parts) if parts else "0"


def _compile_kernel(source: str, name: str = "kernel"):
    """The function ``name`` that ``source`` defines, compiled once."""
    exec(source, namespace := {})
    return namespace[name]


def _term_text(e: int, c: GaussianRational) -> str:
    """c * s**e, with the power written in q (s-exponent e is q-exponent e/2)."""
    if e == 0:
        return str(c)
    power = f"q^({e // 2})" if e % 2 == 0 else f"q^({e}/2)"
    if c._d == 1 and not c._b and c._a in (1, -1):
        return power if c._a == 1 else f"-{power}"
    return f"{c}*{power}"


class AlgebraDescriptor:
    """Name, generators and structure constants of one twisted algebra; frozen."""

    def __init__(self, name: str, generator_names: tuple[str, ...], cocycle: tuple):
        d = len(generator_names)
        if len(cocycle) != d or any(len(row) != d for row in cocycle):
            raise ValueError(f"cocycle matrix of algebra {name!r} must be {d}x{d}")
        # equal, hashed and pickled by these values, not by the functions it caches
        self.__dict__.update(name=name, generator_names=generator_names, cocycle=cocycle,
                             _values=(name, generator_names, cocycle))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return self._values == other._values if type(other) is AlgebraDescriptor else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name: str, *value) -> None:  # also ``__delattr__``, with no value
        raise AttributeError(f"cannot assign to or delete field {name!r}")
    __delattr__ = __setattr__

    def __reduce__(self):  # POINT, TORUS, ... pickle by module name and unpickle as themselves
        named = self is POINT or ALGEBRAS.get(self.name) is self
        return self.name.upper() if named else (AlgebraDescriptor, self._values)

    @property
    def d(self) -> int:
        return len(self.generator_names)

    @cached_property
    def kernel_source(self) -> str:
        """Python source of ``kernel(a, b) -> (a + b, phi(a, b))``, one term per
        nonzero cocycle entry; built on first use, like the kernel itself."""
        a, b = ([f"{x}{i}" for i in range(self.d)] for x in "ab")
        phi = _sum_text((m, f"a{i}*b{j}") for i, row in enumerate(self.cocycle)
                        for j, m in enumerate(row))
        return (f"def kernel(a, b):\n    {_tuple_text(a)} = a\n    {_tuple_text(b)} = b\n"
                f"    return {_tuple_text([f'{x} + {y}' for x, y in zip(a, b)])}, {phi}\n")

    @cached_property
    def _kernel(self):
        return _compile_kernel(self.kernel_source)

    @cached_property
    def row_source(self) -> str:
        """Python source of ``row(a, e, keys) -> [(a + b, e + f + phi(a, b)) for (b, f)
        in keys]``, the flat keys of delta^(a,e) times each delta^(b,f): phi(a, b) is
        c . b with c = a^T Phi worked out once per call, one ``c`` per nonzero column."""
        a, b = ([f"{x}{i}" for i in range(self.d)] for x in "ab")
        columns = [(j, _sum_text((m[j], f"a{i}") for i, m in enumerate(self.cocycle)))
                   for j in range(self.d)]
        columns = [(j, c) for j, c in columns if c != "0"]
        phase = _sum_text([(1, "e"), (1, "f"), *((1, f"c{j}*b{j}") for j, _ in columns)])
        return (f"def row(a, e, keys):\n    {_tuple_text(a)} = a\n"
                + "".join(f"    c{j} = {c}\n" for j, c in columns)
                + f"    return [({_tuple_text([f'{x} + {y}' for x, y in zip(a, b)])}, {phase})\n"
                f"            for {_tuple_text(b)}, f in keys]\n")

    @cached_property
    def _row(self):
        return _compile_kernel(self.row_source, "row")

    def phase_exponent(self, a: MultiIndex, b: MultiIndex) -> int:
        """s-exponent picked up by delta^a * delta^b."""
        return self._kernel(a, b)[1]

    @cached_property
    def monomial_source(self) -> str:
        """Python source of ``monomial(a)``, the generator powers of delta^a: " name" or
        " name^k" for each nonzero entry k, joined, with the first space cut."""
        powers = "".join(f"        '' if not a{i} else {' ' + n!r} if a{i} == 1 else {f' {n}^'!r}"
                         f" + str(a{i}),\n" for i, n in enumerate(self.generator_names))
        a = _tuple_text([f"a{i}" for i in range(self.d)])
        return f"def monomial(a):\n    {a} = a\n    return ''.join((\n{powers}    ))[1:]\n"

    @cached_property
    def monomial_text(self) -> Callable[[MultiIndex], str]:
        """idx -> the generator powers of delta^idx, e.g. "U^2 V", "" for the unit; compiled
        from ``monomial_source`` on first use."""
        return _compile_kernel(self.monomial_source, "monomial")

    def check_index(self, idx: MultiIndex) -> MultiIndex:
        idx = tuple(idx)
        if len(idx) != self.d:
            raise ValueError(
                f"index length {len(idx)} does not match algebra {self.name!r} (d={self.d})"
            )
        if not _INT.issuperset(map(type, idx)):  # bool is an int, but no index entry
            raise TypeError(f"index entries must be integers: {idx!r}")
        return idx

    def basis(self, idx: MultiIndex) -> "AlgebraElement":
        """The basis monomial delta^idx with coefficient 1."""
        return AlgebraElement._raw(self, {(self.check_index(idx), 0): _GR_ONE})

    def unit(self) -> "AlgebraElement":
        return self.basis((0,) * self.d)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement._raw(self, {})

    def generator(self, name: str, power: int = 1) -> "AlgebraElement":
        """The basis monomial of a named generator (power may be negative)."""
        idx = [0] * self.d
        idx[self.generator_position(name)] = power
        return self.basis(idx)

    def generator_position(self, name: str) -> int:
        try:
            return self.generator_names.index(name)
        except ValueError:
            raise ValueError(
                f"unknown generator {name!r} for algebra {self.name!r}"
            ) from None

    def __repr__(self) -> str:
        return f"AlgebraDescriptor({self.name!r}, d={self.d})"


class AlgebraElement:
    """Finitely supported exact element of one twisted algebra.

    The terms are one flat dict ``{(index, s-exponent): nonzero coefficient}``.
    The constructor takes the grouped form ``{index: scalar}``, where a scalar
    is a ``PhaseScalar`` or a number; ``support`` gives that form back.
    """

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: AlgebraDescriptor, support: Mapping[MultiIndex, ScalarLike]):
        if algebra is POINT:
            raise TypeError("elements of POINT are built with PhaseScalar")
        terms = {}
        for idx, c in dict(support).items():
            idx = algebra.check_index(idx)
            if not isinstance(c, PhaseScalar):
                c = PhaseScalar(c)
            for (_, e), v in c._terms.items():
                terms[(idx, e)] = v
        self.algebra = algebra
        self._terms = terms

    @staticmethod
    def _raw(algebra: AlgebraDescriptor, terms: dict) -> "AlgebraElement":
        """The flat terms as they are, none zero: every sum of terms drops a sum that
        cancels at its merge, through ``_merge_into`` or, in the general product, its
        merge written out.  An element of ``POINT`` is a ``PhaseScalar``."""
        self = _new_object(PhaseScalar if algebra is POINT else AlgebraElement)
        self.algebra = algebra
        self._terms = terms
        return self

    @property
    def flat(self) -> Mapping[tuple[MultiIndex, int], GaussianRational]:
        """The terms as stored: ``{(index, s-exponent): coefficient}``."""
        return MappingProxyType(self._terms)

    @property
    def support(self) -> Mapping[MultiIndex, "PhaseScalar"]:
        """The coefficient of each basis monomial: a view grouped anew from the
        flat terms on each access, so hot paths read ``flat`` instead."""
        grouped: dict[MultiIndex, dict] = {}
        for (a, e), c in self._terms.items():
            grouped.setdefault(a, {})[((), e)] = c
        return MappingProxyType({a: AlgebraElement._raw(POINT, t) for a, t in grouped.items()})

    def _require_same_algebra(self, other: "AlgebraElement", what: str):
        if self.algebra != other.algebra:
            raise ValueError(
                f"cannot {what} elements of {self.algebra.name!r} and {other.algebra.name!r}"
            )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if other.algebra is not self.algebra:
            self._require_same_algebra(other, "add")
        out = _merge_into(dict(self._terms), other._terms.items())
        return AlgebraElement._raw(self.algebra, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._raw(self.algebra, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, c: ScalarLike) -> "AlgebraElement":
        """c * self for a scalar c: s-exponents add and coefficients multiply.  For c = s**f only
        the keys change; any other c goes through ``_merge_into``, which sums terms that meet."""
        if not isinstance(c, PhaseScalar):
            c = PhaseScalar(c)
        if list(c._terms.values()) == [_GR_ONE]:  # c is s**f: each term keeps its coefficient
            (_, f), = c._terms
            out = {(a, e + f): v for (a, e), v in self._terms.items()} if f else self._terms
        else:
            out = _merge_into({}, (((a, e + f), w * v) for (_, f), w in c._terms.items()
                                   for (a, e), v in self._terms.items()))
        return AlgebraElement._raw(self.algebra, out)

    def __mul__(self, other: "AlgebraElement | ScalarLike") -> "AlgebraElement":
        """The product; a number scales.  A one-term left factor delta^(a,e)
        takes the algebra's row function, which gives every key
        ``(a + b, e + f + phi(a, b))`` of the product in one call.  Otherwise the
        algebra's kernel gives ``a + b`` and ``phi(a, b)`` once per pair of index
        runs (adjacent flat terms sharing an index).  A left coefficient other than 1 multiplies
        the right factor's coefficient row in one ``_times_each`` call; each product is added
        where its key merges, as ``_merge_into`` does, and a sum that cancels is dropped there."""
        if isinstance(other, AlgebraElement):
            algebra = self.algebra
            if other.algebra is not algebra:
                self._require_same_algebra(other, "multiply")
            kernel = algebra._kernel
            left, right = self._terms, other._terms
            if len(left) == 1 == len(right):
                ((a, e), c), = left.items()
                ((b, f), d), = right.items()
                ab, g = kernel(a, b)
                return AlgebraElement._raw(algebra, {(ab, e + f + g): d if c is _GR_ONE else c * d})
            if len(left) == 1:
                # b -> a + b is injective and the f of one index are distinct, so
                # no two keys merge, and no product of nonzero coefficients is zero
                ((a, e), c), = left.items()
                coefficients = right.values() if c is _GR_ONE else c._times_each(right.values())
                out = dict(zip(algebra._row(a, e, right), coefficients))
                return AlgebraElement._raw(algebra, out)
            # the merge of _merge_into, written out: handing it (key, coefficient)
            # pairs made products of suite-sized elements 1.13-1.20x slower
            out, a_run, ds = {}, None, list(right.values())
            for (a, e), c in left.items():
                if a != a_run:
                    # one row per left index run: (a + b, f + phi(a, b)) per right term
                    a_run, b_run, row = a, None, []
                    for b, f in right:
                        if b != b_run:
                            b_run, (ab, g) = b, kernel(a, b)
                        row.append((ab, f + g))
                for (ab, g), p in zip(row, ds if c is _GR_ONE else c._times_each(ds)):
                    key = (ab, e + g)
                    acc = out.get(key)
                    if acc is None:
                        out[key] = p
                    else:
                        acc = acc + p
                        if acc:
                            out[key] = acc
                        else:
                            del out[key]
            return AlgebraElement._raw(algebra, out)
        if isinstance(other, _NUMBERS):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other: ScalarLike) -> "AlgebraElement":
        if isinstance(other, _NUMBERS):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.algebra.name, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def eval_numeric(self, theta: float) -> dict[MultiIndex, complex]:
        """Coefficientwise evaluation at s = exp(i*pi*theta), i.e. q = exp(2*pi*i*theta); each
        index sums its terms' real and imaginary parts by ``math.fsum``, in any order alike.

        A coefficient or s-exponent too large for a float, or a sum that overflows, raises
        ``OverflowError`` naming the index; a value that overflows only in the product
        c * s**e has an infinite part.  For |e| <= 256, s**e is base**e, base =
        exp(i*pi*theta), read from a table built once per theta; for |e| > 256 it is
        exp(i*pi*(n*e mod 2d)/d), with n/d = theta exactly."""
        powers = _S_POWERS.get(theta)
        if powers is None:  # s has period 2 in theta; the reduction is exact, pi*theta finite
            base = cmath.exp(1j * math.pi * math.fmod(theta, 2.0))
            kept = _S_POWERS if theta == theta else {}  # a NaN's table is not kept
            if len(kept) >= 8:
                kept.clear()
            powers = kept[theta] = {e: base**e for e in range(-256, 257)}
        out: dict[MultiIndex, complex] = {}
        several: dict[MultiIndex, list[complex]] | None = None  # each repeated index's terms
        try:
            for (a, e), c in self._terms.items():
                s = powers.get(e)
                if s is None and math.isnan(theta):  # a NaN has no integer ratio; all is NaN
                    s = powers[1] ** e
                elif s is None:  # exact: base**e loses about |e| ulps of the angle
                    float(e)  # an s-exponent outside float range stays an OverflowError
                    n, d = theta.as_integer_ratio()
                    s = cmath.exp(1j * math.pi * (n * e % (2 * d) / d))
                z = 0j + complex(c._a / c._d, c._b / c._d) * s  # 0j + turns -0.0 into 0.0
                if a not in out:
                    out[a] = z
                else:
                    several = several or {}
                    several.setdefault(a, [out[a]]).append(z)
            for a, zs in (several or {}).items():
                out[a] = 0j + complex(fsum(map(_real, zs)), fsum(map(_imag, zs)))
        except (OverflowError, ValueError):  # fsum raises ValueError on inf - inf
            raise OverflowError(f"the value at index {a} is outside float range") from None
        return out

    def render(self) -> str:
        """Canonical text: terms sorted by index, then by s-exponent; zero exponents omitted."""
        if not self._terms:
            return "0"
        monomial_text = self.algebra.monomial_text
        parts = []
        for a, group in _sorted_by_index(self._terms):
            scalar = [_term_text(e, c) for (_, e), c in group]
            ctxt = scalar[0] if len(scalar) == 1 else join_signed(scalar)
            gens = monomial_text(a)
            if not gens:
                parts.append(ctxt)
            elif ctxt == "1":
                parts.append(gens)
            elif len(scalar) > 1:
                parts.append(f"({ctxt}) * {gens}")
            else:
                parts.append(f"{ctxt} * {gens}")
        return join_signed(parts)

    __str__ = render

    def __repr__(self) -> str:
        return f"<{self.algebra.name}: {self.render()}>"

    def to_records(self) -> list:
        """Machine-readable form: [[index, [[s-exp, re-num, re-den, im-num, im-den], ...]], ...]."""
        return [
            [list(a), [[e, *c.record_parts()] for (_, e), c in group]]
            for a, group in _sorted_by_index(self._terms)
        ]

    @classmethod
    def from_records(cls, algebra: AlgebraDescriptor, records: list) -> "AlgebraElement":
        """The element of ``to_records`` output; each (index, s-exponent) at most once."""
        terms = {}
        for idx, coeff in records:
            idx = algebra.check_index(idx)
            for e, rn, rd, imn, imd in coeff:
                if type(e) is not int:  # not a bool either
                    raise TypeError(f"s-exponent must be an integer, got {e!r}")
                if not type(rn) is int is type(rd) is type(imn) is type(imd):  # not a bool either
                    raise TypeError(f"coefficient parts must be integers: {[rn, rd, imn, imd]!r}")
                if rd <= 0 or imd <= 0:
                    raise ValueError(f"denominator not positive at index {idx}, s-exponent {e}")
                if (idx, e) in terms:
                    raise ValueError(f"s-exponent {e} repeated at index {idx}")
                # the one reduced triple of (rn/rd) + (imn/imd) i, in lowest terms or not
                terms[(idx, e)] = _reduced(rn * imd, imn * rd, rd * imd)
        return AlgebraElement._raw(algebra, {k: c for k, c in terms.items() if c})


class PhaseScalar(AlgebraElement):
    """An element of ``POINT``: a Laurent polynomial in s over Gaussian rationals.

    The term c*s**e, i.e. c*q**(e/2), has the key ((), e).  This class adds
    only what is specific to scalars: construction from ``{e: c}`` or a
    number, the view by s-exponent, mixed arithmetic, equality and hashing
    with numbers, the action on every algebra, inverse and powers, one
    number from ``eval_numeric``, and its own records and repr.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[int, Number] | Number = ()):
        if isinstance(terms, _NUMBERS):
            terms = {0: terms}
        flat = {}
        for e, c in dict(terms).items():
            if type(e) is not int:  # not a bool either
                raise TypeError(f"s-exponent must be an integer, got {e!r}")
            c = GaussianRational.from_value(c)
            if c:
                flat[((), e)] = c
        self.algebra = POINT
        self._terms = flat

    @property
    def terms(self) -> Mapping[int, GaussianRational]:
        return MappingProxyType(dict(self.items()))

    def items(self) -> Iterator[tuple[int, GaussianRational]]:
        return ((e, c) for (_, e), c in self._terms.items())

    def __add__(self, other: ScalarLike) -> "PhaseScalar":
        if isinstance(other, _NUMBERS):
            other = PhaseScalar(other)
        return AlgebraElement.__add__(self, other)

    __radd__ = __add__

    def __rsub__(self, other: ScalarLike) -> "PhaseScalar":
        return (-self) + other

    def __mul__(self, other: "AlgebraElement | ScalarLike") -> "AlgebraElement":
        """Scalars are central: a product with a scalar scales the other factor."""
        if isinstance(other, AlgebraElement):
            return other.scale(self)
        if isinstance(other, _NUMBERS):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PhaseScalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = PhaseScalar(1)
        for _ in range(n):
            out = out * self
        return out

    def inverse(self) -> "PhaseScalar":
        if len(self._terms) != 1:
            raise ValueError("only single-term phase scalars are invertible")
        (e, c), = self.items()
        return PhaseScalar({-e: c.inverse()})

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _NUMBERS):
            other = PhaseScalar(other)
        return AlgebraElement.__eq__(self, other)

    def __hash__(self) -> int:
        # a constant hashes like its coefficient, which it compares equal to
        terms = self._terms
        if len(terms) == 1 and ((), 0) in terms:
            return hash(terms[((), 0)])
        return hash(frozenset(self.items())) if terms else 0

    def eval_numeric(self, theta: float) -> complex:
        """Evaluate at s = exp(i*pi*theta), i.e. q = exp(2*pi*i*theta)."""
        return AlgebraElement.eval_numeric(self, theta).get((), 0j)

    def to_records(self) -> list:
        """Machine-readable form: [[s-exp, re-num, re-den, im-num, im-den], ...]."""
        return [[e, *c.record_parts()] for (_, e), c in sorted(self._terms.items())]

    def __repr__(self) -> str:
        return f"PhaseScalar({dict(sorted(self.items()))!r})"


# Structure constants in s-exponent units.  In each case the only nonzero
# entries say how a later generator moves past an earlier one.

# The rank-0 algebra of the scalars: one basis monomial, no twist.
POINT = AlgebraDescriptor("point", (), ())

# Convolution algebra on Z: commutative, no twist.
CIRCLE = AlgebraDescriptor("circle", ("z",), ((0,),))

# delta^(m,n) * delta^(k,l) = q^(-k n) delta^(m+k, n+l), so U V = q V U.
TORUS = AlgebraDescriptor("torus", ("U", "V"), ((0, 0), (-2, 0)))

# How U(k+1) and V(k+1) (rows) move past U(k) and V(k) (columns) in neighbouring factors.
_CROSS = ((0, -1), (1, 0))


def _power(n: int) -> AlgebraDescriptor:
    """The deformed n-th tensor power ``p{n}`` of the torus, generators U1, V1, U2, ..., Vn:
    the torus cocycle on each diagonal block, ``_CROSS`` on each block (k+1, k), zero elsewhere.
    So neighbouring factors obey U(k) V(k+1) = q^(-1/2) V(k+1) U(k) and V(k) U(k+1) = q^(1/2)
    U(k+1) V(k), and factors further apart commute: with the same twist between every pair of
    factors, the lifted comultiplications would not be algebra homomorphisms."""
    blocks = {0: TORUS.cocycle, 1: _CROSS}  # block (k, l) by k - l
    names = tuple(f"{g}{k}" for k in range(1, n + 1) for g in "UV")
    cocycle = tuple(tuple(blocks[k - l][i][j] if k - l in blocks else 0
                          for l in range(n) for j in range(2)) for k in range(n) for i in range(2))
    return AlgebraDescriptor(f"p{n}", names, cocycle)


# Deformed tensor square and cube.  In p2, for a = (k1,l1,m1,n1), b = (k2,l2,m2,n2), the
# s-exponent is  n1*k2 - 2*l1*k2 - m1*l2 - 2*n1*m2,  the unique bilinear
# form reproducing the six generator relations
#   U1 V1 = q V1 U1     U2 V2 = q V2 U2
#   U1 V2 = q^(-1/2) V2 U1     V1 U2 = q^(1/2) U2 V1
#   U1 U2 = U2 U1       V1 V2 = V2 V1
P2 = _power(2)
P3 = _power(3)

ALGEBRAS: dict[str, AlgebraDescriptor] = {
    a.name: a for a in (CIRCLE, TORUS, P2, P3)
}
