"""Cocycle-twisted group algebras over Z^d with exact structure constants.

A basis monomial is indexed by an integer exponent vector; the product of two
basis monomials is

    delta^a * delta^b = s**phi(a, b) * delta^(a + b)

with phi an integer bilinear form stored in s-exponent units (an entry of 2
is one full power of q).  Bilinearity of phi makes the product associative;
that is verified by the test suite rather than assumed.

Four algebras are provided: ``CIRCLE`` (commutative convolution algebra on
Z), ``TORUS`` (generators U, V with U V = q V U), and the deformed tensor
square ``P2`` and cube ``P3`` of the torus.  Elements are finitely supported,
which is the subspace on which all the verified identities live; identities
extend to infinite sums by (bi)linearity.

Values are immutable and operations pure; everything is safe to share
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add
from types import MappingProxyType
from typing import Mapping, Union

from .phases import (
    ONE,
    GaussianRational,
    PhaseScalar,
    _as_phase,
    join_signed,
)

__all__ = [
    "MultiIndex",
    "AlgebraDescriptor",
    "AlgebraElement",
    "CIRCLE",
    "TORUS",
    "P2",
    "P3",
    "ALGEBRAS",
]

MultiIndex = tuple[int, ...]
ScalarLike = Union[int, Fraction, GaussianRational, PhaseScalar]


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Name, generators and structure constants of one twisted algebra."""

    name: str
    generator_names: tuple[str, ...]
    cocycle: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = len(self.generator_names)
        if len(self.cocycle) != d or any(len(row) != d for row in self.cocycle):
            raise ValueError(f"cocycle matrix of algebra {self.name!r} must be {d}x{d}")

    @property
    def d(self) -> int:
        return len(self.generator_names)

    @cached_property
    def _entries(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(
            (i, j, m)
            for i, row in enumerate(self.cocycle)
            for j, m in enumerate(row)
            if m
        )

    def phase_exponent(self, a: MultiIndex, b: MultiIndex) -> int:
        """s-exponent picked up by delta^a * delta^b."""
        total = 0
        for i, j, m in self._entries:
            total += m * a[i] * b[j]
        return total

    def monomial_text(self, idx: MultiIndex) -> str:
        """Generator powers of delta^idx, e.g. "U^2 V"; empty for the unit."""
        return " ".join(
            name if k == 1 else f"{name}^{k}"
            for name, k in zip(self.generator_names, idx)
            if k
        )

    def check_index(self, idx: MultiIndex) -> MultiIndex:
        idx = tuple(idx)
        if len(idx) != self.d:
            raise ValueError(
                f"index length {len(idx)} does not match algebra {self.name!r} (d={self.d})"
            )
        if not all(isinstance(k, int) for k in idx):
            raise TypeError(f"index entries must be integers: {idx!r}")
        return idx

    def basis(self, idx: MultiIndex) -> "AlgebraElement":
        """The basis monomial delta^idx with coefficient 1."""
        return AlgebraElement._raw(self, {self.check_index(idx): ONE})

    def unit(self) -> "AlgebraElement":
        return self.basis((0,) * self.d)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement._raw(self, {})

    def generator(self, name: str, power: int = 1) -> "AlgebraElement":
        """The basis monomial of a named generator (power may be negative)."""
        pos = self.generator_position(name)
        idx = [0] * self.d
        idx[pos] = power
        return self.basis(tuple(idx))

    def generator_position(self, name: str) -> int:
        try:
            return self.generator_names.index(name)
        except ValueError:
            raise ValueError(
                f"unknown generator {name!r} for algebra {self.name!r}"
            ) from None

    def element(self, support: Mapping[MultiIndex, ScalarLike]) -> "AlgebraElement":
        return AlgebraElement(self, support)

    def __repr__(self) -> str:
        return f"AlgebraDescriptor({self.name!r}, d={self.d})"


class AlgebraElement:
    """Finitely supported exact element of one twisted algebra."""

    __slots__ = ("algebra", "_support")

    def __init__(self, algebra: AlgebraDescriptor, support: Mapping[MultiIndex, ScalarLike]):
        data = {}
        for idx, c in dict(support).items():
            idx = algebra.check_index(idx)
            c = _as_phase(c)
            if c:
                data[idx] = c
        self.algebra = algebra
        self._support = data

    @classmethod
    def _raw(cls, algebra: AlgebraDescriptor, support: dict[MultiIndex, PhaseScalar]) -> "AlgebraElement":
        self = object.__new__(cls)
        self.algebra = algebra
        self._support = support
        return self

    @property
    def support(self) -> Mapping[MultiIndex, PhaseScalar]:
        return MappingProxyType(self._support)

    def _require_same_algebra(self, other: "AlgebraElement", what: str):
        if self.algebra != other.algebra:
            raise ValueError(
                f"cannot {what} elements of {self.algebra.name!r} and {other.algebra.name!r}"
            )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same_algebra(other, "add")
        out = dict(self._support)
        for idx, c in other._support.items():
            acc = out.get(idx)
            if acc is None:
                out[idx] = c
            else:
                acc = acc + c
                if acc:
                    out[idx] = acc
                else:
                    del out[idx]
        return AlgebraElement._raw(self.algebra, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._raw(self.algebra, {i: -c for i, c in self._support.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c: ScalarLike) -> "AlgebraElement":
        c = _as_phase(c)
        if not c:
            return AlgebraElement._raw(self.algebra, {})
        return AlgebraElement._raw(
            self.algebra, {i: c * v for i, v in self._support.items()}
        )

    def __mul__(self, other: "AlgebraElement | ScalarLike") -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            algebra = self.algebra
            if other.algebra is not algebra:
                self._require_same_algebra(other, "multiply")
            phase_exponent = algebra.phase_exponent
            out: dict[MultiIndex, PhaseScalar] = {}
            for a, ca in self._support.items():
                times = ca._times
                for b, cb in other._support.items():
                    idx = tuple(map(add, a, b))
                    c = times(cb, phase_exponent(a, b))
                    acc = out.get(idx)
                    out[idx] = c if acc is None else acc + c
            return AlgebraElement._raw(algebra, {i: c for i, c in out.items() if c})
        if isinstance(other, (int, Fraction, GaussianRational, PhaseScalar)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other: ScalarLike) -> "AlgebraElement":
        if isinstance(other, (int, Fraction, GaussianRational, PhaseScalar)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self._support == other._support

    def __hash__(self) -> int:
        return hash((self.algebra.name, frozenset(self._support.items())))

    def __bool__(self) -> bool:
        return bool(self._support)

    def eval_numeric(self, theta: float) -> dict[MultiIndex, complex]:
        """Coefficientwise numeric evaluation at q = exp(2*pi*i*theta)."""
        return {idx: c.eval_numeric(theta) for idx, c in self._support.items()}

    def render(self) -> str:
        """Canonical text: terms sorted by index, zero exponents omitted."""
        if not self._support:
            return "0"
        monomial_text = self.algebra.monomial_text
        parts = []
        for idx in sorted(self._support):
            c = self._support[idx]
            gens = monomial_text(idx)
            if not gens:
                parts.append(c.render())
            elif c == ONE:
                parts.append(gens)
            else:
                ctxt = c.render()
                if len(c.terms) > 1:
                    ctxt = f"({ctxt})"
                parts.append(f"{ctxt} * {gens}")
        return join_signed(parts)

    __str__ = render

    def __repr__(self) -> str:
        return f"<{self.algebra.name}: {self.render()}>"

    def to_records(self) -> list:
        """Machine-readable form: [[index, [[s-exp, re-num, re-den, im-num, im-den], ...]], ...]."""
        return [[list(idx), self._support[idx].to_records()] for idx in sorted(self._support)]

    @classmethod
    def from_records(cls, algebra: AlgebraDescriptor, records: list) -> "AlgebraElement":
        support = {}
        for idx, terms in records:
            coeff = PhaseScalar(
                {
                    int(e): GaussianRational(Fraction(rn, rd), Fraction(imn, imd))
                    for e, rn, rd, imn, imd in terms
                }
            )
            support[tuple(idx)] = coeff
        return cls(algebra, support)


def _cocycle_matrix(d: int, entries: dict[tuple[int, int], int]) -> tuple[tuple[int, ...], ...]:
    rows = [[0] * d for _ in range(d)]
    for (i, j), m in entries.items():
        rows[i][j] = m
    return tuple(tuple(row) for row in rows)


# Structure constants in s-exponent units.  In each case the only nonzero
# entries say how a later generator moves past an earlier one.

# Convolution algebra on Z: commutative, no twist.
CIRCLE = AlgebraDescriptor("circle", ("z",), _cocycle_matrix(1, {}))

# delta^(m,n) * delta^(k,l) = q^(-k n) delta^(m+k, n+l), so U V = q V U.
TORUS = AlgebraDescriptor("torus", ("U", "V"), _cocycle_matrix(2, {(1, 0): -2}))

# Deformed tensor square: for a = (k1,l1,m1,n1), b = (k2,l2,m2,n2) the
# s-exponent is  n1*k2 - 2*l1*k2 - m1*l2 - 2*n1*m2,  the unique bilinear
# form reproducing the six generator relations
#   U1 V1 = q V1 U1     U2 V2 = q V2 U2
#   U1 V2 = q^(-1/2) V2 U1     V1 U2 = q^(1/2) U2 V1
#   U1 U2 = U2 U1       V1 V2 = V2 V1
P2 = AlgebraDescriptor(
    "p2",
    ("U1", "V1", "U2", "V2"),
    _cocycle_matrix(4, {(3, 0): 1, (1, 0): -2, (2, 1): -1, (3, 2): -2}),
)

# Deformed tensor cube: the square's twist between factors (1,2) and (2,3),
# no twist between factors (1,3).
P3 = AlgebraDescriptor(
    "p3",
    ("U1", "V1", "U2", "V2", "U3", "V3"),
    _cocycle_matrix(
        6,
        {
            (1, 0): -2,
            (3, 2): -2,
            (5, 4): -2,
            (3, 0): 1,
            (2, 1): -1,
            (5, 2): 1,
            (4, 3): -1,
        },
    ),
)

ALGEBRAS: dict[str, AlgebraDescriptor] = {
    a.name: a for a in (CIRCLE, TORUS, P2, P3)
}
