"""Structure maps between the torus and its deformed tensor powers.

Every structure map sends a basis monomial to one monomial,

    delta^a |-> s**P(a) * delta^(A a),

with A an integer matrix and P an integer polynomial in a of degree at most
two and without constant term (in s-exponent units, like the cocycles).  So
a map is the integer data (A, P), extended linearly; since elements have
finite support the extension is a finite sum, run by a kernel generated from
(A, P) on first use: a -> (A a, P(a)), text in ``kernel_source``.  The maps:

* ``comult``          torus -> p2,  U |-> U1 U2, V |-> V1 V2 (an algebra map)
* ``counit``          torus -> POINT (the scalars),  U^k V^l |-> q^(k l / 2)
* ``antipode``        torus -> torus,  U |-> U^-1, V |-> V^-1 (an algebra map)
* ``mult_map``        p2 -> torus, collapses the two factors
* ``lift_left_comult`` / ``lift_right_comult``    p2 -> p3, comult on one factor
* ``lift_left_counit`` / ``lift_right_counit``    p2 -> torus, counit on one factor
* ``lift_left_antipode`` / ``lift_right_antipode``  p2 -> p2, antipode on one factor
* ``circle_comult``   circle -> torus,  z^n |-> (U V)^n
* ``embed_left`` / ``embed_right``   torus -> p2, the two canonical copies

The lifted one-factor maps, built from ``comult``, ``counit`` and ``antipode``
by one rule (``_lift``), are linear but (apart from the comultiplication
lifts) not algebra homomorphisms, because the product on p2 is twisted.
The circle comultiplication is an algebra homomorphism out of the
commutative convolution algebra; no counit or antipode fits it, so none is
defined.  It is also the one map whose P has a linear term.

Maps are immutable and application is pure; everything is thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

from .algebra import CIRCLE, P2, P3, POINT, TORUS, AlgebraDescriptor, AlgebraElement
from .algebra import _compile_kernel, _merge_into, _sum_text, _tuple_text

__all__ = [
    "LinearMap",
    "comult",
    "counit",
    "antipode",
    "mult_map",
    "lift_left_comult",
    "lift_right_comult",
    "lift_left_counit",
    "lift_right_counit",
    "lift_left_antipode",
    "lift_right_antipode",
    "circle_comult",
    "embed_left",
    "embed_right",
    "MAPS",
    "GENERATOR_IMAGES",
]


@dataclass(frozen=True)
class LinearMap:
    """The linear extension of delta^a |-> s**P(a) * delta^(A a).

    ``matrix`` is A: one row of ``source.d`` integers per target generator.
    A scalar-valued map targets ``POINT``, has no rows, and returns a
    ``PhaseScalar``.  ``phase`` is the quadratic part of P as sparse entries
    (i, j, m), each meaning m * a[i] * a[j]; ``linear`` is its linear part,
    empty or one integer per source generator.  Applying the map moves each
    flat term (a, e) -> c to (A a, e + P(a)) -> c, with (A a, P(a)) from
    ``image(a)``; terms that meet (never under an injective A) merge by ``_merge_into``,
    so f(x + c*y) = f(x) + c*f(y) as built; a sum that cancels is dropped at its merge.
    """

    name: str
    source: AlgebraDescriptor
    target: AlgebraDescriptor
    matrix: tuple[tuple[int, ...], ...]
    phase: tuple[tuple[int, int, int], ...] = ()
    linear: tuple[int, ...] = ()

    def __post_init__(self):
        d = self.source.d
        if not isinstance(self.target, AlgebraDescriptor):
            raise ValueError(f"map {self.name!r} must target an algebra; a scalar-valued "
                             f"map targets POINT, and its matrix must be 0x{d}")
        rows = self.target.d
        if len(self.matrix) != rows or any(len(row) != d for row in self.matrix):
            raise ValueError(f"matrix of map {self.name!r} must be {rows}x{d}")
        if not all(0 <= i < d and 0 <= j < d for i, j, _ in self.phase):
            raise ValueError(f"phase of map {self.name!r} names a position outside 0..{d - 1}")
        if len(self.linear) not in (0, d):
            raise ValueError(f"linear phase of map {self.name!r} must be empty or of length {d}")

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        if not isinstance(x, AlgebraElement) or x.algebra is POINT:
            raise TypeError(f"map {self.name!r} applies to algebra elements, not scalars")
        if x.algebra != self.source:
            raise ValueError(
                f"map {self.name!r} expects elements of {self.source.name!r}, "
                f"got {x.algebra.name!r}"
            )
        image = self.image
        pairs = [((b, e + g), c) for (a, e), c in x._terms.items() for b, g in [image(a)]]
        out = dict(pairs)  # the merge itself when no key repeats, as under an injective A
        out = out if len(out) == len(pairs) else _merge_into({}, pairs)
        return AlgebraElement._raw(self.target, out)

    @cached_property
    def kernel_source(self) -> str:
        """Python source of ``kernel(a) -> (A a, P(a))``, built on first use."""
        a = [f"a{i}" for i in range(self.source.d)]
        phase = [(m, f"a{i}*a{j}") for i, j, m in self.phase] + [*zip(self.linear, a)]
        index = _tuple_text([_sum_text(zip(row, a)) for row in self.matrix])
        return f"def kernel(a):\n    {_tuple_text(a)} = a\n    return {index}, {_sum_text(phase)}\n"

    @cached_property
    def image(self):
        """delta^a |-> s**P(a) * delta^(A a) as the pair (A a, P(a)), run by the kernel."""
        return _compile_kernel(self.kernel_source)

    def __reduce__(self):  # the fields, without the kernel cached in the instance __dict__
        return LinearMap, tuple(getattr(self, f.name) for f in fields(self))

    def __repr__(self) -> str:
        return f"LinearMap({self.name!r}: {self.source.name} -> {self.target.name})"


def _lift(f: LinearMap, slot: int, name: str) -> LinearMap:
    """``f`` on factor ``slot`` of p2 and the identity on the other factor, into the power one
    factor above ``f``'s target; ``f`` maps out of the torus and has no linear part.  Its
    (A, P) acts on the slot's two columns, each phase position shifted by 2*slot."""
    blocks = [((1, 0), (0, 1))] * 2  # the identity on each factor but ``slot``
    blocks[slot] = f.matrix
    rows = [(0, 0) * k + row + (0, 0) * (1 - k) for k, block in enumerate(blocks) for row in block]
    shared = {row: row for row in rows}  # equal rows are one tuple, so a pickle holds each once
    phase = tuple((i + 2 * slot, j + 2 * slot, m) for i, j, m in f.phase)
    target = (TORUS, P2, P3)[f.target.d // 2]
    return LinearMap(name, P2, target, tuple(map(shared.get, rows)), phase)


# The maps as data.  Source indices are written (k, l) on the torus,
# (k, l, m, n) on p2 and (n,) on the circle; each comment gives the image
# s^P delta^(A a).
comult = LinearMap(  # s^(-kl) (k, l, k, l)
    "delta", TORUS, P2, ((1, 0), (0, 1), (1, 0), (0, 1)), phase=((0, 1, -1),)
)
counit = LinearMap("epsilon", TORUS, POINT, (), phase=((0, 1, 1),))  # s^(kl)
# U^-k V^-l is already normal-ordered, so no phase arises
antipode = LinearMap("S", TORUS, TORUS, ((-1, 0), (0, -1)))  # (-k, -l)
# U^k V^l U^m V^n = q^(-l m) U^(k+m) V^(l+n)
mult_map = LinearMap("mu", P2, TORUS, ((1, 0, 1, 0), (0, 1, 0, 1)), phase=((1, 2, -2),))
lift_left_comult = _lift(comult, 0, "delta-id")  # s^(-kl) (k, l, k, l, m, n)
lift_right_comult = _lift(comult, 1, "id-delta")  # s^(-mn) (k, l, m, n, m, n)
lift_left_counit = _lift(counit, 0, "eps-id")  # s^(kl) (m, n)
lift_right_counit = _lift(counit, 1, "id-eps")  # s^(mn) (k, l)
lift_left_antipode = _lift(antipode, 0, "S-id")  # (-k, -l, m, n)
lift_right_antipode = _lift(antipode, 1, "id-S")  # (k, l, -m, -n)
# (U V)^n = q^(-n(n-1)/2) U^n V^n, valid for every integer n
circle_comult = LinearMap(  # s^(-n^2 + n) (n, n)
    "circle-delta", CIRCLE, TORUS, ((1,), (1,)), phase=((0, 0, -1),), linear=(1,)
)
embed_left = LinearMap("embed-left", TORUS, P2, ((1, 0), (0, 1), (0, 0), (0, 0)))
embed_right = LinearMap("embed-right", TORUS, P2, ((0, 0), (0, 0), (1, 0), (0, 1)))

MAPS: dict[str, LinearMap] = {
    m.name: m
    for m in (
        comult,
        counit,
        antipode,
        mult_map,
        lift_left_comult,
        lift_right_comult,
        lift_left_counit,
        lift_right_counit,
        lift_left_antipode,
        lift_right_antipode,
        circle_comult,
    )
}

# Defining generator images of the maps whose data (A, P) above are derived
# rather than displayed; each entry maps a source generator to a word
# (name, power)... in the target.  The suite replays these images through the
# rewriting oracle to certify that data.
GENERATOR_IMAGES: dict[str, dict[str, tuple[tuple[str, int], ...]]] = {
    "delta": {"U": (("U1", 1), ("U2", 1)), "V": (("V1", 1), ("V2", 1))},
    "S": {"U": (("U", -1),), "V": (("V", -1),)},
    "delta-id": {
        "U1": (("U1", 1), ("U2", 1)),
        "V1": (("V1", 1), ("V2", 1)),
        "U2": (("U3", 1),),
        "V2": (("V3", 1),),
    },
    "id-delta": {
        "U1": (("U1", 1),),
        "V1": (("V1", 1),),
        "U2": (("U2", 1), ("U3", 1)),
        "V2": (("V2", 1), ("V3", 1)),
    },
    "circle-delta": {"z": (("U", 1), ("V", 1))},
}
