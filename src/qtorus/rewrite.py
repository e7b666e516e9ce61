"""Normal ordering of generator words from the q-commutation tables alone.

This is an independent oracle for the cocycle-based product: a word in the
generators is brought into the canonical order U1 < V1 < U2 < V2 < U3 < V3 in
one pass that keeps the running power of each generator.  A letter pays, for
every earlier letter at a later position, the phase of moving past it, read
from the swap matrix of the algebra's relation rows (``RELATION_ROWS``, read
at call time).  Those are exactly the adjacent swaps of a stable sort, so the
sum is the sort's phase.  The pass runs a straight-line kernel made from that
matrix (``order_kernel_source``), rebuilt whenever the rows are another object.
It folds one word (:func:`normal_order_exponent`), or runs a nested loop over
a box of words that folds a letter once per shared prefix and gives the
product's flat keys (:func:`normal_order_box`).  Nothing here reads a cocycle
matrix, so agreement between :func:`normal_order` and ``AlgebraElement.__mul__``
is a genuine cross-check.

Every relation is a pure q-commutation g_i g_j = s**e g_j g_i, so swap phases
compose multiplicatively and the result does not depend on the sorting
schedule (the suite verifies this confluence rather than assuming it).

All functions are safe to call from threads; a race at worst builds one kernel twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .phases import PhaseScalar, phase_pow
from .algebra import AlgebraDescriptor, MultiIndex, _compile_kernel, _tuple_text

__all__ = [
    "GeneratorSymbol",
    "Word",
    "RELATION_ROWS",
    "swap_exponent",
    "word_of_index",
    "normal_order",
    "normal_order_exponent",
    "normal_order_box",
    "order_kernel_source",
]


@dataclass(frozen=True)
class GeneratorSymbol:
    """One letter of a word: generator position and a nonzero integer power."""

    position: int
    power: int

    def __post_init__(self):
        if not isinstance(self.power, int) or self.power == 0:
            raise ValueError(f"generator power must be a nonzero integer, got {self.power!r}")


@dataclass(frozen=True)
class Word:
    """An ordered product of generator powers in one algebra."""

    algebra: AlgebraDescriptor
    letters: tuple[GeneratorSymbol, ...]

    def __post_init__(self):
        _check_positions(self.algebra, (g.position for g in self.letters))

    def __mul__(self, other: "Word") -> "Word":
        if self.algebra != other.algebra:
            raise ValueError(
                f"cannot concatenate words over {self.algebra.name!r} and {other.algebra.name!r}"
            )
        return Word(self.algebra, self.letters + other.letters)

    def __str__(self) -> str:
        names = self.algebra.generator_names
        return " ".join(
            names[g.position] if g.power == 1 else f"{names[g.position]}^{g.power}"
            for g in self.letters
        ) or "1"


# Relation rows (i, j, e) with i < j in the generator order, meaning
#   g_i g_j = s**e g_j g_i.
# These are literal data, one row per generator pair.

_TORUS_ROWS = (
    (0, 1, 2),    # U V = q V U
)

_P2_ROWS = (
    (0, 1, 2),    # U1 V1 = q V1 U1
    (2, 3, 2),    # U2 V2 = q V2 U2
    (0, 3, -1),   # U1 V2 = q^(-1/2) V2 U1
    (1, 2, 1),    # V1 U2 = q^(1/2) U2 V1
    (0, 2, 0),    # U1 U2 = U2 U1
    (1, 3, 0),    # V1 V2 = V2 V1
)

_P3_ROWS = (
    (0, 1, 2),    # U1 V1 = q V1 U1
    (2, 3, 2),    # U2 V2 = q V2 U2
    (4, 5, 2),    # U3 V3 = q V3 U3
    (0, 3, -1),   # U1 V2 = q^(-1/2) V2 U1
    (2, 5, -1),   # U2 V3 = q^(-1/2) V3 U2
    (1, 4, 0),    # U3 V1 = V1 U3
    (1, 2, 1),    # V1 U2 = q^(1/2) U2 V1
    (3, 4, 1),    # V2 U3 = q^(1/2) U3 V2
    (0, 5, 0),    # V3 U1 = U1 V3
    (0, 2, 0),    # U1 U2 = U2 U1
    (2, 4, 0),    # U2 U3 = U3 U2
    (0, 4, 0),    # U3 U1 = U1 U3
    (1, 3, 0),    # V1 V2 = V2 V1
    (3, 5, 0),    # V2 V3 = V3 V2
    (1, 5, 0),    # V3 V1 = V1 V3
)

RELATION_ROWS: dict[str, tuple[tuple[int, int, int], ...]] = {
    "circle": (),
    "torus": _TORUS_ROWS,
    "p2": _P2_ROWS,
    "p3": _P3_ROWS,
}

_BUILT: dict[str, tuple] = {}  # name: (rows, swap matrix, order kernel, box kernel), as last built


def order_kernel_source(m: Sequence[Sequence[int]]) -> str:
    """Python source of ``kernel`` and ``box`` for the swap matrix ``m``, g_a g_b = s**m[a][b]
    g_b g_a.  Each folds ``prefix`` once: a letter takes the branch of its position b, adding
    m[a][b] per move past a later position a; KeyError for a position not an int in range.
    ``kernel(prefix)`` gives ``(s-exponent, index)`` of the word ``prefix``;
    ``box(prefix, letters)`` the flat key ``(index, s-exponent)`` of ``prefix + b``'s word per b
    in ``letters``^d, lexicographic: a nested loop per position b, whose ascending letters
    each move past the prefix's later positions only, adding r * k_b (0 is no letter)."""
    d = len(m)
    powers = [f"p{b}" for b in range(d)]
    moves = [" + ".join(f"{m[a][b]}*p{a}" for a in range(b + 1, d) if m[a][b]) for b in range(d)]
    fold = (f"    {' = '.join([*powers, 'e'])} = 0\n"
            "    for b, r in prefix:\n"
            "        if type(b) is not int and not isinstance(b, int):\n"
            "            raise KeyError(b)\n")
    for b in range(d):
        fold += f"        {'elif' if b else 'if'} b == {b}:\n"
        if moves[b]:
            fold += f"            e += ({moves[b]})*r\n"
        fold += f"            p{b} += r\n"
    fold += "        else:\n            raise KeyError(b)\n"
    box, e = "".join(f"    k{b} = {k}\n" for b, k in enumerate(moves) if k) + "    out = []\n", "e"
    for b in range(d):
        pad = "    " * (b + 1)
        box += f"{pad}for r{b} in letters:\n{pad}    q{b} = p{b} + r{b}\n"
        if moves[b]:
            box, e = box + f"{pad}    e{b} = {e} + k{b}*r{b}\n", f"e{b}"
    return (f"def kernel(prefix):\n{fold}    return e, {_tuple_text(powers)}\n\n"
            f"def box(prefix, letters):\n{fold}{box}{'    ' * (d + 1)}"
            f"out.append(({_tuple_text([f'q{b}' for b in range(d)])}, {e}))\n    return out\n")


def _oracle(algebra: AlgebraDescriptor) -> tuple:
    """(rows, swap matrix, order kernel, box kernel) of ``RELATION_ROWS[algebra.name]``, built anew
    unless its rows are the object last built from; ValueError for a name without rows."""
    name = algebra.name
    rows = RELATION_ROWS.get(name)
    if rows is None:
        raise ValueError(f"no relation rows for {name!r}")
    built = _BUILT.get(name)
    if built is not None and built[0] is rows:
        return built
    # a row (i, j, e) gives m[i][j] = e and m[j][i] = -e
    m = [[0] * algebra.d for _ in range(algebra.d)]
    for i, j, e in rows:
        m[i][j], m[j][i] = e, -e
    source = order_kernel_source(m)
    built = _BUILT[name] = (rows, m, _compile_kernel(source), _compile_kernel(source, "box"))
    return built


def _check_positions(algebra: AlgebraDescriptor, positions: Iterable[int]) -> None:
    """Raise ValueError for the first position that is not an int in ``range(d)``."""
    valid = range(algebra.d)
    for p in positions:
        # the int test first: 1.0 in range(2) holds
        if not isinstance(p, int) or p not in valid:
            raise ValueError(f"generator position {p} out of range for {algebra.name!r}") from None


def swap_exponent(algebra: AlgebraDescriptor, a: int, b: int) -> int:
    """s-exponent e with g_a g_b = s**e g_b g_a (antisymmetric in a, b)."""
    _check_positions(algebra, (a, b))
    return _oracle(algebra)[1][a][b]


def word_of_index(algebra: AlgebraDescriptor, idx: MultiIndex) -> Word:
    """The normal-ordered word with delta^idx = 1 * (that word)."""
    idx = algebra.check_index(idx)
    letters = tuple(
        GeneratorSymbol(pos, power) for pos, power in enumerate(idx) if power
    )
    return Word(algebra, letters)


def _fold(algebra: AlgebraDescriptor, slot: int, prefix: Iterable[tuple[int, int]], *args):
    """``_oracle(algebra)[slot](prefix, *args)``, a bad position in ``prefix`` raising ValueError.
    A word that is neither a list nor a tuple is copied into a tuple first, so that a one-shot
    iterator can be read again to find the bad position."""
    prefix = prefix if isinstance(prefix, (list, tuple)) else tuple(prefix)
    try:
        return _oracle(algebra)[slot](prefix, *args)
    except (KeyError, TypeError):
        # with every position good (a None power, say) the original error stands
        _check_positions(algebra, (p for p, _ in prefix))
        raise


def normal_order_exponent(
    algebra: AlgebraDescriptor, seq: Iterable[tuple[int, int]]
) -> tuple[int, MultiIndex]:
    """(s-exponent, index) of one word of raw (position, power) pairs.

    The algebra's order kernel makes one pass with running power sums: a
    letter (b, r) adds ``r * sum(m[a][b] * powers[a] for a > b)``, with ``m``
    the swap matrix and ``powers[a]`` the total power of the earlier letters
    at a, and then ``powers[b] += r``.  That is the phase of a stable sort: the
    letter moves left past each earlier letter (a, p) with a > b exactly once,
    the adjacent swap g_a^p g_b^r -> g_b^r g_a^p contributing ``m[a][b] * p * r``,
    and equal positions never swap.  Inverses are negative powers; like
    generators merge by adding their powers.  A position outside the algebra,
    or an algebra without relation rows, raises ``ValueError``.  A word that is
    neither a list nor a tuple is copied into a tuple first, so that a one-shot
    iterator can be read again to find a bad position.
    """
    return _fold(algebra, 2, seq)


def normal_order_box(algebra: AlgebraDescriptor, prefix: Iterable[tuple[int, int]],
                     bound: int) -> list[tuple[MultiIndex, int]]:
    """Flat keys ``(index, s-exponent)`` of ``prefix + word(b)``, word(b) the normal-ordered
    word of each b in ``[-bound, bound]^d`` in lexicographic order: the box kernel of
    :func:`order_kernel_source` folds the prefix once.  Errors as :func:`normal_order_exponent`."""
    if not isinstance(bound, int) or isinstance(bound, bool):
        raise TypeError(f"box bound must be an int, got {bound!r}")
    if bound < 0:
        raise ValueError(f"box bound must be at least 0, got {bound}")
    return _fold(algebra, 3, prefix, range(-bound, bound + 1))


def normal_order(word: Word) -> tuple[PhaseScalar, MultiIndex]:
    """Express a word as s**e * delta^idx; returns (s**e, idx)."""
    seq = [(g.position, g.power) for g in word.letters]
    exponent, idx = normal_order_exponent(word.algebra, seq)
    return phase_pow(exponent), idx
