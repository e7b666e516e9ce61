"""Independent references the benchmark checks the library against.

An element is held here as ``{index: {s_exponent: (re, im)}}`` with ``re``
and ``im`` plain ``Fraction``s.  Phases come from the rewriting oracle
``qtorus.rewrite.normal_order_exponent``, which reads only the relation
tables, so a reference product shares no code with the cocycle product
``AlgebraElement.__mul__`` or with ``GaussianRational``/``PhaseScalar``.
"""

from __future__ import annotations

from fractions import Fraction

from qtorus.rewrite import normal_order_exponent

RawScalar = dict[int, tuple[Fraction, Fraction]]
RawElement = dict[tuple[int, ...], RawScalar]

# Generator images, as (target position, power) words, of the structure maps
# the maps-roundtrip workload checks on p2 inputs.  Written out here from the
# map definitions so that the references do not read the library's tables.
LIFT_LEFT_COMULT_P2 = (((0, 1), (2, 1)), ((1, 1), (3, 1)), ((4, 1),), ((5, 1),))
LIFT_RIGHT_COMULT_P2 = (((0, 1),), ((1, 1),), ((2, 1), (4, 1)), ((3, 1), (5, 1)))


def letters(idx: tuple[int, ...]) -> list[tuple[int, int]]:
    """The normal-ordered word g_0^idx[0] g_1^idx[1] ... of a basis monomial."""
    return [(pos, power) for pos, power in enumerate(idx) if power]


def _add_into(acc: RawScalar, exponent: int, re: Fraction, im: Fraction) -> None:
    old = acc.get(exponent)
    if old is not None:
        re, im = old[0] + re, old[1] + im
    acc[exponent] = (re, im)


def _prune(out: dict[tuple[int, ...], RawScalar]) -> RawElement:
    pruned = {}
    for idx, coeff in out.items():
        coeff = {e: v for e, v in coeff.items() if v[0] or v[1]}
        if coeff:
            pruned[idx] = coeff
    return pruned


def product(algebra, left: RawElement, right: RawElement) -> RawElement:
    """left * right, phases from normal ordering, coefficients on Fraction pairs."""
    out: dict[tuple[int, ...], RawScalar] = {}
    for a, ca in left.items():
        word_a = letters(a)
        for b, cb in right.items():
            shift, idx = normal_order_exponent(algebra, word_a + letters(b))
            acc = out.setdefault(idx, {})
            for f, (ar, ai) in ca.items():
                for g, (br, bi) in cb.items():
                    _add_into(acc, shift + f + g, ar * br - ai * bi, ar * bi + ai * br)
    return _prune(out)


def _image_word(images, idx: tuple[int, ...]) -> list[tuple[int, int]]:
    """Substitute generator images into the basis word of ``idx``."""
    word: list[tuple[int, int]] = []
    for pos, power in enumerate(idx):
        image = list(images[pos])
        if power < 0:
            image = [(p, -r) for p, r in reversed(image)]
        word.extend(image * abs(power))
    return word


def apply_homomorphism(target, images, x: RawElement) -> RawElement:
    """The algebra map sending generator ``i`` to the word ``images[i]``."""
    out: dict[tuple[int, ...], RawScalar] = {}
    for idx, coeff in x.items():
        shift, jdx = normal_order_exponent(target, _image_word(images, idx))
        acc = out.setdefault(jdx, {})
        for e, (re, im) in coeff.items():
            _add_into(acc, shift + e, re, im)
    return _prune(out)


def collapse_left_antipode(torus, x: RawElement) -> RawElement:
    """mult_map(lift_left_antipode(x)) on p2: U1^k V1^l U2^m V2^n -> U^-k V^-l U^m V^n."""
    out: dict[tuple[int, ...], RawScalar] = {}
    for (k, l, m, n), coeff in x.items():
        word = [(p, r) for p, r in ((0, -k), (1, -l), (0, m), (1, n)) if r]
        shift, jdx = normal_order_exponent(torus, word)
        acc = out.setdefault(jdx, {})
        for e, (re, im) in coeff.items():
            _add_into(acc, shift + e, re, im)
    return _prune(out)


def raw_of(element) -> RawElement:
    """A library element in the reference form, read through its public API."""
    return {
        idx: {e: (c.re, c.im) for e, c in coeff.items()}
        for idx, coeff in element.support.items()
    }
