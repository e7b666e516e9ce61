"""The oracle's box fold: the flat keys of every word ``prefix + word(b)`` over a box.

``normal_order_box`` folds each prefix letter once and each box letter once per
prefix of the box that the words share.  It must give exactly what a full fold
of each word ``prefix + word(b)`` gives, ``normal_order_exponent`` with no
shared prefix state, in the layout of ``AlgebraElement.flat``, for the live
relation rows and for a mutated swap matrix, and it must read the relation rows
at call time like the rest of the oracle.
"""

import itertools
import random

import pytest

from qtorus import rewrite
from qtorus.algebra import CIRCLE, P2, P3, POINT, TORUS, AlgebraElement, _compile_kernel
from qtorus.phases import ONE
from qtorus.rewrite import (
    RELATION_ROWS,
    normal_order_box,
    normal_order_exponent,
    order_kernel_source,
    swap_exponent,
)
from qtorus.suite import P2_FORMULA_VARIANT
from test_oracle_probes import _outcomes, _per_pair_reference
from test_planted_defects import DEFECTS


def _box_words(d, bound):
    box = itertools.product(range(-bound, bound + 1), repeat=d)
    return [[(p, k) for p, k in enumerate(b) if k] for b in box]


def _general(algebra, prefix, words):
    return [(idx, e) for e, idx in (normal_order_exponent(algebra, prefix + w) for w in words)]


@pytest.mark.parametrize("algebra, bound", [(TORUS, 2), (P2, 2), (CIRCLE, 3)],
                         ids=["torus", "p2", "circle"])
def test_the_box_fold_equals_the_general_fold_for_every_prefix_of_the_box(algebra, bound):
    words = _box_words(algebra.d, bound)
    for prefix in words:
        assert normal_order_box(algebra, prefix, bound) == _general(algebra, prefix, words)


def test_the_box_fold_equals_the_general_fold_on_sampled_p3_prefixes():
    # prefixes in any order, with repeated positions; the box is [-1,1]^6
    rng = random.Random(24)
    words = _box_words(P3.d, 1)
    for _ in range(40):
        prefix = [(rng.randrange(P3.d), rng.choice([-2, -1, 1, 3]))
                  for _ in range(rng.randint(0, 8))]
        keys = normal_order_box(P3, prefix, 1)
        assert len(keys) == 3 ** 6
        assert keys == _general(P3, prefix, words)


def test_the_box_keys_are_the_flat_keys_of_the_row_product():
    box = list(itertools.product(range(-2, 3), repeat=2))
    total = AlgebraElement(TORUS, dict.fromkeys(box, ONE))
    for a in box:
        prefix = [(p, k) for p, k in enumerate(a) if k]
        assert list((TORUS.basis(a) * total).flat) == normal_order_box(TORUS, prefix, 2)


def test_the_box_function_of_a_mutated_swap_matrix_equals_its_kernel():
    m = [[swap_exponent(P2, a, b) for b in range(P2.d)] for a in range(P2.d)]
    words = _box_words(P2.d, 1)
    live = normal_order_box(P2, [(2, 1), (0, -2)], 1)
    # V1 U2 = q^(1/2) U2 V1 becomes V1 U2 = U2 V1: a V1 after the prefix's U2 changes
    m[1][2] -= 1
    m[2][1] += 1
    source = order_kernel_source(m)
    box, kernel = _compile_kernel(source, "box"), _compile_kernel(source)
    for prefix in ([], [(2, 1), (0, -2)], [(2, 2), (1, 1), (2, -1)]):
        rows = [kernel(prefix + w) for w in words]
        assert box(prefix, range(-1, 2)) == [(idx, e) for e, idx in rows]
    assert box([(2, 1), (0, -2)], range(-1, 2)) != live
    assert normal_order_box(P2, [(2, 1), (0, -2)], 1) == live


def test_the_box_of_rank_zero_is_one_empty_key():
    box = _compile_kernel(order_kernel_source([]), "box")
    assert box([], range(-2, 3)) == [((), 0)]
    assert box([], range(0)) == [((), 0)]


def test_the_box_fold_reads_the_relation_rows_when_called(monkeypatch):
    # V U^b0 V^b1 = q^(-b0) U^b0 V^(1 + b1)
    live = normal_order_box(TORUS, [(1, 1)], 1)
    assert live == [((b0, 1 + b1), -2 * b0) for b0 in (-1, 0, 1) for b1 in (-1, 0, 1)]
    (i, j, e), *rest = RELATION_ROWS["torus"]
    monkeypatch.setitem(RELATION_ROWS, "torus", ((i, j, e + 2), *rest))
    assert normal_order_box(TORUS, [(1, 1)], 1) == [(idx, 2 * f) for idx, f in live]
    assert rewrite._BUILT["torus"][0] is RELATION_ROWS["torus"]
    monkeypatch.undo()
    assert normal_order_box(TORUS, [(1, 1)], 1) == live


def test_a_planted_relation_row_reaches_the_rows_of_the_oracle(monkeypatch):
    # the oracle's row keys come from the box fold, the reference's from one
    # normal ordering per pair; both read the planted rows
    DEFECTS["relation-row-exponent"][0](monkeypatch)
    outcomes = _outcomes(20000)
    assert outcomes == list(itertools.islice(_per_pair_reference(), 20000))
    assert sum(o is not None for o in outcomes) == 15900


def test_a_bad_prefix_position_is_named_as_by_the_general_fold():
    with pytest.raises(ValueError, match="position 2 out of range for 'torus'") as box:
        normal_order_box(TORUS, [(2, 1)], 2)
    with pytest.raises(ValueError) as word:
        normal_order_exponent(TORUS, [(2, 1)])
    assert str(box.value) == str(word.value)
    with pytest.raises(TypeError):
        normal_order_box(TORUS, [(0, None)], 2)


def test_a_bad_position_in_a_one_shot_prefix_of_the_box_is_a_value_error():
    # the prefix is read once by the box kernel and again to find the bad position
    for prefix in (iter([(2, 1)]), ((p, 1) for p in (0, 1, 2))):
        with pytest.raises(ValueError, match="position 2 out of range for 'torus'"):
            normal_order_box(TORUS, prefix, 1)


@pytest.mark.parametrize("bound, error", [(True, TypeError), (1.0, TypeError), ("2", TypeError),
                                          (None, TypeError), (-1, ValueError)])
def test_a_bound_that_is_not_an_int_of_at_least_zero_is_refused(bound, error):
    with pytest.raises(error, match="box bound"):
        normal_order_box(TORUS, [(0, 1)], bound)


def test_a_bound_of_zero_is_the_prefix_alone():
    assert normal_order_box(P2, [(1, 1), (0, 1)], 0) == [((1, 1, 0, 0), -2)]


@pytest.mark.parametrize("algebra", [P2_FORMULA_VARIANT, POINT], ids=["p2-formula", "point"])
def test_an_algebra_without_relation_rows_has_no_box(algebra):
    with pytest.raises(ValueError, match=f"no relation rows for '{algebra.name}'"):
        normal_order_box(algebra, [], 1)
