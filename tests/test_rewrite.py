"""Normal ordering: table data, examples, confluence, agreement with products."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus import rewrite
from qtorus.phases import phase_pow
from qtorus.algebra import ALGEBRAS, P2, P3, POINT, TORUS, _compile_kernel
from qtorus.rewrite import (
    RELATION_ROWS,
    GeneratorSymbol,
    Word,
    normal_order,
    normal_order_box,
    normal_order_exponent,
    order_kernel_source,
    swap_exponent,
    word_of_index,
)
from qtorus.suite import P2_FORMULA_VARIANT


def test_generator_symbol_rejects_zero_power():
    with pytest.raises(ValueError):
        GeneratorSymbol(0, 0)


def test_generator_symbol_rejects_a_power_that_is_not_an_integer():
    for bad in (1.5, 1.0, None):
        with pytest.raises(ValueError, match="nonzero integer"):
            GeneratorSymbol(0, bad)


def test_word_validates_positions():
    with pytest.raises(ValueError):
        Word(TORUS, (GeneratorSymbol(5, 1),))
    # 1.0 compares equal to 1, and None does not compare with an int at all
    for bad in (0.5, 1.0, None, -1):
        with pytest.raises(ValueError, match=f"position {bad} out of range for 'torus'"):
            Word(TORUS, (GeneratorSymbol(0, 1), GeneratorSymbol(bad, 1)))


def test_normal_order_rejects_positions_out_of_range():
    for seq in (
        [(-1, 1)],
        [(1, 1), (-1, 1)],
        [(0, 2), (1, 1), (-2, 1)],
        [(2, 1)],
        [(0, 1), (2, 1)],
        [(5, 1), (-1, 1)],
    ):
        with pytest.raises(ValueError, match="out of range"):
            normal_order_exponent(TORUS, seq)


@pytest.mark.parametrize("algebra", [P2, P3], ids=["p2", "p3"])
def test_normal_order_rejects_positions_out_of_range_in_p2_p3(algebra):
    d = algebra.d
    for seq, bad in (
        ([(-1, 1)], -1),
        ([(d, 1)], d),
        ([(0, 1), (d - 1, 2), (d, 1)], d),
        ([(d - 1, 1), (1, -1), (-d, 1)], -d),
        ([(2, 1), (0, 3), (-1, 2), (d + 3, 1)], -1),
    ):
        before = list(seq)
        with pytest.raises(ValueError, match=f"position {bad} out of range for {algebra.name!r}"):
            normal_order_exponent(algebra, seq)
        assert seq == before


def test_normal_order_rejects_a_position_that_is_not_an_integer():
    for bad in (0.5, None, "0"):
        with pytest.raises(ValueError, match=f"position {bad} out of range"):
            normal_order_exponent(TORUS, [(0, 1), (bad, 1)])
    # 1.0 finds the table row of position 1, then fails as a list index
    for seq in ([(1.0, 1)], [(0, 1), (1.0, 1)], [(0.0, 2)]):
        with pytest.raises(ValueError, match=f"position {seq[-1][0]} out of range for 'torus'"):
            normal_order_exponent(TORUS, seq)


def test_normal_order_takes_a_true_position_as_1():
    # bool is an int, so True is position 1, as it is for a list index
    assert normal_order_exponent(TORUS, [(True, 1), (0, 1)]) == (-2, (1, 1))
    assert normal_order_exponent(P2, [(True, 2), (2, 1)]) == normal_order_exponent(
        P2, [(1, 2), (2, 1)]
    )


def test_no_position_lets_a_key_error_escape():
    positions = (
        -2, -1, 0, 1, 2, 3, 6, 7, 1.0, 0.0, 0.5, -0.0, True, False, None, "0", "a", (0,),
        Fraction(1), complex(1, 0),
    )
    for algebra in ALGEBRAS.values():
        for p in positions:
            for seq in ([(p, 1)], [(0, 2), (p, -1)], [(p, 1), (algebra.d - 1, 1)]):
                try:
                    normal_order_exponent(algebra, seq)
                except ValueError:
                    pass


def test_normal_order_keeps_other_errors_when_every_position_is_good():
    # a bad power is not a bad position: the original TypeError stands
    for seq in ([(0, None)], [(1, None)], [(0, 1), (1, "x")]):
        with pytest.raises(TypeError):
            normal_order_exponent(TORUS, seq)


def test_normal_order_of_the_empty_word():
    for algebra in ALGEBRAS.values():
        assert normal_order_exponent(algebra, []) == (0, (0,) * algebra.d)


def test_normal_order_of_the_last_generator_alone_has_no_phase():
    # the last generator never moves past a later one
    for algebra in ALGEBRAS.values():
        last = algebra.d - 1
        powers = [0] * algebra.d
        powers[last] = 2
        seq = [(last, 3), (last, -2), (last, 1)]
        assert normal_order_exponent(algebra, seq) == (0, tuple(powers))


def test_swap_exponent_rejects_positions_out_of_range():
    # negative positions too, which a plain index into the swap matrix would accept
    for a, b, bad in (
        (0, 2, 2), (2, 0, 2), (-1, 0, -1), (0, -1, -1), (-1, -1, -1),
        (1.0, 0, 1.0), (0, 0.5, 0.5), (None, 1, None),
    ):
        with pytest.raises(ValueError, match=f"position {bad} out of range"):
            swap_exponent(TORUS, a, b)


def test_relation_row_counts():
    assert len(RELATION_ROWS["circle"]) == 0
    assert len(RELATION_ROWS["torus"]) == 1
    assert len(RELATION_ROWS["p2"]) == 6
    assert len(RELATION_ROWS["p3"]) == 15
    for name, rows in RELATION_ROWS.items():
        d = ALGEBRAS[name].d
        # one row per unordered generator pair
        assert sorted((i, j) for i, j, _ in rows) == sorted(
            itertools.combinations(range(d), 2)
        )


def test_swap_exponent_antisymmetry():
    for algebra in (TORUS, P2, P3):
        for a in range(algebra.d):
            for b in range(algebra.d):
                assert swap_exponent(algebra, a, b) == -swap_exponent(algebra, b, a)


def test_normal_order_examples():
    # V U in the torus picks up q^(-1)
    word = Word(TORUS, (GeneratorSymbol(1, 1), GeneratorSymbol(0, 1)))
    assert normal_order(word) == (phase_pow(-2), (1, 1))
    # U1 U2 V1 V2 normal-orders with phase q^(-1/2)
    word = Word(
        P2,
        (
            GeneratorSymbol(0, 1),
            GeneratorSymbol(2, 1),
            GeneratorSymbol(1, 1),
            GeneratorSymbol(3, 1),
        ),
    )
    assert normal_order(word) == (phase_pow(-1), (1, 1, 1, 1))
    # inverses cancel without phase
    word = Word(TORUS, (GeneratorSymbol(0, 1), GeneratorSymbol(0, -1)))
    assert normal_order(word) == (phase_pow(0), (0, 0))
    # V2 U1 = q^(1/2) U1 V2
    word = Word(P2, (GeneratorSymbol(3, 1), GeneratorSymbol(0, 1)))
    assert normal_order(word) == (phase_pow(1), (1, 0, 0, 1))


def test_word_of_index_examples():
    w = word_of_index(TORUS, (2, -1))
    assert [(g.position, g.power) for g in w.letters] == [(0, 2), (1, -1)]
    assert str(w) == "U^2 V^-1"
    w = word_of_index(P2, (0, 1, 1, 0))
    assert [(g.position, g.power) for g in w.letters] == [(1, 1), (2, 1)]
    w = word_of_index(P3, (1, 1, 1, 1, 1, 1))
    assert str(w) == "U1 V1 U2 V2 U3 V3"
    assert normal_order(w) == (phase_pow(0), (1, 1, 1, 1, 1, 1))


def test_word_of_index_is_normal_ordered():
    for idx in itertools.product(range(-2, 3), repeat=2):
        assert normal_order(word_of_index(TORUS, idx)) == (phase_pow(0), idx)


def test_oracle_agreement_exhaustive_torus():
    box = [tuple(t) for t in itertools.product(range(-2, 3), repeat=2)]
    for a in box:
        for b in box:
            word = word_of_index(TORUS, a) * word_of_index(TORUS, b)
            phase, idx = normal_order(word)
            assert idx == tuple(x + y for x, y in zip(a, b))
            assert phase == phase_pow(TORUS.phase_exponent(a, b))


def test_oracle_agreement_random_p2_p3():
    rng = random.Random(7)
    for algebra in (P2, P3):
        for _ in range(400):
            a = tuple(rng.randint(-2, 2) for _ in range(algebra.d))
            b = tuple(rng.randint(-2, 2) for _ in range(algebra.d))
            word = word_of_index(algebra, a) * word_of_index(algebra, b)
            phase, idx = normal_order(word)
            assert idx == tuple(x + y for x, y in zip(a, b))
            assert phase == phase_pow(algebra.phase_exponent(a, b))


def test_confluence_under_tracked_shuffles():
    rng = random.Random(42)
    for algebra in (TORUS, P2, P3):
        for _ in range(200):
            seq = [
                (rng.randrange(algebra.d), rng.choice([-3, -2, -1, 1, 2, 3]))
                for _ in range(rng.randint(1, 6))
            ]
            e0, idx0 = normal_order_exponent(algebra, seq)
            shuffled = list(seq)
            acc = 0
            for _ in range(rng.randint(1, 8)):
                if len(shuffled) < 2:
                    break
                i = rng.randrange(len(shuffled) - 1)
                (a, p), (b, r) = shuffled[i], shuffled[i + 1]
                acc += swap_exponent(algebra, a, b) * p * r
                shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
            e1, idx1 = normal_order_exponent(algebra, shuffled)
            assert idx1 == idx0
            assert e1 == e0 - acc


def test_relation_rows_match_products():
    for algebra in (TORUS, P2, P3):
        names = algebra.generator_names
        for i, j, e in RELATION_ROWS[algebra.name]:
            gi, gj = algebra.generator(names[i]), algebra.generator(names[j])
            assert gi * gj == phase_pow(e) * (gj * gi)


def test_word_concatenation_requires_same_algebra():
    with pytest.raises(ValueError):
        word_of_index(TORUS, (1, 0)) * word_of_index(P2, (1, 0, 0, 0))


def test_powers_merge_and_cancel():
    # U^2 V U^-2 V^-1 collapses to a pure phase
    word = Word(
        TORUS,
        (
            GeneratorSymbol(0, 2),
            GeneratorSymbol(1, 1),
            GeneratorSymbol(0, -2),
            GeneratorSymbol(1, -1),
        ),
    )
    phase, idx = normal_order(word)
    assert idx == (0, 0)
    # moving U^-2 left past V costs q^(... ): check against elementwise product
    u, v = TORUS.generator("U"), TORUS.generator("V")
    product = (u * u) * v * TORUS.basis((-2, 0)) * TORUS.basis((0, -1))
    assert product == phase * TORUS.unit()


def _bubble_sort_exponent(algebra, seq):
    """Normal ordering by literal adjacent swaps, with phases from swap_exponent."""
    word = list(seq)
    exponent = 0
    swapped = True
    while swapped:
        swapped = False
        for k in range(len(word) - 1):
            (a, p), (b, r) = word[k], word[k + 1]
            if a > b:
                exponent += swap_exponent(algebra, a, b) * p * r
                word[k], word[k + 1] = word[k + 1], word[k]
                swapped = True
    powers = [0] * algebra.d
    for pos, power in word:
        powers[pos] += power
    return exponent, tuple(powers)


def _words(algebra):
    letter = st.tuples(st.integers(0, algebra.d - 1), st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return st.tuples(st.just(algebra), st.lists(letter, max_size=12))


@given(st.sampled_from(list(ALGEBRAS.values())).flatmap(_words))
@settings(max_examples=300, deadline=None)
def test_normal_order_matches_adjacent_swap_bubble_sort(case):
    algebra, seq = case
    before = list(seq)
    assert normal_order_exponent(algebra, seq) == _bubble_sort_exponent(algebra, seq)
    assert seq == before


def test_a_bad_position_in_a_one_shot_prefix_is_a_value_error():
    # the word is read once by the kernel and again to find the bad position
    for prefix in (iter([(2, 1)]), ((p, 1) for p in (0, 1, 2))):
        with pytest.raises(ValueError, match="position 2 out of range for 'torus'"):
            normal_order_exponent(TORUS, prefix)


def test_a_good_iterator_gives_the_result_of_its_list():
    rng = random.Random(17)
    for algebra in ALGEBRAS.values():
        words = [[(rng.randrange(algebra.d), rng.choice([-2, -1, 1, 3])) for _ in range(n)]
                 for n in (0, 1, 4, 6)]
        for prefix in words:
            assert normal_order_exponent(algebra, iter(prefix)) == normal_order_exponent(
                algebra, prefix
            )
            assert normal_order_box(algebra, iter(prefix), 1) == normal_order_box(
                algebra, prefix, 1
            )


# --- the oracle reads RELATION_ROWS when it is called ---

@pytest.mark.parametrize("algebra", [P2_FORMULA_VARIANT, POINT], ids=["p2-formula", "point"])
def test_an_algebra_without_relation_rows_is_a_value_error(algebra):
    word = [(p, 1) for p in reversed(range(algebra.d))]
    name = f"'{algebra.name}'"
    with pytest.raises(ValueError, match=name):
        normal_order_exponent(algebra, word)
    with pytest.raises(ValueError, match=name):
        normal_order_exponent(algebra, [])
    with pytest.raises(ValueError, match=name):
        swap_exponent(algebra, 0, 1)
    with pytest.raises(ValueError, match=name):
        normal_order(word_of_index(algebra, (1,) * algebra.d))


def test_a_patched_relation_row_reaches_the_oracle(monkeypatch):
    # V1 U1 = q^(-1) U1 V1 in p2; the patched first row claims one more power of q
    (i, j, e), *rest = RELATION_ROWS["p2"]
    assert (i, j, e) == (0, 1, 2)
    live = normal_order_exponent(P2, [(1, 1), (0, 1)]), swap_exponent(P2, 0, 1)
    assert live == ((-2, (1, 1, 0, 0)), 2)
    monkeypatch.setitem(RELATION_ROWS, "p2", ((i, j, e + 2), *rest))
    assert normal_order_exponent(P2, [(1, 1), (0, 1)]) == (-4, (1, 1, 0, 0))
    assert swap_exponent(P2, 0, 1) == 4
    monkeypatch.undo()
    assert (normal_order_exponent(P2, [(1, 1), (0, 1)]), swap_exponent(P2, 0, 1)) == live


def test_order_kernel_source_of_a_mutated_swap_matrix():
    rows, live_kernel = RELATION_ROWS["p2"], rewrite._oracle(P2)[2]
    m = [[swap_exponent(P2, a, b) for b in range(P2.d)] for a in range(P2.d)]
    words = [[(1, 1), (0, 1)], [(2, 1), (1, 1)]]  # V1 U1 and U2 V1
    live = [normal_order_exponent(P2, word) for word in words]
    assert live == [(-2, (1, 1, 0, 0)), (-1, (0, 1, 1, 0))]
    kernel = _compile_kernel(order_kernel_source(m))
    assert [kernel(word) for word in words] == live
    # V1 U2 = q^(1/2) U2 V1 becomes V1 U2 = U2 V1: only U2 V1 changes
    m[1][2] -= 1
    m[2][1] += 1
    mutant = _compile_kernel(order_kernel_source(m))
    assert [mutant(word) for word in words] == [(-2, (1, 1, 0, 0)), (0, (0, 1, 1, 0))]
    assert [normal_order_exponent(P2, word) for word in words] == live
    assert RELATION_ROWS["p2"] is rows and rewrite._oracle(P2)[2] is live_kernel


def test_torus_order_kernel_source_is_pinned():
    # U V = q V U: a U moving past the earlier V's pays s^(-2) each
    assert order_kernel_source([[0, 2], [-2, 0]]) == (
        "def kernel(prefix):\n"
        "    p0 = p1 = e = 0\n"
        "    for b, r in prefix:\n"
        "        if type(b) is not int and not isinstance(b, int):\n"
        "            raise KeyError(b)\n"
        "        if b == 0:\n"
        "            e += (-2*p1)*r\n"
        "            p0 += r\n"
        "        elif b == 1:\n"
        "            p1 += r\n"
        "        else:\n"
        "            raise KeyError(b)\n"
        "    return e, (p0, p1)\n"
        "\n"
        "def box(prefix, letters):\n"
        "    p0 = p1 = e = 0\n"
        "    for b, r in prefix:\n"
        "        if type(b) is not int and not isinstance(b, int):\n"
        "            raise KeyError(b)\n"
        "        if b == 0:\n"
        "            e += (-2*p1)*r\n"
        "            p0 += r\n"
        "        elif b == 1:\n"
        "            p1 += r\n"
        "        else:\n"
        "            raise KeyError(b)\n"
        "    k0 = -2*p1\n"
        "    out = []\n"
        "    for r0 in letters:\n"
        "        q0 = p0 + r0\n"
        "        e0 = e + k0*r0\n"
        "        for r1 in letters:\n"
        "            q1 = p1 + r1\n"
        "            out.append(((q0, q1), e0))\n"
        "    return out\n"
    )
