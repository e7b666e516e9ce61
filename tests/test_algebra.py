"""Twisted algebras: basis products, unit, embeddings, serialization."""

import cmath
import itertools
import json
import math
import random
from fractions import Fraction
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus.phases import ONE, ZERO, GaussianRational, PhaseScalar, phase_pow
from qtorus.algebra import (
    ALGEBRAS,
    CIRCLE,
    P2,
    P3,
    POINT,
    TORUS,
    AlgebraDescriptor,
    AlgebraElement,
    _S_POWERS,
)
from qtorus.maps import LinearMap
from qtorus.rewrite import normal_order, word_of_index
from qtorus.suite import P2_FORMULA_VARIANT, THETA_PROBES
from test_cli import _run_main
from test_product_reference import coefficient_elements, product_by_definition, raw_of


def elements(algebra, bound=3, max_support=3):
    idx = st.tuples(*([st.integers(-bound, bound)] * algebra.d))
    coeff = st.builds(
        lambda e, n, d: PhaseScalar({e: Fraction(n, d)}),
        st.integers(-4, 4),
        st.integers(-3, 3),
        st.integers(1, 3),
    )
    return st.dictionaries(idx, coeff, max_size=max_support).map(
        lambda support: AlgebraElement(algebra, support)
    )


# --- descriptors and basis ---

def test_basis_generators():
    assert TORUS.basis((1, 0)) == TORUS.generator("U")
    assert TORUS.basis((0, 1)) == TORUS.generator("V")
    assert P2.basis((0, 0, 0, 0)) == P2.unit()
    assert CIRCLE.basis((5,)) == CIRCLE.generator("z", 5)


def test_basis_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        TORUS.basis((1, 2, 3))
    with pytest.raises(ValueError):
        P3.basis((0, 0))
    with pytest.raises(ValueError):
        TORUS.generator("U3")


def test_a_generator_with_a_power_that_is_no_int_fails_as_its_basis_index():
    with pytest.raises(TypeError) as generator_error:
        TORUS.generator("U", 1.0)
    with pytest.raises(TypeError) as basis_error:
        TORUS.basis((1.0, 0))
    assert str(generator_error.value) == str(basis_error.value)


def test_cocycle_shapes():
    for algebra in ALGEBRAS.values():
        assert len(algebra.cocycle) == algebra.d
        assert all(len(row) == algebra.d for row in algebra.cocycle)
    assert all(m == 0 for row in CIRCLE.cocycle for m in row)


def test_torus_cocycle_reproduces_defining_product():
    # delta^(m,n) delta^(k,l) = q^(-k n) delta^(m+k, n+l)
    for m, n, k, l in itertools.product(range(-2, 3), repeat=4):
        assert TORUS.phase_exponent((m, n), (k, l)) == -2 * k * n


@given(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
)
def test_phase_exponent_is_bilinear(a, b, c):
    ab = tuple(x + y for x, y in zip(a, b))
    assert TORUS.phase_exponent(ab, c) == TORUS.phase_exponent(a, c) + TORUS.phase_exponent(b, c)
    assert TORUS.phase_exponent(c, ab) == TORUS.phase_exponent(c, a) + TORUS.phase_exponent(c, b)


# --- the generated product kernels ---

KERNEL_DESCRIPTORS = (POINT, CIRCLE, TORUS, P2, P3, P2_FORMULA_VARIANT)


def _kernel_rows(algebra):
    """(a, the index pairs b to check with it): the box [-2,2]^d squared for
    d <= 4, else 2,000 random pairs."""
    if algebra.d <= 4:
        box = list(itertools.product(range(-2, 3), repeat=algebra.d))
        return [(a, box) for a in box]
    rng = random.Random(algebra.name)
    draws = [tuple(rng.randint(-2, 2) for _ in range(algebra.d)) for _ in range(4000)]
    return [(a, [b]) for a, b in zip(draws[::2], draws[1::2])]


@pytest.mark.parametrize("algebra", KERNEL_DESCRIPTORS, ids=lambda a: a.name)
def test_product_kernel_matches_the_cocycle_summed_over_the_whole_matrix(algebra):
    kernel, m, d = algebra._kernel, algebra.cocycle, algebra.d
    for a, bs in _kernel_rows(algebra):
        # phi(a, b) = sum over every (i, j) of m[i][j] a[i] b[j], as row . b
        row = [sum(m[i][j] * a[i] for i in range(d)) for j in range(d)]
        expected = [(tuple(map(add, a, b)), sum(map(mul, row, b))) for b in bs]
        assert [kernel(a, b) for b in bs] == expected, a
        assert algebra.phase_exponent(a, bs[-1]) == expected[-1][1], a
        # the row function: every key of delta^(a,5) times delta^(b,f), s-exponents f of -1, 0, 1
        keys = [(b, k % 3 - 1) for k, b in enumerate(bs)]
        assert algebra._row(a, 5, keys) == [
            (ab, 5 + f + g) for (ab, g), (_, f) in zip(expected, keys)
        ], a


def test_p2_kernel_source_is_pinned():
    assert P2.kernel_source == (
        "def kernel(a, b):\n"
        "    (a0, a1, a2, a3) = a\n"
        "    (b0, b1, b2, b3) = b\n"
        "    return (a0 + b0, a1 + b1, a2 + b2, a3 + b3), -2*a1*b0 - a2*b1 + a3*b0 - 2*a3*b2\n"
    )


def test_traced_entry_points_stay_on_their_classes():
    # the benchmark's traced mode wraps these two class attributes by name
    assert "phase_exponent" in AlgebraDescriptor.__dict__
    assert "__call__" in LinearMap.__dict__


# --- vector space operations ---

def test_add_and_scale_examples():
    u = TORUS.generator("U")
    v = TORUS.generator("V")
    assert u + (-1) * u == TORUS.zero()
    assert 2 * (u + v) == 2 * u + 2 * v
    s_elem = phase_pow(1) * TORUS.unit()
    assert s_elem.support[(0, 0)] == phase_pow(1)


@pytest.mark.parametrize("c", [2 * phase_pow(1), PhaseScalar(GaussianRational(0, 1))],
                         ids=["2*q^(1/2)", "i"])
def test_a_one_term_scalar_scales_each_term_in_the_elements_order(c):
    x = AlgebraElement._raw(TORUS, {((1, 0), 0): GaussianRational(1),
                                    ((0, 1), 1): GaussianRational(3),
                                    ((-1, 2), -2): GaussianRational(0, -1)})
    ((_, f), w), = c.flat.items()
    got = x.scale(c)
    assert list(got.flat.items()) == [((a, e + f), w * v) for (a, e), v in x.flat.items()]
    assert got.algebra is TORUS


def test_canonical_form_drops_zeros():
    x = AlgebraElement(TORUS, {(1, 0): ZERO, (0, 1): ONE})
    assert dict(x.support) == {(0, 1): ONE}
    assert not AlgebraElement(TORUS, {})


def test_product_cancellation_leaves_no_zero_terms():
    one, u = TORUS.unit(), TORUS.generator("U")
    # the two cross terms merge on U and cancel
    assert dict(((one + u) * (one - u)).flat) == {((0, 0), 0): 1, ((2, 0), 0): -1}
    # a merge that does not cancel
    assert dict(((one + u) * (one + u)).flat) == {
        ((0, 0), 0): 1, ((1, 0), 0): 2, ((2, 0), 0): 1
    }
    # (V1 + U2)(U2 - s V1): V1 U2 = s U2 V1, so the cross terms s^0 V1 U2 and
    # -s^1 U2 V1 meet on one key only through their s-phases, and cancel
    v1, u2 = P2.generator("V1"), P2.generator("U2")
    prod = (v1 + u2) * (u2 - phase_pow(1) * v1)
    assert dict(prod.flat) == {((0, 0, 2, 0), 0): 1, ((0, 2, 0, 0), 1): -1}
    assert all(prod.flat.values())
    # (1 - U + U^2)(1 + U + U^2): the sum at U^2 cancels at the left term -U and
    # is added back at U^2, where the sum at U^3 cancels for good
    squared, fourth = TORUS.basis((2, 0)), TORUS.basis((4, 0))
    x, y = one - u + squared, one + u + squared
    prod = x * y
    assert prod == one + squared + fourth
    assert all(prod.flat.values())
    assert raw_of(prod) == product_by_definition(x, y)
    # a scaling by several s-powers: in (1 + q^(1/2))(U - q^(1/2) U) the two
    # q^(1/2) U terms cancel
    s = phase_pow(1)
    x, c = u - s * u, ONE + s
    for got in (c * x, x * c, x.scale(c)):
        assert got == u - phase_pow(2) * u
        assert dict(got.flat) == {((1, 0), 0): 1, ((1, 0), 2): -1}
        assert all(got.flat.values())
    assert (ONE + s) * (ONE - s) == ONE - phase_pow(2)


def test_mixed_algebra_operations_rejected():
    u = TORUS.generator("U")
    z = CIRCLE.generator("z")
    with pytest.raises(ValueError):
        u + z
    with pytest.raises(ValueError):
        u * z


# --- products ---

def test_torus_product_examples():
    u, v = TORUS.generator("U"), TORUS.generator("V")
    assert v * u == phase_pow(-2) * TORUS.basis((1, 1))
    assert u * v == phase_pow(2) * (v * u)  # U V = q V U
    got = TORUS.basis((2, 1)) * TORUS.basis((1, 3))
    assert got == phase_pow(-2) * TORUS.basis((3, 4))
    # cross-check against the rewriting oracle
    word = word_of_index(TORUS, (2, 1)) * word_of_index(TORUS, (1, 3))
    phase, idx = normal_order(word)
    assert got == phase * TORUS.basis(idx)


def test_p2_product_examples():
    u1u2 = P2.basis((1, 0, 1, 0))
    v1v2 = P2.basis((0, 1, 0, 1))
    assert u1u2 * v1v2 == phase_pow(-1) * P2.basis((1, 1, 1, 1))
    u2, v2 = P2.generator("U2"), P2.generator("V2")
    got = u2 * v2
    assert got == P2.basis((0, 0, 1, 1))  # no phase
    phase, idx = normal_order(word_of_index(P2, (0, 0, 1, 0)) * word_of_index(P2, (0, 0, 0, 1)))
    assert got == phase * P2.basis(idx)


def test_p3_product_example():
    u1u2 = P3.basis((1, 0, 1, 0, 0, 0))
    v3 = P3.generator("V3")
    assert u1u2 * v3 == phase_pow(-1) * (v3 * u1u2)


def test_unit_examples():
    assert TORUS.unit() * TORUS.generator("U") == TORUS.generator("U")
    x = P2.basis((1, 2, 3, 4))
    assert P2.unit() * x == x
    assert P3.generator("V3") * P3.unit() == P3.generator("V3")


def test_p2_relations_hold_elementwise():
    u1, v1 = P2.generator("U1"), P2.generator("V1")
    u2, v2 = P2.generator("U2"), P2.generator("V2")
    q = phase_pow(2)
    assert u1 * v1 == q * (v1 * u1)
    assert u2 * v2 == q * (v2 * u2)
    assert u1 * v2 == phase_pow(-1) * (v2 * u1)
    assert v1 * u2 == phase_pow(1) * (u2 * v1)
    assert u1 * u2 == u2 * u1
    assert v1 * v2 == v2 * v1


@given(elements(TORUS), elements(TORUS), elements(TORUS))
@settings(max_examples=60, deadline=None)
def test_torus_associativity(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(elements(P2, bound=2, max_support=2), elements(P2, bound=2, max_support=2), elements(P2, bound=2, max_support=2))
@settings(max_examples=40, deadline=None)
def test_p2_associativity(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(elements(CIRCLE), elements(CIRCLE))
@settings(max_examples=40, deadline=None)
def test_circle_is_commutative(x, y):
    assert x * y == y * x


def test_subalgebra_embeddings_are_homomorphisms():
    box = list(itertools.product(range(-2, 3), repeat=2))
    for a, b in itertools.product(box, repeat=2):
        (ab, c), = (TORUS.basis(a) * TORUS.basis(b)).support.items()
        for embed in (lambda k: (*k, 0, 0), lambda k: (0, 0, *k)):
            assert P2.basis(embed(a)) * P2.basis(embed(b)) == c * P2.basis(embed(ab))


# --- numeric evaluation ---

def test_eval_element_examples():
    x = phase_pow(2) * TORUS.basis((1, 1))
    values = x.eval_numeric(0.5)
    assert set(values) == {(1, 1)}
    assert abs(values[(1, 1)] - (-1.0)) < 1e-12
    assert TORUS.zero().eval_numeric(0.3) == {}
    y = TORUS.generator("U") + TORUS.generator("V")
    values = y.eval_numeric(0.77)
    assert abs(values[(1, 0)] - 1) < 1e-15 and abs(values[(0, 1)] - 1) < 1e-15


# --- rendering and records ---

def test_render_examples():
    u, v = TORUS.generator("U"), TORUS.generator("V")
    assert TORUS.zero().render() == "0"
    assert TORUS.unit().render() == "1"
    assert (v * u).render() == "q^(-1) * U V"
    assert (u * u).render() == "U^2"
    assert TORUS.basis((-1, 2)).render() == "U^-1 V^2"
    x = (ONE + phase_pow(2)) * u
    assert x.render() == "(1 + q^(1)) * U"
    # terms sorted lexicographically by index: (0,1) before (1,0)
    assert ((-2) * u + v).render() == "V - 2 * U"
    assert ((-2) * v + u).render() == "-2 * V + U"


def test_records_round_trip():
    x = (
        PhaseScalar({-1: GaussianRational(Fraction(1, 2), Fraction(-1, 3))})
        * P2.basis((1, -2, 0, 3))
        + 4 * P2.unit()
        + phase_pow(3) * P2.unit()
    )
    records = x.to_records()
    assert AlgebraElement.from_records(P2, records) == x
    # records are plain nested ints, sorted by index
    assert records == sorted(records, key=lambda r: r[0])
    for idx, terms in records:
        assert all(isinstance(k, int) for k in idx)
        assert all(len(t) == 5 and all(isinstance(v, int) for v in t) for t in terms)


def test_records_reject_a_non_integer_s_exponent():
    with pytest.raises(TypeError, match="s-exponent must be an integer, got 0.5"):
        AlgebraElement.from_records(TORUS, [[[1, 0], [[0.5, 1, 1, 0, 1]]]])


@pytest.mark.parametrize("entry", [True, False, 0.5], ids=["true", "false", "float"])
def test_a_bool_index_entry_is_rejected_like_a_float(entry):
    message = rf"index entries must be integers: \({entry!r}, 0\)"
    with pytest.raises(TypeError, match=message):
        TORUS.basis((entry, 0))
    with pytest.raises(TypeError, match=message):
        AlgebraElement(TORUS, {(entry, 0): 1})
    with pytest.raises(TypeError, match=message):
        AlgebraElement.from_records(TORUS, [[[entry, 0], [[0, 1, 1, 0, 1]]]])


@pytest.mark.parametrize("exponent", [True, False])
def test_a_bool_s_exponent_is_rejected_like_a_float(exponent):
    # the message of test_records_reject_a_non_integer_s_exponent
    message = f"s-exponent must be an integer, got {exponent!r}"
    with pytest.raises(TypeError, match=message):
        PhaseScalar({exponent: 1})
    with pytest.raises(TypeError, match=message):
        AlgebraElement.from_records(TORUS, [[[1, 0], [[exponent, 1, 1, 0, 1]]]])
    # the record of the bug report, read from JSON text
    if exponent is True:
        with pytest.raises(TypeError, match=message):
            AlgebraElement.from_records(TORUS, json.loads("[[[1, 0], [[true, 1, 1, 0, 1]]]]"))


@pytest.mark.parametrize("position", range(4))
def test_a_bool_coefficient_part_is_rejected_like_a_float(position):
    # re-num, re-den, im-num, im-den of the coefficient 1 of U, one of them replaced
    for part in (True, 1.0):
        parts = [1, 1, 0, 1]
        parts[position] = part
        message = rf"coefficient parts must be integers: \[{', '.join(map(repr, parts))}\]"
        with pytest.raises(TypeError, match=message):
            AlgebraElement.from_records(TORUS, [[[1, 0], [[0, *parts]]]])
    # the record of the bug report, read from JSON text
    text = ["1", "1", "0", "1"]
    text[position] = "true"
    with pytest.raises(TypeError, match="coefficient parts must be integers"):
        AlgebraElement.from_records(TORUS, json.loads(f"[[[1, 0], [[0, {', '.join(text)}]]]]"))


def test_eval_at_a_nan_theta_is_nan_for_a_small_or_large_s_exponent():
    for e in (1, 1000):
        (z,) = (phase_pow(e) * TORUS.basis((1, 0))).eval_numeric(float("nan")).values()
        assert z != z


def test_each_value_is_bit_for_bit_its_direct_evaluation():
    """|e| <= 256 is read from the table of base**e, base = exp(i*pi*fmod(theta, 2)), and
    |e| = 257 takes the exact path; each float's hex is the value worked out here inline,
    alone at its index and summed by fsum with the others at one index."""
    exponents = (-257, -256, -1, 0, 1, 256, 257)
    lone = {(k, 0): [[e, 2, 3, -5, 7]] for k, e in enumerate(exponents)}
    records = [[list(a), parts] for a, parts in lone.items()]
    records.append([[0, 1], [[e, 1 + abs(e) % 3, 1, 1, 2] for e in exponents]])
    x = AlgebraElement.from_records(TORUS, records)
    for theta in (*THETA_PROBES, -0.0, 0, 1e308, float("nan")):
        base = cmath.exp(1j * math.pi * math.fmod(theta, 2.0))

        def term(e, c):
            if abs(e) <= 256 or math.isnan(theta):
                s = base**e
            else:
                n, d = theta.as_integer_ratio()
                s = cmath.exp(1j * math.pi * (n * e % (2 * d) / d))
            return 0j + c * s

        want = {(k, 0): term(e, complex(2 / 3, -5 / 7)) for k, e in enumerate(exponents)}
        zs = [term(e, complex(1 + abs(e) % 3, 1 / 2)) for e in exponents]
        want[(0, 1)] = 0j + complex(math.fsum(z.real for z in zs), math.fsum(z.imag for z in zs))
        got = x.eval_numeric(theta)
        assert {a: (z.real.hex(), z.imag.hex()) for a, z in got.items()} == {
            a: (z.real.hex(), z.imag.hex()) for a, z in want.items()
        }
        if not math.isnan(theta):
            assert [(z.real.hex(), z.imag.hex()) for z in _S_POWERS[theta].values()] == [
                ((base**e).real.hex(), (base**e).imag.hex()) for e in range(-256, 257)
            ]


def test_the_table_of_powers_of_s_stays_bounded():
    for k in range(40):
        TORUS.generator("U").eval_numeric(k / 64)
        assert 1 <= len(_S_POWERS) <= 8
    assert 39 / 64 in _S_POWERS


@pytest.mark.parametrize("parts", [[1, -2, 0, 1], [1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, -3]])
def test_records_reject_a_denominator_that_is_not_positive(parts):
    with pytest.raises(ValueError, match=r"denominator not positive at index \(1, 0\), s-exponent 3"):
        AlgebraElement.from_records(TORUS, [[[1, 0], [[3, *parts]]]])


def test_records_accept_coefficient_parts_not_in_lowest_terms():
    assert AlgebraElement.from_records(TORUS, [[[1, 0], [[0, 2, 4, 3, 6]]]]) == (
        GaussianRational(Fraction(1, 2), Fraction(1, 2)) * TORUS.basis((1, 0))
    )


@given(st.integers(-30, 30), st.integers(1, 30), st.integers(-30, 30), st.integers(1, 30),
       st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=300)
def test_records_build_the_coefficient_of_any_integer_parts(rn, rd, imn, imd, j, k):
    # j and k take each part out of lowest terms, with the denominators kept positive
    rn, rd, imn, imd = rn * j, rd * j, imn * k, imd * k
    expected = GaussianRational(Fraction(rn, rd), Fraction(imn, imd))
    got = AlgebraElement.from_records(TORUS, [[[1, 0], [[0, rn, rd, imn, imd]]]]).flat
    if not expected:
        assert got == {}
        return
    c, = got.values()
    assert c == expected and c.record_parts() == expected.record_parts()


def test_a_generator_power_that_is_no_int_is_a_type_error():
    with pytest.raises(TypeError, match=r"^index entries must be integers: \(1\.5, 0\)$"):
        TORUS.generator("U", 1.5)
    with pytest.raises(TypeError, match=r"^index entries must be integers: \(True, 0\)$"):
        TORUS.generator("U", True)
    assert TORUS.generator("V", -2) == TORUS.basis((0, -2))


def test_records_reject_a_repeated_index_and_s_exponent():
    # the two entries sum to 0; neither may silently replace the other
    with pytest.raises(ValueError, match=r"s-exponent 0 repeated at index \(1, 0\)"):
        AlgebraElement.from_records(TORUS, [[[1, 0], [[0, 1, 1, 0, 1]]], [[1, 0], [[0, -1, 1, 0, 1]]]])


# --- the product's work, and values free of the term order ---

def _two_powers(algebra, indices):
    """An element whose coefficient at each index has two s-powers."""
    return AlgebraElement(algebra, {
        a: PhaseScalar({k: GaussianRational(k + 2, 1), k + 3: Fraction(-1, k + 2)})
        for k, a in enumerate(indices)
    })


def test_product_finds_the_phase_once_per_pair_of_index_runs(monkeypatch):
    x = _two_powers(P2, [(1, 0, 0, 0), (0, 1, -1, 0), (2, -1, 0, 1)])
    y = _two_powers(P2, [(0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1), (-1, 2, 0, -2)])
    assert len(x.flat) == 6 and len(y.flat) == 8
    calls = []
    kernel = P2._kernel

    def counting(a, b):
        calls.append((a, b))
        return kernel(a, b)

    monkeypatch.setitem(P2.__dict__, "_kernel", counting)
    prod = x * y
    # one call per pair of the 3 x 4 indices, not per pair of the 6 x 8 flat terms
    assert len(calls) == 12
    assert len(set(calls)) == 12
    assert raw_of(prod) == product_by_definition(x, y)


def _assert_value_ignores_term_order(x, cli_theta=None):
    """x and the equal element with its terms stored in reverse give bit-identical
    ``eval_numeric`` floats at each probe theta, and ``qtorus eval --format json``
    bytes at ``cli_theta``."""
    terms = [AlgebraElement(x.algebra, {a: PhaseScalar({e: c})}) for (a, e), c in x.flat.items()]
    backwards = sum(reversed(terms), x.algebra.zero())
    assert backwards == x and list(backwards.flat) == list(reversed(x.flat))
    for theta in THETA_PROBES:
        bits = [{a: (z.real.hex(), z.imag.hex()) for a, z in y.eval_numeric(theta).items()}
                for y in (x, backwards)]
        assert bits[0] == bits[1]
    if cli_theta is not None:
        argv = ["eval", "--format", "json", "--algebra", x.algebra.name, "--theta", repr(cli_theta)]
        first, second = (_run_main([*argv, " + ".join(f"({t.render()})" for t in ts) or "0"])
                         for ts in (terms, terms[::-1]))
        assert first[0] == 0 and first == second


U, V, S, Q = TORUS.generator("U"), TORUS.generator("V"), phase_pow(1), phase_pow(2)
# sums whose same-index terms are not adjacent in the flat order
SPREAD_X = U + V + S * U + Fraction(2, 3) * (V * V) + Q * V
SPREAD_Y = V - GaussianRational(0, 1) * U + phase_pow(-3) * V + U * U
# five s-powers of U, whose sum at theta = 0.1375 once depended on their order
SPREAD_U = U + S * U + Q * U + phase_pow(3) * U + Fraction(1, 3) * phase_pow(5) * U
V1, U2 = P2.generator("V1"), P2.generator("U2")


def _assert_product_and_its_value_ignore_term_order(x, y, cli_theta):
    prod = x * y
    assert raw_of(prod) == product_by_definition(x, y)
    _assert_value_ignores_term_order(x, cli_theta)
    _assert_value_ignores_term_order(prod)


def test_product_and_its_value_do_not_depend_on_term_order():
    pairs = [(SPREAD_X, SPREAD_Y), (SPREAD_Y, SPREAD_X), (SPREAD_X, SPREAD_X), (SPREAD_X, U),
             (V, SPREAD_Y), (SPREAD_U, TORUS.unit()),
             # merges that cancel: the cross terms of (1 + U)(1 - U), and in p2 the
             # terms s^0 V1 U2 and -s^1 U2 V1 of (V1 + U2)(U2 - s V1)
             (TORUS.unit() + U, TORUS.unit() - U), (V1 + U2 + S * V1, U2 - S * V1 + Q * U2)]
    for x, y in pairs:
        _assert_product_and_its_value_ignore_term_order(x, y, 0.1375)


@given(st.one_of([
    st.tuples(*[coefficient_elements(algebra)] * 4) for algebra in ALGEBRAS.values()
]).map(lambda xy: (xy[0] + xy[1], xy[2] + xy[3])), st.sampled_from(THETA_PROBES))
@settings(max_examples=100, deadline=None)
def test_product_of_sums_and_its_value_do_not_depend_on_term_order(pair, cli_theta):
    _assert_product_and_its_value_ignore_term_order(*pair, cli_theta)


@pytest.mark.parametrize("algebra", list(ALGEBRAS.values()), ids=list(ALGEBRAS))
def test_one_term_product_matches_the_reference(algebra):
    a = (1, -2, 3, 0, -1, 2)[: algebra.d]
    b = (-3, 1, 2, -2, 1, 1)[: algebra.d]
    x = AlgebraElement(algebra, {a: PhaseScalar({3: GaussianRational(Fraction(2, 3), -1)})})
    y = AlgebraElement(algebra, {b: PhaseScalar({-5: GaussianRational(Fraction(-1, 2), Fraction(1, 3))})})
    for left, right in ((x, y), (y, x)):
        prod = left * right
        assert len(prod.flat) == 1
        assert raw_of(prod) == product_by_definition(left, right)


@pytest.mark.parametrize("algebra", list(ALGEBRAS.values()), ids=list(ALGEBRAS))
def test_one_term_by_many_product_matches_the_reference(algebra):
    # the one-term-left path: several s-powers at each right index, which never merge
    indices = [(1, -2, 3, 0, -1, 2), (-3, 1, 2, -2, 1, 1), (0,) * 6, (2, 2, -1, 1, 0, -2)]
    y = AlgebraElement(algebra, {
        b[: algebra.d]: PhaseScalar({
            k: GaussianRational(k + 1, -1), k + 3: Fraction(-1, k + 2), -4: GaussianRational(0, 1),
        })
        for k, b in enumerate(indices)
    })
    a = (2, -1, 1, 3, -2, 0)[: algebra.d]
    coefficient = PhaseScalar({3: GaussianRational(Fraction(2, 3), -1)})
    assert len(y.flat) == 12
    for x in (algebra.basis(a), AlgebraElement(algebra, {a: coefficient})):
        prod = x * y
        assert len(prod.flat) == len(y.flat)
        assert raw_of(prod) == product_by_definition(x, y)


# --- the descriptor's surface ---

def test_a_rebuilt_descriptor_equals_the_original_and_hashes_alike():
    rebuilt = AlgebraDescriptor(TORUS.name, TORUS.generator_names, TORUS.cocycle)
    assert rebuilt is not TORUS
    assert rebuilt == TORUS and hash(rebuilt) == hash(TORUS)
    assert {rebuilt: 1}[TORUS] == 1
    keywords = AlgebraDescriptor(name="p2", generator_names=P2.generator_names, cocycle=P2.cocycle)
    assert keywords == P2 and hash(keywords) == hash(P2)
    assert P2_FORMULA_VARIANT != P2 and P2 != P2_FORMULA_VARIANT
    assert TORUS != CIRCLE and TORUS != "torus"
    assert repr(rebuilt) == "AlgebraDescriptor('torus', d=2)"


def test_a_descriptor_with_a_bad_cocycle_is_a_value_error():
    with pytest.raises(ValueError, match=r"^cocycle matrix of algebra 'x' must be 2x2$"):
        AlgebraDescriptor("x", ("U", "V"), ((0, 0),))
    with pytest.raises(ValueError, match=r"^cocycle matrix of algebra 'x' must be 1x1$"):
        AlgebraDescriptor("x", ("z",), ((0, 0),))


def test_a_descriptor_is_frozen():
    with pytest.raises(AttributeError):
        TORUS.name = "x"
    with pytest.raises(AttributeError):
        TORUS.cocycle = P2.cocycle
    with pytest.raises(AttributeError):
        del TORUS.generator_names
    assert TORUS.name == "torus" and TORUS.d == 2
