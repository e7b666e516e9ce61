"""Exact scalar ring: arithmetic laws, numeric evaluation, text round-trip."""

import cmath
import functools
import math
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus.algebra import CIRCLE, P2, TORUS, AlgebraElement, _merge_into
from qtorus.cli import parse_expression
from qtorus.phases import (
    MAX_NESTING,
    ONE,
    ZERO,
    GaussianRational,
    ParseError,
    PhaseScalar,
    parse_phase,
    parse_tokens,
    phase_pow,
    tokenize,
)
from test_product_reference import small_fractions

gaussians = st.builds(GaussianRational, small_fractions, small_fractions)
phases = st.dictionaries(st.integers(-8, 8), gaussians, max_size=4).map(PhaseScalar)


# --- Gaussian rationals ---

def test_gaussian_rational_reduced_form():
    g = GaussianRational(Fraction(2, 4), Fraction(-3, -6))
    assert g.re == Fraction(1, 2) and g.im == Fraction(1, 2)
    assert g.re.denominator > 0


def test_gaussian_rational_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(Fraction(1, 2), -1)
    assert a + b == GaussianRational(Fraction(3, 2), 1)
    assert a * b == GaussianRational(Fraction(5, 2), 0)  # (1+2i)(1/2-i)
    assert -a == GaussianRational(-1, -2)
    assert a - a == GaussianRational(0)
    assert not (a - a)


def test_gaussian_rational_inverse():
    a = GaussianRational(1, 2)
    assert a * a.inverse() == GaussianRational(1)
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0).inverse()


@given(gaussians, gaussians, gaussians)
def test_gaussian_rational_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_hash_agrees_with_equality():
    assert GaussianRational(2) == 2 and len({GaussianRational(2), 2}) == 1
    assert hash(GaussianRational(Fraction(-3, 4))) == hash(Fraction(-3, 4))
    assert hash(GaussianRational(0, 1)) == hash(GaussianRational(Fraction(0), Fraction(2, 2)))
    assert PhaseScalar(1) == 1 and len({PhaseScalar(1), 1, ONE}) == 1
    assert hash(PhaseScalar(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(PhaseScalar(GaussianRational(1, 1))) == hash(GaussianRational(1, 1))
    assert ZERO == 0 and hash(ZERO) == hash(0)


# --- integer-triple kernel against a Fraction-pair reference ---

rationals = st.one_of(
    st.integers(-20, 20), st.fractions(min_value=-20, max_value=20, max_denominator=36)
)
rational_pairs = st.tuples(rationals, rationals)


def _reference_str(re: Fraction, im: Fraction) -> str:
    """The rendering of a + b*i, written out on the Fraction parts."""

    def frac(x: Fraction) -> str:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    if not im:
        return frac(re)
    imtxt = "i" if abs(im) == 1 else f"{frac(abs(im))}i"
    if not re:
        return imtxt if im > 0 else f"-{imtxt}"
    return f"({frac(re)}{'+' if im > 0 else '-'}{imtxt})"


def _assert_matches_reference(got: GaussianRational, re: Fraction, im: Fraction):
    a, b, d = got._a, got._b, got._d
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (got.re, got.im) == (re, im)
    assert got.record_parts() == (re.numerator, re.denominator, im.numerator, im.denominator)
    assert got == GaussianRational(re, im)
    assert hash(got) == hash(GaussianRational(re, im))
    assert hash(PhaseScalar(got)) == hash(got)
    if im == 0:
        assert got == re and hash(got) == hash(re)
    else:
        assert got != re
    assert bool(got) == bool(re or im)
    assert got.to_complex() == complex(float(re), float(im))
    assert str(got) == _reference_str(re, im)


@given(rational_pairs, rational_pairs)
@settings(max_examples=300)
def test_integer_kernel_matches_fraction_pair_reference(p, r):
    a, b = map(Fraction, p)
    c, d = map(Fraction, r)
    x, y = GaussianRational(*p), GaussianRational(*r)
    _assert_matches_reference(x, a, b)
    _assert_matches_reference(x + y, a + c, b + d)
    _assert_matches_reference(x - y, a - c, b - d)
    _assert_matches_reference(x * y, a * c - b * d, a * d + b * c)
    _assert_matches_reference(-x, -a, -b)
    _assert_matches_reference(x + c, a + c, b)
    _assert_matches_reference(c - x, c - a, -b)
    _assert_matches_reference(x * c, a * c, b * c)
    _assert_matches_reference(3 * x, 3 * a, 3 * b)
    norm = a * a + b * b
    if norm:
        _assert_matches_reference(x.inverse(), a / norm, -b / norm)
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()


# --- construction and basic identities ---

def test_phase_pow_examples():
    assert phase_pow(0) == ONE
    assert phase_pow(2) == PhaseScalar({2: 1})  # q itself
    assert phase_pow(-1) == PhaseScalar({-1: 1})  # q^(-1/2)
    assert phase_pow(2) * phase_pow(2) == phase_pow(4)


@pytest.mark.parametrize("e", [True, 1.5, 2.0], ids=["bool", "float", "integral-float"])
def test_phase_pow_takes_only_an_int(e):
    # the message of PhaseScalar({True: 1}); no text or record is built from a non-int
    with pytest.raises(TypeError, match=f"s-exponent must be an integer, got {e!r}"):
        phase_pow(e)


def test_addition_examples():
    s = phase_pow(1)
    assert s + s == PhaseScalar({1: 2})
    assert s + (-s) == ZERO
    assert not (s - s)
    assert (ONE + s) + (ONE - s) == PhaseScalar(2)


def test_multiplication_examples():
    s = phase_pow(1)
    assert phase_pow(2) * phase_pow(-2) == ONE
    assert (ONE + s) * (ONE - s) == ONE - phase_pow(2)
    # q^(-1/2) * q = q^(1/2)
    assert phase_pow(-1) * phase_pow(2) == s


def test_zero_annihilates_and_one_is_identity():
    a = PhaseScalar({3: GaussianRational(2, 1), -1: Fraction(1, 2)})
    assert a * ONE == a
    assert a * ZERO == ZERO
    assert a + ZERO == a


def test_pow_and_inverse():
    s = phase_pow(1)
    assert s**4 == phase_pow(4)
    assert s**0 == ONE
    assert s**-3 == phase_pow(-3)
    c = PhaseScalar({2: GaussianRational(0, 1)})
    assert c * c.inverse() == ONE
    with pytest.raises(ValueError):
        (ONE + s).inverse()


# --- ring laws ---

@given(phases, phases, phases)
@settings(max_examples=150)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(phases, phases)
def test_canonical_uniqueness(a, b):
    # equal iff identical canonical term maps, iff difference is empty
    assert (a == b) == (dict(a.terms) == dict(b.terms))
    assert (a == b) == (not (a - b))


def test_canonical_form_drops_zero_coefficients():
    a = PhaseScalar({0: 1, 3: 0, 5: GaussianRational(0, 0)})
    assert dict(a.terms) == {0: GaussianRational(1)}


# --- numeric evaluation ---

def test_eval_constant():
    for theta in (0.0, 0.25, 1.9):
        assert ONE.eval_numeric(theta) == pytest.approx(1.0 + 0j, abs=1e-15)


def test_eval_full_power_at_half():
    # s**2 at theta = 1/2 is exp(i*pi) = -1
    expected = cmath.exp(1j * math.pi)
    got = phase_pow(2).eval_numeric(0.5)
    assert abs(got - expected) < 1e-12
    assert abs(got - (-1.0)) < 1e-12


def test_eval_symmetric_pair_at_third():
    # s + s**-1 at theta = 1/3 is 2*cos(pi/3) = 1
    got = (phase_pow(1) + phase_pow(-1)).eval_numeric(1.0 / 3.0)
    expected = 2.0 * math.cos(math.pi / 3.0)
    assert abs(got - expected) < 1e-12
    assert abs(got - 1.0) < 1e-12


def test_eval_pure_powers_have_unit_modulus():
    for e in range(-8, 9):
        for theta in (0.0, 1.0 / 3.0, 0.1375):
            assert abs(abs(phase_pow(e).eval_numeric(theta)) - 1.0) < 1e-12


@given(phases, phases, st.sampled_from([0.0, 1.0 / 3.0, 0.1375, 0.77]))
@settings(max_examples=150)
def test_eval_is_ring_homomorphism(a, b, theta):
    ea, eb = a.eval_numeric(theta), b.eval_numeric(theta)
    assert abs((a * b).eval_numeric(theta) - ea * eb) < 1e-10
    assert abs((a + b).eval_numeric(theta) - (ea + eb)) < 1e-10


# --- canonical rendering and parsing ---

def test_render_examples():
    s = phase_pow(1)
    assert ZERO.render() == "0"
    assert ONE.render() == "1"
    assert phase_pow(2).render() == "q^(1)"
    assert phase_pow(-1).render() == "q^(-1/2)"
    assert (PhaseScalar(2) * phase_pow(3)).render() == "2*q^(3/2)"
    mixed = PhaseScalar({-1: GaussianRational(Fraction(-1, 2), Fraction(1, 3)), 3: 2})
    assert mixed.render() == "(-1/2+1/3i)*q^(-1/2) + 2*q^(3/2)"
    assert (ONE - s).render() == "1 - q^(1/2)"


def test_parse_round_trip_of_pinned_rendering():
    text = "(-1/2+1/3i)*q^(-1/2) + 2*q^(3/2)"
    value = parse_phase(text)
    assert value.render() == text


@given(phases)
@settings(max_examples=200)
def test_parse_render_round_trip(a):
    assert parse_phase(a.render()) == a


def test_parse_accepts_plain_q_and_imaginary_units():
    assert parse_phase("q") == phase_pow(2)
    assert parse_phase("i*i") == PhaseScalar(-1)
    assert parse_phase("-i") == PhaseScalar(GaussianRational(0, -1))
    assert parse_phase("2 q^(1/2)") == PhaseScalar(2) * phase_pow(1)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ParseError) as err:
        parse_phase("2 + 1/0")
    assert err.value.pos == 4 and "zero denominator" in str(err.value)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        parse_phase("q^(1/3)")
    with pytest.raises(ParseError):
        parse_phase("1 +")
    with pytest.raises(ParseError):
        parse_phase("(1 + q^(1)")
    try:
        parse_phase("2 ! 3")
    except ParseError as err:
        assert err.pos == 2


def test_parse_errors_at_the_end_report_the_text_length():
    for text in ("1 +", "1 + ", "(1 + q^(1)", "q^", "q^("):
        with pytest.raises(ParseError) as err:
            parse_phase(text)
        assert err.value.pos == len(text)


def test_parse_bounds_the_nesting_depth():
    deepest = "(" * MAX_NESTING + "2" + ")" * MAX_NESTING
    assert parse_phase(deepest) == PhaseScalar(2)
    with pytest.raises(ParseError) as err:
        parse_phase("(" * 3000 + "1" + ")" * 3000)
    assert err.value.pos == MAX_NESTING and "nested too deeply" in str(err.value)


# --- the tokenizer, and the cost of a sum ---

def test_tokenize_gives_every_token_kind_with_its_position():
    text = "2/3*q^(1/2) U1U2 - i Wz+(V2^-7)"
    assert tokenize(text, P2.generator_names) == [
        ("num", Fraction(2, 3), 0), ("op", "*", 3), ("name", "q", 4), ("op", "^", 5),
        ("op", "(", 6), ("num", Fraction(1, 2), 7), ("op", ")", 10), ("name", "U1", 12),
        ("name", "U2", 14), ("op", "-", 17), ("name", "i", 19), ("word", "Wz", 21),
        ("op", "+", 23), ("op", "(", 24), ("name", "V2", 25), ("op", "^", 27),
        ("op", "-", 28), ("num", Fraction(7), 29), ("op", ")", 30),
    ]


def test_tabs_newlines_and_ideographic_spaces_separate_tokens():
    text = "U\t*\nV\u3000+ \t1"
    assert tokenize(text, TORUS.generator_names) == [
        ("name", "U", 0), ("op", "*", 2), ("name", "V", 4), ("op", "+", 6),
        ("num", Fraction(1), 9),
    ]
    assert parse_expression(P2, "V1\tU1\n+\u3000U2 V2") == parse_expression(P2, "V1 U1 + U2 V2")


def test_non_ascii_decimal_digits_are_numbers():
    assert tokenize("\u0663 U", ("U",)) == [("num", Fraction(3), 0), ("name", "U", 2)]
    assert parse_expression(TORUS, "\u0663 U") == parse_expression(TORUS, "3 * U")
    assert parse_expression(TORUS, "U^\u0663") == TORUS.basis((3, 0))


def test_errors_after_unicode_whitespace_name_the_character_position():
    with pytest.raises(ParseError) as err:
        parse_phase("\u3000\u2003!")
    assert str(err.value) == "unexpected character '!' (at position 2)"
    with pytest.raises(ParseError) as err:
        parse_phase("1 +\u3000\t1/0")
    assert str(err.value) == "zero denominator (at position 5)"


def test_a_letter_outside_ascii_is_a_bad_character_and_an_unknown_name_a_word():
    with pytest.raises(ParseError) as err:
        parse_expression(TORUS, "U\u00e9")
    assert str(err.value) == "unexpected character '\u00e9' (at position 1)"
    with pytest.raises(ParseError) as err:
        parse_expression(TORUS, "W")
    assert str(err.value) == "unknown generator 'W' for algebra 'torus' (at position 0)"


def test_a_sum_of_n_terms_copies_and_merges_at_most_2n_terms(monkeypatch):
    n = 2000
    handled = [0]
    add = AlgebraElement.__add__

    def counting_add(self, other):
        if isinstance(other, AlgebraElement):
            handled[0] += len(self.flat) + len(other.flat)
        return add(self, other)

    def counting_merge(out, pairs):
        pairs = list(pairs)
        handled[0] += len(pairs)
        return _merge_into(out, pairs)

    monkeypatch.setattr(AlgebraElement, "__add__", counting_add)
    monkeypatch.setattr("qtorus.algebra._merge_into", counting_merge)
    # a parser that sums through __add__ alone need not import the merge
    monkeypatch.setattr("qtorus.phases._merge_into", counting_merge, raising=False)
    got = parse_expression(TORUS, " + ".join(f"U^{k} V" for k in range(n)))
    assert got == AlgebraElement(TORUS, {(k, 1): 1 for k in range(n)})
    assert n - 1 <= handled[0] <= 2 * n  # each of the n - 1 "+" adds one term


def test_a_sum_keeps_its_kind_and_cancels_to_zero():
    assert parse_phase("q - 1/2 + 1/2 - q") == ZERO
    assert type(parse_phase("q - 1/2 + 1/2 - q")) is PhaseScalar
    assert parse_phase("1 + q + 1") == PhaseScalar({0: 2, 2: 1})
    u = TORUS.basis((1, 0))
    assert parse_expression(TORUS, "U - 1 + 1 - U") == TORUS.zero()
    assert parse_expression(TORUS, "1 - 1 + U") == u
    assert parse_expression(TORUS, "2 + q + U - 1") == u + TORUS.unit().scale(parse_phase("1 + q"))


def test_a_scalar_expression_parses_into_the_algebra_it_is_given():
    text = "1/2 + q"
    got = parse_tokens(tokenize(text), len(text), TORUS)
    lifted = TORUS.unit().scale(parse_phase(text))
    assert type(got) is AlgebraElement and got.algebra is TORUS
    assert got == lifted and list(got.flat) == list(lifted.flat)
    assert type(parse_tokens(tokenize(text), len(text))) is PhaseScalar
    # a parenthesized sum of scalars alone stays a scalar inside the term it scales
    assert parse_expression(TORUS, "(1/2 + q) U") == TORUS.basis((1, 0)).scale(parse_phase(text))


# the most digits int() converts; 0 where there is no limit (or no way to read it)
INT_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_MAX_STR_DIGITS, reason="int() converts a number of any length")
@pytest.mark.parametrize("template", ["{}", "U^({})"], ids=["bare-number", "exponent"])
def test_a_number_too_long_for_int_is_a_parse_error_at_its_position(template):
    with pytest.raises(ParseError) as err:
        parse_expression(TORUS, template.format("9" * (INT_MAX_STR_DIGITS + 1)))
    assert str(err.value) == f"number too long (at position {template.index('{')})"


# --- a term is folded into one flat term ---

def _sixteen_term_torus_element():
    """16 terms off the unit index; 4 of them (every fourth) have two s-powers."""
    indices = [(m, n) for m in range(-2, 2) for n in range(-2, 3) if (m, n) != (0, 0)][:16]
    support = {}
    for k, idx in enumerate(indices):
        c = GaussianRational(Fraction(2 * k - 15, 3), k % 3 - 1)
        powers = {k % 5 - 2: c, k % 5 + 1: 2 * c} if k % 4 == 0 else {k % 7 - 3: c}
        support[idx] = PhaseScalar(powers)
    return AlgebraElement(TORUS, support)


def test_a_canonical_rendering_is_parsed_without_element_products(monkeypatch):
    x = _sixteen_term_torus_element()
    calls = {"element": 0, "scalar": 0}

    def counting(name, method):
        def wrapper(self, other):
            calls[name] += 1
            return method(self, other)
        return wrapper

    monkeypatch.setattr(AlgebraElement, "__mul__", counting("element", AlgebraElement.__mul__))
    monkeypatch.setattr(PhaseScalar, "__mul__", counting("scalar", PhaseScalar.__mul__))
    monkeypatch.setattr(PhaseScalar, "__rmul__", counting("scalar", PhaseScalar.__rmul__))
    assert len(x.flat) == 20 and parse_expression(TORUS, x.render()) == x
    # one scalar product per coefficient of two s-powers: (c1 + c2) * U^m V^n
    assert calls == {"element": 0, "scalar": 4}


def _atom(algebra):
    """(text, value) of one factor without parentheses."""
    names = algebra.generator_names if algebra else ()
    generators = st.builds(
        lambda name, power, parens: (
            f"{name}^({power})" if parens else f"{name}^{power}", algebra.generator(name, power)),
        st.sampled_from(names), st.integers(-3, 3), st.booleans()) if names else st.nothing()
    rationals = small_fractions.filter(lambda r: r >= 0).map(lambda r: (str(r), PhaseScalar(r)))
    q_powers = st.integers(-5, 5).map(lambda k: (f"q^({k}/2)", phase_pow(k)))
    return st.one_of(generators, rationals, q_powers,
                     st.just(("i", PhaseScalar(GaussianRational(0, 1)))))


def _lifted_sum(algebra, values):
    """The sum of ``values`` as the parser forms it: scalars lifted into the unit
    when any value is an element, merged in order."""
    if algebra and not all(isinstance(v, PhaseScalar) for v in values):
        values = [algebra.unit().scale(v) if isinstance(v, PhaseScalar) else v for v in values]
    return functools.reduce(operator.add, values)


@st.composite
def _factors(draw, algebra):
    """(text, value) factors: atoms, and parenthesized sums of one or more terms."""
    atom = _atom(algebra)
    terms = st.tuples(st.booleans(), st.lists(atom, min_size=1, max_size=3))
    factors = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 3)):
            factors.append(draw(atom))
            continue
        parts, values = [], []
        for k, (minus, term) in enumerate(draw(st.lists(terms, min_size=1, max_size=3))):
            parts.append(("-" if minus else "+" if k else "") + " ".join(t for t, _ in term))
            value = functools.reduce(operator.mul, [v for _, v in term])
            values.append(-value if minus else value)
        factors.append((f"({' '.join(parts)})", _lifted_sum(algebra, values)))
    return factors


def _joined(draw, factors):
    return "".join(text + (draw(st.sampled_from([" ", "*", " * "])) if k < len(factors) - 1
                           else "") for k, (text, _) in enumerate(factors))


@pytest.mark.parametrize("algebra", [TORUS, P2, CIRCLE], ids=lambda a: a.name)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_term_parses_to_the_product_of_its_factors(algebra, data):
    factors = data.draw(_factors(algebra))
    expected = functools.reduce(operator.mul, [v for _, v in factors])
    if isinstance(expected, PhaseScalar):
        expected = algebra.unit().scale(expected)
    got = parse_expression(algebra, _joined(data.draw, factors))
    assert got == expected and list(got.flat) == list(expected.flat)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_scalar_term_parses_to_the_product_of_its_factors(data):
    factors = data.draw(_factors(None))
    expected = functools.reduce(operator.mul, [v for _, v in factors])
    got = parse_phase(_joined(data.draw, factors))
    assert type(got) is PhaseScalar
    assert got == expected and list(got.flat) == list(expected.flat)
