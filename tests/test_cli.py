"""Command-line interface: parsing, commands, formats, exit codes."""

import contextlib
import io
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus.phases import MAX_NESTING, GaussianRational, PhaseScalar, parse_phase, phase_pow
from qtorus.algebra import ALGEBRAS, CIRCLE, P2, TORUS
from qtorus.cli import main, parse_expression
from qtorus.suite import TrialConfig, random_element
from test_product_reference import small_fractions


# --- expression parsing ---

def test_parse_product_forms():
    v_u = TORUS.basis((1, 1)) * phase_pow(-2)
    assert parse_expression(TORUS, "V*U") == v_u
    assert parse_expression(TORUS, "V U") == v_u
    assert parse_expression(TORUS, "VU") == v_u


def test_parse_scaled_monomial():
    got = parse_expression(P2, "q^(-1/2) U1 V1 U2 V2")
    assert got == phase_pow(-1) * P2.basis((1, 1, 1, 1))


def test_parse_sums_and_powers():
    got = parse_expression(TORUS, "U^2V + 3*V")
    assert got == TORUS.basis((2, 1)) + 3 * TORUS.generator("V")
    assert parse_expression(TORUS, "U*U^(-1)") == TORUS.unit()
    assert parse_expression(TORUS, "U^-1") == TORUS.basis((-1, 0))


def test_parse_juxtaposed_generators_without_spaces():
    got = parse_expression(P2, "U1U2V1V2")
    assert got == phase_pow(-1) * P2.basis((1, 1, 1, 1))


def test_parse_scalars_and_unary_minus():
    assert parse_expression(TORUS, "2") == 2 * TORUS.unit()
    assert parse_expression(TORUS, "-U") == -TORUS.generator("U")
    assert parse_expression(TORUS, "i V") == PhaseScalar(GaussianRational(0, 1)) * TORUS.generator("V")
    assert parse_expression(TORUS, "(1 + q^(1)) U") == (phase_pow(0) + phase_pow(2)) * TORUS.generator("U")
    assert parse_expression(TORUS, "q") == phase_pow(2) * TORUS.unit()


def test_parse_unknown_generator_reports_algebra():
    with pytest.raises(ValueError, match="unknown generator 'W' for algebra 'torus'"):
        parse_expression(TORUS, "W")
    with pytest.raises(ValueError, match="unknown generator"):
        parse_expression(CIRCLE, "U")
    # in the torus, "U3" is the product U * 3, not a generator name
    assert parse_expression(TORUS, "U3") == 3 * TORUS.generator("U")


def test_parse_syntax_errors():
    for text in ("U +", "(U", "U ^ q", "q^(1/3)", "* U"):
        with pytest.raises(ValueError):
            parse_expression(TORUS, text)


def test_round_trip_small_sample():
    rng = random.Random(2024)
    cfg = TrialConfig(seed=2024)
    for algebra in ALGEBRAS.values():
        for _ in range(25):
            x = random_element(algebra, cfg, rng)
            assert parse_expression(algebra, x.render()) == x


gaussians = st.builds(GaussianRational, small_fractions, small_fractions)
phase_scalars = st.dictionaries(st.integers(-8, 8), gaussians, max_size=4).map(PhaseScalar)


@given(phase_scalars)
@settings(max_examples=100)
def test_scalar_text_parses_to_the_scaled_unit(a):
    text = a.render()
    for algebra in ALGEBRAS.values():
        assert parse_expression(algebra, text) == algebra.unit().scale(parse_phase(text))


def test_mixed_scalar_forms_parse_to_the_scaled_unit():
    for text in ("2 q i - (1/2 - q^(-3/2))", "-i*i + q^(1/2) q^(-1/2)", "((3))(q - 1) - 0",
                 "i(i(i + 1)) + 7/4 q^-1"):
        for algebra in ALGEBRAS.values():
            assert parse_expression(algebra, text) == algebra.unit().scale(parse_phase(text))


def test_scalars_lift_into_the_algebra_only_when_added_to_elements():
    assert parse_expression(TORUS, "1 + U") == TORUS.unit() + TORUS.generator("U")
    assert parse_expression(TORUS, "U - q") == TORUS.generator("U") - TORUS.unit().scale(phase_pow(2))
    assert parse_expression(TORUS, "(2 + i) (U + 1) 0") == TORUS.zero()


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


SOUP_TOKENS = ["U", "V", "U1", "V2", "z", "q", "i", "W", "2", "1/2", "1/0", "+", "-", "*",
               "^", "^-1", "(", ")", " ", "!", "q^(1/2)"]
token_soups = st.one_of(
    st.lists(st.sampled_from(SOUP_TOKENS), max_size=20).map("".join),
    st.integers(0, 3000).map(lambda n: "(" * n + "U" + ")" * n),
    st.integers(0, 3000).map(lambda n: "(" * n),
)


@given(st.sampled_from(sorted(ALGEBRAS)), token_soups)
@settings(max_examples=300, deadline=None)
def test_normalize_fuzz_exits_cleanly(name, text):
    code, out, err = _run_main(["normalize", "--algebra", name, "--", text])
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.strip() and not out
    else:
        assert out.strip() and not err


def test_errors_at_the_end_report_the_text_length():
    for text, message in (("q^(1/2) U +", "expected an expression (at position 11)"),
                          ("(U V - 1", "expected ')' (at position 8)"),
                          ("U^", "expected an exponent (at position 2)")):
        code, out, err = _run_main(["normalize", "--algebra", "torus", text])
        assert code == 2 and not out and message in err


def test_deep_nesting_is_a_parse_error():
    code, out, err = _run_main(["normalize", "--algebra", "torus", "(" * 3000 + "U" + ")" * 3000])
    assert code == 2 and not out
    assert f"expression nested too deeply (at position {MAX_NESTING})" in err
    deepest = "(" * MAX_NESTING + "U" + ")" * MAX_NESTING
    assert _run_main(["normalize", "--algebra", "torus", deepest]) == (0, "U\n", "")


# --- commands ---

def test_normalize_command(capsys):
    assert main(["normalize", "--algebra", "torus", "V U"]) == 0
    assert capsys.readouterr().out.strip() == "q^(-1) * U V"


def test_mul_command(capsys):
    assert main(["mul", "--algebra", "torus", "V", "U"]) == 0
    assert capsys.readouterr().out.strip() == "q^(-1) * U V"


def test_apply_delta(capsys):
    assert main(["apply", "--map", "delta", "U"]) == 0
    assert capsys.readouterr().out.strip() == "U1 U2"


def test_apply_scalar_valued_map(capsys):
    assert main(["apply", "--map", "epsilon", "U V"]) == 0
    assert capsys.readouterr().out.strip() == "q^(1/2)"


def test_apply_scalar_valued_map_json(capsys):
    assert main(["apply", "--map", "epsilon", "--format", "json", "U V - 2 V^3 U"]) == 0
    assert capsys.readouterr().out == '{"scalar": [[-3, -2, 1, 0, 1], [1, 1, 1, 0, 1]]}\n'


def test_apply_map_algebra_mismatch(capsys):
    code = main(["apply", "--map", "mu", "--algebra", "torus", "U"])
    assert code == 2
    err = capsys.readouterr().err
    assert "mu" in err and "p2" in err and "torus" in err


def test_apply_unknown_map(capsys):
    assert main(["apply", "--map", "nope", "U"]) == 2
    assert "unknown map" in capsys.readouterr().err


def test_parse_error_exit_code(capsys):
    assert main(["normalize", "--algebra", "torus", "U +"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_zero_denominator_is_a_parse_error(capsys):
    assert main(["normalize", "--algebra", "torus", "1/0 U"]) == 2
    err = capsys.readouterr().err
    assert "zero denominator (at position 0)" in err
    assert "Traceback" not in err
    assert main(["normalize", "--algebra", "torus", "U + 3/00"]) == 2
    assert "zero denominator (at position 4)" in capsys.readouterr().err


def test_check_command_pass(capsys):
    code = main(["check", "--suite", "antipode-law", "--seed", "7", "--trials", "50"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS antipode-law" in out


def test_check_command_unknown_suite(capsys):
    assert main(["check", "--suite", "bogus"]) == 2
    assert "unknown check name" in capsys.readouterr().err


@pytest.mark.parametrize("names", [",", "", ",,"])
def test_check_command_without_a_check_name_exits_2(capsys, names):
    assert main(["check", "--suite", names]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "no check selected" in captured.err


def test_check_command_failure_exit_code(capsys):
    from qtorus import suite as suite_mod

    def _failing(cfg, rng):
        return suite_mod.CheckReport("tmp-fail", ("torus",), 1, ("forced counterexample",))

    suite_mod.CHECKS["tmp-fail"] = _failing
    try:
        code = main(["check", "--suite", "tmp-fail"])
    finally:
        del suite_mod.CHECKS["tmp-fail"]
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL tmp-fail (trials=1): forced counterexample" in out


def test_check_command_json(capsys):
    code = main(
        ["check", "--suite", "torus-relation,counit-laws", "--trials", "10",
         "--format", "json"]
    )
    assert code == 0
    records = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in records] == ["torus-relation", "counit-laws"]
    assert all(r["status"] == "pass" for r in records)


def test_check_json_output_is_stable(capsys):
    args = ["check", "--suite", "counit-laws", "--trials", "15", "--seed", "3",
            "--format", "json-like"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_normalize_json(capsys):
    assert main(["normalize", "--algebra", "torus", "V U", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algebra"] == "torus"
    assert payload["terms"] == [[[1, 1], [[-2, 1, 1, 0, 1]]]]


def test_eval_command(capsys):
    assert main(["eval", "--theta", "0.5", "--algebra", "torus", "q U"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("U:")
    assert "-1" in out


def test_eval_json(capsys):
    assert main(
        ["eval", "--theta", "0.5", "--algebra", "torus", "q U + V", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theta"] == 0.5
    coeffs = {tuple(c["index"]): complex(c["re"], c["im"]) for c in payload["coefficients"]}
    assert abs(coeffs[(1, 0)] - (-1)) < 1e-12
    assert abs(coeffs[(0, 1)] - 1) < 1e-12


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_eval_rejects_non_finite_theta(capsys, theta):
    assert main(["eval", f"--theta={theta}", "--algebra", "torus", "q U"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "theta must be a finite number" in captured.err


# a coefficient that is a float on its own, but not twice over
BIG = int(1.5e308)


@pytest.mark.parametrize("theta, fmt, expr", [
    ("0.1", "text", f"q^({'9' * 320})*U"),  # s-exponent too large for a float
    ("0.1", "text", f"{'9' * 400}*U"),  # coefficient too large for a float
    ("0", "text", f"{BIG}*U + {BIG}*q*U"),  # the sum of two floats overflows
    ("0.25", "json", f"({BIG} + {BIG}*i)*q^(1/2)*U"),  # the term c * s^e overflows
    ("0.25", "text", f"({BIG} + {BIG}*i)*q^(1/2)*U"),
    ("0.25", "text", f"({BIG} + {BIG}*i)*(q^(1/2) + q^(5/2))*U"),  # inf - inf
], ids=["s-exponent", "coefficient", "sum", "term-json", "term-text", "inf-minus-inf"])
def test_eval_of_a_value_outside_float_range_exits_2(theta, fmt, expr):
    code, out, err = _run_main(["eval", "--theta", theta, "--format", fmt, "--algebra", "torus",
                                expr])
    assert (code, out) == (2, "")
    assert err == "error: the value at index (1, 0) is outside float range\n"


def test_eval_of_a_large_finite_value_prints_it():
    code, out, err = _run_main(["eval", "--theta", "0", "--format", "json", "--algebra", "torus",
                                f"{BIG}*U"])
    assert code == 0 and not err
    assert json.loads(out)["coefficients"] == [{"index": [1, 0], "re": 1.5e308, "im": 0.0}]


@pytest.mark.parametrize("theta", ["1e300", "1e308", "-1e308", "2", "-4"])
def test_eval_reduces_theta_mod_2(capsys, theta):
    # each of these is an even integer, so s = 1; pi * 1e308 overflows unreduced
    assert main(["eval", f"--theta={theta}", "--algebra", "torus", "--", "q^(1/2) U"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "U: 1+0i\n" and not captured.err


@pytest.mark.parametrize("n, value", [
    ("65537", "0.707106781187+0.707106781187i"),
    ("1000000000001", "0.707106781187+0.707106781187i"),
    ("1" + "0" * 25, "1+0i"),  # 8 divides 10^25
])
def test_eval_of_a_large_s_exponent_is_exact(n, value):
    # at theta = 1/8, q^n = exp(i*pi*n/4); base**e alone drifts by about |e| ulps of the angle
    code, out, err = _run_main(["eval", "--theta", "0.125", "--algebra", "torus", f"q^({n}) U"])
    assert (code, out, err) == (0, f"U: {value}\n", "")


@pytest.mark.parametrize("theta", ["-1e-3", "-2.5E+1", "-0.001"])
def test_eval_takes_a_negative_theta_in_exponent_notation(theta):
    # argparse's own negative-number pattern has no exponent, so "-1e-3" looked like an option
    code, out, err = _run_main(["eval", "--theta", theta, "--algebra", "torus", "q U"])
    assert code == 0 and not err
    assert out == _run_main(["eval", f"--theta={theta}", "--algebra", "torus", "q U"])[1]


def test_eval_theta_without_a_value_exits_2():
    code, out, err = _run_main(["eval", "--theta", "--algebra", "torus", "U"])
    assert code == 2 and not out and "argument --theta: expected one argument" in err


def test_usage_error_exits_2():
    code, out, err = _run_main(["normalize", "--algebra", "nope", "U"])
    assert code == 2 and not out and "invalid choice" in err
    for argv in (["check", "--trials", "x"], ["normalize", "--algebra", "torus", "-U"], []):
        code, out, err = _run_main(argv)
        assert code == 2 and not out and "usage:" in err


def test_help_exits_0():
    for argv in (["--help"], ["check", "-h"]):
        code, out, err = _run_main(argv)
        assert code == 0 and out.startswith("usage:") and not err


def test_expression_starting_with_minus_goes_after_double_dash():
    for text in ("-U", "-1 * U"):
        assert _run_main(["normalize", "--algebra", "torus", "--", text]) == (0, "-1 * U\n", "")


# Tokens for random command lines: every option of every subcommand, values
# valid and invalid for them, expressions, and help and unknown flags.
FLAG_TOKENS = ["--algebra", "torus", "p2", "circle", "nope", "--format", "json", "text",
               "json-like", "xml", "--map", "delta", "epsilon", "mu", "antipode", "--suite",
               "torus-relation", "p2-relations,p3-relations", "counit-non-homomorphism",
               "bogus", "", "--seed", "--trials", "x", "0", "-1", "3", "--theta", "0.25",
               "nan", "1e400", "--help", "-h", "--bogus", "--", "U V", "-U", "U1 V2",
               "q^(1/2) U +", "(U V - 1", "1/0"]
COMMANDS = ["normalize", "mul", "apply", "check", "eval"]


@given(st.sampled_from(COMMANDS), st.lists(st.sampled_from(FLAG_TOKENS), max_size=8))
@settings(max_examples=300, deadline=None)
def test_random_flags_exit_cleanly(command, flags):
    # a selection of cheap checks keeps each check run short
    cheap = ["--suite", "torus-relation"] if command == "check" else []
    code, out, err = _run_main([command, *cheap, *flags])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.strip() and not out



# the most digits str() writes of an int; 0 where there is no limit (or no way to read it)
INT_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_MAX_STR_DIGITS, reason="str() writes an int of any length")
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("kind", ["s-exponent", "index-entry", "coefficient", "eval-index-entry",
                                  "eval-overflow-index-entry"])
def test_a_result_with_a_number_too_long_to_write_names_it(fmt, kind):
    limit = INT_MAX_STR_DIGITS
    # V^n U^n is q^(-n^2) U^n V^n, so n of limit/2 + 1 digits gives an s-exponent of
    # more than limit digits, and n times n a coefficient of as many; n of limit digits
    # is read, and U^n U^n has an entry 2n, in a product and in its evaluation
    half, full = "9" * (limit // 2 + 1), "9" * limit
    (command, *args), what = {
        "s-exponent": (["mul", f"V^({half})", f"U^({half})"],
                       f"the s-exponent at index ({half}, {half})"),
        "index-entry": (["mul", f"V U^({full})", f"U^({full})"], "index entry 0"),
        "coefficient": (["mul", f"{half} U", half],
                        "the coefficient at index (1, 0), s-exponent 0"),
        "eval-index-entry": (["eval", "--theta", "0.1", f"U^({full}) U^({full})"], "index entry 0"),
        # a coefficient outside float range overflows the value at that index
        "eval-overflow-index-entry": (["eval", "--theta", "0.1",
                                       f"{'9' * 400} U^({full}) U^({full})"], "index entry 0"),
    }[kind]
    code, out, err = _run_main([command, "--algebra", "torus", "--format", fmt, *args])
    assert (code, out) == (2, "")
    assert err == f"error: {what} has more than the {limit} digits str() writes\n"
