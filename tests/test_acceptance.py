"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The pass/fail lines are written to the real stdout, so they appear in a
normal ``pytest`` run.  All comparisons are exact (canonical forms) unless a
tolerance is stated.
"""

import itertools
import json
import random
import sys
import time
from pathlib import Path

import pytest

from qtorus.phases import ONE, phase_pow
from qtorus.algebra import ALGEBRAS, P2, P3, TORUS
from qtorus.cli import parse_expression
from qtorus.maps import (
    comult,
    counit,
    lift_left_antipode,
    lift_left_comult,
    lift_left_counit,
    lift_right_antipode,
    lift_right_comult,
    lift_right_counit,
    mult_map,
)
from qtorus.rewrite import RELATION_ROWS, normal_order_exponent
from qtorus.suite import (
    NUMERIC_TOL,
    P2_FORMULA_VARIANT,
    THETA_PROBES,
    TrialConfig,
    random_element,
    run_suite,
)
from test_cli import _run_main

SEED = 20260809
GOLDEN_CHECK_JSON = Path(__file__).parent / "golden" / "check_seed_20260809.json"

# Trial counts of every check in the default suite at the default 200 trials;
# none depends on the seed, so a faster suite cannot come from fewer trials.
DEFAULT_SUITE_TRIALS = {
    "torus-relation": 1,
    "p2-relations": 6,
    "p3-relations": 15,
    "swap-table-consistency": 22,
    "unit-law": 800,
    "associativity": 800,
    "subalgebra-embedding": 400,
    "oracle-equivalence": 392250,
    "confluence": 2000,
    "p2-formula-vs-relations-discrepancy": 6562,
    "q1-degeneration": 600,
    "delta-homomorphism": 200,
    "delta-id-homomorphism": 200,
    "id-delta-homomorphism": 200,
    "antipode-homomorphism": 200,
    "circle-delta-homomorphism": 200,
    "coassociativity": 249,
    "counit-laws": 249,
    "antipode-law": 249,
    "counit-non-homomorphism": 1,
    "mu-represents-multiplication": 625,
    "derived-rules-oracle": 1361,
}


def _report(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    # written to the real stdout so the line shows without pytest -s
    print(f"ACCEPTANCE {num:02d} {name}: {status}", file=sys.__stdout__)
    assert not failures, f"criterion {num} ({name}): {failures[:3]}"


def _numeric_gap(lhs, rhs, theta: float) -> float:
    lv, rv = lhs.eval_numeric(theta), rhs.eval_numeric(theta)
    return max(
        (abs(lv.get(idx, 0j) - rv.get(idx, 0j)) for idx in lv.keys() | rv.keys()),
        default=0.0,
    )


def test_criterion_1_relation_suites():
    failures = []
    reports = run_suite(
        TrialConfig(seed=SEED), ["torus-relation", "p2-relations", "p3-relations"]
    )
    counts = {r.name: r.trials for r in reports}
    if counts != {"torus-relation": 1, "p2-relations": 6, "p3-relations": 15}:
        failures.append(f"unexpected relation counts {counts}")
    failures += [f for r in reports for f in r.failures]
    # the same rows once more, directly as exact element equalities
    for algebra in (TORUS, P2, P3):
        names = algebra.generator_names
        for i, j, e in RELATION_ROWS[algebra.name]:
            gi, gj = algebra.generator(names[i]), algebra.generator(names[j])
            if gi * gj != phase_pow(e) * (gj * gi):
                failures.append(f"{algebra.name}: relation ({names[i]}, {names[j]}) broken")
    _report(1, "generator relation suites (1 + 6 + 15, exact)", failures)


@pytest.fixture(scope="session")
def default_check():
    """Exit code, stdout and wall time of ``qtorus check --seed SEED --format json``;
    each check draws from its own (seed, name) stream, so its report is as if run alone."""
    start = time.perf_counter()
    code, out, _ = _run_main(["check", "--seed", str(SEED), "--format", "json"])
    return code, out, time.perf_counter() - start


def test_criterion_2_oracle_equivalence(default_check):
    _, out, elapsed = default_check
    report, = (r for r in json.loads(out) if r["name"] == "oracle-equivalence")
    failures = list(report["failures"])
    expected_minimum = 5**2 * 5**2 + 5**4 * 5**4 + 1000
    if report["trials"] < expected_minimum:
        failures.append(f"only {report['trials']} pairs checked, need {expected_minimum}")
    # the budget is for oracle-equivalence; here it bounds the whole default pass
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, budget is 60s")
    _report(2, f"product vs rewriting oracle ({report['trials']} pairs, pass {elapsed:.1f}s)", failures)


def test_criterion_3_formula_discrepancy_exhibit():
    failures = []
    u2, v2 = (0, 0, 1, 0), (0, 0, 0, 1)
    # the variant exponent (final cross term -m1*n2 in q-units) yields q^-1 on
    # (U2, V2); the relations demand coefficient 1
    variant = phase_pow(P2_FORMULA_VARIANT.phase_exponent(u2, v2))
    if variant != phase_pow(-2):
        failures.append(f"variant coefficient is {variant.render()}, expected q^(-1)")
    e, idx = normal_order_exponent(P2, [(2, 1), (3, 1)])
    relations = phase_pow(e)
    if (relations, idx) != (ONE, (0, 0, 1, 1)):
        failures.append(f"relations give {relations.render()} at {idx}, expected 1 at (0,0,1,1)")
    if variant == relations:
        failures.append("variant formula does not disagree with the relations")
    if P2.generator("U2") * P2.generator("V2") != P2.basis((0, 0, 1, 1)):
        failures.append("implemented product disagrees with the relations on (U2, V2)")
    # with the corrected cross term -m2*n1 the cocycle matches the rewriting
    # oracle (exhaustively re-verified at full range by criterion 2)
    report = run_suite(TrialConfig(seed=SEED), ["p2-formula-vs-relations-discrepancy"])[0]
    failures += list(report.failures)
    _report(3, "formula-vs-relations discrepancy on (U2, V2)", failures)


def test_criterion_4_homomorphism_suite():
    checks = [
        "delta-homomorphism",
        "delta-id-homomorphism",
        "id-delta-homomorphism",
        "antipode-homomorphism",
        "circle-delta-homomorphism",
    ]
    reports = run_suite(TrialConfig(seed=SEED, trials=200), checks)
    failures = [f for r in reports for f in r.failures]
    for r in reports:
        if r.trials < 200:
            failures.append(f"{r.name}: only {r.trials} trials")
    _report(4, "algebra homomorphism suite (>=200 pairs each)", failures)


def test_criterion_5_coassociativity():
    failures = []
    for k, l in itertools.product(range(-3, 4), repeat=2):
        x = TORUS.basis((k, l))
        left = lift_left_comult(comult(x))
        right = lift_right_comult(comult(x))
        closed = phase_pow(-2 * k * l) * P3.basis((k, l, k, l, k, l))
        if not (left == right == closed):
            failures.append(f"basis ({k},{l})")
    rng = random.Random(SEED)
    cfg = TrialConfig(seed=SEED, trials=200)
    for _ in range(200):
        x = random_element(TORUS, cfg, rng)
        if lift_left_comult(comult(x)) != lift_right_comult(comult(x)):
            failures.append(f"random element {x.render()}")
    _report(5, "coassociativity (basis box and 200 random elements)", failures)


def test_criterion_6_counit_laws():
    failures = []
    inputs = [TORUS.basis(idx) for idx in itertools.product(range(-3, 4), repeat=2)]
    rng = random.Random(SEED)
    cfg = TrialConfig(seed=SEED, trials=200)
    inputs += [random_element(TORUS, cfg, rng) for _ in range(200)]
    for x in inputs:
        if lift_left_counit(comult(x)) != x or lift_right_counit(comult(x)) != x:
            failures.append(f"x = {x.render()}")
    _report(6, "counit laws (both sides equal the identity)", failures)


def test_criterion_7_antipode_law():
    failures = []
    one = TORUS.unit()
    for k, l in itertools.product(range(-3, 4), repeat=2):
        x = TORUS.basis((k, l))
        # intermediate chain: coefficient q^(-kl/2) entering the collapse,
        # q^(-kl/2) * q^(kl) = q^(kl/2) coming out
        mid = lift_left_antipode(comult(x))
        if mid != phase_pow(-k * l) * P2.basis((-k, -l, k, l)):
            failures.append(f"intermediate value wrong on ({k},{l})")
        out = mult_map(mid)
        if out != phase_pow(-k * l) * phase_pow(2 * k * l) * one:
            failures.append(f"collapse phase wrong on ({k},{l})")
        if out != counit(x) * one:
            failures.append(f"left antipode law fails on ({k},{l})")
        if mult_map(lift_right_antipode(comult(x))) != counit(x) * one:
            failures.append(f"right antipode law fails on ({k},{l})")
    rng = random.Random(SEED)
    cfg = TrialConfig(seed=SEED, trials=200)
    for _ in range(200):
        x = random_element(TORUS, cfg, rng)
        target = counit(x) * one
        if mult_map(lift_left_antipode(comult(x))) != target:
            failures.append(f"left law fails on {x.render()}")
        if mult_map(lift_right_antipode(comult(x))) != target:
            failures.append(f"right law fails on {x.render()}")
    _report(7, "antipode law (collapse of either one-sided inversion)", failures)


def test_criterion_8_counit_non_homomorphism_witness():
    failures = []
    u, v = TORUS.generator("U"), TORUS.generator("V")
    lhs, rhs = counit(u * v), counit(u) * counit(v)
    if lhs != phase_pow(1):
        failures.append(f"eps(U V) = {lhs.render()}, expected q^(1/2)")
    if rhs != ONE:
        failures.append(f"eps(U) eps(V) = {rhs.render()}, expected 1")
    if lhs == rhs:
        failures.append("canonical forms unexpectedly coincide")
    _report(8, "counit non-homomorphism witness", failures)


def test_criterion_9_numeric_mode():
    failures = []
    # criterion-1 identities numerically
    for algebra in (TORUS, P2, P3):
        names = algebra.generator_names
        for i, j, e in RELATION_ROWS[algebra.name]:
            gi, gj = algebra.generator(names[i]), algebra.generator(names[j])
            lhs, rhs = gi * gj, phase_pow(e) * (gj * gi)
            for theta in THETA_PROBES:
                if _numeric_gap(lhs, rhs, theta) > NUMERIC_TOL:
                    failures.append(f"{algebra.name} relation ({i},{j}) at theta={theta}")
    # criterion 5-7 identities numerically, on the basis box and random elements
    rng = random.Random(SEED)
    cfg = TrialConfig(seed=SEED, trials=50)
    inputs = [TORUS.basis(idx) for idx in itertools.product(range(-3, 4), repeat=2)]
    inputs += [random_element(TORUS, cfg, rng) for _ in range(50)]
    one = TORUS.unit()
    for x in inputs:
        pairs = [
            (lift_left_comult(comult(x)), lift_right_comult(comult(x))),
            (lift_left_counit(comult(x)), x),
            (lift_right_counit(comult(x)), x),
            (mult_map(lift_left_antipode(comult(x))), counit(x) * one),
            (mult_map(lift_right_antipode(comult(x))), counit(x) * one),
        ]
        for n, (lhs, rhs) in enumerate(pairs):
            for theta in THETA_PROBES:
                if _numeric_gap(lhs, rhs, theta) > NUMERIC_TOL:
                    failures.append(f"identity {n} on {x.render()} at theta={theta}")
    # q = 1: the deformed square degenerates to a commutative product
    for _ in range(100):
        x = random_element(P2, cfg, rng)
        y = random_element(P2, cfg, rng)
        if _numeric_gap(x * y, y * x, 0.0) > NUMERIC_TOL:
            failures.append(f"p2 product not commutative at theta=0: {x.render()}")
    _report(9, "numeric mode at theta in {0, 1/3, 0.1375} (tol 1e-10)", failures)


def test_criterion_10_cli_conformance(default_check):
    failures = []
    code, out, _ = _run_main(["normalize", "--algebra", "torus", "V U"])
    if code != 0 or out != "q^(-1) * U V\n":
        failures.append(f"normalize printed {out!r} (exit {code})")
    code, out, _ = _run_main(["apply", "--map", "delta", "U"])
    if code != 0 or out != "U1 U2\n":
        failures.append(f"apply printed {out!r} (exit {code})")
    code, out, _ = default_check
    if code != 0:
        failures.append(f"full default check suite exited {code}")
    else:
        records = json.loads(out)
        bad = [r["name"] for r in records if r["status"] != "pass"]
        if bad:
            failures.append(f"failing checks: {bad}")
        trials = {r["name"]: r["trials"] for r in records}
        if trials != DEFAULT_SUITE_TRIALS:
            failures.append(f"trial counts {trials} differ from {DEFAULT_SUITE_TRIALS}")
        if out != GOLDEN_CHECK_JSON.read_text():
            failures.append(f"check JSON differs from {GOLDEN_CHECK_JSON.name}")
    rng = random.Random(SEED)
    cfg = TrialConfig(seed=SEED)
    for algebra in ALGEBRAS.values():
        for _ in range(125):
            x = random_element(algebra, cfg, rng)
            if parse_expression(algebra, x.render()) != x:
                failures.append(f"round trip failed on {x.render()}")
    _report(10, "CLI conformance and 500-element round trip", failures)
