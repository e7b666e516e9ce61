"""Harness mechanics: determinism, coverage, reports, the random generator."""

import random

import pytest

from qtorus import suite
from qtorus.algebra import ALGEBRAS, CIRCLE, P2, P3, TORUS
from qtorus.phases import PhaseScalar
from qtorus.suite import (
    CHECKS,
    COEFF_POOL,
    DEFAULT_SELECTION,
    PROPERTY_COVERAGE,
    CheckReport,
    TrialConfig,
    random_element,
    render_reports_text,
    reports_to_records,
    run_suite,
)

FAST_SELECTION = (
    "torus-relation",
    "p2-relations",
    "p3-relations",
    "swap-table-consistency",
    "counit-laws",
    "antipode-law",
    "counit-non-homomorphism",
    "p2-formula-vs-relations-discrepancy",
)


def test_trial_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(trials=0)
    with pytest.raises(ValueError):
        TrialConfig(exponent_bound=0)
    with pytest.raises(ValueError):
        TrialConfig(max_support=0)


def test_coefficient_pool_is_small_and_nonzero():
    assert all(c for c in COEFF_POOL)
    for c in COEFF_POOL:
        for part in (c.re, c.im):
            assert -3 <= part.numerator <= 3 or abs(part.numerator) <= 3
            assert 1 <= part.denominator <= 3


def test_random_element_determinism():
    cfg = TrialConfig(seed=99)
    for algebra in ALGEBRAS.values():
        assert random_element(algebra, cfg) == random_element(algebra, cfg)


def test_random_element_contracts():
    cfg = TrialConfig(seed=4, max_support=1, exponent_bound=2)
    x = random_element(P2, cfg)
    assert len(x.support) == 1
    cfg = TrialConfig(seed=12, max_support=4, exponent_bound=3)
    for seed in range(20):
        x = random_element(TORUS, TrialConfig(seed=seed))
        assert 1 <= len(x.support) <= 4
        for idx in x.support:
            assert all(-3 <= k <= 3 for k in idx)
        for coeff in x.support.values():
            assert all(-4 <= e <= 4 for e in coeff.terms)


def test_random_element_drops_a_sum_that_cancels():
    # up to 50 draws on the 27 keys of [-1, 1] x s^[-4, 4]: at this seed the sum
    # at one key cancels, and no later draw lands on that key
    x = random_element(CIRCLE, TrialConfig(seed=26, max_support=50, exponent_bound=1))
    rng, replay = random.Random(26), CIRCLE.zero()
    for _ in range(rng.randint(1, 50)):
        idx, e = (rng.randint(-1, 1),), rng.randint(-4, 4)
        replay = replay + PhaseScalar({e: rng.choice(COEFF_POOL)}) * CIRCLE.basis(idx)
    assert x == replay
    assert all(x.flat.values())


@pytest.mark.parametrize("seed", [3, 26, 20260809])
@pytest.mark.parametrize("algebra", [TORUS, P2, P3], ids=lambda a: a.name)
def test_random_element_replays_with_randint(algebra, seed):
    # the draws of each term, index then s-exponent then coefficient, made by randint
    # and choice from the same generator, give equal elements in the same flat order
    cfg = TrialConfig(seed=seed)
    rng, replay_rng = random.Random(seed), random.Random(seed)
    for _ in range(20):
        x = random_element(algebra, cfg, rng)
        replay = algebra.zero()
        while not replay:
            for _ in range(replay_rng.randint(1, cfg.max_support)):
                idx = tuple(replay_rng.randint(-3, 3) for _ in range(algebra.d))
                e = replay_rng.randint(-4, 4)
                term = PhaseScalar({e: replay_rng.choice(COEFF_POOL)}) * algebra.basis(idx)
                replay = replay + term
        assert x == replay and list(x.flat.items()) == list(replay.flat.items())
    assert rng.getstate() == replay_rng.getstate()


def test_run_suite_determinism():
    cfg = TrialConfig(seed=123, trials=20)
    first = run_suite(cfg, FAST_SELECTION)
    second = run_suite(cfg, FAST_SELECTION)
    assert render_reports_text(first) == render_reports_text(second)
    assert reports_to_records(first) == reports_to_records(second)


def test_check_reports_do_not_depend_on_selection_context():
    cfg = TrialConfig(seed=5, trials=10)
    alone = run_suite(cfg, ["counit-laws"])[0]
    together = {r.name: r for r in run_suite(cfg, FAST_SELECTION)}["counit-laws"]
    assert alone == together


def test_unknown_check_name_rejected():
    with pytest.raises(ValueError, match="unknown check name"):
        run_suite(TrialConfig(), ["torus-relation", "no-such-check"])


def test_default_selection_order_is_pinned():
    assert DEFAULT_SELECTION == (
        "torus-relation",
        "p2-relations",
        "p3-relations",
        "swap-table-consistency",
        "unit-law",
        "associativity",
        "subalgebra-embedding",
        "oracle-equivalence",
        "confluence",
        "p2-formula-vs-relations-discrepancy",
        "q1-degeneration",
        "delta-homomorphism",
        "delta-id-homomorphism",
        "id-delta-homomorphism",
        "antipode-homomorphism",
        "circle-delta-homomorphism",
        "coassociativity",
        "counit-laws",
        "antipode-law",
        "counit-non-homomorphism",
        "mu-represents-multiplication",
        "derived-rules-oracle",
    )


def test_default_selection_is_complete():
    assert DEFAULT_SELECTION == tuple(CHECKS)
    for prop, names in PROPERTY_COVERAGE.items():
        for name in names:
            assert name in CHECKS, f"{prop} points at unregistered check {name}"
            assert name in DEFAULT_SELECTION
    covered = {name for names in PROPERTY_COVERAGE.values() for name in names}
    # every registered check certifies at least one named property
    assert covered == set(CHECKS)


def test_fast_selection_passes():
    reports = run_suite(TrialConfig(seed=0, trials=25), FAST_SELECTION)
    assert all(r.status == "pass" for r in reports)
    for r in reports:
        assert r.trials >= 1
        assert r.failures == ()


def test_report_mechanics():
    good = CheckReport("demo", ("torus",), 3, ())
    bad = CheckReport("demo", ("torus",), 3, ("x != y",))
    assert good.status == "pass" and bad.status == "fail"
    assert good.text_line() == "PASS demo (trials=3)"
    assert bad.text_line() == "FAIL demo (trials=3): x != y"
    assert bad.to_record()["status"] == "fail"
    assert bad.to_record()["failures"] == ["x != y"]


def test_discrepancy_check_confirms_the_mismatch():
    report = run_suite(TrialConfig(seed=1, trials=5), ["p2-formula-vs-relations-discrepancy"])[0]
    assert report.status == "pass"
    assert report.trials > 6000  # includes the exhaustive small box


def test_discrepancy_check_makes_one_row_pass_per_left_index(monkeypatch):
    calls = {"rows": 0, "exponent": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(suite, "normal_order_rows", counted("rows", suite.normal_order_rows))
    monkeypatch.setattr(suite, "normal_order_exponent",
                        counted("exponent", suite.normal_order_exponent))
    report = run_suite(TrialConfig(seed=1, trials=5), ["p2-formula-vs-relations-discrepancy"])[0]
    assert report.status == "pass" and report.trials == 1 + 81 * 81
    # one pass per left index of [-1,1]^4, and the single (U2, V2) witness word
    assert calls == {"rows": 81, "exponent": 1}
