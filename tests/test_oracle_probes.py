"""The numeric probes of ``oracle-equivalence`` run on every 97th pair.

A defect planted in numeric evaluation alone leaves every exact product
right, so only the probes can see it.  The check's stream is read for its
first 97 or 300 outcomes, not run in full.  Under a phase defect the first
300 outcomes (three probed pairs among them) are pinned by their sha256, which
fixes every failure string and its position; under that defect and the
numeric one together, the first 16,250 are, which fixes where the probes fall
among failing pairs.  The stream, which checks the boxes one row at a time,
is also compared with a per-pair reference written out here, and defects
planted in one product path only show which path each part of it runs.
"""

import hashlib
import itertools
import json
import random

import pytest

from qtorus import suite
from qtorus.algebra import P2, TORUS, AlgebraElement
from qtorus.phases import phase_pow
from qtorus.rewrite import normal_order_exponent
from qtorus.suite import TrialConfig
from test_planted_defects import DEFECTS


def _outcomes(count):
    stream = suite._oracle_equivalence(TrialConfig(seed=7), random.Random(7))
    return list(itertools.islice(stream, count))


def _plant_numeric_defect(monkeypatch):
    evaluate = AlgebraElement.eval_numeric

    def off_on_indexed_elements(self, theta):
        # right for scalars, a quarter off for elements of the torus and its powers
        values = evaluate(self, theta)
        return {a: v + 0.25 for a, v in values.items()} if self.algebra.d else values

    monkeypatch.setattr(AlgebraElement, "eval_numeric", off_on_indexed_elements)


# the planted phase defect phi(a, b) + 2*sum(a), set on every product kernel
_plant_phase_defect = DEFECTS["phase-plus-2-sum-a"][0]


def test_probes_catch_a_defect_in_numeric_evaluation_only(monkeypatch):
    _plant_numeric_defect(monkeypatch)
    outcomes = _outcomes(300)
    assert [(i, o) for i, o in enumerate(outcomes) if o] == [
        (96, "torus (-2, 1)x(2, -1): numeric gap 2.500e-01 at theta=0.0"),
        (193, "torus (-1, 0)x(1, 1): numeric gap 2.500e-01 at theta=0.0"),
        (290, "torus (0, -1)x(1, -2): numeric gap 2.500e-01 at theta=0.0"),
    ]


def test_probed_pairs_pass_without_a_defect():
    assert _outcomes(97) == [None] * 97


def test_oracle_stream_under_a_phase_defect_is_pinned(monkeypatch):
    _plant_phase_defect(monkeypatch)
    outcomes = _outcomes(300)
    # the pairs with sum(a) == 0 pass: a = (-2, 2), then (-1, 1) against all 25 b
    assert [i for i, o in enumerate(outcomes) if o is None] == [
        *range(100, 125), *range(200, 225)
    ]
    assert outcomes[0] == (
        "torus (-2, -2)x(-2, -2): product q^(-8) * U^-4 V^-4 vs rewriting s^-8 delta^(-4, -4)"
    )
    assert outcomes[96] == "torus (-2, 1)x(2, -1): product q^(-3) vs rewriting s^-4 delta^(0, 0)"
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == "3037fafda53d6ecf7104315f2f4dedd912d3ed51bed6eaa4d1f4cc7088330608"


def test_failing_pairs_use_up_their_probes(monkeypatch):
    # With both defects, only a probed pair that passes exactly shows the
    # numeric gap.  Every pair takes one step of the probe schedule, failing
    # ones too, so these stay at positions 96 mod 97: the first all-passing
    # block is p2 a = (-2, -2, 2, 2), outcomes 15625 to 16249.
    _plant_phase_defect(monkeypatch)
    _plant_numeric_defect(monkeypatch)
    outcomes = _outcomes(16250)
    numeric = [i for i, o in enumerate(outcomes) if o and "numeric gap" in o]
    assert numeric == [97 * k - 1 for k in range(162, 168)]
    assert outcomes[15713] == (
        "p2 (-2, -2, 2, 2)x(-2, 1, 0, 1): numeric gap 2.500e-01 at theta=0.0"
    )
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == "625b1d22ba279655e7d4de5063090ebb758d858bfe26aa9468fd5eefd0e3be23"


def _per_pair_reference():
    """The torus and p2 boxes checked pair by pair, written out apart from the
    suite: one product and one normal ordering per pair, every 97th pair
    probed."""
    probes = itertools.cycle([False] * 96 + [True])
    for algebra in (TORUS, P2):
        box = list(itertools.product(range(-2, 3), repeat=algebra.d))
        for a, b in itertools.product(box, box):
            prod = algebra.basis(a) * algebra.basis(b)
            seq = [(p, k) for x in (a, b) for p, k in enumerate(x) if k]
            exponent, idx = normal_order_exponent(algebra, seq)
            probed = next(probes)
            label = f"{algebra.name} {a}x{b}: "
            if prod.flat != {(idx, exponent): 1}:
                if len(prod.support) != 1:
                    yield label + "product is not a monomial"
                else:
                    yield label + f"product {prod.render()} vs rewriting s^{exponent} delta^{idx}"
                continue
            for theta in suite.THETA_PROBES if probed else ():
                gap = abs(prod.eval_numeric(theta)[idx] - phase_pow(exponent).eval_numeric(theta))
                if gap > suite.NUMERIC_TOL:
                    yield label + f"numeric gap {gap:.3e} at theta={theta}"
                    break
            else:
                yield None


@pytest.mark.parametrize("plant", ["none", "phase-plus-2-sum-a", "product-index", "numeric"])
def test_row_stream_equals_the_per_pair_reference(monkeypatch, plant):
    # 20,000 outcomes: the torus box and the first 31 rows of the p2 box
    if plant == "numeric":
        _plant_numeric_defect(monkeypatch)
    elif plant != "none":
        DEFECTS[plant][0](monkeypatch)
    assert _outcomes(20000) == list(itertools.islice(_per_pair_reference(), 20000))


def _plant_on_products(monkeypatch, one_term, defect=lambda prod: prod.scale(phase_pow(1))):
    """``defect`` (by default an extra s) on every element product whose factors
    are both one-term (``one_term``) or not both one-term (otherwise)."""
    multiply = AlgebraElement.__mul__

    def defective(self, other):
        prod = multiply(self, other)
        if isinstance(other, AlgebraElement) and one_term == (
            len(self.flat) == 1 == len(other.flat)
        ):
            return defect(prod)
        return prod

    monkeypatch.setattr(AlgebraElement, "__mul__", defective)


def test_a_defect_in_one_term_products_only_fails_at_the_probes_and_on_p3(monkeypatch):
    # The box rows multiply by a sum, so only each probed pair's own product
    # and the p3 pairs, checked one by one, reach the defect.
    _plant_on_products(monkeypatch, one_term=True)
    outcomes = list(suite._oracle_equivalence(TrialConfig(seed=7), random.Random(7)))
    box = 25 * 25 + 625 * 625
    failing = [i for i, o in enumerate(outcomes) if o]
    assert failing == [i for i in range(box) if i % 97 == 96] + list(range(box, box + 1000))
    assert len(failing) == 5033
    assert outcomes[96] == (
        "torus (-2, 1)x(2, -1): product q^(-3/2) vs rewriting s^-4 delta^(0, 0)"
    )


def test_a_defect_in_multi_term_products_only_fails_each_row(monkeypatch):
    # every pair agrees on its own, so each row's last outcome names the row
    _plant_on_products(monkeypatch, one_term=False)
    outcomes = _outcomes(50)
    assert [i for i, o in enumerate(outcomes) if o] == [24, 49]
    assert outcomes[24] == (
        "torus (-2, -2)x[-2,2]^2: every pair agrees, but the product by their sum does not"
    )


@pytest.mark.parametrize("defect, failing", [
    # every key in its place, so only the coefficients differ
    (lambda prod: prod.scale(2), [24, 49]),
    # the right terms in the reverse order: the dict comparison passes them
    (lambda prod: AlgebraElement._raw(prod.algebra, dict(reversed(prod.flat.items()))), []),
], ids=["doubled-coefficients", "reversed-terms"])
def test_a_row_compares_the_coefficients_and_not_the_term_order(monkeypatch, defect, failing):
    _plant_on_products(monkeypatch, one_term=False, defect=defect)
    outcomes = _outcomes(50)
    assert [i for i, o in enumerate(outcomes) if o] == failing
