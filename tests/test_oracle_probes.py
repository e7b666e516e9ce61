"""The numeric probes of ``oracle-equivalence`` run on every 97th pair.

A defect planted in numeric evaluation alone leaves every exact product
right, so only the probes can see it.  The check's stream is read for its
first 97 or 300 outcomes, not run in full.  Under a phase defect the first
300 outcomes (three probed pairs among them) are pinned by their sha256, which
fixes every failure string and its position; under that defect and the
numeric one together, the first 16,250 are, which fixes where the probes fall
among failing pairs.
"""

import hashlib
import itertools
import json
import random

from qtorus import suite
from qtorus.algebra import AlgebraElement
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
