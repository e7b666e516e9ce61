"""The numeric probes of ``oracle-equivalence`` run on every 97th pair.

A defect planted in numeric evaluation alone leaves every exact product
right, so only the probes can see it.  The check's stream is read for its
first 97 outcomes, not run in full.
"""

import itertools
import random

from qtorus import suite
from qtorus.algebra import AlgebraElement
from qtorus.suite import TrialConfig


def test_probes_catch_a_defect_in_numeric_evaluation_only(monkeypatch):
    evaluate = AlgebraElement.eval_numeric

    def off_on_indexed_elements(self, theta):
        # right for scalars, a quarter off for elements of the torus and its powers
        values = evaluate(self, theta)
        return {a: v + 0.25 for a, v in values.items()} if self.algebra.d else values

    monkeypatch.setattr(AlgebraElement, "eval_numeric", off_on_indexed_elements)
    stream = suite._oracle_equivalence(TrialConfig(seed=7), random.Random(7))
    outcomes = list(itertools.islice(stream, 97))
    assert outcomes[:96] == [None] * 96
    assert outcomes[96] is not None and "numeric gap 2.500e-01" in outcomes[96]


def test_probed_pairs_pass_without_a_defect():
    stream = suite._oracle_equivalence(TrialConfig(seed=7), random.Random(7))
    assert list(itertools.islice(stream, 97)) == [None] * 97
