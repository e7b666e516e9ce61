"""Planted defects: the checks that run on the suite's shared loops must catch them.

Each defect is planted for one test and undone by ``monkeypatch`` afterwards.
The sixteen checks run at 20 trials, seed 7; ``oracle-equivalence`` is left
out to keep the test fast.
"""

import pytest

from qtorus import algebra as algebra_module
from qtorus.algebra import AlgebraDescriptor
from qtorus.maps import comult
from qtorus.rewrite import RELATION_ROWS
from qtorus.suite import TrialConfig, run_suite

CFG = TrialConfig(seed=7, trials=20)
RELATION_CHECKS = ("torus-relation", "p2-relations", "p3-relations", "swap-table-consistency")
HOMOMORPHISM_CHECKS = (
    "delta-homomorphism",
    "delta-id-homomorphism",
    "id-delta-homomorphism",
    "antipode-homomorphism",
    "circle-delta-homomorphism",
)
SHARED_LOOP_CHECKS = (
    *RELATION_CHECKS,
    "unit-law",
    "associativity",
    "subalgebra-embedding",
    "q1-degeneration",
    *HOMOMORPHISM_CHECKS,
    "coassociativity",
    "counit-laws",
    "antipode-law",
)


def _failing() -> set[str]:
    return {r.name for r in run_suite(CFG, SHARED_LOOP_CHECKS) if r.failures}


def _extra_phase(term):
    def plant(monkeypatch):
        form = AlgebraDescriptor.phase_exponent
        monkeypatch.setattr(
            AlgebraDescriptor, "phase_exponent", lambda self, a, b: form(self, a, b) + term(a, b)
        )

    return plant


def _comult_phase(monkeypatch):
    # LinearMap is a frozen dataclass, so the field is replaced in its __dict__
    monkeypatch.setitem(comult.__dict__, "phase", ((0, 1, 1),))


def _relation_rows(monkeypatch):
    # the first row of each algebra claims one more power of q
    for name in ("torus", "p2", "p3"):
        (i, j, e), *rest = RELATION_ROWS[name]
        monkeypatch.setitem(RELATION_ROWS, name, ((i, j, e + 2), *rest))


def _product_index(monkeypatch):
    # delta^a * delta^b lands on a + 2b: wrong even at q = 1, where every phase is 1
    monkeypatch.setattr(algebra_module, "add", lambda u, v: u + 2 * v)


DEFECTS = {
    "phase-plus-2-sum-a": (
        _extra_phase(lambda a, b: 2 * sum(a)),
        ("unit-law", "associativity", *HOMOMORPHISM_CHECKS),
    ),
    "phase-cubic-term": (
        _extra_phase(lambda a, b: a[0] * a[0] * b[0]),
        ("subalgebra-embedding",),
    ),
    "comult-phase-sign": (
        _comult_phase,
        ("delta-homomorphism", "coassociativity", "counit-laws", "antipode-law"),
    ),
    "relation-row-exponent": (_relation_rows, RELATION_CHECKS),
    "product-index": (_product_index, ("q1-degeneration",)),
}


def test_shared_loop_checks_pass_without_a_defect():
    assert _failing() == set()


@pytest.mark.parametrize("defect", DEFECTS)
def test_planted_defect_fails_the_named_checks(monkeypatch, defect):
    plant, expected = DEFECTS[defect]
    plant(monkeypatch)
    missed = set(expected) - _failing()
    assert not missed, f"{defect} not caught by {sorted(missed)}"


def test_every_shared_loop_check_catches_a_planted_defect():
    caught = {name for _, expected in DEFECTS.values() for name in expected}
    assert caught == set(SHARED_LOOP_CHECKS)
