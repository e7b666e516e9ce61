"""Planted defects: every check other than ``oracle-equivalence`` must catch one.

Each defect is planted for one test and undone by ``monkeypatch`` afterwards.
The 21 checks run at 20 trials, seed 7; ``oracle-equivalence`` is left out to
keep the test fast.  Each run is pinned twice: by the exact set of checks that
fail, and by the sha256 of its JSON records, which fixes every failure string
and its order.  After a deliberate change of a report, recompute a digest with
``hashlib.sha256(json.dumps(reports_to_records(reports)).encode()).hexdigest()``.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from qtorus import suite
from qtorus.algebra import ALGEBRAS, POINT
from qtorus.maps import MAPS, comult, counit, mult_map
from qtorus.rewrite import RELATION_ROWS, swap_exponent
from qtorus.suite import CHECKS, P2_FORMULA_VARIANT, TrialConfig, reports_to_records, run_suite

CFG = TrialConfig(seed=7, trials=20)
RELATION_CHECKS = ("torus-relation", "p2-relations", "p3-relations", "swap-table-consistency")
HOMOMORPHISM_CHECKS = (
    "delta-homomorphism",
    "delta-id-homomorphism",
    "id-delta-homomorphism",
    "antipode-homomorphism",
    "circle-delta-homomorphism",
)
CHECKED = tuple(name for name in CHECKS if name != "oracle-equivalence")
DESCRIPTORS = (POINT, *ALGEBRAS.values(), P2_FORMULA_VARIANT)


def _failing_and_digest() -> tuple[set[str], str]:
    reports = run_suite(CFG, CHECKED)
    text = json.dumps(reports_to_records(reports))
    return {r.name for r in reports if r.failures}, hashlib.sha256(text.encode()).hexdigest()


def _row_of(kernel):
    """The row function of the pair kernel ``kernel``: one call per right key."""
    def row(a, e, keys):
        return [(ab, e + f + g) for b, f in keys for ab, g in [kernel(a, b)]]

    return row


def _plant_kernels(monkeypatch, defective):
    """Give every descriptor the product kernel ``defective(kernel)`` made from its
    own, and the row function made from that kernel."""
    for algebra in DESCRIPTORS:
        kernel = defective(algebra._kernel)
        monkeypatch.setitem(algebra.__dict__, "_kernel", kernel)
        monkeypatch.setitem(algebra.__dict__, "_row", _row_of(kernel))


def _extra_phase(term):
    def with_term(kernel):
        def defective(a, b):
            ab, g = kernel(a, b)
            return ab, g + term(a, b)

        return defective

    return lambda monkeypatch: _plant_kernels(monkeypatch, with_term)


def _map_phase(fmap, phase):
    def plant(monkeypatch):
        # the image kernel built from the defective phase replaces the map's own
        monkeypatch.setitem(fmap.__dict__, "image", replace(fmap, phase=phase).image)

    return plant


def _relation_rows(monkeypatch):
    # the first row of each algebra claims one more power of q
    for name in ("torus", "p2", "p3"):
        (i, j, e), *rest = RELATION_ROWS[name]
        monkeypatch.setitem(RELATION_ROWS, name, ((i, j, e + 2), *rest))


def _product_index(monkeypatch):
    # delta^a * delta^b lands on a + 2b: wrong even at q = 1, where every phase is 1
    def with_index(kernel):
        return lambda a, b: (tuple(u + 2 * v for u, v in zip(a, b)), kernel(a, b)[1])

    _plant_kernels(monkeypatch, with_index)


def _swapped_arguments(monkeypatch):
    # confluence tracks g_b g_a -> g_a g_b with the phase of the opposite swap
    monkeypatch.setattr(suite, "swap_exponent", lambda alg, a, b: swap_exponent(alg, b, a))


NO_DEFECT_DIGEST = "d8069809461441b1564fd2e568c3848d16737a60443d0bbf110c2df5af408c27"

# name: (plant, every check that fails, digest of the 21 JSON records)
DEFECTS = {
    "phase-plus-2-sum-a": (
        _extra_phase(lambda a, b: 2 * sum(a)),
        (
            "unit-law",
            "associativity",
            *HOMOMORPHISM_CHECKS,
            "p2-formula-vs-relations-discrepancy",
            "counit-non-homomorphism",
        ),
        "81223e2bac25783c6db9e8e162553c06e9674605be3eaf2f1e85c8a3754791eb",
    ),
    "phase-cubic-term": (
        _extra_phase(lambda a, b: a[0] * a[0] * b[0]),
        (
            "associativity",
            "subalgebra-embedding",
            "p2-formula-vs-relations-discrepancy",
            "antipode-homomorphism",
            "mu-represents-multiplication",
        ),
        "ec477148372ff5be8b5a1f873aaff9d3aa0675e5bccc8aad95a945e16b3fd380",
    ),
    "comult-phase-sign": (
        _map_phase(comult, ((0, 1, 1),)),
        (
            "delta-homomorphism",
            "coassociativity",
            "counit-laws",
            "antipode-law",
            "derived-rules-oracle",
        ),
        "293e321c4cdd5b41c9b1b5b9ef4658ad680d14c3e8340ec01e76a4488432ad4b",
    ),
    "mu-phase-sign": (
        _map_phase(mult_map, ((1, 2, 2),)),
        ("antipode-law", "mu-represents-multiplication"),
        "2accdd6f2fb03f10f37f730ab82bcf17594df6ea0ad23ba02fa21a25d2014328",
    ),
    "counit-no-phase": (
        _map_phase(counit, ()),
        ("antipode-law", "counit-non-homomorphism"),
        "c615f4e6a4e566d03388b2ea17ea5e42aea7738d12bbe455705505753d12d428",
    ),
    "relation-row-exponent": (
        _relation_rows,
        # the rewriting oracle reads the planted rows too; confluence does not see
        # them, because both of its sides read the same rows
        (*RELATION_CHECKS, "derived-rules-oracle", "p2-formula-vs-relations-discrepancy"),
        "2ae25a2eaa94a9c2fd55cea55d15bb9dc8c432e72b36f7f84068198e8bcc2e26",
    ),
    "product-index": (
        _product_index,
        (
            *RELATION_CHECKS,
            "unit-law",
            "associativity",
            "q1-degeneration",
            *(name for name in HOMOMORPHISM_CHECKS if name != "antipode-homomorphism"),
            "counit-non-homomorphism",
            "mu-represents-multiplication",
        ),
        "73792199d9f4fe00312020734f9ebd0ef62fecb771c6155d58b7978d55185999",
    ),
    "swapped-swap-arguments": (
        _swapped_arguments,
        ("confluence",),
        "a3b0c84faf24eb3211f452b1629059ae168e5b5fb2cc3634d21c333ef9458f53",
    ),
}


def test_shared_loop_checks_pass_without_a_defect():
    failing, digest = _failing_and_digest()
    assert failing == set()
    assert digest == NO_DEFECT_DIGEST


@pytest.mark.parametrize("defect", DEFECTS)
def test_planted_defect_fails_the_named_checks(monkeypatch, defect):
    plant, expected, pinned = DEFECTS[defect]
    plant(monkeypatch)
    failing, digest = _failing_and_digest()
    assert failing == set(expected), f"{defect} fails {sorted(failing)}"
    assert digest == pinned, f"{defect} changed a report"


def test_every_shared_loop_check_catches_a_planted_defect():
    caught = {name for _, expected, _ in DEFECTS.values() for name in expected}
    assert caught == set(CHECKED)
    assert len(CHECKED) == 21


def _images():
    """In each algebra, the product of two basis monomials and of one by a sum of
    two; and each map's image of a basis monomial."""
    a, b, c = (1, 1, 1, 1, 1, 1), (1, -1, 2, 1, -2, 1), (-1, 2, 0, 1, 1, -2)
    products = [
        x.basis(a[:x.d]) * y
        for x in ALGEBRAS.values()
        for y in (x.basis(b[:x.d]), x.basis(b[:x.d]) + x.basis(c[:x.d]))
    ]
    return products, [f(f.source.basis(a[:f.source.d])) for f in MAPS.values()]


@pytest.mark.parametrize("defect", [
    "phase-plus-2-sum-a", "phase-cubic-term", "comult-phase-sign", "mu-phase-sign",
    "counit-no-phase", "product-index",
])
def test_each_kernel_plant_changes_a_product_or_map_image(monkeypatch, defect):
    products, images = _images()
    DEFECTS[defect][0](monkeypatch)
    planted_products, planted_images = _images()
    changed = [x != y for x, y in zip(products, planted_products)]
    # a product plant reaches the one-term-by-sum products as well as the pairs
    assert all(changed) or not any(changed), f"{defect} misses a product path"
    assert any(changed) or planted_images != images, (
        f"{defect} no longer reaches a product or map kernel"
    )
