"""Structure maps: map data, linearity, homomorphism behavior, laws."""

import itertools
import random

import pytest

from qtorus.phases import ONE, ZERO, PhaseScalar, phase_pow
from qtorus.algebra import CIRCLE, P2, P3, TORUS, AlgebraElement
from qtorus.maps import (
    GENERATOR_IMAGES,
    MAPS,
    LinearMap,
    antipode,
    circle_comult,
    comult,
    counit,
    embed_left,
    embed_right,
    lift_left_antipode,
    lift_left_comult,
    lift_left_counit,
    lift_right_antipode,
    lift_right_comult,
    lift_right_counit,
    mult_map,
)
from qtorus.suite import COEFF_POOL, TrialConfig, random_element

# The maps written out as rules on basis monomials: the image of delta^idx
# for idx = (k, l) on the torus, (k, l, m, n) on p2 and (n,) on the circle.
# Each map's data (A, P) must reproduce its rule exactly.
REFERENCE_RULES = {
    "delta": lambda k, l: phase_pow(-k * l) * P2.basis((k, l, k, l)),
    "epsilon": lambda k, l: phase_pow(k * l),
    "S": lambda k, l: TORUS.basis((-k, -l)),
    "mu": lambda k, l, m, n: phase_pow(-2 * l * m) * TORUS.basis((k + m, l + n)),
    "delta-id": lambda k, l, m, n: phase_pow(-k * l) * P3.basis((k, l, k, l, m, n)),
    "id-delta": lambda k, l, m, n: phase_pow(-m * n) * P3.basis((k, l, m, n, m, n)),
    "eps-id": lambda k, l, m, n: phase_pow(k * l) * TORUS.basis((m, n)),
    "id-eps": lambda k, l, m, n: phase_pow(m * n) * TORUS.basis((k, l)),
    "S-id": lambda k, l, m, n: P2.basis((-k, -l, m, n)),
    "id-S": lambda k, l, m, n: P2.basis((k, l, -m, -n)),
    "circle-delta": lambda n: phase_pow(-n * (n - 1)) * TORUS.basis((n, n)),
    "embed-left": lambda k, l: P2.basis((k, l, 0, 0)),
    "embed-right": lambda k, l: P2.basis((0, 0, k, l)),
}
ALL_MAPS = {**MAPS, embed_left.name: embed_left, embed_right.name: embed_right}
BASIS_BOXES = {
    "torus": list(itertools.product(range(-3, 4), repeat=2)),
    "circle": [(n,) for n in range(-6, 7)],
    "p2": list(itertools.product(range(-2, 3), repeat=4)),
}


def _multi_power_element(algebra, rng):
    """A random element whose coefficients each have two or three s-powers."""
    support = {}
    for _ in range(rng.randint(1, 6)):
        idx = tuple(rng.randint(-3, 3) for _ in range(algebra.d))
        powers = rng.sample(range(-4, 5), rng.randint(2, 3))
        support[idx] = PhaseScalar({e: rng.choice(COEFF_POOL) for e in powers})
    return AlgebraElement(algebra, support)


def _reference_apply(rule, x):
    terms = [c * rule(*idx) for idx, c in x.support.items()]
    return sum(terms[1:], terms[0])


def test_reference_rules_cover_every_map():
    assert set(REFERENCE_RULES) == set(ALL_MAPS)
    assert len(ALL_MAPS) == 13


@pytest.mark.parametrize("name", list(REFERENCE_RULES))
def test_map_data_matches_reference_rule(name):
    fmap, rule = ALL_MAPS[name], REFERENCE_RULES[name]
    for idx in BASIS_BOXES[fmap.source.name]:
        assert fmap(fmap.source.basis(idx)) == rule(*idx), idx
    rng = random.Random(name)
    for _ in range(40):
        x = _multi_power_element(fmap.source, rng)
        assert fmap(x) == _reference_apply(rule, x), x.render()


@pytest.mark.parametrize("name", list(ALL_MAPS))
def test_map_kernel_gives_the_index_and_phase_of_its_data(name):
    fmap = ALL_MAPS[name]
    linear = fmap.linear or (0,) * fmap.source.d
    for a in BASIS_BOXES[fmap.source.name]:
        index = tuple(sum(m * k for m, k in zip(row, a)) for row in fmap.matrix)
        phase = sum(m * a[i] * a[j] for i, j, m in fmap.phase)
        assert fmap.image(a) == (index, phase + sum(m * k for m, k in zip(linear, a))), a


def test_comult_kernel_source_is_pinned():
    assert comult.kernel_source == (
        "def kernel(a):\n    (a0, a1) = a\n    return (a0, a1, a0, a1), -a0*a1\n"
    )


def test_map_sums_can_cancel():
    # U V - q^(1/2) and U1 - U2 are nonzero, but the terms of their images cancel
    image = counit(TORUS.basis((1, 1)) - phase_pow(1) * TORUS.unit())
    assert isinstance(image, PhaseScalar)
    assert image == ZERO and image.render() == "0"
    collapsed = mult_map(P2.generator("U1") - P2.generator("U2"))
    assert collapsed == TORUS.zero() and collapsed.render() == "0"
    u, v = TORUS.generator("U"), TORUS.generator("V")
    assert counit(u - v) == ZERO and not counit(u - v).flat
    # V1 U2 goes to q^(-1) U V, so its sum with -q^(-1) U1 V1 cancels; the sum at U
    # cancels at U2 and is added back at U1^2 U2^-1
    x = (P2.basis((0, 1, 1, 0)) - phase_pow(-2) * P2.basis((1, 1, 0, 0))
         + P2.generator("U1") - P2.generator("U2") + P2.basis((2, 0, -1, 0)))
    image = mult_map(x)
    assert image == u and all(image.flat.values())
    assert image == _reference_apply(REFERENCE_RULES["mu"], x)


def test_map_data_shapes_are_validated():
    with pytest.raises(ValueError, match="must be 4x2"):
        LinearMap("bad", TORUS, P2, ((1, 0), (0, 1)))  # too few rows
    with pytest.raises(ValueError, match="must be 0x2"):
        LinearMap("bad", TORUS, None, ((1, 1),))  # a scalar map has no rows
    with pytest.raises(ValueError, match="must be 2x2"):
        LinearMap("bad", TORUS, TORUS, ((1, 0), (0, 1, 0)))  # a row too long
    for entry in ((0, 2, 1), (-1, 0, 1)):
        with pytest.raises(ValueError, match="outside 0..1"):
            LinearMap("bad", TORUS, TORUS, ((1, 0), (0, 1)), phase=(entry,))
    with pytest.raises(ValueError, match="empty or of length 1"):
        LinearMap("bad", CIRCLE, TORUS, ((1,), (1,)), linear=(1, 1))


def test_comult_examples():
    assert comult(TORUS.generator("U")) == P2.basis((1, 0, 1, 0))
    assert comult(TORUS.basis((2, 1))) == phase_pow(-2) * P2.basis((2, 1, 2, 1))
    assert comult(TORUS.unit()) == P2.unit()


def test_counit_examples():
    assert counit(TORUS.generator("U")) == ONE
    assert counit(TORUS.basis((1, 1))) == phase_pow(1)
    assert counit(TORUS.basis((2, 3))) == phase_pow(6)  # q^3


def test_antipode_examples():
    assert antipode(TORUS.generator("U")) == TORUS.basis((-1, 0))
    assert antipode(TORUS.basis((2, 3))) == TORUS.basis((-2, -3))
    assert antipode(TORUS.unit()) == TORUS.unit()


def test_mult_map_examples():
    assert mult_map(P2.basis((1, 2, 3, 4))) == phase_pow(-12) * TORUS.basis((4, 6))
    assert mult_map(P2.basis((1, 2, 3, 4))) == TORUS.basis((1, 2)) * TORUS.basis((3, 4))
    assert mult_map(P2.basis((2, -1, 0, 0))) == TORUS.basis((2, -1))
    assert mult_map(P2.basis((-1, -1, 1, 1))) == phase_pow(2) * TORUS.unit()


def test_lifted_comult_examples():
    assert lift_left_comult(P2.generator("U1")) == P3.basis((1, 0, 1, 0, 0, 0))
    assert lift_left_comult(P2.basis((1, 1, 2, 0))) == phase_pow(-1) * P3.basis((1, 1, 1, 1, 2, 0))
    assert lift_left_comult(P2.unit()) == P3.unit()
    assert lift_right_comult(P2.generator("U2")) == P3.basis((0, 0, 1, 0, 1, 0))
    assert lift_right_comult(P2.basis((2, 0, 1, 1))) == phase_pow(-1) * P3.basis((2, 0, 1, 1, 1, 1))
    assert lift_right_comult(P2.unit()) == P3.unit()


def test_lifted_counit_examples():
    assert lift_left_counit(P2.basis((1, 1, 2, 3))) == phase_pow(1) * TORUS.basis((2, 3))
    assert lift_right_counit(P2.basis((1, 1, 2, 3))) == phase_pow(6) * TORUS.basis((1, 1))
    assert lift_left_counit(P2.basis((0, 0, 4, -2))) == TORUS.basis((4, -2))


def test_lifted_antipode_examples():
    x = P2.basis((1, 2, 3, 4))
    assert lift_left_antipode(x) == P2.basis((-1, -2, 3, 4))
    assert lift_right_antipode(x) == P2.basis((1, 2, -3, -4))
    assert lift_left_antipode(lift_left_antipode(x)) == x


def test_circle_comult_examples():
    assert circle_comult(CIRCLE.basis((1,))) == TORUS.basis((1, 1))
    assert circle_comult(CIRCLE.basis((2,))) == phase_pow(-2) * TORUS.basis((2, 2))
    assert circle_comult(CIRCLE.basis((0,))) == TORUS.unit()


def test_embeddings():
    assert embed_left(TORUS.basis((2, -1))) == P2.basis((2, -1, 0, 0))
    assert embed_right(TORUS.basis((2, -1))) == P2.basis((0, 0, 2, -1))


def test_map_application_is_linear():
    cfg = TrialConfig(seed=11, trials=1)
    rng = random.Random(3)
    for fmap in MAPS.values():
        x = random_element(fmap.source, cfg, rng)
        y = random_element(fmap.source, cfg, rng)
        c = phase_pow(-3) * PhaseScalar(2)
        assert fmap(x + c * y) == fmap(x) + c * fmap(y)


def test_map_rejects_wrong_source():
    with pytest.raises(ValueError):
        mult_map(TORUS.generator("U"))
    with pytest.raises(ValueError):
        comult(P2.unit())
    with pytest.raises(TypeError):
        counit(phase_pow(1))


def test_comult_is_algebra_homomorphism():
    cfg = TrialConfig(seed=5)
    rng = random.Random(5)
    for _ in range(50):
        x = random_element(TORUS, cfg, rng)
        y = random_element(TORUS, cfg, rng)
        assert comult(x * y) == comult(x) * comult(y)


def test_lifted_comults_are_algebra_homomorphisms():
    cfg = TrialConfig(seed=6, max_support=3, exponent_bound=2)
    rng = random.Random(6)
    for fmap in (lift_left_comult, lift_right_comult):
        for _ in range(40):
            x = random_element(P2, cfg, rng)
            y = random_element(P2, cfg, rng)
            assert fmap(x * y) == fmap(x) * fmap(y)


def test_antipode_is_homomorphism_not_antihomomorphism():
    u, v = TORUS.generator("U"), TORUS.generator("V")
    assert antipode(u * v) == antipode(u) * antipode(v)
    # U^-1 V^-1 = q V^-1 U^-1, mirroring U V = q V U
    assert antipode(u) * antipode(v) == phase_pow(2) * (antipode(v) * antipode(u))
    cfg = TrialConfig(seed=7)
    rng = random.Random(7)
    for _ in range(50):
        x = random_element(TORUS, cfg, rng)
        y = random_element(TORUS, cfg, rng)
        assert antipode(x * y) == antipode(x) * antipode(y)


def test_lifted_antipodes_are_not_homomorphisms():
    u1, v2 = P2.generator("U1"), P2.generator("V2")
    x = v2 * u1  # s * delta^(1,0,0,1)
    assert lift_left_antipode(x) != lift_left_antipode(v2) * lift_left_antipode(u1)
    assert lift_right_antipode(x) != lift_right_antipode(v2) * lift_right_antipode(u1)


def test_circle_comult_is_algebra_homomorphism():
    cfg = TrialConfig(seed=8)
    rng = random.Random(8)
    for _ in range(50):
        x = random_element(CIRCLE, cfg, rng)
        y = random_element(CIRCLE, cfg, rng)
        assert circle_comult(x * y) == circle_comult(x) * circle_comult(y)


def test_coassociativity_on_basis():
    for k, l in itertools.product(range(-3, 4), repeat=2):
        x = TORUS.basis((k, l))
        left = lift_left_comult(comult(x))
        right = lift_right_comult(comult(x))
        assert left == right == phase_pow(-2 * k * l) * P3.basis((k, l, k, l, k, l))


def test_counit_laws_on_basis():
    for k, l in itertools.product(range(-3, 4), repeat=2):
        x = TORUS.basis((k, l))
        assert lift_left_counit(comult(x)) == x
        assert lift_right_counit(comult(x)) == x


def test_antipode_law_on_basis():
    one = TORUS.unit()
    for k, l in itertools.product(range(-3, 4), repeat=2):
        x = TORUS.basis((k, l))
        expected = counit(x) * one
        assert mult_map(lift_left_antipode(comult(x))) == expected
        assert mult_map(lift_right_antipode(comult(x))) == expected
        assert expected == phase_pow(k * l) * one


def test_counit_is_not_multiplicative():
    u, v = TORUS.generator("U"), TORUS.generator("V")
    assert counit(u * v) == phase_pow(1)
    assert counit(u) * counit(v) == ONE
    assert counit(u * v) != counit(u) * counit(v)


def test_mu_collapses_the_two_embedded_copies():
    for a in itertools.product(range(-2, 3), repeat=2):
        for b in itertools.product(range(-2, 3), repeat=2):
            x, y = TORUS.basis(a), TORUS.basis(b)
            assert mult_map(embed_left(x) * embed_right(y)) == x * y


def test_generator_images_match_closed_forms_on_generators():
    for name, images in GENERATOR_IMAGES.items():
        fmap = MAPS[name]
        for gen_name, word in images.items():
            image = fmap(fmap.source.generator(gen_name))
            expected = fmap.target.unit()
            for target_name, power in word:
                expected = expected * fmap.target.generator(target_name, power)
            assert image == expected


@pytest.mark.parametrize("name, terms, merged", [
    # mu: U1 and U2 both go to U, and V1 U2 to q^(-1) U V, as does q^(-1) U1 V1
    ("mu", [((1, 0, 0, 0), 0, 1), ((0, 0, 1, 0), 0, 2), ((0, 1, 1, 0), 0, 1),
            ((1, 1, 0, 0), -2, -1), ((0, 0, 0, 1), 0, 1)], {((1, 0), 0): 3, ((0, 1), 0): 1}),
    # epsilon: U V goes to q^(1/2), which U V^-1 q^(1) and 3 q^(1/2) also give
    ("epsilon", [((1, 1), 0, 1), ((1, -1), 2, 2), ((0, 0), 1, -3), ((0, 1), 0, 5)],
     {((), 0): 5}),
    ("eps-id", [((1, 1, 0, 1), 0, 1), ((0, 0, 0, 1), 1, -1), ((2, 0, 0, 1), 0, 4)],
     {((0, 1), 0): 4}),
    ("id-eps", [((1, 0, 1, 1), 0, 2), ((1, 0, 0, 0), 1, -2), ((1, 0, 2, 0), 0, 1)],
     {((1, 0), 0): 1}),
], ids=["mu", "epsilon", "eps-id", "id-eps"])
def test_a_map_merges_the_terms_that_meet_and_drops_those_that_cancel(name, terms, merged):
    fmap = MAPS[name]
    x = AlgebraElement(fmap.source, {})
    for idx, e, c in terms:
        x = x + phase_pow(e) * c * fmap.source.basis(idx)
    image = fmap(x)
    assert image.flat == merged and all(image.flat.values())
    assert image == _reference_apply(REFERENCE_RULES[name], x)
