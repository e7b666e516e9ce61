"""Pickling rebuilds descriptors and maps from their values, so a round trip
works the same before and after their kernels are compiled and cached."""

import dataclasses
import pickle

import pytest

from qtorus.phases import GaussianRational, PhaseScalar
from qtorus.algebra import ALGEBRAS, POINT, TORUS, AlgebraDescriptor, AlgebraElement
from qtorus.maps import MAPS
from qtorus.suite import P2_FORMULA_VARIANT, TrialConfig, random_element

DESCRIPTORS = (POINT, *ALGEBRAS.values())


def _round_trip(x):
    return pickle.loads(pickle.dumps(x))


def _element(algebra):
    return random_element(algebra, TrialConfig(seed=18, max_support=4))


@pytest.mark.parametrize("algebra", DESCRIPTORS, ids=lambda a: a.name)
def test_a_descriptor_round_trips_before_and_after_use(algebra):
    fresh = AlgebraDescriptor(algebra.name, algebra.generator_names, algebra.cocycle)
    assert "_kernel" not in fresh.__dict__
    ones = (1,) * algebra.d
    for descriptor in (fresh, algebra):
        copy = _round_trip(descriptor)
        assert copy == descriptor and hash(copy) == hash(descriptor)
        descriptor.phase_exponent(ones, ones)
        assert "_kernel" in descriptor.__dict__
        copy = _round_trip(descriptor)
        assert copy.phase_exponent(ones, ones) == algebra.phase_exponent(ones, ones)
    # a module constant unpickles as itself, so ``is POINT`` still holds
    assert _round_trip(algebra) is algebra
    assert _round_trip(fresh) is not algebra


def test_an_unnamed_descriptor_round_trips_to_an_equal_one():
    P2_FORMULA_VARIANT.phase_exponent((1, 0, 1, 0), (0, 1, 0, 1))
    copy = _round_trip(P2_FORMULA_VARIANT)
    assert copy == P2_FORMULA_VARIANT and copy is not P2_FORMULA_VARIANT
    assert copy.phase_exponent((1, 2, 3, 4), (4, 3, 2, 1)) == (
        P2_FORMULA_VARIANT.phase_exponent((1, 2, 3, 4), (4, 3, 2, 1)))


@pytest.mark.parametrize("algebra", ALGEBRAS.values(), ids=lambda a: a.name)
def test_an_element_round_trips_before_and_after_use(algebra):
    x, y = _element(algebra), _element(algebra) + algebra.unit()
    fresh = AlgebraDescriptor(algebra.name, algebra.generator_names, algebra.cocycle)
    unused = AlgebraElement._raw(fresh, dict(x.flat))
    for original in (unused, x):
        copy = _round_trip(original)
        assert type(copy) is AlgebraElement and copy.algebra == algebra
        assert copy == original and copy.render() == original.render()
        assert copy * y == original * y and y * copy == y * original
        assert copy * copy == x * x
    assert "_kernel" in fresh.__dict__  # ``unused * y`` ran on the fresh copy


def test_a_phase_scalar_round_trips():
    c = PhaseScalar({1: GaussianRational(1, 2), -3: 2})
    x = TORUS.generator("U") + TORUS.generator("V")
    for _ in range(2):
        copy = _round_trip(c)
        assert type(copy) is PhaseScalar and copy.algebra is POINT
        assert copy == c and type(copy * copy) is PhaseScalar and copy * copy == c * c
        assert copy * x == c * x and (copy * x).render() == (c * x).render()
        c = c * c


@pytest.mark.parametrize("name", MAPS)
def test_every_map_round_trips_before_and_after_use(name):
    live = MAPS[name]
    fresh = dataclasses.replace(live)
    assert "image" not in fresh.__dict__
    x = _element(live.source)
    for fmap in (fresh, live):
        copy = _round_trip(fmap)
        assert copy == live and copy.source is live.source and copy.target is live.target
        assert copy(x) == live(x)
        fmap(x)  # used from here on
        assert "image" in fmap.__dict__
        copy = _round_trip(fmap)
        assert copy(x) == live(x) and type(copy(x)) is type(live(x))
