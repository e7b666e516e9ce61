"""The element product against a reference that shares no code with qtorus.

The reference holds an element as plain data ``{index: {s_exponent: (re, im)}}``
with ``Fraction`` parts, and multiplies by the definition: convolution of the
supports, coefficients multiplied as complex numbers on those pairs, and the
s-exponent of each pair raised by the cocycle form summed over the whole
matrix.  Only the algebra's ``cocycle`` matrix is read from the library.

Two strategies feed it: plain data built into elements, and elements built
from library scalars (``ONE``, ``phase_pow`` and multi-term ``PhaseScalar``),
read back as plain data by ``raw_of``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus.algebra import ALGEBRAS, AlgebraElement
from qtorus.phases import ONE, GaussianRational, PhaseScalar, phase_pow

# the fractions in [-3, 3] with denominator at most 3, simplest first (which
# is where hypothesis shrinks to); drawn from a fixed list, which is much
# cheaper than ``st.fractions``
small_fractions = st.sampled_from(sorted(
    {Fraction(n, d) for d in (1, 2, 3) for n in range(-3 * d, 3 * d + 1)},
    key=lambda f: (f.denominator, abs(f), f < 0),
))
nonzero_pairs = st.tuples(small_fractions, small_fractions).filter(lambda p: p[0] or p[1])
# each coefficient has 1 to 3 s-powers
raw_coefficients = st.dictionaries(st.integers(-4, 4), nonzero_pairs, min_size=1, max_size=3)


def raw_elements(algebra):
    idx = st.tuples(*([st.integers(-2, 2)] * algebra.d))
    return st.dictionaries(idx, raw_coefficients, max_size=4)


# strategies built once per algebra, not once per example
raw_pairs = st.one_of([
    st.tuples(st.just(algebra), raw_elements(algebra), raw_elements(algebra))
    for algebra in ALGEBRAS.values()
])


def reference_product(cocycle, left, right):
    out = {}
    for a, ca in left.items():
        for b, cb in right.items():
            phase = sum(
                m * a[i] * b[j] for i, row in enumerate(cocycle) for j, m in enumerate(row)
            )
            acc = out.setdefault(tuple(x + y for x, y in zip(a, b)), {})
            for e, (ar, ai) in ca.items():
                for f, (br, bi) in cb.items():
                    g = e + f + phase
                    re, im = acc.get(g, (Fraction(0), Fraction(0)))
                    acc[g] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
    pruned = {}
    for idx, coeff in out.items():
        coeff = {e: v for e, v in coeff.items() if v[0] or v[1]}
        if coeff:
            pruned[idx] = coeff
    return pruned


def build(algebra, raw):
    return AlgebraElement(
        algebra,
        {
            idx: PhaseScalar({e: GaussianRational(re, im) for e, (re, im) in coeff.items()})
            for idx, coeff in raw.items()
        },
    )


def raw_of(element):
    return {
        idx: {e: (c.re, c.im) for e, c in coeff.items()}
        for idx, coeff in element.support.items()
    }


@given(raw_pairs)
@settings(max_examples=200, deadline=None)
def test_product_matches_the_plain_data_reference(case):
    algebra, left, right = case
    got = build(algebra, left) * build(algebra, right)
    assert got.algebra is algebra
    assert raw_of(got) == reference_product(algebra.cocycle, left, right)


def product_by_definition(x, y):
    """x * y by the plain-Fraction reference, which shares no arithmetic with qtorus."""
    return reference_product(x.algebra.cocycle, raw_of(x), raw_of(y))


# one-term coefficients (1 among them) and multi-term ones, so the product
# runs every branch of the scalar product
coefficients = st.one_of(
    st.just(ONE),
    st.integers(-4, 4).map(phase_pow),
    st.dictionaries(
        st.integers(-4, 4),
        st.builds(GaussianRational, small_fractions, small_fractions),
        min_size=1,
        max_size=3,
    ).map(PhaseScalar),
)


def coefficient_elements(algebra):
    idx = st.tuples(*([st.integers(-2, 2)] * algebra.d))
    return st.dictionaries(idx, coefficients, max_size=4).map(
        lambda support: AlgebraElement(algebra, support)
    )


pairs_of_elements = st.one_of([
    st.tuples(coefficient_elements(algebra), coefficient_elements(algebra))
    for algebra in ALGEBRAS.values()
])


@given(pairs_of_elements)
@settings(max_examples=200, deadline=None)
def test_product_matches_its_term_by_term_definition(pair):
    x, y = pair
    prod = x * y
    assert all(prod.flat.values())
    assert raw_of(prod) == product_by_definition(x, y)
