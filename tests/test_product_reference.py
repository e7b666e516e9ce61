"""The element product against a reference that shares no code with qtorus.

The reference holds an element as plain data ``{index: {s_exponent: (re, im)}}``
with ``Fraction`` parts, and multiplies by the definition: convolution of the
supports, coefficients multiplied as complex numbers on those pairs, and the
s-exponent of each pair raised by the cocycle form summed over the whole
matrix.  Only the algebra's ``cocycle`` matrix is read from the library.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus.algebra import ALGEBRAS, AlgebraElement
from qtorus.phases import GaussianRational, PhaseScalar

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
