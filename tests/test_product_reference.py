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

parts = st.fractions(min_value=-3, max_value=3, max_denominator=3)
nonzero_pairs = st.tuples(parts, parts).filter(lambda p: p[0] or p[1])
# each coefficient has 1 to 3 s-powers
raw_coefficients = st.dictionaries(st.integers(-4, 4), nonzero_pairs, min_size=1, max_size=3)


def raw_elements(algebra):
    idx = st.tuples(*([st.integers(-2, 2)] * algebra.d))
    return st.dictionaries(idx, raw_coefficients, max_size=4)


raw_pairs = st.sampled_from(list(ALGEBRAS.values())).flatmap(
    lambda algebra: st.tuples(st.just(algebra), raw_elements(algebra), raw_elements(algebra))
)


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
