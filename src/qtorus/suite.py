"""Seeded random elements and the executable verification suite.

Every algebraic law the library claims is enumerated here as a named check;
``run_suite`` executes a selection and returns one report per check.  Each
check compares its two sides exactly (canonical forms) and, as a guard on the
numeric evaluation path, also compares them in double precision at
theta = 0, 1/3 and 0.1375 (a root-of-unity regime, and a generic value).

Each check is a stream that yields one outcome per trial: None for a pass,
else a failure message (or, for a single witness trial, a tuple of them).  One
collector, ``_run``, counts the trials, keeps the failures and builds the
report.  Sixteen checks share three streams: ``_rows`` compares relation rows,
``_sampled`` applies a law to k random elements per trial, and ``_on_torus``
applies one to the basis box [-3,3]^2 and then to random torus elements.
``oracle-equivalence`` yields one outcome per pair of basis monomials, but in
its two exhaustive boxes it does the exact work once per row (one left index):
one product by the sum of the box's monomials and one normal-ordering pass.

Checks draw their randomness from a generator seeded by (seed, check name),
so reports are byte-identical for a fixed (seed, selection) and independent
of which other checks run.  Checks are pure and independent; they may run
concurrently as long as reports are assembled in selection order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from .phases import ONE, GaussianRational, phase_pow
from .algebra import (
    _GR_ONE,
    _merge_into,
    ALGEBRAS,
    P2,
    P3,
    TORUS,
    AlgebraDescriptor,
    AlgebraElement,
    MultiIndex,
)
from .rewrite import (RELATION_ROWS, normal_order_box, normal_order_exponent, normal_order_rows,
                      swap_exponent)
from .maps import (
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

__all__ = [
    "TrialConfig",
    "CheckReport",
    "COEFF_POOL",
    "THETA_PROBES",
    "NUMERIC_TOL",
    "random_element",
    "run_suite",
    "CHECKS",
    "DEFAULT_SELECTION",
    "PROPERTY_COVERAGE",
    "render_reports_text",
    "reports_to_records",
]

THETA_PROBES = (0.0, 1.0 / 3.0, 0.1375)
NUMERIC_TOL = 1e-10


@dataclass(frozen=True)
class TrialConfig:
    """Parameters of the random element generator and trial counts."""

    seed: int = 0
    trials: int = 200
    max_support: int = 4
    exponent_bound: int = 3

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.exponent_bound < 1:
            raise ValueError("exponent_bound must be at least 1")
        if self.max_support < 1:
            raise ValueError("max_support must be at least 1")


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check."""

    name: str
    algebras: tuple[str, ...]
    trials: int
    failures: tuple[str, ...]

    @property
    def status(self) -> str:
        return "pass" if not self.failures else "fail"

    def text_line(self) -> str:
        line = f"{self.status.upper()} {self.name} (trials={self.trials})"
        if self.failures:
            line += f": {self.failures[0]}"
        return line

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "algebras": list(self.algebras),
            "trials": self.trials,
            "status": self.status,
            "failures": list(self.failures),
        }


_POOL_FRACTIONS = sorted({Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)})
COEFF_POOL: tuple[GaussianRational, ...] = tuple(
    GaussianRational(a, b) for a in _POOL_FRACTIONS for b in _POOL_FRACTIONS if a or b
)


def random_element(
    algebra: AlgebraDescriptor, cfg: TrialConfig, rng: random.Random | None = None
) -> AlgebraElement:
    """A random finitely supported element, deterministic for a fixed seed.

    Support size lies in [1, max_support], indices in the exponent box, and
    each coefficient is a pool entry times s**e with e in [-4, 4].  Each draw is
    one ``rng.choice`` from a range, the one ``_randbelow`` call of ``randint``.
    """
    choice = (rng or random.Random(cfg.seed)).choice
    bound = cfg.exponent_bound
    entries, powers, sizes = range(-bound, bound + 1), range(-4, 5), range(1, cfg.max_support + 1)
    while True:
        # each term draws its index, then its s-exponent, then its coefficient
        terms = [((tuple([choice(entries) for _ in range(algebra.d)]), choice(powers)),
                  choice(COEFF_POOL)) for _ in range(choice(sizes))]
        element = AlgebraElement._raw(algebra, _merge_into({}, terms))
        if element:
            return element


# --- comparison helpers -------------------------------------------------

def _box(bound: int, d: int) -> list[MultiIndex]:
    """Every index in [-bound, bound]^d, in lexicographic order."""
    return list(itertools.product(range(-bound, bound + 1), repeat=d))


def _numeric_gap_elements(lhs: AlgebraElement, rhs: AlgebraElement, theta: float) -> float:
    lv = lhs.eval_numeric(theta)
    rv = rhs.eval_numeric(theta)
    if lv == rv:  # what the loop gives: equal values differ by 0.0, or by nan, which max skips
        return 0.0
    gap = 0.0
    for idx in lv.keys() | rv.keys():
        gap = max(gap, abs(lv.get(idx, 0j) - rv.get(idx, 0j)))
    return gap


def _mismatch_elements(lhs: AlgebraElement, rhs: AlgebraElement) -> str | None:
    """None if the two elements agree exactly and at every numeric probe."""
    if lhs != rhs:
        return f"symbolic: {lhs.render()}  !=  {rhs.render()}"
    for theta in THETA_PROBES:
        gap = _numeric_gap_elements(lhs, rhs, theta)
        if gap > NUMERIC_TOL:
            return f"numeric at theta={theta}: gap {gap:.3e}"
    return None


# --- the one collector ---------------------------------------------------

# One trial's outcome: None for a pass, else its failure message(s).
Outcome = str | tuple[str, ...] | None
Stream = Callable[[TrialConfig, random.Random], Iterable[Outcome]]


def _run(
    name: str, algebras: tuple[str, ...], stream: Stream, keep: int | None,
    cfg: TrialConfig, rng: random.Random,
) -> CheckReport:
    """Count the trials of one check's stream and keep their failures (the first ``keep``)."""
    failures: list[str] = []
    trials = 0
    for outcome in stream(cfg, rng):
        trials += 1
        if outcome and (keep is None or len(failures) < keep):
            failures.extend((outcome,) if isinstance(outcome, str) else outcome)
    return CheckReport(name, algebras, trials, tuple(failures[:keep]))


# --- streams shared by several checks -------------------------------------

def _rows(
    algebras: tuple[AlgebraDescriptor, ...],
    label: str,
    rewriting: bool,
    cfg: TrialConfig,
    rng: random.Random,
) -> Iterator[Outcome]:
    """Each relation row g_i g_j = s^e g_j g_i as an exact element equality.

    With ``rewriting``, normal ordering must also move g_j past g_i at the
    cost s^-e.  A failure is ``label`` (a format over alg, a, b, e) and a message.
    """
    for algebra in algebras:
        names = algebra.generator_names
        for i, j, e in RELATION_ROWS[algebra.name]:
            gi, gj = algebra.generator(names[i]), algebra.generator(names[j])
            msg = _mismatch_elements(gi * gj, phase_pow(e) * (gj * gi))
            if rewriting and not msg:
                el, il = normal_order_exponent(algebra, [(i, 1), (j, 1)])
                er, ir = normal_order_exponent(algebra, [(j, 1), (i, 1)])
                if il != ir or el != e + er:
                    msg = f"rewriting phases disagree: s^{el} vs s^({e}+{er})"
            yield msg and label.format(alg=algebra.name, a=names[i], b=names[j], e=e) + msg


def _sampled(
    cases: Sequence[tuple[str, AlgebraDescriptor, object]],
    arity: int,
    law: Callable[..., str | None],
    cfg: TrialConfig,
    rng: random.Random,
    template: str = "{inputs}: {msg}",
) -> Iterator[Outcome]:
    """``cfg.trials`` trials for each case (label, source, subject).

    A trial draws ``arity`` elements x, y, z of the source and fails with
    ``label + template`` when ``law(subject, x, ...)`` returns a message.
    """
    for label, source, subject in cases:
        for _ in range(cfg.trials):
            xs = [random_element(source, cfg, rng) for _ in range(arity)]
            msg = law(subject, *xs)
            if msg:
                inputs = ", ".join(f"{v}={x.render()}" for v, x in zip("xyz", xs))
                msg = label + template.format(inputs=inputs, msg=msg)
            yield msg


def _on_torus(
    law: Callable[[AlgebraElement, MultiIndex | None], str | None],
    basis_label: bool,
    cfg: TrialConfig,
    rng: random.Random,
) -> Iterator[Outcome]:
    """A law on each basis monomial of [-3,3]^2, then on random torus elements.

    The law gets a basis monomial's index (None for a random element), so
    closed forms that hold only on the basis stay inside it.  With
    ``basis_label`` a basis failure names its index, otherwise its rendering.
    """
    inputs = [(TORUS.basis(idx), idx) for idx in _box(3, 2)]
    inputs += [(random_element(TORUS, cfg, rng), None) for _ in range(cfg.trials)]
    for x, idx in inputs:
        msg = law(x, idx)
        if msg:
            label = f"basis ({idx[0]},{idx[1]})" if basis_label and idx else f"x={x.render()}"
            msg = f"{label}: {msg}"
        yield msg


def _unit_law(algebra: AlgebraDescriptor, x: AlgebraElement) -> str | None:
    one = algebra.unit()
    return _mismatch_elements(one * x, x) or _mismatch_elements(x * one, x)


def _associativity_law(_, x: AlgebraElement, y: AlgebraElement, z: AlgebraElement) -> str | None:
    return _mismatch_elements((x * y) * z, x * (y * z))


def _homomorphism_law(fmap: LinearMap, x: AlgebraElement, y: AlgebraElement) -> str | None:
    return _mismatch_elements(fmap(x * y), fmap(x) * fmap(y))


def _commutator_gap_at_q1(_, x: AlgebraElement, y: AlgebraElement) -> str | None:
    """At theta = 0 (q = 1) every product commutes numerically."""
    gap = _numeric_gap_elements(x * y, y * x, 0.0)
    return f"commutator gap {gap:.3e} at theta=0" if gap > NUMERIC_TOL else None


def _coassociativity_law(x: AlgebraElement, idx: MultiIndex | None) -> str | None:
    """Both one-sided comultiplication lifts of the comultiplication agree."""
    left = lift_left_comult(comult(x))
    msg = _mismatch_elements(left, lift_right_comult(comult(x)))
    if msg or idx is None:
        return msg
    k, l = idx
    return _mismatch_elements(left, phase_pow(-2 * k * l) * P3.basis((k, l, k, l, k, l)))


def _counit_law(x: AlgebraElement, idx: MultiIndex | None) -> str | None:
    dx = comult(x)
    msg = _mismatch_elements(lift_left_counit(dx), x)
    return msg or _mismatch_elements(lift_right_counit(dx), x)


def _antipode_law(x: AlgebraElement, idx: MultiIndex | None) -> str | None:
    """Collapsing either one-sided inversion of the comultiplication gives the counit."""
    one = TORUS.unit()
    mid = lift_left_antipode(comult(x))
    msg = None
    if idx is not None:
        # intermediate chain on basis monomials: s^(-kl) delta^(k,l,k,l)
        # |-> s^(-kl) delta^(-k,-l,k,l) |-> s^(-kl) s^(2kl) = s^(kl) times the unit
        k, l = idx
        msg = _mismatch_elements(mid, phase_pow(-k * l) * P2.basis((-k, -l, k, l)))
        msg = msg or _mismatch_elements(mult_map(mid), phase_pow(k * l) * one)
    target = counit(x) * one
    msg = msg or _mismatch_elements(mult_map(mid), target)
    return msg or _mismatch_elements(mult_map(lift_right_antipode(comult(x))), target)


# --- the other checks ---------------------------------------------------

def _oracle_pair_failure(
    algebra: AlgebraDescriptor,
    a: MultiIndex,
    b: MultiIndex,
    xa: AlgebraElement,
    xb: AlgebraElement,
    exponent: int,
    idx: MultiIndex,
    probed: bool,
) -> str | None:
    """The failure of the pair delta^a * delta^b against the rewriting
    s^exponent delta^idx, None if it passes.  A probed pair is also compared
    at the numeric probes: its own product's evaluation against that of s^e."""
    prod = xa * xb
    if prod._terms != {(idx, exponent): _GR_ONE}:
        if len(prod.support) != 1:
            return f"{algebra.name} {a}x{b}: product is not a monomial"
        return (
            f"{algebra.name} {a}x{b}: product {prod.render()} vs "
            f"rewriting s^{exponent} delta^{idx}"
        )
    if not probed:
        return None
    phase = phase_pow(exponent)
    for theta in THETA_PROBES:
        gap = abs(prod.eval_numeric(theta)[idx] - phase.eval_numeric(theta))
        if gap > NUMERIC_TOL:
            return f"{algebra.name} {a}x{b}: numeric gap {gap:.3e} at theta={theta}"
    return None


def _oracle_equivalence(cfg: TrialConfig, rng: random.Random) -> Iterator[Outcome]:
    """Cocycle product vs normal ordering: the boxes [-2,2]^d squared for d=2,4,
    then random pairs for d=6, one outcome per pair.

    A box is checked one row (one left index a) at a time: the product of
    delta^a by the sum of the box's basis monomials, one call, whose terms are
    the pairs' products because a + b is injective in b, is compared with the
    row's normal orderings, one box pass that folds a's word once: flat keys in
    order and values, else one dict comparison.  A row that differs is redone
    pair by pair; if every pair then agrees, the product by the sum is wrong and
    the row's last outcome says so.  Every 97th pair, failing ones included, is
    probed: its own product is compared exactly and at the numeric probes.  The
    stream chains the outcome list of each row and a 1-tuple for each random pair.
    """
    return itertools.chain.from_iterable(_oracle_rows(cfg, rng))


def _oracle_rows(cfg: TrialConfig, rng: random.Random) -> Iterator[Sequence[Outcome]]:
    pairs = 0
    for algebra in (TORUS, P2):
        idxs = _box(2, algebra.d)
        words = [tuple((p, k) for p, k in enumerate(b) if k) for b in idxs]
        basis = [algebra.basis(b) for b in idxs]
        # every coefficient is _GR_ONE, which the row's comparison finds by identity
        box_sum = AlgebraElement(algebra, dict.fromkeys(idxs, ONE))
        ones = [_GR_ONE] * len(idxs)
        for a, xa, word in zip(idxs, basis, words):
            keys = normal_order_box(algebra, word, 2)
            probe = (96 - pairs) % 97  # pair j of this row is probed if j % 97 == probe
            pairs += len(idxs)
            terms = (xa * box_sum)._terms
            if (list(terms) == keys and list(terms.values()) == ones
                    or terms == dict.fromkeys(keys, _GR_ONE)):
                outcomes = [None] * len(idxs)
                for j in range(probe, len(idxs), 97):
                    (idx, e), b = keys[j], idxs[j]
                    outcomes[j] = _oracle_pair_failure(algebra, a, b, xa, basis[j], e, idx, True)
            else:
                outcomes = [
                    _oracle_pair_failure(algebra, a, b, xa, xb, e, idx, j % 97 == probe)
                    for j, (b, xb, (idx, e)) in enumerate(zip(idxs, basis, keys))
                ]
                if not any(outcomes):
                    outcomes[-1] = (
                        f"{algebra.name} {a}x[-2,2]^{algebra.d}: every pair agrees, "
                        "but the product by their sum does not"
                    )
            yield outcomes
    choice, entries = rng.choice, range(-2, 3)
    for _ in range(max(1000, cfg.trials)):
        a = tuple([choice(entries) for _ in range(6)])
        b = tuple([choice(entries) for _ in range(6)])
        seq = [(p, k) for x in (a, b) for p, k in enumerate(x) if k]
        order = normal_order_exponent(P3, seq)
        yield (_oracle_pair_failure(P3, a, b, P3.basis(a), P3.basis(b), *order, pairs % 97 == 96),)
        pairs += 1


def _confluence(cfg: TrialConfig, rng: random.Random) -> Iterator[Outcome]:
    """Normal ordering is invariant under phase-tracked reshuffling."""
    nontrivial_powers = [-3, -2, -1, 1, 2, 3]
    for algebra in ALGEBRAS.values():
        for _ in range(max(500, cfg.trials)):
            seq = [
                (rng.randrange(algebra.d), rng.choice(nontrivial_powers))
                for _ in range(rng.choice(range(1, 7)))
            ]
            e0, idx0 = normal_order_exponent(algebra, seq)
            shuffled = list(seq)
            acc = 0
            for _ in range(rng.choice(range(1, 9))):
                if len(shuffled) < 2:
                    break
                i = rng.randrange(len(shuffled) - 1)
                (a, p), (b, r) = shuffled[i], shuffled[i + 1]
                acc += swap_exponent(algebra, a, b) * p * r
                shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
            e1, idx1 = normal_order_exponent(algebra, shuffled)
            yield None if idx1 == idx0 and e1 == e0 - acc else (
                f"{algebra.name}: word {seq} -> s^{e0} delta^{idx0}, "
                f"shuffle -> s^{e1} delta^{idx1} with tracked phase {acc}"
            )


# The product formula variant whose final cross term couples the first
# factor's U2-exponent to the second factor's V2-exponent (q^(-m1 n2), in
# s-units -2*a[2]*b[3]).  It contradicts the relation U2 V2 = q V2 U2; the
# implemented cocycle uses q^(-m2 n1) instead.
P2_FORMULA_VARIANT = AlgebraDescriptor(
    "p2-formula-variant",
    P2.generator_names,
    ((0, 0, 0, 0), (-2, 0, 0, 0), (0, -1, 0, -2), (1, 0, 0, 0)),
)


def _p2_discrepancy(cfg: TrialConfig, rng: random.Random) -> Iterator[Outcome]:
    """The variant exponent disagrees with the relations exactly where expected.

    This check passes by *confirming* the discrepancy on (U2, V2) and by
    confirming that the implemented bilinear form matches the rewriting oracle
    on every pair of the box [-1,1]^4, one kernel pass per row (left index a).
    """
    u2, v2 = (0, 0, 1, 0), (0, 0, 0, 1)
    variant_exp = P2_FORMULA_VARIANT.phase_exponent(u2, v2)
    oracle_exp, oracle_idx = normal_order_exponent(P2, [(2, 1), (3, 1)])
    yield tuple(filter(None, (
        variant_exp != -2
        and f"variant exponent on (U2, V2) is s^{variant_exp}, expected s^-2 (q^-1)",
        (oracle_exp != 0 or oracle_idx != (0, 0, 1, 1))
        and f"relations give s^{oracle_exp} delta^{oracle_idx}, expected delta^(0,0,1,1)",
        variant_exp == oracle_exp
        and "variant formula unexpectedly agrees with the relations on (U2, V2)",
        P2.phase_exponent(u2, v2) != oracle_exp
        and "implemented cocycle disagrees with the relations on (U2, V2)",
    )))
    box = _box(1, 4)
    words = [tuple((p, k) for p, k in enumerate(b) if k) for b in box]
    for a, word in zip(box, words):
        for b, (e, idx) in zip(box, normal_order_rows(P2, word, words)):
            agree = e == P2.phase_exponent(a, b) and idx == tuple(x + y for x, y in zip(a, b))
            yield None if agree else f"corrected cocycle disagrees with rewriting on {a}x{b}"


def _counit_witness(cfg: TrialConfig, rng: random.Random) -> Iterator[Outcome]:
    """The counit is linear but multiplicative on no account: eps(UV) != eps(U)eps(V)."""
    u, v = TORUS.generator("U"), TORUS.generator("V")
    lhs = counit(u * v)
    rhs = counit(u) * counit(v)
    yield tuple(filter(None, (
        lhs != phase_pow(1) and f"eps(U V) = {lhs.render()}, expected q^(1/2)",
        rhs != ONE and f"eps(U) eps(V) = {rhs.render()}, expected 1",
        lhs == rhs and "eps unexpectedly multiplicative on (U, V)",
        all(
            abs(lhs.eval_numeric(theta) - rhs.eval_numeric(theta)) <= NUMERIC_TOL
            for theta in THETA_PROBES[1:]
        ) and "witness values numerically indistinguishable away from q=1",
    )))


def _mu_multiplication(cfg: TrialConfig, rng: random.Random) -> Iterator[Outcome]:
    box = _box(2, 2)
    for a in box:
        xa = TORUS.basis(a)
        for b in box:
            xb = TORUS.basis(b)
            msg = _mismatch_elements(mult_map(embed_left(xa) * embed_right(xb)), xa * xb)
            yield msg and f"{a}x{b}: {msg}"


def _image_seq(
    target: AlgebraDescriptor,
    images: dict[str, tuple[tuple[str, int], ...]],
    source: AlgebraDescriptor,
    idx: MultiIndex,
) -> list[tuple[int, int]]:
    """The target word of ``idx``: each image, inverted for a power below 0, |power| times."""
    seq: list[tuple[int, int]] = []
    for pos, power in enumerate(idx):
        image = [(target.generator_position(n), k) for n, k in images[source.generator_names[pos]]]
        if power < 0:
            image = [(p, -k) for p, k in reversed(image)]
        seq.extend(image * abs(power))
    return seq


def _derived_rules(cfg: TrialConfig, rng: random.Random) -> Iterator[Outcome]:
    """The maps' data (A, P) agree with replaying generator images through rewriting."""
    boxes = {
        "delta": _box(3, 2),
        "S": _box(3, 2),
        "circle-delta": _box(6, 1),
        "delta-id": _box(2, 4),
        "id-delta": _box(2, 4),
    }
    for map_name, images in GENERATOR_IMAGES.items():
        fmap = MAPS[map_name]
        for idx in boxes[map_name]:
            seq = _image_seq(fmap.target, images, fmap.source, idx)
            exponent, jdx = normal_order_exponent(fmap.target, seq)
            got = fmap(fmap.source.basis(idx))
            expected = phase_pow(exponent) * fmap.target.basis(jdx)
            msg = _mismatch_elements(got, expected)
            yield msg and f"{map_name} on delta^{idx}: {msg}"


# --- check registry -----------------------------------------------------

CheckFunction = Callable[[TrialConfig, random.Random], CheckReport]


def _each(algebras: Iterable[AlgebraDescriptor]) -> list[tuple[str, AlgebraDescriptor, object]]:
    return [(f"{a.name}: ", a, a) for a in algebras]


_ROW_LABEL = "{a} {b} = q^({e}/2) {b} {a}: "
_EVERY_ALGEBRA = _each(ALGEBRAS.values())
_EMBEDDED = [(f"{f.name}: ", TORUS, f) for f in (embed_left, embed_right)]
_ALL, _DEFORMED = tuple(ALGEBRAS), ("torus", "p2", "p3")
# Each check: its name, the algebras its report names, and its stream.
_REGISTRY: tuple[tuple[str, tuple[str, ...], Stream], ...] = (
    ("torus-relation", ("torus",), partial(_rows, (TORUS,), _ROW_LABEL, False)),
    ("p2-relations", ("p2",), partial(_rows, (P2,), _ROW_LABEL, False)),
    ("p3-relations", ("p3",), partial(_rows, (P3,), _ROW_LABEL, False)),
    # every relation row, evaluated both through the cocycle product and
    # through the rewriting tables, must name the same element
    (
        "swap-table-consistency", _DEFORMED,
        partial(_rows, (TORUS, P2, P3), "{alg} {a} {b}: ", True),
    ),
    ("unit-law", _ALL, partial(_sampled, _EVERY_ALGEBRA, 1, _unit_law)),
    ("associativity", _ALL, partial(_sampled, _EVERY_ALGEBRA, 3, _associativity_law)),
    ("subalgebra-embedding", ("torus", "p2"), partial(_sampled, _EMBEDDED, 2, _homomorphism_law)),
    ("oracle-equivalence", _DEFORMED, _oracle_equivalence),
    ("confluence", _ALL, _confluence),
    ("p2-formula-vs-relations-discrepancy", ("p2",), _p2_discrepancy),
    (
        "q1-degeneration", _DEFORMED,
        partial(_sampled, _each((TORUS, P2, P3)), 2, _commutator_gap_at_q1,
                template="{msg} for {inputs}"),
    ),
    *(
        (
            name, (f.source.name, f.target.name),
            partial(_sampled, [("", f.source, f)], 2, _homomorphism_law),
        )
        for name, f in (
            ("delta-homomorphism", comult),
            ("delta-id-homomorphism", lift_left_comult),
            ("id-delta-homomorphism", lift_right_comult),
            ("antipode-homomorphism", antipode),  # a homomorphism, not an anti-homomorphism
            ("circle-delta-homomorphism", circle_comult),
        )
    ),
    ("coassociativity", _DEFORMED, partial(_on_torus, _coassociativity_law, True)),
    ("counit-laws", ("torus", "p2"), partial(_on_torus, _counit_law, False)),
    ("antipode-law", ("torus", "p2"), partial(_on_torus, _antipode_law, True)),
    ("counit-non-homomorphism", ("torus",), _counit_witness),
    ("mu-represents-multiplication", ("torus", "p2"), _mu_multiplication),
    ("derived-rules-oracle", _DEFORMED, _derived_rules),
)
# The most failures a report keeps, where not all: the 392,250 oracle pairs
# would otherwise keep every failure of a broken cocycle.
_KEEP = {"oracle-equivalence": 5}
CHECKS: dict[str, CheckFunction] = {
    name: partial(_run, name, algebras, stream, _KEEP.get(name))
    for name, algebras, stream in _REGISTRY
}


DEFAULT_SELECTION: tuple[str, ...] = tuple(CHECKS)

# Which named library properties each check certifies; the test suite fails
# if an entry here is not part of the default selection.
PROPERTY_COVERAGE: dict[str, tuple[str, ...]] = {
    "algebra-associativity": ("associativity",),
    "algebra-unit-law": ("unit-law",),
    "algebra-torus-relation": ("torus-relation",),
    "algebra-p2-relations": ("p2-relations",),
    "algebra-p3-relations": ("p3-relations",),
    "algebra-subalgebra-embedding": ("subalgebra-embedding",),
    "algebra-product-vs-rewriting": ("oracle-equivalence",),
    "algebra-q1-degeneration": ("q1-degeneration",),
    "rewriting-confluence": ("confluence",),
    "rewriting-agreement-with-product": ("oracle-equivalence",),
    "rewriting-swap-table-consistency": ("swap-table-consistency",),
    "maps-comult-homomorphism": ("delta-homomorphism",),
    "maps-lifted-comult-homomorphisms": (
        "delta-id-homomorphism",
        "id-delta-homomorphism",
    ),
    "maps-coassociativity": ("coassociativity",),
    "maps-counit-laws": ("counit-laws",),
    "maps-antipode-law": ("antipode-law",),
    "maps-antipode-homomorphism": ("antipode-homomorphism",),
    "maps-counit-not-multiplicative": ("counit-non-homomorphism",),
    "maps-circle-comult-homomorphism": ("circle-delta-homomorphism",),
    "maps-mu-represents-multiplication": ("mu-represents-multiplication",),
    "maps-derived-basis-rules": ("derived-rules-oracle",),
    "p2-formula-discrepancy": ("p2-formula-vs-relations-discrepancy",),
}


def run_suite(
    cfg: TrialConfig, selection: Sequence[str] | None = None
) -> list[CheckReport]:
    """Run the selected checks (default: all) and return reports in order."""
    names = list(DEFAULT_SELECTION) if selection is None else list(selection)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check name: {unknown[0]!r}")
    reports = []
    for name in names:
        rng = random.Random(f"{cfg.seed}:{name}")
        reports.append(CHECKS[name](cfg, rng))
    return reports


def render_reports_text(reports: Sequence[CheckReport]) -> str:
    return "\n".join(r.text_line() for r in reports)


def reports_to_records(reports: Sequence[CheckReport]) -> list[dict]:
    return [r.to_record() for r in reports]
