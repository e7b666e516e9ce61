"""Seeded random elements and the executable verification suite.

Every algebraic law the library claims is enumerated here as a named check;
``run_suite`` executes a selection and returns one report per check.  Each
check compares its two sides exactly (canonical forms) and, as a guard on the
numeric evaluation path, also compares them in double precision at
theta = 0, 1/3 and 0.1375 (a root-of-unity regime, and a generic value).

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
from typing import Callable, Iterable, Sequence

from .phases import ONE, GaussianRational, PhaseScalar, phase_pow
from .algebra import (
    ALGEBRAS,
    P2,
    P3,
    TORUS,
    AlgebraDescriptor,
    AlgebraElement,
    MultiIndex,
    bilinear_exponent,
)
from .rewrite import RELATION_ROWS, normal_order_exponent, swap_exponent
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
    each coefficient is a pool entry times s**e with e in [-4, 4].
    """
    if rng is None:
        rng = random.Random(cfg.seed)
    bound = cfg.exponent_bound
    while True:
        support: dict[MultiIndex, PhaseScalar] = {}
        for _ in range(rng.randint(1, cfg.max_support)):
            idx = tuple(rng.randint(-bound, bound) for _ in range(algebra.d))
            coeff = PhaseScalar({rng.randint(-4, 4): rng.choice(COEFF_POOL)})
            acc = support.get(idx)
            support[idx] = coeff if acc is None else acc + coeff
        element = AlgebraElement._raw(
            algebra, {i: c for i, c in support.items() if c}
        )
        if element:
            return element


# --- comparison helpers -------------------------------------------------

def _numeric_gap_elements(lhs: AlgebraElement, rhs: AlgebraElement, theta: float) -> float:
    lv = lhs.eval_numeric(theta)
    rv = rhs.eval_numeric(theta)
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


# --- check registry -----------------------------------------------------

CheckFunction = Callable[[TrialConfig, random.Random], CheckReport]
CHECKS: dict[str, CheckFunction] = {}


def _register(name: str) -> Callable[[CheckFunction], CheckFunction]:
    def deco(fn: CheckFunction) -> CheckFunction:
        CHECKS[name] = fn
        return fn

    return deco


def _relation_report(
    name: str, algebra: AlgebraDescriptor, cfg: TrialConfig, rng: random.Random
) -> CheckReport:
    """Check every relation row of an algebra as an exact element equality."""
    failures = []
    rows = RELATION_ROWS[algebra.name]
    names = algebra.generator_names
    for i, j, e in rows:
        gi, gj = algebra.generator(names[i]), algebra.generator(names[j])
        lhs = gi * gj
        rhs = phase_pow(e) * (gj * gi)
        msg = _mismatch_elements(lhs, rhs)
        if msg:
            failures.append(
                f"{names[i]} {names[j]} = q^({e}/2) {names[j]} {names[i]}: {msg}"
            )
    return CheckReport(name, (algebra.name,), len(rows), tuple(failures))


CHECKS.update(
    (name, partial(_relation_report, name, algebra))
    for name, algebra in (("torus-relation", TORUS), ("p2-relations", P2), ("p3-relations", P3))
)


@_register("swap-table-consistency")
def _check_swap_table(cfg: TrialConfig, rng: random.Random) -> CheckReport:
    # every relation row, evaluated both through the cocycle product and
    # through the rewriting tables, must name the same element
    failures = []
    trials = 0
    for algebra in (TORUS, P2, P3):
        names = algebra.generator_names
        for i, j, e in RELATION_ROWS[algebra.name]:
            trials += 1
            gi, gj = algebra.generator(names[i]), algebra.generator(names[j])
            lhs = gi * gj
            rhs = phase_pow(e) * (gj * gi)
            msg = _mismatch_elements(lhs, rhs)
            el, il = normal_order_exponent(algebra, [(i, 1), (j, 1)])
            er, ir = normal_order_exponent(algebra, [(j, 1), (i, 1)])
            if il != ir or el != e + er:
                msg = msg or (
                    f"rewriting phases disagree: s^{el} vs s^({e}+{er})"
                )
            if msg:
                failures.append(f"{algebra.name} {names[i]} {names[j]}: {msg}")
    return CheckReport("swap-table-consistency", ("torus", "p2", "p3"), trials, tuple(failures))


@_register("unit-law")
def _check_unit_law(cfg: TrialConfig, rng: random.Random) -> CheckReport:
    failures = []
    trials = 0
    for algebra in ALGEBRAS.values():
        one = algebra.unit()
        for _ in range(cfg.trials):
            trials += 1
            x = random_element(algebra, cfg, rng)
            if (msg := _mismatch_elements(one * x, x)) or (
                msg := _mismatch_elements(x * one, x)
            ):
                failures.append(f"{algebra.name}: x={x.render()}: {msg}")
    return CheckReport("unit-law", tuple(ALGEBRAS), trials, tuple(failures))


@_register("associativity")
def _check_associativity(cfg: TrialConfig, rng: random.Random) -> CheckReport:
    failures = []
    trials = 0
    for algebra in ALGEBRAS.values():
        for _ in range(cfg.trials):
            trials += 1
            x = random_element(algebra, cfg, rng)
            y = random_element(algebra, cfg, rng)
            z = random_element(algebra, cfg, rng)
            msg = _mismatch_elements((x * y) * z, x * (y * z))
            if msg:
                failures.append(
                    f"{algebra.name}: x={x.render()}, y={y.render()}, z={z.render()}: {msg}"
                )
    return CheckReport("associativity", tuple(ALGEBRAS), trials, tuple(failures))


@_register("subalgebra-embedding")
def _check_subalgebra_embedding(cfg: TrialConfig, rng: random.Random) -> CheckReport:
    failures = []
    trials = 0
    for embed in (embed_left, embed_right):
        for _ in range(cfg.trials):
            trials += 1
            x = random_element(TORUS, cfg, rng)
            y = random_element(TORUS, cfg, rng)
            msg = _mismatch_elements(embed(x * y), embed(x) * embed(y))
            if msg:
                failures.append(
                    f"{embed.name}: x={x.render()}, y={y.render()}: {msg}"
                )
    return CheckReport("subalgebra-embedding", ("torus", "p2"), trials, tuple(failures))


def _oracle_pair_failure(
    algebra: AlgebraDescriptor,
    a: MultiIndex,
    b: MultiIndex,
    xa: AlgebraElement,
    xb: AlgebraElement,
    seq: Sequence[tuple[int, int]],
    with_probes: bool,
) -> str | None:
    prod = xa * xb
    exponent, idx = normal_order_exponent(algebra, seq)
    expected = phase_pow(exponent)
    if prod.support != {idx: expected}:
        if len(prod.support) != 1:
            return f"{algebra.name} {a}x{b}: product is not a monomial"
        return (
            f"{algebra.name} {a}x{b}: product {prod.render()} vs "
            f"rewriting s^{exponent} delta^{idx}"
        )
    if with_probes:
        pc = prod.support[idx]
        for theta in THETA_PROBES:
            gap = abs(pc.eval_numeric(theta) - expected.eval_numeric(theta))
            if gap > NUMERIC_TOL:
                return f"{algebra.name} {a}x{b}: numeric gap {gap:.3e} at theta={theta}"
    return None


@_register("oracle-equivalence")
def _check_oracle_equivalence(cfg: TrialConfig, rng: random.Random) -> CheckReport:
    """Cocycle product vs normal ordering: exhaustive for d=2,4, random for d=6."""
    failures = []
    trials = 0
    for algebra in (TORUS, P2):
        idxs = [tuple(t) for t in itertools.product(range(-2, 3), repeat=algebra.d)]
        seqs = {a: tuple((p, k) for p, k in enumerate(a) if k) for a in idxs}
        basis = {a: algebra.basis(a) for a in idxs}
        for a in idxs:
            xa = basis[a]
            sa = seqs[a]
            for b in idxs:
                trials += 1
                msg = _oracle_pair_failure(
                    algebra, a, b, xa, basis[b], sa + seqs[b], trials % 97 == 0
                )
                if msg and len(failures) < 5:
                    failures.append(msg)
    for _ in range(max(1000, cfg.trials)):
        trials += 1
        a = tuple(rng.randint(-2, 2) for _ in range(6))
        b = tuple(rng.randint(-2, 2) for _ in range(6))
        seq = [(p, k) for p, k in enumerate(a) if k] + [
            (p, k) for p, k in enumerate(b) if k
        ]
        msg = _oracle_pair_failure(
            P3, a, b, P3.basis(a), P3.basis(b), seq, trials % 97 == 0
        )
        if msg and len(failures) < 5:
            failures.append(msg)
    return CheckReport("oracle-equivalence", ("torus", "p2", "p3"), trials, tuple(failures))


@_register("confluence")
def _check_confluence(cfg: TrialConfig, rng: random.Random) -> CheckReport:
    """Normal ordering is invariant under phase-tracked reshuffling."""
    failures = []
    trials = 0
    nontrivial_powers = [-3, -2, -1, 1, 2, 3]
    for algebra in ALGEBRAS.values():
        for _ in range(max(500, cfg.trials)):
            trials += 1
            seq = [
                (rng.randrange(algebra.d), rng.choice(nontrivial_powers))
                for _ in range(rng.randint(1, 6))
            ]
            e0, idx0 = normal_order_exponent(algebra, seq)
            shuffled = list(seq)
            acc = 0
            for _ in range(rng.randint(1, 8)):
                if len(shuffled) < 2:
                    break
                i = rng.randrange(len(shuffled) - 1)
                (a, p), (b, r) = shuffled[i], shuffled[i + 1]
                acc += swap_exponent(algebra, a, b) * p * r
                shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
            e1, idx1 = normal_order_exponent(algebra, shuffled)
            if idx1 != idx0 or e1 != e0 - acc:
                failures.append(
                    f"{algebra.name}: word {seq} -> s^{e0} delta^{idx0}, "
                    f"shuffle -> s^{e1} delta^{idx1} with tracked phase {acc}"
                )
    return CheckReport("confluence", tuple(ALGEBRAS), trials, tuple(failures))


# The product formula variant whose final cross term couples the first
# factor's U2-exponent to the second factor's V2-exponent (q^(-m1 n2), in
# s-units -2*a[2]*b[3]).  It contradicts the relation U2 V2 = q V2 U2; the
# implemented cocycle uses q^(-m2 n1) instead.
P2_FORMULA_VARIANT: tuple[tuple[int, ...], ...] = (
    (0, 0, 0, 0),
    (-2, 0, 0, 0),
    (0, -1, 0, -2),
    (1, 0, 0, 0),
)


@_register("p2-formula-vs-relations-discrepancy")
def _check_p2_discrepancy(cfg: TrialConfig, rng: random.Random) -> CheckReport:
    """The variant exponent disagrees with the relations exactly where expected.

    This check passes by *confirming* the discrepancy on (U2, V2) and by
    confirming that the implemented bilinear form matches the rewriting
    oracle everywhere on a small exhaustive box.
    """
    failures = []
    trials = 0
    u2, v2 = (0, 0, 1, 0), (0, 0, 0, 1)
    trials += 1
    variant_exp = bilinear_exponent(P2_FORMULA_VARIANT, u2, v2)
    oracle_exp, oracle_idx = normal_order_exponent(P2, [(2, 1), (3, 1)])
    if variant_exp != -2:
        failures.append(f"variant exponent on (U2, V2) is s^{variant_exp}, expected s^-2 (q^-1)")
    if oracle_exp != 0 or oracle_idx != (0, 0, 1, 1):
        failures.append(f"relations give s^{oracle_exp} delta^{oracle_idx}, expected delta^(0,0,1,1)")
    if variant_exp == oracle_exp:
        failures.append("variant formula unexpectedly agrees with the relations on (U2, V2)")
    if P2.phase_exponent(u2, v2) != oracle_exp:
        failures.append("implemented cocycle disagrees with the relations on (U2, V2)")
    box = [tuple(t) for t in itertools.product(range(-1, 2), repeat=4)]
    for a in box:
        for b in box:
            trials += 1
            seq = [(p, k) for p, k in enumerate(a) if k] + [
                (p, k) for p, k in enumerate(b) if k
            ]
            e, idx = normal_order_exponent(P2, seq)
            if e != P2.phase_exponent(a, b) or idx != tuple(x + y for x, y in zip(a, b)):
                failures.append(f"corrected cocycle disagrees with rewriting on {a}x{b}")
    return CheckReport(
        "p2-formula-vs-relations-discrepancy", ("p2",), trials, tuple(failures)
    )


@_register("q1-degeneration")
def _check_q1_degeneration(cfg: TrialConfig, rng: random.Random) -> CheckReport:
    """At theta = 0 (q = 1) every product commutes numerically."""
    failures = []
    trials = 0
    for algebra in (TORUS, P2, P3):
        for _ in range(cfg.trials):
            trials += 1
            x = random_element(algebra, cfg, rng)
            y = random_element(algebra, cfg, rng)
            gap = _numeric_gap_elements(x * y, y * x, 0.0)
            if gap > NUMERIC_TOL:
                failures.append(
                    f"{algebra.name}: commutator gap {gap:.3e} at theta=0 for "
                    f"x={x.render()}, y={y.render()}"
                )
    return CheckReport("q1-degeneration", ("torus", "p2", "p3"), trials, tuple(failures))


def _homomorphism_report(
    name: str,
    fmap: LinearMap,
    cfg: TrialConfig,
    rng: random.Random,
) -> CheckReport:
    failures = []
    for _ in range(cfg.trials):
        x = random_element(fmap.source, cfg, rng)
        y = random_element(fmap.source, cfg, rng)
        msg = _mismatch_elements(fmap(x * y), fmap(x) * fmap(y))
        if msg:
            failures.append(f"x={x.render()}, y={y.render()}: {msg}")
    algebras = (fmap.source.name, fmap.target.name)
    return CheckReport(name, algebras, cfg.trials, tuple(failures))


CHECKS.update(
    (name, partial(_homomorphism_report, name, fmap))
    for name, fmap in (
        ("delta-homomorphism", comult),
        ("delta-id-homomorphism", lift_left_comult),
        ("id-delta-homomorphism", lift_right_comult),
        ("antipode-homomorphism", antipode),  # a homomorphism, not an anti-homomorphism
        ("circle-delta-homomorphism", circle_comult),
    )
)


def _torus_basis_box(bound: int) -> list[MultiIndex]:
    return [tuple(t) for t in itertools.product(range(-bound, bound + 1), repeat=2)]


@_register("coassociativity")
def _check_coassociativity(cfg: TrialConfig, rng: random.Random) -> CheckReport:
    """Both one-sided comultiplication lifts of the comultiplication agree."""
    failures = []
    trials = 0
    for k, l in _torus_basis_box(3):
        trials += 1
        x = TORUS.basis((k, l))
        left = lift_left_comult(comult(x))
        right = lift_right_comult(comult(x))
        closed = phase_pow(-2 * k * l) * P3.basis((k, l, k, l, k, l))
        msg = _mismatch_elements(left, right) or _mismatch_elements(left, closed)
        if msg:
            failures.append(f"basis ({k},{l}): {msg}")
    for _ in range(cfg.trials):
        trials += 1
        x = random_element(TORUS, cfg, rng)
        msg = _mismatch_elements(
            lift_left_comult(comult(x)), lift_right_comult(comult(x))
        )
        if msg:
            failures.append(f"x={x.render()}: {msg}")
    return CheckReport("coassociativity", ("torus", "p2", "p3"), trials, tuple(failures))


@_register("counit-laws")
def _check_counit_laws(cfg: TrialConfig, rng: random.Random) -> CheckReport:
    failures = []
    trials = 0
    inputs: list[AlgebraElement] = [TORUS.basis(idx) for idx in _torus_basis_box(3)]
    for _ in range(cfg.trials):
        inputs.append(random_element(TORUS, cfg, rng))
    for x in inputs:
        trials += 1
        if (msg := _mismatch_elements(lift_left_counit(comult(x)), x)) or (
            msg := _mismatch_elements(lift_right_counit(comult(x)), x)
        ):
            failures.append(f"x={x.render()}: {msg}")
    return CheckReport("counit-laws", ("torus", "p2"), trials, tuple(failures))


@_register("antipode-law")
def _check_antipode_law(cfg: TrialConfig, rng: random.Random) -> CheckReport:
    """Collapsing either one-sided inversion of the comultiplication gives the counit."""
    failures = []
    trials = 0
    one = TORUS.unit()
    for k, l in _torus_basis_box(3):
        trials += 1
        x = TORUS.basis((k, l))
        # intermediate chain on basis monomials: s^(-kl) delta^(k,l,k,l)
        # |-> s^(-kl) delta^(-k,-l,k,l) |-> s^(-kl) s^(2kl) = s^(kl) times the unit
        mid = lift_left_antipode(comult(x))
        expected_mid = phase_pow(-k * l) * P2.basis((-k, -l, k, l))
        target = counit(x) * one
        msg = (
            _mismatch_elements(mid, expected_mid)
            or _mismatch_elements(mult_map(mid), phase_pow(k * l) * one)
            or _mismatch_elements(mult_map(mid), target)
            or _mismatch_elements(mult_map(lift_right_antipode(comult(x))), target)
        )
        if msg:
            failures.append(f"basis ({k},{l}): {msg}")
    for _ in range(cfg.trials):
        trials += 1
        x = random_element(TORUS, cfg, rng)
        target = counit(x) * one
        if (msg := _mismatch_elements(mult_map(lift_left_antipode(comult(x))), target)) or (
            msg := _mismatch_elements(mult_map(lift_right_antipode(comult(x))), target)
        ):
            failures.append(f"x={x.render()}: {msg}")
    return CheckReport("antipode-law", ("torus", "p2"), trials, tuple(failures))


@_register("counit-non-homomorphism")
def _check_counit_witness(cfg: TrialConfig, rng: random.Random) -> CheckReport:
    """The counit is linear but multiplicative on no account: eps(UV) != eps(U)eps(V)."""
    failures = []
    u, v = TORUS.generator("U"), TORUS.generator("V")
    lhs = counit(u * v)
    rhs = counit(u) * counit(v)
    if lhs != phase_pow(1):
        failures.append(f"eps(U V) = {lhs.render()}, expected q^(1/2)")
    if rhs != ONE:
        failures.append(f"eps(U) eps(V) = {rhs.render()}, expected 1")
    if lhs == rhs:
        failures.append("eps unexpectedly multiplicative on (U, V)")
    if all(
        abs(lhs.eval_numeric(theta) - rhs.eval_numeric(theta)) <= NUMERIC_TOL
        for theta in THETA_PROBES[1:]
    ):
        failures.append("witness values numerically indistinguishable away from q=1")
    return CheckReport("counit-non-homomorphism", ("torus",), 1, tuple(failures))


@_register("mu-represents-multiplication")
def _check_mu_multiplication(cfg: TrialConfig, rng: random.Random) -> CheckReport:
    failures = []
    trials = 0
    box = _torus_basis_box(2)
    for a in box:
        xa = TORUS.basis(a)
        for b in box:
            trials += 1
            xb = TORUS.basis(b)
            msg = _mismatch_elements(
                mult_map(embed_left(xa) * embed_right(xb)), xa * xb
            )
            if msg:
                failures.append(f"{a}x{b}: {msg}")
    return CheckReport("mu-represents-multiplication", ("torus", "p2"), trials, tuple(failures))


def _image_seq(
    target: AlgebraDescriptor,
    images: dict[str, tuple[tuple[str, int], ...]],
    source: AlgebraDescriptor,
    idx: MultiIndex,
) -> list[tuple[int, int]]:
    """The word over the target obtained by substituting generator images."""
    seq: list[tuple[int, int]] = []
    for pos, power in enumerate(idx):
        if not power:
            continue
        letters = [
            (target.generator_position(nm), pw)
            for nm, pw in images[source.generator_names[pos]]
        ]
        if power > 0:
            seq.extend(letters * power)
        else:
            inverse = [(p, -pw) for p, pw in reversed(letters)]
            seq.extend(inverse * (-power))
    return seq


@_register("derived-rules-oracle")
def _check_derived_rules(cfg: TrialConfig, rng: random.Random) -> CheckReport:
    """The maps' data (A, P) agree with replaying generator images through rewriting."""
    failures = []
    trials = 0
    boxes: dict[str, Iterable[MultiIndex]] = {
        "delta": _torus_basis_box(3),
        "S": _torus_basis_box(3),
        "circle-delta": [(n,) for n in range(-6, 7)],
        "delta-id": [tuple(t) for t in itertools.product(range(-2, 3), repeat=4)],
        "id-delta": [tuple(t) for t in itertools.product(range(-2, 3), repeat=4)],
    }
    for map_name, images in GENERATOR_IMAGES.items():
        fmap = MAPS[map_name]
        for idx in boxes[map_name]:
            trials += 1
            seq = _image_seq(fmap.target, images, fmap.source, idx)
            exponent, jdx = normal_order_exponent(fmap.target, seq)
            got = fmap(fmap.source.basis(idx))
            expected = phase_pow(exponent) * fmap.target.basis(jdx)
            msg = _mismatch_elements(got, expected)
            if msg:
                failures.append(f"{map_name} on delta^{idx}: {msg}")
    return CheckReport(
        "derived-rules-oracle", ("torus", "p2", "p3"), trials, tuple(failures)
    )


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
