"""The benchmark workloads: seeded inputs, the timed op, and its verification.

Each workload draws its inputs from ``random.Random`` seeded by the
benchmark's ``--seed`` as plain Python data (exponent tuples and ``Fraction``
pairs), digests that data, and only then hands it to the library.  One op is
one call of :meth:`Workload.run` on one job; :meth:`Workload.verify` checks
its output outside the timed region.  The first output of each job is checked
in full (identities and independent references) and kept; every later op on
the same job must reproduce it exactly.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from qtorus import (
    DEFAULT_SELECTION,
    P2,
    P3,
    TORUS,
    AlgebraElement,
    GaussianRational,
    PhaseScalar,
    TrialConfig,
    comult,
    counit,
    lift_left_antipode,
    lift_left_comult,
    lift_right_comult,
    cli,
    mult_map,
    run_suite,
)

import reference

COEFF_FRACTIONS = sorted({Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)})
S_EXPONENTS = range(-4, 5)

# Trial counts of the default suite at trials=200.  None of them depends on
# the seed, so a run with fewer trials or a smaller box cannot pass.
PINNED_TRIALS = {
    "torus-relation": 1,
    "p2-relations": 6,
    "p3-relations": 15,
    "swap-table-consistency": 22,
    "unit-law": 800,
    "associativity": 800,
    "subalgebra-embedding": 400,
    "oracle-equivalence": 392250,
    "confluence": 2000,
    "p2-formula-vs-relations-discrepancy": 6562,
    "q1-degeneration": 600,
    "delta-homomorphism": 200,
    "delta-id-homomorphism": 200,
    "id-delta-homomorphism": 200,
    "antipode-homomorphism": 200,
    "circle-delta-homomorphism": 200,
    "coassociativity": 249,
    "counit-laws": 249,
    "antipode-law": 249,
    "counit-non-homomorphism": 1,
    "mu-represents-multiplication": 625,
    "derived-rules-oracle": 1361,
}

# Torus elements normalized by the CLI cold-start probe.
CLI_SPAWNS = 24
CLI_TERMS, CLI_BOUND = 16, 3


def _gaussian(rng: random.Random) -> tuple[Fraction, Fraction]:
    while True:
        re, im = rng.choice(COEFF_FRACTIONS), rng.choice(COEFF_FRACTIONS)
        if re or im:
            return re, im


def raw_scalar(rng: random.Random, terms: int) -> reference.RawScalar:
    return {e: _gaussian(rng) for e in sorted(rng.sample(S_EXPONENTS, terms))}


def raw_element(
    rng: random.Random, d: int, terms: int, bound: int, coeff_terms: tuple[int, ...]
) -> reference.RawElement:
    """``terms`` distinct indices in [-bound, bound]^d; term i gets coeff_terms[i] s-powers."""
    idxs: set[tuple[int, ...]] = set()
    while len(idxs) < terms:
        idxs.add(tuple(rng.randint(-bound, bound) for _ in range(d)))
    order = sorted(idxs)
    rng.shuffle(order)
    return {idx: raw_scalar(rng, k) for idx, k in zip(order, coeff_terms)}


def build(algebra, raw: reference.RawElement) -> AlgebraElement:
    return AlgebraElement(
        algebra,
        {
            idx: PhaseScalar({e: GaussianRational(re, im) for e, (re, im) in c.items()})
            for idx, c in raw.items()
        },
    )


def digest(data) -> str:
    """sha256 of the generated inputs, so two commits can show they measured the same."""
    return hashlib.sha256(repr(data).encode()).hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.golden: dict[int, object] = {}
        rng = random.Random(f"{seed}:cli")
        self.cli_raw = [
            raw_element(rng, 2, CLI_TERMS, CLI_BOUND, (1,) * CLI_TERMS)
            for _ in range(CLI_SPAWNS)
        ]

    def setup(self) -> None:
        """Build library inputs from the generated data and warm up with one op."""
        self.jobs = self.make_jobs()
        self.run(self.jobs[0])

    def inputs_digest(self) -> str:
        return digest((self.name, self.seed, self.raw_inputs(), self.cli_raw))

    def cli_inputs(self) -> list[tuple[str, str]]:
        """(algebra, canonical text) pairs; `qtorus normalize` must echo the text."""
        return [("torus", build(TORUS, raw).render()) for raw in self.cli_raw]

    def verify(self, job: int, out) -> str | None:
        """None if ``out`` is right for job ``job``, else a description."""
        if job not in self.golden:
            err = self.check_first(self.jobs[job], out)
            if err:
                return err
            self.golden[job] = out
            return None
        if out != self.golden[job]:
            return f"job {job}: output differs from the first, verified, output"
        return None

    def facts(self) -> dict:
        """Fixed input sizes, printed with the workload's row."""
        return {}


class SuiteDefault(Workload):
    """`qtorus check` traffic: one op is a full default-suite pass."""

    name = "suite-default"
    trials = 200

    def raw_inputs(self):
        return {"seed": self.seed, "trials": self.trials}

    def make_jobs(self):
        return [TrialConfig(seed=self.seed, trials=self.trials)]

    def setup(self) -> None:
        self.jobs = self.make_jobs()
        run_suite(TrialConfig(seed=self.seed, trials=1), ["torus-relation", "unit-law"])

    def run(self, cfg):
        return tuple(run_suite(cfg))

    def verify(self, job: int, reports) -> str | None:
        # Every pass is checked in full: it is cheap next to the pass itself.
        got = {r.name: r for r in reports}
        if [r.name for r in reports] != list(DEFAULT_SELECTION):
            return "reports are not in DEFAULT_SELECTION order"
        for name, trials in PINNED_TRIALS.items():
            if name not in got:
                return f"check {name} did not run"
            if got[name].trials != trials:
                return f"check {name} ran {got[name].trials} trials, pinned {trials}"
        failed = [r.name for r in reports if r.failures]
        if failed:
            return f"checks failed: {', '.join(failed)}"
        return None

    def facts(self):
        return {"trials": self.trials, "checks": len(DEFAULT_SELECTION)}


class DenseProduct(Workload):
    """Element products whose cost is coefficient arithmetic."""

    name = "dense-product"
    # algebra, left terms, right terms, exponent bound, pairs
    SHAPES = ((P3, 35, 50, 1, 4), (P2, 35, 50, 2, 4))
    # The right factor is z * w with w a 2-term Laurent scalar times the unit,
    # so each of its coefficients has exactly 2 s-powers.
    LAURENT_TERMS = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"{seed}:{self.name}")
        self.raw = []
        for algebra, nx, ny, bound, pairs in self.SHAPES:
            for _ in range(pairs):
                x = raw_element(rng, algebra.d, nx, bound, (1,) * nx)
                z = raw_element(rng, algebra.d, ny, bound, (1,) * ny)
                w = {(0,) * algebra.d: raw_scalar(rng, self.LAURENT_TERMS)}
                self.raw.append((algebra, x, z, w))

    def raw_inputs(self):
        return [(a.name, x, z, w) for a, x, z, w in self.raw]

    def make_jobs(self):
        jobs = []
        for algebra, x, z, w in self.raw:
            left = build(algebra, x)
            right = build(algebra, z) * build(algebra, w)
            # Both orders: a 1-term left coefficient takes PhaseScalar's
            # monomial shortcut, a 2-term one the general double loop.
            jobs.append((left, right, (algebra, x, z, w), False))
            jobs.append((right, left, (algebra, x, z, w), True))
        return jobs

    def run(self, job):
        left, right, _, _ = job
        return left * right

    def check_first(self, job, out) -> str | None:
        _, _, (algebra, x, z, w), swapped = job
        y = reference.product(algebra, z, w)
        want = reference.product(algebra, y, x) if swapped else reference.product(algebra, x, y)
        if reference.raw_of(out) != want:
            return f"{algebra.name} product differs from the Fraction-pair reference"
        return None

    def facts(self):
        return {
            "pairs": [f"{a.name} {nx}x{ny} box [-{b},{b}]^{a.d} x{p} both orders"
                      for a, nx, ny, b, p in self.SHAPES],
            "coeff_terms": f"left 1, right {self.LAURENT_TERMS}",
        }


class MapsRoundtrip(Workload):
    """Front end and structure maps on 16-term torus and p2 elements."""

    name = "maps-roundtrip"
    TERMS = 16
    # algebra, exponent bound, elements; 4 of the 16 terms carry 2 s-powers
    SHAPES = ((TORUS, 3, 16), (P2, 2, 16))
    COEFF_TERMS = (2,) * 4 + (1,) * 12

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"{seed}:{self.name}")
        self.raw = [
            (algebra, raw_element(rng, algebra.d, self.TERMS, bound, self.COEFF_TERMS))
            for algebra, bound, count in self.SHAPES
            for _ in range(count)
        ]
        # interleave torus and p2 so any prefix of the job cycle has both
        half = len(self.raw) // 2
        self.raw = [r for pair in zip(self.raw[:half], self.raw[half:]) for r in pair]

    def raw_inputs(self):
        return [(a.name, x) for a, x in self.raw]

    def make_jobs(self):
        return [(build(algebra, x), x) for algebra, x in self.raw]

    def run(self, job):
        x = job[0]
        algebra = x.algebra
        parsed = cli.parse_expression(algebra, x.render())
        if algebra is TORUS:
            d, eps = comult(x), counit(x)
        else:
            d, eps = x, None
        left = lift_left_comult(d)
        right = lift_right_comult(d)
        collapsed = mult_map(lift_left_antipode(d))
        text = left.render()
        restored = AlgebraElement.from_records(P3, json.loads(json.dumps(left.to_records())))
        x_restored = AlgebraElement.from_records(
            algebra, json.loads(json.dumps(x.to_records()))
        )
        return (parsed, x_restored, left, right, collapsed, eps, text, restored)

    def check_first(self, job, out) -> str | None:
        x, raw = job
        parsed, x_restored, left, right, collapsed, eps, text, restored = out
        if parsed != x:
            return f"{x.algebra.name}: parse(render(x)) != x"
        if x_restored != x:
            return f"{x.algebra.name}: from_records(to_records(x)) != x"
        if restored != left:
            return f"{x.algebra.name}: records round trip of the p3 image differs"
        if cli.parse_expression(P3, text) != left:
            return f"{x.algebra.name}: parse(render(image)) != image"
        if x.algebra is TORUS:
            if left != right:
                return "torus: coassociativity fails"
            if collapsed != TORUS.unit().scale(eps):
                return "torus: mult_map(lift_left_antipode(comult(x))) != counit(x) 1"
            return None
        if reference.raw_of(left) != reference.apply_homomorphism(
            P3, reference.LIFT_LEFT_COMULT_P2, raw
        ):
            return "p2: lift_left_comult differs from the rewriting reference"
        if reference.raw_of(right) != reference.apply_homomorphism(
            P3, reference.LIFT_RIGHT_COMULT_P2, raw
        ):
            return "p2: lift_right_comult differs from the rewriting reference"
        if reference.raw_of(collapsed) != reference.collapse_left_antipode(TORUS, raw):
            return "p2: mult_map(lift_left_antipode(x)) differs from the rewriting reference"
        return None

    def facts(self):
        return {
            "elements": [f"{a.name} {self.TERMS} terms box [-{b},{b}]^{a.d} x{n}"
                         for a, b, n in self.SHAPES],
            "coeff_terms": "4 terms with 2 s-powers, 12 with 1",
        }


WORKLOADS = {w.name: w for w in (SuiteDefault, DenseProduct, MapsRoundtrip)}
