"""Exact computer algebra for noncommutative 2-tori.

The smooth noncommutative 2-torus with parameter q on the unit circle, its
deformed tensor square and cube, the comultiplication / counit / antipode /
multiplication structure maps between them, a normal-ordering oracle driven
purely by the generator relations, and a seeded verification suite checking
every identity exactly.
"""

from .phases import (
    ONE,
    ZERO,
    GaussianRational,
    ParseError,
    PhaseScalar,
    parse_phase,
    phase_pow,
)
from .algebra import (
    ALGEBRAS,
    CIRCLE,
    P2,
    P3,
    POINT,
    TORUS,
    AlgebraDescriptor,
    AlgebraElement,
    MultiIndex,
)
from .rewrite import (
    RELATION_ROWS,
    GeneratorSymbol,
    Word,
    normal_order,
    normal_order_exponent,
    swap_exponent,
    word_of_index,
)
from .maps import (
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
from .suite import (
    CHECKS,
    DEFAULT_SELECTION,
    CheckReport,
    TrialConfig,
    random_element,
    run_suite,
)
from .cli import main, parse_expression

__version__ = "0.1.0"

__all__ = [
    "ONE",
    "ZERO",
    "GaussianRational",
    "ParseError",
    "PhaseScalar",
    "parse_phase",
    "phase_pow",
    "ALGEBRAS",
    "CIRCLE",
    "P2",
    "P3",
    "POINT",
    "TORUS",
    "AlgebraDescriptor",
    "AlgebraElement",
    "MultiIndex",
    "RELATION_ROWS",
    "GeneratorSymbol",
    "Word",
    "normal_order",
    "normal_order_exponent",
    "swap_exponent",
    "word_of_index",
    "MAPS",
    "LinearMap",
    "antipode",
    "circle_comult",
    "comult",
    "counit",
    "embed_left",
    "embed_right",
    "lift_left_antipode",
    "lift_left_comult",
    "lift_left_counit",
    "lift_right_antipode",
    "lift_right_comult",
    "lift_right_counit",
    "mult_map",
    "CHECKS",
    "DEFAULT_SELECTION",
    "CheckReport",
    "TrialConfig",
    "random_element",
    "run_suite",
    "main",
    "parse_expression",
]
