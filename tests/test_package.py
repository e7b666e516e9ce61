"""The package surface: the names ``qtorus`` exports are the objects of the
modules that declare them public."""

import importlib
import types

import qtorus

MODULES = ("algebra", "phases", "rewrite", "maps", "suite", "cli")

# the names ``qtorus.__all__`` held when the package listed them itself
PACKAGE_NAMES = (
    "ONE", "ZERO", "GaussianRational", "ParseError", "PhaseScalar", "parse_phase",
    "phase_pow", "ALGEBRAS", "CIRCLE", "P2", "P3", "POINT", "TORUS", "AlgebraDescriptor",
    "AlgebraElement", "MultiIndex", "RELATION_ROWS", "GeneratorSymbol", "Word",
    "normal_order", "normal_order_exponent", "swap_exponent", "word_of_index", "MAPS",
    "LinearMap", "antipode", "circle_comult", "comult", "counit", "embed_left",
    "embed_right", "lift_left_antipode", "lift_left_comult", "lift_left_counit",
    "lift_right_antipode", "lift_right_comult", "lift_right_counit", "mult_map", "CHECKS",
    "DEFAULT_SELECTION", "CheckReport", "TrialConfig", "random_element", "run_suite",
    "main", "parse_expression",
)


def _declaring_modules(name: str) -> list[types.ModuleType]:
    modules = [importlib.import_module(f"qtorus.{m}") for m in MODULES]
    return [m for m in modules if name in m.__all__]


def test_each_package_name_is_the_object_its_module_declares():
    assert len(set(PACKAGE_NAMES)) == 46
    for name in PACKAGE_NAMES:
        assert hasattr(qtorus, name), name
        declaring = _declaring_modules(name)
        assert declaring, name
        for module in declaring:
            assert getattr(qtorus, name) is getattr(module, name), (name, module.__name__)
    # the benchmark imports the cli module from the package
    assert qtorus.cli is importlib.import_module("qtorus.cli")
    assert isinstance(qtorus.cli, types.ModuleType)
    namespace: dict = {}
    exec("from qtorus import *", namespace)
    assert set(PACKAGE_NAMES) <= namespace.keys()


def test_the_package_exports_each_modules_all_and_nothing_else():
    declared = {name for m in MODULES for name in importlib.import_module(f"qtorus.{m}").__all__}
    assert set(qtorus.__all__) == declared
    namespace: dict = {}
    exec("from qtorus import *", namespace)
    assert namespace.keys() - {"__builtins__"} == declared
    for name in declared:
        assert all(getattr(qtorus, name) is getattr(m, name) for m in _declaring_modules(name))
