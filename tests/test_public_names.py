"""The package exports exactly its public names, each once."""

import importlib
import pkgutil
import types

import pytest

import antiassoc

PUBLIC_NAMES = """
AaaElement AlgebraContext AlgebraError Coefficient DEFAULT_CONTEXT DegreeMismatchError
EmptyAlphabetError Env EvalError ExprError ExprSyntaxError InvalidSymbolError KeySelector
LengthMismatchError LexError ParseError RaggedMatrixError ScalarOperandError TermKey
UnboundVariableError add as_coeff check_symbol d1 d2 dc double extract extract_matrix
from_symbols make_element mul neg parse raaa replace replace_matrix run_program s1 sc
scalar_mul serialize set_double set_single set_triple single sub t1 t2 t3 tc triple zero
""".split()


def test_all_lists_the_public_names():
    assert len(PUBLIC_NAMES) == 53
    assert sorted(antiassoc.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(antiassoc.__all__)) == len(antiassoc.__all__)


def test_every_name_resolves_and_none_is_a_module():
    for name in antiassoc.__all__:
        assert not isinstance(getattr(antiassoc, name), types.ModuleType), name


MODULES = ("access", "core", "exprlang", "rng", "textio")


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(antiassoc.__path__)))
def test_every_all_in_the_package_names_something_that_exists(module):
    """Private modules too: an ``__all__`` entry nothing imports is stale unseen."""
    imported = importlib.import_module(f"antiassoc.{module}")
    missing = [name for name in getattr(imported, "__all__", ()) if not hasattr(imported, name)]
    assert missing == []


def test_package_exports_exactly_its_modules_all():
    modules = [importlib.import_module(f"antiassoc.{name}") for name in MODULES]
    concatenated = [name for module in modules for name in module.__all__]
    assert antiassoc.__all__ == concatenated
    assert len(set(concatenated)) == len(concatenated)


@pytest.mark.parametrize(
    "module, name",
    [
        ("core", "SYMBOL_RE"),
        ("exprlang", "MAX_RAAA_TERMS"),
        ("exprlang", "tokenize"),
        ("exprlang", "parse_program"),
        ("rng", "SplitMix64"),
        ("rng", "xoshiro"),
        ("rng", "DEFAULT_ALPHABET"),
    ],
)
def test_names_left_out_of_all_still_import_from_their_module(module, name):
    assert hasattr(importlib.import_module(f"antiassoc.{module}"), name)
    assert name not in antiassoc.__all__
