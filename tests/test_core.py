import copy
import pickle
from fractions import Fraction

import pytest

from antiassoc import (
    AaaElement,
    AlgebraContext,
    DEFAULT_CONTEXT,
    InvalidSymbolError,
    KeySelector,
    LengthMismatchError,
    add,
    as_coeff,
    check_symbol,
    extract_matrix,
    from_symbols,
    make_element,
    mul,
    neg,
    parse,
    raaa,
    scalar_mul,
    serialize,
    sub,
    zero,
)
from conftest import PRODUCT_TEXT, X1_TEXT, X_PLUS_X1_TEXT, X_TEXT, Y_TEXT, Z_TEXT


def gens(*names):
    return [from_symbols([n]) for n in names]


class TestSymbols:
    def test_valid_names(self):
        for name in ("a", "foo", "x1", "_tmp", "A_B_9"):
            assert check_symbol(name) == name

    @pytest.mark.parametrize(
        "bad",
        [
            "", "9a", "a.b", "a b", "a+b", "p*q", "x(", "y)", "u=v", "s,t", "a\tb", "a-b",
            "é", "a$", "a:b", "x'", "ab/c",
        ],
    )
    def test_invalid_names(self, bad):
        with pytest.raises(InvalidSymbolError):
            check_symbol(bad)

    def test_non_string(self):
        with pytest.raises(InvalidSymbolError):
            check_symbol(3)

    @pytest.mark.parametrize(
        "call, text",
        [
            pytest.param(lambda: from_symbols("foo"), "foo", id="from_symbols"),
            pytest.param(lambda: make_element(s1="ab", sc=[1, 2]), "ab", id="make_element"),
            pytest.param(lambda: KeySelector(s1="ce"), "ce", id="KeySelector"),
            pytest.param(lambda: extract_matrix(zero(), ["ab"]), "ab", id="extract_matrix"),
            pytest.param(lambda: raaa(1, alphabet="pq"), "pq", id="raaa"),
        ],
    )
    def test_bare_string_is_not_a_list_of_symbols(self, call, text):
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == f"expected a sequence of symbol names, not the string {text!r}"


class TestCoefficients:
    def test_int_stays_int(self):
        assert as_coeff(5) == 5 and isinstance(as_coeff(5), int)

    def test_integral_fraction_collapses(self):
        assert isinstance(as_coeff(Fraction(4, 2)), int)

    def test_text(self):
        assert as_coeff("3/2") == Fraction(3, 2)
        assert as_coeff("-7") == -7

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            as_coeff(0.5)

    def test_bool_rejected(self):
        for flag in (True, False):
            with pytest.raises(TypeError):
                as_coeff(flag)

    def test_bad_text(self):
        with pytest.raises(ValueError):
            as_coeff("3/0")

    def test_subclasses_become_plain_types(self):
        class Loud(int):
            def __str__(self):
                return "loud"

        class LoudFraction(Fraction):
            def __str__(self):
                return "loud"

        assert type(as_coeff(Loud(3))) is int
        assert type(as_coeff(LoudFraction(3, 2))) is Fraction
        assert type(as_coeff(LoudFraction(4, 2))) is int
        e = AaaElement({("a",): Loud(3)}, {("a", "b"): LoudFraction(3, 2)}, {})
        assert type(e.singles[("a",)]) is int
        assert type(e.doubles[("a", "b")]) is Fraction
        assert serialize(e) == "+3a +3/2a.b"


class TestConstruction:
    def test_zero_has_no_terms(self):
        assert not zero()
        assert serialize(zero()) == "0"

    def test_from_symbols(self, x):
        assert serialize(x) == X_TEXT

    def test_from_symbols_accumulates(self):
        assert serialize(from_symbols(["a", "a"])) == "+2a"

    def test_from_symbols_empty(self):
        assert from_symbols([]) == zero()

    def test_make_element_singles(self, x1):
        assert serialize(x1) == X1_TEXT

    def test_make_element_doubles(self, y):
        assert serialize(y) == Y_TEXT

    def test_make_element_triples(self, z):
        assert serialize(z) == Z_TEXT

    def test_make_element_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            make_element(s1=["a", "b"], sc=[1])
        with pytest.raises(LengthMismatchError):
            make_element(d1=["a"], d2=["b", "c"], dc=[1])

    def test_make_element_duplicate_keys_accumulate(self):
        e = make_element(s1=["a", "a"], sc=[2, 3])
        assert serialize(e) == "+5a"

    def test_make_element_zero_sum_dropped(self):
        e = make_element(d1=["a", "a"], d2=["b", "b"], dc=[2, -2])
        assert e == zero()

    def test_direct_construction_normalizes(self):
        e = AaaElement({("a",): Fraction(4, 2)}, {("a", "b"): 0}, {})
        assert e.singles == {("a",): 2}
        assert e.doubles == {}

    def test_direct_construction_rejects_wrong_degree(self):
        with pytest.raises(LengthMismatchError):
            AaaElement({("a", "b"): 1}, {}, {})

    def test_direct_construction_rejects_bad_symbol(self):
        # "+1a.b" would parse back as a degree-2 term.
        with pytest.raises(InvalidSymbolError):
            AaaElement({("a.b",): 1}, {}, {})
        for maps in (({}, {("a", ""): 1}, {}), ({}, {}, {("a", "b", "\u00e9"): 1})):
            with pytest.raises(InvalidSymbolError):
                AaaElement(*maps)


class TestHashing:
    def test_equal_elements_hash_equal(self):
        assert hash(parse("+1a")) == hash(from_symbols(["a"]))

    def test_set_collapses_equal_elements(self):
        a, b = gens("a", "b")
        routes = {
            parse("+1a.b"),
            a * b,
            make_element(d1=["a"], d2=["b"], dc=[1]),
            AaaElement({}, {("a", "b"): Fraction(2, 2)}, {}),
        }
        assert routes == {a * b}

    def test_element_as_dict_key(self):
        table = {from_symbols(["a", "a"]): "two a"}
        assert table[parse("+2a")] == "two a"
        assert zero() not in table


class TestAddition:
    def test_cancellation(self, x, x1):
        assert serialize(x + x1) == X_PLUS_X1_TEXT

    def test_zero_is_identity(self, x1):
        assert zero() + x1 == x1
        assert x1 + zero() == x1

    def test_additive_inverse(self, y):
        assert y + neg(y) == zero()
        assert add(y, neg(y)) == zero()

    def test_sub(self, z):
        assert sub(z, z) == zero()
        assert z - z == zero()


class TestScalarAction:
    def test_thousandfold(self):
        e = make_element(d1=["b", "c", "c"], d2=["d", "b", "d"], dc=[1, 2, 2])
        assert serialize(scalar_mul(1000, e)) == "+1000b.d +2000c.b +2000c.d"

    def test_zero_scalar(self, x):
        assert scalar_mul(0, x) == zero()

    def test_operator_forms(self, x):
        assert 2 * x == scalar_mul(2, x)
        assert x * 2 == scalar_mul(2, x)
        assert serialize(Fraction(1, 2) * x) == "+1/2p +1/2q +1/2r"

    def test_float_scalar_rejected(self, x):
        with pytest.raises(TypeError):
            x * 0.5  # noqa: B018


class TestMultiplication:
    def test_worked_product(self, x, x1, y):
        assert serialize(x * (x1 + y)) == PRODUCT_TEXT

    def test_generator_pair(self):
        a, b = gens("a", "b")
        assert serialize(a * b) == "+1a.b"

    def test_bracket_rewrite_default_context(self):
        a, b, c = gens("a", "b", "c")
        assert serialize(a * (b * c)) == "-1(a.b)c"
        assert serialize((a * b) * c) == "+1(a.b)c"

    def test_degree_four_vanishes(self):
        a, b, c, d = gens("a", "b", "c", "d")
        assert a * b * c * d == zero()
        assert (a * b) * (c * d) == zero()

    def test_never_produces_singles(self, x, x1):
        assert not (x * x1).singles

    def test_zero_absorbs(self, x):
        assert x * zero() == zero()
        assert zero() * x == zero()

    def test_context_controls_sign(self):
        a, b, c = gens("a", "b", "c")
        assoc = AlgebraContext(1)
        assert mul(assoc, a, mul(assoc, b, c)) == mul(assoc, mul(assoc, a, b), c)
        half = AlgebraContext("5/2")
        assert serialize(mul(half, a, mul(half, b, c))) == "+5/2(a.b)c"

    def test_distributivity_instance(self, x, x1, y):
        assert x * (x1 + y) == x * x1 + x * y


class TestImmutability:
    def test_operations_do_not_mutate_inputs(self, x, x1):
        before = (dict(x.singles), dict(x.doubles), dict(x.triples))
        x + x1
        x * x1
        neg(x)
        scalar_mul(7, x)
        assert (x.singles, x.doubles, x.triples) == before

    def test_default_context_constant(self):
        assert DEFAULT_CONTEXT.k == -1


VALUES = [
    pytest.param(lambda: parse("+3/2a -1a.b +2(a.b)c"), id="AaaElement"),
    pytest.param(lambda: AlgebraContext("5/2"), id="AlgebraContext"),
    pytest.param(lambda: KeySelector(s1=["a"], d1=["b"], d2=["c"]), id="KeySelector"),
]


class TestValueSemantics:
    @pytest.mark.parametrize("make", VALUES)
    def test_equal_values_hash_equal(self, make):
        first, second = make(), make()
        assert first is not second
        assert first == second and hash(first) == hash(second)

    @pytest.mark.parametrize("make", VALUES)
    def test_fields_cannot_be_assigned(self, make):
        value = make()
        field = next(name for name in ("singles", "k", "s1") if hasattr(value, name))
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))

    @pytest.mark.parametrize("make", VALUES)
    def test_deepcopy_and_pickle_give_equal_values(self, make):
        value = make()
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value

    def test_reprs(self):
        assert repr(AlgebraContext()) == "AlgebraContext(k=-1)"
        assert repr(AlgebraContext("5/2")) == "AlgebraContext(k=Fraction(5, 2))"
        assert repr(KeySelector(s1=["c", "e"], t1=["c"], t2=["d"], t3=["d"])) == (
            "KeySelector(s1=('c', 'e'), d1=(), d2=(), t1=('c',), t2=('d',), t3=('d',))"
        )

    def test_keyword_construction(self):
        e = AaaElement(singles={("a",): 1}, doubles={}, triples={("a", "b", "c"): -2})
        assert serialize(e) == "+1a -2(a.b)c"


SYMBOL_MESSAGE = "symbol name must match [A-Za-z_][A-Za-z_0-9]*: "
COEFF_MESSAGE = "coefficients must be exact rationals (int, Fraction or 'n/d' text), not "


class TestCheckedConstructor:
    @pytest.mark.parametrize(
        "maps, error, message",
        [
            (({"a": 1}, {}, {}), LengthMismatchError,
             "term keys must be symbol tuples, got the string 'a'"),
            (({("a", "b"): 1}, {}, {}), LengthMismatchError,
             "singles key ('a', 'b') does not have degree 1"),
            (({}, {}, {("a", "b"): 1}), LengthMismatchError,
             "triples key ('a', 'b') does not have degree 3"),
            (({("a.b",): 1}, {}, {}), InvalidSymbolError, SYMBOL_MESSAGE + "'a.b'"),
            (({}, {("a", ""): 1}, {}), InvalidSymbolError, SYMBOL_MESSAGE + "''"),
            (({}, {}, {("a", "b", "\u00e9"): 1}), InvalidSymbolError, SYMBOL_MESSAGE + "'\u00e9'"),
            (({("a",): 0.5}, {}, {}), TypeError, COEFF_MESSAGE + "float"),
            (({}, {("a", "b"): True}, {}), TypeError, COEFF_MESSAGE + "bool"),
            # Each term is checked key first, then coefficient, singles first.
            (({("a.b",): 0.5}, {}, {}), InvalidSymbolError, SYMBOL_MESSAGE + "'a.b'"),
            (({("a", "b"): 0.5}, {}, {}), LengthMismatchError,
             "singles key ('a', 'b') does not have degree 1"),
            (({("a.b", "c"): 1}, {}, {}), LengthMismatchError,
             "singles key ('a.b', 'c') does not have degree 1"),
            (({("a",): 0.5}, {"a": 1}, {}), TypeError, COEFF_MESSAGE + "float"),
            # A zero coefficient is dropped, but only after its key is checked.
            (({("a.b",): 0}, {}, {}), InvalidSymbolError, SYMBOL_MESSAGE + "'a.b'"),
        ],
    )
    def test_error_table(self, maps, error, message):
        with pytest.raises(error) as info:
            AaaElement(*maps)
        assert type(info.value) is error
        assert str(info.value) == message
