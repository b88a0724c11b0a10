from decimal import Decimal
from fractions import Fraction

import pytest

from antiassoc import (
    DegreeMismatchError,
    KeySelector,
    LengthMismatchError,
    RaggedMatrixError,
    d1,
    d2,
    dc,
    double,
    extract,
    extract_matrix,
    make_element,
    parse,
    replace,
    replace_matrix,
    s1,
    sc,
    scalar_mul,
    serialize,
    set_double,
    set_single,
    set_triple,
    single,
    t1,
    t2,
    t3,
    tc,
    triple,
    zero,
)
from conftest import (
    B_DOUBLE_TEXT,
    COLUMNS_TEXT,
    KEYED_EXTRACT_OUT,
    KEYED_EXTRACT_SRC,
    KEYED_REPLACE_OUT,
    KEYED_REPLACE_SRC,
    MATRIX_EXTRACT_OUT,
    MATRIX_REPLACE_OUT,
    MATRIX_SRC,
    SPLIT_DOUBLE,
    SPLIT_NO_SINGLE,
    SPLIT_SINGLE,
    SPLIT_SWAPPED_DOUBLE,
    SPLIT_TRIPLE,
)


class TestDegreeSplit:
    def test_single(self, split_element):
        assert serialize(single(split_element)) == SPLIT_SINGLE

    def test_double(self, split_element):
        assert serialize(double(split_element)) == SPLIT_DOUBLE

    def test_triple(self, split_element):
        assert serialize(triple(split_element)) == SPLIT_TRIPLE

    def test_parts_sum_to_whole(self, split_element):
        total = single(split_element) + double(split_element) + triple(split_element)
        assert total == split_element


class TestDegreeReplacement:
    def test_clear_singles_with_zero_literal(self, split_element):
        assert serialize(set_single(split_element, 0)) == SPLIT_NO_SINGLE

    def test_swap_in_scaled_doubles(self, split_element):
        donor = scalar_mul(1000, parse(B_DOUBLE_TEXT))
        cleared = set_single(split_element, 0)
        assert serialize(set_double(cleared, donor)) == SPLIT_SWAPPED_DOUBLE

    def test_replace_with_element_of_same_degree(self, split_element):
        replacement = make_element(s1=["q"], sc=[7])
        out = set_single(split_element, replacement)
        assert serialize(single(out)) == "+7q"
        assert double(out) == double(split_element)

    def test_zero_element_clears(self, split_element):
        assert set_triple(split_element, zero()) == single(split_element) + double(split_element)

    def test_set_on_zero(self):
        assert set_triple(zero(), zero()) == zero()

    def test_wrong_degree_rejected(self, split_element):
        with pytest.raises(DegreeMismatchError):
            set_single(split_element, parse("+1a.b"))
        with pytest.raises(DegreeMismatchError):
            set_double(split_element, parse("+1a"))

    def test_nonzero_scalar_rejected(self, split_element):
        with pytest.raises(TypeError):
            set_single(split_element, 5)

    def test_false_rejected(self, split_element):
        with pytest.raises(TypeError):
            set_single(split_element, False)

    @pytest.mark.parametrize("value", ["0", "-0", "0/7", Fraction(0, 3)])
    def test_zero_is_read_as_a_coefficient(self, split_element, value):
        # as replace() reads its value, so "0" clears as 0 does
        assert set_double(split_element, value) == set_double(split_element, 0)

    @pytest.mark.parametrize(
        "value, error, message",
        [
            (0.0, TypeError, "coefficients must be exact rationals"),
            (Decimal(0), TypeError, "coefficients must be exact rationals"),
            ("1", TypeError, "replacement must be an element or the literal 0"),
            ("-3/2", TypeError, "replacement must be an element or the literal 0"),
            ("zero", ValueError, "not a rational literal"),
        ],
    )
    def test_replacement_that_is_not_an_exact_zero(self, split_element, value, error, message):
        for set_degree in (set_single, set_double, set_triple):
            with pytest.raises(error, match=message):
                set_degree(split_element, value)


class TestKeyedSelection:
    def test_extract_worked_example(self):
        element = parse(KEYED_EXTRACT_SRC)
        sel = KeySelector(s1=["c", "e"], t1=["c"], t2=["d"], t3=["d"])
        assert serialize(extract(element, sel)) == KEYED_EXTRACT_OUT

    def test_extract_empty_selector(self, split_element):
        assert extract(split_element, KeySelector()) == zero()

    def test_extract_from_zero(self):
        sel = KeySelector(s1=["a"], d1=["a"], d2=["b"])
        assert extract(zero(), sel) == zero()

    def test_replace_worked_example(self):
        element = parse(KEYED_REPLACE_SRC)
        sel = KeySelector(s1=["a"], d1=["c", "w"], d2=["d", "w"])
        assert serialize(replace(element, sel, 888)) == KEYED_REPLACE_OUT

    def test_replace_zero_deletes(self):
        element = parse("+1a +2b")
        assert serialize(replace(element, KeySelector(s1=["a"]), 0)) == "+2b"

    def test_replace_creates(self):
        assert serialize(replace(zero(), KeySelector(s1=["q"]), 7)) == "+7q"

    def test_replace_same_key_twice_sets_once(self):
        element = parse("+1a")
        out = replace(element, KeySelector(s1=["a", "a"]), 9)
        assert serialize(out) == "+9a"

    def test_replace_idempotent_with_existing_values(self, split_element):
        sel = KeySelector(s1=["a"])
        assert replace(split_element, sel, split_element.singles[("a",)]) == split_element

    def test_selector_validates_groups(self):
        with pytest.raises(LengthMismatchError):
            KeySelector(d1=["a"])
        with pytest.raises(LengthMismatchError):
            KeySelector(t1=["a"], t2=["b"], t3=[])


class TestMatrixSelection:
    def test_extract_worked_example(self):
        element = parse(MATRIX_SRC)
        rows = [("a", "a"), ("b", "b"), ("c", "c")]
        assert serialize(extract_matrix(element, rows)) == MATRIX_EXTRACT_OUT

    def test_replace_worked_example(self):
        element = parse(MATRIX_SRC)
        rows = [("c", "a", "a"), ("b", "b", "b"), ("a", "c", "c")]
        assert serialize(replace_matrix(element, rows, 88)) == MATRIX_REPLACE_OUT

    def test_empty_matrix(self, split_element):
        assert extract_matrix(split_element, []) == zero()

    def test_ragged_rows_rejected(self, split_element):
        with pytest.raises(RaggedMatrixError):
            extract_matrix(split_element, [("a",), ("a", "b")])

    def test_overwide_rows_rejected(self, split_element):
        with pytest.raises(RaggedMatrixError):
            extract_matrix(split_element, [("a", "b", "c", "d")])

    def test_matches_keyed_selection(self):
        element = parse(MATRIX_SRC)
        rows = [("a", "c"), ("b", "b")]
        sel = KeySelector(d1=["a", "b"], d2=["c", "b"])
        assert extract_matrix(element, rows) == extract(element, sel)


class TestColumnViews:
    def test_singles_columns(self):
        element = parse(COLUMNS_TEXT)
        assert s1(element) == ["b", "c", "d"]
        assert sc(element) == [3, 4, 1]

    def test_doubles_columns(self):
        element = parse(COLUMNS_TEXT)
        assert d1(element) == ["a", "a", "d"]
        assert d2(element) == ["c", "d", "a"]
        assert dc(element) == [3, 2, 4]

    def test_triples_columns(self):
        element = parse(COLUMNS_TEXT)
        assert t1(element) == ["a", "a", "d"]
        assert t2(element) == ["a", "b", "d"]
        assert t3(element) == ["d", "d", "a"]
        assert tc(element) == [1, 1, 3]

    def test_views_keep_their_names_and_docstrings(self):
        views = (s1, sc, d1, d2, dc, t1, t2, t3, tc)
        for name, view in zip(("s1", "sc", "d1", "d2", "dc", "t1", "t2", "t3", "tc"), views):
            assert (view.__name__, view.__qualname__, view.__module__) == (
                name, name, "antiassoc.access"
            )
            assert view.__doc__.strip()

    def test_zero_views_empty(self):
        for view in (s1, sc, d1, d2, dc, t1, t2, t3, tc):
            assert view(zero()) == []

    def test_views_rebuild_element(self):
        element = parse(COLUMNS_TEXT)
        rebuilt = make_element(
            s1=s1(element),
            sc=sc(element),
            d1=d1(element),
            d2=d2(element),
            dc=dc(element),
            t1=t1(element),
            t2=t2(element),
            t3=t3(element),
            tc=tc(element),
        )
        assert rebuilt == element
