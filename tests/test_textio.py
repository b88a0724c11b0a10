import sys
from fractions import Fraction

import pytest

from antiassoc import ParseError, make_element, parse, scalar_mul, serialize, zero
from antiassoc.rng import raaa
from conftest import CANONICAL_FIXTURES, PRODUCT_TEXT, X_PLUS_X1_TEXT


class TestSerialize:
    def test_worked_product(self, x, x1, y):
        assert serialize(x * (x1 + y)) == PRODUCT_TEXT

    def test_zero(self):
        assert serialize(zero()) == "0"

    def test_rational_coefficient(self):
        assert serialize(make_element(s1=["a"], sc=[Fraction(1, 2)])) == "+1/2a"

    def test_negative_rational(self):
        e = make_element(d1=["a"], d2=["b"], dc=[Fraction(-3, 2)])
        assert serialize(e) == "-3/2a.b"

    def test_degree_then_lex_order(self):
        e = make_element(
            s1=["z"], sc=[1], d1=["a"], d2=["a"], dc=[1], t1=["a"], t2=["a"], t3=["a"], tc=[1]
        )
        assert serialize(e) == "+1z +1a.a +1(a.a)a"

    def test_coefficient_over_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the interpreter has no int-string digit limit")
        with pytest.raises(ValueError):
            serialize(scalar_mul(10**limit, parse("+1a")))
        with pytest.raises(ValueError):
            serialize(scalar_mul(Fraction(1, 10**limit), parse("+1a")))

    def test_equal_elements_serialize_identically(self):
        one = make_element(s1=["a", "b"], sc=[1, 2])
        other = make_element(s1=["b", "a"], sc=[2, 1])
        assert serialize(one) == serialize(other)


class TestParse:
    def test_cancellation_output(self):
        assert serialize(parse(X_PLUS_X1_TEXT)) == X_PLUS_X1_TEXT

    def test_zero(self):
        assert parse("0") == zero()
        assert parse("  0  ") == zero()

    def test_duplicate_keys_cancel(self):
        assert parse("+1a.b -1a.b") == zero()

    def test_zero_coefficient_terms_dropped(self):
        assert parse("+0a +1b") == parse("+1b")

    def test_whitespace_between_terms_is_free(self):
        assert parse("-1a.b  +1a.b") == zero()
        assert parse(" +1a   +2b ") == parse("+1a +2b")

    def test_unicode_whitespace_between_terms(self):
        assert parse("\u2003+1a\x1c+2b\u3000\t-1c.d\x85") == parse("+1a +2b -1c.d")
        assert parse("\x1c0\u2003") == zero()

    def test_rational(self):
        assert parse("+1/2a").singles == {("a",): Fraction(1, 2)}

    def test_round_trip_fixtures(self):
        for text in CANONICAL_FIXTURES:
            assert serialize(parse(text)) == text

    def test_round_trip_random(self):
        for seed in range(200):
            e = raaa(seed)
            assert parse(serialize(e)) == e


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,column,fragment",
        [
            ("", 1, "empty"),
            ("   ", 4, "empty"),
            ("1a", 1, "expected '+' or '-'"),
            ("+a", 2, "digits"),
            ("+1", 3, "symbol"),
            ("+1a.", 5, "symbol"),
            ("+1(a.b", 3, "unclosed '('"),
            ("+1(a b)c", 5, "'.'"),
            ("+1/a", 4, "digits"),
            ("+1/0a", 4, "zero denominator"),
            ("+1a x", 5, "expected '+' or '-'"),
            ("0 junk", 3, "after zero"),
            ("+1a.b.c", 6, "expected '+' or '-'"),
        ],
    )
    def test_column_and_message(self, text, column, fragment):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.column == column
        assert fragment in err.value.message

    def test_number_over_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the interpreter has no int-string digit limit")
        long = "9" * (limit + 1)
        for text, column in (
            (f"+{long}a", 2),
            (f"+1/{long}a", 2),
            (f"+1a -{long}b.c", 6),
        ):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.column == column
            assert f"longer than {limit} digits" in err.value.message
        at_limit = f"+{long[1:]}a -1/{long[1:]}b"
        assert serialize(parse(at_limit)) == at_limit

    def test_missing_leading_sign(self):
        with pytest.raises(ParseError):
            parse("1p +1q")
