import itertools
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiassoc import AaaElement, ParseError, make_element, parse, scalar_mul, serialize, zero
from antiassoc import core, textio
from antiassoc.core import SYMBOL_RE, _build, as_coeff
from antiassoc.exprlang import LexError, tokenize
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


# 600 canonical terms of 6 characters each: 4,199 characters, and a599's term starts at column 4194.
_LONG_LINE = " ".join(f"+1a{k:03}" for k in range(600))


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

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("+1a+2b", "+1a +2b"),
            ("+1(a.b)c.d", (9, "expected '+' or '-', found '.'")),
            ("+1a(b.c)d", (4, "expected '+' or '-', found '('")),
            ("+1a.b(c.d)e", (6, "expected '+' or '-', found '('")),
            ("+1a .b", (5, "expected '+' or '-', found '.'")),
            ("+1 a", (3, "expected symbol")),
            ("+1a -", (6, "expected digits after sign")),
            ("+1a +1/", (8, "expected digits after '/'")),
            ("+1a +3/0b", (8, "zero denominator")),
            ("+1(a.b)", (8, "expected symbol")),
            ("+1(a.)b", (6, "expected symbol")),
            ("+1(.a)b", (4, "expected symbol")),
            ("+1a.1", (5, "expected symbol")),
            ("+01a", "+1a"),
            ("+1/01a", "+1a"),
            ("-0a", "0"),
            ("+1a\u00e9", (4, "expected '+' or '-', found '\u00e9'")),
            ("+\u0661a", (2, "expected digits after sign")),
            ("+1a,+2b", (4, "expected '+' or '-', found ','")),
            ("+1a+2b.c-3/2(a.b)c", "+1a +2b.c -3/2(a.b)c"),
            # The first fault in text order is reported, whichever kind each fault is.
            ("+1a +2b.", (9, "expected symbol")),
            ("+1a. +1/0b", (5, "expected symbol")),
            ("+1/0b +1a.", (4, "zero denominator")),
            ("+1a +2b +3c 0", (13, "expected '+' or '-', found '0'")),
            # A lone symbol is never cut short before a symbol character or a '.'.
            ("+1ab.", (6, "expected symbol")),
            ("+1a_1.", (7, "expected symbol")),
            ("+1a +2b_c. +3c", (11, "expected symbol")),
            ("+1a.b.c", (6, "expected '+' or '-', found '.'")),
            pytest.param(_LONG_LINE, _LONG_LINE, id="long"),
            pytest.param(_LONG_LINE + ".", (4201, "expected symbol"), id="long-dot"),
            pytest.param(_LONG_LINE[:-6] + "+1/0a599", (4197, "zero denominator"), id="long-zero"),
            pytest.param(
                _LONG_LINE[:-6] + "-2a599 x", (4201, "expected '+' or '-', found 'x'"), id="long-x"
            ),
        ],
    )
    def test_error_table(self, text, expected):
        """Inputs where a term pattern could stop early or run over: canonical text or error."""
        assert _outcome(parse, text) == expected == _outcome(_reference_parse, text)


# A character-by-character walker over the same grammar: the reference that the
# differential test compares parse against, error columns and messages included.
def _reference_symbol(text, i):
    m = SYMBOL_RE.match(text, i)
    if not m:
        raise ParseError("expected symbol", i + 1)
    return m.group(), m.end()


def _reference_key(text, i):
    if i < len(text) and text[i] == "(":
        open_col = i + 1
        first, i = _reference_symbol(text, i + 1)
        if i >= len(text) or text[i] != ".":
            raise ParseError("expected '.' inside '(...)'", i + 1)
        second, i = _reference_symbol(text, i + 1)
        if i >= len(text) or text[i] != ")":
            raise ParseError("unclosed '('", open_col)
        third, i = _reference_symbol(text, i + 1)
        return (first, second, third), i
    first, i = _reference_symbol(text, i)
    if i < len(text) and text[i] == ".":
        second, i = _reference_symbol(text, i + 1)
        return (first, second), i
    return (first,), i


def _reference_terms(text, i):
    while i < len(text):
        ch = text[i]
        if ch not in "+-":
            raise ParseError(f"expected '+' or '-', found {ch!r}", i + 1)
        sign = -1 if ch == "-" else 1
        i += 1
        start = i
        try:
            m = re.compile("[0-9]+").match(text, i)
            if not m:
                raise ParseError("expected digits after sign", i + 1)
            num = int(m.group())
            i = m.end()
            den = 1
            if i < len(text) and text[i] == "/":
                m = re.compile("[0-9]+").match(text, i + 1)
                if not m:
                    raise ParseError("expected digits after '/'", i + 2)
                den = int(m.group())
                if den == 0:
                    raise ParseError("zero denominator", i + 2)
                i = m.end()
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise ParseError(f"number longer than {limit} digits", start + 1) from None
        coeff = sign * num if den == 1 else Fraction(sign * num, den)
        key, i = _reference_key(text, i)
        yield key, coeff
        i = re.compile(r"\s*").match(text, i).end()


def _reference_parse(text):
    i = re.compile(r"\s*").match(text).end()
    if i >= len(text):
        raise ParseError("empty input", i + 1)
    if text[i] == "0":
        j = re.compile(r"\s*").match(text, i + 1).end()
        if j < len(text):
            raise ParseError("unexpected text after zero element", j + 1)
        return zero()
    return _build(_reference_terms(text, i))


def _outcome(parser, text):
    """Canonical text of the parsed element, or the error's (column, message)."""
    try:
        return serialize(parser(text))
    except ParseError as err:
        return err.column, err.message


_NAMES = ["a", "b", "ab", "a_1", "_"]
_SYMBOLS = st.sampled_from(_NAMES)
_COEFFS = st.one_of(
    st.integers(min_value=-12, max_value=12),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)
_ELEMENTS = st.builds(
    AaaElement,
    *(st.dictionaries(st.tuples(*[_SYMBOLS] * width), _COEFFS, max_size=4) for width in (1, 2, 3)),
)
_EDIT_CHARS = "+-0123456789/().ab_ \u00e9\t"


def _mutated(draw, text):
    """``text`` with a few characters inserted, deleted or substituted."""
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        char = draw(st.sampled_from(_EDIT_CHARS))
        inserted, deleted = text[:i] + char + text[i:], text[:i] + text[i + 1 :]
        text = draw(st.sampled_from([inserted, deleted, text[:i] + char + text[i + 1 :]]))
    return text


@st.composite
def _mutated_canonical_text(draw):
    """Canonical text with a few characters inserted, deleted or substituted."""
    return _mutated(draw, serialize(draw(_ELEMENTS)))


_KEYS = [_NAMES, [f"{x}.{y}" for x in _NAMES for y in _NAMES],
         [f"({x}.{y}){z}" for x in _NAMES for y in _NAMES for z in _NAMES]]


def _term_text(rng):
    """A signed integer, fraction (zero numerators and "/0" allowed) or number of 21 to 31
    digits (never memoized), with a single, double or triple key."""
    form = rng.randrange(18)  # one draw for the sign, the coefficient's form and the key's
    if form // 2 % 3 == 0:
        coeff = str(rng.randint(0, 10**6))
    elif form // 2 % 3 == 1:
        coeff = f"{rng.randint(0, 99)}/{rng.randint(0, 99)}"
    else:
        coeff = str(rng.randint(10**20, 10**30))
    return "+-"[form % 2] + coeff + rng.choice(_KEYS[form // 6])


@st.composite
def _long_mutated_line(draw):
    """A line of 50 to 300 terms (duplicate keys, zero numerators and "/0" allowed), then edited."""
    # A few draws a term from one Random, which hypothesis still shrinks, so that even a
    # traced run draws ten lines well within the too_slow health check's second.
    rng = draw(st.randoms(use_true_random=False))
    return _mutated(draw, " ".join(_term_text(rng) for _ in range(rng.randint(50, 300))))


class TestAgainstReference:
    def test_every_short_string(self):
        """Every string of up to 4 characters over 12 that cover the grammar: 22,621 strings."""
        chars = "+-10/a.() \u00e9_"
        texts = ["".join(t) for n in range(5) for t in itertools.product(chars, repeat=n)]
        assert len(texts) == 22621
        assert [_outcome(parse, t) for t in texts] == [_outcome(_reference_parse, t) for t in texts]

    @settings(max_examples=300)
    @given(_mutated_canonical_text())
    def test_same_element_or_same_error_as_the_character_walker(self, text):
        assert _outcome(parse, text) == _outcome(_reference_parse, text)

    @settings(max_examples=30)
    @given(_long_mutated_line())
    def test_long_lines_agree_with_the_character_walker(self, text):
        assert _outcome(parse, text) == _outcome(_reference_parse, text)

    @given(st.one_of(st.text(), st.text(alphabet=_EDIT_CHARS)))
    def test_parse_is_total_and_round_trips(self, text):
        try:
            element = parse(text)
        except ParseError:
            return
        assert isinstance(element, AaaElement)
        assert parse(serialize(element)) == element


@pytest.fixture
def empty_memo():
    """Empty the process-wide coefficient memo before the test and after it."""
    core._COEFFS.clear()
    yield
    core._COEFFS.clear()


@pytest.mark.usefixtures("empty_memo")
class TestCoefficientMemo:
    """``parse`` remembers short coefficient texts across calls; nothing observable changes."""

    def test_a_failed_conversion_is_not_remembered(self):
        def fails_at_the_zero():
            with pytest.raises(ParseError) as err:
                parse("+1/0a")
            assert (err.value.column, err.value.message) == (4, "zero denominator")

        fails_at_the_zero()
        fails_at_the_zero()
        assert serialize(parse("+1/2a")) == "+1/2a"
        fails_at_the_zero()

    def test_the_digit_limit_holds_after_a_hit(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the interpreter has no int-string digit limit")
        digits = "7" * 700
        text = f"+{digits}a"
        try:
            sys.set_int_max_str_digits(1000)
            assert serialize(parse(text)) == text
            assert as_coeff(digits) == int(digits)
            assert tokenize(f"sym a; {digits}*a")[3][3] == int(digits)
            sys.set_int_max_str_digits(640)
            with pytest.raises(ParseError) as err:
                parse(text)
            assert (err.value.column, err.value.message) == (2, "number longer than 640 digits")
            with pytest.raises(ValueError, match="not a rational literal"):
                as_coeff(digits)
            with pytest.raises(LexError) as lex:
                tokenize(f"sym a; {digits}*a")
            assert (lex.value.pos, lex.value.message) == (8, "number longer than 640 digits")
        finally:
            sys.set_int_max_str_digits(limit)

    def test_hits_keep_the_exact_types(self):
        for _ in range(2):
            (c,) = parse("+4/2a").singles.values()
            assert type(c) is int and c == 2
            (c,) = parse("+3/6a").singles.values()
            assert type(c) is Fraction and c == Fraction(1, 2)

    def test_long_texts_are_converted_at_each_use_and_never_kept(self):
        long = "+123456789012345678901/2"
        assert len(long) > 20
        text = f"+1/2a {long}b -3/4c {long}b -1/2a"
        for _ in range(2):
            assert _outcome(parse, text) == _outcome(_reference_parse, text)
            assert serialize(parse(text)) == "+123456789012345678901b -3/4c"
            assert as_coeff(long) == Fraction(int(long[1:-2]), 2)
            assert tokenize(long[1:])[0][3] == Fraction(int(long[1:-2]), 2)
            assert long not in textio._COEFFS
            assert long[1:] not in textio._COEFFS

    def test_past_the_cap(self):
        lines = [
            " ".join(
                f"{'+-'[k % 2]}{k}/{k % 9 + 1}{'abc'[k % 3]}.{'xyz'[k % 7 % 3]}"
                for k in range(100 * row + 1, 100 * row + 101)
            )
            for row in range(100)
        ]
        assert len({t.split("/")[0] for line in lines for t in line.split()}) == 10_000
        for _ in range(2):
            for line in lines:
                assert _outcome(parse, line) == _outcome(_reference_parse, line)
        assert len(textio._COEFFS) <= 4096
        for k in range(10_000):
            assert as_coeff(f"{k}/7") == Fraction(k, 7)
            assert tokenize(f"{k}/7")[0][3] == Fraction(k, 7)
        assert len(textio._COEFFS) <= 4096


_DIGITS = st.text("0123456789", min_size=1, max_size=30)
_RATIONAL_TEXTS = st.one_of(
    _DIGITS, st.builds("{}/{}".format, _DIGITS, _DIGITS.filter(lambda d: int(d) != 0))
)


def _exact(value):
    """The coefficient of ``value``: an int when it is integral, else the Fraction."""
    return int(value) if value.denominator == 1 else value


@pytest.mark.usefixtures("empty_memo")
class TestOneReader:
    """``as_coeff``, ``parse`` and the statement lexer read rational text through ``core._COEFFS``."""

    def test_textio_reads_the_memo_of_core(self):
        assert textio._COEFFS is core._COEFFS

    @given(_RATIONAL_TEXTS)
    def test_every_reader_gives_the_same_exact_value(self, t):
        expected = _exact(Fraction(t))
        core._COEFFS.clear()  # each example starts with a miss: hypothesis may repeat a text
        for hit in (False, len(t) <= 20):  # a miss, then a hit if the text is kept
            assert (t in core._COEFFS) == hit
            readings = [
                as_coeff(t),
                as_coeff("+" + t),
                tokenize(t)[0][3],
                parse(f"+{t}a").singles.get(("a",), 0),
            ]
            assert [(type(c), c) for c in readings] == [(type(expected), expected)] * 4
            negated = [as_coeff("-" + t), parse(f"-{t}a").singles.get(("a",), 0)]
            assert [(type(c), c) for c in negated] == [(type(expected), -expected)] * 2

    def test_a_str_subclass_is_read_by_its_characters(self):
        class Alike(str):
            """Hashes as "1" and equals everything: it must not reach the memo as a key."""

            def __hash__(self):
                return hash("1")

            def __eq__(self, other):
                return True

        # The memo is empty, so an Alike key would be kept and answer for "1".
        assert as_coeff(Alike("7")) == 7
        assert as_coeff("1") == 1
        assert all(type(text) is str for text in core._COEFFS)
