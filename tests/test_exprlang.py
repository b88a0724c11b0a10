import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiassoc import (
    AlgebraContext,
    ExprError,
    Env,
    EvalError,
    ExprSyntaxError,
    LexError,
    ScalarOperandError,
    UnboundVariableError,
    parse,
    raaa,
    serialize,
)
from antiassoc import access, exprlang
from antiassoc.core import SYMBOL_RE, as_coeff
from antiassoc.exprlang import parse_program, run_program, tokenize
from antiassoc.rng import SplitMix64
from conftest import (
    KEYED_EXTRACT_OUT,
    KEYED_EXTRACT_SRC,
    KEYED_REPLACE_OUT,
    KEYED_REPLACE_SRC,
    SPLIT_NO_SINGLE,
    SPLIT_TEXT,
)


def env_with(**bindings):
    env = Env()
    env.bindings.update(bindings)
    return env


def eval_one(src, env=None):
    results = run_program(src, env or Env())
    return results[-1]


class TestTokenize:
    def test_simple_expression(self):
        kinds = [t.kind for t in tokenize("a*(b*c)")]
        assert kinds == ["name", "*", "(", "name", "*", "name", ")", "end"]

    def test_keywords_and_operators(self):
        kinds = [t.kind for t in tokenize("let v = 2*a + b")]
        assert kinds == ["let", "name", "=", "number", "*", "name", "+", "name", "end"]

    def test_rational_literal_is_one_token(self):
        tokens = tokenize("3/2*a")
        assert [t.kind for t in tokens] == ["number", "*", "name", "end"]
        assert tokens[0].value == Fraction(3, 2)
        assert type(tokenize("4/2")[0].value) is int

    def test_positions_are_one_based(self):
        tokens = tokenize("a + b")
        assert [(t.text, t.pos) for t in tokens[:3]] == [("a", 1), ("+", 3), ("b", 5)]

    def test_illegal_character(self):
        with pytest.raises(LexError) as err:
            tokenize("a $ b")
        assert err.value.pos == 3

    def test_non_ascii_digit_is_illegal(self):
        for src in ("²", "٣"):
            with pytest.raises(LexError) as err:
                tokenize(src)
            assert err.value.pos == 1

    def test_zero_denominator_literal(self):
        with pytest.raises(LexError):
            tokenize("1/0")

    def test_number_over_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the interpreter has no int-string digit limit")
        long = "9" * (limit + 1)
        for src, pos in ((long, 1), (f"1/{long}", 1), (f"a + {long}*b", 5)):
            with pytest.raises(LexError) as err:
                tokenize(src)
            assert err.value.pos == pos
            assert f"longer than {limit} digits" in err.value.message


def _reference_tokenize(src):
    """The character-walking lexer that the one-pattern tokenize replaced."""
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        pos = i + 1
        if ch in "+-*()=,;":
            tokens.append((ch, ch, pos, None))
            i += 1
            continue
        m = SYMBOL_RE.match(src, i)
        if m:
            text = m.group()
            tokens.append((text if text in ("sym", "let") else "name", text, pos, None))
            i = m.end()
            continue
        m = re.compile(r"[0-9]+(?:/[0-9]+)?").match(src, i)
        if m:
            text = m.group()
            num, slash, den = text.partition("/")
            try:
                value = as_coeff(Fraction(int(num), int(den))) if slash else int(num)
            except ZeroDivisionError:
                raise LexError("zero denominator in rational literal", pos) from None
            except ValueError:
                limit = sys.get_int_max_str_digits()
                raise LexError(f"number longer than {limit} digits", pos) from None
            tokens.append(("number", text, pos, value))
            i = m.end()
            continue
        raise LexError(f"illegal character {ch!r}", pos)
    tokens.append(("end", "", len(src) + 1, None))
    return tokens


def _lex_outcome(lexer, src):
    """Each token as (kind, text, pos, value, type of value), or the error."""
    try:
        return [(*tok, type(tok[3])) for tok in lexer(src)]
    except LexError as err:
        return type(err), err.message, err.pos


_STATEMENT_PIECES = st.sampled_from(
    ["sym", "let", "a", "b_1", "v0", "raaa", "extract", "s1", "2", "3/2", "10/4", "0",
     "+", "-", "*", "(", ")", "=", ",", ";"]
)
_LEX_EDIT_CHARS = "+-*/()=,;0123456789 ab_\u00e9\u00b2\t \x85"


@st.composite
def _mutated_statement(draw):
    """Statement text with a few characters inserted, deleted or substituted."""
    pieces = draw(st.lists(_STATEMENT_PIECES, max_size=12))
    text = "".join(piece + draw(st.sampled_from(["", " ", "  "])) for piece in pieces)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        char = draw(st.sampled_from(_LEX_EDIT_CHARS))
        inserted, deleted = text[:i] + char + text[i:], text[:i] + text[i + 1 :]
        text = draw(st.sampled_from([inserted, deleted, text[:i] + char + text[i + 1 :]]))
    return text


class TestTokenizeAgainstReference:
    @settings(max_examples=300)
    @given(_mutated_statement())
    def test_same_tokens_or_same_error_as_the_character_walker(self, src):
        assert _lex_outcome(tokenize, src) == _lex_outcome(_reference_tokenize, src)

    @pytest.mark.parametrize(
        "src",
        [
            "a\u00a0+\u2003b",  # no-break space, em space
            "\u3000let\x85v\u2028=\x1c3/2*a\u205f",
            "1/0",
            "sym a; 10/4*a + 4/2*a",
            "sym a; 3/",
            "\u00b2",
            "a * 9" + "9" * sys.get_int_max_str_digits(),
        ],
    )
    def test_fixed_rows(self, src):
        assert _lex_outcome(tokenize, src) == _lex_outcome(_reference_tokenize, src)


_NESTINGS = [("(", ")"), ("-(", ")"), ("single(", ")"), ("set_single(a, ", ")"), ("-", "")]


@st.composite
def _deeply_nested_statement(draw):
    """A statement inside 0 to 3,000 levels, each drawn from ``_NESTINGS`` in a cycle."""
    inner = draw(st.one_of(st.sampled_from(["a", "2", "a*a", "-a", "q"]), _mutated_statement()))
    cycle = draw(st.lists(st.sampled_from(_NESTINGS), min_size=1, max_size=4))
    levels = [cycle[i % len(cycle)] for i in range(draw(st.integers(0, 3000)))]
    prefix = draw(st.sampled_from(["", "sym a; ", "sym a; let z = "]))
    opens = "".join(open_ for open_, _ in levels)
    return prefix + opens + inner + "".join(close for _, close in reversed(levels))


def _call_at_depth(depth, fn):
    """Call ``fn()`` with ``depth`` frames on the stack below it."""
    frame, below = sys._getframe(), 0
    while frame is not None:
        below += 1
        frame = frame.f_back

    def down(n):
        return fn() if n == 0 else down(n - 1)

    return down(depth - below - 1)


class TestFuzz:
    @given(st.text())
    def test_only_expr_errors_escape(self, src):
        for step in (tokenize, parse_program, lambda text: run_program(text, Env())):
            try:
                step(src)
            except ExprError:
                pass

    @given(_deeply_nested_statement())
    def test_only_expr_errors_escape_at_any_depth(self, src):
        for step in (parse_program, lambda text: run_program(text, Env())):
            try:
                step(src)
            except ExprError:
                pass

    @pytest.mark.parametrize(
        "src",
        [
            pytest.param("sym a; " + "(" * 100 + "a" + ")" * 100, id="group"),
            pytest.param("sym a; " + "-(" * 100 + "a" + ")" * 100, id="negated-group"),
            pytest.param("sym a; " + "single(" * 100 + "a" + ")" * 100, id="single"),
            pytest.param("sym a; " + "set_single(a, " * 100 + "a" + ")" * 100, id="set_single"),
            pytest.param("sym a; " + "extract(" * 100 + "a" + ", s1=a)" * 100, id="extract"),
            pytest.param("sym a; let z = " + "single(" * 100 + "a" + ")" * 100 + "; z", id="let"),
        ],
    )
    def test_deepest_nesting_runs_from_a_deep_stack(self, src):
        results = _call_at_depth(400, lambda: run_program(src, Env()))
        assert serialize(results[-1]) == "+1a"


class TestParse:
    def test_star_is_left_associative(self):
        assert serialize(eval_one("sym a b c; a*b*c")) == "+1(a.b)c"

    def test_explicit_grouping(self):
        assert eval_one("sym a b c; (a+b)*c = a*c + b*c") is True
        assert eval_one("sym a b c; (a+b)*c = a + b*c") is False

    def test_star_binds_tighter_than_plus(self):
        assert eval_one("sym a b c; a+b*c = a+(b*c)") is True
        assert eval_one("sym a b c; a+b*c = (a+b)*c") is False

    def test_unary_minus_binds_tighter_than_star(self, monkeypatch):
        # neg is linear, so the value cannot tell -(2*a) from (-2)*a; the calls can.
        calls = []
        scalar_mul, neg = exprlang.scalar_mul, exprlang.neg
        monkeypatch.setattr(
            exprlang, "scalar_mul", lambda c, e: calls.append(c) or scalar_mul(c, e)
        )
        monkeypatch.setattr(exprlang, "neg", lambda e: calls.append("neg") or neg(e))
        assert serialize(eval_one("sym a; -2*a")) == "-2a"
        assert calls == [-2]

    def test_redundant_parens_normalize_away(self):
        assert eval_one("sym x; ((x*x))*x = x*x*x") is True
        assert eval_one("sym x; (((x))) = x") is True

    def test_call_with_kwargs(self):
        env = env_with(a=parse(KEYED_EXTRACT_SRC))
        out = eval_one("replace(a, 3/2, s1=(c,e), d1=c, d2=d)", env)
        selector = access.KeySelector(s1=("c", "e"), d1=("c",), d2=("d",))
        assert out == access.replace(env.bindings["a"], selector, Fraction(3, 2))

    def test_statement_forms(self):
        results = run_program("sym a b; let v = a*b; v; v = v", Env())
        assert results[:2] == [None, None]
        assert serialize(results[2]) == "+1a.b"
        assert results[3] is True

    def test_trailing_semicolons_ignored(self):
        assert len(parse_program(";;sym a;;")) == 1

    def test_a_run_of_minuses_negates_once_or_not_at_all(self):
        assert serialize(eval_one("sym a; " + "-" * 3000 + "a")) == "+1a"
        assert serialize(eval_one("sym a; " + "-" * 3001 + "a")) == "-1a"

    @pytest.mark.parametrize(
        "src",
        ["a +", "(a", "let = a", "sym", "a b", "extract(a,)", "let v = ", "*a"],
    )
    def test_syntax_errors(self, src):
        with pytest.raises(ExprSyntaxError):
            parse_program(src)


class TestEval:
    def test_triple_bracket_rewrite(self):
        assert serialize(eval_one("sym a b c; a*(b*c)")) == "-1(a.b)c"

    def test_degree_four_is_zero(self):
        assert serialize(eval_one("sym a b c d; a*b*c*d")) == "0"

    def test_left_assoc_chain_matches_explicit(self):
        env = Env()
        run_program("sym x", env)
        assert eval_one("x*x*x = (x*x)*x", env) is True
        assert eval_one("x*x*x = x*(x*x)", env) is False

    def test_context_k(self):
        env = Env(context=AlgebraContext(1))
        assert eval_one("sym a b c; a*(b*c) = (a*b)*c", env) is True

    def test_scalar_action(self):
        assert serialize(eval_one("sym a; 2*a")) == "+2a"
        assert serialize(eval_one("sym a; 3/2*a")) == "+3/2a"
        assert serialize(eval_one("sym a; -2*a")) == "-2a"

    def test_collapse_identity_with_bound_elements(self):
        env = Env()
        env.bindings.update(a=raaa(1), b=raaa(2), x=raaa(3))
        assert eval_one("(a+a*x)*(b+x*b) = a*b", env) is True

    def test_let_binding(self):
        env = Env()
        results = run_program("sym a b; let v = a*b; v", env)
        assert results[:2] == [None, None]
        assert serialize(results[2]) == "+1a.b"

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            eval_one("nope")

    @pytest.mark.parametrize("src", ["sym a; 2+a", "sym a; a*2", "2", "sym a; a-1", "2*3"])
    def test_scalar_misuse_rejected(self, src):
        with pytest.raises(ScalarOperandError):
            eval_one(src)

    def test_let_scalar_rejected(self):
        with pytest.raises(ScalarOperandError):
            eval_one("let v = 2")

    def test_long_flat_chains_evaluate(self):
        # Far past the recursion limit: a chain compiles to one closure, not a nest.
        assert serialize(eval_one("sym a; " + "+".join(["a"] * 5000))) == "+5000a"
        assert serialize(eval_one("sym a; " + "*".join(["a"] * 3000))) == "0"
        assert serialize(eval_one("sym a b; " + "a-b+" * 2000 + "a")) == "+2001a -2000b"

    @pytest.mark.parametrize(
        "src, cls",
        [
            ("sym a; 2 + nope", ScalarOperandError),
            ("sym a; a + nope + 2", UnboundVariableError),
            ("sym a; a - a + 2 + nope", ScalarOperandError),
            ("2*3*nope", ScalarOperandError),
            ("sym a; a*nope*2", UnboundVariableError),
        ],
    )
    def test_chain_runs_and_checks_operands_left_to_right(self, src, cls):
        with pytest.raises(cls):
            eval_one(src)

    def test_chain_column_is_its_last_operator(self):
        for src, pos in [("sym a; raaa(a + a - a)", 19), ("sym a; raaa(2*a*a)", 16)]:
            with pytest.raises(EvalError) as err:
                eval_one(src)
            assert (err.value.message, err.value.pos) == ("raaa() seed must be an integer", pos)


class TestBuiltins:
    def test_degree_split(self):
        env = env_with(a=parse(SPLIT_TEXT))
        assert serialize(eval_one("single(a)", env)) == "+4a +2b"
        assert serialize(eval_one("double(a) + triple(a) + single(a)", env)) == SPLIT_TEXT

    def test_set_single_zero(self):
        env = env_with(a=parse(SPLIT_TEXT))
        assert serialize(eval_one("set_single(a, 0)", env)) == SPLIT_NO_SINGLE

    def test_set_double_element(self):
        env = env_with(a=parse(SPLIT_TEXT))
        out = eval_one("set_double(a, 1000*double(a))", env)
        assert serialize(out) == "+4a +2b +2000a.a +2000c.c +2000d.d +2(b.d)d +1(c.d)a +4(d.b)c"

    def test_set_nonzero_scalar_rejected(self):
        env = env_with(a=parse(SPLIT_TEXT))
        for src in ("  set_single(a, 5)", "  set_double(a, 1/2)", "  set_triple(a, -1)"):
            with pytest.raises(EvalError) as err:
                eval_one(src, env)
            assert err.value.message == "replacement must be an element or the literal 0"
            assert err.value.pos == 3

    def test_extract_keyword_args(self):
        env = env_with(a=parse(KEYED_EXTRACT_SRC))
        out = eval_one("extract(a, s1=(c,e), t1=c, t2=d, t3=d)", env)
        assert serialize(out) == KEYED_EXTRACT_OUT

    def test_replace_keyword_args(self):
        # 'a' is both a binding and a symbol name; kwarg values are symbols
        env = env_with(a=parse(KEYED_REPLACE_SRC))
        out = eval_one("replace(a, 888, s1=a, d1=(c,w), d2=(d,w))", env)
        assert serialize(out) == KEYED_REPLACE_OUT

    def test_raaa_explicit_seed_is_reproducible(self):
        env = Env()
        assert eval_one("raaa(7) = raaa(7)", env) is True

    def test_raaa_env_stream(self):
        first = eval_one("raaa()", Env(seed=5))
        again = eval_one("raaa()", Env(seed=5))
        other = eval_one("raaa()", Env(seed=6))
        assert first == again
        assert first != other

    def test_raaa_kwargs(self):
        out = eval_one("raaa(3, alphabet=(p,q), n3=0)", Env())
        assert not out.triples
        for key in list(out.singles) + list(out.doubles):
            assert set(key) <= {"p", "q"}

    def test_unknown_function(self):
        with pytest.raises(EvalError):
            eval_one("sym a; frobnicate(a)")

    def test_unknown_keyword(self):
        env = env_with(a=parse(SPLIT_TEXT))
        with pytest.raises(EvalError):
            eval_one("extract(a, q9=(c))", env)

    def test_selector_length_mismatch_reported(self):
        env = env_with(a=parse(SPLIT_TEXT))
        with pytest.raises(EvalError):
            eval_one("extract(a, d1=(c,w), d2=(d))", env)

    def test_error_positions(self):
        with pytest.raises(UnboundVariableError) as err:
            eval_one("sym a; a + missing")
        assert err.value.pos == 12


NOT_ELEMENT = "a bare number cannot be used as an element (the algebra has no unit)"
LEFT_FACTOR = "a number may only appear as the left factor of '*'"


class TestErrors:
    # One row per place the evaluator raises: (source, class, message, column).
    @pytest.mark.parametrize(
        "src, cls, message, pos",
        [
            ("sym a; a + missing", UnboundVariableError, "unbound variable 'missing'", 12),
            ("sym a; 2+a", ScalarOperandError, NOT_ELEMENT, 8),
            ("sym a; a+2", ScalarOperandError, NOT_ELEMENT, 10),
            ("sym a; 2-a", ScalarOperandError, NOT_ELEMENT, 8),
            ("sym a; a - 1", ScalarOperandError, NOT_ELEMENT, 12),
            ("let v = 2", ScalarOperandError, NOT_ELEMENT, 9),
            ("2", ScalarOperandError, NOT_ELEMENT, 1),
            ("  -3/2", ScalarOperandError, NOT_ELEMENT, 3),
            ("sym a; 2 = a", ScalarOperandError, NOT_ELEMENT, 8),
            ("sym a; a = (2)", ScalarOperandError, NOT_ELEMENT, 13),
            ("single(2)", ScalarOperandError, NOT_ELEMENT, 8),
            ("sym a; extract(3, s1=a)", ScalarOperandError, NOT_ELEMENT, 16),
            ("sym a; a*2", ScalarOperandError, LEFT_FACTOR, 10),
            ("2*3", ScalarOperandError, LEFT_FACTOR, 3),
            ("sym a; -a*-2", ScalarOperandError, LEFT_FACTOR, 11),
            ("sym a; single(a, a)", EvalError, "single() takes 1 positional argument(s), got 2", 8),
            ("sym a; set_double(a)", EvalError,
             "set_double() takes 2 positional argument(s), got 1", 8),
            ("sym a; extract()", EvalError, "extract() takes 1 positional argument(s), got 0", 8),
            ("sym a; replace(a)", EvalError, "replace() takes 2 positional argument(s), got 1", 8),
            ("raaa(1, 2)", EvalError, "raaa() takes at most one positional argument (the seed)", 1),
            ("sym a; triple(a, t1=a)", EvalError, "triple() takes no keyword arguments ('t1')", 8),
            ("sym a; foo(a)", EvalError, "unknown function 'foo'", 8),
            ("sym a; extract(a, q9=a)", EvalError, "extract() has no keyword argument 'q9'", 8),
            ("raaa(s1=a)", EvalError, "raaa() has no keyword argument 's1'", 1),
            ("sym a; replace(a, 1, s1=a, s1=b)", EvalError, "duplicate keyword argument 's1'", 8),
            ("sym a; extract(a, s1=2)", EvalError, "'s1' takes symbol names, not a number", 22),
            ("raaa(alphabet=3)", EvalError, "'alphabet' takes symbol names", 15),
            ("raaa(n1=3/2)", EvalError, "'n1' must be an integer >= 0", 9),
            ("raaa(n1=-1)", ExprSyntaxError,
             "expected a number, a symbol name or a parenthesized symbol list", 9),
            ("raaa(1/2)", EvalError, "raaa() seed must be an integer", 6),
            ("sym a; raaa(a)", EvalError, "raaa() seed must be an integer", 13),
            ("sym a; set_single(a, 5)", EvalError,
             "replacement must be an element or the literal 0", 8),
            ("raaa(n1=100000000000)", EvalError, "'n1' must be at most 100000", 9),
            ("(" * 101 + "a" + ")" * 101, ExprSyntaxError, "expression nested too deeply", 101),
            ("single(" * 101 + "a" + ")" * 101, ExprSyntaxError,
             "expression nested too deeply", 707),
            ("let v = --2", ScalarOperandError, NOT_ELEMENT, 9),
        ],
    )
    def test_error_table(self, src, cls, message, pos):
        with pytest.raises(ExprError) as err:
            run_program(src, Env())
        assert (type(err.value), err.value.message, err.value.pos) == (cls, message, pos)

    def test_replace_value_must_be_a_number(self):
        env = Env(seed=5)
        with pytest.raises(EvalError) as err:
            run_program("sym a; replace(raaa(), raaa(), s1=a)", env)
        assert err.value.message == (
            "coefficients must be exact rationals (int, Fraction or 'n/d' text), not AaaElement"
        )
        assert err.value.pos == 8
        # both arguments ran before access rejected the value
        stream = SplitMix64(5)
        stream.next_u64(), stream.next_u64()
        assert env.next_seed() == stream.next_u64()

    def test_product_budget_counts_term_pairs(self, monkeypatch):
        monkeypatch.setattr(exprlang, "MAX_PRODUCT_TERMS", 4)
        env = Env()
        run_program("sym a b; let s = a + b", env)
        # at the cap, and a number as the left factor is not counted
        assert serialize(eval_one("2*s*s", env)) == "+2a.a +2a.b +2b.a +2b.b"
        for src, pos in [("s*s*s", 4), ("s*(s*s)", 2)]:
            with pytest.raises(EvalError) as err:
                run_program(src, env)
            assert (err.value.message, err.value.pos) == (
                "'*' would form 8 term products, more than 4", pos
            )

    def test_replace_runs_the_value_first(self):
        with pytest.raises(UnboundVariableError) as err:
            eval_one("replace(p, q, s1=a)")
        assert err.value.message == "unbound variable 'q'"


class TestPartialRun:
    def test_syntax_error_runs_nothing(self):
        env = Env()
        run_program("sym a", env)
        with pytest.raises(ExprSyntaxError):
            run_program("let v = a; )", env)
        assert "v" not in env.bindings

    def test_eval_error_keeps_earlier_bindings(self):
        env = Env()
        with pytest.raises(EvalError):
            run_program("sym a; let v = a; foo(a)", env)
        assert env.bindings == {"a": parse("+1a"), "v": parse("+1a")}

    @pytest.mark.parametrize(
        "src", ["raaa(n1=3/2)", "raaa(alphabet=3)", "raaa(s1=a)", "raaa(n1=1, n3=100001)"]
    )
    def test_failed_raaa_takes_no_seed(self, src):
        env = Env(seed=5)
        with pytest.raises(EvalError):
            run_program(src, env)
        assert eval_one("raaa()", env) == eval_one("raaa()", Env(seed=5))

    @pytest.mark.parametrize(
        "src, error, ran",
        [
            ("raaa(); raaa(); foo(raaa())", EvalError, 2),
            ("raaa(); )", ExprSyntaxError, 0),
            ("raaa() + 2; raaa()", ScalarOperandError, 1),
            ("nope + raaa()", UnboundVariableError, 0),
        ],
    )
    def test_only_raaa_calls_that_ran_advance_the_seed_stream(self, src, error, ran):
        env = Env(seed=9)
        with pytest.raises(error):
            run_program(src, env)
        stream = SplitMix64(9)
        for _ in range(ran):
            stream.next_u64()
        assert env.next_seed() == stream.next_u64()
