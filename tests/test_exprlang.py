import io
import itertools
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
    add,
    mul,
    neg,
    parse,
    raaa,
    scalar_mul,
    serialize,
    sub,
    zero,
)
from antiassoc import access, cli, exprlang
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
from test_laws import _assert_clean, mixed_elements


def env_with(**bindings):
    env = Env()
    env.bindings.update(bindings)
    return env


def eval_one(src, env=None):
    results = run_program(src, env or Env())
    return results[-1]


class TestTokenize:
    def test_simple_expression(self):
        kinds = [t[0] for t in tokenize("a*(b*c)")]
        assert kinds == ["name", "*", "(", "name", "*", "name", ")", "end"]

    def test_keywords_and_operators(self):
        kinds = [t[0] for t in tokenize("let v = 2*a + b")]
        assert kinds == ["let", "name", "=", "number", "*", "name", "+", "name", "end"]

    def test_rational_literal_is_one_token(self):
        tokens = tokenize("3/2*a")
        assert [t[0] for t in tokens] == ["number", "*", "name", "end"]
        assert tokens[0][3] == Fraction(3, 2)
        assert type(tokenize("4/2")[0][3]) is int

    def test_positions_are_one_based(self):
        tokens = tokenize("a + b")
        assert [(text, pos) for _, text, pos, _ in tokens[:3]] == [("a", 1), ("+", 3), ("b", 5)]

    def test_symbol_list_is_one_token(self):
        tokens = tokenize("extract(v, s1=(a, b ,\tc), d1=(a))")
        assert [t[0] for t in tokens] == [
            "name", "(", "name", ",", "name", "=", "(", ",", "name", "=", "(", ")", "end",
        ]
        assert [t[1:] for t in tokens if t[3] is not None] == [
            ("(", 15, ("a", "b", "c")),
            ("(", 30, ("a",)),
        ]

    @pytest.mark.parametrize(
        "src", ["(a, sym)", "(let)", "(sym, a)", "(a, 2)", "(a,)", "(a b)", "()"]
    )
    def test_not_a_symbol_list(self, src):
        kind, _, pos, value = tokenize(src)[0]
        assert (kind, pos, value) == ("(", 1, None)

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


def _reference_lexed(src):
    """``_reference_tokenize(src)`` with each ``( NAME (, NAME)* )`` run as one
    '(' token at its column whose value is the names, as ``tokenize`` lexes it."""
    tokens = _reference_tokenize(src)
    shapes = {"(": "(", ",": ",", ")": ")", "name": "n"}  # a keyword's kind is not 'name'
    shape = "".join(shapes.get(kind, "x") for kind, *_ in tokens)
    out, done = [], 0
    for run in re.finditer(r"\(n(?:,n)*\)", shape):
        start, end = run.span()
        out += tokens[done:start]
        out.append(("(", "(", tokens[start][2], tuple(t[1] for t in tokens[start + 1 : end : 2])))
        done = end
    return out + tokens[done:]


def _lex_outcome(lexer, src):
    """Each token as (kind, text, pos, value, type of value, type of token), or the error."""
    try:
        return [(*tok, type(tok[3]), type(tok)) for tok in lexer(src)]
    except LexError as err:
        return type(err), err.message, err.pos


_STATEMENT_PIECES = st.sampled_from(
    ["sym", "let", "a", "b_1", "v0", "raaa", "extract", "s1", "2", "3/2", "10/4", "0",
     "+", "-", "*", "(", ")", "=", ",", ";",
     # symbol lists, and near misses of one
     "(a, b_1)", "(\u3000v0\x85,\u2028a\t)", "(a, sym)", "(let)", "(b_1, a,)", "(a, 2)"]
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


# The 300 tokens of extract(v, s1=(s0, s1, ..., s145)).
_SELECTOR_TOKENS = [
    "extract", "(", "v", ",", "s1", "=", "(", "s0",
    *(tok for i in range(1, 146) for tok in (",", f"s{i}")),
    ")", ")",
]


class TestTokenizeAgainstReference:
    def test_every_short_string(self):
        """Every string of up to 4 characters over 13 that cover the grammar: 30,941 strings."""
        chars = "a(),;=*+-1/ s"
        texts = ["".join(t) for n in range(5) for t in itertools.product(chars, repeat=n)]
        assert len(texts) == 30941
        assert [_lex_outcome(tokenize, t) for t in texts] == [
            _lex_outcome(_reference_lexed, t) for t in texts
        ]

    @settings(max_examples=300)
    @given(_mutated_statement())
    def test_same_tokens_or_same_error_as_the_character_walker(self, src):
        assert _lex_outcome(tokenize, src) == _lex_outcome(_reference_lexed, src)

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
            pytest.param("", id="empty"),
            pytest.param(" \t\u3000\x85 ", id="whitespace-only"),
            pytest.param("sym a;  a +\t\t3/2*a \t\u3000 ", id="whitespace-runs-and-trailing"),
            *(
                pytest.param(sep.join(_SELECTOR_TOKENS), id=f"selector-{name}")
                for sep, name in (("\t", "tab"), ("\x85", "nel"), ("\u3000", "ideographic"))
            ),
            pytest.param(" + ".join(["a_1"] * 2000) + " $", id="illegal-last-of-long-line"),
        ],
    )
    def test_fixed_rows(self, src):
        assert _lex_outcome(tokenize, src) == _lex_outcome(_reference_lexed, src)


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

    def test_unary_minus_binds_tighter_than_star(self):
        # neg is linear, so the value cannot tell -(2*a) from (-2)*a; the column of
        # an error about it can: (-2)*a is the literal -2 scaling a, at the '*'.
        assert serialize(eval_one("sym a; -2*a")) == "-2a"
        for src, pos in [("sym a; raaa(-2*a)", 15), ("sym a; raaa(-(2*a))", 13)]:
            with pytest.raises(EvalError) as err:
                run_program(src, Env())
            assert (err.value.message, err.value.pos) == ("raaa() seed must be an integer", pos)

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


# Elements with Fraction coefficients in every degree; 3/2 times 2/3 makes integral Fractions.
_OPERANDS = {
    "x": "+3/2p -2q +1/3p.q -3(q.r)p +1/2(p.p)q",
    "y": "+2/3q +4r -3/2p.r +5(p.q)r",
    "z": "-1/2p +3/4r +2q.q -7/3(r.r)r",
    "w": "+6p -1/6q +2/5r.p +1(p.p)p",
    "a": "+2/3p +3r -1/2q.r",
    "b": "+3/2q -2/3p.p +1(q.q)q",
}

# Each statement, and its value as nested core calls: m(u, v) is mul under the statement's K.
_NESTED = {
    "x*(y*z)": lambda m, e: m(e["x"], m(e["y"], e["z"])),
    "(x*y)*z": lambda m, e: m(m(e["x"], e["y"]), e["z"]),
    "x*y*z*w": lambda m, e: m(m(m(e["x"], e["y"]), e["z"]), e["w"]),
    "(a + a*x)*(b + x*b)":
        lambda m, e: m(add(e["a"], m(e["a"], e["x"])), add(e["b"], m(e["x"], e["b"]))),
    "-(y*z)*x": lambda m, e: m(neg(m(e["y"], e["z"])), e["x"]),
    "2*(y*z)*x": lambda m, e: m(scalar_mul(2, m(e["y"], e["z"])), e["x"]),
    "x*triple(y*z)": lambda m, e: m(e["x"], access.triple(m(e["y"], e["z"]))),
}


class TestOperandProducts:
    """A product read only as an operand of '*' forms its doubles alone: the same values,
    errors and columns as the full product."""

    @pytest.mark.parametrize("k", [-1, Fraction(2, 3)], ids=["k=-1", "k=2/3"])
    @pytest.mark.parametrize("src", _NESTED)
    def test_value_is_the_nested_core_calls(self, k, src):
        env = Env(context=AlgebraContext(k))
        env.bindings.update({name: parse(text) for name, text in _OPERANDS.items()})
        got = eval_one(src, env)
        want = _NESTED[src](lambda u, v: mul(env.context, u, v), env.bindings)
        assert serialize(got) == serialize(want)
        _assert_clean(got)

    @pytest.mark.parametrize(
        "src, calls",
        [("x*(y*z)", (1, 1)), ("(x*y)*z", (1, 1)), ("x*y*z*w", (1, 2)),
         ("(x + x*z)*(y + z*y)", (1, 2)), ("-((x*y)*z)", (1, 1)), ("2*(x*y)", (1, 0)),
         ("x*triple(y*z)", (2, 0)), ("x*y + y*x", (2, 0))],
    )
    def test_only_the_last_star_of_a_whole_product_calls_mul(self, monkeypatch, src, calls):
        # the values are the same either way, so count (mul, _doubles) calls per statement
        counts = {"mul": 0, "_doubles": 0}
        for name in counts:
            def counted(*args, name=name, real=getattr(exprlang, name)):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(exprlang, name, counted)
        env = Env()
        run_program("sym x y z w", env)
        run_program(src, env)
        assert (counts["mul"], counts["_doubles"]) == calls

    def test_a_call_reads_its_arguments_whole(self, capsys):
        # a*(b + c*d) has triples, which set_double refuses; an operand's run would drop them
        src = "sym a b c d; let v = a; d*set_double(v, a*(b + c*d))"
        assert (cli.main(["eval", src]), *capsys.readouterr()) == (
            2, "", "line 1: col 27: replacement for doubles contains terms of another degree\n"
        )

    @pytest.mark.parametrize(
        "src, pos",
        [("a*(s*s*s)", 7), ("(s*s*s)*a", 5), ("a*(a + s*(s*s))", 9), ("-(s*(s*s))*a", 4)],
    )
    def test_an_operand_over_the_cap_is_refused_at_its_star(self, monkeypatch, src, pos):
        monkeypatch.setattr(exprlang, "MAX_PRODUCT_TERMS", 4)
        env = Env()
        run_program("sym a b; let s = a + b", env)
        with pytest.raises(EvalError) as err:
            run_program(src, env)
        assert (err.value.message, err.value.pos) == (
            "'*' would form 8 term products, more than 4", pos
        )

    def test_an_error_in_an_operand_leaves_the_session_whole(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("sym a b c\na*(b*q)\na*(b*c)\n"))
        assert (cli.main(["repl"]), *capsys.readouterr()) == (
            0, "-1(a.b)c\n", "line 2: col 6: unbound variable 'q'\n"
        )


# Each statement with a scaled product, and its value as nested core calls, as in _NESTED.
_SCALED = {
    "-(x*y)": lambda m, e: neg(m(e["x"], e["y"])),
    "2*(x*y)": lambda m, e: scalar_mul(2, m(e["x"], e["y"])),
    "-2*(x*(y*z))": lambda m, e: scalar_mul(-2, m(e["x"], m(e["y"], e["z"]))),
    "-(x*y)*z": lambda m, e: m(neg(m(e["x"], e["y"])), e["z"]),
    "-((x*y)*z)": lambda m, e: neg(m(m(e["x"], e["y"]), e["z"])),
    "3/2*(x*y)": lambda m, e: scalar_mul(Fraction(3, 2), m(e["x"], e["y"])),
    "0*(x*y)": lambda m, e: scalar_mul(0, m(e["x"], e["y"])),
    "-(x*y*z*w)": lambda m, e: neg(m(m(m(e["x"], e["y"]), e["z"]), e["w"])),
}


class TestScaledProducts:
    """A product that is a whole chain with an ``int`` scale other than 0 and 1 runs with
    the scale on its first factor: the same values, errors and columns as scaling the
    finished product."""

    @pytest.mark.parametrize("k", [-1, Fraction(2, 3)], ids=["k=-1", "k=2/3"])
    @pytest.mark.parametrize("src", _SCALED)
    def test_value_is_the_nested_core_calls(self, k, src):
        env = Env(context=AlgebraContext(k))
        env.bindings.update({name: parse(text) for name, text in _OPERANDS.items()})
        got = eval_one(src, env)
        want = _SCALED[src](lambda u, v: mul(env.context, u, v), env.bindings)
        assert serialize(got) == serialize(want)
        _assert_clean(got)

    def test_a_zero_scale_still_counts_the_unscaled_operand(self, monkeypatch):
        monkeypatch.setattr(exprlang, "MAX_PRODUCT_TERMS", 4)
        env = Env()
        run_program("sym a b; let s = a + b", env)
        with pytest.raises(EvalError) as err:
            run_program("0*(s*s*s)", env)
        assert (err.value.message, err.value.pos) == (
            "'*' would form 8 term products, more than 4", 7
        )

    @pytest.mark.parametrize(
        "src, pos", [("-(a*q)", 14), ("2*(q*a)", 13), ("-(a*b)*q", 17)]
    )
    def test_an_unbound_factor_is_reported_at_its_column(self, src, pos):
        with pytest.raises(UnboundVariableError) as err:
            run_program(f"sym a b; {src}", Env())
        assert (err.value.message, err.value.pos) == ("unbound variable 'q'", pos)


@st.composite
def _signed_operands(draw):
    """2 to 100 (is '+', element) pairs over a few elements u, c*u and (1-c)*u.

    Drawn from a small pool, operands repeat, so many cancel exactly, and the
    parts c*u and (1-c)*u of one element have rational coefficients that sum
    to u's.
    """
    base = draw(st.lists(mixed_elements, min_size=1, max_size=4))
    c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=12))
    pool = base + [scalar_mul(c, u) for u in base] + [scalar_mul(1 - c, u) for u in base]
    n = draw(st.integers(2, 100))
    return [(draw(st.booleans()), draw(st.sampled_from(pool))) for _ in range(n)]


class TestChains:
    @given(_signed_operands())
    def test_chain_equals_the_left_fold_of_add_and_sub(self, operands):
        names = [f"v{i}" for i in range(len(operands))]
        env = env_with(**dict(zip(names, (e for _, e in operands))))
        src = "".join(f" {'+' if plus else '-'} {name}" for (plus, _), name in zip(operands, names))
        (result,) = run_program(src.removeprefix(" +"), env)
        (plus, first), *rest = operands
        fold = first if plus else neg(first)
        for plus, e in rest:
            fold = add(fold, e) if plus else sub(fold, e)
        # and a reference that shares no code with add: parse sums the signed terms' text
        texts = [serialize(e if plus else neg(e)) for plus, e in operands if e]
        summed = parse(" ".join(texts)) if texts else zero()
        assert serialize(result) == serialize(fold) == serialize(summed)
        _assert_clean(result)

    @pytest.mark.parametrize(
        "src, pos",
        [
            ("sym a; 2 + a - a + a", 8),
            ("sym a; a + a - 3/2 + a", 16),
            ("sym a; a + a - a + 2", 20),
        ],
    )
    def test_bare_number_column_at_any_operand(self, src, pos):
        with pytest.raises(ScalarOperandError) as err:
            run_program(src, Env())
        assert (err.value.message, err.value.pos) == (NOT_ELEMENT, pos)

    def test_a_zero_scaled_operand_still_runs(self):
        env = Env(seed=11)
        (result,) = run_program("0*raaa() + raaa()", env)
        stream = SplitMix64(11)
        stream.next_u64()
        assert result == raaa(stream.next_u64())
        assert env.next_seed() == stream.next_u64()

    def test_raaa_operands_take_their_seeds_left_to_right(self):
        (result,) = run_program("raaa() - raaa(3) + raaa() - raaa()", Env(seed=11))
        stream = SplitMix64(11)
        s1, s2, s3 = stream.next_u64(), stream.next_u64(), stream.next_u64()
        assert result == sub(add(sub(raaa(s1), raaa(3)), raaa(s2)), raaa(s3))

    @pytest.mark.parametrize(
        "src, expected", [("3/2*(-2/3*a)", "-1a"), ("-3/2*(-2/3*a)", "+1a"), ("0*(3/2*a)", "0")]
    )
    def test_folded_factors_that_multiply_to_an_integer_give_int_coefficients(
        self, src, expected
    ):
        # the folded scale is the Fraction -1, 1 or 0; the result must not keep a Fraction
        (result,) = run_program(src, env_with(a=parse("+1a")))
        assert serialize(result) == expected
        _assert_clean(result)


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


class TestCompiledOnce:
    # parse_program's statements may run more than once: each compiled call
    # keeps its own builtin name, column and arguments.
    LINE = "sym a b; extract(2*a - b, s1=(a, b), d1=(a), d2=(b)); single(a); raaa(); raaa(7, n1=2)"

    def test_two_runs_give_the_same_results_and_seed(self):
        stmts = parse_program(self.LINE)
        runs = []
        for _ in range(2):
            env = Env(seed=5)
            runs.append(([run(env) for run in stmts], env.next_seed()))
        assert runs[0] == runs[1]
        results = runs[0][0]
        assert [serialize(e) for e in results[1:3]] == ["+2a -1b", "+1a"]
        assert results[3] == eval_one("raaa()", Env(seed=5))
        assert results[4] == eval_one("raaa(7, n1=2)")

    def test_a_refused_call_fails_alike_and_draws_no_seed(self):
        (stmt,) = parse_program("extract(raaa(), q9=a)")
        errors = []
        for _ in range(2):
            env = Env(seed=5)
            with pytest.raises(EvalError) as err:
                stmt(env)
            errors.append((err.value.message, err.value.pos))
            assert env.next_seed() == Env(seed=5).next_seed()
        assert errors[0] == errors[1] == ("extract() has no keyword argument 'q9'", 1)


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
            ("raaa(3, n1=1, n1=2, n2=0, n3=0)", EvalError, "duplicate keyword argument 'n1'", 1),
            ("  raaa(q=1, q=2)", EvalError, "raaa() has no keyword argument 'q'", 3),
            ("raaa(n1=1, n1=3/2)", EvalError, "duplicate keyword argument 'n1'", 1),
            ("raaa(alphabet=(a), alphabet=3)", EvalError,
             "duplicate keyword argument 'alphabet'", 1),
            ("sym a; replace(a, 1, s1=a, s1=b)", EvalError, "duplicate keyword argument 's1'", 8),
            ("sym a; extract(a, s1=2)", EvalError, "'s1' takes symbol names, not a number", 22),
            ("sym a; extract(a, s1=2, q9=a)", EvalError,
             "'s1' takes symbol names, not a number", 22),
            ("raaa(alphabet=3)", EvalError, "'alphabet' takes symbol names", 15),
            ("raaa(n1=3/2)", EvalError, "'n1' must be an integer >= 0", 9),
            ("raaa(n1=-1)", ExprSyntaxError,
             "expected a number, a symbol name or a parenthesized symbol list", 9),
            ("sym a; extract(a, s1=a, a)", ExprSyntaxError,
             "positional argument after keyword argument", 25),
            ("raaa(1/2)", EvalError, "raaa() seed must be an integer", 6),
            ("sym a; raaa(a)", EvalError, "raaa() seed must be an integer", 13),
            ("sym a; set_single(a, 5)", EvalError,
             "replacement must be an element or the literal 0", 8),
            ("raaa(n1=100000000000)", EvalError, "'n1' must be at most 100000", 9),
            ("(" * 101 + "a" + ")" * 101, ExprSyntaxError, "expression nested too deeply", 101),
            ("single(" * 101 + "a" + ")" * 101, ExprSyntaxError,
             "expression nested too deeply", 707),
            ("let v = --2", ScalarOperandError, NOT_ELEMENT, 9),
            # a symbol list, lexed as one token, wherever one can stand
            ("sym a b; single(a, b)", EvalError,
             "single() takes 1 positional argument(s), got 2", 10),
            ("sym a b; (a, b)", ExprSyntaxError, "expected ')', found ','", 12),
            ("sym a b c; a (b, c)", EvalError, "unknown function 'a'", 12),
            ("sym a b; let (a, b) = a", ExprSyntaxError, "expected a name to bind, found '('", 14),
            ("sym a; extract(a, s1=(a, sym))", ExprSyntaxError,
             "expected a symbol name, found 'sym'", 26),
            ("sym a; extract(a, s1=(a,))", ExprSyntaxError,
             "expected a symbol name, found ')'", 25),
            ("single(" * 100 + "set_single(a, b)" + ")" * 100, ExprSyntaxError,
             "expression nested too deeply", 711),
            # scalar factors, minuses and groups inside a chain
            ("sym a; a + 2*(a + 3)", ScalarOperandError, NOT_ELEMENT, 19),
            ("2*(3)", ScalarOperandError, LEFT_FACTOR, 4),
            ("sym a; 2*3*a", ScalarOperandError, LEFT_FACTOR, 10),
            ("sym a; a - -(2)*(3) + a", ScalarOperandError, LEFT_FACTOR, 18),
            ("sym a; a - -(2*3)", ScalarOperandError, LEFT_FACTOR, 16),
            ("sym a; raaa(-2*a)", EvalError, "raaa() seed must be an integer", 15),
            ("sym a; raaa(-(2*a))", EvalError, "raaa() seed must be an integer", 13),
            ("sym a b; extract(a, s1=(a b))", ExprSyntaxError, "expected ')', found 'b'", 27),
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
        "src",
        ["raaa(n1=3/2)", "raaa(alphabet=3)", "raaa(s1=a)", "raaa(n1=1, n3=100001)",
         "raaa(n2=1, n2=2)",
         # a call is checked before any of its arguments runs
         "extract(raaa(), q9=a)", "replace(raaa(), 1, s1=a, s1=b)",
         "extract(raaa(), d1=(a,b), d2=(c))", "raaa(raaa(), n1=3/2)"],
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
            # a misplaced number fails in its turn, after the operands before it ran
            ("raaa()*2; raaa()", ScalarOperandError, 1),
            ("raaa() - 2*(raaa() + 3); raaa()", ScalarOperandError, 2),
            ("set_single(raaa(), single(2)); raaa()", ScalarOperandError, 1),
            ("sym a; extract(raaa(), s1=a) + 3; raaa()", ScalarOperandError, 1),
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
