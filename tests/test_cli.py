import gc
import io
import random
import select
import subprocess
import sys

import pytest

from antiassoc import cli
from conftest import KEYED_EXTRACT_OUT, KEYED_EXTRACT_SRC, X_PLUS_X1_TEXT


def run_cli(*argv, stdin=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "antiassoc", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )


class TestEval:
    def test_bracket_rewrite(self):
        proc = run_cli("eval", "sym a b c; a*(b*c)")
        assert proc.returncode == 0
        assert proc.stdout == "-1(a.b)c\n"

    def test_degree_four_is_zero(self):
        proc = run_cli("eval", "sym a b c d; a*b*c*d")
        assert proc.returncode == 0
        assert proc.stdout == "0\n"

    def test_associative_context(self):
        proc = run_cli("eval", "--k", "1", "sym a b c; a*(b*c) = (a*b)*c")
        assert proc.returncode == 0
        assert proc.stdout == "true\n"

    def test_rational_k(self):
        proc = run_cli("eval", "--k=-3/2", "sym a b c; a*(b*c)")
        assert proc.returncode == 0
        assert proc.stdout == "-3/2(a.b)c\n"

    def test_false_equality_exits_1(self):
        proc = run_cli("eval", "sym a b; a = b")
        assert proc.returncode == 1
        assert proc.stdout == "false\n"

    def test_statements_from_stdin(self):
        proc = run_cli("eval", stdin="sym p q r\np+q+r\n")
        assert proc.returncode == 0
        assert proc.stdout == "+1p +1q +1r\n"

    def test_multiple_args_share_environment(self):
        proc = run_cli("eval", "sym a b", "let v = a*b", "v")
        assert proc.returncode == 0
        assert proc.stdout == "+1a.b\n"

    def test_parse_error_reports_line_and_col(self):
        proc = run_cli("eval", stdin="sym a\na + \n")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("line 2: col 5:")

    def test_eval_error_exits_2(self):
        proc = run_cli("eval", "sym a; 2 + a")
        assert proc.returncode == 2
        assert "line 1" in proc.stderr

    def test_seed_determinism(self):
        one = run_cli("eval", "--seed", "11", "let r = raaa(); r")
        two = run_cli("eval", "--seed", "11", "let r = raaa(); r")
        other = run_cli("eval", "--seed", "12", "let r = raaa(); r")
        assert one.stdout == two.stdout
        assert one.stdout != other.stdout

    def test_seed_env_var(self):
        import os

        env = dict(os.environ, AAA_SEED="11")
        with_var = run_cli("eval", "let r = raaa(); r", env=env)
        explicit = run_cli("eval", "--seed", "11", "let r = raaa(); r")
        assert with_var.stdout == explicit.stdout

    def test_non_ascii_digit_exits_2(self):
        proc = run_cli("eval", "\u00b2")
        assert proc.returncode == 2
        assert proc.stderr == "line 1: col 1: illegal character '\u00b2'\n"

    def test_long_flat_sum_exits_2(self):
        proc = run_cli("eval", "sym a; " + "+".join(["a"] * 5000))
        assert proc.returncode == 0
        assert proc.stdout == "+5000a\n"

    def test_deep_nesting_exits_2(self):
        proc = run_cli("eval", stdin="sym a\n" + "(" * 3000 + "a" + ")" * 3000 + "\n")
        assert proc.returncode == 2
        assert proc.stderr == "line 2: col 101: expression nested too deeply\n"
        proc = run_cli("eval", stdin="sym a\n" + "-" * 3000 + "a\n")
        assert proc.returncode == 0
        assert proc.stdout == "+1a\n"

    def test_number_over_the_digit_limit_exits_2(self):
        proc = run_cli("eval", f"sym a; {'9' * (sys.get_int_max_str_digits() + 1)}*a")
        assert proc.returncode == 2
        assert proc.stderr.startswith("line 1: col 8: number longer than")

    def test_unprintable_result_exits_2(self):
        proc = run_cli("eval", f"sym a; let x = {'9' * 2000}*a; a", "x*(x*x)", "a")
        assert proc.returncode == 2
        assert proc.stdout == "+1a\n"
        assert proc.stderr.startswith("line 2: cannot print the result")
        assert "internal error" not in proc.stderr

    def test_unexpected_exception_exits_2(self, monkeypatch, capsys):
        def crash(src, env):
            raise RuntimeError("boom")

        monkeypatch.setattr("antiassoc.exprlang.run_program", crash)
        assert cli.main(["eval", "sym a; a"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError('boom')\n"

    def test_interrupt_is_not_an_internal_error(self, monkeypatch, capsys):
        def interrupt(src, env):
            raise KeyboardInterrupt

        monkeypatch.setattr("antiassoc.exprlang.run_program", interrupt)
        assert cli.main(["eval", "sym a; a"]) == 130
        assert capsys.readouterr() == ("", "")

    def test_raaa_over_the_term_cap_exits_2_at_once(self):
        proc = subprocess.run(
            [sys.executable, "-m", "antiassoc", "eval", "raaa(n1=100000000000)"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stderr == "line 1: col 9: 'n1' must be at most 100000\n"

    @pytest.mark.parametrize("statement, col", [("let v = u*u", 16950), ("(u*u)*u", 16943)])
    def test_product_over_the_budget_exits_2_at_once(self, statement, col):
        # u has 1,909 distinct singles, so u*u would form 3,644,281 term products
        alphabet = ",".join(f"x{i}" for i in range(3000))
        line = f"let u = raaa(1, alphabet=({alphabet}), n1=3000, n2=0, n3=0); {statement}"
        proc = subprocess.run(
            [sys.executable, "-m", "antiassoc", "eval", line],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            f"line 1: col {col}: '*' would form 3644281 term products, more than 2000000\n"
        )

    def test_unknown_flag_exits_64(self):
        proc = run_cli("eval", "--bogus", "sym a; a")
        assert proc.returncode == 64

    def test_k_outside_the_literal_grammar_exits_64(self):
        proc = run_cli("eval", "--k", "1.5", "sym a; a")
        assert proc.returncode == 64
        assert proc.stderr.endswith("aaa: error: invalid rational for --k: '1.5'\n")

    def test_unknown_subcommand_exits_64(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 64


class TestParseCommand:
    def test_canonical_echo(self):
        proc = run_cli("parse", stdin=X_PLUS_X1_TEXT + "\n")
        assert proc.returncode == 0
        assert proc.stdout == X_PLUS_X1_TEXT + "\n"

    def test_non_canonical_spacing_cancels(self):
        proc = run_cli("parse", stdin="-1a.b  +1a.b\n")
        assert proc.returncode == 0
        assert proc.stdout == "0\n"

    def test_syntax_error(self):
        proc = run_cli("parse", stdin="+1(a.b\n")
        assert proc.returncode == 2
        assert proc.stderr.strip() == "line 1: col 3: unclosed '('"

    @pytest.mark.parametrize("text, message", [
        ("+1a +", "line 1: col 6: expected digits after sign"),
        ("+1/0a", "line 1: col 4: zero denominator"),
    ])
    def test_errors_name_their_column(self, text, message):
        proc = run_cli("parse", stdin=text + "\n")
        assert proc.returncode == 2
        assert proc.stderr.strip() == message

    def test_roundtrip_fixed_point(self):
        proc = run_cli("parse", "--roundtrip", stdin=KEYED_EXTRACT_SRC + "\n")
        assert proc.returncode == 0

    def test_roundtrip_detects_non_canonical(self):
        proc = run_cli("parse", "--roundtrip", stdin="+1b +1a\n")
        assert proc.returncode == 1
        assert proc.stdout == "+1a +1b\n"

    def test_error_line_numbering(self):
        proc = run_cli("parse", stdin="+1a\n+1a +\n")
        assert proc.returncode == 2
        assert proc.stderr.startswith("line 2:")

    def test_numbers_over_the_digit_limit_exit_2(self):
        limit = sys.get_int_max_str_digits()
        at_limit = "9" * limit
        for text, message in (
            (f"+9{at_limit}a", f"line 1: col 2: number longer than {limit} digits"),
            (
                f"+{at_limit}a +{at_limit}a",
                f"line 1: cannot print the result: a coefficient has more than {limit} digits",
            ),
        ):
            proc = run_cli("parse", stdin=text + "\n")
            assert proc.returncode == 2
            assert proc.stderr.strip() == message


class TestCheckCommand:
    def test_small_run_passes(self):
        proc = run_cli("check", "--trials", "25", "--seed", "42")
        assert proc.returncode == 0
        assert "7/7 properties passed (25 trials each)" in proc.stdout

    def test_other_k_values(self):
        for k in ("1", "2", "-3/2", "0"):
            proc = run_cli("check", f"--k={k}", "--trials", "10", "--seed", "7")
            assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_zero_trials_vacuous_pass(self):
        proc = run_cli("check", "--trials", "0", "--seed", "1")
        assert proc.returncode == 0
        assert "7/7 properties passed (0 trials each)" in proc.stdout

    def test_negative_trials_usage_error(self):
        proc = run_cli("check", "--trials", "-3")
        assert proc.returncode == 64

    def test_seed_reported(self):
        proc = run_cli("check", "--trials", "1", "--seed", "9")
        assert proc.stdout.startswith("seed: 9\n")

    def test_other_commands_start_without_the_suite(self):
        probe = (
            "import sys, antiassoc.cli; "
            "print(sorted({'antiassoc.checks', 'antiassoc._oracle'} & set(sys.modules)))"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.stdout == "[]\n", proc.stderr

    def test_start_up_does_not_load_dataclasses(self):
        probe = "import sys, antiassoc.cli; print('dataclasses' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.stdout == "False\n", proc.stderr


class TestPipes:
    @pytest.mark.parametrize(
        "command, head, line",
        [("parse", "", "+1a +1b +1c +1d +1e +1f +1g +1h"),
         ("eval", "sym a b c d e f g h\n", "a+b+c+d+e+f+g+h")],
        ids=["parse", "eval"],
    )
    def test_a_reader_gone_after_one_line_is_a_silent_exit_2(self, command, head, line, tmp_path):
        # 256 kB of output, more than a pipe holds, so writing meets the closed end.
        source = tmp_path / "in.txt"
        source.write_text(head + (line + "\n") * 8000)
        with source.open() as stdin, subprocess.Popen(
            [sys.executable, "-m", "antiassoc", command],
            stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            assert proc.stdout.readline() == "+1a +1b +1c +1d +1e +1f +1g +1h\n"
            proc.stdout.close()
            assert proc.wait(timeout=10) == 2
            assert proc.stderr.read() == ""

    def test_eval_runs_each_stdin_line_as_it_reads_it(self):
        with subprocess.Popen(
            [sys.executable, "-u", "-m", "antiassoc", "eval"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            proc.stdin.write("sym a b; a*b\n")
            proc.stdin.flush()  # stdin stays open: the line must run before its end
            assert select.select([proc.stdout], [], [], 10)[0], "no output while stdin is open"
            assert proc.stdout.readline() == "+1a.b\n"
            proc.stdin.close()
            assert proc.wait(timeout=10) == 0


class _CountingStdout(io.StringIO):
    def __init__(self, tty):
        super().__init__()
        self.tty, self.writes = tty, []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)

    def isatty(self):
        return self.tty


class TestWrites:
    # Under python -u every write is a system call, and a reader wakes on each.
    @pytest.mark.parametrize("tty", [False, True], ids=["piped", "terminal"])
    def test_one_write_per_reply_line(self, monkeypatch, tty):
        out = _CountingStdout(tty)
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(["eval", "sym a b; a + b; a = a"]) == 0
        header = cli.HEADER + "\n" if tty else ""
        assert out.writes == [header + "+1a +1b\n", "true\n"]

    def test_one_write_per_parsed_line(self, monkeypatch):
        out = _CountingStdout(False)
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stdin", io.StringIO("+1b +1a\n+1a\n"))
        assert cli.main(["parse"]) == 0
        assert out.writes == ["+1a +1b\n", "+1a\n"]


class TestRepl:
    def test_piped_session(self):
        proc = run_cli("repl", stdin="sym p q r\np+q+r\n:quit\n")
        assert proc.returncode == 0
        assert proc.stdout == "+1p +1q +1r\n"

    def test_raaa_and_single(self):
        proc = run_cli("repl", "--seed", "3", stdin="let a = raaa()\nsingle(a)\n")
        assert proc.returncode == 0
        line = proc.stdout.strip()
        assert "." not in line and "(" not in line  # degree-1 terms only

    def test_context_switch_clears_bindings(self):
        proc = run_cli("repl", stdin="sym a\nlet b = a\n:k 1\nb\n")
        assert proc.returncode == 0
        assert "unbound variable 'b'" in proc.stderr

    def test_errors_are_recoverable(self):
        proc = run_cli("repl", stdin="oops\nsym a\na\n")
        assert proc.returncode == 0
        assert proc.stdout == "+1a\n"
        assert "unbound" in proc.stderr

    def test_deep_nesting_is_recoverable(self):
        proc = run_cli("repl", stdin="sym a\n" + "(" * 3000 + "a" + ")" * 3000 + "\na\n")
        assert proc.returncode == 0
        assert proc.stdout == "+1a\n"
        assert "nested too deeply" in proc.stderr

    def test_unprintable_result_is_recoverable(self):
        script = (
            f"sym a; let x = {'9' * 2000}*a\n"
            "x*(x*x)\n"
            f"{'9' * (sys.get_int_max_str_digits() + 1)}*a\n"
            "a\n"
        )
        proc = run_cli("repl", stdin=script)
        assert proc.returncode == 0
        assert proc.stdout == "+1a\n"
        assert proc.stderr.splitlines() == [
            "line 2: cannot print the result: a coefficient has more than "
            f"{sys.get_int_max_str_digits()} digits",
            f"line 3: col 1: number longer than {sys.get_int_max_str_digits()} digits",
        ]

    def test_an_interrupted_line_is_dropped(self, monkeypatch, capsys):
        from antiassoc import exprlang

        def interrupt(context, x, y):
            raise KeyboardInterrupt

        monkeypatch.setattr(exprlang, "mul", interrupt)
        monkeypatch.setattr(sys, "stdin", io.StringIO("sym a; let x = a*a\nx\na\n"))
        assert cli.main(["repl"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "\n+1a\n"  # a new line, as after Ctrl-C at the prompt
        assert captured.err == "line 2: col 1: unbound variable 'x'\n"

    def test_reseed_command(self):
        script = ":seed 4\nraaa()\n"
        one = run_cli("repl", stdin=script)
        two = run_cli("repl", "--seed", "4", stdin="raaa()\n")
        assert one.stdout == two.stdout

    @staticmethod
    def repl(monkeypatch, capsys, script, *argv):
        """The output of ``aaa repl *argv`` run in-process on ``script``."""
        monkeypatch.setattr(sys, "stdin", io.StringIO(script))
        assert cli.main(["repl", *argv]) == 0
        return capsys.readouterr()

    def test_blank_lines_are_skipped_and_counted(self, monkeypatch, capsys):
        out = self.repl(monkeypatch, capsys, "\n \t\noops\n")
        assert (out.out, out.err) == ("", "line 3: col 1: unbound variable 'oops'\n")

    @pytest.mark.parametrize("rest", ["1.5", "1/0", ""])  # the repl reads ':k ' as ':k'
    def test_refused_context_keeps_the_session(self, monkeypatch, capsys, rest):
        script = "sym a b c\nraaa()\n{}a*(b*c)\nraaa()\n"
        kept = self.repl(monkeypatch, capsys, script.format(f":k {rest}\n"), "--seed", "5")
        plain = self.repl(monkeypatch, capsys, script.format(""), "--seed", "5")
        assert kept.err == f"invalid rational for :k: {rest!r}\n"
        assert kept.out == plain.out  # the same bindings, context and seed stream
        assert kept.out.splitlines()[1] == "-1(a.b)c"

    def test_context_switch_restarts_the_seed_stream(self, monkeypatch, capsys):
        out = self.repl(monkeypatch, capsys, "raaa()\n:k 2\nraaa()\n", "--seed", "3")
        first, second = out.out.splitlines()
        assert first == second and out.err == ""


# int() reads each of the first three as 10; a seed is a full match of [+-]?[0-9]+.
_BAD_SEEDS = ["1_0", " 10 ", "١٠", "abc", "1e3", "1.5", ""]


class TestSeeds:
    """``--seed``, ``AAA_SEED``, ``:seed`` and ``--trials`` read integers by one grammar."""

    @pytest.mark.parametrize("text", _BAD_SEEDS)
    def test_flag_refuses(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--seed", text, "raaa()"])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"aaa: error: invalid seed: {text!r}\n")

    @pytest.mark.parametrize("text", _BAD_SEEDS)
    def test_environment_variable_refuses(self, monkeypatch, capsys, text):
        monkeypatch.setenv("AAA_SEED", text)
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "raaa()"])
        assert exc.value.code == 64
        assert capsys.readouterr().err.endswith(f"aaa: error: invalid seed: {text!r}\n")

    # The repl strips a command's argument, so " 10 " is ":seed 10" there; "1 0" stands in.
    @pytest.mark.parametrize("text", [s for s in _BAD_SEEDS if s != " 10 "] + ["1 0"])
    def test_repl_refuses_and_goes_on(self, monkeypatch, capsys, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(f":seed {text}\nraaa()\n"))
        assert cli.main(["repl", "--seed", "3"]) == 0
        refused = capsys.readouterr()
        assert refused.err == f"invalid seed: {text!r}\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO("raaa()\n"))
        assert cli.main(["repl", "--seed", "3"]) == 0
        assert refused.out == capsys.readouterr().out  # the seed stream did not change

    def test_a_seed_past_the_digit_limit_is_invalid_not_internal(self, monkeypatch, capsys):
        text = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--seed", text, "raaa()"])
        assert exc.value.code == 64
        assert capsys.readouterr().err.endswith(f"aaa: error: invalid seed: {text!r}\n")
        monkeypatch.setattr(sys, "stdin", io.StringIO(f":seed {text}\n"))
        assert cli.main(["repl"]) == 0
        assert capsys.readouterr().err == f"invalid seed: {text!r}\n"

    @pytest.mark.parametrize("text", _BAD_SEEDS)
    def test_trials_flag_refuses(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--trials", text, "--seed", "1"])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"aaa: error: --trials must be an integer >= 0, not {text!r}\n"
        )

    @pytest.mark.parametrize("text, trials", [("+2", 2), ("-0", 0), ("002", 2)])
    def test_trials_in_signed_digits(self, capsys, text, trials):
        assert cli.main(["check", "--trials", text, "--seed", "1"]) == 0
        assert capsys.readouterr().out.endswith(f"passed ({trials} trials each)\n")

    @pytest.mark.parametrize("text", ["10", "+10", "-10", "010"])
    def test_signed_digits_are_seeds(self, monkeypatch, capsys, text):
        monkeypatch.setenv("AAA_SEED", text)
        assert cli.main(["eval", "raaa()"]) == 0
        with_variable = capsys.readouterr().out
        assert cli.main(["eval", "--seed", str(int(text)), "raaa()"]) == 0
        assert capsys.readouterr().out == with_variable


_FUZZ_ATOMS = ["a", "b", "2*a", "3/2*b", "raaa(1, n1=2)", "single(a)", "extract(b, s1=b)"]
_FUZZ_EDITS = "+-*/()=,;0123456789 ab_\u00e9\u00b2\t\x85"


def _fuzz_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(_FUZZ_ATOMS)
    op = rng.choice([" + ", " - ", "*"])
    text = _fuzz_expr(rng, depth - 1) + op + _fuzz_expr(rng, depth - 1)
    return f"({text})" if rng.random() < 0.5 else text


def _fuzzed_lines(seed, count):
    """Statements with up to 3 characters inserted, deleted or substituted.

    No line starts a REPL command or holds a line break.
    """
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        text = rng.choice(["{}", "let v = {}", "{} = {}"]).format(
            _fuzz_expr(rng, 3), _fuzz_expr(rng, 3)
        )
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(0, len(text))
            char = rng.choice(_FUZZ_EDITS)
            text = rng.choice([text[:i] + char + text[i:], text[:i] + text[i + 1 :],
                               text[:i] + char + text[i + 1 :]])
        lines.append(text)
    return lines


class TestFuzzedLines:
    def test_repl_replies_to_every_line_without_a_traceback(self):
        # Each fuzzed line ends in "; a", so it prints +1a or reports an error
        # for its line; the ":next" between lines marks where each reply ends.
        fuzzed = _fuzzed_lines(7, 50)
        script = ["sym a b"]
        for line in fuzzed:
            script += [f"{line}; a", ":next"]
        proc = subprocess.run(
            [sys.executable, "-u", "-m", "antiassoc", "repl", "--seed", "1"],
            input="\n".join(script) + "\n",
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            encoding="utf-8",
            timeout=120,
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stdout
        replies = proc.stdout.split("unknown command ':next'\n")
        assert len(replies) == len(fuzzed) + 1 and replies[-1] == ""
        for i, reply in enumerate(replies[:-1]):
            assert reply.endswith("+1a\n") or f"line {2 + 2 * i}: " in reply, reply

    def test_eval_exit_codes(self):
        for line in _fuzzed_lines(8, 6):  # they exit 2, 2, 2, 2, 1 and 0
            proc = subprocess.run(
                [sys.executable, "-m", "antiassoc", "eval", f"sym a b; {line}"],
                capture_output=True,
                encoding="utf-8",
                timeout=60,
            )
            assert proc.returncode in (0, 1, 2), (line, proc.stderr)
            assert "Traceback" not in proc.stderr


def _cyclic_garbage(monkeypatch, capsys, argv, stdin=""):
    """How many objects in reference cycles one in-process ``main(argv)`` leaves."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        cli.main(argv)
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        capsys.readouterr()


def _statements(count):
    return "".join(f"let v{i} = raaa({i}, n1=3) * raaa(n2=2); v{i} - v{i}; v{i} = v{i}\n"
                   for i in range(count))


_ERROR_LINES = "oops\nsym a; a*2/0\n1 2\nraaa(n1=3/2)\n2*3\n" + "(" * 200 + "a" + ")" * 200 + "\n"


class TestCollector:
    """``main`` runs each command with the cyclic collector off and restores it."""

    @pytest.mark.parametrize(
        "command",
        [
            lambda n: (["eval", "--seed", "3"], _statements(n) + "sym a; a*(a*2\n"),
            lambda n: (["repl", "--seed", "3"], _statements(n) + _ERROR_LINES * n + ":k 2\n"),
            lambda n: (["parse"], "+2a +1b.c\n+1c -1/2(a.b)c +3a\n0\n" * n + "+1a +\n"),
            lambda n: (["check", "--seed", "7", "--trials", str(n)], ""),
        ],
        ids=["eval", "repl", "parse", "check"],
    )
    def test_no_reference_cycles_grow_with_the_input(self, monkeypatch, capsys, command):
        _cyclic_garbage(monkeypatch, capsys, *command(1))  # imports made on first use
        small = _cyclic_garbage(monkeypatch, capsys, *command(1))
        large = _cyclic_garbage(monkeypatch, capsys, *command(20))
        assert small == large

    def test_off_while_the_command_runs(self, monkeypatch):
        seen = []

        def record(src, env):
            seen.append(gc.isenabled())
            return []

        monkeypatch.setattr("antiassoc.exprlang.run_program", record)
        assert cli.main(["eval", "sym a; a"]) == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_on_again_after_an_internal_error(self, monkeypatch, capsys):
        def crash(src, env):
            raise RuntimeError("boom")

        monkeypatch.setattr("antiassoc.exprlang.run_program", crash)
        assert cli.main(["eval", "sym a; a"]) == 2
        assert gc.isenabled()

    def test_on_again_after_an_interrupt(self, monkeypatch, capsys):
        def interrupt(src, env):
            raise KeyboardInterrupt

        monkeypatch.setattr("antiassoc.exprlang.run_program", interrupt)
        assert cli.main(["eval", "sym a; a"]) == 130
        assert capsys.readouterr().err == ""
        assert gc.isenabled()

    def test_a_caller_that_turned_it_off_finds_it_off(self, capsys):
        gc.disable()
        try:
            assert cli.main(["eval", "sym a; a"]) == 0
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert capsys.readouterr().out == "+1a\n"
