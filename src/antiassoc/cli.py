"""Command-line front end: ``aaa eval``, ``aaa repl``, ``aaa parse``, ``aaa check``.

Exit codes: 0 success, 1 property failure or false equality, 2 parse,
evaluation or internal error, 64 usage error, 130 Ctrl-C (nothing more is
printed; ``repl`` drops the line and reads the next).  A coefficient too long for
``str()`` is a ``line N: cannot print the result: ...`` error: ``eval``
and ``parse`` exit 2 and ``repl`` goes on to the next line.  Output is
machine-readable when piped: one canonical text line per value.  When
stdout is a terminal, each element is prefixed by a header line.
``eval`` runs each stdin line as it reads it; a closed stdout exits 2 silently.
Each command runs with the cyclic garbage collector off, as its elements
and statements form no reference cycles; the library leaves it alone.
Only ``eval`` and ``repl`` import ``exprlang``, and ``repl`` imports ``readline`` only
at a terminal.  A seed (``--seed``, ``AAA_SEED``, ``:seed``) matches ``[+-]?[0-9]+``,
as does ``--trials``, which is also ``>= 0``.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from typing import Optional

from .core import AlgebraContext
from .textio import ParseError, parse, serialize

__all__ = ["main"]

HEADER = "free antiassociative algebra element:"

_USAGE_EXIT = 64


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's default error exit is 2; usage errors here are 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="aaa",
        description="Exact arithmetic in the free antiassociative algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p_eval = sub.add_parser("eval", help="evaluate statements from arguments or stdin")
    p_eval.add_argument("exprs", nargs="*", metavar="EXPR", help="';'-separated statements")
    _common_flags(p_eval)

    p_repl = sub.add_parser("repl", help="interactive session")
    _common_flags(p_repl)

    p_parse = sub.add_parser("parse", help="re-emit canonical text read from stdin")
    p_parse.add_argument(
        "--roundtrip",
        action="store_true",
        help="exit nonzero if any input line is not already canonical",
    )

    p_check = sub.add_parser("check", help="run the randomized property suite")
    p_check.add_argument("--trials", default="1000", metavar="N", help="trials per property")
    _common_flags(p_check)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--k",
        default="-1",
        metavar="RAT",
        help="associativity constant K in a(bc) = K*(ab)c (rational, default -1; "
        "write --k=-3/2 for negative values)",
    )
    p.add_argument("--seed", default=None, metavar="N", help="base seed for raaa()")


def _resolve_k(parser: _ArgumentParser, text: str) -> AlgebraContext:
    try:
        return AlgebraContext(text)
    except ValueError:
        parser.error(f"invalid rational for --k: {text!r}")


def _seed(text: str) -> int:
    """RAT's numerator, or ``ValueError``: ``int()`` alone also takes 1_0, " 10 " and ١٠."""
    if re.fullmatch(r"[+-]?[0-9]+", text):
        return int(text)  # ValueError past sys.get_int_max_str_digits() too
    raise ValueError(text)


def _resolve_seed(parser: _ArgumentParser, value) -> int:
    raw = value if value is not None else os.environ.get("AAA_SEED")
    if raw is None:
        return int.from_bytes(os.urandom(8), "big")
    try:
        return _seed(raw)
    except ValueError:
        parser.error(f"invalid seed: {raw!r}")


def _session(parser: _ArgumentParser, args):
    """The session ``eval`` and ``repl`` start in, from ``--k`` and ``--seed``, and
    ``run_line(src, env, lineno) -> (ok, any_false_equality)``.  ``exprlang`` is
    looked up once per command: after any patch of it, and not by ``parse`` or ``check``."""
    from .exprlang import Env, ExprError, run_program
    tty = sys.stdout.isatty()

    def run_line(src: str, env: Env, lineno: int):
        try:
            results = run_program(src, env)
        except ExprError as exc:
            print(f"line {lineno}: col {exc.pos}: {exc.message}", file=sys.stderr)
            return False, False
        any_false = False
        for value in results:  # one write per line, header included: print writes its end apart
            if isinstance(value, bool):
                any_false = any_false or not value
                sys.stdout.write("true\n" if value else "false\n")
            elif value is not None:
                text = _serialize_or_report(value, lineno)
                if text is None:
                    return False, False
                sys.stdout.write(f"{HEADER}\n{text}\n" if tty else text + "\n")
        return True, any_false

    env = Env(context=_resolve_k(parser, args.k), seed=_resolve_seed(parser, args.seed))
    return env, run_line


def _serialize_or_report(element, lineno: int) -> Optional[str]:
    """``serialize(element)``, or None once a too-long coefficient is reported."""
    try:
        return serialize(element)
    except ValueError:  # str() refuses ints longer than sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        print(
            f"line {lineno}: cannot print the result: a coefficient has more than {limit} digits",
            file=sys.stderr,
        )
        return None


def _lines(source):
    """The numbered non-blank lines of ``source``, without their newline, as they are read."""
    return ((n, line.rstrip("\n")) for n, line in enumerate(source, 1) if line.strip())


def _cmd_eval(parser: _ArgumentParser, args) -> int:
    env, run_line = _session(parser, args)
    status = 0
    for lineno, src in _lines(args.exprs or sys.stdin):
        ok, any_false = run_line(src, env, lineno)
        if not ok:
            return 2
        if any_false:
            status = 1
    return status


def _cmd_repl(parser: _ArgumentParser, args) -> int:
    env, run_line = _session(parser, args)
    interactive = sys.stdin.isatty()
    prompt = "aaa> " if interactive else ""
    if interactive:  # input() edits lines with readline only at a terminal
        try:
            import readline  # noqa: F401
        except ImportError:
            pass
        print("type :quit to leave, :k RAT for a fresh context, :seed N to reseed")
    lineno = 0
    while True:
        try:  # Ctrl-C drops the line being typed or run, and the next is read
            try:
                line = input(prompt).strip()
            except EOFError:
                break
            lineno += 1
            if not line:
                continue
            if line.startswith(":"):
                command, _, rest = line.partition(" ")
                rest = rest.strip()
                if command in (":quit", ":q"):
                    break
                if command == ":k":
                    try:
                        env = type(env)(context=AlgebraContext(rest), seed=env.seed)
                    except ValueError:
                        print(f"invalid rational for :k: {rest!r}", file=sys.stderr)
                    continue
                if command == ":seed":
                    try:
                        env.reseed(_seed(rest))
                    except ValueError:
                        print(f"invalid seed: {rest!r}", file=sys.stderr)
                    continue
                print(f"unknown command {command!r}", file=sys.stderr)
                continue
            run_line(line, env, lineno)
        except KeyboardInterrupt:
            print()
    return 0


def _cmd_parse(parser: _ArgumentParser, args) -> int:
    status = 0
    for lineno, line in _lines(sys.stdin):
        try:
            element = parse(line)
        except ParseError as exc:
            print(f"line {lineno}: col {exc.column}: {exc.message}", file=sys.stderr)
            return 2
        out = _serialize_or_report(element, lineno)
        if out is None:
            return 2
        sys.stdout.write(out + "\n")
        if args.roundtrip and out != line:
            status = 1
    return status


def _cmd_check(parser: _ArgumentParser, args) -> int:
    from .checks import run_suite  # here, so that the other commands start without it
    try:
        trials = _seed(args.trials)  # by the seed's rule, not argparse's int()
    except ValueError:
        trials = -1
    if trials < 0:
        parser.error(f"--trials must be an integer >= 0, not {args.trials!r}")
    context = _resolve_k(parser, args.k)
    seed = _resolve_seed(parser, args.seed)
    print(f"seed: {seed}")
    reports = run_suite(k=context.k, trials=trials, seed=seed)
    for report in reports:
        print(f"{report.name}: {report.passed}/{report.trials}")
        if report.counterexample:
            print(f"  counterexample: {report.counterexample}")
    ok = sum(1 for r in reports if r.ok)
    print(f"{ok}/{len(reports)} properties passed ({trials} trials each)")
    return 0 if ok == len(reports) else 1


_COMMANDS = {"eval": _cmd_eval, "repl": _cmd_repl, "parse": _cmd_parse, "check": _cmd_check}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # The command's data forms no reference cycles, so reference counting
    # frees it all; the collector would only rescan every product's key tuples.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        status = _COMMANDS[args.command](parser, args)
        sys.stdout.flush()  # here, so that a reader gone before the last write is caught below
        return status
    except BrokenPipeError:  # the reader has gone; devnull takes the interpreter's last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except KeyboardInterrupt:  # Ctrl-C: the shell's 128 + SIGINT, and no traceback
        return 130
    except Exception as exc:
        # Last resort: a crash is an error (2), never a traceback or a "false" (1).
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()
