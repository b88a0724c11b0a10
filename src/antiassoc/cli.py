"""Command-line front end: ``aaa eval``, ``aaa repl``, ``aaa parse``, ``aaa check``.

Exit codes: 0 success, 1 property failure or false equality, 2 parse,
evaluation or internal error, 64 usage error.  A coefficient too long for
``str()`` is a ``line N: cannot print the result: ...`` error: ``eval``
and ``parse`` exit 2 and ``repl`` goes on to the next line.  Output is
machine-readable when piped: one canonical text line per value.  When
stdout is a terminal, each element is prefixed by a header line.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .core import AlgebraContext
from .exprlang import Env, ExprError, run_program
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
    p_check.add_argument("--trials", type=int, default=1000, help="trials per property")
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


def _resolve_seed(parser: _ArgumentParser, value) -> int:
    raw = value if value is not None else os.environ.get("AAA_SEED")
    if raw is None:
        return int.from_bytes(os.urandom(8), "big")
    try:
        return int(raw)
    except ValueError:
        parser.error(f"invalid seed: {raw!r}")


def _session(parser: _ArgumentParser, args) -> Env:
    """The session ``eval`` and ``repl`` start in, from ``--k`` and ``--seed``."""
    return Env(context=_resolve_k(parser, args.k), seed=_resolve_seed(parser, args.seed))


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


def _run_line(src: str, env: Env, lineno: int, tty: bool):
    """Run one input line; returns (ok, any_false_equality)."""
    try:
        results = run_program(src, env)
    except ExprError as exc:
        print(f"line {lineno}: col {exc.pos}: {exc.message}", file=sys.stderr)
        return False, False
    any_false = False
    for value in results:
        if isinstance(value, bool):
            any_false = any_false or not value
            print("true" if value else "false")
        elif value is not None:
            text = _serialize_or_report(value, lineno)
            if text is None:
                return False, False
            if tty:
                print(HEADER)
            print(text)
    return True, any_false


def _cmd_eval(parser: _ArgumentParser, args) -> int:
    env = _session(parser, args)
    tty = sys.stdout.isatty()
    if args.exprs:
        lines = list(enumerate(args.exprs, 1))
    else:
        lines = [(n, raw.rstrip("\n")) for n, raw in enumerate(sys.stdin, 1)]
    status = 0
    for lineno, src in lines:
        if not src.strip():
            continue
        ok, any_false = _run_line(src, env, lineno, tty)
        if not ok:
            return 2
        if any_false:
            status = 1
    return status


def _cmd_repl(parser: _ArgumentParser, args) -> int:
    try:
        import readline  # noqa: F401  (line editing when available)
    except ImportError:
        pass
    env = _session(parser, args)
    interactive = sys.stdin.isatty()
    tty = sys.stdout.isatty()
    prompt = "aaa> " if interactive else ""
    if interactive:
        print("type :quit to leave, :k RAT for a fresh context, :seed N to reseed")
    lineno = 0
    while True:
        try:
            line = input(prompt)
        except EOFError:
            break
        except KeyboardInterrupt:
            print()
            continue
        lineno += 1
        line = line.strip()
        if not line:
            continue
        if line.startswith(":"):
            command, _, rest = line.partition(" ")
            rest = rest.strip()
            if command in (":quit", ":q"):
                break
            if command == ":k":
                try:
                    env = Env(context=AlgebraContext(rest), seed=env.seed)
                except ValueError:
                    print(f"invalid rational for :k: {rest!r}", file=sys.stderr)
                continue
            if command == ":seed":
                try:
                    env.reseed(int(rest))
                except ValueError:
                    print(f"invalid seed: {rest!r}", file=sys.stderr)
                continue
            print(f"unknown command {command!r}", file=sys.stderr)
            continue
        _run_line(line, env, lineno, tty)
    return 0


def _cmd_parse(args) -> int:
    status = 0
    for lineno, raw in enumerate(sys.stdin, 1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        try:
            element = parse(line)
        except ParseError as exc:
            print(f"line {lineno}: {exc.message}", file=sys.stderr)
            return 2
        out = _serialize_or_report(element, lineno)
        if out is None:
            return 2
        print(out)
        if args.roundtrip and out != line:
            status = 1
    return status


def _cmd_check(parser: _ArgumentParser, args) -> int:
    from .checks import run_suite  # here, so that the other commands start without it
    if args.trials < 0:
        parser.error("--trials must be >= 0")
    context = _resolve_k(parser, args.k)
    seed = _resolve_seed(parser, args.seed)
    print(f"seed: {seed}")
    reports = run_suite(k=context.k, trials=args.trials, seed=seed)
    for report in reports:
        print(f"{report.name}: {report.passed}/{report.trials}")
        if report.counterexample:
            print(f"  counterexample: {report.counterexample}")
    ok = sum(1 for r in reports if r.ok)
    print(f"{ok}/{len(reports)} properties passed ({args.trials} trials each)")
    return 0 if ok == len(reports) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            return _cmd_eval(parser, args)
        if args.command == "repl":
            return _cmd_repl(parser, args)
        if args.command == "parse":
            return _cmd_parse(args)
        return _cmd_check(parser, args)
    except Exception as exc:
        # Last resort: a crash is an error (2), never a traceback or a "false" (1).
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2
