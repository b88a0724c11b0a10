"""Each command loads only the modules it runs, and the lazy package keeps its contract.

Every test here runs a fresh interpreter, so that no earlier import hides a load.
"""

import ast
import re
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "antiassoc"

_CLI = {"antiassoc", "antiassoc.cli", "antiassoc.core", "antiassoc.textio"}
_CHECKS = {"antiassoc.checks", "antiassoc._oracle", "antiassoc.rng"}
_EXPRLANG = {"antiassoc.access", "antiassoc.exprlang", "antiassoc.rng"}


def _fresh(*args):
    """Run ``python *args`` on empty stdin; it must exit 0."""
    proc = subprocess.run(
        [sys.executable, *args], input="", capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["parse", "--roundtrip"], _CLI),
        (["check", "--trials", "0"], _CLI | _CHECKS),
        (["eval"], _CLI | _EXPRLANG),
        (["repl"], _CLI | _EXPRLANG),
    ],
    ids=["parse", "check", "eval", "repl"],
)
def test_each_command_imports_only_what_it_runs(argv, loaded):
    stderr = _fresh("-X", "importtime", "-m", "antiassoc", *argv).stderr
    imported = set(re.findall(r"^import time:[^|]*\|[^|]*\| *(\S+)$", stderr, re.MULTILINE))
    assert {name for name in imported if name.partition(".")[0] == "antiassoc"} == loaded
    assert "readline" not in imported  # repl loads it only when stdin is a terminal


def test_importing_the_package_loads_no_module():
    code = "import sys, antiassoc; print(sorted(m for m in sys.modules if 'antiassoc' in m))"
    assert _fresh("-c", code).stdout == "['antiassoc']\n"


def test_a_first_lookup_loads_the_package():
    code = "import antiassoc; print(antiassoc.serialize(antiassoc.parse(' +2b  +1a')))"
    assert _fresh("-c", code).stdout == "+1a +2b\n"


def test_star_import_binds_exactly_all():
    code = (
        "ns = {}\n"
        "exec('from antiassoc import *', ns)\n"
        "import antiassoc\n"
        "print(sorted(ns.keys() - {'__builtins__'}) == sorted(antiassoc.__all__))\n"
        "print(len(antiassoc.__all__))\n"
    )
    assert _fresh("-c", code).stdout == "True\n53\n"


def test_an_unknown_name_is_the_usual_attribute_error():
    code = (
        "import antiassoc\n"
        "try:\n"
        "    antiassoc.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(hasattr(antiassoc, 'no_such_name'), hasattr(antiassoc, 'cli'))\n"
    )
    expected = "module 'antiassoc' has no attribute 'no_such_name'\nFalse False\n"
    assert _fresh("-c", code).stdout == expected


def test_dir_lists_every_public_name_and_module():
    code = (
        "import antiassoc\n"
        "names = dir(antiassoc)\n"
        "print(names == sorted(names), set(antiassoc.__all__) <= set(names))\n"
        "print([m for m in ('access', 'core', 'exprlang', 'rng', 'textio') if m not in names])\n"
    )
    assert _fresh("-c", code).stdout == "True True\n[]\n"


def _python_blocks(markdown):
    return re.findall(r"^```python\n(.*?)^```", markdown, re.MULTILINE | re.DOTALL)


def _checked(code):
    """``code`` with each ``serialize(...)  # '<text>'`` line made an assertion on its text."""
    lines, count = [], 0
    for line in code.splitlines():
        m = re.fullmatch(r"(serialize\(.*\))\s+# '([^']*)'.*", line)
        if m:
            count += 1
            line = f"assert {m[1]} == {m[2]!r}, ({m[2]!r}, {m[1]})"
        lines.append(line)
    return "\n".join(lines) + "\n", count


def test_quick_start_examples_run_and_print_what_they_say():
    """README's python blocks share one namespace, as a reader runs them; then the docstring's."""
    readme, readme_checks = _checked("\n".join(_python_blocks((ROOT / "README.md").read_text())))
    docstring = ast.get_docstring(ast.parse((PACKAGE / "__init__.py").read_text()))
    block = docstring.partition("Quick start::\n")[2].splitlines()
    example = takewhile(lambda line: not line or line.startswith("    "), block)
    quick_start, quick_start_checks = _checked("\n".join(line[4:] for line in example))
    assert (readme_checks, quick_start_checks) == (4, 2)
    code = readme + "\n" + "exec(" + repr(quick_start) + ", {})\nprint('ok')\n"
    assert _fresh("-c", code).stdout == "ok\n"
