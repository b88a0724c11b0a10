from coverage_gate import unrun

# Importing it runs lines 1, 2, 5 and 10; never_called's lines 6 and 7 never run.
MODULE = """def called():
    return 1


def never_called():
    x = 2
    return x


called()
"""


def test_the_lines_of_a_function_never_called_are_unrun(tmp_path):
    (tmp_path / "mod.py").write_text(MODULE)
    ran = {("mod.py", n) for n in (1, 2, 5, 10)}
    assert unrun(ran, [tmp_path / "mod.py"]) == (6, [("mod.py", 6, "x = 2"), ("mod.py", 7, "return x")])
    assert unrun(ran | {("mod.py", 6), ("mod.py", 7)}, [tmp_path / "mod.py"]) == (6, [])
