"""The bundled scripts run end to end and exit 0."""

import importlib.util
import os

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def test_flatness_survey_main_returns_zero(capsys):
    spec = importlib.util.spec_from_file_location(
        "flatness_survey", os.path.join(SCRIPTS, "flatness_survey.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--samples", "50"]) == 0
    assert capsys.readouterr().out


# 13 physical lines; code: the import, the def, the two lines of the
# string in code and the return
_FIXTURE = '''"""A module docstring
over two lines."""

import os  # a comment after code

# a comment alone


def f(x):
    """One line."""
    s = """a string
in code"""
    return x, s
'''


def test_src_lines_counts_code_without_docstrings_comments_and_blank_lines(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("src_lines", os.path.join(SCRIPTS, "src_lines.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "pkg").mkdir()
    path = tmp_path / "pkg" / "m.py"
    path.write_text(_FIXTURE)
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert module.counts(str(path)) == (13, 5)
    assert module.main([str(tmp_path / "pkg")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == [f"{13:>8} {5:>8}  {path}", f"{13:>8} {5:>8}  total"]
