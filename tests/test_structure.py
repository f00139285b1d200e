"""Each bit-exact array rule has one spelling, in `dissolve.sets`.

The stacked row-wise dot `a[..., None, :] @ b[..., :, None]` lives in
`sets._dots`, and the column-major layout of a matrix variable in
`sets._mats` and `sets._flats`; every other module calls them.  The
diagnostics take `_norm` from `dissolve.sets`, not from the solvers.
"""

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dissolve"
# the spellings of the two rules: a stacked (1, n) row times anything, and
# a Fortran-order reshape
SPELLINGS = (re.compile(r"None, :\]\s*@"), re.compile(r"""order\s*=\s*["']F["']"""))
HOMES = {("sets.py", "_dots"), ("sets.py", "_mats"), ("sets.py", "_flats")}


def _functions_at(tree):
    """For each line of a module, the name of the innermost function on it."""
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for line in range(node.lineno, node.end_lineno + 1):
                # ast.walk visits outer functions first, so inner ones win
                owner[line] = node.name
    return owner


def stray_spellings(package=PACKAGE):
    """(file, line, text) of every spelling outside its home helper."""
    found = []
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        owner = _functions_at(ast.parse(text))
        for i, line in enumerate(text.splitlines(), start=1):
            if (any(p.search(line) for p in SPELLINGS)
                    and (path.name, owner.get(i)) not in HOMES):
                found.append((path.name, i, line.strip()))
    return found


def solver_imports(path):
    """The names `path` imports that reach the solvers module."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names += [f"{module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    return [name for name in names if "solvers" in name.split(".")]


def test_each_array_rule_is_spelled_only_in_its_helper():
    assert stray_spellings() == []


def test_the_helpers_hold_their_spellings():
    # the guard above would pass vacuously if the helpers were renamed
    text = (PACKAGE / "sets.py").read_text()
    owner = _functions_at(ast.parse(text))
    homes = {owner.get(i) for i, line in enumerate(text.splitlines(), start=1)
             if any(p.search(line) for p in SPELLINGS)}
    assert homes <= {"_dots", "_mats", "_flats"} and "_dots" in homes


def test_diagnostics_do_not_import_the_solvers():
    assert solver_imports(PACKAGE / "diagnostics.py") == []


@pytest.mark.parametrize("line", [
    "    cc = (c[:, None, :] @ c[:, :, None])[:, 0, 0]\n",
    "    x0 = P.reshape(-1, order='F')\n",
])
def test_the_guard_sees_a_stray_spelling(tmp_path, line):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "mappings.py", "a") as fh:
        fh.write("\n\ndef stray(c, P):\n" + line)
    assert [(name, text) for name, _, text in stray_spellings(tmp_path)] == [
        ("mappings.py", line.strip())]


@pytest.mark.parametrize("source", ["from .solvers import _norm\n",
                                    "from . import solvers\n",
                                    "import dissolve.solvers\n",
                                    "from dissolve.solvers import solve\n"])
def test_the_guard_sees_a_solvers_import(tmp_path, source):
    path = tmp_path / "diagnostics.py"
    path.write_text(source)
    assert solver_imports(path) != []
