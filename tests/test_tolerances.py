"""The package's tolerances live in one table at the top of ``spectra.py``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "loccxform"

# The table as it stands; a changed value is a behaviour change.
TABLE = {
    "NORMALIZATION_ATOL": 1e-12,
    "NORMALIZATION_ACCEPT": 1e-6,
    "PARTIAL_SUM_TOL": 1e-10,
    "RATIO_TIE_TOL": 1e-12,
    "ORACLE_TOL": 1e-10,
}


def is_small_float(node: ast.AST) -> bool:
    """A float literal in (0, 1e-3): the size of a rounding allowance."""
    return isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < node.value < 1e-3


def tolerance_table(tree: ast.Module) -> list[ast.Assign]:
    """Module-level ``NAME = <small float>`` lines before the first class or function."""
    table = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            break
        if isinstance(stmt, ast.Assign) and is_small_float(stmt.value):
            table.append(stmt)
    return table


def stray_literals(package: Path) -> list[str]:
    """``file:line`` of every small float literal outside the spectra.py table."""
    stray = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(stmt.value) for stmt in tolerance_table(tree)} if path.name == "spectra.py" else set()
        stray += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if is_small_float(node) and id(node) not in allowed
        ]
    return stray


def test_no_tolerance_literal_outside_the_table():
    assert stray_literals(PACKAGE) == []


def test_table_names_and_values_are_unchanged():
    tree = ast.parse((PACKAGE / "spectra.py").read_text(encoding="utf-8"))
    table = [(stmt.targets[0].id, stmt.value.value) for stmt in tolerance_table(tree)]
    assert table == list(TABLE.items())


def test_every_tolerance_is_defined_once_in_spectra():
    definitions = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                definitions += [
                    (path.name, t.id) for t in targets if isinstance(t, ast.Name) and t.id in TABLE
                ]
    assert sorted(definitions) == sorted(("spectra.py", name) for name in TABLE)
