"""The tolerance table is the one place that holds a numerical threshold."""

import ast
from pathlib import Path

import numpy as np

from certnn import lp, tolerances

SRC = Path(tolerances.__file__).parent


def _small_float_literals(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0.0 < abs(node.value) < 1e-3
    ]


def test_no_threshold_outside_the_table():
    # a float literal below 1e-3 in the package is a threshold; it belongs in
    # certnn.tolerances with the sentence on what it guards
    found = [
        hit
        for path in sorted(SRC.glob("*.py"))
        if path.name != "tolerances.py"
        for hit in _small_float_literals(path)
    ]
    assert found == []


def test_table_imports_nothing_from_certnn():
    tree = ast.parse(Path(tolerances.__file__).read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    names = [a.name for n in imports if isinstance(n, ast.Import) for a in n.names]
    names += [n.module or "" for n in imports if isinstance(n, ast.ImportFrom)]
    assert not [name for name in names if name.split(".")[0] == "certnn"]


def test_lp_feasibility_tolerance_is_highs_own():
    # LP_FEAS_TOL states the feasibility tolerance every LpModel solves with
    h = lp.LpModel(np.zeros(1), np.zeros((0, 1)), np.zeros(0), [-1.0], [1.0])._highs
    for option in ("primal_feasibility_tolerance", "dual_feasibility_tolerance"):
        status, value = h.getOptionValue(option)
        assert status == lp._highs.HighsStatus.kOk
        assert value == tolerances.LP_FEAS_TOL
