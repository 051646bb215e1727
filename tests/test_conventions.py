"""Each discrete convention has one home.

The trapezoid rule over the grid is kernels.trapezoid_weights (and its
tail form, kernels.tail_weight_matrix).  No module under src/ calls
numpy's own trapezoid rule, whose spacing comes from the differences of
the nodes rather than from the grid step.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NUMPY_RULES = {"trapezoid", "trapz"}


def numpy_trapezoid_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) of each call np.trapezoid / numpy.trapz (any alias
    the module gives numpy) and each import of those names from numpy."""
    tree = ast.parse(source)
    aliases = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names
                           if a.name == "numpy")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, a.name) for a in node.names
                      if a.name in NUMPY_RULES]
        elif (isinstance(node, ast.Attribute) and node.attr in NUMPY_RULES
              and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_scan_finds_numpy_trapezoid():
    source = ("import numpy as np\n"
              "import numpy\n"
              "from numpy import trapz\n"
              "from .kernels import trapezoid_weights\n"
              "def f(y, x, grid):\n"
              "    a = np.trapezoid(y, x)\n"
              "    b = numpy.trapz(y, x)\n"
              "    return a + b + y @ trapezoid_weights(grid)\n")
    assert numpy_trapezoid_uses(source) == [
        (3, "trapz"), (6, "np.trapezoid"), (7, "numpy.trapz")]


def test_src_has_no_numpy_trapezoid():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, name in numpy_trapezoid_uses(
                 path.read_text(encoding="utf-8"))]
    assert not found, ("numpy trapezoid rule in src/; use "
                       "kernels.trapezoid_weights:\n" + "\n".join(found))
