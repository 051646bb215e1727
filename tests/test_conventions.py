"""Each discrete convention has one home.

The trapezoid rule over the grid is kernels.trapezoid_weights (and its
tail form, kernels.tail_weight_matrix).  No module under src/ calls
numpy's own trapezoid rule, whose spacing comes from the differences of
the nodes rather than from the grid step.

The delayed generator is read through kernels.DelayedGenerator: its lag,
G_at and g_at are where lags are clipped and snapped and where a
product-form kernel (phi_direct) is divided back into G.  So snap_lag is
called only in measures and kernels, phi_direct is read only in kernels,
and oracles and girsanov import nothing from measures.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NUMPY_RULES = {"trapezoid", "trapz"}
SNAP_HOMES = {"measures", "kernels"}
PHI_DIRECT_HOMES = {"kernels"}
NO_MEASURES_IMPORT = {"oracles", "girsanov"}


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


def generator_home_breaches(source: str, module: str) -> list[tuple[int, str]]:
    """(line, what) of each snap_lag call outside SNAP_HOMES, each read of
    an attribute phi_direct outside PHI_DIRECT_HOMES and, in the modules
    of NO_MEASURES_IMPORT, each import from the package's measures."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and module not in SNAP_HOMES:
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "snap_lag":
                found.append((node.lineno, "snap_lag call"))
        elif (isinstance(node, ast.Attribute) and node.attr == "phi_direct"
              and isinstance(node.ctx, ast.Load)
              and module not in PHI_DIRECT_HOMES):
            found.append((node.lineno, "phi_direct read"))
        elif (isinstance(node, ast.ImportFrom)
              and module in NO_MEASURES_IMPORT
              and ((node.module or "").split(".")[-1] == "measures"
                   or any(a.name == "measures" for a in node.names))):
            found.append((node.lineno, "import from measures"))
        elif (isinstance(node, ast.Import) and module in NO_MEASURES_IMPORT
              and any(a.name.split(".")[-1] == "measures"
                      for a in node.names)):
            found.append((node.lineno, "import from measures"))
    return sorted(found)


def test_scan_finds_generator_breaches():
    source = ("from .measures import snap_lag\n"
              "from . import measures\n"
              "import bsvielab.measures\n"
              "def f(gen, x):\n"
              "    a = snap_lag(x - 1.0)\n"
              "    b = measures.snap_lag(a)\n"
              "    if gen.kernel.phi_direct is None:\n"
              "        return gen.lag(x) + a + b\n"
              "    return gen.G_at(x)\n")
    oracles = [(1, "import from measures"), (2, "import from measures"),
               (3, "import from measures"), (5, "snap_lag call"),
               (6, "snap_lag call"), (7, "phi_direct read")]
    assert generator_home_breaches(source, "oracles") == oracles
    assert generator_home_breaches(source, "solver") == oracles[3:]
    assert generator_home_breaches(source, "measures") == [oracles[-1]]
    assert generator_home_breaches(source, "kernels") == []


def test_src_reads_the_generator_through_its_home():
    found = [f"{path.relative_to(ROOT)}:{line}: {what}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, what in generator_home_breaches(
                 path.read_text(encoding="utf-8"), path.stem)]
    assert not found, ("read lags, G and g through kernels.DelayedGenerator"
                       ":\n" + "\n".join(found))
