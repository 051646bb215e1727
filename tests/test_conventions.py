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

The Philox stream is drawn in one place, girsanov.sample_paths: no other
code under src/ reads numpy.random.  Ensembles are bit-identical for a
given (seed, M, N), and girsanov-check's two legs share their random
numbers, because every path comes from that one draw.

A Gaussian-linear phi is evaluated in one place, terminal._phi_table, on
every pair of nodes: no other code under src/ calls <expr>.phi(...), so
the conditionals, the F table and the Malliavin table read one table.

Linear systems are solved, or matrices inverted, in two places: the
resolvent's blocked substitution kernels._upper_substitution, which
inverts its 64x64 diagonal blocks, and oracles._ridged_inverses, which
inverts the LSMC's ridged Gram blocks.  No other code under src/ calls
numpy.linalg.solve or numpy.linalg.inv, so no command pays for a dense
(N+1)^3 solve.

Output bytes have one home, the writers of cli: a file is opened for
writing only in cli.write_csv, cli.write_triangle and cli.write_meta, so
every CSV cell is formatted as cli.CELL and every sidecar is sorted JSON.
No code under src/ builds an object array: cells are formatted from the
float tables, cell by cell or once per distinct 64-bit pattern, with no
object array in between.

The Gauss-Hermite rule is summed in one place, terminal._gh_sum: no other
function under src/ reads its weights _GH_W_NORM, so every conditional
mean is a row sum whose bits do not depend on the means beside it (a
BLAS GEMV sums rows in groups of 4 and would make them depend on them).

A table is weighted by the tail trapezoid rule in one place,
kernels.tail_weighted, which writes table * tail_weight_matrix(grid) bit
for bit with no weight table: no code under src/ multiplies anything by a
tail_weight_matrix(...) call, so no command builds an (N+1)^2 weight
table only to multiply it into Phi or Psi.

The delay quadrature has one home, oracles._delay_walk: no other function
under src/ calls kernels.lag_weights or oracles._diffuse_operator, so the
delayed operator (the walk on G) and the LSMC's g-weighted Z term (the
row sums of the walk on g Z) read the same lags with the same arithmetic.

The delay operator has one builder, cli._prepare: build_delayed_operator
is called once under src/, there, and reads the generator's node table
(DelayedGenerator.node_table), the spec evaluated once on the triangle
t <= s, as build_phi does; both delayed oracles (Picard and the LSMC)
take the operator it built as an argument.

The rule that inputs built apart share one grid has one home,
kernels.same_grid: no other code under src/ builds a GridMismatch, so
every grid check compares the same things and names the grids that differ.

A derived table carries the value it was derived from: a ResolventTable
holds the KernelTable it was solved from (psi.phi), and a DelayOperator
holds its DelayedGenerator (op.generator).  So no function under src/
takes one parameter as such a table and another as its source, and no
caller can hand Psi the Phi of another kernel, or L the g-term of another
generator.  A parameter is taken as a class when its annotation names the
class or, unannotated, when it has the class's name under src/ (phi, psi,
gen, op).

A Monte Carlo spread has one home, girsanov.expect_q_blocks, which takes
every mean and its standard error, one block of paths at a time, the
LSMC's included: no
code under src/ calls a std or var reduction (<expr>.std(...),
<expr>.var(...), numpy.std or numpy.var), so a change to how a standard
error is taken reaches every number printed, girsanov-check's included.

Zero extension has one home, kernels.zero_extend_kernel: no other function
under src/ calls numpy.where on a condition that compares against a
literal 0, so every kernel or surface read at negative times (G, g and
the LSMC's Z between lags) is 0 there by one rule, and is evaluated at
times clipped to 0.

The partition of the paths into blocks has one home, girsanov: no other
module under src/ calls _path_blocks or reads LSMC_CHUNK, so every pass
over the paths takes the blocks of PathEnsemble.blocks, and a path's
block (and with it its bits) is the same in every pass.

A pass over the paths has one owner of its block buffers, its driver:
PathEnsemble.block_buffers is read only in cli._path_moments (the Monte
Carlo solve and norms) and oracles.solve_delayed_lsmc (compare's LSMC),
which lay out each pass's rows in one buffer and hand every producer
(solve_Y_blocks, conditional_sweep, evaluate_F_blocks,
residual_reduced_pathwise, the LSMC's basis pass and readout) the rows
it fills, so no producer allocates a (rows, m) table of its own.
"""

import ast
import itertools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NUMPY_RULES = {"trapezoid", "trapz"}
SNAP_HOMES = {"measures", "kernels"}
PHI_DIRECT_HOMES = {"kernels"}
NO_MEASURES_IMPORT = {"oracles", "girsanov"}
RNG_HOME = ("girsanov", "sample_paths")
PHI_HOME = ("terminal", "_phi_table")
SOLVE_HOMES = (("kernels", "_upper_substitution"),
               ("oracles", "_ridged_inverses"))
LINALG_SOLVERS = ("solve", "inv")
WRITE_HOMES = [("cli", "write_csv"), ("cli", "write_triangle"),
               ("cli", "write_meta")]
GH_WEIGHTS = "_GH_W_NORM"
GH_SUM_HOME = ("terminal", "_gh_sum")
LAG_WALK = {"lag_weights", "_diffuse_operator"}
TAIL_WEIGHTS = "tail_weight_matrix"
TAIL_WEIGHTED_HOME = ("kernels", "tail_weighted")
LAG_WALK_HOME = ("oracles", "_delay_walk")
OPERATOR_BUILDER = "build_delayed_operator"
OPERATOR_HOME = ("cli", "_prepare")
GRID_MISMATCH = "GridMismatch"
GRID_MISMATCH_HOME = ("kernels", "same_grid")
# (source, derived table that holds it)
DERIVED_TABLES = [("KernelTable", "ResolventTable"),
                  ("DelayedGenerator", "DelayOperator")]
# the name an unannotated parameter of each class has under src/
TABLE_PARAM_NAMES = {"phi": "KernelTable", "psi": "ResolventTable",
                     "gen": "DelayedGenerator", "op": "DelayOperator"}
SPREADS = {"std", "var"}
ZERO_EXTEND_HOME = ("kernels", "zero_extend_kernel")
PARTITION = {"_path_blocks", "LSMC_CHUNK"}
PARTITION_HOME = "girsanov"
BUFFERS = "block_buffers"
BUFFER_OWNERS = {("cli", "_path_moments"), ("oracles", "solve_delayed_lsmc")}


def numpy_aliases(tree: ast.AST) -> set[str]:
    """numpy and every name the module binds it to."""
    return {"numpy"} | {a.asname or a.name for node in ast.walk(tree)
                        if isinstance(node, ast.Import)
                        for a in node.names if a.name == "numpy"}


def numpy_trapezoid_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) of each call np.trapezoid / numpy.trapz (any alias
    the module gives numpy) and each import of those names from numpy."""
    tree = ast.parse(source)
    aliases = numpy_aliases(tree)
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


def home_nodes(tree: ast.Module, module: str, home: tuple[str, str]
               ) -> set[int]:
    """ids of the nodes of the top-level function home[1] when module is
    home[0], else empty."""
    return {id(node) for top in tree.body
            if isinstance(top, ast.FunctionDef) and (module, top.name) == home
            for node in ast.walk(top)}


def numpy_random_reads(source: str, module: str) -> list[tuple[int, str]]:
    """(line, what) of each read of numpy.random (any alias the module
    gives numpy) and each import of or from it, outside the top-level
    function RNG_HOME[1] of the module RNG_HOME[0]."""
    tree = ast.parse(source)
    aliases = numpy_aliases(tree)
    home = home_nodes(tree, module, RNG_HOME)
    found = []
    for node in ast.walk(tree):
        if id(node) in home:
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith("numpy.random")
                or (node.module == "numpy"
                    and any(a.name == "random" for a in node.names))):
            found.append((node.lineno, f"from {node.module} import"))
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            found.append((node.lineno, f"{node.value.id}.random"))
    return sorted(found)


def test_scan_finds_numpy_random():
    source = ("import numpy as np\n"
              "import numpy.random\n"
              "from numpy import random\n"
              "from numpy.random import default_rng\n"
              "def sample_paths(seed):\n"
              "    return np.random.Generator(np.random.Philox(key=seed))\n"
              "def other(seed):\n"
              "    return numpy.random.default_rng(seed)\n"
              "class Sampler:\n"
              "    def sample_paths(self, random):\n"
              "        return np.random.default_rng(random.seed)\n")
    outside = [(2, "import numpy.random"), (3, "from numpy import"),
               (4, "from numpy.random import"), (8, "numpy.random"),
               (11, "np.random")]
    assert numpy_random_reads(source, "girsanov") == outside
    assert numpy_random_reads(source, "solver") == sorted(
        outside + [(6, "np.random"), (6, "np.random")])


def test_src_draws_random_numbers_only_in_sample_paths():
    found = [f"{path.relative_to(ROOT)}:{line}: {what}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, what in numpy_random_reads(
                 path.read_text(encoding="utf-8"), path.stem)]
    assert not found, ("numpy.random read outside girsanov.sample_paths:\n"
                       + "\n".join(found))


def phi_calls(source: str, module: str) -> list[int]:
    """Lines of each call <expr>.phi(...) outside the top-level function
    PHI_HOME[1] of the module PHI_HOME[0]."""
    tree = ast.parse(source)
    home = home_nodes(tree, module, PHI_HOME)
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in home
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "phi")


def test_scan_finds_phi_calls():
    source = ("import numpy as np\n"
              "def _phi_table(fam, grid):\n"
              "    return fam.phi(grid.nodes[:, None], grid.nodes)\n"
              "def malliavin_table(fam, grid):\n"
              "    tt, ss = np.meshgrid(grid.nodes, grid.nodes)\n"
              "    return np.asarray(fam.phi(tt, ss))\n"
              "def table(fam, grid, phi):\n"
              "    return _phi_table(fam, grid) + phi(0.0, 0.0) + fam.phi\n"
              "class Family:\n"
              "    def _phi_table(self, grid):\n"
              "        return self.kind.phi(grid.nodes, grid.nodes)\n")
    assert phi_calls(source, "terminal") == [6, 11]
    assert phi_calls(source, "solver") == [3, 6, 11]


def test_src_evaluates_phi_only_in_phi_table():
    found = [f"{path.relative_to(ROOT)}:{line}: .phi(...) call"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line in phi_calls(path.read_text(encoding="utf-8"),
                                   path.stem)]
    assert not found, ("phi evaluated outside terminal._phi_table:\n"
                       + "\n".join(found))


def linalg_solves(source: str, module: str) -> list[tuple[int, str]]:
    """(line, what) of each read of numpy.linalg.solve or numpy.linalg.inv
    (LINALG_SOLVERS, through any alias the module gives numpy or
    numpy.linalg) and each import of them, outside the top-level
    functions of SOLVE_HOMES."""
    tree = ast.parse(source)
    aliases = numpy_aliases(tree)
    linalg = {a.asname for node in ast.walk(tree)
              if isinstance(node, ast.Import)
              for a in node.names if a.name == "numpy.linalg" and a.asname}
    linalg |= {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "numpy"
               for a in node.names if a.name == "linalg"}
    home = set().union(*(home_nodes(tree, module, h) for h in SOLVE_HOMES))
    found = []
    for node in ast.walk(tree):
        if id(node) in home:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [(node.lineno, f"from numpy.linalg import {a.name}")
                      for a in node.names if a.name in LINALG_SOLVERS]
        elif isinstance(node, ast.Attribute) and node.attr in LINALG_SOLVERS:
            v = node.value
            if isinstance(v, ast.Name) and v.id in linalg:
                found.append((node.lineno, f"{v.id}.{node.attr}"))
            elif (isinstance(v, ast.Attribute) and v.attr == "linalg"
                  and isinstance(v.value, ast.Name)
                  and v.value.id in aliases):
                found.append((node.lineno,
                              f"{v.value.id}.linalg.{node.attr}"))
    return sorted(found)


def test_scan_finds_linalg_solves():
    source = ("import numpy as np\n"
              "import numpy.linalg as la\n"
              "from numpy import linalg\n"
              "from numpy.linalg import solve, inv\n"
              "def _upper_substitution(r, u):\n"
              "    return np.linalg.solve(u.T, r.T).T @ np.linalg.inv(u)\n"
              "def resolvent(a, b):\n"
              "    x = np.linalg.solve(a, b) + la.solve(a, b)\n"
              "    return x + linalg.solve(a, b) + np.linalg.inv(a)\n"
              "class Table:\n"
              "    def _upper_substitution(self, r, u):\n"
              "        return np.linalg.solve(u, r) + self.solve(u)\n"
              "def _ridged_inverses(blocks):\n"
              "    return la.inv(blocks) + self.inv(blocks)\n")
    outside = [(4, "from numpy.linalg import inv"),
               (4, "from numpy.linalg import solve"), (8, "la.solve"),
               (8, "np.linalg.solve"), (9, "linalg.solve"),
               (9, "np.linalg.inv"), (12, "np.linalg.solve")]
    substitution = [(6, "np.linalg.inv"), (6, "np.linalg.solve")]
    ridged = [(14, "la.inv")]
    assert linalg_solves(source, "kernels") == sorted(outside + ridged)
    assert linalg_solves(source, "oracles") == sorted(
        outside + substitution)
    assert linalg_solves(source, "solver") == sorted(
        outside + substitution + ridged)


def test_src_solves_linear_systems_only_in_the_substitution():
    found = [f"{path.relative_to(ROOT)}:{line}: {what}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, what in linalg_solves(
                 path.read_text(encoding="utf-8"), path.stem)]
    assert not found, ("numpy.linalg.solve or inv outside "
                       + " and ".join(map(".".join, SOLVE_HOMES)) + ":\n"
                       + "\n".join(found))


def open_mode(call: ast.Call):
    """The mode of a call open(...), io.open(...) or <path>.open(...) (a
    non-literal mode as "?"), or None for any other call."""
    f = call.func
    if isinstance(f, ast.Name) and f.id == "open" or (
            isinstance(f, ast.Attribute) and f.attr == "open"
            and isinstance(f.value, ast.Name) and f.value.id == "io"):
        where = 1
    elif isinstance(f, ast.Attribute) and f.attr == "open":
        where = 0
    else:
        return None
    mode = {k.arg: k.value for k in call.keywords}.get("mode")
    if mode is None and len(call.args) > where:
        mode = call.args[where]
    if mode is None:
        return "r"
    return mode.value if isinstance(mode, ast.Constant) else "?"


def is_object_dtype(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "object"
            or isinstance(node, ast.Attribute) and node.attr == "object_"
            or isinstance(node, ast.Constant) and node.value in ("O", "object"))


def output_breaches(source: str, module: str) -> list[tuple[int, str]]:
    """(line, what) of each file opened for writing (a mode with w, a, x
    or +, or one that is not a literal) or written by write_text or
    write_bytes outside the top-level functions WRITE_HOMES, and of each
    dtype=object or astype(object) anywhere."""
    tree = ast.parse(source)
    home = set().union(*(home_nodes(tree, module, h) for h in WRITE_HOMES))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        mode = open_mode(node)
        if id(node) not in home and (
                mode is not None and set(mode) & set("wax+?")
                or isinstance(node.func, ast.Attribute)
                and node.func.attr in ("write_text", "write_bytes")):
            found.append((node.lineno, "write outside the cli writers"))
        if any(k.arg == "dtype" and is_object_dtype(k.value)
               for k in node.keywords) or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype" and node.args
                and is_object_dtype(node.args[0])):
            found.append((node.lineno, "object dtype"))
    return sorted(found)


def test_scan_finds_output_breaches():
    source = ("import io\n"
              "import numpy as np\n"
              "def write_csv(path, text):\n"
              "    with open(path, \"w\", encoding=\"utf-8\") as fh:\n"
              "        fh.write(text)\n"
              "def write_meta(path, mode):\n"
              "    return open(path, mode=mode)\n"
              "def load(path, p):\n"
              "    with open(path) as fh, open(path, \"rb\") as gh:\n"
              "        return fh.read() + gh.read() + p.open().read()\n"
              "def dump(path, p):\n"
              "    io.open(path, \"a\").close()\n"
              "    p.open(\"r+\").close()\n"
              "    p.write_text(\"x\")\n"
              "    a = np.array([1], dtype=object) + np.empty(1, dtype=\"O\")\n"
              "    return a + np.zeros(1).astype(np.object_)\n")
    outside = [(12, "write outside the cli writers"),
               (13, "write outside the cli writers"),
               (14, "write outside the cli writers"),
               (15, "object dtype"), (15, "object dtype"),
               (16, "object dtype")]
    assert output_breaches(source, "cli") == outside
    assert output_breaches(source, "solver") == sorted(
        outside + [(4, "write outside the cli writers"),
                   (7, "write outside the cli writers")])


def test_src_writes_files_only_in_the_cli_writers():
    found = [f"{path.relative_to(ROOT)}:{line}: {what}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, what in output_breaches(
                 path.read_text(encoding="utf-8"), path.stem)]
    assert not found, ("files written outside cli.write_csv, "
                       "cli.write_triangle and cli.write_meta, or an "
                       "object array:\n" + "\n".join(found))


def gh_weight_reads(source: str) -> list[tuple[int, str]]:
    """(line, where) of each read of GH_WEIGHTS (the name, an attribute of
    that name or an import of it), where the top-level function or class
    that holds it, "<module>" outside them all."""
    found = []
    for top in ast.parse(source).body:
        where = top.name if isinstance(
            top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == GH_WEIGHTS
                    and isinstance(node.ctx, ast.Load)
                    or isinstance(node, ast.Attribute)
                    and node.attr == GH_WEIGHTS
                    or isinstance(node, ast.ImportFrom)
                    and any(a.name == GH_WEIGHTS for a in node.names)):
                found.append((node.lineno, where))
    return sorted(found)


def test_scan_finds_gh_weight_reads():
    source = ("import numpy as np\n"
              "from .terminal import _GH_W_NORM\n"
              "_GH_W_NORM = np.ones(64)\n"
              "ONE = _GH_W_NORM.sum()\n"
              "def _gh_sum(vals):\n"
              "    return (vals * _GH_W_NORM).sum(axis=-1)\n"
              "def malliavin_table(pts, terminal):\n"
              "    return pts @ _GH_W_NORM + pts @ terminal._GH_W_NORM\n"
              "class Rule:\n"
              "    def mean(self, vals):\n"
              "        return vals @ _GH_W_NORM\n")
    assert gh_weight_reads(source) == [
        (2, "<module>"), (4, "<module>"), (6, "_gh_sum"),
        (8, "malliavin_table"), (8, "malliavin_table"), (11, "Rule")]


def test_src_reads_gh_weights_in_one_function():
    found = {(path.stem, where)
             for path in sorted((ROOT / "src").rglob("*.py"))
             for _, where in gh_weight_reads(
                 path.read_text(encoding="utf-8"))}
    assert found == {GH_SUM_HOME}, (
        f"{GH_WEIGHTS} read outside {'.'.join(GH_SUM_HOME)}: {sorted(found)}")


def lag_walk_calls(source: str, names=LAG_WALK
                   ) -> list[tuple[int, str, str]]:
    """(line, name, where) of each call of a function in names (LAG_WALK
    unless given), by name or as an attribute, where the top-level function
    or class that holds it, "<module>" outside them all."""
    found = []
    for top in ast.parse(source).body:
        where = top.name if isinstance(
            top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                if name in names:
                    found.append((node.lineno, name, where))
    return sorted(found)


def test_scan_finds_lag_walk_calls():
    # the g-term as it was: its own walk over the lags beside the operator's
    source = ("from . import kernels\n"
              "from .kernels import lag_weights\n"
              "def _delay_walk(gen, table, table_at):\n"
              "    on_lag, between = lag_weights(gen.measure, gen.grid)\n"
              "    return _diffuse_operator(table, gen)\n"
              "def _g_weighted_term(gen, z, trap):\n"
              "    on_lag, _ = kernels.lag_weights(gen.measure, gen.grid)\n"
              "    return _diffuse_operator(z, gen).sum(axis=1)\n"
              "WEIGHTS = lag_weights\n"
              "class Walk:\n"
              "    def run(self, gen):\n"
              "        return lag_weights(gen.measure, gen.grid)\n")
    assert lag_walk_calls(source) == [
        (4, "lag_weights", "_delay_walk"),
        (5, "_diffuse_operator", "_delay_walk"),
        (7, "lag_weights", "_g_weighted_term"),
        (8, "_diffuse_operator", "_g_weighted_term"),
        (12, "lag_weights", "Walk")]


def test_src_walks_the_lags_in_one_function():
    found = {name: set() for name in LAG_WALK}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for _, name, where in lag_walk_calls(path.read_text(encoding="utf-8")):
            found[name].add((path.stem, where))
    assert found == {name: {LAG_WALK_HOME} for name in LAG_WALK}, (
        f"the lags walked outside {'.'.join(LAG_WALK_HOME)}: {found}")


def test_scan_finds_operator_builds():
    # the operator as it was: built by the cli for a deterministic family
    # and again inside the LSMC
    source = ("from .oracles import build_delayed_operator\n"
              "def _phi_and_operator(cfg):\n"
              "    return build_delayed_operator(cfg.generator, table)\n"
              "def solve_delayed_lsmc(f_vals, gen, ensemble, tol):\n"
              "    op = build_delayed_operator(gen)\n"
              "def _prepare(cfg, operator=False):\n"
              "    return oracles.build_delayed_operator(gen, table)\n")
    assert lag_walk_calls(source, {OPERATOR_BUILDER}) == [
        (3, OPERATOR_BUILDER, "_phi_and_operator"),
        (5, OPERATOR_BUILDER, "solve_delayed_lsmc"),
        (7, OPERATOR_BUILDER, "_prepare")]


def test_src_builds_the_operator_in_one_function():
    found = [(path.stem, where)
             for path in sorted((ROOT / "src").rglob("*.py"))
             for _, _, where in lag_walk_calls(
                 path.read_text(encoding="utf-8"), {OPERATOR_BUILDER})]
    assert found == [OPERATOR_HOME], (
        f"{OPERATOR_BUILDER} called outside {'.'.join(OPERATOR_HOME)}, or "
        f"more than once: {found}")


def grid_mismatch_builds(source: str) -> list[tuple[int, str]]:
    """(line, where) of each GridMismatch built: a call of it or a raise
    of the bare class, by name or as an attribute, where as in
    lag_walk_calls."""
    found = []
    for top in ast.parse(source).body:
        where = top.name if isinstance(
            top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            built = (node.func if isinstance(node, ast.Call)
                     else node.exc if isinstance(node, ast.Raise) else None)
            name = built.id if isinstance(built, ast.Name) else getattr(
                built, "attr", None)
            if name == GRID_MISMATCH:
                found.append((node.lineno, where))
    return sorted(found)


def test_scan_finds_grid_mismatch_builds():
    # the grid checks as they were, one written out in each function, and
    # a bare raise; catching the class builds nothing
    source = ("from .kernels import GridMismatch\n"
              "def same_grid(*values):\n"
              "    raise GridMismatch(f'{grid} against {bad}')\n"
              "def solve_Y_blocks(fam, psi, ensemble):\n"
              "    if ensemble.grid != psi.grid:\n"
              "        raise GridMismatch('ensemble on a different grid')\n"
              "class Check:\n"
              "    def run(self, a, b):\n"
              "        raise kernels.GridMismatch\n"
              "try:\n"
              "    same_grid()\n"
              "except GridMismatch:\n"
              "    ERROR = GridMismatch('x')\n")
    assert grid_mismatch_builds(source) == [
        (3, "same_grid"), (6, "solve_Y_blocks"), (9, "Check"),
        (13, "<module>")]


def test_src_builds_grid_mismatch_in_one_function():
    found = [(path.stem, where)
             for path in sorted((ROOT / "src").rglob("*.py"))
             for _, where in grid_mismatch_builds(
                 path.read_text(encoding="utf-8"))]
    assert found == [GRID_MISMATCH_HOME], (
        f"{GRID_MISMATCH} built outside {'.'.join(GRID_MISMATCH_HOME)}: "
        f"{found}")


def is_weight_table(node: ast.AST) -> bool:
    """A tail_weight_matrix(...) call, by name or as an attribute, or a
    slice or attribute (such as .T) of one."""
    while isinstance(node, (ast.Subscript, ast.Attribute)) and not (
            isinstance(node, ast.Attribute) and node.attr == TAIL_WEIGHTS):
        node = node.value
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (f.id if isinstance(f, ast.Name)
            else getattr(f, "attr", None)) == TAIL_WEIGHTS


def weight_table_products(source: str, module: str) -> list[tuple[int, str]]:
    """(line, what) of each product with a tail_weight_matrix(...) call as
    a factor, by *, *= or a multiply call, outside the top-level function
    TAIL_WEIGHTED_HOME[1] of the module TAIL_WEIGHTED_HOME[0]."""
    tree = ast.parse(source)
    home = home_nodes(tree, module, TAIL_WEIGHTED_HOME)
    found = []
    for node in ast.walk(tree):
        if id(node) in home:
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) \
                and any(map(is_weight_table, (node.left, node.right))):
            found.append((node.lineno, "*"))
        elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, ast.Mult) and is_weight_table(node.value):
            found.append((node.lineno, "*="))
        elif isinstance(node, ast.Call) and getattr(
                node.func, "attr", getattr(node.func, "id", None)) \
                == "multiply" and any(map(is_weight_table, node.args)):
            found.append((node.lineno, "multiply"))
    return sorted(found)


def test_scan_finds_weight_table_products():
    # the weighting as it was, beside uses that build no product
    source = ("import numpy as np\n"
              "from . import kernels\n"
              "def mean_Y(x, psi):\n"
              "    return x + (psi.values * tail_weight_matrix(grid)) @ x\n"
              "def norm_report(z, grid):\n"
              "    a = tail_weight_matrix(grid).T * z\n"
              "    a *= kernels.tail_weight_matrix(grid)[:, ::-1]\n"
              "    b = np.multiply(z, tail_weight_matrix(grid))\n"
              "    trap = tail_weight_matrix(grid)\n"
              "    return a + b + z @ tail_weight_matrix(grid) + trap\n"
              "def tail_weighted(grid, v):\n"
              "    return v * tail_weight_matrix(grid)\n")
    assert weight_table_products(source, "solver") == [
        (4, "*"), (6, "*"), (7, "*="), (8, "multiply"), (12, "*")]
    assert weight_table_products(source, "kernels") == [
        (4, "*"), (6, "*"), (7, "*="), (8, "multiply")]


def test_src_weights_tables_in_one_function():
    found = [f"{path.relative_to(ROOT)}:{line}: {what}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, what in weight_table_products(
                 path.read_text(encoding="utf-8"), path.stem)]
    assert not found, ("a table times a tail_weight_matrix call; use "
                       "kernels.tail_weighted:\n" + "\n".join(found))


def annotation_names(node: ast.AST) -> set[str]:
    """Every type name an annotation mentions: Name ids, Attribute attrs
    and the names spelled by a string in a type position.  The arguments
    of Literal[...] are values, not types, and a string that is no
    expression names no type."""
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, str):
            return set()
        try:
            return annotation_names(ast.parse(node.value, mode="eval").body)
        except SyntaxError:
            return set()
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Subscript):
        head = annotation_names(node.value)
        return head if "Literal" in head else \
            head | annotation_names(node.slice)
    return set().union(*map(annotation_names, ast.iter_child_nodes(node)))


def param_classes(p: ast.arg) -> set[str]:
    """The classes a parameter is taken as: those its annotation names or,
    unannotated, the class its name stands for under src/."""
    if p.annotation is not None:
        return annotation_names(p.annotation)
    return {TABLE_PARAM_NAMES[p.arg]} if p.arg in TABLE_PARAM_NAMES \
        else set()


def source_beside_table(source: str) -> list[tuple[int, str, str]]:
    """(line, function, table) of each function or method that takes one
    parameter as a derived table of DERIVED_TABLES and another as the
    source that table holds; return annotations do not count."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(p for p in (a.vararg, a.kwarg) if p is not None)]
        names = [param_classes(p) for p in params]
        found += [(node.lineno, node.name, table)
                  for held, table in DERIVED_TABLES
                  if any(held in x and table in y
                         for x, y in itertools.permutations(names, 2))]
    return sorted(found)


def test_scan_finds_a_source_beside_its_table():
    # the signatures as they were, spelled every way an annotation can
    # name a class, and unannotated under the names src/ gives them; then
    # a return annotation, one parameter that names both classes, two
    # tables of one kind, a table beside other names and annotations that
    # hold strings which are not types, none a breach
    source = ("from typing import Annotated, Literal, Optional\n"
              "from . import kernels\n"
              "def solve_Z(phi: KernelTable, psi: ResolventTable, b):\n"
              "    pass\n"
              "def lsmc(op: 'DelayOperator', gen: kernels.DelayedGenerator):\n"
              "  def inner(*, g: DelayedGenerator | None, o: DelayOperator):\n"
              "    pass\n"
              "class Check:\n"
              "    def run(self, psi: Optional['ResolventTable'],\n"
              "            *phis: 'list[KernelTable]'):\n"
              "        pass\n"
              "def _solve_field(cfg, phi, psi, drift_fn):\n"
              "    pass\n"
              "def old_lsmc(f_vals, op, gen, ensemble, tol=1e-10):\n"
              "    pass\n"
              "def mixed(phi, t: ResolventTable):\n"
              "    pass\n"
              "def resolvent(phi: KernelTable, tol) -> ResolventTable:\n"
              "    pass\n"
              "def either(t: KernelTable | ResolventTable, tol: float):\n"
              "    pass\n"
              "def compose(a: KernelTable, b: KernelTable) -> KernelTable:\n"
              "    pass\n"
              "def untyped(phi, gen, tol):\n"
              "    pass\n"
              "def annotated(psi: 'ResolventTable', phi: Literal['two words'],\n"
              "              gen: Annotated[int, 'a note, not a type']):\n"
              "    pass\n")
    assert source_beside_table(source) == [
        (3, "solve_Z", "ResolventTable"), (5, "lsmc", "DelayOperator"),
        (6, "inner", "DelayOperator"), (9, "run", "ResolventTable"),
        (12, "_solve_field", "ResolventTable"),
        (14, "old_lsmc", "DelayOperator"), (16, "mixed", "ResolventTable")]


def test_src_passes_no_source_beside_its_table():
    found = [f"{path.relative_to(ROOT)}:{line}: {name} takes {table} "
             "beside its source"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, name, table in source_beside_table(
                 path.read_text(encoding="utf-8"))]
    assert not found, ("read the source from the table (psi.phi, "
                       "op.generator):\n" + "\n".join(found))


def spread_reductions(source: str) -> list[tuple[int, str]]:
    """(line, what) of each std or var reduction: a call <expr>.std(...) or
    <expr>.var(...), a read of numpy's std or var (any alias the module
    gives numpy) that is not called, and each import of them from numpy."""
    tree = ast.parse(source)
    aliases = numpy_aliases(tree)
    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, f"from numpy import {a.name}")
                      for a in node.names if a.name in SPREADS]
        elif isinstance(node, ast.Attribute) and node.attr in SPREADS and (
                id(node) in called or isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_scan_finds_spread_reductions():
    # the report's mean_weight as it was, beside spreads spelled other
    # ways; a comment and a string are not code
    source = ("import math\n"
              "import numpy as np\n"
              "import numpy\n"
              "from numpy import var\n"
              "def girsanov_report(wts, n_paths):\n"
              "    # np.mean and np.std(ddof=1), step by step, in place\n"
              "    se = wts.std(ddof=1) / math.sqrt(n_paths)\n"
              "    return se + np.var(wts) + numpy.std(wts, axis=0)\n"
              "SPREAD = np.std\n"
              "def table(x):\n"
              "    return x.T.var(axis=1) + len('x.std(1)')\n")
    assert spread_reductions(source) == [
        (4, "from numpy import var"), (7, "wts.std"), (8, "np.var"),
        (8, "numpy.std"), (9, "np.std"), (11, "x.T.var")]


def test_src_calls_no_std_or_var_reduction():
    found = [f"{path.relative_to(ROOT)}:{line}: {what}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, what in spread_reductions(
                 path.read_text(encoding="utf-8"))]
    assert not found, ("a std or var reduction in src/; take means and "
                       "standard errors from girsanov.expect_q_blocks:\n"
                       + "\n".join(found))


def is_zero(node: ast.AST) -> bool:
    """A literal 0 (int or float, a sign allowed), not False."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value == 0)


def zero_extensions(source: str, module: str) -> list[tuple[int, str]]:
    """(line, where) of each numpy.where call (any alias the module gives
    numpy, or where imported from it) whose condition holds a comparison
    with a literal 0, where as in lag_walk_calls, outside the top-level
    function ZERO_EXTEND_HOME[1] of the module ZERO_EXTEND_HOME[0]."""
    tree = ast.parse(source)
    aliases = numpy_aliases(tree)
    bare = {a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "numpy"
            for a in node.names if a.name == "where"}
    found = []
    for top in tree.body:
        where = top.name if isinstance(
            top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        if (module, where) == ZERO_EXTEND_HOME:
            continue
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            f = node.func
            if not (isinstance(f, ast.Name) and f.id in bare
                    or isinstance(f, ast.Attribute) and f.attr == "where"
                    and isinstance(f.value, ast.Name)
                    and f.value.id in aliases):
                continue
            if any(isinstance(c, ast.Compare)
                   and any(map(is_zero, [c.left, *c.comparators]))
                   for c in ast.walk(node.args[0])):
                found.append((node.lineno, where))
    return sorted(found)


def test_scan_finds_zero_extensions():
    # the g-term's Z read as it was, beside conditions that are no zero
    # extension: a mask, a comparison with a name, a where= keyword
    source = ("import numpy as np\n"
              "from numpy import where as pick\n"
              "def zero_extend_kernel(f):\n"
              "    def wrapped(t, s):\n"
              "        return np.where((t >= 0.0) & (s >= 0), f(t, s), 0.0)\n"
              "    return wrapped\n"
              "def _g_weighted_term(gen, z):\n"
              "    def table_at(x):\n"
              "        t, s = x[:, None], x[None, :]\n"
              "        return np.where((t >= 0.0) & (s >= 0.0), z, 0.0)\n"
              "    return table_at\n"
              "def f(x, q, live, a, b):\n"
              "    y = np.where(live, x, 0.0) + np.where(x > q, 1.0, -1.0)\n"
              "    y += np.divide(a, b, where=b > 0.0) + pick(0 < -x, x, 0)\n"
              "    return y + np.where(x == -0.0, 1.0, x) + np.where(x, 0, 1)\n"
              "class Table:\n"
              "    def at(self, t):\n"
              "        return np.where(~(t < 0), self.values, 0.0)\n")
    outside = [(10, "_g_weighted_term"), (14, "f"), (15, "f"), (18, "Table")]
    assert zero_extensions(source, "kernels") == outside
    assert zero_extensions(source, "oracles") == sorted(
        outside + [(5, "zero_extend_kernel")])


def test_src_zero_extends_in_one_function():
    found = [f"{path.relative_to(ROOT)}:{line}: {where}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, where in zero_extensions(
                 path.read_text(encoding="utf-8"), path.stem)]
    assert not found, ("a numpy.where against 0 outside "
                       f"{'.'.join(ZERO_EXTEND_HOME)}:\n" + "\n".join(found))


def partition_reads(source: str, module: str) -> list[tuple[int, str]]:
    """(line, name) of each read of _path_blocks or LSMC_CHUNK, by name,
    as an attribute or by import, unless module is PARTITION_HOME."""
    if module == PARTITION_HOME:
        return []
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name in PARTITION]
        elif isinstance(node, ast.Name) and node.id in PARTITION:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in PARTITION:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_scan_finds_partition_reads():
    source = ("from .girsanov import LSMC_CHUNK, _path_blocks\n"
              "from . import girsanov\n"
              "def passes(ens):\n"
              "    blocks = _path_blocks(ens.n_paths, LSMC_CHUNK)\n"
              "    width = girsanov.LSMC_CHUNK\n"
              "    return girsanov._path_blocks(9, width), ens.blocks\n")
    outside = [(1, "LSMC_CHUNK"), (1, "_path_blocks"), (4, "LSMC_CHUNK"),
               (4, "_path_blocks"), (5, "LSMC_CHUNK"), (6, "_path_blocks")]
    assert partition_reads(source, "cli") == outside
    assert partition_reads(source, "girsanov") == []


def test_src_partitions_the_paths_in_one_module():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, name in partition_reads(
                 path.read_text(encoding="utf-8"), path.stem)]
    assert not found, ("the path partition read outside "
                       f"{PARTITION_HOME}:\n" + "\n".join(found))


def buffer_reads(source: str, module: str) -> list[tuple[int, str]]:
    """(line, where) of each read of block_buffers, by name or as an
    attribute, where the top-level function or class that holds it
    ("<module>" outside them all), unless (module, where) is one of
    BUFFER_OWNERS."""
    found = []
    for top in ast.parse(source).body:
        where = top.name if isinstance(
            top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        if (module, where) in BUFFER_OWNERS:
            continue
        found += [(node.lineno, where) for node in ast.walk(top)
                  if isinstance(node, ast.Name) and node.id == BUFFERS
                  or isinstance(node, ast.Attribute) and node.attr == BUFFERS]
    return sorted(found)


def test_scan_finds_buffer_reads():
    # the buffers as they were: taken by each producer and by the ensemble
    source = ("def _path_moments(cfg, psi, z, ens, residual):\n"
              "    return ens.block_buffers(9)\n"
              "def solve_Y_blocks(fam, psi, ensemble):\n"
              "    for _, y in ensemble.block_buffers(4):\n"
              "        yield y\n"
              "class PathEnsemble:\n"
              "    def block_buffers(self, rows):\n"
              "        return rows\n"
              "    def state_blocks(self):\n"
              "        return self.block_buffers(3)\n"
              "take = PathEnsemble.block_buffers\n")
    outside = [(4, "solve_Y_blocks"), (10, "PathEnsemble"), (11, "<module>")]
    assert buffer_reads(source, "cli") == outside
    assert buffer_reads(source, "oracles") == sorted(
        outside + [(2, "_path_moments")])


def test_src_takes_block_buffers_only_in_the_pass_drivers():
    found = [f"{path.relative_to(ROOT)}:{line}: {where}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, where in buffer_reads(
                 path.read_text(encoding="utf-8"), path.stem)]
    assert not found, (f"{BUFFERS} read outside "
                       f"{sorted(BUFFER_OWNERS)}:\n" + "\n".join(found))
    # and each driver takes its buffers there
    owners = {(path.stem, where)
              for path in sorted((ROOT / "src").rglob("*.py"))
              for _, _, where in lag_walk_calls(
                  path.read_text(encoding="utf-8"), {BUFFERS})}
    assert owners == BUFFER_OWNERS
