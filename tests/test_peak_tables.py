"""tools/peak_tables.py: one row per command of the benchmark workloads and
of the bundled deterministic configs, each run in a fresh interpreter, on
shrunken configs; then one row per command of each config's cycle, run in
one interpreter, with the process-wide ru_maxrss after it."""

import importlib.util
import pathlib

_ROOT = pathlib.Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location(
    "peak_tables", _ROOT / "tools" / "peak_tables.py")
peak_tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak_tables)


def test_one_row_per_monte_carlo_command(capsys):
    # a deterministic config draws no paths: its M is "-" and its table
    # is one (N+1)^2 float table of the grid
    assert peak_tables.main([str(_ROOT)], n=6, paths=300) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"tree 1: {_ROOT}"
    blank = lines.index("")
    rows = [line.split() for line in lines[2:blank]]
    deterministic = ("resolvent", "solve", "compare", "z-surface", "norms")
    commands = [("det-uniform", c) for c in deterministic] + [
        ("mc-gaussian-p", c) for c in
        ("solve", "compare", "girsanov-check", "norms")] + [
        ("mc-terminal-q", c) for c in ("solve", "compare", "norms")] + [
        ("constant-kernel", c) for c in deterministic]
    assert [(r[0], r[1]) for r in rows] == commands
    # the cycle: the same commands in the same order, each with the
    # process-wide ru_maxrss in MB, which never falls within a cycle
    cycle = [line.split() for line in lines[blank + 3:]]
    assert [(r[0], r[1]) for r in cycle] == commands
    for name in dict(commands):
        rss = [float(r[2]) for r in cycle if r[0] == name]
        assert 0.0 < rss[0] and rss == sorted(rss)
    assert all(r[3] == "0" for r in cycle)
    for r in rows:
        paths = "-" if r[0] in ("det-uniform", "constant-kernel") else "300"
        assert (r[2], r[3], r[-1]) == (paths, "6", "0")
        assert r[5].isdigit()  # the traced peak, exact in bytes
        table, peak, tables = map(float, r[4:7])
        assert table > 0.0 and peak > 0.0 and tables > 0.0
        if paths == "-":
            assert table == float(f"{7 * 7 * 8 / 1e6:.4g}")
        assert r[7].isdigit()  # the minor page faults, an integer >= 0
