"""tools/peak_tables.py: one row per Monte Carlo command of the benchmark
workloads, each run in a fresh interpreter, on shrunken configs."""

import importlib.util
import pathlib

_ROOT = pathlib.Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location(
    "peak_tables", _ROOT / "tools" / "peak_tables.py")
peak_tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak_tables)


def test_one_row_per_monte_carlo_command(capsys):
    # the deterministic workload draws no paths and has no row
    assert peak_tables.main([str(_ROOT)], n=6, paths=300) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"tree 1: {_ROOT}"
    rows = [line.split() for line in lines[2:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("mc-gaussian-p", c) for c in
        ("solve", "compare", "girsanov-check", "norms")] + [
        ("mc-terminal-q", c) for c in ("solve", "compare", "norms")]
    for r in rows:
        assert (r[2], r[3], r[-1]) == ("300", "6", "0")
        assert r[5].isdigit()  # the traced peak, exact in bytes
        table, peak, tables = map(float, r[4:7])
        assert table > 0.0 and peak > 0.0 and tables > 0.0
        assert r[7].isdigit()  # the minor page faults, an integer >= 0
