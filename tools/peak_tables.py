"""Traced peak memory of each command of the benchmark workloads.

Usage:
    python tools/peak_tables.py ROOT [ROOT2]

Reads the workloads of ROOT/perfbench/workloads.py, then the bundled
deterministic configs of BUNDLED (constant-kernel.cfg: a G spec, whose
Phi is the alpha-mass times the node table, where the deterministic
workload's example33 is product-form).  For each config and each of its
commands (a bundled config takes DETERMINISTIC_COMMANDS), it runs the
command once per tree in a fresh interpreter that imports bsvielab from
that tree's src, through ``bsvielab.cli.main``, with tracemalloc started
after the import.  It prints one row per command: the path count M ("-"
for a deterministic config, which draws no paths), the grid size N, the
size of one table, an (M, N+1) float table of the paths or, for a
deterministic config, an (N+1)^2 float table of the grid, and for each
tree the traced peak, exact in bytes and in such tables, the minor page
faults the command took (the change of ru_minflt across ``main``; each
is a first touch of a fresh page), then the command's exit code.  The
peak is printed to the byte because it moves by a few kB between fresh
interpreters, which a rounded MB figure would hide or exaggerate.

The benchmark's ``peak_rss_mb`` is one process-wide figure over a whole
cycle; the table above says which command holds the traced peak, and
how many tables it is.  A second table then runs each config's commands
as one cycle in one fresh interpreter per tree, as the benchmark's
client does (gc.collect() before each command), and prints the
process-wide ru_maxrss in MB after each command: the figure
``peak_rss_mb`` reads, with the interpreter, numpy and the heap that
the allocator keeps for reuse, which traced peaks omit.  Exit status 1
if a command exits non-zero or its interpreter fails, 0 otherwise.  It
is a tool, not a test: pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile

MB = 1e6
# bundled deterministic configs run beside the workloads, with these commands
BUNDLED = ("constant-kernel.cfg",)
DETERMINISTIC_COMMANDS = ("resolvent", "solve", "compare", "z-surface",
                          "norms")
# run in the fresh interpreter: ROOT CONFIG COMMAND OUT
CHILD = """
import contextlib, io, json, os, resource, sys, tracemalloc
root, cfg, command, out = sys.argv[1:5]
sys.path.insert(0, os.path.join(root, "src"))
from bsvielab.cli import main
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
tracemalloc.start()
with contextlib.redirect_stdout(io.StringIO()):
    code = main([command, "--config", cfg, "--out", out])
peak = tracemalloc.get_traced_memory()[1]
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(json.dumps({"exit": code, "peak": peak, "faults": faults}))
"""
# run in the fresh interpreter: ROOT CONFIG OUT COMMAND...
CYCLE = """
import contextlib, gc, io, json, os, resource, sys
root, cfg, out = sys.argv[1:4]
sys.path.insert(0, os.path.join(root, "src"))
from bsvielab.cli import main
for command in sys.argv[4:]:
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", cfg, "--out", out])
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(json.dumps({"exit": code, "rss": rss}))
"""


def configs(root: str, n: int | None = None, paths: int | None = None):
    """(label, commands, config text, M, N) for each workload of ROOT, M
    None where the config draws no paths, then for each config of
    BUNDLED; n and paths shrink the configs as Workload.config_text
    does."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    from bsvielab.config import load_config
    from bsvielab.terminal import is_stochastic

    texts = [(name, wl.commands, wl.config_text(1, n, paths))
             for name, wl in workloads.WORKLOADS.items()]
    for name in BUNDLED:
        with open(os.path.join(root, "src", "bsvielab", "configs", name),
                  encoding="utf-8") as fh:
            text = fh.read()
        if n:
            text = re.sub(r"^grid\.n = .*$", f"grid.n = {n}", text,
                          flags=re.M)
        texts.append((name.removesuffix(".cfg"), DETERMINISTIC_COMMANDS,
                      text))
    for name, commands, text in texts:
        cfg = load_config(text)
        m_paths = cfg.n_paths if is_stochastic(cfg.family) else None
        yield name, commands, text, m_paths, cfg.generator.grid.n


def traced_peak(root: str, cfg: str, command: str, out: str) -> dict:
    """{"exit": code, "peak": bytes, "faults": minor page faults} of one
    command in a fresh interpreter; exit -1, peak NaN and faults -1 when
    the interpreter fails."""
    run = subprocess.run([sys.executable, "-c", CHILD, root, cfg, command,
                          out], capture_output=True, text=True)
    try:
        return json.loads(run.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(run.stderr)
        return {"exit": -1, "peak": float("nan"), "faults": -1}


def cycle_rss(root: str, cfg: str, commands, out: str) -> list[dict]:
    """[{"exit": code, "rss": bytes}] after each of commands, run in turn
    in one fresh interpreter; exit -1 and rss NaN for each command the
    interpreter did not report."""
    run = subprocess.run([sys.executable, "-c", CYCLE, root, cfg, out,
                          *commands], capture_output=True, text=True)
    got = [json.loads(line) for line in run.stdout.splitlines()]
    if len(got) < len(commands):
        sys.stderr.write(run.stderr)
        got += [{"exit": -1, "rss": float("nan")}] * (len(commands) - len(got))
    return got


def main(roots: list[str], n: int | None = None,
         paths: int | None = None) -> int:
    roots = [os.path.abspath(r) for r in roots]
    for k, root in enumerate(roots, 1):
        print(f"tree {k}: {root}")
    head = f"{'workload':<17}{'command':<16}{'M':>7}{'N':>5}{'table_MB':>10}"
    head += "".join(f"{f'peak_B_{k}':>11}{f'tables_{k}':>10}"
                    f"{f'faults_{k}':>10}{f'exit_{k}':>8}"
                    for k in range(1, len(roots) + 1))
    print(head)
    status = 0
    runs = list(configs(roots[0], n, paths))
    with tempfile.TemporaryDirectory() as tmp:
        for name, commands, text, m_paths, n_steps in runs:
            cfg = os.path.join(tmp, name + ".cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(text)
            table = (m_paths or n_steps + 1) * (n_steps + 1) * 8
            for command in commands:
                row = (f"{name:<17}{command:<16}{m_paths or '-':>7}"
                       f"{n_steps:>5}{table / MB:>10.4g}")
                for k, root in enumerate(roots):
                    got = traced_peak(root, cfg, command,
                                      os.path.join(tmp, f"{name}-{k}"))
                    status |= got["exit"] != 0
                    row += (f"{got['peak']:>11}"
                            f"{got['peak'] / table:>10.2f}"
                            f"{got['faults']:>10}{got['exit']:>8}")
                print(row)
        print("\ncycle: ru_maxrss after each command, one interpreter "
              "per tree and config")
        print(f"{'workload':<17}{'command':<16}" + "".join(
            f"{f'rss_MB_{k}':>11}{f'exit_{k}':>8}"
            for k in range(1, len(roots) + 1)))
        for name, commands, *_ in runs:
            cfg = os.path.join(tmp, name + ".cfg")
            cols = [cycle_rss(root, cfg, commands,
                              os.path.join(tmp, f"{name}-cycle-{k}"))
                    for k, root in enumerate(roots)]
            for command, got in zip(commands, zip(*cols)):
                status |= any(g["exit"] != 0 for g in got)
                print(f"{name:<17}{command:<16}" + "".join(
                    f"{g['rss'] / MB:>11.2f}{g['exit']:>8}" for g in got))
    return int(status)


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
