"""Check CLI outputs for byte identity, and measure how far they moved.

Usage:
    python tools/output_manifest.py ROOT        digest manifest of one tree
    python tools/output_manifest.py OLD NEW     delta between two trees

Imports bsvielab from ROOT/src and the benchmark workloads from
ROOT/perfbench, then runs each of the six commands through
``bsvielab.cli.main`` on the five bundled configs, on every workload's
``config_text(1)`` and on the nine generated configs of FEATURES.  Those
reach the branches the others do not: atoms between lags (with g != 0
too), measure.kind = atoms, the poly_exp and zero kernels, beta != 0, the
exp and affine terminal functions, f0 = exp_decay, phi = bilinear, a
mode-Q LSMC at g = 0, a mode-Q LSMC whose drift puts E[W(t_i)] three
spreads from 0 at T (b = g = 3 under a Dirac at 0; the largest drift at
which girsanov-check's reweighting keeps its effective sample size),
and the block edges of the Monte Carlo passes: M = girsanov.LSMC_CHUNK
+ 1 paths, which every pass over the paths takes as the two blocks of
1024 and 1025 paths of its one partition, PathEnsemble.blocks (the
home of girsanov._path_blocks and LSMC_CHUNK).  On N + 1 = 71 nodes a
Gaussian-linear family merges the LSMC's and solve's and norms' means
and standard errors across the blocks, in mode Q and in a mode-P twin
whose weighted merge carries the blocks' sums of squared weights;
h = exp in mode Q, on N + 1 = 41 nodes, fits each node's Chebyshev
interpolant on the states of both blocks, and merges solve's and
norms' moments of a terminal function.

With one tree it prints, for each run, the exit code and the sha256 of
the captured stdout, then the sha256 of every file the run wrote.  Two
checkouts produce the same bytes exactly when their manifests are equal:

    python tools/output_manifest.py OLD > old.txt
    python tools/output_manifest.py NEW > new.txt
    diff old.txt new.txt

With two trees it runs each tree in its own subprocess, writing every
output to a scratch directory, then compares them run by run.  For each
CSV or ``*.meta.json`` sidecar that differs it prints the largest |delta|
per column or key; a differing exit code, stdout (the numbers in it are
compared in order), file set or row count is reported as such.  Next to
each largest |delta| it prints that |delta| over the largest |old| value of
the column (of the key, for a sidecar), so a move can be read against a
relative bound.  It ends with the count of identical and differing files,
and exits 1 when anything differs (an exit code, a stdout, a file set or
a file's bytes), 0 when the two trees wrote the same bytes.

A two-tree delta takes about 8 s on a 2-vCPU host, of which the FEATURES
runs take about 1 s per tree.  It is a tool, not a test: pytest does not
collect it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

COMMANDS = ("resolvent", "solve", "compare", "girsanov-check", "z-surface",
            "norms")
# label -> config text; each run draws on the default mc.seed
FEATURES = {
    "feature-atoms-q": """
horizon = 1.0
grid.n = 30
measure.kind = atoms
measure.atoms = -0.317:0.5,-0.5:0.3,0.0:0.2
kernel.name = poly_exp
kernel.k = 1
kernel.lam = 2.0
kernel.scale = 0.5
kernel.g = 0.2
terminal.kind = gaussian_linear
terminal.f0 = exp_decay
terminal.f0.rate = 0.7
terminal.phi = bilinear
terminal.phi.scale = 0.8
mc.paths = 4000
mc.mode = Q
beta = 0.5
""",
    "feature-dirac-between-p": """
horizon = 1.0
grid.n = 24
measure.kind = dirac
measure.u0 = -0.33
kernel.name = constant
kernel.c = 0.4
kernel.g = 0.15
terminal.kind = terminal_function
terminal.h = exp
mc.paths = 3000
mc.mode = P
beta = -0.3
""",
    "feature-zero-kernel-q": """
horizon = 1.5
grid.n = 20
measure.kind = uniform
kernel.name = zero
kernel.g = 0.1
terminal.kind = terminal_function
terminal.h = affine
terminal.h.intercept = 0.5
terminal.h.slope = -1.0
mc.paths = 2000
mc.mode = Q
""",
    "feature-atoms-deterministic": """
horizon = 1.0
grid.n = 50
measure.kind = atoms
measure.atoms = -0.213:0.6,-0.8:0.4
kernel.name = poly_exp
kernel.k = 2
kernel.lam = 3.0
kernel.scale = -1.5
terminal.kind = deterministic
terminal.f0 = exp_decay
""",
    "feature-g0-q": """
horizon = 1.0
grid.n = 30
measure.kind = dirac
measure.u0 = -0.2
kernel.name = constant
kernel.c = 0.3
kernel.g = 0.0
terminal.kind = terminal_function
terminal.h = square
mc.paths = 3000
mc.mode = Q
""",
    # E^Q[W(t)] = 3 t against a spread of sqrt(t)
    "feature-far-mean-q": """
horizon = 1.0
grid.n = 24
measure.kind = dirac
measure.u0 = 0.0
kernel.name = constant
kernel.c = 0.3
kernel.g = 3.0
terminal.kind = terminal_function
terminal.h = square
mc.paths = 3000
mc.mode = Q
""",
    # mc.paths = girsanov.LSMC_CHUNK + 1
    "feature-block-edge-q": """
horizon = 1.0
grid.n = 70
measure.kind = uniform
kernel.name = constant
kernel.c = 0.3
kernel.g = 0.2
terminal.kind = gaussian_linear
terminal.f0 = constant
terminal.f0.value = 0.5
terminal.phi = exp_u
mc.paths = 2049
mc.mode = Q
""",
    "feature-block-edge-p": """
horizon = 1.0
grid.n = 70
measure.kind = uniform
kernel.name = constant
kernel.c = 0.3
kernel.g = 0.2
terminal.kind = gaussian_linear
terminal.f0 = constant
terminal.f0.value = 0.5
terminal.phi = exp_u
mc.paths = 2049
mc.mode = P
""",
    # a terminal function on the same two blocks: each node's Chebyshev fit
    # spans the states of both
    "feature-block-edge-terminal-q": """
horizon = 1.0
grid.n = 40
measure.kind = uniform
kernel.name = constant
kernel.c = 0.3
kernel.g = 0.2
terminal.kind = terminal_function
terminal.h = exp
mc.paths = 2049
mc.mode = Q
""",
}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def configs(root: str) -> list[tuple[str, str]]:
    """(label, config text): the bundled configs, the workloads, then
    FEATURES."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads

    bundled = os.path.join(root, "src", "bsvielab", "configs")
    out = []
    for name in sorted(os.listdir(bundled)):
        with open(os.path.join(bundled, name), encoding="utf-8") as fh:
            out.append((name, fh.read()))
    for name, wl in workloads.WORKLOADS.items():
        out.append((name, wl.config_text(1)))
    return out + list(FEATURES.items())


def run_all(root: str, dest: str):
    """Run every command on every config of ROOT, its outputs written to
    dest/label/command; yield (label, command, exit code, stdout, out)."""
    cases = configs(root)
    from bsvielab.cli import main

    for label, text in cases:
        cfg = os.path.join(dest, label + ".cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in COMMANDS:
            out = os.path.join(dest, label, command)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main([command, "--config", cfg, "--out", out])
            os.makedirs(out, exist_ok=True)
            yield label, command, code, buf.getvalue(), out


def manifest(root: str) -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, command, code, stdout, out in run_all(root, tmp):
            lines.append(f"{label} {command} exit={code} "
                         f"stdout={sha256(stdout.encode())}")
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    lines.append(f"{label} {command} {name} "
                                 f"{sha256(fh.read())}")
    return lines


def write_tree(root: str, dest: str) -> None:
    """run_all into dest, with each run's exit code and stdout in
    dest/label/command.run.json."""
    for label, command, code, stdout, out in run_all(root, dest):
        with open(out + ".run.json", "w", encoding="utf-8") as fh:
            json.dump({"exit": code, "stdout": stdout}, fh)


def _gap(a, b) -> float:
    """|a - b| for two numbers, 0 when both are the same nan or inf."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) if math.isfinite(a - b) else math.inf


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def csv_delta(old: str, new: str) -> list[str]:
    """Largest |delta| per column of two CSVs of the same shape."""
    with open(old, newline="", encoding="utf-8") as fa, \
            open(new, newline="", encoding="utf-8") as fb:
        a, b = list(csv.reader(fa)), list(csv.reader(fb))
    if a[:1] != b[:1] or len(a) != len(b):
        return [f"header or row count differs ({len(a)} vs {len(b)} rows)"]
    worst, scale = {}, {}
    for ra, rb in zip(a[1:], b[1:]):
        if len(ra) != len(rb):
            return [f"row lengths differ ({len(ra)} vs {len(rb)} cells)"]
        for col, ca, cb in zip(a[0], ra, rb):
            fa_, fb_ = _as_float(ca), _as_float(cb)
            if fa_ is not None and math.isfinite(fa_):
                scale[col] = max(scale.get(col, 0.0), abs(fa_))
            if ca == cb:
                continue
            gap = math.inf if fa_ is None or fb_ is None else _gap(fa_, fb_)
            worst[col] = max(worst.get(col, 0.0), gap)
    return [f"{col}: max|delta|={gap:.3g} {_relative(gap, scale.get(col))}"
            for col, gap in worst.items()]


def _relative(gap: float, scale) -> str:
    """gap over the largest |old| value of its column or key, as text."""
    if not scale:
        return "relative=n/a"
    return f"relative={gap / scale:.3g}"


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _flatten(item, f"{prefix}{key}.")
    else:
        yield prefix[:-1], value


def json_delta(old: str, new: str) -> list[str]:
    """|delta| per key of two sidecars; a changed non-number is named."""
    with open(old, encoding="utf-8") as fa, open(new, encoding="utf-8") as fb:
        a, b = dict(_flatten(json.load(fa))), dict(_flatten(json.load(fb)))
    lines = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (va, vb)):
            gap = _gap(va, vb)
            scale = abs(va) if math.isfinite(va) else 0.0
            lines.append(f"{key}: {va!r} -> {vb!r} |delta|={gap:.3g} "
                         f"{_relative(gap, scale)}")
        else:
            lines.append(f"{key}: {va!r} -> {vb!r}")
    return lines


def stdout_delta(old: str, new: str) -> list[str]:
    """Largest |delta| of the numbers of two stdouts, taken in order."""
    na, nb = NUMBER.findall(old), NUMBER.findall(new)
    if len(na) != len(nb) or NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return ["text differs"]
    gap = max(_gap(float(x), float(y)) for x, y in zip(na, nb))
    return [f"numbers: max|delta|={gap:.3g}"]


def delta(old_root: str, new_root: str) -> tuple[list[str], int, int]:
    """(report lines, identical files, differing files) of two trees."""
    lines, same, moved = [], 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        dests = [os.path.join(tmp, "old"), os.path.join(tmp, "new")]
        for root, dest in zip((old_root, new_root), dests):
            os.makedirs(dest)
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--write", root, dest], check=True,
                           stdout=subprocess.DEVNULL)
        old, new = dests
        for label in sorted(os.listdir(old)):
            if not os.path.isdir(os.path.join(old, label)):
                continue
            for command in COMMANDS:
                run = []
                for dest in dests:
                    with open(os.path.join(dest, label, command + ".run.json"),
                              encoding="utf-8") as fh:
                        run.append(json.load(fh))
                where = f"{label} {command}"
                if run[0]["exit"] != run[1]["exit"]:
                    lines.append(f"{where}: exit {run[0]['exit']} -> "
                                 f"{run[1]['exit']}")
                if run[0]["stdout"] != run[1]["stdout"]:
                    lines += [f"{where} stdout {x}" for x in
                              stdout_delta(run[0]["stdout"], run[1]["stdout"])]
                outs = [os.path.join(d, label, command) for d in dests]
                names = [sorted(os.listdir(o)) for o in outs]
                if names[0] != names[1]:
                    lines.append(f"{where}: files {names[0]} -> {names[1]}")
                for name in sorted(set(names[0]) & set(names[1])):
                    fa, fb = (os.path.join(o, name) for o in outs)
                    with open(fa, "rb") as ha, open(fb, "rb") as hb:
                        if ha.read() == hb.read():
                            same += 1
                            continue
                    moved += 1
                    diff = json_delta(fa, fb) if name.endswith(".json") \
                        else csv_delta(fa, fb)
                    lines += [f"{where} {name} {x}" for x in diff or
                              ["bytes differ, values equal"]]
    return lines, same, moved


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--write":
        write_tree(os.path.abspath(sys.argv[2]), sys.argv[3])
    elif len(sys.argv) == 3:
        report, same, moved = delta(*map(os.path.abspath, sys.argv[1:]))
        print("\n".join(report + [f"identical files: {same}, "
                                  f"differing files: {moved}"]))
        sys.exit(1 if report else 0)
    elif len(sys.argv) == 2:
        print("\n".join(manifest(os.path.abspath(sys.argv[1]))))
    else:
        sys.exit(__doc__)
