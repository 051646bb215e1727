"""Workload definitions: generated configs, command lists and output checks.

Each workload is a study a user runs end to end: a list of CLI commands on
one generated config.  The seed given on the command line becomes
``mc.seed``; the deterministic workload draws no paths, so its work does not
depend on the seed.  Every check compares a command's ``*.meta.json`` with a
reference the command's own route does not compute, using the tolerances
stated here.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

# Tolerance factors the checks use (stated, not tuned per seed).
QUAD_SLACK = 10.0        # compare's own gate: quad_slack * dt^2
PICARD_TOL = 1e-10       # compare's fixed-point gate: max(100 * tol, 1e-12)
SE_FACTOR = 3.0          # MC gates: quadrature tolerance + 3 standard errors
GIRSANOV_SE_FACTOR = 5.0  # girsanov-check statistics vs their exact values


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    horizon: float
    n: int
    paths: int
    mode: str
    body: str                    # config lines other than grid/paths/seed/mode
    commands: tuple[str, ...]
    # Cycle length on a shared 2-vCPU host, rounded up; it fixes how many
    # cycles a run of --seconds makes (2, 3 and 2 at 30 s).
    nominal_cycle_s: float
    lsmc_verdict_checked: bool = False

    def config_text(self, seed: int, n: int | None = None,
                    paths: int | None = None) -> str:
        """The config file the program receives for this seed; ``n`` and
        ``paths`` shrink the workload for the harness self-test."""
        lines = [
            f"# perfbench workload {self.name}, seed {seed}",
            f"horizon = {self.horizon!r}",
            f"grid.n = {n or self.n}",
            f"mc.paths = {paths or self.paths}",
            f"mc.seed = {seed}",
            f"mc.mode = {self.mode}",
            f"tolerances.picard = {PICARD_TOL!r}",
            f"tolerances.quad_slack = {QUAD_SLACK!r}",
            "beta = 0.0",
        ]
        return "\n".join(lines) + "\n" + self.body.strip() + "\n"


WORKLOADS = {
    "det-uniform": Workload(
        name="det-uniform",
        why="deterministic half: 601x601 resolvent tables, 65-node delayed "
            "operator via phi_direct mass queries, Picard, O(N^2)-row CSVs",
        horizon=1.0, n=600, paths=1000, mode="P",
        body="""
measure.kind = uniform
kernel.name = example33
kernel.g = 0.0
terminal.kind = deterministic
terminal.f0 = constant
terminal.f0.value = 1.0
tolerances.resolvent = 1e-10
""",
        commands=("resolvent", "solve", "compare", "z-surface", "norms"),
        nominal_cycle_s=15.0,
    ),
    "mc-gaussian-p": Workload(
        name="mc-gaussian-p",
        why="importance-weighted regression MC: g != 0 re-extracts LSMC Z "
            "slopes every sweep; lag-0 atom makes explicit-vs-LSMC a check",
        horizon=1.0, n=60, paths=20000, mode="P",
        body="""
measure.kind = dirac
measure.u0 = 0.0
kernel.name = constant
kernel.c = 0.3
kernel.g = 0.2
terminal.kind = gaussian_linear
terminal.f0 = zero
terminal.phi = exp_u
""",
        commands=("solve", "compare", "girsanov-check", "norms"),
        nominal_cycle_s=10.0,
        lsmc_verdict_checked=True,
    ),
    "mc-terminal-q": Workload(
        name="mc-terminal-q",
        why="drifted unweighted MC with Gauss-Hermite conditionals; diffuse "
            "delay makes the LSMC g-weighted delay term the hot spot",
        horizon=1.0, n=40, paths=20000, mode="Q",
        body="""
measure.kind = uniform
kernel.name = constant
kernel.c = 0.3
kernel.g = 0.2
terminal.kind = terminal_function
terminal.h = square
""",
        commands=("solve", "compare", "norms"),
        nominal_cycle_s=15.0,
    ),
}


class CheckFailed(Exception):
    """An output of one operation disagrees with its reference."""


def _meta(out_dir: str, command: str) -> dict:
    path = os.path.join(out_dir, command.replace("-", "_") + ".meta.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{command}: unreadable meta.json ({exc})") from exc


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _finite(meta: dict, *keys: str) -> None:
    for key in keys:
        value = meta.get(key)
        _require(isinstance(value, (int, float)) and math.isfinite(value),
                 f"{meta.get('command')}: {key}={value!r} is not finite")


def check_output(wl: Workload, command: str, out_dir: str, n: int,
                 expected_sha: str) -> dict:
    """Check one operation's meta.json; return it, raise CheckFailed."""
    meta = _meta(out_dir, command)
    _require(meta.get("config_sha256") == expected_sha,
             f"{command}: config_sha256 differs from the generated config")
    _require(meta.get("grid_n") == n, f"{command}: grid_n {meta.get('grid_n')}")
    dt = wl.horizon / n
    tol_quad = QUAD_SLACK * dt * dt
    deterministic = wl.name == "det-uniform"

    if command == "resolvent":
        _finite(meta, "example33_numeric", "example33_derived", "sup_psi")
        gap = abs(meta["example33_numeric"] - meta["example33_derived"])
        _require(gap <= tol_quad,
                 f"resolvent: example33 |numeric-derived|={gap:.3e} > "
                 f"{tol_quad:.3e}")
    elif command == "solve":
        _finite(meta, "y0_mean", "y0_se", "residual_reduced_sup")
        # Y(0) is F_0-measurable: identical on every path up to rounding.
        _require(meta["y0_se"] <= 1e-12 * max(1.0, abs(meta["y0_mean"])),
                 f"solve: Y(0) SE {meta['y0_se']} should vanish")
        if deterministic:
            _require(meta["residual_reduced_sup"] <= tol_quad,
                     f"solve: reduced residual {meta['residual_reduced_sup']:.3e}"
                     f" > {tol_quad:.3e}")
    elif command == "compare":
        _finite(meta, "gap_explicit_collocation")
        if deterministic:
            tol_fp = max(100.0 * PICARD_TOL, 1e-12)
            _require(meta.get("picard_converged") is True,
                     "compare: Picard did not converge")
            _finite(meta, "res_delayed_picard_sup")
            _require(meta["gap_explicit_collocation"] <= tol_quad,
                     f"compare: explicit-collocation gap "
                     f"{meta['gap_explicit_collocation']:.3e} > {tol_quad:.3e}")
            _require(meta["res_delayed_picard_sup"] <= tol_fp,
                     f"compare: Picard delayed residual "
                     f"{meta['res_delayed_picard_sup']:.3e} > {tol_fp:.3e}")
        else:
            _finite(meta, "se_max", "gap_explicit_lsmc")
            tol = tol_quad + SE_FACTOR * meta["se_max"]
            _require(meta["gap_explicit_collocation"] <= tol,
                     f"compare: explicit-collocation gap "
                     f"{meta['gap_explicit_collocation']:.3e} > {tol:.3e}")
            if wl.lsmc_verdict_checked:
                _require(meta["gap_explicit_lsmc"] <= tol,
                         f"compare: explicit-LSMC gap "
                         f"{meta['gap_explicit_lsmc']:.3e} > {tol:.3e}")
    elif command == "z-surface":
        _finite(meta, "sup_z", "smoothness_integral")
        _require(meta.get("finite") is True, "z-surface: non-finite dZ/dt")
        if deterministic:
            _require(meta["sup_z"] == 0.0 and meta["smoothness_integral"] == 0.0,
                     "z-surface: Z must vanish for a deterministic free term")
    elif command == "norms":
        _finite(meta, "H1", "H2", "S2")
        if deterministic:
            _require(meta["H2"] == 0.0, f"norms: H2={meta['H2']} with Z = 0")
    elif command == "girsanov-check":
        expect = {"mean_weight": 1.0, "mean_WQ_T": 0.0, "crosscheck_gap": 0.0}
        for stat, ref in expect.items():
            entry = meta.get(stat, {})
            value, se = entry.get("value"), entry.get("stderr")
            _require(isinstance(value, float) and isinstance(se, float)
                     and abs(value - ref) <= GIRSANOV_SE_FACTOR * se,
                     f"girsanov-check: {stat}={value!r} not within "
                     f"{GIRSANOV_SE_FACTOR} SE ({se!r}) of {ref}")
    return meta
