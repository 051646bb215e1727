"""Acceptance gate.

One test per published criterion, each run at its stated tolerance and
emitting a single ``[ACCEPTANCE] criterion N: PASS/FAIL`` line.  The
factorial-tail bound of criterion 3 is provably violated by the exact
iterated kernels of a constant kernel (sup|Phi^(n)| = 1/(n-1)!, which
exceeds 1/n! for every n >= 2); that test states the measured numbers,
prints its FAIL line, and is marked strict-xfail rather than weakened.
A companion test checks the corrected bound.
"""

import json
import math
import time
from importlib import resources

import numpy as np
import pytest

from bsvielab.cli import main as cli_main
from bsvielab.girsanov import drift, girsanov_report, sample_paths
from bsvielab.kernels import DelayedGenerator, TriangularGrid, build_phi, \
    constant_kernel, example33_kernel, example33_reference, \
    iterated_sup_bound, resolvent, tail_weight_matrix, volterra_compose
from bsvielab.measures import DiracAt, Uniform
from bsvielab.oracles import build_delayed_operator, residual_reduced, \
    solve_delayed_lsmc, solve_delayed_picard, solve_reduced_collocation
from bsvielab.solver import solve_Y, solve_Z
from bsvielab.terminal import Deterministic, GaussianLinear, \
    evaluate_F_table, make_f0, make_phi

CONFIGS = resources.files("bsvielab") / "configs"
BUNDLED = ["constant-kernel.cfg", "delay-discrepancy.cfg",
           "dirac-reduction.cfg", "example33.cfg", "gaussian-linear-z.cfg"]


def report(num, ok, detail):
    print(f"[ACCEPTANCE] criterion {num}: {'PASS' if ok else 'FAIL'} - "
          f"{detail}", flush=True)


def lag_surface(fn, grid):
    """Closed forms that depend on s - t only, tabulated on the triangle."""
    nodes = grid.nodes
    lag = nodes[None, :] - nodes[:, None]
    return np.where(lag >= 0.0, fn(np.clip(lag, 0.0, None)), 0.0)


def test_criterion_01_resolvent_closed_forms():
    start = time.perf_counter()
    fails = []
    details = []
    for c in (0.5, 1.0, 2.0):
        errs = {}
        for n in (200, 400):
            grid = TriangularGrid(1.0, n)
            gen = DelayedGenerator(DiracAt(1.0, 0.0), constant_kernel(c), grid)
            psi = resolvent(build_phi(gen), 1e-10)
            exact = lag_surface(lambda u, c=c: c * np.exp(c * u), grid)
            errs[n] = float(np.abs(psi.values - exact).max())
        ratio = errs[200] / errs[400]
        details.append(f"c={c}: err={errs[400]:.2e} ratio={ratio:.2f}")
        if errs[400] >= 1e-3 or ratio < 3.5:
            fails.append(c)
    elapsed = time.perf_counter() - start
    ok = not fails and elapsed < 5.0
    report(1, ok, "; ".join(details) + f"; {elapsed:.2f}s")
    assert ok


def test_criterion_02_example33_resolvent_variants():
    start = time.perf_counter()
    grid = TriangularGrid(1.0, 400)
    gen = DelayedGenerator(Uniform(1.0), example33_kernel(), grid)
    psi = resolvent(build_phi(gen), 1e-10)
    derived = lag_surface(example33_reference("derived"), grid)
    err = float(np.abs(psi.values - derived).max())
    d1 = float(example33_reference("derived")(1.0))
    p1 = float(example33_reference("quoted")(1.0))
    gap = abs(d1 - p1)
    elapsed = time.perf_counter() - start
    ok = err < 1e-3 and gap > 0.1 and elapsed < 5.0
    report(2, ok, f"sup|num-derived|={err:.2e}; at s-t=1 the derived "
                  f"closed form gives {d1:.6f} and the quoted variant "
                  f"{p1:.6f} (gap {gap:.4f}); {elapsed:.2f}s")
    assert ok
    assert f"{d1:.6f}" == "0.432332" and f"{p1:.6f}" == "0.316060"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the stated factorial-tail bound 1/n! + 10*dt^2 is "
                          "provably below the exact iterated-kernel sup "
                          "1/(n-1)! for every n >= 2; kept faithful and red")
def test_criterion_03_factorial_tail_bound_as_stated():
    start = time.perf_counter()
    grid = TriangularGrid(1.0, 200)
    slack = 10.0 * grid.dt**2
    phi = build_phi(DelayedGenerator(DiracAt(1.0, 0.0), constant_kernel(1.0),
                                     grid))
    worst = []
    table = phi
    for order in range(1, 11):
        if order > 1:
            table = volterra_compose(phi, table)
        sup = table.sup_norm
        bound = 1.0 / math.factorial(order) + slack
        if sup > bound:
            worst.append((order, sup, bound))
    elapsed = time.perf_counter() - start
    ok = not worst and elapsed < 5.0
    detail = f"bound holds for all n <= 10; {elapsed:.2f}s" if ok else \
        "; ".join(f"n={o}: sup|Phi^(n)|={s:.6f} > 1/n!+10dt^2={b:.6f}"
                  for o, s, b in worst[:3]) + f"; {elapsed:.2f}s"
    report(3, ok, detail)
    assert ok


def test_criterion_03_companion_corrected_bound_holds():
    grid = TriangularGrid(1.0, 200)
    slack = 10.0 * grid.dt**2
    phi = build_phi(DelayedGenerator(DiracAt(1.0, 0.0), constant_kernel(1.0),
                                     grid))
    table = phi
    for order in range(1, 11):
        if order > 1:
            table = volterra_compose(phi, table)
        bound = iterated_sup_bound(1.0, 1.0, order) * (1.0 + 1e-4) + slack
        assert table.sup_norm <= bound, order
    report("3 (corrected bound)", True,
           "sup|Phi^(n)| <= c^n T^(n-1)/(n-1)! + 10*dt^2 for n <= 10")


def test_criterion_04_deterministic_cross_oracle():
    start = time.perf_counter()
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    m = DiracAt(1.0, 0.0)
    k = constant_kernel(0.5)
    details = []
    ok = True
    y0_200 = None
    for n in (100, 200):
        grid = TriangularGrid(1.0, n)
        gen = DelayedGenerator(m, k, grid)
        phi = build_phi(gen)
        psi = resolvent(phi, 1e-10)
        y_exp = solve_Y(fam, psi)
        f0_prof = np.ones(n + 1)
        y_col = solve_reduced_collocation(f0_prof, phi)
        y_pic = solve_delayed_picard(f0_prof, build_delayed_operator(gen)).y
        tol = 10.0 * grid.dt**2
        worst = max(float(np.abs(a - b).max())
                    for a, b in ((y_exp, y_col), (y_exp, y_pic),
                                 (y_col, y_pic)))
        details.append(f"N={n}: pairwise sup={worst:.2e} (tol {tol:.2e})")
        ok = ok and worst <= tol
        if n == 200:
            y0_200 = float(y_exp[0])
    y0_err = abs(y0_200 - 1.648721)
    elapsed = time.perf_counter() - start
    ok = ok and y0_err <= 1e-4 and elapsed < 10.0
    report(4, ok, "; ".join(details) +
           f"; Y(0)={y0_200:.7f} (|err|={y0_err:.1e}); {elapsed:.2f}s")
    assert ok


def test_criterion_05_girsanov_suite():
    start = time.perf_counter()
    grid = TriangularGrid(1.0, 100)
    b = drift(DelayedGenerator(Uniform(1.0), constant_kernel(0.0, 1.0), grid))
    stats = girsanov_report(b, 100000, 12345)
    by_name = {name: (value, se) for name, value, se in stats}
    mw, mw_se = by_name["mean_weight"]
    gap, gap_se = by_name["crosscheck_gap"]
    elapsed = time.perf_counter() - start
    ok = abs(mw - 1.0) <= 3.0 * mw_se and gap <= 3.0 * gap_se \
        and elapsed < 30.0
    report(5, ok, f"E[M(T)]={mw:.5f}+/-{mw_se:.1e} "
                  f"(|dev|/3SE={abs(mw - 1.0) / (3 * mw_se):.2f}); "
                  f"cross-mode gap={gap:.4f} vs 3SE={3 * gap_se:.4f}; "
                  f"{elapsed:.2f}s")
    assert ok


def test_criterion_06_z_validation():
    start = time.perf_counter()
    # (a) vanishing generator: the martingale of W(T) has unit integrand
    grid = TriangularGrid(1.0, 40)
    m = DiracAt(1.0, 0.0)
    fam = GaussianLinear(f0=make_f0("zero"),
                         phi=make_phi("constant", value=1.0))
    gen0 = DelayedGenerator(m, constant_kernel(0.0), grid)
    phi0 = build_phi(gen0)
    psi0 = resolvent(phi0, 1e-10)
    z0 = solve_Z(fam, psi0, drift(gen0))
    triu = np.triu(np.ones_like(z0, dtype=bool))
    flat_err = float(np.abs(z0[triu] - 1.0).max())

    # (b) regression oracle against the analytic surface, every node
    gen = DelayedGenerator(m, constant_kernel(0.3), grid)
    phi = build_phi(gen)
    psi = resolvent(phi, 1e-10)
    b = drift(gen)
    ens = sample_paths(50000, 12345, "P", b)
    z_exp = solve_Z(fam, psi, b)
    f_vals = evaluate_F_table(fam, ens)
    lsmc = solve_delayed_lsmc(f_vals, build_delayed_operator(gen), ens)
    compared = violations = 0
    worst_ratio = 0.0
    for i in range(grid.n + 1):
        for j in range(i, grid.n + 1):
            se = lsmc.z_se[i, j]
            if se > 0.0:
                compared += 1
                ratio = abs(lsmc.z[i, j] - z_exp[i, j]) / se
                worst_ratio = max(worst_ratio, ratio)
                violations += ratio > 3.0

    # (c) Ito isometry between U = F + int Phi Y - Y, the reduced residual
    # with its sign flipped, and the Z surface at four probe times
    y = solve_Y(fam, psi, ens)
    u = -residual_reduced(y, f_vals, phi)[0]
    tw = tail_weight_matrix(grid)
    iso_worst = 0.0
    for i in (0, 10, 20, 30):
        u2 = u[:, i] ** 2
        se = float(u2.std(ddof=1) / np.sqrt(u2.shape[0]))
        rhs = float((tw[i] * z_exp[i] ** 2).sum())
        iso_worst = max(iso_worst, abs(float(u2.mean()) - rhs) / (3.0 * se))

    elapsed = time.perf_counter() - start
    ok = flat_err <= 1e-12 and violations == 0 and compared >= 800 \
        and iso_worst <= 1.0 and elapsed < 180.0
    report(6, ok, f"G=0: sup|Z-1|={flat_err:.1e}; lsmc vs solve_Z: "
                  f"{compared} nodes, worst gap/SE={worst_ratio:.2f}, "
                  f"{violations} beyond 3SE; isometry worst |dev|/3SE="
                  f"{iso_worst:.2f}; {elapsed:.1f}s")
    assert ok


def test_criterion_07_reduced_residual_every_bundled_config(tmp_path):
    all_ok = True
    details = []
    for name in BUNDLED:
        start = time.perf_counter()
        out = tmp_path / name.replace(".cfg", "")
        code = cli_main(["solve", "--config", str(CONFIGS / name),
                         "--out", str(out)])
        elapsed = time.perf_counter() - start
        meta = json.loads((out / "solve.meta.json").read_text())
        dt = meta["horizon"] / meta["grid_n"]
        gate = 10.0 * dt**2 + 3.0 * meta["residual_reduced_se_max"]
        sup = meta["residual_reduced_sup"]
        good = code == 0 and sup <= gate and elapsed < 60.0
        all_ok = all_ok and good
        details.append(f"{name.removesuffix('.cfg')}: sup={sup:.2e} "
                       f"gate={gate:.2e} {elapsed:.1f}s")
    report(7, all_ok, "; ".join(details))
    assert all_ok


def test_criterion_08_delay_discrepancy_reported(tmp_path):
    start = time.perf_counter()
    details = []
    ok = True
    base = (CONFIGS / "delay-discrepancy.cfg").read_text()
    uniform_text = base.replace("measure.kind = dirac", "measure.kind = uniform")
    uniform_text = "\n".join(line for line in uniform_text.splitlines()
                             if not line.startswith("measure.u0")) + "\n"
    uniform_cfg = tmp_path / "delay-discrepancy-uniform.cfg"
    uniform_cfg.write_text(uniform_text)

    for label, cfg in (("dirac(-0.3)", CONFIGS / "delay-discrepancy.cfg"),
                       ("uniform", uniform_cfg)):
        out = tmp_path / label.replace("(", "_").replace(")", "_")
        code = cli_main(["compare", "--config", str(cfg), "--out", str(out)])
        lines = (out / "compare.csv").read_text().splitlines()
        header = lines[0].split(",")
        cols = {h: i for i, h in enumerate(header)}
        arr = np.array([[float(v) for v in line.split(",")]
                        for line in lines[1:]])
        needed = ["res_delayed_explicit", "res_reduced_explicit",
                  "res_delayed_oracle", "res_reduced_oracle"]
        have = all(c in cols for c in needed)
        sups = {c: float(np.abs(arr[:, cols[c]]).max()) for c in needed}
        finite = np.all(np.isfinite(arr))
        good = (code == 0 and have and bool(finite)
                and sups["res_delayed_oracle"] <= 1e-8)
        ok = ok and good
        details.append(
            f"{label}: picard delayed={sups['res_delayed_oracle']:.1e}; "
            f"cross residuals reported: explicit-vs-delayed="
            f"{sups['res_delayed_explicit']:.3f}, picard-vs-reduced="
            f"{sups['res_reduced_oracle']:.3f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(8, ok, "; ".join(details) + f"; {elapsed:.1f}s")
    assert ok


def test_criterion_09_worker_count_determinism(tmp_path):
    start = time.perf_counter()
    cfg = CONFIGS / "dirac-reduction.cfg"
    mismatches = []
    for command in ("resolvent", "solve", "compare", "girsanov-check",
                    "z-surface", "norms"):
        outs = []
        for tag, workers in (("w1", "1"), ("w8", "8"), ("w1b", "1")):
            out = tmp_path / command / tag
            code = cli_main([command, "--config", str(cfg),
                             "--out", str(out), "--workers", workers])
            assert code == 0, command
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        for other in outs[1:]:
            for name in names:
                if (outs[0] / name).read_bytes() != \
                        (other / name).read_bytes():
                    mismatches.append(f"{command}/{name}")
    elapsed = time.perf_counter() - start
    ok = not mismatches
    report(9, ok, ("byte-identical outputs for all six subcommands under "
                   f"workers 1 vs 8 and across reruns; {elapsed:.1f}s")
           if ok else f"mismatched: {mismatches}")
    assert ok
