"""End-to-end checks of the command-line harness: output schemas, exit
codes, determinism, and the printed reports."""

import hashlib
import json
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from bsvielab import cli, kernels, oracles, solver
from bsvielab.cli import main
from bsvielab.config import load_config
from bsvielab.girsanov import drift, expect_q_columns, sample_paths
from bsvielab.kernels import TriangularGrid
from bsvielab.terminal import evaluate_F_table

CONFIGS = resources.files("bsvielab") / "configs"

MINI_STOCHASTIC = """\
horizon = 1.0
grid.n = 16
measure.kind = dirac
measure.u0 = 0.0
kernel.name = constant
kernel.c = 0.3
kernel.g = 0.2
terminal.kind = gaussian_linear
terminal.f0 = zero
terminal.phi = constant
terminal.phi.value = 1.0
mc.paths = 2000
mc.seed = 77
"""


def run_cli(*args):
    return main([str(a) for a in args])


def write_cfg(tmp_path, text, name="mini.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# output files and schemas


def test_solve_writes_expected_files(tmp_path):
    cfg = write_cfg(tmp_path, MINI_STOCHASTIC)
    out = tmp_path / "out"
    assert run_cli("solve", "--config", cfg, "--out", out) == 0
    for name in ("solution.csv", "z_surface.csv", "residuals.csv",
                 "norms.csv", "solve.meta.json"):
        assert (out / name).exists(), name
    header, rows = read_csv(out / "solution.csv")
    assert header == ["t", "Y_mean", "Y_se"]
    assert len(rows) == 17
    header, rows = read_csv(out / "residuals.csv")
    assert header == ["t", "residual_delayed", "residual_reduced"]
    assert rows[0][1] == "nan"  # delayed residual undefined for paths
    header, rows = read_csv(out / "z_surface.csv")
    assert header == ["t", "s", "Z"]
    assert len(rows) == 17 * 18 // 2


def test_solution_means_agree_across_modes(tmp_path):
    # solution.csv holds E^Q averages: importance-weighted P paths and
    # plain Q paths estimate the same Y_mean (g = 0.2 shifts E^Q[W(1)])
    means = []
    for mode in ("P", "Q"):
        cfg = write_cfg(tmp_path, MINI_STOCHASTIC.replace(
            "grid.n = 16", "grid.n = 20").replace(
            "mc.paths = 2000", f"mc.paths = 4000\nmc.mode = {mode}"),
            name=f"{mode}.cfg")
        assert run_cli("solve", "--config", cfg, "--out", tmp_path / mode) == 0
        _, rows = read_csv(tmp_path / mode / "solution.csv")
        means.append(np.array(rows, dtype=float))
    (t, y_p, se_p), (_, y_q, se_q) = (m.T for m in means)
    assert len(t) == 21
    assert np.all(np.abs(y_p - y_q) <= 4.0 * np.hypot(se_p, se_q) + 1e-12)
    assert y_q[-1] > 5.0 * se_q[-1]


def test_norms_agree_across_modes(tmp_path):
    # H1 and S2 are E^Q path means too: at g = 0.6 the unweighted P mean
    # of the per-path H1^2 sits ~7 standard errors from the Q mean
    h1_sq, se = [], []
    for mode in ("P", "Q"):
        text = MINI_STOCHASTIC.replace("grid.n = 16", "grid.n = 20").replace(
            "kernel.g = 0.2", "kernel.g = 0.6").replace(
            "mc.paths = 2000", f"mc.paths = 4000\nmc.mode = {mode}")
        cfg = write_cfg(tmp_path, text, name=f"{mode}.cfg")
        assert run_cli("norms", "--config", cfg, "--out", tmp_path / mode) == 0
        _, rows = read_csv(tmp_path / mode / "norms.csv")
        h1_sq.append(float(rows[0][1]) ** 2)
        # the standard error of that mean, from the same paths
        run = load_config(text)
        grid = run.generator.grid
        y, _, ens = cli._solve_field(run, *cli._prepare(run)[2:4])
        per_path = grid.horizon * y[:, 0] ** 2 + np.trapezoid(
            y**2, grid.nodes, axis=1)
        est, est_se = expect_q_columns(ens, per_path[:, None])
        assert est[0] == pytest.approx(h1_sq[-1], rel=1e-10)
        se.append(float(est_se[0]))
    assert abs(h1_sq[0] - h1_sq[1]) <= 4.0 * np.hypot(*se)


def test_mode_p_sidecars_report_weights(tmp_path):
    for mode in ("P", "Q"):
        cfg = write_cfg(tmp_path, MINI_STOCHASTIC + f"mc.mode = {mode}\n",
                        name=f"{mode}.cfg")
        run = load_config(cfg.read_text())
        weights = cli._solve_field(run, *cli._prepare(run)[2:4])[2].weights
        for command in ("solve", "compare", "norms"):
            out = tmp_path / mode / command
            assert run_cli(command, "--config", cfg, "--out", out) == 0
            meta = json.loads((out / f"{command}.meta.json").read_text())
            if mode == "Q":
                assert "ess" not in meta and "min_weight" not in meta
                continue
            assert meta["ess"] == weights.sum() / weights.max()
            assert 10.0 < meta["ess"] < 2000
            assert meta["min_weight"] == weights.min() > 0.0


def test_zero_kernel_keeps_its_g(tmp_path):
    # kernel.name = zero is G = 0 with the configured g: at g = 0.6 the
    # paths are tilted, the ESS falls well below M, and every CSV is that
    # of kernel.name = constant with c = 0
    text = MINI_STOCHASTIC.replace("kernel.g = 0.2", "kernel.g = 0.6")
    text = text.replace("mc.seed = 77", "mc.seed = 7")
    texts = {"zero": text.replace("kernel.name = constant\nkernel.c = 0.3",
                                  "kernel.name = zero"),
             "constant": text.replace("kernel.c = 0.3", "kernel.c = 0.0")}
    for name, text in texts.items():
        cfg = write_cfg(tmp_path, text, name=f"{name}.cfg")
        assert run_cli("solve", "--config", cfg, "--out", tmp_path / name) == 0
    for csv in ("solution.csv", "z_surface.csv", "residuals.csv", "norms.csv"):
        assert (tmp_path / "zero" / csv).read_bytes() == \
            (tmp_path / "constant" / csv).read_bytes(), csv
    meta = json.loads((tmp_path / "zero" / "solve.meta.json").read_text())
    assert meta["ess"] < 1000.0


def test_solve_deterministic_residual_columns(tmp_path):
    out = tmp_path / "out"
    assert run_cli("solve", "--config", CONFIGS / "constant-kernel.cfg",
                   "--out", out) == 0
    _, rows = read_csv(out / "residuals.csv")
    vals = np.array([[float(r[1]), float(r[2])] for r in rows])
    assert np.abs(vals).max() < 1e-8


def test_meta_sidecar_hash_and_keys(tmp_path):
    cfg = write_cfg(tmp_path, MINI_STOCHASTIC)
    out = tmp_path / "out"
    run_cli("solve", "--config", cfg, "--out", out)
    meta = json.loads((out / "solve.meta.json").read_text())
    assert meta["config_sha256"] == hashlib.sha256(
        cfg.read_bytes()).hexdigest()
    assert meta["grid_n"] == 16
    assert meta["seed"] == 77
    assert "residual_reduced_sup" in meta
    assert not any("time" in k or "date" in k for k in meta)


def test_norms_command_matches_closed_form(tmp_path):
    out = tmp_path / "out"
    assert run_cli("norms", "--config", CONFIGS / "constant-kernel.cfg",
                   "--out", out) == 0
    header, rows = read_csv(out / "norms.csv")
    assert header == ["beta", "H1", "H2", "S2"]
    h1 = float(rows[0][1])
    s2 = float(rows[0][3])
    # Y(t) = exp(0.5 (1 - t)): H1^2 = e + (e - 1), S2 = e.
    assert h1 == pytest.approx(np.sqrt(2.0 * np.e - 1.0), abs=1e-4)
    assert s2 == pytest.approx(np.e, abs=1e-4)


def test_z_surface_smoothness_summary_row(tmp_path):
    out = tmp_path / "out"
    assert run_cli("z-surface", "--config",
                   CONFIGS / "gaussian-linear-z.cfg", "--out", out) == 0
    lines = (out / "smoothness.csv").read_text().splitlines()
    assert lines[0] == "t,s,dZdt"
    assert lines[-1].startswith("integral,,")


def test_girsanov_csv_schema(tmp_path):
    cfg = write_cfg(tmp_path, MINI_STOCHASTIC)
    out = tmp_path / "out"
    assert run_cli("girsanov-check", "--config", cfg, "--out", out) == 0
    header, rows = read_csv(out / "girsanov.csv")
    assert header == ["statistic", "value", "stderr"]
    assert [r[0] for r in rows] == ["mean_weight", "mean_WQ_T",
                                    "crosscheck_gap"]
    mean_w, se = float(rows[0][1]), float(rows[0][2])
    assert abs(mean_w - 1.0) < 5.0 * se


def test_resolvent_prints_both_closed_forms(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("resolvent", "--config", CONFIGS / "example33.cfg",
                   "--out", out) == 0
    text = capsys.readouterr().out
    assert "0.432332" in text and "0.316060" in text
    assert "n_star=" in text
    header, _ = read_csv(out / "resolvent.csv")
    assert header == ["t", "s", "phi", "psi"]


def test_compare_reports_four_residual_profiles(tmp_path):
    out = tmp_path / "out"
    assert run_cli("compare", "--config", CONFIGS / "delay-discrepancy.cfg",
                   "--out", out) == 0
    header, rows = read_csv(out / "compare.csv")
    assert header[4:] == ["res_delayed_explicit", "res_reduced_explicit",
                          "res_delayed_oracle", "res_reduced_oracle"]
    arr = np.array([[float(v) for v in r] for r in rows])
    # explicit satisfies the reduced equation, picard the delayed one ...
    assert np.abs(arr[:, 5]).max() < 1e-4
    assert np.abs(arr[:, 6]).max() < 1e-8
    # ... and the cross residuals expose the genuine model gap.
    assert np.abs(arr[:, 4]).max() > 1e-2
    assert np.abs(arr[:, 7]).max() > 1e-2
    assert (out / "picard.csv").exists()


def test_delayed_operator_built_once_per_command(tmp_path, monkeypatch):
    calls = []
    build = oracles.build_delayed_operator

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(cli, "build_delayed_operator", counted)
    monkeypatch.setattr(oracles, "build_delayed_operator", counted)
    det = CONFIGS / "constant-kernel.cfg"
    mc = write_cfg(tmp_path, MINI_STOCHASTIC)
    want = [("solve", det, 1), ("compare", det, 1), ("resolvent", det, 0),
            ("z-surface", det, 0), ("norms", det, 0), ("solve", mc, 0),
            ("compare", mc, 1)]
    for i, (command, cfg, count) in enumerate(want):
        calls.clear()
        assert run_cli(command, "--config", cfg,
                       "--out", tmp_path / str(i)) == 0
        assert len(calls) == count, (command, cfg)


MINI_TERMINAL = MINI_STOCHASTIC.replace(
    "terminal.kind = gaussian_linear\nterminal.f0 = zero\n"
    "terminal.phi = constant\nterminal.phi.value = 1.0",
    "terminal.kind = terminal_function\nterminal.h = square")


def test_monte_carlo_compare_runs_no_per_path_solve(tmp_path, monkeypatch):
    # a Monte Carlo compare takes the explicit mean by the tower identity:
    # no explicit Y or Z, no pathwise residual and no Gauss-Hermite sweep
    # over the paths, which solve still runs
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("solve_Y", "solve_Z", "residual_reduced_pathwise"):
        count(cli, name)
    count(solver, "conditional_sweep")
    terminal = write_cfg(tmp_path, MINI_TERMINAL, name="h.cfg")
    assert run_cli("solve", "--config", terminal, "--out", tmp_path / "s") == 0
    assert set(calls) == {"solve_Y", "solve_Z", "residual_reduced_pathwise",
                          "conditional_sweep"}
    bundled = CONFIGS / "dirac-reduction.cfg"
    for i, cfg in enumerate((write_cfg(tmp_path, MINI_STOCHASTIC), terminal,
                             bundled)):
        calls.clear()
        assert run_cli("compare", "--config", cfg,
                       "--out", tmp_path / str(i)) == 0
        assert calls == {}, cfg
    # under a Dirac at 0 the exact mean and collocation agree to rounding
    meta = json.loads((tmp_path / "2" / "compare.meta.json").read_text())
    assert meta["gap_explicit_collocation"] <= 1e-15


def test_monte_carlo_compare_se_is_the_lsmc_mean_noise(tmp_path):
    # se_max is the noise of the LSMC mean, the spread of its regression
    # targets; the fitted Y(0) is one constant, whose spread is rounding
    cfg = write_cfg(tmp_path, MINI_STOCHASTIC)
    assert run_cli("compare", "--config", cfg, "--out", tmp_path / "o") == 0
    run = load_config(cfg.read_text())
    ens = sample_paths(run.n_paths, run.seed, run.mode, drift(run.generator))
    lsmc = oracles.solve_delayed_lsmc(
        evaluate_F_table(run.family, ens),
        oracles.build_delayed_operator(run.generator), ens, run.picard_tol)
    se = expect_q_columns(ens, lsmc.y_targets)[1]
    assert se[0] > 0.0
    assert expect_q_columns(ens, lsmc.y)[1][0] < 1e-12 * se[0]
    meta = json.loads((tmp_path / "o" / "compare.meta.json").read_text())
    assert meta["se_max"] == float(se.max())


def test_mode_q_compare_on_dirac_reduction_is_ok(tmp_path, capsys):
    # Under a Dirac at 0 the explicit mean and the LSMC solve one
    # equation, so the verdict must not depend on the sampling measure.
    # Mode P prints ok (gap 1.766e-2 vs tol 3.190e-2).  Mode Q printed
    # EXCEEDS (2.876e-1 vs 3.105e-2) while its Q-conditional regressions
    # left out the drift's compensator of the g-term.
    text = (CONFIGS / "dirac-reduction.cfg").read_text()
    assert "mc.mode = P" in text
    cfg = write_cfg(tmp_path, text.replace("mc.mode = P", "mc.mode = Q"))
    capsys.readouterr()
    assert run_cli("compare", "--config", cfg, "--out", tmp_path / "o") == 0
    verdict = capsys.readouterr().out
    assert "E[Y_lsmc]" in verdict
    assert "[ok vs" in verdict, verdict


def test_write_csv_cells(tmp_path):
    path = tmp_path / "cells.csv"
    table = np.array([(np.float64(-np.nan), np.float64(-0.0), -np.inf,
                       np.int64(3), np.float64(1e-05), 0.1 + 0.2,
                       1e308 * 10)])
    # a traced run passes the rows through a generator
    for rows in (table, (row for row in table)):
        cli.write_csv(str(path), ["a", "b"], rows,
                      labelled=[(("integral", ""),
                                 (np.nan, -0.0, np.inf, 3, 1e-05))])
        assert path.read_text() == ("a,b\n"
                                    "nan,-0,-inf,3,1e-05,0.3,inf\n"
                                    "integral,,nan,-0,inf,3,1e-05\n")

    # no table rows, only labelled ones (girsanov.csv), as an array and as
    # an empty generator
    stats = [(("mean_weight",), (1.0, 0.01)), (("crosscheck_gap",), (-0.0, 0))]
    for empty in (np.empty((0, 3)), (row for row in np.empty((0, 3)))):
        cli.write_csv(str(path), ["statistic", "value", "stderr"], empty,
                      labelled=stats)
        assert path.read_text() == ("statistic,value,stderr\n"
                                    "mean_weight,1,0.01\n"
                                    "crosscheck_gap,-0,0\n")

    # tables ending just before, on and just after 4096 rows, with the
    # special cells on the rows either side of it
    rng = np.random.default_rng(5)
    special = [np.nan, -0.0, np.inf, -np.inf, 3.0, -7.0, 1e13, 1e-13,
               -1e13, 0.1 + 0.2, 5e-324, 2.2250738585072014e-308]
    block = 4096
    for n_rows in (block - 1, block, block + 1):
        table = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(
            -15, 15, (n_rows, 3))
        for k, x in enumerate(special):
            table[(block - 2 + k // 3) % n_rows, k % 3] = x
            table[k % n_rows, k % 3] = x
        want = "x,y,z\n" + "".join(
            ",".join(format(x, ".12g") for x in row) + "\n"
            for row in table.tolist())
        for rows in (table, (row for row in table)):
            cli.write_csv(str(path), ["x", "y", "z"], rows)
            assert path.read_text() == want, n_rows


def reference_triangle_rows(grid, *surfaces):
    nodes = grid.nodes
    for i in range(grid.n + 1):
        for j in range(i, grid.n + 1):
            yield (nodes[i], nodes[j]) + tuple(s[i, j] for s in surfaces)


def reference_triangle_text(header, grid, surfaces, labelled=()):
    """The file write_triangle must write, one cell at a time."""
    lines = [",".join(header)]
    lines += [",".join(format(x, ".12g") for x in row)
              for row in reference_triangle_rows(grid, *surfaces)]
    lines += [",".join([*label, *(format(x, ".12g") for x in values)])
              for label, values in labelled]
    return "\n".join(lines) + "\n"


def test_triangle_rows_match_double_loop(tmp_path):
    # N = 89 and 90 write 4095 and 4186 rows, either side of 4096; N = 2
    # writes 6
    block = 4096
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e13, 1e-13, -1e13,
               0.1 + 0.2]
    rng = np.random.default_rng(11)
    path = tmp_path / "tri.csv"
    for n, n_rows in ((89, block - 1), (90, 4186), (2, 6)):
        grid = TriangularGrid(0.7, n)
        i, j = np.triu_indices(n + 1)
        assert len(i) == n_rows
        # the special cells sit on the ten rows around row 4096, or on the
        # last ten rows of a table that ends before it (wrapping round a
        # table of fewer rows)
        rows = np.arange(block - 5, block + 5)
        if n_rows < block:
            rows -= rows[-1] + 1 - n_rows
        a, b = rng.standard_normal((2, n + 1, n + 1)) * 10.0 ** \
            rng.integers(-15, 15, (2, n + 1, n + 1))
        for k, x in enumerate(special):
            a[i[rows[k]], j[rows[k]]] = x
            b[i[rows[-1 - k]], j[rows[-1 - k]]] = x
        zero = np.zeros((n + 1, n + 1))
        minus_zero = zero.copy()
        minus_zero[i[rows[5]], j[rows[5]]] = -0.0
        # +0.0 on i <= j: the zero cells are written whatever lies below
        lower_dirty = zero.copy()
        lower_dirty[np.tril_indices(n + 1, -1)] = np.nan
        lower_dirty[n, 0] = -0.0
        cases = [
            ((a,), ()),
            ((a, b), [(("integral", ""), (0.1 + 0.2,))]),
            ((zero,), [(("integral", ""), (-0.0,))]),
            ((zero, zero), ()),
            ((zero, a), ()),
            ((minus_zero,), ()),
            ((minus_zero, zero), ()),
            ((np.full((n + 1, n + 1), np.nan),), ()),
            ((lower_dirty,), ()),
            ((lower_dirty, zero), [(("integral", ""), (-0.0,))]),
        ]
        for surfaces, labelled in cases:
            header = ["t", "s"] + [f"v{c}" for c in range(len(surfaces))]
            cli.write_triangle(str(path), header, grid, *surfaces,
                               labelled=labelled)
            text = path.read_text()
            assert text == reference_triangle_text(header, grid, surfaces,
                                                   labelled), (n, header)
            if surfaces[0] is minus_zero:
                assert text.count(",-0") == 1


def test_write_triangle_streams(tmp_path):
    # a writer that held the whole file, or every row at once, would
    # allocate more than the file's size
    grid = TriangularGrid(1.0, 600)
    a, b = np.random.default_rng(2).standard_normal((2, 601, 601))
    path = tmp_path / "tri.csv"
    tracemalloc.start()
    try:
        cli.write_triangle(str(path), ["t", "s", "a", "b"], grid, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


@pytest.mark.parametrize("mode", ["P", "Q"])
def test_monte_carlo_compare_peak_within_seven_tables(tmp_path, mode):
    # compare holds the ensemble's draws throughout and F while the LSMC
    # oracle runs, with the oracle's W and two of its Y_prev, targets, Y
    # and theta; then the LSMC Y and targets, each reduced through one
    # private copy in expect_q_columns: six (M, N+1) tables at most.  The
    # explicit mean reads no paths.  One more table covers the basis
    # block, the O(N^2) tables and the Python objects.  A stacked basis
    # alone would be 5 tables here.
    m_paths, n = 20_000, 20
    cfg = write_cfg(tmp_path, MINI_STOCHASTIC.replace(
        "grid.n = 16", f"grid.n = {n}").replace(
        "mc.paths = 2000", f"mc.paths = {m_paths}\nmc.mode = {mode}"))
    tracemalloc.start()
    try:
        code = run_cli("compare", "--config", cfg, "--out", tmp_path / "o")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 7 * m_paths * (n + 1) * 8


# ---------------------------------------------------------------------------
# exit codes


def test_exit_2_on_unknown_key(tmp_path):
    cfg = write_cfg(tmp_path, MINI_STOCHASTIC + "mystery.knob = 3\n")
    assert run_cli("solve", "--config", cfg, "--out", tmp_path / "o") == 2


def test_exit_2_on_bad_values(tmp_path):
    for spoiled in ("horizon = -1.0", "grid.n = 1", "mc.mode = R",
                    "measure.kind = hexagonal", "measure.u0 = -2.0",
                    "kernel.name = unknown",
                    "horizon = inf", "tolerances.resolvent = nan",
                    "tolerances.quad_slack = 0", "mc.seed = -1",
                    "beta = -800", "beta = 800"):
        key = spoiled.split("=")[0].strip()
        lines = MINI_STOCHASTIC.splitlines()
        if any(line.split("=")[0].strip() == key for line in lines):
            text = "\n".join(spoiled if line.split("=")[0].strip() == key
                             else line for line in lines) + "\n"
        else:
            text = MINI_STOCHASTIC + spoiled + "\n"
        cfg = write_cfg(tmp_path, text, name="spoiled.cfg")
        assert run_cli("solve", "--config", cfg,
                       "--out", tmp_path / "o") == 2, spoiled
    # a negative power would make the poly_exp kernel table non-finite
    cfg = write_cfg(tmp_path, MINI_STOCHASTIC.replace(
        "kernel.name = constant", "kernel.name = poly_exp\nkernel.k = -1"),
        name="poly.cfg")
    assert run_cli("solve", "--config", cfg, "--out", tmp_path / "o") == 2
    # the seed is checked after --seed replaces mc.seed
    cfg = write_cfg(tmp_path, MINI_STOCHASTIC)
    for seed in (-1, 2**128):
        assert run_cli("solve", "--config", cfg, "--out", tmp_path / "o",
                       "--seed", seed) == 2, seed
    assert run_cli("solve", "--config", cfg, "--out", tmp_path / "o",
                   "--seed", 2**128 - 1) == 0


def test_exit_2_on_registry_parameter_it_does_not_take(tmp_path, capsys):
    # a typo, and a key of another entry: both would otherwise run with
    # the defaults
    det = "horizon = 1.0\ngrid.n = 8\nmeasure.kind = dirac\n" \
          "kernel.name = constant\nterminal.f0 = constant\n"
    for text, key in [
            (det + "terminal.f0.valeu = 2.0\n", "terminal.f0.valeu"),
            (MINI_STOCHASTIC.replace("terminal.phi.value", "terminal.phi.rate"),
             "terminal.phi.rate"),
            (MINI_STOCHASTIC.replace("terminal.kind = gaussian_linear\n"
                                     "terminal.f0 = zero\n"
                                     "terminal.phi = constant\n"
                                     "terminal.phi.value = 1.0\n",
                                     "terminal.kind = terminal_function\n"
                                     "terminal.h = square\n"
                                     "terminal.h.slope = 2.0\n"),
             "terminal.h.slope")]:
        cfg = write_cfg(tmp_path, text, name="typo.cfg")
        out = tmp_path / "o"
        assert run_cli("solve", "--config", cfg, "--out", out) == 2, key
        assert key in capsys.readouterr().err
        assert not out.exists()
    # the spelled-out parameter is read
    cfg = write_cfg(tmp_path, det + "terminal.f0.value = 2.0\n")
    assert run_cli("solve", "--config", cfg, "--out", tmp_path / "ok") == 0
    header, rows = read_csv(tmp_path / "ok" / "solution.csv")
    assert float(rows[-1][1]) == 2.0


def test_exit_2_on_overflowing_poly_exp_kernel(tmp_path, capsys):
    for horizon, lam in [("1.0", "-2000"), ("1000", "-1")]:
        text = MINI_STOCHASTIC.replace("horizon = 1.0", f"horizon = {horizon}")
        text = text.replace("kernel.name = constant\nkernel.c = 0.3",
                            f"kernel.name = poly_exp\nkernel.lam = {lam}")
        cfg = write_cfg(tmp_path, text, name="poly.cfg")
        for command in ("resolvent", "solve"):
            assert run_cli(command, "--config", cfg,
                           "--out", tmp_path / "o") == 2, (horizon, command)
            err = capsys.readouterr().err
            assert "kernel: poly_exp" in err and "Traceback" not in err


def test_poly_exp_peak_on_a_node_runs(tmp_path):
    # |G| peaks at 3.1e4 on the node t = k/lam = 1/12 and rounds 3.6e-12
    # past its declared sup there: the bound check's slack is relative, so
    # the run goes on instead of ending in a ValueError traceback (exit 1)
    cfg = write_cfg(tmp_path, """\
horizon = 1.0
grid.n = 12
measure.kind = dirac
kernel.name = poly_exp
kernel.k = 1
kernel.lam = 12
kernel.scale = 1e6
terminal.kind = deterministic
""")
    assert run_cli("resolvent", "--config", cfg, "--out", tmp_path / "o") == 0


def test_unsummable_sharp_tail_is_reported_as_na(tmp_path, capsys):
    # C*T = 2.45e5 needs over 2^20 terms of the sharp tail, which is only
    # reported: Psi is finite (sup 9.2e14), so both commands end 0, with
    # n_star and tail_bound null in the sidecars and n/a in the report
    cfg = write_cfg(tmp_path, """\
horizon = 1.0
grid.n = 3
measure.kind = dirac
measure.u0 = 0.0
kernel.name = poly_exp
kernel.k = 1
kernel.lam = 1.5
kernel.scale = 1e6
terminal.kind = deterministic
""")
    out = tmp_path / "o"
    meta = {}
    for command in ("resolvent", "solve"):
        assert run_cli(command, "--config", cfg, "--out", out) == 0, command
        meta[command] = json.loads((out / f"{command}.meta.json").read_text(),
                                   parse_constant=lambda t: pytest.fail(t))
        assert meta[command]["n_star"] is None, command
        assert meta[command]["tail_bound"] is None, command
    assert 1e14 < meta["resolvent"]["sup_psi"] < float("inf")
    assert "n_star=n/a tail_bound=n/a" in capsys.readouterr().out


DET_UNIFORM = """\
horizon = 1.0
grid.n = {n}
measure.kind = uniform
kernel.name = {kernel}
terminal.kind = deterministic
terminal.f0 = constant
terminal.f0.value = 1.0
"""


@pytest.mark.parametrize("kernel", ["example33", "constant\nkernel.c = 0.6"],
                         ids=["example33", "constant"])
@pytest.mark.parametrize("command", ["solve", "compare"])
def test_deterministic_command_evaluates_the_spec_once(tmp_path, monkeypatch,
                                                       command, kernel):
    # Phi and the delayed operator read one evaluation of the spec (the
    # product-form phi, or G) on the node square: a column and a row of
    # the nodes
    n = 24
    nodes = TriangularGrid(1.0, n).nodes
    calls = []
    zero_extend = kernels.zero_extend_kernel

    def counted(f):
        wrapped = zero_extend(f)

        def call(t, s):
            if (np.shape(t) == (n + 1, 1) and np.shape(s) == (1, n + 1)
                    and np.array_equal(t[:, 0], nodes)
                    and np.array_equal(s[0], nodes)):
                calls.append(command)
            return wrapped(t, s)
        return call

    monkeypatch.setattr(kernels, "zero_extend_kernel", counted)
    cfg = write_cfg(tmp_path, DET_UNIFORM.format(n=n, kernel=kernel))
    assert run_cli(command, "--config", cfg, "--out", tmp_path / "o") == 0
    assert calls == [command]


def test_deterministic_solve_peak_within_eight_and_a_half_tables(tmp_path):
    # det-uniform's solve at N = 600, one (N+1)^2 table 2.9 MB.  Before
    # the delayed operator read build_phi's evaluation of the spec, the
    # traced peak was 8.15 tables, inside the window sum's index-grid
    # gathers (Phi, Psi, Z, G, its prefix, the operator and the index
    # tables); the bound is fixed from that measurement
    n = 600
    cfg = write_cfg(tmp_path, DET_UNIFORM.format(n=n, kernel="example33"))
    tracemalloc.start()
    try:
        code = run_cli("solve", "--config", cfg, "--out", tmp_path / "o")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8.5 * (n + 1) ** 2 * 8


@pytest.mark.parametrize("measure", ["uniform", "dirac\nmeasure.u0 = 0.0"],
                         ids=["uniform", "dirac0"])
@pytest.mark.parametrize("command", ["solve", "compare"])
def test_monte_carlo_command_evaluates_the_spec_once(tmp_path, monkeypatch,
                                                     command, measure):
    # Phi and, in compare, the operator the LSMC takes read one evaluation
    # of the spec on the node square; compare evaluated it twice while the
    # LSMC built its own operator
    n = 16
    nodes = TriangularGrid(1.0, n).nodes
    calls = []
    zero_extend = kernels.zero_extend_kernel

    def counted(f):
        wrapped = zero_extend(f)

        def call(t, s):
            if (np.shape(t) == (n + 1, 1) and np.shape(s) == (1, n + 1)
                    and np.array_equal(t[:, 0], nodes)
                    and np.array_equal(s[0], nodes)):
                calls.append(command)
            return wrapped(t, s)
        return call

    monkeypatch.setattr(kernels, "zero_extend_kernel", counted)
    cfg = write_cfg(tmp_path, MINI_STOCHASTIC.replace(
        "dirac\nmeasure.u0 = 0.0", measure))
    assert run_cli(command, "--config", cfg, "--out", tmp_path / "o") == 0
    assert calls == [command]


def test_single_path_solve_writes_valid_sidecar(tmp_path):
    # one path has no sample spread: the residual SE is 0, as for Y, and
    # the sidecar stays valid JSON
    cfg = write_cfg(tmp_path, MINI_STOCHASTIC.replace(
        "mc.paths = 2000", "mc.paths = 1\nmc.mode = Q"))
    out = tmp_path / "out"
    assert run_cli("solve", "--config", cfg, "--out", out) == 0

    def reject(token):
        raise ValueError(f"non-finite JSON value {token}")

    meta = json.loads((out / "solve.meta.json").read_text(),
                      parse_constant=reject)
    assert meta["paths"] == 1
    assert meta["residual_reduced_se_max"] == 0.0
    assert meta["y0_se"] == 0.0


DETERMINISTIC = """\
horizon = 1.0
grid.n = {n}
measure.kind = dirac
measure.u0 = 0.0
kernel.name = constant
kernel.c = {c}
terminal.kind = deterministic
terminal.f0 = constant
terminal.f0.value = 2.0
"""


def test_exit_2_on_overflowing_norms(tmp_path, capsys):
    # exp(709 T) is finite, but weighted by Y^2 ~ 4 e^0.6 it is not: the
    # norms overflow, and neither command writes an output or sidecar
    cfg = write_cfg(tmp_path, DETERMINISTIC.format(n=20, c=0.3)
                    + "beta = 709\n")
    for command in ("norms", "solve"):
        out = tmp_path / command
        assert run_cli(command, "--config", cfg, "--out", out) == 2, command
        assert "beta" in capsys.readouterr().err
        assert list(out.iterdir()) == [], command


def test_exit_2_on_girsanov_check_overflow_at_long_horizon(tmp_path, capsys):
    # W(T) has variance T = 1e6: exp(W(T)) overflows on some path, and the
    # command names the horizon instead of ending in a traceback
    cfg = write_cfg(tmp_path, """\
horizon = 1e6
grid.n = 10
measure.kind = uniform
kernel.name = constant
kernel.c = 0.0
kernel.g = 0.0
terminal.kind = deterministic
terminal.f0 = constant
mc.paths = 100
""")
    out = tmp_path / "out"
    assert run_cli("girsanov-check", "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: horizon:") and "1000000" in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("case", ["out-is-a-file", "out-through-a-file",
                                  "directory-in-place-of-output"])
def test_exit_2_on_unwritable_output(tmp_path, capsys, case):
    cfg = write_cfg(tmp_path, DETERMINISTIC.format(n=8, c=0.3))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    if case == "out-is-a-file":
        out = bad = blocker
    elif case == "out-through-a-file":
        out = bad = blocker / "sub"
    else:
        out = tmp_path / "out"
        bad = out / "solution.csv"
        bad.mkdir(parents=True)
    assert run_cli("solve", "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write output {bad}")
    assert "Traceback" not in err


def test_resolvent_exit_codes_at_large_kernel_bounds(tmp_path, capsys):
    def resolvent_exit(n, c):
        cfg = write_cfg(tmp_path, DETERMINISTIC.format(n=n, c=c))
        return run_cli("resolvent", "--config", cfg, "--out", tmp_path / "o")

    # dt/2 * phi = 1: the implicit trapezoid step is singular
    assert resolvent_exit(40, 80) == 3
    assert "diagonal factor" in capsys.readouterr().err
    # c = 40 on 40 steps: Psi ~ 5e20 is large but finite
    assert resolvent_exit(40, 40) == 0
    meta = json.loads((tmp_path / "o" / "resolvent.meta.json").read_text(),
                      parse_constant=lambda token: pytest.fail(token))
    assert meta["sup_psi"] > 1e20
    assert meta["identity_residual"] <= 1e-14 * meta["sup_psi"]
    # c = 1000 on 400 steps: Psi overflows
    assert resolvent_exit(400, 1000) == 3
    assert "resolvent overflows" in capsys.readouterr().err


# under a uniform delay the operator L of c = 1.7e308 is not finite: solve
# and compare build it before the resolvent, which still reports.  Its
# window sum overflows without a word: the resolvent's exit-3 message is
# the only report, and no numpy RuntimeWarning reaches the command line
# (under the project's filterwarnings = error one would fail the run).
UNIFORM_OVERFLOW = DETERMINISTIC.format(n=10, c=1.7e308).replace(
    "measure.kind = dirac\nmeasure.u0 = 0.0", "measure.kind = uniform")
OVERFLOW_COMMANDS = ["solve", "compare", "z-surface", "norms"]


@pytest.mark.parametrize("command, text", [
    *(pytest.param(c, DETERMINISTIC.format(n=400, c=1000), id=c)
      for c in OVERFLOW_COMMANDS),
    *(pytest.param(c, UNIFORM_OVERFLOW, id=f"{c}-uniform-c1.7e308")
      for c in OVERFLOW_COMMANDS),
])
def test_every_command_exits_3_on_an_overflowing_resolvent(tmp_path, capsys,
                                                            command, text):
    # the identity residual is computed by the resolvent command alone; the
    # others must still refuse a non-finite Psi
    cfg = write_cfg(tmp_path, text)
    assert run_cli(command, "--config", cfg, "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert "resolvent overflows" in err
    assert "RuntimeWarning" not in err


def test_exit_2_on_missing_file(tmp_path):
    assert run_cli("solve", "--config", tmp_path / "absent.cfg",
                   "--out", tmp_path / "o") == 2


def test_exit_2_on_bad_workers(tmp_path):
    cfg = write_cfg(tmp_path, MINI_STOCHASTIC)
    assert run_cli("solve", "--config", cfg, "--out", tmp_path / "o",
                   "--workers", 0) == 2


DIVERGING = """\
horizon = 1.0
grid.n = {n}
measure.kind = dirac
measure.u0 = -0.4
kernel.name = constant
kernel.c = 8.0
terminal.f0 = constant
terminal.f0.value = 1.0
"""


def test_exit_3_on_picard_divergence_with_trace(tmp_path):
    # the deterministic Picard oracle and, with a stochastic free term,
    # the LSMC oracle both leave their trace and a failure sidecar behind
    deterministic = DIVERGING.format(n=40) + "terminal.kind = deterministic\n"
    monte_carlo = DIVERGING.format(n=20) + """\
terminal.kind = gaussian_linear
terminal.phi = constant
terminal.phi.value = 1.0
mc.paths = 500
"""
    for name, text, oracle in (("det", deterministic, "picard"),
                               ("mc", monte_carlo, "lsmc")):
        cfg = write_cfg(tmp_path, text, name=name + ".cfg")
        out = tmp_path / name
        assert run_cli("compare", "--config", cfg, "--out", out) == 3, name
        header, rows = read_csv(out / "picard.csv")
        assert header == ["iteration", "sup_diff"]
        assert len(rows) > 5
        assert float(rows[-1][1]) > float(rows[0][1])  # visibly diverging
        meta = json.loads((out / "compare.meta.json").read_text())
        assert meta[oracle + "_converged"] is False
        assert meta[oracle + "_iterations"] == len(rows)


SINGLE_PATH = """\
horizon = 1.0
grid.n = 8
mc.paths = 1
mc.seed = 1
mc.mode = Q
measure.kind = uniform
kernel.name = constant
kernel.c = 0.3
kernel.g = 0.2
terminal.kind = terminal_function
terminal.h = square
"""


def test_exit_3_on_single_path_compare(tmp_path, capsys):
    # one path gives every increment dW_j zero sample variance, so the
    # LSMC oracle has no Z slope to fit
    cfg = write_cfg(tmp_path, SINGLE_PATH)
    assert run_cli("compare", "--config", cfg, "--out", tmp_path / "o") == 3
    assert "no sample variance" in capsys.readouterr().err


def test_compare_meta_reports_lsmc_gram_condition(tmp_path):
    cfg = write_cfg(tmp_path, MINI_STOCHASTIC)
    out = tmp_path / "out"
    assert run_cli("compare", "--config", cfg, "--out", out) == 0
    cond = json.loads((out / "compare.meta.json").read_text())[
        "lsmc_max_gram_cond"]
    assert 1.0 <= cond <= oracles.COND_LIMIT


DEGENERATE = """\
horizon = 1.0
grid.n = 8
measure.kind = uniform
kernel.name = constant
kernel.c = 0.1
mc.paths = 200
mc.seed = 3
"""


GAUSSIAN_LINEAR = """\
terminal.kind = gaussian_linear
terminal.f0 = zero
terminal.phi = constant
terminal.phi.value = 1.0
"""


def test_exit_4_on_degenerate_weights(tmp_path):
    # g = 40: the ESS of the mode-P weights is about 1 when the paths are
    # drawn; g = 400: every mode-P weight underflows to 0
    for g in ("40.0", "400.0"):
        cfg = write_cfg(tmp_path, DEGENERATE + f"kernel.g = {g}\n"
                        + GAUSSIAN_LINEAR, name=f"g{g}.cfg")
        for command in ("solve", "norms", "compare", "girsanov-check"):
            assert run_cli(command, "--config", cfg,
                           "--out", tmp_path / command) == 4, (g, command)


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# determinism


def test_byte_identical_across_runs_and_workers(tmp_path):
    cfg = write_cfg(tmp_path, MINI_STOCHASTIC)
    outs = []
    for name, workers in (("a", 1), ("b", 8), ("c", 1)):
        out = tmp_path / name
        assert run_cli("solve", "--config", cfg, "--out", out,
                       "--workers", workers) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names
    for other in outs[1:]:
        for name in names:
            assert (outs[0] / name).read_bytes() == \
                (other / name).read_bytes(), name


def test_seed_override_changes_draws(tmp_path):
    cfg = write_cfg(tmp_path, MINI_STOCHASTIC)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_cli("solve", "--config", cfg, "--out", a, "--seed", 1)
    run_cli("solve", "--config", cfg, "--out", b, "--seed", 2)
    run_cli("solve", "--config", cfg, "--out", c, "--seed", 1)
    assert (a / "solution.csv").read_bytes() != (b / "solution.csv").read_bytes()
    assert (a / "solution.csv").read_bytes() == (c / "solution.csv").read_bytes()
    meta = json.loads((a / "solve.meta.json").read_text())
    assert meta["seed"] == 1
