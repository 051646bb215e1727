"""End-to-end checks of the command-line harness: output schemas, exit
codes, determinism, and the printed reports."""

import hashlib
import json
from importlib import resources

import numpy as np
import pytest

from bsvielab import cli, oracles
from bsvielab.cli import main

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
            ("z-surface", det, 0), ("norms", det, 0), ("solve", mc, 0)]
    for i, (command, cfg, count) in enumerate(want):
        calls.clear()
        assert run_cli(command, "--config", cfg,
                       "--out", tmp_path / str(i)) == 0
        assert len(calls) == count, (command, cfg)


# ---------------------------------------------------------------------------
# exit codes


def test_exit_2_on_unknown_key(tmp_path):
    cfg = write_cfg(tmp_path, MINI_STOCHASTIC + "mystery.knob = 3\n")
    assert run_cli("solve", "--config", cfg, "--out", tmp_path / "o") == 2


def test_exit_2_on_bad_values(tmp_path):
    for spoiled in ("horizon = -1.0", "grid.n = 1", "mc.mode = R",
                    "measure.kind = hexagonal", "kernel.name = unknown",
                    "horizon = inf", "tolerances.resolvent = nan",
                    "tolerances.quad_slack = 0"):
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


DEGENERATE = """\
horizon = 1.0
grid.n = 8
measure.kind = uniform
kernel.name = constant
kernel.c = 0.1
mc.paths = 200
mc.seed = 3
"""


def test_exit_4_on_degenerate_weights(tmp_path):
    # g = 40: the ESS guard of the Q-expectations trips
    cfg = write_cfg(tmp_path, DEGENERATE + "kernel.g = 40.0\n")
    assert run_cli("girsanov-check", "--config", cfg,
                   "--out", tmp_path / "o") == 4
    # g = 400: every mode-P weight underflows to 0 while the paths are drawn
    cfg = write_cfg(tmp_path, DEGENERATE + """\
kernel.g = 400.0
terminal.kind = gaussian_linear
terminal.f0 = zero
terminal.phi = constant
terminal.phi.value = 1.0
""", name="underflow.cfg")
    for command in ("solve", "norms", "compare", "girsanov-check"):
        assert run_cli(command, "--config", cfg,
                       "--out", tmp_path / command) == 4, command


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
