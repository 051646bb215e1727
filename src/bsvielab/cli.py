"""Command-line harness around the solvers.

Subcommands
    resolvent       kernel + resolvent tables, truncation diagnostics
    solve           explicit (Y, Z), residuals, norms
    compare         explicit vs independent oracles, verdict line
    girsanov-check  measure-change cross-checks
    z-surface       Z table and smoothness diagnostics
    norms           weighted solution norms only

Every command reads one config file, writes CSV outputs plus a
``<command>.meta.json`` sidecar into the output directory, and prints a
short report.  Outputs contain no timestamps and the computation never
depends on ``--workers``, so identical configs produce byte-identical
files across runs and worker counts.

Exit codes: 0 success, 2 configuration or validation failure,
3 convergence or truncation failure, 4 degenerate importance weights.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config_file
from .girsanov import DegenerateWeights, drift, expect_q, girsanov_report, \
    sample_paths
from .kernels import ToleranceUnreachable, build_phi, example33_reference, \
    resolvent
from .oracles import PicardConfig, PicardDiverged, PicardStalled, \
    RegressionIllConditioned, SingularStep, build_delayed_operator, \
    residual_delayed, residual_reduced, residual_reduced_pathwise, \
    solve_delayed_lsmc, solve_delayed_picard, solve_reduced_collocation
from .solver import norms, smoothness_diagnostics, solve_Y, solve_Z
from .terminal import QuadratureError, conditional_F, f0_profile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_DEGENERATE = 4

_CONVERGENCE_ERRORS = (ToleranceUnreachable, PicardDiverged, PicardStalled,
                       SingularStep, RegressionIllConditioned)


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    v = float(x)
    if np.isnan(v):
        return "nan"
    return format(v, ".12g")


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_meta(cfg: ExperimentConfig, command: str, extra: dict) -> None:
    payload = {
        "command": command,
        "config_sha256": cfg.sha256,
        "horizon": cfg.horizon,
        "grid_n": cfg.n,
        "paths": cfg.n_paths,
        "seed": cfg.seed,
        "mode": cfg.mode,
    }
    payload.update(extra)
    name = command.replace("-", "_") + ".meta.json"
    with open(os.path.join(cfg.out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _triangle_rows(grid, *surfaces):
    nodes = grid.nodes
    for i in range(grid.n + 1):
        for j in range(i, grid.n + 1):
            yield (nodes[i], nodes[j]) + tuple(s[i, j] for s in surfaces)


def _prepare(cfg: ExperimentConfig):
    """Grid, kernel table, resolvent and drift shared by most commands; the
    delayed operator is built once by the two commands that use it."""
    grid = cfg.grid()
    phi = build_phi(cfg.measure, cfg.kernel, grid)
    psi = resolvent(phi, cfg.resolvent_tol)
    drift_fn = drift(cfg.measure, cfg.kernel, grid)
    return grid, phi, psi, drift_fn


def _q_mean_columns(values: np.ndarray, ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise expectation of an (M, N+1) matrix under the changed
    measure, importance-weighted for mode-P ensembles."""
    est = np.empty(values.shape[1])
    se = np.empty(values.shape[1])
    for i in range(values.shape[1]):
        est[i], se[i] = expect_q(ensemble, lambda e, c=values[:, i]: c)
    return est, se


def cmd_resolvent(cfg: ExperimentConfig) -> None:
    grid, phi, psi, _ = _prepare(cfg)
    write_csv(os.path.join(cfg.out_dir, "resolvent.csv"),
              ["t", "s", "phi", "psi"],
              _triangle_rows(grid, phi.values, psi.values))
    print(f"resolvent: n_star={psi.n_star} tail_bound={psi.tail_bound:.6e} "
          f"sup|Phi|={phi.sup_norm:.12g} sup|Psi|={psi.sup_norm:.12g}")
    extra = {
        "n_star": psi.n_star,
        "tail_bound": psi.tail_bound,
        "series_orders": len(psi.series_terms),
        "sup_psi": psi.sup_norm,
    }
    if cfg.kernel.name == "example33":
        num = float(psi.values[0, -1])
        derived = float(example33_reference(cfg.horizon, "derived")(cfg.horizon))
        quoted = float(example33_reference(cfg.horizon, "quoted")(cfg.horizon))
        print(f"example33 resolvent at (t,s)=(0,{cfg.horizon:g}): "
              f"numeric={num:.12g} derived-closed-form={derived:.12g} "
              f"quoted-closed-form={quoted:.12g}")
        print(f"example33 gaps: |numeric-derived|={abs(num - derived):.6e} "
              f"|numeric-quoted|={abs(num - quoted):.6e}")
        extra.update({"example33_numeric": num, "example33_derived": derived,
                      "example33_quoted": quoted})
    write_meta(cfg, "resolvent", extra)


def _solve_field(cfg: ExperimentConfig, grid, phi, psi, drift_fn):
    """Explicit (Y, Z) plus the ensemble (None for deterministic runs)."""
    if cfg.stochastic:
        ens = sample_paths(grid, cfg.n_paths, cfg.seed, cfg.mode, drift_fn)
    else:
        ens = None
    fld = solve_Y(cfg.family, psi, drift_fn, grid, ens)
    fld.z = solve_Z(cfg.family, phi, psi, drift_fn, grid)
    return fld, ens


def cmd_solve(cfg: ExperimentConfig) -> None:
    grid, phi, psi, drift_fn = _prepare(cfg)
    fld, ens = _solve_field(cfg, grid, phi, psi, drift_fn)
    nodes = grid.nodes

    y_mean = fld.y_mean()
    y_se = fld.y_se if fld.y_se is not None else np.zeros_like(y_mean)
    write_csv(os.path.join(cfg.out_dir, "solution.csv"),
              ["t", "Y_mean", "Y_se"], zip(nodes, y_mean, y_se))
    write_csv(os.path.join(cfg.out_dir, "z_surface.csv"), ["t", "s", "Z"],
              _triangle_rows(grid, fld.z))

    if cfg.stochastic:
        r = residual_reduced_pathwise(fld.y, fld.z, cfg.family, phi, grid, ens)
        rr = r.mean(axis=0)
        rr_se = r.std(axis=0, ddof=1) / np.sqrt(ens.n_paths)
        rd = np.full_like(rr, np.nan)
    else:
        f0_prof = f0_profile(cfg.family, grid)
        op = build_delayed_operator(cfg.kernel, cfg.measure, grid)
        rd, _ = residual_delayed(fld.y, f0_prof, op)
        rr, _ = residual_reduced(fld.y, f0_prof, phi, grid)
        rr_se = np.zeros_like(rr)
    write_csv(os.path.join(cfg.out_dir, "residuals.csv"),
              ["t", "residual_delayed", "residual_reduced"],
              zip(nodes, rd, rr))

    rep = norms(fld, cfg.beta)
    write_csv(os.path.join(cfg.out_dir, "norms.csv"),
              ["beta", "H1", "H2", "S2"],
              [(rep.beta, rep.h1, rep.h2, rep.s2)])

    rr_sup = float(np.abs(rr).max())
    rr_se_max = float(rr_se.max())
    print(f"solve: Y(0)={y_mean[0]:.12g} +/- {y_se[0]:.3g}")
    print(f"solve: sup|residual_reduced|={rr_sup:.6e} max SE={rr_se_max:.6e}")
    if ens is not None:
        print(f"solve: mean weight={ens.weights.mean():.12g}")
    print(f"solve: norms H1={rep.h1:.12g} H2={rep.h2:.12g} S2={rep.s2:.12g}")
    write_meta(cfg, "solve", {
        "n_star": psi.n_star,
        "tail_bound": psi.tail_bound,
        "residual_reduced_sup": rr_sup,
        "residual_reduced_se_max": rr_se_max,
        "y0_mean": float(y_mean[0]),
        "y0_se": float(y_se[0]),
    })


def _write_picard_trace(cfg: ExperimentConfig, sup_diffs) -> None:
    write_csv(os.path.join(cfg.out_dir, "picard.csv"),
              ["iteration", "sup_diff"],
              ((i + 1, d) for i, d in enumerate(sup_diffs)))


def _run_oracle(cfg: ExperimentConfig, name: str, solve):
    """Run compare's delayed oracle and write its sweep trace; a diverged
    or stalled run also writes a failure sidecar, then re-raises."""
    try:
        res = solve()
    except (PicardDiverged, PicardStalled) as exc:
        _write_picard_trace(cfg, exc.sup_diffs)
        write_meta(cfg, "compare", {
            f"{name}_iterations": len(exc.sup_diffs),
            f"{name}_converged": False,
            "failure": str(exc),
        })
        print(f"verdict: {name} oracle failed ({exc}); "
              "trace written to picard.csv")
        raise
    _write_picard_trace(cfg, res.sup_diffs)
    return res


def cmd_compare(cfg: ExperimentConfig) -> None:
    grid, phi, psi, drift_fn = _prepare(cfg)
    op = build_delayed_operator(cfg.kernel, cfg.measure, grid)
    nodes = grid.nodes
    dt = grid.dt
    tol_quad = cfg.quad_slack * dt * dt
    pic_cfg = PicardConfig(tolerance=cfg.picard_tol)
    header = ["t", "y_explicit", "y_reduced_oracle", "y_delayed_oracle",
              "res_delayed_explicit", "res_reduced_explicit",
              "res_delayed_oracle", "res_reduced_oracle"]

    if not cfg.stochastic:
        fld, _ = _solve_field(cfg, grid, phi, psi, drift_fn)
        f0_prof = f0_profile(cfg.family, grid)
        y_col = solve_reduced_collocation(f0_prof, phi, grid)
        pic = _run_oracle(cfg, "picard",
                          lambda: solve_delayed_picard(f0_prof, op, pic_cfg))

        rd_exp, rd_exp_sup = residual_delayed(fld.y, f0_prof, op)
        rr_exp, rr_exp_sup = residual_reduced(fld.y, f0_prof, phi, grid)
        rd_pic, rd_pic_sup = residual_delayed(pic.y, f0_prof, op)
        rr_pic, rr_pic_sup = residual_reduced(pic.y, f0_prof, phi, grid)
        rr_col_sup = residual_reduced(y_col, f0_prof, phi, grid)[1]
        gap = float(np.abs(fld.y - pic.y).max())
        gap_col = float(np.abs(fld.y - y_col).max())

        write_csv(os.path.join(cfg.out_dir, "compare.csv"), header,
                  zip(nodes, fld.y, y_col, pic.y, rd_exp, rr_exp, rd_pic,
                      rr_pic))
        tol_fp = max(100.0 * cfg.picard_tol, 1e-12)
        ok = lambda sup, tol: "ok" if sup <= tol else "EXCEEDS"
        print(f"verdict: explicit reduced sup={rr_exp_sup:.3e} "
              f"[{ok(rr_exp_sup, tol_quad)} vs {tol_quad:.3e}]; "
              f"explicit delayed sup={rd_exp_sup:.3e} (reported); "
              f"picard delayed sup={rd_pic_sup:.3e} "
              f"[{ok(rd_pic_sup, tol_fp)} vs {tol_fp:.3e}]; "
              f"picard reduced sup={rr_pic_sup:.3e} (reported); "
              f"collocation reduced sup={rr_col_sup:.3e}; "
              f"sup|explicit-picard|={gap:.3e} "
              f"sup|explicit-collocation|={gap_col:.3e}")
        write_meta(cfg, "compare", {
            "picard_iterations": pic.iterations,
            "picard_converged": True,
            "res_delayed_explicit_sup": rd_exp_sup,
            "res_reduced_explicit_sup": rr_exp_sup,
            "res_delayed_picard_sup": rd_pic_sup,
            "res_reduced_picard_sup": rr_pic_sup,
            "gap_explicit_picard": gap,
            "gap_explicit_collocation": gap_col,
        })
        return

    fld, ens = _solve_field(cfg, grid, phi, psi, drift_fn)
    lsmc = _run_oracle(cfg, "lsmc", lambda: solve_delayed_lsmc(
        cfg.family, cfg.kernel, cfg.measure, op, grid, ens, pic_cfg))
    # Reduced-equation oracle: conditioning the equation on the trivial
    # time-0 sigma-field turns it into a scalar Volterra equation for the
    # expected profile, solved by collocation without Monte Carlo noise.
    fbar0 = np.asarray([float(conditional_F(cfg.family, t, 0.0, ens,
                                            drift_fn)[0]) for t in nodes])
    y_col = solve_reduced_collocation(fbar0, phi, grid)

    y_exp, se_exp = _q_mean_columns(fld.y, ens)
    y_lsmc, se_lsmc = _q_mean_columns(lsmc.y, ens)
    r_exp = residual_reduced_pathwise(fld.y, fld.z, cfg.family, phi, grid, ens)
    r_lsmc = residual_reduced_pathwise(lsmc.y, lsmc.z, cfg.family, phi, grid,
                                       ens)
    rr_exp = r_exp.mean(axis=0)
    rr_lsmc = r_lsmc.mean(axis=0)
    se_r_exp = float((r_exp.std(axis=0, ddof=1) / np.sqrt(ens.n_paths)).max())
    nan_col = np.full_like(rr_exp, np.nan)

    write_csv(os.path.join(cfg.out_dir, "compare.csv"), header,
              zip(nodes, y_exp, y_col, y_lsmc, nan_col, rr_exp, nan_col,
                  rr_lsmc))
    rr_exp_sup = float(np.abs(rr_exp).max())
    rr_lsmc_sup = float(np.abs(rr_lsmc).max())
    gap = float(np.abs(y_exp - y_lsmc).max())
    gap_col = float(np.abs(y_exp - y_col).max())
    se_max = float(np.maximum(se_exp, se_lsmc).max())
    tol = tol_quad + 3.0 * se_max
    ok = "ok" if gap <= tol else "EXCEEDS"
    print(f"verdict: mean reduced residual explicit sup={rr_exp_sup:.3e} "
          f"(SE {se_r_exp:.3e}); lsmc sup={rr_lsmc_sup:.3e}; "
          f"sup|E[Y_explicit]-E[Y_lsmc]|={gap:.3e} [{ok} vs {tol:.3e}]; "
          f"sup|E[Y_explicit]-collocation|={gap_col:.3e}")
    write_meta(cfg, "compare", {
        "lsmc_iterations": lsmc.iterations,
        "res_reduced_explicit_sup": rr_exp_sup,
        "res_reduced_explicit_se_max": se_r_exp,
        "res_reduced_lsmc_sup": rr_lsmc_sup,
        "gap_explicit_lsmc": gap,
        "gap_explicit_collocation": gap_col,
        "se_max": se_max,
    })


def cmd_girsanov_check(cfg: ExperimentConfig) -> None:
    grid = cfg.grid()
    stats = girsanov_report(cfg.measure, cfg.kernel, grid, cfg.n_paths,
                            cfg.seed)
    write_csv(os.path.join(cfg.out_dir, "girsanov.csv"),
              ["statistic", "value", "stderr"], stats)
    for name, value, stderr in stats:
        print(f"girsanov: {name}={value:.12g} +/- {stderr:.3g}")
    write_meta(cfg, "girsanov-check", {
        name: {"value": value, "stderr": stderr}
        for name, value, stderr in stats
    })


def cmd_z_surface(cfg: ExperimentConfig) -> None:
    grid, phi, psi, drift_fn = _prepare(cfg)
    z = solve_Z(cfg.family, phi, psi, drift_fn, grid)
    write_csv(os.path.join(cfg.out_dir, "z_surface.csv"), ["t", "s", "Z"],
              _triangle_rows(grid, z))
    rep = smoothness_diagnostics(z, grid)
    rows = list(_triangle_rows(grid, rep.dzdt))
    rows.append(("integral", "", rep.integral))
    write_csv(os.path.join(cfg.out_dir, "smoothness.csv"),
              ["t", "s", "dZdt"], rows)
    sup_d = float(np.abs(rep.dzdt).max())
    print(f"z-surface: sup|Z|={np.abs(z).max():.12g} sup|dZ/dt|={sup_d:.12g} "
          f"smoothness integral={rep.integral:.12g} finite={rep.finite}")
    write_meta(cfg, "z-surface", {
        "sup_z": float(np.abs(z).max()),
        "sup_dzdt": sup_d,
        "smoothness_integral": rep.integral,
        "finite": rep.finite,
    })


def cmd_norms(cfg: ExperimentConfig) -> None:
    grid, phi, psi, drift_fn = _prepare(cfg)
    fld, _ = _solve_field(cfg, grid, phi, psi, drift_fn)
    rep = norms(fld, cfg.beta)
    write_csv(os.path.join(cfg.out_dir, "norms.csv"),
              ["beta", "H1", "H2", "S2"],
              [(rep.beta, rep.h1, rep.h2, rep.s2)])
    print(f"norms: beta={rep.beta:g} H1={rep.h1:.12g} H2={rep.h2:.12g} "
          f"S2={rep.s2:.12g}")
    write_meta(cfg, "norms", {"beta": rep.beta, "H1": rep.h1, "H2": rep.h2,
                              "S2": rep.s2})


COMMANDS = {
    "resolvent": cmd_resolvent,
    "solve": cmd_solve,
    "compare": cmd_compare,
    "girsanov-check": cmd_girsanov_check,
    "z-surface": cmd_z_surface,
    "norms": cmd_norms,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsvielab",
        description="numerical laboratory for linear backward stochastic "
                    "Volterra equations with time-delayed generators")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None,
                       help="output directory (overrides the config)")
        p.add_argument("--workers", type=int, default=1,
                       help="worker count; results are bitwise independent "
                            "of this value")
        p.add_argument("--seed", type=int, default=None,
                       help="override mc.seed from the config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        print("config error: --workers must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_config_file(args.config, args.seed, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(cfg.out_dir, exist_ok=True)
    try:
        COMMANDS[args.command](cfg)
    except QuadratureError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _CONVERGENCE_ERRORS as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except DegenerateWeights as exc:
        print(f"degenerate weights: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
