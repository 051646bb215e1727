"""Command-line harness around the solvers.

Subcommands
    resolvent       kernel + resolvent tables, identity residual, sharp tail
    solve           explicit (Y, Z), residuals, norms
    compare         explicit mean vs independent oracles, verdict line
    girsanov-check  measure-change cross-checks
    z-surface       Z table and smoothness diagnostics
    norms           weighted solution norms only

Every command reads one config file, writes CSV outputs plus a
``<command>.meta.json`` sidecar into the output directory, and prints a
short report.  compare sets the explicit mean E^Q[Y], taken from the
mean profile E^Q[F | F_0] by the tower property, against collocation on
that profile and a delayed oracle: Picard on the profile, or on Monte
Carlo runs the LSMC, whose mean's own noise is the verdict's SE.
Outputs contain no timestamps and the computation never depends on
``--workers``, so identical configs produce byte-identical files across
runs and worker counts.

Exit codes: 0 success, 2 configuration or validation failure or an
output that cannot be written, 3 convergence failure or resolvent
overflow, 4 degenerate importance weights.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config_file
from .girsanov import DegenerateWeights, drift, effective_sample_size, \
    expect_q_columns, girsanov_report, sample_paths
from .kernels import SingularStep, ToleranceUnreachable, build_phi, \
    example33_reference, identity_residual, resolvent
from .oracles import PicardFailed, RegressionIllConditioned, \
    build_delayed_operator, residual_delayed, residual_reduced, \
    residual_reduced_pathwise, solve_delayed_lsmc, solve_delayed_picard, \
    solve_reduced_collocation
from .solver import mean_Y, norms, smoothness_diagnostics, solve_Y, \
    solve_Z
from .terminal import QuadratureError, evaluate_F_table, is_stochastic, \
    mean_profile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_DEGENERATE = 4

_CONVERGENCE_ERRORS = (ToleranceUnreachable, PicardFailed, SingularStep,
                       RegressionIllConditioned)


CELL = "%.12g"  # the format of every float cell of every CSV written


def _cells(n: int) -> str:
    return ",".join([CELL] * n)


def _write_labelled(fh, labelled) -> None:
    for label, values in labelled:
        fh.write(",".join([*label, _cells(len(values)) % tuple(values)]) + "\n")


def write_csv(path: str, header: list[str], table, *, labelled=()) -> None:
    """Write ``header``, the rows of the float ``table`` (a 2-D array, or
    an iterable of equal-length rows), then one line per ``(label,
    values)`` of ``labelled``: the label's cells as given, then the values.
    Every float is written as CELL (``%.12g``), the whole table with one
    format call; the tables it gets have at most max(N+1, 200) rows.  The
    triangle tables t <= s go through write_triangle.  The package passes
    arrays; a traced benchmark run counts the rows through a generator
    (perfbench/tracer.py)."""
    if not isinstance(table, np.ndarray):
        table = np.array(list(table), dtype=float)
    fmt = _cells(table.shape[-1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((fmt * len(table)) % tuple(table.ravel().tolist()))
        _write_labelled(fh, labelled)


def _all_plus_zero(values: np.ndarray) -> bool:
    """True when every value is +0.0 (-0.0 and nan are not)."""
    return not values.any() and not np.signbit(values).any()


def write_triangle(path: str, header: list[str], grid, *surfaces,
                   labelled=()) -> None:
    """Write ``header``, one row (t_i, s_j, each surface at [i, j]) per
    grid pair i <= j in row-major order, then the ``labelled`` rows as
    write_csv does; the bytes are those of write_csv on the stacked rows.
    The node cells are formatted once, into one line tail ",s_j,<cells>\\n"
    per node j, whose cells are one CELL per surface, or "0" per surface
    when every surface is +0.0 on i <= j.  Grid row i is one join of t_i
    with the tails j >= i and, unless the set is all +0.0, one format call
    with the row's values; one grid row of the file is held at a time."""
    zero = all(_all_plus_zero(np.triu(s)) for s in surfaces)
    cells = ("," + ("0" if zero else CELL)) * len(surfaces) + "\n"
    node_cells = [CELL % x for x in grid.nodes.tolist()]
    tails = ["," + s + cells for s in node_cells]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i, t in enumerate(node_cells):
            row = t.join(["", *tails[i:]])
            if not zero:
                row %= tuple(np.column_stack(
                    [s[i, i:] for s in surfaces]).ravel().tolist())
            fh.write(row)
        _write_labelled(fh, labelled)


def write_meta(cfg: ExperimentConfig, command: str, extra: dict) -> None:
    payload = {
        "command": command,
        "config_sha256": cfg.sha256,
        "horizon": cfg.generator.grid.horizon,
        "grid_n": cfg.generator.grid.n,
        "paths": cfg.n_paths,
        "seed": cfg.seed,
        "mode": cfg.mode,
    }
    payload.update(extra)
    name = command.replace("-", "_") + ".meta.json"
    with open(os.path.join(cfg.out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare(cfg: ExperimentConfig, operator: bool = False):
    """Grid, kernel table, resolvent, drift and, if asked for, the delayed
    operator (None otherwise): the command's one set of tables.  The spec
    is evaluated once on the node square; Phi and the operator both read
    that table, which is dropped before the resolvent is solved."""
    gen = cfg.generator
    spec_table = gen.spec_at(gen.grid.nodes)
    phi = build_phi(gen, spec_table)
    # under a declared bound L overflows only with Psi, which resolvent reports
    with np.errstate(over="ignore", invalid="ignore"):
        op = build_delayed_operator(gen, spec_table) if operator else None
    del spec_table
    psi = resolvent(phi, cfg.resolvent_tol)
    return gen.grid, phi, psi, drift(gen), op


def cmd_resolvent(cfg: ExperimentConfig) -> None:
    grid, phi, psi, _, _ = _prepare(cfg)
    residual = identity_residual(psi)
    write_triangle(os.path.join(cfg.out_dir, "resolvent.csv"),
                   ["t", "s", "phi", "psi"], grid, phi.values, psi.values)
    tail = "n/a" if psi.tail_bound is None else f"{psi.tail_bound:.6e}"
    print(f"resolvent: residual={residual:.6e} "
          f"n_star={'n/a' if psi.n_star is None else psi.n_star} "
          f"tail_bound={tail} "
          f"sup|Phi|={phi.sup_norm:.12g} sup|Psi|={psi.sup_norm:.12g}")
    extra = {
        "identity_residual": residual,
        "n_star": psi.n_star,
        "tail_bound": psi.tail_bound,
        "sup_psi": psi.sup_norm,
    }
    if cfg.generator.kernel.name == "example33":
        t = grid.horizon
        num = float(psi.values[0, -1])
        derived = float(example33_reference("derived")(t))
        quoted = float(example33_reference("quoted")(t))
        print(f"example33 resolvent at (t,s)=(0,{t:g}): "
              f"numeric={num:.12g} derived-closed-form={derived:.12g} "
              f"quoted-closed-form={quoted:.12g}")
        print(f"example33 gaps: |numeric-derived|={abs(num - derived):.6e} "
              f"|numeric-quoted|={abs(num - quoted):.6e}")
        extra.update({"example33_numeric": num, "example33_derived": derived,
                      "example33_quoted": quoted})
    write_meta(cfg, "resolvent", extra)


def _solve_field(cfg: ExperimentConfig, psi, drift_fn):
    """Explicit (Y, Z) from psi and its phi, plus the ensemble (or None)."""
    ens = sample_paths(cfg.n_paths, cfg.seed, cfg.mode, drift_fn) \
        if is_stochastic(cfg.family) else None
    y = solve_Y(cfg.family, psi, ens)
    return y, solve_Z(cfg.family, psi, drift_fn), ens


def _weight_meta(ens) -> dict:
    """ESS and smallest weight of a mode-P ensemble; no keys otherwise."""
    w = ens.weights if ens is not None and ens.tag == "P" else None
    return {} if w is None else {"ess": effective_sample_size(w),
                                 "min_weight": float(w.min())}


def _finite_norms(y, z, grid, ens, beta: float):
    """norms(y, z, grid, ens, beta); ConfigError when exp(beta t) makes one
    overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        rep = norms(y, z, grid, ens, beta)
    if not np.isfinite([rep.h1, rep.h2, rep.s2]).all():
        raise ConfigError(f"beta: the weighted norms overflow (beta={beta}, "
                          f"H1={rep.h1}, H2={rep.h2}, S2={rep.s2})")
    return rep


def cmd_solve(cfg: ExperimentConfig) -> None:
    grid, phi, psi, drift_fn, op = _prepare(
        cfg, operator=not is_stochastic(cfg.family))
    y, z, ens = _solve_field(cfg, psi, drift_fn)
    rep = _finite_norms(y, z, grid, ens, cfg.beta)
    nodes = grid.nodes

    if ens is not None:
        y_mean, y_se = expect_q_columns(ens, y)
        f_vals = evaluate_F_table(cfg.family, ens)
        r = residual_reduced_pathwise(y, z, f_vals, phi, ens)
        rr, rr_se = expect_q_columns(ens, r)
        rd = np.full_like(rr, np.nan)
    else:
        y_mean, y_se = y, np.zeros_like(y)
        fbar0 = mean_profile(cfg.family, drift_fn)
        rd, _ = residual_delayed(y, fbar0, op)
        rr, _ = residual_reduced(y, fbar0, phi)
        rr_se = np.zeros_like(rr)
    write_csv(os.path.join(cfg.out_dir, "solution.csv"),
              ["t", "Y_mean", "Y_se"], np.column_stack([nodes, y_mean, y_se]))
    write_triangle(os.path.join(cfg.out_dir, "z_surface.csv"),
                   ["t", "s", "Z"], grid, z)
    write_csv(os.path.join(cfg.out_dir, "residuals.csv"),
              ["t", "residual_delayed", "residual_reduced"],
              np.column_stack([nodes, rd, rr]))
    _write_norms(cfg, rep)

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
        **_weight_meta(ens),
    })


def _write_norms(cfg: ExperimentConfig, rep) -> None:
    write_csv(os.path.join(cfg.out_dir, "norms.csv"),
              ["beta", "H1", "H2", "S2"],
              np.array([[rep.beta, rep.h1, rep.h2, rep.s2]]))


def _write_picard_trace(cfg: ExperimentConfig, sup_diffs) -> None:
    write_csv(os.path.join(cfg.out_dir, "picard.csv"),
              ["iteration", "sup_diff"],
              np.column_stack([np.arange(1, len(sup_diffs) + 1), sup_diffs]))


def _run_oracle(cfg: ExperimentConfig, name: str, solve):
    """Run compare's delayed oracle and write its sweep trace; a diverged
    or stalled run also writes a failure sidecar, then re-raises."""
    try:
        res = solve()
    except PicardFailed as exc:
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
    grid, phi, psi, drift_fn, op = _prepare(cfg, operator=True)
    tol_quad = cfg.quad_slack * grid.dt * grid.dt
    # Conditioned on the trivial F_0 the explicit route and the reduced
    # equation see only the expected profile Fbar: the explicit mean by
    # the tower property, the reduced equation as a scalar Volterra
    # equation solved by collocation, neither with Monte Carlo noise.
    fbar0 = mean_profile(cfg.family, drift_fn)
    y = mean_Y(fbar0, psi)
    y_col = solve_reduced_collocation(fbar0, phi)

    ens = sample_paths(cfg.n_paths, cfg.seed, cfg.mode, drift_fn) \
        if is_stochastic(cfg.family) else None
    if ens is None:
        pic = _run_oracle(cfg, "picard", lambda: solve_delayed_picard(
            fbar0, op, cfg.picard_tol))
        y_orc = pic.y
        rd_exp, rd_exp_sup = residual_delayed(y, fbar0, op)
        rd_orc, rd_orc_sup = residual_delayed(y_orc, fbar0, op)
    else:
        lsmc = _run_oracle(cfg, "lsmc", lambda: solve_delayed_lsmc(
            evaluate_F_table(cfg.family, ens), op, ens, cfg.picard_tol))
        y_orc = expect_q_columns(ens, lsmc.y)[0]
        # the noise of the LSMC mean is the spread of its targets; the
        # fitted Y(0) is one constant on every path
        se_max = float(expect_q_columns(ens, lsmc.y_targets)[1].max())
        rd_exp = rd_orc = np.full_like(y, np.nan)
    rr_exp, rr_exp_sup = residual_reduced(y, fbar0, phi)
    rr_orc, rr_orc_sup = residual_reduced(y_orc, fbar0, phi)
    gap = float(np.abs(y - y_orc).max())
    gap_col = float(np.abs(y - y_col).max())
    write_csv(os.path.join(cfg.out_dir, "compare.csv"),
              ["t", "y_explicit", "y_reduced_oracle", "y_delayed_oracle",
               "res_delayed_explicit", "res_reduced_explicit",
               "res_delayed_oracle", "res_reduced_oracle"],
              np.column_stack([grid.nodes, y, y_col, y_orc, rd_exp, rr_exp,
                               rd_orc, rr_orc]))

    ok = lambda sup, tol: "ok" if sup <= tol else "EXCEEDS"
    if ens is None:
        tol_fp = max(100.0 * cfg.picard_tol, 1e-12)
        rr_col_sup = residual_reduced(y_col, fbar0, phi)[1]
        print(f"verdict: explicit reduced sup={rr_exp_sup:.3e} "
              f"[{ok(rr_exp_sup, tol_quad)} vs {tol_quad:.3e}]; "
              f"explicit delayed sup={rd_exp_sup:.3e} (reported); "
              f"picard delayed sup={rd_orc_sup:.3e} "
              f"[{ok(rd_orc_sup, tol_fp)} vs {tol_fp:.3e}]; "
              f"picard reduced sup={rr_orc_sup:.3e} (reported); "
              f"collocation reduced sup={rr_col_sup:.3e}; "
              f"sup|explicit-picard|={gap:.3e} "
              f"sup|explicit-collocation|={gap_col:.3e}")
        meta = {"picard_iterations": pic.iterations,
                "picard_converged": True,
                "res_delayed_explicit_sup": rd_exp_sup,
                "res_delayed_picard_sup": rd_orc_sup,
                "res_reduced_picard_sup": rr_orc_sup,
                "gap_explicit_picard": gap}
    else:
        tol = tol_quad + 3.0 * se_max
        print(f"verdict: mean reduced residual explicit sup={rr_exp_sup:.3e}; "
              f"lsmc sup={rr_orc_sup:.3e}; "
              f"sup|E[Y_explicit]-E[Y_lsmc]|={gap:.3e} "
              f"[{ok(gap, tol)} vs {tol:.3e}]; "
              f"sup|E[Y_explicit]-collocation|={gap_col:.3e}")
        meta = {"lsmc_iterations": lsmc.iterations,
                "lsmc_max_gram_cond": lsmc.max_gram_cond,
                "res_reduced_lsmc_sup": rr_orc_sup,
                "gap_explicit_lsmc": gap,
                "se_max": se_max,
                **_weight_meta(ens)}
    write_meta(cfg, "compare", {**meta,
                                "res_reduced_explicit_sup": rr_exp_sup,
                                "gap_explicit_collocation": gap_col})


def cmd_girsanov_check(cfg: ExperimentConfig) -> None:
    b = drift(cfg.generator)
    # exp(W(T)) overflows on a path once T is long, and expect_q refuses it
    with np.errstate(over="ignore"):
        try:
            stats = girsanov_report(b, cfg.n_paths, cfg.seed)
        except ValueError as exc:
            raise ConfigError(f"horizon: exp(W(T)) is not finite on every "
                              f"path (horizon={b.grid.horizon}): {exc}") from None
    write_csv(os.path.join(cfg.out_dir, "girsanov.csv"),
              ["statistic", "value", "stderr"], np.empty((0, 3)),
              labelled=[((name,), (value, stderr))
                        for name, value, stderr in stats])
    for name, value, stderr in stats:
        print(f"girsanov: {name}={value:.12g} +/- {stderr:.3g}")
    write_meta(cfg, "girsanov-check", {
        name: {"value": value, "stderr": stderr}
        for name, value, stderr in stats
    })


def cmd_z_surface(cfg: ExperimentConfig) -> None:
    grid, _, psi, drift_fn, _ = _prepare(cfg)
    z = solve_Z(cfg.family, psi, drift_fn)
    write_triangle(os.path.join(cfg.out_dir, "z_surface.csv"),
                   ["t", "s", "Z"], grid, z)
    rep = smoothness_diagnostics(z, grid)
    write_triangle(os.path.join(cfg.out_dir, "smoothness.csv"),
                   ["t", "s", "dZdt"], grid, rep.dzdt,
                   labelled=[(("integral", ""), (rep.integral,))])
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
    grid, _, psi, drift_fn, _ = _prepare(cfg)
    y, z, ens = _solve_field(cfg, psi, drift_fn)
    rep = _finite_norms(y, z, grid, ens, cfg.beta)
    _write_norms(cfg, rep)
    print(f"norms: beta={rep.beta:g} H1={rep.h1:.12g} H2={rep.h2:.12g} "
          f"S2={rep.s2:.12g}")
    write_meta(cfg, "norms", {"beta": rep.beta, "H1": rep.h1, "H2": rep.h2,
                              "S2": rep.s2, **_weight_meta(ens)})


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
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        COMMANDS[args.command](cfg)
    except OSError as exc:  # the commands read nothing: an output failed
        path = cfg.out_dir if exc.filename is None else exc.filename
        print(f"config error: cannot write output {path}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, QuadratureError) as exc:
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
