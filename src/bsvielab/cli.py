"""Command-line harness around the solvers.

Commands
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
    expect_q_blocks, girsanov_report, sample_paths
from .kernels import SingularStep, ToleranceUnreachable, build_phi, \
    example33_reference, identity_residual, resolvent, sup_abs
from .oracles import PicardFailed, RegressionIllConditioned, \
    build_delayed_operator, residual_delayed, residual_reduced, \
    residual_reduced_pathwise, solve_delayed_lsmc, solve_delayed_picard, \
    solve_reduced_collocation
from .solver import mean_Y, norm_columns, norm_report, \
    smoothness_diagnostics, solve_Y_blocks, solve_Z
from .terminal import QuadratureError, is_stochastic, mean_profile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_DEGENERATE = 4

_CONVERGENCE_ERRORS = (ToleranceUnreachable, PicardFailed, SingularStep,
                       RegressionIllConditioned)


CELL = "%.12g"  # the format of every float cell of every CSV written
# write_triangle lays out at most this many lines at once, in whole rows
CHUNK_LINES = 2048


def _cells(n: int) -> str:
    return ",".join([CELL] * n)


def _labelled(labelled) -> str:
    return "".join(",".join([*label, _cells(len(values)) % tuple(values)])
                   + "\n" for label, values in labelled)


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
        fh.write(_labelled(labelled))


class _CellCache:
    """The ",%.12g" text of each distinct 64-bit pattern, formatted once
    and found by open addressing: a multiplicative hash, linear probing
    and int32 slots, each an entry of keys and text or 0 when free.  Entry
    1 is +0.0, entered at its home slot 0, and entry 0 repeats it, so a
    free slot read as entry 0 matches +0.0 alone, with its own text."""

    def __init__(self):
        self.keys, self.text = np.zeros(2, np.uint64), np.array([b",0"] * 2)
        self.slots = np.zeros(1 << 12, np.int32)
        self.slots[0] = 1

    def _home(self, keys):
        at = keys * np.uint64(0x9E3779B97F4A7C15)
        at >>= np.uint64(65 - len(self.slots).bit_length())
        return at.view(np.int64)

    def _enter(self, keys, at, n):
        """Enter the absent patterns keys, equal ones with equal at, from
        slots at on as entries n, n + 1, ...: (each one's entry, the
        distinct keys in entry order).  A free slot is claimed as -1 - p
        by position p; equal keys share the claim."""
        mask, p = len(self.slots) - 1, np.arange(len(keys))
        own, slot, pk = p.copy(), at.copy(), keys
        while len(p):
            free = self.slots.take(at) == 0
            self.slots[at[free]] = -1 - p[free]
            q = -1 - self.slots.take(at)
            done = (q >= 0) & (keys.take(q, mode="clip") == pk)
            own[p[done]], slot[p[done]] = q[done], at[done]
            p, pk, at = p[~done], pk[~done], (at[~done] + 1) & mask
        first = own == np.arange(len(keys))
        ids = np.cumsum(first, dtype=np.int32) + np.int32(n - 1)
        self.slots[slot[first]] = ids[first]
        return ids.take(own), keys[first]

    def find(self, v, most):
        """The entries of the patterns v, new ones formatted and entered;
        None, entering none, if over the share most of v are distinct new
        patterns."""
        at, mask = self._home(v), len(self.slots) - 1
        s = self.slots.take(at)
        miss = np.flatnonzero(self.keys.take(s) != v)
        todo = miss[s[miss] != 0]
        while len(todo):  # on another pattern's slot: probe on
            at[todo] = (at[todo] + 1) & mask
            s[todo] = self.slots.take(at[todo])
            todo = todo[(s[todo] != 0) & (self.keys.take(s[todo]) != v[todo])]
        new = miss[s[miss] == 0]
        if len(new) > most * len(v) and \
                len(set(v[new].tolist())) > most * len(v):
            return None
        if len(new):
            n = len(self.keys)
            if 2 * (n + len(new)) > len(self.slots):  # rehash, load < 1/3
                self.slots = np.zeros(1 << (3 * (n + len(new))).bit_length(),
                                      np.int32)
                for lo in range(1, n, CHUNK_LINES):  # in blocks: less memory
                    keys = self.keys[lo:lo + CHUNK_LINES]
                    self._enter(keys, self._home(keys), lo)
                at[new] = self._home(v[new])
            s[new], key = self._enter(v[new], at[new], n)
            self.keys = np.concatenate([self.keys, key])
            self.text = np.concatenate([self.text, np.array(
                [("," + CELL) % x for x in key.view(float).tolist()], "S")])
        return s


def _chunk(nodes, heads, text, at, i, e):
    """Grid rows i..e-1 as lines t_i,s_j,cells (j >= i; surface c's cells
    text[at[c]]), one table of per-field widths less its NUL padding."""
    k, n1 = len(at), len(nodes)
    buf = bytearray(at.shape[1] * (nodes.itemsize + heads.itemsize + 1
                                   + k * text.itemsize))
    tab = np.frombuffer(buf, [("t", nodes.dtype), ("s", heads.dtype),
                              ("c", text.dtype, (k,)), ("n", "S1")])
    tab["t"] = np.repeat(nodes[i:e], n1 - np.arange(i, e))
    tab["s"] = np.concatenate([heads[r:] for r in range(i, e)])
    tab["n"] = b"\n"
    for c in range(k):
        tab["c"][:, c] = text.take(at[c])
    return buf.translate(None, b"\0")


def write_triangle(path: str, header: list[str], grid, *surfaces,
                   labelled=()) -> None:
    """Write ``header``, one row (t_i, s_j, each surface at [i, j]) per
    grid pair i <= j in row-major order, then the ``labelled`` rows as
    write_csv does; the bytes are those of write_csv on the stacked rows.
    When every surface is +0.0 on i <= j (all bits zero, read in place, by
    rows unless the whole table is) each cell is "0".  Else the cells of
    whole rows, at most CHUNK_LINES lines (or one row) at a time, are
    looked up at once in a _CellCache (a kernel of s - t repeats its
    values) and laid out by _chunk, until the first chunk has over 2/3 of
    its cells distinct (new) patterns, or a later one over 1/4.  Each row
    from there, and of a zero table, is one format call (a join when
    zero) on t_i's line tails."""
    bits = [s.view(np.uint64) for s in surfaces]
    zero = not any(b.any() and any(b[i, i:].any() for i in range(len(b)))
                   for b in bits)
    k, n1 = len(surfaces), grid.n + 1
    node_cells = [CELL % x for x in grid.nodes.tolist()]
    cache = None if zero else _CellCache()
    if cache:
        nodes, heads = (np.array([p + s for s in node_cells], "S")
                        for p in ("", ","))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        i = 0
        while cache and i < n1:
            e, lines = i + 1, n1 - i
            while e < n1 and lines + n1 - e <= CHUNK_LINES:
                e, lines = e + 1, lines + n1 - e
            at = cache.find(np.concatenate(
                [b[r, r:] for b in bits for r in range(i, e)]),
                2 / 3 if i == 0 else 1 / 4)
            if at is None:
                break
            fh.write(_chunk(nodes, heads, cache.text, at.reshape(k, -1), i, e))
            i = e
        tails = ["," + s + ("," + ("0" if zero else CELL)) * k + "\n"
                 for s in node_cells] if i < n1 else []
        for r in range(i, n1):
            row = node_cells[r].join(["", *tails[r:]])
            if not zero:
                row %= tuple(np.column_stack(
                    [s[r, r:] for s in surfaces]).ravel().tolist())
            fh.write(row.encode())
        fh.write(_labelled(labelled).encode())


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
    """Resolvent (which holds Phi and the grid), drift and, if asked for,
    the delayed operator (None otherwise): the command's one set of
    tables.  build_phi and build_delayed_operator read the spec's one
    evaluation, gen.node_table, dropped once they have."""
    gen = cfg.generator
    phi = build_phi(gen)
    # under a declared bound L overflows only with Psi, which resolvent reports
    with np.errstate(over="ignore", invalid="ignore"):
        op = build_delayed_operator(gen) if operator else None
    gen.drop_node_table()
    return resolvent(phi, cfg.resolvent_tol), drift(gen), op


def cmd_resolvent(cfg: ExperimentConfig) -> None:
    psi = _prepare(cfg)[0]
    grid, phi = psi.grid, psi.phi
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


def _solve_field(cfg: ExperimentConfig, psi, drift_fn,
                 residual: bool = False):
    """Explicit Z from psi's phi, the ensemble (None for a deterministic
    family), Y and the norms: (z, ens, y, norms report), y the pair
    (fbar0, Y) of a deterministic family, f0 read once into fbar0 =
    mean_profile and Y = mean_Y(fbar0), compare's explicit mean, taken
    before Z (mean_Y's weighted Psi and Z are not held at once), else the
    (means, SEs) of _path_moments."""
    fam, grid = cfg.family, psi.grid
    if not is_stochastic(fam):
        fbar0 = mean_profile(fam, drift_fn)
        y = mean_Y(fbar0, psi)
        with np.errstate(over="ignore", invalid="ignore"):
            means = norm_columns(y[:, None], grid, cfg.beta)[:, 0]
        z = solve_Z(fam, psi, drift_fn)
        return z, None, (fbar0, y), _finite_norms(means, z, grid, cfg.beta)
    z = solve_Z(fam, psi, drift_fn)
    ens = sample_paths(cfg.n_paths, cfg.seed, cfg.mode, drift_fn)
    moments = _path_moments(cfg, psi, z, ens, residual)
    return z, ens, moments, _finite_norms(moments[0][-2:], z, grid,
                                          cfg.beta)


def _path_moments(cfg: ExperimentConfig, psi, z, ens, residual: bool):
    """(means, SEs) over the ensemble's paths, from one pass over its
    blocks in one set of block_buffers: with residual, the rows Y
    (solve_Y_blocks) and R (residual_reduced_pathwise), then Y's two
    norm_columns rows, a stack formed in place, node-major, reduced by
    expect_q_blocks per block; one scratch table takes F, R's products,
    then Y's weighted square.  exp(beta t) may overflow here."""
    grid, fam, n1 = psi.grid, cfg.family, psi.grid.n + 1
    rows = 2 * n1 if residual else 0
    bufs = ens.block_buffers(rows + 2 + (0 if residual else n1) + n1)
    views = lambda lo, hi=None: tuple((p, out[lo:hi]) for p, out in bufs)
    y_at, scratch = 0 if residual else 2, views(-n1)
    ys = solve_Y_blocks(fam, psi, ens, views(y_at, y_at + n1))
    pairs = residual_reduced_pathwise(ys, z, fam, psi.phi, ens,
                                      views(n1, rows), scratch) \
        if residual else ((y, None) for y in ys)

    def stacked():
        for (part, out), (_, work), (y, _) in zip(bufs, scratch, pairs):
            norm_columns(y, grid, cfg.beta, out[rows:rows + 2], work)
            yield part, out[:rows + 2]

    with np.errstate(over="ignore", invalid="ignore"):
        return expect_q_blocks(ens, stacked(), slice(rows))


def _weight_meta(ens) -> dict:
    """ESS and smallest weight of a mode-P ensemble; no keys otherwise."""
    w = ens.weights if ens is not None and ens.tag == "P" else None
    return {} if w is None else {"ess": effective_sample_size(w),
                                 "min_weight": float(w.min())}


def _finite_norms(means, z, grid, beta: float):
    """norm_report(means, z, grid, beta); ConfigError when exp(beta t)
    makes one of its norms overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        rep = norm_report(means, z, grid, beta)
    if not np.isfinite([rep.h1, rep.h2, rep.s2]).all():
        raise ConfigError(f"beta: the weighted norms overflow "
                          f"(beta={rep.beta}, H1={rep.h1}, H2={rep.h2}, "
                          f"S2={rep.s2})")
    return rep


def cmd_solve(cfg: ExperimentConfig) -> None:
    psi, drift_fn, op = _prepare(cfg, operator=not is_stochastic(cfg.family))
    grid, phi = psi.grid, psi.phi
    z, ens, y, rep = _solve_field(cfg, psi, drift_fn, residual=True)
    nodes, n1 = grid.nodes, grid.n + 1

    if ens is not None:
        mean, se = y
        y_mean, rr, y_se, rr_se = mean[:n1], mean[n1:2 * n1], se[:n1], se[n1:]
        rd = np.full_like(rr, np.nan)
    else:
        fbar0, y_mean = y
        y_se = np.zeros_like(y_mean)
        rd, _ = residual_delayed(y_mean, fbar0, op)
        del op  # L is read by nothing after the delayed residual
        rr, _ = residual_reduced(y_mean, fbar0, phi)
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
    psi, drift_fn, op = _prepare(cfg, operator=True)
    grid, phi = psi.grid, psi.phi
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
            cfg.family, op, ens, cfg.picard_tol))
        # the LSMC mean's noise is its targets' spread (the fitted Y(0) is
        # one constant); its Z slopes, not reported, are never fitted
        y_orc = lsmc.mean
        se_max = float(lsmc.se.max())
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
    # exp(W(T)) overflows on a path once T is long, and the report refuses it
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
    psi, drift_fn, _ = _prepare(cfg)
    z = solve_Z(cfg.family, psi, drift_fn)
    write_triangle(os.path.join(cfg.out_dir, "z_surface.csv"),
                   ["t", "s", "Z"], psi.grid, z)
    rep = smoothness_diagnostics(z, psi.grid)
    write_triangle(os.path.join(cfg.out_dir, "smoothness.csv"),
                   ["t", "s", "dZdt"], psi.grid, rep.dzdt,
                   labelled=[(("integral", ""), (rep.integral,))])
    sup_z, sup_d = sup_abs(z), sup_abs(rep.dzdt)
    print(f"z-surface: sup|Z|={sup_z:.12g} sup|dZ/dt|={sup_d:.12g} "
          f"smoothness integral={rep.integral:.12g} finite={rep.finite}")
    write_meta(cfg, "z-surface", {
        "sup_z": sup_z,
        "sup_dzdt": sup_d,
        "smoothness_integral": rep.integral,
        "finite": rep.finite,
    })


def cmd_norms(cfg: ExperimentConfig) -> None:
    psi, drift_fn, _ = _prepare(cfg)
    _, ens, _, rep = _solve_field(cfg, psi, drift_fn)
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
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides the config)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker count; results are bitwise independent "
                             "of this value")
    parser.add_argument("--seed", type=int, default=None,
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
