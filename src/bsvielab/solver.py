"""Explicit solution formulas: Y from the resolvent, the Z surface,
smoothness and norm diagnostics.

Everything here evaluates closed-form conditional expectations and
deterministic quadratures; the Monte Carlo element is only the ensemble of
conditioning paths.  The independent numerical solvers that validate these
formulas live in oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .girsanov import DriftFunction, PathEnsemble, expect_q_columns
from .kernels import ResolventTable, TriangularGrid, same_grid, \
    tail_weight_matrix, tail_weighted, trapezoid_weights
from .terminal import GaussianLinear, TerminalFamily, TerminalFunction, \
    conditional_sweep, f0_profile, gaussian_linear_conditionals, \
    is_stochastic, malliavin_table


class UnsupportedFamily(ValueError):
    """Family object not one of the three supported variants."""


@dataclass(frozen=True)
class NormReport:
    beta: float
    h1: float
    h2: float
    s2: float


def solve_Y(fam: TerminalFamily, psi: ResolventTable,
            ensemble: Optional[PathEnsemble] = None) -> np.ndarray:
    """Y(t) = E^Q[F(t) | F_t] + int_t^T Psi(t,r) E^Q[F(r) | F_t] dr.

    Deterministic families need no ensemble and produce a single profile
    (N+1,); stochastic families evaluate the formula path by path, the
    prefix up to t supplying the conditioning information, on the grid
    and under the drift of the ensemble: an (M, N+1) table, whose node
    means under Q girsanov.expect_q_columns takes.  GaussianLinear Y is
    affine in dW: with (c, phi) from gaussian_linear_conditionals,
    Y = diag(mean_Y(c)) + dW tril(mean_Y(phi), -1)^T, one (M x N) .
    (N x (N+1)) product, by PathEnsemble.dw_times with no dW table.  A
    terminal function takes the step row by row, Y(t_i) = C_i[i] + A[i]
    C_i with A = Psi * trap (mean_Y(C_i) would cost (N+1) M per node),
    and A[i] C_i = (sum_a A[i, a]) C_i when h ignores t;
    the steps fill contiguous node-major rows, transposed once at the end
    into the same C-ordered (M, N+1) table.
    """
    if not is_stochastic(fam):
        return mean_Y(f0_profile(fam, psi.grid), psi)
    if ensemble is None:
        raise ValueError("stochastic family needs an ensemble")
    grid = same_grid(psi, ensemble)

    if isinstance(fam, GaussianLinear):
        c, phimat = gaussian_linear_conditionals(fam, ensemble.drift_fn)
        y = ensemble.dw_times(np.tril(mean_Y(phimat, psi), -1).T)
        y += np.diagonal(mean_Y(c, psi))
        return y

    yt = np.empty((grid.n + 1, ensemble.n_paths))  # node-major rows
    a = tail_weighted(grid, psi.values)
    a_sum = a.sum(axis=1)
    for i, c in conditional_sweep(fam, ensemble):
        if fam.t_dependent:
            yt[i] = c[i] + a[i] @ c
        else:  # every row of c is C_i: A[i] c = (sum_a A[i, a]) C_i
            yt[i] = c[i] + a_sum[i] * c[i]
    return np.ascontiguousarray(yt.T)


def mean_Y(x: np.ndarray, psi: ResolventTable) -> np.ndarray:
    """The resolvent step I + A, A = Psi * trap, along the first axis of a
    profile or table x.  On Fbar = E^Q[F | F_0] (terminal.mean_profile) it
    is E^Q[Y], by the tower property E^Q[E^Q[F(r) | F_t]] = Fbar(r), with
    no paths; for a deterministic family it is Y itself."""
    return x + tail_weighted(psi.grid, psi.values) @ x


def solve_Z(fam: TerminalFamily, psi: ResolventTable,
            drift_fn: DriftFunction) -> np.ndarray:
    """Z(t,s) = E^Q[D_s F(t) + int_s^T Phi(t,r) D_s Y(r) dr | F_s].

    One formula for both stochastic families.  D_s commutes with the
    conditionals of Y for s <= r, so by the tower property
    E^Q[D_s Y(r) | F_s] = d(r,s) + int_r^T Psi(r,v) d(v,s) dv, mean_Y of
    d(v,s) = E^Q[D_s F(v) | F_s], the family's malliavin_table anchored
    at W(s) = terminal.Z_REF_STATE.  Deterministic families carry no
    martingale part: the zero surface is returned without computation.
    The second Malliavin term, -U(t) int D_s g dW^Q, vanishes because g
    is deterministic.  Phi is psi.phi, the table psi was solved from; psi
    and the drift are built apart, so GridMismatch unless on one grid.
    """
    grid = same_grid(psi, drift_fn)
    n = grid.n
    if not is_stochastic(fam):
        return np.zeros((n + 1, n + 1))
    if not isinstance(fam, (GaussianLinear, TerminalFunction)):
        raise UnsupportedFamily(f"unknown family {type(fam).__name__}")

    d = malliavin_table(fam, drift_fn)
    dy = mean_Y(d, psi)
    trap = tail_weight_matrix(grid)
    # trap.T weighs r in int_{s_j}^T and is zero for r < s_j
    z = d + psi.phi.values @ (trap.T * dy)
    return np.triu(z)


@dataclass
class SmoothnessReport:
    dzdt: np.ndarray
    integral: float
    finite: bool


def smoothness_diagnostics(z: np.ndarray, grid: TriangularGrid) -> SmoothnessReport:
    """Finite differences of Z in t and the double integral of their square.

    Central differences where both neighbours stay inside the triangle,
    one-sided at the t = 0 and t = s edges; the reported integral is the
    trapezoid value of int_0^T int_t^T (dZ/dt)^2 ds dt.
    """
    n, dt = grid.n, grid.dt
    d = np.gradient(z, dt, axis=0)
    diag = np.arange(1, n + 1)
    d[diag, diag] = (z[diag, diag] - z[diag - 1, diag]) / dt
    d = np.triu(d)
    d[0, 0] = 0.0
    inner = tail_weighted(grid, d**2).sum(axis=1)
    integral = float(trapezoid_weights(grid) @ inner)
    return SmoothnessReport(d, integral, bool(np.all(np.isfinite(d))))


def norms(y: np.ndarray, z: np.ndarray, grid: TriangularGrid,
          ensemble: Optional[PathEnsemble] = None,
          beta: float = 0.0) -> NormReport:
    """Weighted solution-space norms of Y (a profile, or an (M, N+1) table
    drawn on the ensemble) and the Z surface.

    H1 extends Y to [-T, 0) by its time-0 value, H2 extends Z by zero off
    the positive triangle, and the S2 report follows the convention of
    carrying no square root (it is the expected weighted squared sup).
    The path expectations of H1 and S2 are taken under Q, by
    expect_q_columns.  GridMismatch unless y, z and the ensemble are on grid.
    """
    same_grid(grid, y, z, *(() if ensemble is None else (ensemble,)))
    horizon = grid.horizon
    y = np.atleast_2d(y)
    weight = np.exp(beta * grid.nodes)
    if beta == 0.0:
        neg_mass = horizon
    else:
        neg_mass = (1.0 - math.exp(-beta * horizon)) / beta
    wy2 = np.square(y)  # one (M, N+1) table, read by H1 and S2
    wy2 *= weight
    per_path = np.column_stack([
        neg_mass * y[:, 0] ** 2 + wy2 @ trapezoid_weights(grid),
        wy2.max(axis=1)])
    h1_sq, s2 = (per_path[0] if ensemble is None
                 else expect_q_columns(ensemble, per_path)[0])
    h1, s2 = math.sqrt(float(h1_sq)), float(s2)
    inner = tail_weighted(grid, np.triu(weight[None, :] * z**2)).sum(axis=1)
    h2 = math.sqrt(float(trapezoid_weights(grid) @ inner))
    return NormReport(beta, h1, h2, s2)
