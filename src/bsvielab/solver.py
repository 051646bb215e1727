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
from itertools import islice

import numpy as np

from .girsanov import DriftFunction, PathEnsemble
from .kernels import ResolventTable, TriangularGrid, same_grid, \
    tail_weight_matrix, tail_weighted, trapezoid_weights
from .terminal import GaussianLinear, TerminalFamily, TerminalFunction, \
    conditional_sweep, gaussian_linear_conditionals, is_stochastic, \
    malliavin_table


class UnsupportedFamily(ValueError):
    """Family object not one of the three supported variants."""


@dataclass(frozen=True)
class NormReport:
    beta: float
    h1: float
    h2: float
    s2: float


def solve_Y_blocks(fam: GaussianLinear | TerminalFunction,
                   psi: ResolventTable, ensemble: PathEnsemble,
                   blocks: list[slice]):
    """Yield Y(t) = E^Q[F(t) | F_t] + int_t^T Psi(t,r) E^Q[F(r) | F_t] dr
    of a stochastic family on the paths of each block of blocks,
    path-major (m, N+1) in one contiguous buffer that every block reuses,
    so a block is valid until the next one is taken.

    Y is evaluated path by path, the prefix up to t supplying the
    conditioning information, on the grid and under the drift of the
    ensemble.  GaussianLinear Y is affine in dW: with (c, phi) from
    gaussian_linear_conditionals, Y = diag(mean_Y(c)) + dW
    tril(mean_Y(phi), -1)^T, one (m x N) . (N x (N+1)) product per block
    by PathEnsemble.dw_times, with no dW table.  A terminal function takes
    the step row by row on the layers of terminal.conditional_sweep,
    Y(t_i) = C_i[i] + A[i] C_i with A = Psi * trap (mean_Y(C_i) would cost
    (N+1) m per node), and A[i] C_i = (sum_a A[i, a]) C_i when h ignores
    t; the steps fill a block's contiguous node-major rows, transposed
    once into its path-major buffer.  On the blocks of
    oracles._path_blocks every product rounds each path as on the one
    block of every path: each path's Y has the same bits in any block.
    """
    grid = same_grid(psi, ensemble)
    cols = grid.n + 1
    sizes = [len(ensemble.draws[part]) for part in blocks]
    buf = np.empty(max(sizes) * cols)
    if isinstance(fam, GaussianLinear):
        c, phimat = gaussian_linear_conditionals(fam, ensemble.drift_fn)
        b = np.tril(mean_Y(phimat, psi), -1).T
        diag = np.diagonal(mean_Y(c, psi))
        for part, m in zip(blocks, sizes):
            y = ensemble.dw_times(b, part, buf[:m * cols].reshape(m, cols))
            y += diag
            yield y
        return

    yt_buf = np.empty_like(buf)  # node-major rows
    a = tail_weighted(grid, psi.values)
    a_sum = a.sum(axis=1)
    sweep = conditional_sweep(fam, ensemble, blocks)
    for m in sizes:
        yt = yt_buf[:cols * m].reshape(cols, m)
        for i, c in islice(sweep, cols):
            if fam.t_dependent:
                yt[i] = c[i] + a[i] @ c
            else:  # c is C_i's one row: A[i] C_i = (sum_a A[i, a]) C_i
                yt[i] = c[0] + a_sum[i] * c[0]
        y = buf[:m * cols].reshape(m, cols)
        y[...] = yt.T
        yield y


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


def norm_columns(y: np.ndarray, grid: TriangularGrid, beta: float,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The per-path parts of the H1 and S2 norms of the rows of y, (m,
    N+1), node-major (2, m), into out if given: row 0 is the squared H1
    integrand summed, neg_mass y(0)^2 + the trapezoid sum of e^(beta t)
    y^2, row 1 the sup of e^(beta t) y^2 over the nodes.  Y extends to
    [-T, 0) by its time-0 value, whose weight integrates to neg_mass.
    One weighted square of y, (m, N+1), is formed.  GridMismatch unless
    the rows of y are on grid."""
    same_grid(grid, y)
    weight = np.exp(beta * grid.nodes)
    if beta == 0.0:
        neg_mass = grid.horizon
    else:
        neg_mass = (1.0 - math.exp(-beta * grid.horizon)) / beta
    if out is None:
        out = np.empty((2, len(y)))
    wy2 = np.square(y)
    wy2 *= weight
    np.add(neg_mass * y[:, 0] ** 2, wy2 @ trapezoid_weights(grid), out=out[0])
    np.max(wy2, axis=1, out=out[1])
    return out


def norm_report(means: np.ndarray, z: np.ndarray, grid: TriangularGrid,
                beta: float) -> NormReport:
    """The norms from the expectations of the two norm_columns rows, and
    from the Z surface: H1 is the square root of the first, S2 the second
    (the convention carries no square root: it is the expected weighted
    squared sup), and H2 extends Z by zero off the positive triangle, an
    O(N^2) quadrature that reads no paths.  GridMismatch unless z is on
    grid."""
    same_grid(grid, z)
    weight = np.exp(beta * grid.nodes)
    inner = tail_weighted(grid, np.triu(weight[None, :] * z**2)).sum(axis=1)
    h2 = math.sqrt(float(trapezoid_weights(grid) @ inner))
    return NormReport(beta, math.sqrt(float(means[0])), h2, float(means[1]))
