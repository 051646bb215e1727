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

from .girsanov import DriftFunction, PathEnsemble, block_matmul
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
                   psi: ResolventTable, ensemble: PathEnsemble):
    """Yield Y(t) = E^Q[F(t) | F_t] + int_t^T Psi(t,r) E^Q[F(r) | F_t] dr
    of a stochastic family on the paths of each block of ensemble.blocks,
    node-major (N+1, m) in one buffer of block_buffers that every block
    reuses, so a block is valid until the next one is taken.

    Y is evaluated path by path, the prefix up to t supplying the
    conditioning information, on the grid and under the drift of the
    ensemble.  GaussianLinear Y is affine in dW: with (c, phi) from
    gaussian_linear_conditionals, Y = diag(mean_Y(c)) + tril(mean_Y(phi),
    -1) dW^T, one (N+1 x N) . (N x m) product per block by
    PathEnsemble.dw_times, with no dW table.  A terminal function takes
    the step row by row on the layers of terminal.conditional_sweep,
    Y(t_i) = C_i[i] + A[i] C_i with A = Psi * trap (mean_Y(C_i) would cost
    (N+1) m per node), and A[i] C_i = (sum_a A[i, a]) C_i when h ignores
    t.  Every product rounds each path as on the one block of every path:
    each path's Y has the same bits in any block.
    """
    grid = same_grid(psi, ensemble)
    n1 = grid.n + 1
    if isinstance(fam, GaussianLinear):
        c, phimat = gaussian_linear_conditionals(fam, ensemble.drift_fn)
        b = np.tril(mean_Y(phimat, psi), -1).T
        diag = np.diagonal(mean_Y(c, psi))[:, None]
        for part, y in ensemble.block_buffers(n1):
            ensemble.dw_times(b, part, y)
            y += diag
            yield y
        return

    a = tail_weighted(grid, psi.values)
    a_sum = a.sum(axis=1)
    sweep = conditional_sweep(fam, ensemble)
    for _, y in ensemble.block_buffers(n1):
        for i, c in islice(sweep, n1):
            if fam.t_dependent:
                block_matmul(a[i:i + 1], c, y[i:i + 1])
                y[i] += c[i]
            else:  # c is C_i's one row: A[i] C_i = (sum_a A[i, a]) C_i
                y[i] = c[0] + a_sum[i] * c[0]
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


SQUARE_BLOCK = 64  # rows per block of _squared_tail_sums' scratch buffer


def _squared_tail_sums(z: np.ndarray, grid: TriangularGrid,
                       weight=1.0) -> np.ndarray:
    """The row sums of tail_weighted(grid, triu(weight * z**2)), bit for
    bit, weight on the columns s: each block of SQUARE_BLOCK rows is
    squared, weighted, cut below the diagonal and tail-weighted in one
    scratch buffer, then summed row by row."""
    n1 = grid.n + 1
    sums, buf = np.empty(n1), np.empty((min(SQUARE_BLOCK, n1), n1))
    for lo in range(0, n1, SQUARE_BLOCK):
        h = np.square(z[lo:lo + SQUARE_BLOCK], out=buf[:n1 - lo])
        h *= weight
        h[np.tri(len(h), n1, lo - 1, dtype=bool)] = 0.0
        tail_weighted(grid, h, out=h, lo=lo).sum(axis=1, out=sums[lo:lo + len(h)])
    return sums


def smoothness_diagnostics(z: np.ndarray, grid: TriangularGrid) -> SmoothnessReport:
    """Finite differences of Z in t and the double integral of their square.

    Central differences where both neighbours stay inside the triangle,
    one-sided at the t = 0 and t = s edges, in one table by np.gradient's
    uniform-spacing arithmetic, cut in place; the reported integral is
    the trapezoid value of int_0^T int_t^T (dZ/dt)^2 ds dt.
    """
    n, dt = grid.n, grid.dt
    d = np.empty_like(z, dtype=float)
    np.subtract(z[2:], z[:-2], out=d[1:-1])
    d[1:-1] /= 2.0 * dt
    d[0], d[-1] = (z[1] - z[0]) / dt, (z[-1] - z[-2]) / dt
    diag = np.arange(1, n + 1)
    d[diag, diag] = (z[diag, diag] - z[diag - 1, diag]) / dt
    d[np.tri(n + 1, k=-1, dtype=bool)] = 0.0
    d[0, 0] = 0.0
    integral = float(trapezoid_weights(grid) @ _squared_tail_sums(d, grid))
    return SmoothnessReport(d, integral, bool(np.all(np.isfinite(d))))


def norm_columns(y: np.ndarray, grid: TriangularGrid, beta: float,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The per-path parts of the H1 and S2 norms of the columns of y,
    node-major (N+1, m), into out (2, m) if given: row 0 is the squared
    H1 integrand summed, neg_mass y(0)^2 + the trapezoid sum of
    e^(beta t) y^2, row 1 the sup of e^(beta t) y^2 over the nodes.  Y
    extends to [-T, 0) by its time-0 value, whose weight integrates to
    neg_mass.  One weighted square of y, (N+1, m), is formed, and
    weighted again by the trapezoid rule in place after its sup is read;
    its node sums run row by row, so each path's sum has the same bits in
    any block.  GridMismatch unless the columns of y are on grid."""
    same_grid(grid, y[:, 0])
    weight = np.exp(beta * grid.nodes)[:, None]
    neg_mass = grid.horizon if beta == 0.0 \
        else (1.0 - math.exp(-beta * grid.horizon)) / beta
    if out is None:
        out = np.empty((2, y.shape[1]))
    wy2 = np.square(y)
    wy2 *= weight
    np.max(wy2, axis=0, out=out[1])
    wy2 *= trapezoid_weights(grid)[:, None]
    np.add(neg_mass * y[0] ** 2, wy2.sum(axis=0), out=out[0])
    return out


def norm_report(means: np.ndarray, z: np.ndarray, grid: TriangularGrid,
                beta: float) -> NormReport:
    """The norms from the expectations of the two norm_columns rows, and
    from the Z surface: H1 is the square root of the first, S2 the second
    (the convention carries no square root: it is the expected weighted
    squared sup), and H2 extends Z by zero off the positive triangle, an
    O(N^2) quadrature that reads no paths, its integrand squared,
    weighted, cut and tail-weighted by _squared_tail_sums.  GridMismatch
    unless z is on grid."""
    same_grid(grid, z)
    inner = _squared_tail_sums(z, grid, np.exp(beta * grid.nodes))
    h2 = math.sqrt(float(trapezoid_weights(grid) @ inner))
    return NormReport(beta, math.sqrt(float(means[0])), h2, float(means[1]))
