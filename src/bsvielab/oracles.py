"""Independent solvers that validate the explicit formulas.

Three routes to the same solutions, none of which touches the resolvent:

  * backward implicit-trapezoid collocation of the reduced equation
    Y(t) = Fbar(t) + int_t^T Phi(t,s) Y(s) ds;
  * Picard iteration of the original delayed equation, with the delay
    integral assembled once into a linear operator matrix;
  * least-squares Monte Carlo for stochastic free terms: conditional
    expectations by cross-sectional polynomial regression, Z by regressing
    the martingale increment on the Brownian increment.

The delayed and reduced equations are deliberately kept as two separate
ground truths: every solver output can be pushed through both residual
evaluators, and the cross-residuals are reported as measurements rather
than asserted to vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .girsanov import PathEnsemble
from .kernels import KernelSpec, KernelTable, TriangularGrid, \
    tail_weight_matrix, zero_extend_g, zero_extend_kernel
from .measures import DelayMeasure, snap_lag
from .terminal import TerminalFamily, evaluate_F

REGRESSION_DEGREE = 4
RIDGE = 1e-8
COND_LIMIT = 1e10
DIVERGENCE_GUARD = 1e12  # sup |Y| beyond which an iteration has diverged


class SingularStep(RuntimeError):
    """Implicit-trapezoid diagonal factor nearly zero; refine the grid."""


class PicardDiverged(RuntimeError):
    """Iteration exceeded DIVERGENCE_GUARD.

    Carries the per-iteration sup-difference trace in ``sup_diffs`` so
    callers can still emit diagnostics for the failed run.
    """

    def __init__(self, message: str, sup_diffs: list[float] | None = None):
        super().__init__(message)
        self.sup_diffs = list(sup_diffs or [])


class PicardStalled(RuntimeError):
    """Iteration budget exhausted before the stop tolerance."""

    def __init__(self, message: str, sup_diffs: list[float] | None = None):
        super().__init__(message)
        self.sup_diffs = list(sup_diffs or [])


class RegressionIllConditioned(RuntimeError):
    """Normal-equation condition number beyond the safe limit."""


@dataclass(frozen=True)
class PicardConfig:
    max_iterations: int = 200
    tolerance: float = 1e-10

    def __post_init__(self):
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")


@dataclass
class PicardResult:
    y: np.ndarray
    sup_diffs: list[float]
    iterations: int


def solve_reduced_collocation(fbar: np.ndarray, phi: KernelTable,
                              grid: TriangularGrid) -> np.ndarray:
    """Backward march for Y(t) = Fbar(t) + int_t^T Phi(t,s) Y(s) ds.

    fbar may be a single profile (N+1,) or a per-path matrix (M, N+1);
    the march is vectorized over leading axes.
    """
    n, dt = grid.n, grid.dt
    p = phi.values
    fbar = np.asarray(fbar, dtype=float)
    y = np.zeros_like(fbar)
    y[..., n] = fbar[..., n]
    for i in range(n - 1, -1, -1):
        denom = 1.0 - 0.5 * dt * p[i, i]
        if abs(denom) < 1e-8:
            raise SingularStep(f"diagonal factor {denom:.2e} at node {i}")
        tail = 0.5 * dt * p[i, n] * y[..., n]
        if i + 1 < n:
            tail = tail + dt * (y[..., i + 1:n] @ p[i, i + 1:n])
        y[..., i] = (fbar[..., i] + tail) / denom
    return y


def build_delayed_operator(k: KernelSpec, m: DelayMeasure,
                           grid: TriangularGrid) -> np.ndarray:
    """Matrix L with (L y)(t_i) = int_{t_i}^T int G(t_i+u, s+u) y(s+u)
    alpha(du) ds on the grid.

    The u-integral uses the measure's quadrature (exact for atoms); the
    time argument s+u lands between nodes, and grid.locate splits its
    weight linearly between the two ends of its cell, with y frozen at
    y(0) for negative times -- a value the zero-extended G annihilates
    anyway.  Kernels supplied directly as the reduced product recover
    G = Phi / alpha-mass; grid cells where that mass vanishes are dropped,
    truncating an integrable endpoint singularity by one cell.
    """
    u_pts, u_wts = m.quadrature()
    trap = tail_weight_matrix(grid)
    if k.phi_direct is None:
        gfun = zero_extend_kernel(k.G)
    else:
        phi_fun = zero_extend_kernel(k.phi_direct)

        def gfun(a, b):
            # clamp the lag into the measure's domain; out-of-range b give
            # phi = 0 by zero-extension, so the placeholder mass is inert
            lag = np.clip(np.atleast_1d(b) - grid.horizon, -grid.horizon, 0.0)
            mass = np.array([m.mass_closed(snap_lag(float(v)))
                             for v in np.ravel(lag)]).reshape(np.shape(lag))
            vals = phi_fun(a, b)
            return np.divide(vals, mass, out=np.zeros_like(vals),
                             where=mass > 1e-12)

    op_t = np.zeros_like(trap)  # transposed, so the scatter moves whole rows
    for u, wu in zip(u_pts, u_wts):
        if wu == 0.0:
            continue
        shifted = grid.nodes + u
        gq = np.asarray(gfun(shifted[None, :], shifted[:, None]), dtype=float)
        coeff = trap.T * gq * wu
        live = np.flatnonzero(np.any(coeff, axis=1))
        idx, frac = grid.locate(shifted[live])
        # s_j + u gives frac_j of its weight to node idx_j + 1, the rest to
        # idx_j.  idx is nondecreasing, so taking right shares before left
        # ones, and shares that meet at a node in rounds by rank, adds each
        # entry's terms in order of j, as a loop over j would.
        rank = np.arange(live.size) - np.searchsorted(idx, idx)
        for cells, share in ((idx + 1, frac), (idx, 1.0 - frac)):
            for r in range(rank.max(initial=-1) + 1):
                on = rank == r
                op_t[cells[on]] += coeff[live[on]] * share[on, None]
    return np.ascontiguousarray(op_t.T)  # op @ y's bits depend on layout


def solve_delayed_picard(f0: np.ndarray, op: np.ndarray,
                         cfg: PicardConfig = PicardConfig()) -> PicardResult:
    """Fixed-point iteration of the deterministic delayed equation.

    Deterministic free terms force Z to vanish, so the equation reduces to
    y = f0 + L y with the f0 profile on the grid and the delay operator L
    of build_delayed_operator; the iteration mirrors the existence
    argument and diverges detectably outside the small-bound regime.
    """
    y = f0.copy()
    sup_diffs = []
    for it in range(1, cfg.max_iterations + 1):
        y_next = f0 + op @ y
        diff = float(np.abs(y_next - y).max())
        sup_diffs.append(diff)
        y = y_next
        if not np.all(np.isfinite(y)) or np.abs(y).max() > DIVERGENCE_GUARD:
            raise PicardDiverged(
                f"sup |Y| beyond guard after {it} iterations", sup_diffs)
        if diff < cfg.tolerance:
            return PicardResult(y, sup_diffs, it)
    raise PicardStalled(
        f"no convergence to {cfg.tolerance} in {cfg.max_iterations} iterations",
        sup_diffs)


def residual_delayed(y: np.ndarray, f0: np.ndarray,
                     op: np.ndarray) -> tuple[np.ndarray, float]:
    """R(t) = Y(t) - f0(t) - (delay operator applied to Y), deterministic."""
    r = y - f0 - op @ y
    return r, float(np.abs(r).max())


def residual_reduced(y: np.ndarray, fbar: np.ndarray, phi: KernelTable,
                     grid: TriangularGrid) -> tuple[np.ndarray, float]:
    """R(t) = Y(t) - Fbar(t) - int_t^T Phi(t,s) Y(s) ds (profiles or
    per-path matrices, vectorized over leading axes)."""
    a = phi.values * tail_weight_matrix(grid)
    r = y - fbar - y @ a.T
    return r, float(np.abs(r).max())


def residual_reduced_pathwise(y: np.ndarray, z: np.ndarray,
                              fam: TerminalFamily, phi: KernelTable,
                              grid: TriangularGrid,
                              ensemble: PathEnsemble) -> np.ndarray:
    """Path residual of the reduced equation including its martingale part:
    R(t) = Y(t) - F(t) - int_t^T Phi(t,s) Y(s) ds + int_t^T Z(t,s) dW^Q(s),
    the stochastic integral taken as a left-point sum.  Returns (M, N+1)."""
    n = grid.n
    nodes = grid.nodes
    a = phi.values * tail_weight_matrix(grid)
    f_vals = np.stack([evaluate_F(fam, t, ensemble) for t in nodes], axis=1)
    dwq = np.diff(ensemble.wq, axis=1)  # (M, N)
    r = y - f_vals - y @ a.T
    for i in range(n + 1):
        if i < n:
            r[:, i] += dwq[:, i:] @ z[i, i:n]
    return r


def lipschitz_constant(k: KernelSpec) -> float:
    """K = 2 max(C_G^2, C_g^2), read off the contraction estimate."""
    return 2.0 * max(k.G_bound**2, k.g_bound**2)


# ---------------------------------------------------------------------------
# least-squares Monte Carlo for stochastic free terms
# ---------------------------------------------------------------------------

@dataclass
class LsmcResult:
    y: np.ndarray          # (M, N+1) per-path conditional-expectation fits
    z: np.ndarray          # (N+1, N+1) regression Z surface on the triangle
    z_se: np.ndarray       # matching standard errors of the slopes
    y_targets: np.ndarray = None  # (M, N+1) final regression targets; their
    # per-path spread is the honest noise scale of the fitted means
    sup_diffs: list[float] = field(default_factory=list)
    iterations: int = 0


def _design_matrix(w_col: np.ndarray) -> np.ndarray:
    """Standardized monomial basis in W(t_i): intercept plus centred,
    unit-variance powers; collapses to the intercept when W(t_i) is
    degenerate (t_i = 0)."""
    m = len(w_col)
    cols = [np.ones(m)]
    if w_col.std() > 1e-12:
        for p in range(1, REGRESSION_DEGREE + 1):
            c = w_col**p
            c = (c - c.mean())
            sd = c.std()
            if sd > 1e-12:
                cols.append(c / sd)
    return np.stack(cols, axis=1)


class _NodeRegressor:
    """Ridge projector onto the per-node polynomial basis, factored once."""

    def __init__(self, w_col: np.ndarray):
        b = _design_matrix(w_col)
        gram = b.T @ b + RIDGE * np.eye(b.shape[1])
        cond = float(np.linalg.cond(gram))
        if cond > COND_LIMIT:
            raise RegressionIllConditioned(f"condition number {cond:.2e}")
        self.basis = b
        self.chol = np.linalg.cholesky(gram)

    def fit(self, targets: np.ndarray) -> np.ndarray:
        rhs = self.basis.T @ targets
        coef = np.linalg.solve(self.chol.T, np.linalg.solve(self.chol, rhs))
        return self.basis @ coef


def _g_weighted_term(k: KernelSpec, m: DelayMeasure, grid: TriangularGrid,
                     z_surface: np.ndarray, trap: np.ndarray) -> np.ndarray:
    """Deterministic profile of int_t^T int g(s+u) Z(t+u, s+u) alpha(du) ds
    built from a mean Z surface, with the grid's tail trapezoid weights
    trap.  For each quadrature node u, g is zero-extended and Z is read at
    (t_i+u, s_j+u) by grid.interpolate, extended by zero off the positive
    triangle.  Rows are summed left to right by cumsum, as a sequential
    loop would; np.sum adds pairwise and would change the last bits.
    Exact (zero) whenever g vanishes."""
    if k.g_bound == 0.0:
        return np.zeros(grid.n + 1)
    u_pts, u_wts = m.quadrature()
    out = np.zeros(grid.n + 1)
    for u, wu in zip(u_pts, u_wts):
        shifted = grid.nodes + u
        gv = zero_extend_g(k.g)(shifted)
        t, s = shifted[:, None], shifted[None, :]
        z = np.where((t >= 0.0) & (s >= 0.0),
                     grid.interpolate(z_surface, t, s), 0.0)
        out += wu * np.cumsum(trap * gv[None, :] * z, axis=1)[:, -1]
    return out


def solve_delayed_lsmc(fam: TerminalFamily, k: KernelSpec, m: DelayMeasure,
                       op: np.ndarray, grid: TriangularGrid,
                       ensemble: PathEnsemble,
                       cfg: PicardConfig = PicardConfig()) -> LsmcResult:
    """Regression Monte Carlo for the delayed equation with stochastic F.

    Outer Picard loop on the per-path Y matrix; each sweep regresses the
    right-hand side F(t_i) + (delay integral of Y, through the operator op
    of build_delayed_operator) + (g-weighted Z term) on a degree-4
    polynomial basis in W(t_i).  The ensemble stays fixed, so the loop is
    a deterministic linear iteration and converges to a machine-precision
    fixed point in the contractive regime.  Z(t_i, s_j) is the
    least-squares slope of the martingale increment on dW_j.
    """
    n = grid.n
    nodes = grid.nodes
    trap = tail_weight_matrix(grid)
    f_vals = np.stack([evaluate_F(fam, t, ensemble) for t in nodes], axis=1)
    regs = [_NodeRegressor(ensemble.w[:, i]) for i in range(n + 1)]

    y = f_vals.copy()
    z_mean = np.zeros((n + 1, n + 1))
    sup_diffs = []
    for it in range(1, cfg.max_iterations + 1):
        gz = _g_weighted_term(k, m, grid, z_mean, trap)
        target = f_vals + y @ op.T + gz[None, :]
        y_next = np.empty_like(y)
        for i in range(n + 1):
            y_next[:, i] = regs[i].fit(target[:, i])
        diff = float(np.abs(y_next - y).max())
        sup_diffs.append(diff)
        y = y_next
        if not np.all(np.isfinite(y)) or np.abs(y).max() > DIVERGENCE_GUARD:
            raise PicardDiverged(
                f"sup |Y| beyond guard after {it} iterations", sup_diffs)
        if k.g_bound != 0.0:
            z_mean = _slope_z(target - y, ensemble, grid, op, trap)[0]
        if diff < cfg.tolerance:
            z, z_se = _slope_z(target - y, ensemble, grid, op, trap)
            return LsmcResult(y, z, z_se, target, sup_diffs, it)
    raise PicardStalled(
        f"no convergence to {cfg.tolerance} in {cfg.max_iterations} iterations",
        sup_diffs)


def _slope_z(theta: np.ndarray, ensemble: PathEnsemble,
             grid: TriangularGrid, op: np.ndarray, trap: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Z(t_i, s_j) as the OLS slope of theta_i on the increment dW_j,
    j < N; the final column, which has no increment of its own, is
    extended by linear extrapolation in s (nearest-row values where a
    row is too short to extrapolate).  Returns (slopes, slope SEs).

    The raw slope collects the innovations of F and of the strictly
    later quadrature nodes, but never the half cell at r = s_j itself:
    Y(t_j) is W(t_j)-measurable, so its weight in the generator
    quadrature contributes nothing to the regression even though the
    continuum integral starts at s_j with Malliavin weight Z(s_j, s_j).
    The correction restores that half cell from the operator's own
    weights, solving the diagonal self-consistently first; without it
    the estimator carries an O(dt) bias that dwarfs the slope SE at the
    final interior row, where the regression is nearly noiseless.
    """
    n = grid.n
    dt = grid.dt
    m_paths = ensemble.n_paths
    dw = ensemble.dw
    z = np.zeros((n + 1, n + 1))
    se = np.zeros((n + 1, n + 1))
    for j in range(n):
        x = dw[:, j] - dw[:, j].mean()
        ss = float(x @ x)
        for i in range(j + 1):
            t_col = theta[:, i]
            slope = float(x @ t_col) / ss
            resid = t_col - t_col.mean() - slope * x
            var = float(resid @ resid) / max(m_paths - 2, 1) / ss
            z[i, j] = slope
            se[i, j] = math.sqrt(var)
    kk = np.divide(op, trap, out=np.zeros_like(op), where=trap > 0.0)
    for j in range(n):
        scale = 1.0 - op[j, j]
        z_diag = z[j, j] / scale
        se_diag = se[j, j] / abs(scale)
        half = 0.5 * dt * kk[: j + 1, j]
        z[: j + 1, j] += half * z_diag
        se[: j + 1, j] = np.hypot(se[: j + 1, j], np.abs(half) * se_diag)
    if n >= 2:
        rows = slice(0, n - 1)
        z[rows, n] = 2.0 * z[rows, n - 1] - z[rows, n - 2]
        se[rows, n] = np.hypot(2.0 * se[rows, n - 1], se[rows, n - 2])
        z[n - 1, n] = z[n, n] = z[n - 2, n]
        se[n - 1, n] = se[n, n] = se[n - 2, n]
    else:
        z[:, n] = z[:, n - 1]
        se[:, n] = se[:, n - 1]
    return np.where(np.triu(np.ones_like(z, dtype=bool)), z, 0.0), se
