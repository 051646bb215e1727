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

from dataclasses import dataclass, field

import numpy as np

from .girsanov import PathEnsemble
from .kernels import KernelSpec, KernelTable, TriangularGrid, \
    implicit_factors, lag_weights, tail_weight_matrix, zero_extend_g, \
    zero_extend_kernel
from .measures import DelayMeasure, snap_lag
from .terminal import TerminalFamily, evaluate_F_table

REGRESSION_DEGREE = 4
RIDGE = 1e-8
COND_LIMIT = 1e10
DIVERGENCE_GUARD = 1e12  # sup |Y| beyond which an iteration has diverged


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
    denom = implicit_factors(phi)
    fbar = np.asarray(fbar, dtype=float)
    y = np.zeros_like(fbar)
    y[..., n] = fbar[..., n]
    for i in range(n - 1, -1, -1):
        tail = 0.5 * dt * p[i, n] * y[..., n]
        if i + 1 < n:
            tail = tail + dt * (y[..., i + 1:n] @ p[i, i + 1:n])
        y[..., i] = (fbar[..., i] + tail) / denom[i]
    return y


def _kernel_on_shifted_grid(k: KernelSpec, m: DelayMeasure,
                            grid: TriangularGrid, u: float) -> np.ndarray:
    """G(t_i + u, s_j + u) over the grid, zero-extended.  A kernel given as
    the reduced product recovers G = Phi / alpha([s_j + u - T, 0]) (the lag
    clamped into [-T, 0], where Phi = 0 anyway), dropping the cells where
    that mass vanishes: an integrable endpoint singularity loses one cell."""
    x = grid.nodes + u
    if k.phi_direct is None:
        return zero_extend_kernel(k.G)(x[:, None], x[None, :])
    vals = zero_extend_kernel(k.phi_direct)(x[:, None], x[None, :])
    mass = m.mass_closed(snap_lag(np.clip(x - grid.horizon, -grid.horizon, 0.0)))
    return np.divide(vals, mass, out=np.zeros_like(vals), where=mass > 1e-12)


def build_delayed_operator(k: KernelSpec, m: DelayMeasure,
                           grid: TriangularGrid) -> np.ndarray:
    """Matrix L with (L y)(t_i) = int_{t_i}^T int G(t_i+u, s+u) y(s+u)
    alpha(du) ds on the grid.

    The u-integral runs over lag_weights' grid lags u = -t_k, where
    (t_i+u, s_j+u) = (t_{i-k}, s_{j-k}): G is tabulated once on the grid
    and each lag adds one shifted block.  An atom between lags keeps its
    exact node: G is evaluated at (t_i+u, s_j+u), and y(s_j+u), which
    has the same cell fraction theta for every j, is split linearly
    between its two nodes, one shifted column block each.
    """
    n = grid.n
    trap = tail_weight_matrix(grid)
    w, between = lag_weights(m, grid)
    g = _kernel_on_shifted_grid(k, m, grid, 0.0)
    op = np.zeros_like(trap)
    for lag in np.flatnonzero(w.any(axis=0)):
        live = n + 1 - lag
        op[lag:, :live] += w[lag:, lag, None] * trap[lag:, lag:] * g[:live, :live]
    for u, wu in between:
        coeff = wu * trap * _kernel_on_shifted_grid(k, m, grid, u)
        # s_j + u = s_{j-lag-1} + (1 - theta) dt; coeff is 0 for j <= lag
        lag, theta = grid.locate(-u)
        op[:, :n - lag] += theta * coeff[:, lag + 1:]
        op[:, 1:n + 1 - lag] += (1.0 - theta) * coeff[:, lag + 1:]
    return op


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
    a = phi.values * tail_weight_matrix(grid)
    f_vals = evaluate_F_table(fam, ensemble)
    dwq = np.diff(ensemble.wq, axis=1)  # (M, N)
    r = y - f_vals - y @ a.T
    r[:, :n] += dwq @ np.triu(z[:n, :n]).T
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
    max_gram_cond: float = 0.0  # largest condition number of the node Grams


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
        self.cond = cond
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
    trap, on the nodes of build_delayed_operator: each grid lag reads
    Z[i-k, j-k] and g(s_{j-k}); an atom between lags reads g zero-extended
    and Z by grid.interpolate, extended by zero off the positive triangle.
    Rows are summed left to right by cumsum, as a sequential loop would;
    np.sum adds pairwise and would change the last bits.  Exact (zero)
    whenever g vanishes."""
    if k.g_bound == 0.0:
        return np.zeros(grid.n + 1)
    n = grid.n
    w, between = lag_weights(m, grid)
    g_ext = zero_extend_g(k.g)
    gv = g_ext(grid.nodes)
    out = np.zeros(n + 1)
    for lag in np.flatnonzero(w.any(axis=0)):
        live = n + 1 - lag
        gz = trap[lag:, lag:] * gv[:live] * z_surface[:live, :live]
        out[lag:] += w[lag:, lag] * np.cumsum(gz, axis=1)[:, -1]
    for u, wu in between:
        shifted = grid.nodes + u
        t, s = shifted[:, None], shifted[None, :]
        z = np.where((t >= 0.0) & (s >= 0.0),
                     grid.interpolate(z_surface, t, s), 0.0)
        out += wu * np.cumsum(trap * g_ext(shifted) * z, axis=1)[:, -1]
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
    least-squares slope of the martingale increment on dW_j: refitted
    every sweep when g != 0, since the g-term reads it, and otherwise
    only on the converged sweep, which alone also takes the slope SEs.
    RegressionIllConditioned if a node's Gram matrix is ill-conditioned
    or an increment dW_j has no sample variance (a single path).
    """
    n = grid.n
    trap = tail_weight_matrix(grid)
    f_vals = evaluate_F_table(fam, ensemble)
    regs = [_NodeRegressor(ensemble.w[:, i]) for i in range(n + 1)]
    basis = _IncrementBasis(ensemble.dw, op, trap, grid.dt)

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
        if diff < cfg.tolerance:
            z, z_se = _slope_z(target - y, basis, with_se=True)
            return LsmcResult(y, z, z_se, target, sup_diffs, it,
                              max(r.cond for r in regs))
        if k.g_bound != 0.0:
            z_mean = _slope_z(target - y, basis)[0]
    raise PicardStalled(
        f"no convergence to {cfg.tolerance} in {cfg.max_iterations} iterations",
        sup_diffs)


class _IncrementBasis:
    """What the Z slopes need of the increments and the operator, made
    once per LSMC run: the increments dW (M, N), the sums of squares
    ss_j of the centred increments x = dW - mean(dW), and the half-cell
    weights 0.5 dt K(t_i, s_j) on i <= j < N with the diagonal scales
    1 - op[j, j], where K = op / trap is the operator's kernel.
    RegressionIllConditioned if some ss_j is 0, as it is for a single
    path."""

    def __init__(self, dw: np.ndarray, op: np.ndarray, trap: np.ndarray,
                 dt: float):
        n = dw.shape[1]
        x = dw - dw.mean(axis=0)
        ss = np.einsum("mj,mj->j", x, x)
        if not np.all(ss > 0.0):
            j = int(np.flatnonzero(~(ss > 0.0))[0])
            raise RegressionIllConditioned(
                f"increment dW_{j} has no sample variance over {len(dw)} "
                "paths; Z slopes undefined")
        kk = np.divide(op, trap, out=np.zeros_like(op), where=trap > 0.0)
        self.dw = dw
        self.ss = ss
        self.upper = np.triu(np.ones((n, n), dtype=bool))
        self.half = np.where(self.upper, 0.5 * dt * kk[:n, :n], 0.0)
        self.scale = 1.0 - np.diag(op)[:n]


def _slope_z(theta: np.ndarray, basis: _IncrementBasis, with_se: bool = False
             ) -> tuple[np.ndarray, np.ndarray | None]:
    """Z(t_i, s_j) as the OLS slope of theta_i on the increment dW_j,
    j < N; the final column, which has no increment of its own, is
    extended by linear extrapolation in s (nearest-row values where a
    row is too short to extrapolate).  Returns (slopes, slope SEs), the
    SEs None unless with_se.

    All slopes come from one product of the centred targets with the
    increments: z[i, j] = (x^T theta_c)[j, i] / ss_j on i <= j, where
    x^T theta_c = dW^T theta_c because theta_c has zero column means,
    so the centred increments are never held.

    The SEs take the residual sum of squares from the Gram identity
    rss = |theta_c_i|^2 - z[i, j] (x_j . theta_c_i), clipped at 0,
    instead of forming residual vectors; the subtraction cancels, so
    its relative accuracy degrades like eps / (1 - R^2) with R^2 the
    regression's coefficient of determination.

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
    ss, upper = basis.ss, basis.upper
    m_paths, n = basis.dw.shape
    theta_c = theta[:, :n] - theta[:, :n].mean(axis=0)
    cross = theta_c.T @ basis.dw  # cross[i, j] = x_j . theta_c_i
    raw = np.where(upper, cross / ss, 0.0)
    z = np.zeros((n + 1, n + 1))
    z[:n, :n] = raw + basis.half * (np.diag(raw) / basis.scale)
    _extrapolate_last_column(z, lambda a, b: 2.0 * a - b)
    if not with_se:
        return z, None
    sq = np.einsum("mi,mi->i", theta_c, theta_c)
    rss = np.where(upper, np.maximum(sq[:, None] - raw * cross, 0.0), 0.0)
    raw_se = np.sqrt(rss / max(m_paths - 2, 1) / ss)
    se = np.zeros((n + 1, n + 1))
    se[:n, :n] = np.hypot(raw_se, np.abs(basis.half)
                          * (np.diag(raw_se) / np.abs(basis.scale)))
    _extrapolate_last_column(se, lambda a, b: np.hypot(2.0 * a, b))
    return z, se


def _extrapolate_last_column(a: np.ndarray, rule) -> None:
    """Fill column N, which has no increment of its own, from the two
    columns before it by rule(a[:, N-1], a[:, N-2]); the two rows too
    short for that copy row N-2's value (with N = 1, column 0 is copied)."""
    n = a.shape[0] - 1
    if n >= 2:
        rows = slice(0, n - 1)
        a[rows, n] = rule(a[rows, n - 1], a[rows, n - 2])
        a[n - 1, n] = a[n, n] = a[n - 2, n]
    else:
        a[:, n] = a[:, n - 1]
