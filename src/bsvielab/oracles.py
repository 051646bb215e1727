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

from dataclasses import dataclass

import numpy as np

from .girsanov import PathEnsemble
from .kernels import DelayOperator, DelayedGenerator, KernelTable, \
    implicit_factors, lag_weights, same_grid, tail_weight_matrix, \
    tail_weighted, zero_extend_kernel

REGRESSION_DEGREE = 4
RIDGE = 1e-8
COND_LIMIT = 1e10
DIVERGENCE_GUARD = 1e12  # sup |Y| beyond which an iteration has diverged
MAX_ITERATIONS = 200  # sweeps of either delayed oracle before PicardStalled
LSMC_CHUNK = 2048  # paths per block of the LSMC basis: P x 2048 floats
# floats per block of node rows in a Horner pass (512 KiB): the block and
# its rows of W stay in L2
HORNER_BLOCK = 1 << 16


class PicardFailed(RuntimeError):
    """A Picard or LSMC iteration that did not converge; ``sup_diffs``
    keeps its per-iteration trace for the failed run's diagnostics."""

    def __init__(self, message: str, sup_diffs: list[float] | None = None):
        super().__init__(message)
        self.sup_diffs = list(sup_diffs or [])


class PicardDiverged(PicardFailed):
    """Iteration exceeded DIVERGENCE_GUARD."""


class PicardStalled(PicardFailed):
    """Iteration budget exhausted before the stop tolerance."""


class RegressionIllConditioned(RuntimeError):
    """Normal-equation condition number beyond the safe limit."""


@dataclass
class PicardResult:
    y: np.ndarray
    sup_diffs: list[float]
    iterations: int


def _sweeps(tol: float) -> range:
    """Sweeps of either delayed oracle, which stops at a sup-difference
    below tol; ValueError unless tol > 0 (a NaN is not)."""
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    return range(1, MAX_ITERATIONS + 1)


def _stalled(tol: float, sup_diffs: list[float]) -> PicardStalled:
    return PicardStalled(
        f"no convergence to {tol} in {MAX_ITERATIONS} iterations", sup_diffs)


def solve_reduced_collocation(fbar: np.ndarray, phi: KernelTable
                              ) -> np.ndarray:
    """Backward march for Y(t) = Fbar(t) + int_t^T Phi(t,s) Y(s) ds.

    fbar may be a single profile (N+1,) or a per-path matrix (M, N+1);
    the march is vectorized over leading axes.  The integral reads the
    tail trapezoid weights of residual_reduced, with the diagonal half
    cell moved to the left-hand side by implicit_factors.
    """
    n = phi.grid.n
    a = tail_weighted(phi.grid, phi.values)
    denom = implicit_factors(phi)
    fbar = np.asarray(fbar, dtype=float)
    y = np.zeros_like(fbar)
    y[..., n] = fbar[..., n]
    for i in range(n - 1, -1, -1):
        y[..., i] = (fbar[..., i] + y[..., i + 1:] @ a[i, i + 1:]) / denom[i]
    return y


def _diffuse_operator(gt: np.ndarray, gen: DelayedGenerator) -> np.ndarray:
    """The uniform part of gen's alpha, density rho, on the kernel table gt
    of _delay_walk.  With q = r - lag, lo = max(0, c+r-N) and hi = min(r, c),
        op[r, c] = rho dt^2 sum_{q=lo}^{hi} a_q b_q K[q, c],
    a_q = 1/2 at q in {0, r} (the trapezoid over the lags [-t_r, 0]), b_q =
    1/2 at q in {c, c+r-N} (the one over [t_r, T]), else 1.  The halves sit
    on lo or hi, so over the prefix P[k] = K[0] + ... + K[k-1] + K[k]/2 the
    sum is P[hi] - P[lo], less K/4 where two halves meet (hi = r = c,
    lo = 0 = c+r-N); columns 0 and N hold one term of weight 1/4.  Only
    K[q, c] with q <= c is read.  Both gathers are views, with no index
    grid: P[min(r, c), c] is P with each column's diagonal value below it,
    and P[lo, c] = E[r + c, c] reads a skewed diagonal of E, P below N
    copies of its row 0."""
    m, n, dt = gen.measure, gen.grid.n, gen.grid.dt
    if not m.diffuse_mass:
        return np.zeros((n + 1, n + 1))
    e = np.empty((2 * n + 1, n + 1))
    p = e[n:]
    np.cumsum(gt, axis=0, out=p)
    op = np.multiply(gt, 0.5)
    p -= op
    e[:n] = p[0]
    np.copyto(op, p)
    np.copyto(op, np.diagonal(p), where=np.tri(n + 1, k=-1, dtype=bool))
    # lo[n - r, c] = e[r + c, c]: up one row of e per row, down one per
    # column, from e[n, 0]; every read lies inside e
    lo = np.lib.stride_tricks.as_strided(
        p, shape=op.shape, strides=(-e.strides[0], sum(e.strides)),
        writeable=False)
    op[::-1] -= lo
    inner = np.arange(1, n)
    op[inner, inner] -= 0.25 * gt[inner, inner]
    op[inner, n - inner] -= 0.25 * gt[0, n - inner]
    op[:, 0], op[:, n] = 0.25 * gt[0, 0], 0.25 * gt[:, n]
    op[[0, n]] = 0.0  # a zero lag range and a zero range in s
    op *= m.diffuse_mass / m.horizon * dt * dt
    return op


def _delay_walk(gen: DelayedGenerator, table: np.ndarray,
                table_at) -> np.ndarray:
    """Matrix L with (L y)(t_i) = int_{t_i}^T int K(t_i+u, s+u) y(s+u)
    alpha(du) ds on the grid, K (zero at negative times) given by its node
    table and by table_at(x), K(x_i, x_j) over the times x.  The u-integral
    runs over the grid lags u = -t_k, where (t_i+u, s_j+u) = (t_{i-k},
    s_{j-k}): the uniform part is _diffuse_operator's O(N^2) window sum, and
    each atom of lag_weights on a lag adds one shifted block.  An atom
    between lags keeps its exact node: table_at gives K at (t_i+u, s_j+u),
    and y(s_j+u), with the same cell fraction theta for every j, is split
    linearly between its two nodes, one shifted column block each."""
    grid, n = gen.grid, gen.grid.n
    on_lag, between = lag_weights(gen.measure, grid)
    op = _diffuse_operator(table, gen)
    trap = tail_weight_matrix(grid) if on_lag or between else None
    for lag, wl in on_lag:
        live = n + 1 - lag
        op[lag:, :live] += wl * trap[lag:, lag:] * table[:live, :live]
    for u, wu in between:
        coeff = wu * trap * table_at(grid.nodes + u)
        # s_j + u = s_{j-lag-1} + (1 - theta) dt; coeff is 0 for j <= lag
        lag, theta = grid.locate(-u)
        op[:, :n - lag] += theta * coeff[:, lag + 1:]
        op[:, 1:n + 1 - lag] += (1.0 - theta) * coeff[:, lag + 1:]
    return op


def build_delayed_operator(gen: DelayedGenerator) -> DelayOperator:
    """The DelayOperator (gen, L) both delayed oracles take: _delay_walk on
    K = G, read by gen.G_at on the nodes and between lags."""
    return DelayOperator(gen, _delay_walk(gen, gen.G_at(gen.grid.nodes),
                                          gen.G_at))


def solve_delayed_picard(f0: np.ndarray, op: DelayOperator,
                         tol: float = 1e-10) -> PicardResult:
    """Fixed-point iteration of the deterministic delayed equation.

    Deterministic free terms force Z to vanish, so the equation reduces to
    y = f0 + L y with the f0 profile on the grid of the delay operator L
    of build_delayed_operator (else GridMismatch); the iteration mirrors
    the existence argument and diverges detectably outside the small-bound
    regime.
    """
    same_grid(op, f0)
    y = f0.copy()
    sup_diffs = []
    for it in _sweeps(tol):
        y_next = f0 + op.values @ y
        diff = float(np.abs(y_next - y).max())
        sup_diffs.append(diff)
        y = y_next
        if not np.abs(y).max() <= DIVERGENCE_GUARD:  # NaN fails too
            raise PicardDiverged(
                f"sup |Y| beyond guard after {it} iterations", sup_diffs)
        if diff < tol:
            return PicardResult(y, sup_diffs, it)
    raise _stalled(tol, sup_diffs)


def residual_delayed(y: np.ndarray, f0: np.ndarray,
                     op: DelayOperator) -> tuple[np.ndarray, float]:
    """R(t) = Y(t) - f0(t) - (L Y)(t) on L's grid, else GridMismatch."""
    same_grid(op, y, f0)
    r = y - f0 - op.values @ y
    return r, float(np.abs(r).max())


def residual_reduced(y: np.ndarray, fbar: np.ndarray, phi: KernelTable
                     ) -> tuple[np.ndarray, float]:
    """R(t) = Y(t) - Fbar(t) - int_t^T Phi(t,s) Y(s) ds (profiles or
    per-path matrices, vectorized over leading axes)."""
    a = tail_weighted(phi.grid, phi.values)
    r = y - fbar
    r -= y @ a.T
    return r, float(np.abs(r).max())


def residual_reduced_pathwise(y: np.ndarray, z: np.ndarray,
                              f_vals: np.ndarray, phi: KernelTable,
                              ensemble: PathEnsemble) -> np.ndarray:
    """Path residual of the reduced equation including its martingale part:
    R(t) = Y(t) - F(t) - int_t^T Phi(t,s) Y(s) ds + int_t^T Z(t,s) dW^Q(s),
    the stochastic integral taken as the left-point sum
    PathEnsemble.ito_q on top of residual_reduced, F the (M, N+1) table of
    terminal.evaluate_F_table.
    Returns (M, N+1); GridMismatch unless Phi is on the ensemble's grid."""
    n = same_grid(phi, ensemble).n
    r = residual_reduced(y, f_vals, phi)[0]
    r[:, :n] += ensemble.ito_q(np.triu(z[:n, :n]).T)
    return r


# ---------------------------------------------------------------------------
# least-squares Monte Carlo for stochastic free terms
# ---------------------------------------------------------------------------

@dataclass
class LsmcResult:
    y: np.ndarray          # (M, N+1) per-path conditional-expectation fits
    z: np.ndarray          # (N+1, N+1) regression Z surface on the triangle
    z_se: np.ndarray       # matching standard errors of the slopes
    y_targets: np.ndarray  # (M, N+1) final regression targets; their
    # spread is the noise of the fitted means, compare's se_max
    sup_diffs: list[float]
    iterations: int
    max_gram_cond: float  # largest condition number of the node Grams


def _raw_powers(wt: np.ndarray) -> np.ndarray:
    """Rows (K, D, m) of the intercept and the raw powers W^p, p = 1..D-1
    (D = REGRESSION_DEGREE + 1), of node-major states wt (K, m)."""
    rows = np.empty((len(wt), REGRESSION_DEGREE + 1, wt.shape[1]))
    rows[:, 0] = 1.0
    rows[:, 1] = wt
    for p in range(2, rows.shape[1]):  # W^p = W^(p-1) W: pow takes 20x longer
        np.multiply(rows[:, p - 1], rows[:, 1], out=rows[:, p])
    return rows


def _power_stats(wt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and root-mean-square spread over the paths of each raw power
    row of _raw_powers(wt), the spread taken after centring; (K, D) each,
    zero in the intercept column.  Each row is reduced on its own, so a
    node's values do not depend on the nodes beside it in wt."""
    rows = _raw_powers(wt)
    mean, sd = np.zeros(rows.shape[:2]), np.zeros(rows.shape[:2])
    for p in range(1, rows.shape[1]):
        row = rows[:, p]
        mean[:, p] = row.mean(axis=1)
        row -= mean[:, p, None]
        sd[:, p] = np.sqrt(np.square(row).sum(axis=1) / wt.shape[1])
    return mean, sd


class _StackedBasis:
    """Every node's regression basis on the paths W (M, N+1), read by
    node rows (contiguous in the transpose of PathEnsemble.wt): B_i holds
    the intercept, then the centred, unit-variance powers W(t_i)^p, a zero
    row where W(t_i) is degenerate (t_i = 0) or the power has spread
    <= 1e-12.  The stack B^T (P, M), P = (N+1) D, is never held.  First
    come what the Z slopes read of the increments dW (M, N) and the delay
    operator op: the path mean dw_mean, the sums of squares ss_j of the
    centred increments x = dW - dw_mean, and the half-cell weights half =
    0.5 dt K(t_i, s_j) on i <= j < N with the diagonal scales 1 - L[j, j],
    K = L / trap the kernel of L.  Then the node means and scales sd (1 on
    a dead row), by _power_stats on blocks of nodes of at most LSMC_CHUNK
    (N+1) / 2 states (one node at least); then B^T is formed LSMC_CHUNK
    paths at a time to accumulate gram = B^T B, bt_f = B^T F, dwt_f =
    dW^T F and dwt_b = dW^T B.  ones is the node blocks of B^T 1; ginv[i]
    inverts node i's ridged Gram block on its live rows.
    RegressionIllConditioned if some ss_j is 0, as for a single path, or
    a block's condition number, the largest of which is cond, exceeds
    COND_LIMIT."""

    def __init__(self, w: np.ndarray, f: np.ndarray, dw: np.ndarray,
                 op: DelayOperator):
        m_paths, n1 = w.shape
        n, d = n1 - 1, REGRESSION_DEGREE + 1
        self.dw, self.dw_mean = dw, dw.mean(axis=0)
        x = dw - self.dw_mean
        self.ss = np.einsum("mj,mj->j", x, x)
        if not np.all(self.ss > 0.0):
            raise RegressionIllConditioned(
                f"increment dW_{np.flatnonzero(~(self.ss > 0.0))[0]} has no "
                f"sample variance over {len(dw)} paths; Z slopes undefined")
        del x
        trap, vals = tail_weight_matrix(op.grid), op.values
        kk = np.divide(vals, trap, out=np.zeros_like(vals), where=trap > 0.0)
        self.half = np.triu(0.5 * op.grid.dt * kk[:n, :n])
        self.scale = 1.0 - np.diag(vals)[:n]

        self.mean = np.zeros((n1, d))
        sd = np.zeros((n1, d))
        step = max(1, LSMC_CHUNK * n1 // (2 * m_paths))
        for lo in range(0, n1, step):
            part = slice(lo, lo + step)
            self.mean[part], sd[part] = _power_stats(w[:, part].T)
        self.live = sd > 1e-12
        self.live[:, 1:] &= self.live[:, 1:2]  # p = 1 is W(t_i) itself
        self.sd = np.where(self.live, sd, 1.0)  # 1 for the intercept too
        self.live[:, 0] = True

        p_rows = n1 * d
        self.gram = np.zeros((p_rows, p_rows))
        self.bt_f = np.zeros((p_rows, n1))
        self.dwt_f, self.dwt_b = np.zeros((n, n1)), np.zeros((n, p_rows))
        for lo in range(0, m_paths, LSMC_CHUNK):
            part = slice(lo, lo + LSMC_CHUNK)
            bt = self._chunk(w[part])
            fc = np.ascontiguousarray(f[part])  # a broadcast F, for BLAS
            self.gram += bt @ bt.T
            self.bt_f += bt @ fc
            self.dwt_f += dw[part].T @ fc
            self.dwt_b += dw[part].T @ bt.T
            del bt  # before the next block is formed
        self.ones = np.tile(np.eye(1, d), (n1, 1)) * m_paths  # powers centred
        self.ginv = np.zeros((n1, d, d))
        self.cond = 0.0
        at = np.arange(n1)
        for i, block in enumerate(self.gram.reshape(n1, d, n1, d)[at, :, at]):
            keep = np.ix_(self.live[i], self.live[i])
            gram = block[keep] + RIDGE * np.eye(int(self.live[i].sum()))
            cond = float(np.linalg.cond(gram))
            if cond > COND_LIMIT:
                raise RegressionIllConditioned(f"condition number {cond:.2e}")
            self.cond = max(self.cond, cond)
            self.ginv[i][keep] = np.linalg.inv(gram)

    def _chunk(self, w: np.ndarray) -> np.ndarray:
        """B^T on the paths of w (m, N+1): (P, m)."""
        rows = _raw_powers(w.T)
        rows[:, 1:] -= self.mean[:, 1:, None]
        rows[:, 1:] /= self.sd[:, 1:, None]
        rows[~self.live] = 0.0
        return rows.reshape(-1, len(w))

    def _powers(self, c: np.ndarray) -> np.ndarray:
        """The coefficients (N+1, D) of W(t_i)^p in B_i c_i, node i's
        centring and scale folded in."""
        a = np.where(self.live, c / self.sd, 0.0)
        a[:, 0] = c[:, 0] - np.einsum("ip,ip->i", a[:, 1:], self.mean[:, 1:])
        return a

    def values(self, c: np.ndarray, wt: np.ndarray) -> np.ndarray:
        """B_i c_i on every path, (N+1, M), from the node-major W^T (N+1,
        M): _horner_blocks writes each block of node rows into its rows."""
        y = np.empty(wt.shape)
        for _ in _horner_blocks(self._powers(c), wt, y):
            pass
        return y

    def sup(self, c: np.ndarray, wt: np.ndarray) -> float:
        """max |B_i c_i| over paths and nodes (NaN if a value is), one
        block of node rows of _horner_blocks at a time: no (N+1, M)
        table is formed."""
        return float(np.max([np.abs(y, out=y).max()
                             for y in _horner_blocks(self._powers(c), wt)]))


def _horner_blocks(a: np.ndarray, wt: np.ndarray,
                   out: np.ndarray | None = None):
    """Yield, for each block of at most HORNER_BLOCK / M node rows of the
    node-major states wt (N+1, M), the polynomials sum_p a[i, p] W(t_i)^p
    of its rows on every path, by Horner.  Each block is written into its
    own rows of out, or without out into one block buffer that every
    block reuses."""
    step = max(1, HORNER_BLOCK // wt.shape[1])
    buf = np.empty((min(step, len(wt)), wt.shape[1])) if out is None else None
    for lo in range(0, len(wt), step):
        w, coef = wt[lo:lo + step], a[lo:lo + step, :, None]
        y = buf[:len(w)] if out is None else out[lo:lo + step]
        np.multiply(w, coef[:, -1], out=y)
        for p in range(a.shape[1] - 2, 0, -1):
            y += coef[:, p]
            y *= w
        y += coef[:, 0]
        yield y


def _g_weighted_term(gen: DelayedGenerator, z_surface: np.ndarray
                     ) -> np.ndarray:
    """Deterministic profile of int_t^T int g(s+u) Z(t+u, s+u) alpha(du) ds
    from a mean Z surface: the row sums of _delay_walk on K(t, s) = g(s)
    Z(t, s), Z read by grid.interpolate at an atom's shifted times through
    zero_extend_kernel.  Exact zeros, Z unread, whenever g vanishes: the
    one place the LSMC tests for g = 0."""
    grid = gen.grid
    if gen.kernel.g_bound == 0.0:
        return np.zeros(grid.n + 1)

    def table_at(x):
        z = zero_extend_kernel(lambda t, s: grid.interpolate(z_surface, t, s))
        return gen.g_at(x) * z(x[:, None], x[None, :])

    table = gen.g_at(grid.nodes) * z_surface
    return _delay_walk(gen, table, table_at).sum(axis=1)


def solve_delayed_lsmc(f_vals: np.ndarray, op: DelayOperator,
                       ensemble: PathEnsemble, tol: float = 1e-10
                       ) -> LsmcResult:
    """Regression Monte Carlo for the delayed equation with stochastic F,
    given as its (M, N+1) table of terminal.evaluate_F_table, and the delay
    operator op of build_delayed_operator, as solve_delayed_picard.

    Picard sweeps regress the target F(t_i) + (op Y)(t_i) + gz on the
    polynomial basis B_i in W(t_i) of _StackedBasis.  gz is
    _g_weighted_term of op.generator, the same delay quadrature, of the
    last sweep's mean Z; on Q-paths it also takes off the drift's
    compensator sum_{k>=i} Z(t_i, s_k) b_k dt (left point, as the Ito
    sums): the equation holds under P, dW = dW^Q + b dt.  The bases stay
    fixed, so the sweeps run on the stacked coefficients c,
    Y(t_i) = B_i c_i: c <- G^-1 (b_F + K c + gz B^T 1), b_F the node blocks
    of B^T F, K[i, j] = op[i, j] (B^T B)[i, j] and G the ridged Gram blocks;
    the first sweep reads y = F, outside the span, through B^T F in full.
    The sup-difference is max |B_i (c_i - c_i_old)| over paths and nodes,
    _StackedBasis.sup, which needs no (N+1, M) table.  Y itself is formed
    once, at the converged sweep: the divergence guard reads the running
    bound sup|Y_1| + (later sup-differences) and takes sup |B c| only on a
    sweep where that bound is not below DIVERGENCE_GUARD (a NaN is not),
    then restarts the bound from it.  Z(t_i, s_j) is the
    least-squares slope of theta = target - Y on dW_j: refitted every sweep
    from dW^T F and dW^T B c for the g-term, which at g = 0 returns zeros
    without reading it; the converged sweep forms theta path by path and
    also takes the slope SEs.
    RegressionIllConditioned if a Gram block is ill-conditioned or an
    increment dW_j has no sample variance; GridMismatch unless op, the
    ensemble and F share one grid.
    """
    gen, n = op.generator, same_grid(op, ensemble, f_vals).n
    sweeps = _sweeps(tol)
    b_dt = ensemble.drift_fn.increments()
    wt = ensemble.wt  # node-major, for the basis and the sweeps
    basis = _StackedBasis(wt.T, f_vals, ensemble.dw, op)
    n1, d = basis.ones.shape
    at = np.arange(n1)
    # node i's block of column i of B^T F and, for y = F, of B^T (y op^T)
    b_f, b_y = (x.reshape(n1, d, n1)[at, :, at]
                for x in (basis.bt_f, basis.bt_f @ op.values.T))
    coupling = (basis.gram.reshape(n1, d, n1, d)
                * op.values[:, None, :, None]).reshape(n1 * d, n1 * d)
    # x_j . v = dW_j . v - mean(dW_j) sum(v)
    x_f = basis.dwt_f - np.outer(basis.dw_mean, f_vals.sum(axis=0))
    x_b = (basis.dwt_b - np.outer(basis.dw_mean, basis.ones)).reshape(n, n1, d)

    c, sup_diffs, bound = None, [], 0.0
    z_mean = np.zeros((n + 1, n + 1))
    for it in sweeps:
        gz = _g_weighted_term(gen, z_mean)
        if ensemble.tag == "Q":
            gz -= np.append(np.triu(z_mean[:n, :n]) @ b_dt, 0.0)
        rhs = b_f + b_y + gz[:, None] * basis.ones
        c_next = np.matmul(basis.ginv, rhs[:, :, None])[:, :, 0]
        if c is None:  # the first sweep starts from y = F
            dy = basis.values(c_next, wt)
            bound = max(dy.max(), -dy.min())
            dy -= f_vals.T
            diff = float(np.abs(dy, out=dy).max())
            del dy
        else:
            diff = basis.sup(c_next - c, wt)
            bound += diff
        sup_diffs.append(diff)
        c, c_prev = c_next, c
        if not bound <= DIVERGENCE_GUARD:  # NaN fails too
            bound = basis.sup(c, wt)
            if not bound <= DIVERGENCE_GUARD:
                raise PicardDiverged(
                    f"sup |Y| beyond guard after {it} iterations", sup_diffs)
        if diff < tol:
            y_prev = f_vals.T if c_prev is None else basis.values(c_prev, wt)
            target = op.values @ y_prev
            del y_prev
            target += f_vals.T
            target += gz[:, None]
            y = basis.values(c, wt)
            del wt
            theta = target - y
            z, z_se = _slope_z(theta.T, basis)
            return LsmcResult(y.T, z, z_se, target.T, sup_diffs, it,
                              basis.cond)
        b_y = (coupling @ c.ravel()).reshape(n1, d)
        # x^T theta from x^T F and x^T B c
        x_y = x_f if c_prev is None else np.einsum("jkq,kq->jk", x_b, c_prev)
        cross = x_f + x_y @ op.values.T - np.einsum("jkq,kq->jk", x_b, c)
        z_mean = _slope_fit(cross[:, :n].T, basis)[0]
    raise _stalled(tol, sup_diffs)


def _slope_z(theta: np.ndarray, basis: _StackedBasis
             ) -> tuple[np.ndarray, np.ndarray]:
    """_slope_fit of the targets theta (M, N+1), with the SEs; the
    centred targets theta_c give x^T theta_c = dW^T theta_c.  theta's
    first N columns are centred in place."""
    n = basis.dw.shape[1]
    theta_c = theta[:, :n]
    theta_c -= theta_c.mean(axis=0)
    sq = np.einsum("mi,mi->i", theta_c, theta_c)
    return _slope_fit(theta_c.T @ basis.dw, basis, sq)


def _slope_fit(cross: np.ndarray, basis: _StackedBasis,
               sq: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray | None]:
    """Z(t_i, s_j) = cross[i, j] / ss_j on i <= j < N, the OLS slope of
    theta_i on dW_j from cross[i, j] = x_j . theta_i (x the centred
    increments); column N is extrapolated linearly in s (nearest-row values
    where a row is too short).  Returns (slopes, SEs), the SEs None unless
    sq_i = |theta_c_i|^2 is given: they take rss = sq_i - z cross (clipped
    at 0) from the Gram identity, whose relative accuracy degrades like
    eps / (1 - R^2), R^2 the coefficient of determination.

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
    m_paths, n = basis.dw.shape
    raw = np.triu(cross / basis.ss)
    z = np.zeros((n + 1, n + 1))
    z[:n, :n] = raw + basis.half * (np.diag(raw) / basis.scale)
    _extrapolate_last_column(z, lambda a, b: 2.0 * a - b)
    if sq is None:
        return z, None
    rss = np.triu(np.maximum(sq[:, None] - raw * cross, 0.0))
    raw_se = np.sqrt(rss / max(m_paths - 2, 1) / basis.ss)
    se = np.zeros((n + 1, n + 1))
    se[:n, :n] = np.hypot(raw_se, np.abs(basis.half)
                          * (np.diag(raw_se) / np.abs(basis.scale)))
    _extrapolate_last_column(se, lambda a, b: np.hypot(2.0 * a, b))
    return z, se


def _extrapolate_last_column(a: np.ndarray, rule) -> None:
    """Fill column N, which has no increment of its own, by rule(a[:, N-1],
    a[:, N-2]); the two rows too short for that copy row N-2's value."""
    n = a.shape[0] - 1
    a[:n - 1, n] = rule(a[:n - 1, n - 1], a[:n - 1, n - 2])
    a[n - 1, n] = a[n, n] = a[n - 2, n]
