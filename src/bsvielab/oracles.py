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
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .girsanov import PathEnsemble, block_matmul, expect_q_blocks
from .kernels import DelayOperator, DelayedGenerator, KernelTable, \
    implicit_factors, lag_weights, same_grid, tail_weight_matrix, \
    tail_weighted, zero_extend_kernel
from .terminal import TerminalFamily, evaluate_F_blocks

REGRESSION_DEGREE = 4
RIDGE = 1e-8
COND_LIMIT = 1e10
# sup |Y| (Picard), or the largest root mean square of Y over the paths at
# a node (LSMC), beyond which an iteration has diverged
DIVERGENCE_GUARD = 1e12
MAX_ITERATIONS = 200  # sweeps of either delayed oracle before PicardStalled


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
    """Sweeps of either delayed oracle, which stops at the first sweep
    whose difference is below tol; ValueError unless tol > 0 (a NaN is not)."""
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
    of _delay_walk, written over gt (a fresh zero table, gt unread, where
    alpha has no uniform part).  With q = r - lag, lo = max(0, c+r-N) and
    hi = min(r, c),
        op[r, c] = rho dt^2 sum_{q=lo}^{hi} a_q b_q K[q, c],
    a_q = 1/2 at q in {0, r} (the trapezoid over the lags [-t_r, 0]), b_q =
    1/2 at q in {c, c+r-N} (the one over [t_r, T]), else 1.  The halves sit
    on lo or hi, so over the prefix P[k] = K[0] + ... + K[k-1] + K[k]/2 the
    sum is P[hi] - P[lo], less K/4 where two halves meet (hi = r = c,
    lo = 0 = c+r-N); columns 0 and N hold one term of weight 1/4.  Only
    K[q, c] with q <= c is read.  Both gathers are views, with no index
    grid: P[min(r, c), c] is P with each column's diagonal value below it,
    and P[lo, c] = E[r + c, c] reads a skewed diagonal of E, P below N
    copies of its row 0.  gt is halved in place once summed, the K/4
    cells the fix-ups read kept apart."""
    m, n, dt = gen.measure, gen.grid.n, gen.grid.dt
    if not m.diffuse_mass:
        return np.zeros((n + 1, n + 1))
    e = np.empty((2 * n + 1, n + 1))
    p = e[n:]
    np.cumsum(gt, axis=0, out=p)
    inner = np.arange(1, n)
    diag, row0 = 0.25 * gt[inner, inner], 0.25 * gt[0, n - inner]
    first, last = 0.25 * gt[0, 0], 0.25 * gt[:, n]
    op = np.multiply(gt, 0.5, out=gt)
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
    op[inner, inner] -= diag
    op[inner, n - inner] -= row0
    op[:, 0], op[:, n] = first, last
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
    linearly between its two nodes, one shifted column block each.  L is
    written over table, or a copy if it is read-only or an atom reads it."""
    grid, n = gen.grid, gen.grid.n
    on_lag, between = lag_weights(gen.measure, grid)
    keep = gen.measure.diffuse_mass and (on_lag or not table.flags.writeable)
    op = _diffuse_operator(table.copy() if keep else table, gen)
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
    K = G, read by gen.G_at from gen.node_table on the nodes (no node pair
    is evaluated again) and from the spec between lags."""
    return DelayOperator(gen, _delay_walk(
        gen, gen.G_at(gen.grid.nodes, gen.node_table), gen.G_at))


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


def residual_reduced_pathwise(y_blocks, z: np.ndarray,
                              fam: TerminalFamily, phi: KernelTable,
                              ensemble: PathEnsemble):
    """Path residual of the reduced equation including its martingale part:
    R(t) = Y(t) - F(t) - int_t^T Phi(t,s) Y(s) ds + int_t^T Z(t,s) dW^Q(s),
    F the free term of the family fam on the ensemble's paths, the
    integral term as in residual_reduced and the stochastic one as the
    left-point sum of the W^Q increments, read from the ensemble's draws:
    the draws themselves under tag "Q", less the drift's b_k dt under tag
    "P".  y_blocks yields Y on the paths of each block of
    ensemble.blocks, node-major (N+1, m); for each, (Y, R) is yielded, R
    node-major in the first rows of one buffer of block_buffers that every
    block reuses, F by terminal.evaluate_F_blocks and the two products,
    one after the other, into its other N + 1 rows.  Each path rounds as on one block
    of every path.  GridMismatch unless Phi is on the ensemble's grid."""
    n = same_grid(phi, ensemble).n
    a = tail_weighted(phi.grid, phi.values)
    zu = np.triu(z[:n, :n])
    drift = (zu @ ensemble.drift_fn.increments())[:, None] \
        if ensemble.tag == "P" else None
    for (part, out), y, f in zip(ensemble.block_buffers(2 * n + 2),
                                 y_blocks, evaluate_F_blocks(fam, ensemble)):
        r, prod = out[:n + 1], out[n + 1:]
        np.subtract(y, f, out=r)
        r -= block_matmul(a, y, prod)
        ito = block_matmul(zu, ensemble.draws[part].T, prod[:n])
        if drift is not None:
            ito -= drift
        r[:n] += ito
        yield y, r


# ---------------------------------------------------------------------------
# least-squares Monte Carlo for stochastic free terms
# ---------------------------------------------------------------------------

@dataclass
class LsmcResult:
    """An LSMC run: mean (N+1,), the Q-means of the fitted Y, and se, the
    standard errors of the means of the final regression targets, whose
    spread is the noise of the fitted means (compare's se_max); no table
    is held.  readout() yields each block of paths' Y and targets,
    node-major (_readout).  z (N+1, N+1), the regression Z surface, and
    z_se, its slopes' SEs, are fitted by a second readout pass
    (fit_slopes, _slope_z) on the first read of either.  sup_diffs holds
    each sweep's difference (_StackedBasis.rms)."""

    mean: np.ndarray
    se: np.ndarray
    sup_diffs: list[float]
    iterations: int
    max_gram_cond: float  # largest condition number of the node Grams
    readout: Callable = field(repr=False, compare=False)
    fit_slopes: Callable = field(repr=False, compare=False)

    @cached_property
    def _slopes(self) -> tuple[np.ndarray, np.ndarray]:
        return self.fit_slopes()

    @property
    def z(self) -> np.ndarray:
        return self._slopes[0]

    @property
    def z_se(self) -> np.ndarray:
        return self._slopes[1]


def _shifted_powers(wt: np.ndarray, shift: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """The powers (W - shift_i)^p, p = 1..D-1 (D = REGRESSION_DEGREE + 1),
    of node-major states wt (K, m), written into out (K, D-1, m) and
    returned."""
    np.subtract(wt, shift[:, None], out=out[:, 0])
    for p in range(1, out.shape[1]):  # V^p = V^(p-1) V: pow takes 20x longer
        np.multiply(out[:, p - 1], out[:, 0], out=out[:, p])
    return out


class _StackedBasis:
    """Every node's regression basis on the paths of the ensemble, from
    blocks yielding (paths, W, F), W and F node-major (N+1, m) on the
    paths of each block paths of ensemble.blocks (_path_states): B_i
    holds the intercept, then the centred, unit-variance powers
    W(t_i)^p, a zero row where W(t_i) is degenerate (t_i = 0) or the
    power has spread <= 1e-12.  The stack B^T (P, M), P = (N+1) D, is never held.

    First come what the Z slopes read of the operator op: the half-cell
    weights half = 0.5 dt K(t_i, s_j) on i <= j < N with the diagonal
    scales 1 - L[j, j], K = L / trap the kernel of L.  Then, in one pass
    over the blocks, one chunk buffer holds a row of ones over the rows
    V_i^p = (W(t_i) - mu_i)^p (_shifted_powers), mu_i the mean of W(t_i)
    over the first block, and their products with themselves, with F and
    with the draws (M, N) accumulate, as do draws^T F and the sums of
    squares ss_j of the centred draws x = draws - draws_mean (dW up to
    b_k dt under tag "Q") and those of F less its first block's means,
    of which f_ss, F's centred sums of squares, takes off the squared
    sums over M.  F's column sums f_sum are the ones row's products with
    F.  An F broadcast along the nodes (stride-0 rows, an h that ignores
    t) has one distinct row, the one multiplied.

    The ones row's products centre the V rows in every product by a
    rank-one correction.  The centred powers of W(t_i) are U_i times the
    centred V_i, U_i[p, k] = C(p, k) mu_i^(p-k) on 1 <= k <= p, so the
    node means (of W^p) and scales sd (1 on a dead row) follow from the
    sums and the Gram's diagonal blocks, and the products of B from T_i =
    U_i / sd_i, its dead rows zero.  The shift keeps the powers' sums of
    the size of their spread, so the correction cancels no more than the
    centring it replaces, even where W(t_i) lies many spreads from 0.
    gram = B^T B, bt_f = B^T F, draws_f = draws^T F and draws_b = draws^T
    B take each node's intercept row with its exact entries: M and 0 in
    gram, the column sums of F and of the draws.  ones is the node blocks
    of B^T 1, M e_0; blocks[i] is node i's diagonal block of gram, b_f[i]
    node i's block of column i of bt_f, and ginv[i] inverts blocks[i]
    ridged on its live rows, once per pattern of live rows.
    RegressionIllConditioned if some ss_j is 0, as for a single path, or
    a block's condition number, the largest of which is cond, exceeds
    COND_LIMIT (the first such node names it)."""

    def __init__(self, blocks, ensemble: PathEnsemble, op: DelayOperator):
        draws = ensemble.draws
        m_paths, n = draws.shape
        n1, d = n + 1, REGRESSION_DEGREE + 1
        trap, vals = tail_weight_matrix(op.grid), op.values
        kk = np.divide(vals, trap, out=np.zeros_like(vals), where=trap > 0.0)
        self.half = np.triu(0.5 * op.grid.dt * kk[:n, :n])
        self.scale = 1.0 - np.diag(vals)[:n]

        draws_sum = draws.sum(axis=0)
        self.draws, self.draws_mean = draws, draws_sum / m_paths
        q_rows = n1 * (d - 1)
        gram, draws_b = np.zeros((1 + q_rows,) * 2), np.zeros((n, 1 + q_rows))
        self.ss, f_ss, shift = np.zeros(n), 0.0, None
        for (part, wt, f), (_, rows) in zip(
                blocks, ensemble.block_buffers(1 + q_rows)):
            m = wt.shape[1]
            if shift is None:
                f_rows = 1 if f.strides[0] == 0 else n1
                shift, f_shift = wt.mean(axis=1), f[:f_rows].mean(axis=1)
                bt_f, draws_f = np.zeros((1 + q_rows, f_rows)), \
                    np.zeros((n, f_rows))
            x = rows[1:].reshape(-1)[:m * n].reshape(m, n)
            np.subtract(draws[part], self.draws_mean, out=x)
            self.ss += np.einsum("mj,mj->j", x, x)
            rows[0] = 1.0
            _shifted_powers(wt, shift, rows[1:].reshape(n1, d - 1, m))
            fc = f[:f_rows]
            gram += rows @ rows.T
            bt_f += rows @ fc.T
            draws_f += draws[part].T @ fc.T
            draws_b += draws[part].T @ rows.T
            dev = rows[1:].reshape(-1)[:fc.size].reshape(fc.shape)
            np.subtract(fc, f_shift[:, None], out=dev)
            f_ss += np.einsum("jm,jm->j", dev, dev)
        del rows, x, dev  # the chunk goes before the O(P^2) work
        if not np.all(self.ss > 0.0):
            raise RegressionIllConditioned(
                f"increment dW_{np.flatnonzero(~(self.ss > 0.0))[0]} has no "
                f"sample variance over {len(draws)} paths; Z slopes "
                "undefined")
        self.draws_f = np.broadcast_to(draws_f, (n, n1))
        self.f_sum = bt_f[0]
        self.f_ss = f_ss - (self.f_sum - m_paths * f_shift) ** 2 / m_paths

        # centre the V rows: take off the rank-one part of their sums
        sums = gram[1:, 0]
        gram = gram[1:, 1:] - np.outer(sums, sums) / m_paths
        bt_f = bt_f[1:] - np.outer(sums, bt_f[0]) / m_paths
        draws_b = draws_b[:, 1:] - np.outer(draws_b[:, 0], sums) / m_paths
        # carry them to the centred powers of W(t_i) by U_i[p, k] =
        # C(p, k) mu_i^(p-k), then to B by the scales
        p = np.arange(1, d)
        u = np.array([[math.comb(a, b) for b in p] for a in p], float) \
            * shift[:, None, None] ** np.maximum(p[:, None] - p, 0)
        self.mean = np.zeros((n1, d))
        self.mean[:, 1:] = shift[:, None] ** p + np.matmul(
            u, sums.reshape(n1, d - 1, 1))[:, :, 0] / m_paths
        at = np.arange(n1)
        diag = gram.reshape(n1, d - 1, n1, d - 1)[at, :, at]
        var = np.einsum("ipk,ikl,ipl->ip", u, diag, u) / m_paths
        sd = np.zeros((n1, d))
        sd[:, 1:] = np.sqrt(np.maximum(var, 0.0))
        self.live = sd > 1e-12
        self.live[:, 1:] &= self.live[:, 1:2]  # p = 1 is W(t_i) itself
        self.sd = np.where(self.live, sd, 1.0)  # 1 for the intercept too
        self.live[:, 0] = True
        # node i's rows of B are T_i = U_i / sd_i, zero where dead, times
        # its centred V rows: gram block (i, j) is T_i G[i, j] T_j^T
        t = u * np.where(self.live, 1.0 / self.sd, 0.0)[:, 1:, None]
        tt = t.transpose(0, 2, 1)
        left = np.matmul(t, gram.reshape(n1, d - 1, q_rows))
        gram = np.matmul(left.reshape(q_rows, n1, d - 1).transpose(1, 0, 2),
                         tt).transpose(1, 0, 2).reshape(n1, d - 1, n1, d - 1)
        bt_f = np.matmul(t, bt_f.reshape(n1, d - 1, f_rows))
        draws_b = np.matmul(draws_b.reshape(n, n1, d - 1).transpose(1, 0, 2),
                            tt).transpose(1, 0, 2)

        bt_f = np.broadcast_to(bt_f, (n1, d - 1, n1))
        # each node's intercept row goes in first, with its exact entries:
        # M against the intercepts, 0 against the centred powers, and the
        # column sums of F and of the draws
        gram = np.insert(np.insert(gram, 0, 0.0, axis=1), 0, 0.0, axis=3)
        gram[:, 0, :, 0] = m_paths
        self.gram = gram.reshape(n1 * d, n1 * d)
        self.bt_f = np.insert(bt_f, 0, np.broadcast_to(self.f_sum, n1),
                              axis=1).reshape(n1 * d, n1)
        self.draws_b = np.insert(draws_b, 0, draws_sum[:, None],
                                 axis=2).reshape(n, n1 * d)
        self.ones = np.tile(np.eye(1, d), (n1, 1)) * m_paths  # powers centred
        self.blocks = self.gram.reshape(n1, d, n1, d)[at, :, at]
        self.b_f = self.bt_f.reshape(n1, d, n1)[at, :, at]
        self.ginv, self.cond = _ridged_inverses(self.blocks, self.live)

    def _powers(self, c: np.ndarray) -> np.ndarray:
        """The coefficients (N+1, D) of W(t_i)^p in B_i c_i, node i's
        centring and scale folded in."""
        a = np.where(self.live, c / self.sd, 0.0)
        a[:, 0] = c[:, 0] - np.einsum("ip,ip->i", a[:, 1:], self.mean[:, 1:])
        return a

    def values(self, c: np.ndarray, wt: np.ndarray,
               out: np.ndarray) -> np.ndarray:
        """B_i c_i on every path of the node-major states wt (N+1, m), by
        Horner, written into out (N+1, m) and returned."""
        a = self._powers(c)[:, :, None]
        np.multiply(wt, a[:, -1], out=out)
        for p in range(a.shape[1] - 2, 0, -1):
            out += a[:, p]
            out *= wt
        out += a[:, 0]
        return out

    def rms(self, c: np.ndarray, gap: bool = False) -> float:
        """The largest, over nodes i, of the root mean square over the
        paths of B_i c_i, sqrt(c_i^T B_i^T B_i c_i / M), from the products
        alone.  With gap, of B_i c_i - F(t_i) = B_i c'_i - F_c(t_i), F_c
        the centred F and c'_i = c_i less F(t_i)'s mean on the intercept:
        f_ss_i - 2 c'_i . b_f[i] on the powers is added under the root, so
        an F constant over the paths cancels to rounding of its mean, not
        of its square.  A sum rounded below 0 reads 0; a NaN gives NaN."""
        if gap:
            c = c.copy()
            c[:, 0] -= self.f_sum / len(self.draws)
        sq = np.einsum("ip,ipq,iq->i", c, self.blocks, c)
        if gap:
            sq += self.f_ss - 2.0 * np.einsum("ip,ip->i", c[:, 1:],
                                              self.b_f[:, 1:])
        return float(np.sqrt(np.maximum(sq, 0.0) / len(self.draws)).max())


def _ridged_inverses(blocks: np.ndarray, live: np.ndarray
                     ) -> tuple[np.ndarray, float]:
    """The inverses (K, D, D) of the Gram blocks (K, D, D) ridged on
    their live rows live (K, D), zero off them, and the largest condition
    number of the ridged blocks, each taken once per pattern of live rows
    on the stacked blocks of its nodes: node by node, bit for bit.
    RegressionIllConditioned, naming the first node in node order, when a
    condition number exceeds COND_LIMIT."""
    patterns, group = np.unique(live, axis=0, return_inverse=True)
    groups = [(np.flatnonzero(group.ravel() == k), np.flatnonzero(keep))
              for k, keep in enumerate(patterns)]
    ridged = [blocks[np.ix_(nodes, rows, rows)] + RIDGE * np.eye(len(rows))
              for nodes, rows in groups]
    cond = np.empty(len(blocks))
    for (nodes, _), stack in zip(groups, ridged):
        cond[nodes] = np.linalg.cond(stack)
    bad = np.flatnonzero(cond > COND_LIMIT)
    if len(bad):
        raise RegressionIllConditioned(f"condition number {cond[bad[0]]:.2e}")
    ginv = np.zeros(blocks.shape)
    for (nodes, rows), stack in zip(groups, ridged):
        ginv[np.ix_(nodes, rows, rows)] = np.linalg.inv(stack)
    return ginv, float(np.fmax.reduce(cond, initial=0.0))


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


def solve_delayed_lsmc(fam: TerminalFamily, op: DelayOperator,
                       ensemble: PathEnsemble, tol: float = 1e-10
                       ) -> LsmcResult:
    """Regression Monte Carlo for the delayed equation with the stochastic
    F of the family fam, and the delay operator op of
    build_delayed_operator, as solve_delayed_picard.  The run reads the
    paths in two passes over the ensemble's blocks, the basis and
    the converged readout, with no (M, N+1) table beside the draws.

    Picard sweeps regress the target F(t_i) + (op Y)(t_i) + gz on the
    polynomial basis B_i in W(t_i) of _StackedBasis.  gz is
    _g_weighted_term of op.generator of the last sweep's mean Z; on
    Q-paths it also takes off the drift's compensator sum_{k>=i}
    Z(t_i, s_k) b_k dt (left point, as the Ito sums): the equation holds
    under P, dW = dW^Q + b dt.  The sweeps run on the stacked
    coefficients c, Y(t_i) = B_i c_i: c <- G^-1 (b_F + K c + gz B^T 1),
    b_F the node blocks of B^T F, K[i, j] = op[i, j] (B^T B)[i, j] and G
    the ridged Gram blocks (K c is formed on the centred powers, and its
    intercepts as M op c_0); the first sweep reads y = F, outside the
    span, through B^T F in full.  A sweep's difference, the stop rule's
    and the trace's, is the largest RMS over the paths at a node of
    B_i (c_i - c_i_old), from the Gram blocks alone (_StackedBasis.rms);
    the first sweep's is that of B_i c_i - F(t_i).  The divergence guard
    reads the largest RMS of Y at a node every sweep, and trips unless it
    is at most DIVERGENCE_GUARD (a NaN is not).  The sweeps read no paths.
    Z(t_i, s_j) is the least-squares slope of theta = target - Y on dW_j:
    refitted every sweep from draws^T F and draws^T B c for the g-term,
    which at g = 0 returns zeros without reading it.
    At the converged sweep the readout (_readout) forms Y and the targets
    block by block, and girsanov.expect_q_blocks reduces them to
    LsmcResult.mean and se, taking SEs of the targets alone; the slopes
    and their SEs (_slope_z) take a second readout pass on the first read
    of LsmcResult.z or z_se.
    RegressionIllConditioned if a Gram block is ill-conditioned or an
    increment dW_j has no sample variance; GridMismatch unless op and the
    ensemble share one grid.
    """
    gen, n = op.generator, same_grid(op, ensemble).n
    sweeps = _sweeps(tol)
    b_dt = ensemble.drift_fn.increments()
    basis = _StackedBasis(_path_states(fam, ensemble), ensemble, op)
    n1, d = basis.ones.shape
    at = np.arange(n1)
    # node i's block of column i of B^T (y op^T), for y = F
    b_y = (basis.bt_f @ op.values.T).reshape(n1, d, n1)[at, :, at]
    # K on the centred powers; the intercepts' part of K c is M op c_0
    coupling = (basis.gram.reshape(n1, d, n1, d)[:, 1:, :, 1:]
                * op.values[:, None, :, None]).reshape(n1 * (d - 1), -1)
    op_m = op.values * ensemble.n_paths
    # x_j . v = draws_j . v - mean(draws_j) sum(v)
    x_f = basis.draws_f - np.outer(basis.draws_mean, basis.f_sum)
    x_b = (basis.draws_b
           - np.outer(basis.draws_mean, basis.ones)).reshape(n, n1, d)

    c, sup_diffs = None, []
    z_mean = np.zeros((n + 1, n + 1))
    for it in sweeps:
        gz = _g_weighted_term(gen, z_mean)
        if ensemble.tag == "Q":
            gz -= np.append(np.triu(z_mean[:n, :n]) @ b_dt, 0.0)
        rhs = basis.b_f + b_y + gz[:, None] * basis.ones
        c_next = np.matmul(basis.ginv, rhs[:, :, None])[:, :, 0]
        # the first sweep starts from y = F
        diff = basis.rms(c_next, True) if c is None else basis.rms(c_next - c)
        sup_diffs.append(diff)
        c, c_prev = c_next, c
        if not basis.rms(c) <= DIVERGENCE_GUARD:  # NaN fails too
            raise PicardDiverged(
                f"RMS of Y beyond guard after {it} iterations", sup_diffs)
        if diff < tol:
            readout = partial(_readout, fam, ensemble, op, basis, c, c_prev,
                              gz)
            mean, se = expect_q_blocks(
                ensemble, ((part, yt.reshape(2 * n1, -1))
                           for part, yt in readout()), slice(n1, None))
            return LsmcResult(mean[:n1], se, sup_diffs, it, basis.cond,
                              readout,
                              lambda: _slope_z(readout(), basis))
        b_y = np.column_stack([op_m @ c[:, 0], (coupling @ c[:, 1:].ravel())
                               .reshape(n1, d - 1)])
        # x^T theta from x^T F and x^T B c
        x_y = x_f if c_prev is None else np.einsum("jkq,kq->jk", x_b, c_prev)
        cross = x_f + x_y @ op.values.T - np.einsum("jkq,kq->jk", x_b, c)
        z_mean = _slope_fit(cross[:, :n].T, basis)[0]
    raise _stalled(tol, sup_diffs)


def _path_states(fam: TerminalFamily, ensemble: PathEnsemble):
    """Yield (paths, W, F) for each block paths of ensemble.blocks, both
    node-major (N+1, m): W by PathEnsemble.state_blocks, then F of the
    family fam (terminal.evaluate_F_blocks, at W's last row), each in one
    buffer that every block reuses.  Each path's W and F are those of one
    block of every path, bit for bit."""
    f_blocks = evaluate_F_blocks(fam, ensemble, ends=lambda part: wt[-1])
    for part, wt in ensemble.state_blocks():
        yield part, wt, next(f_blocks)


def _readout(fam: TerminalFamily, ensemble: PathEnsemble, op: DelayOperator,
             basis: _StackedBasis, c: np.ndarray, c_prev: np.ndarray | None,
             gz: np.ndarray):
    """Yield (paths, YT) for each block paths of ensemble.blocks, YT (2,
    N+1, m) in one buffer of block_buffers that every block reuses: Y =
    B c and the regression targets F(t_i) + (op Y_prev)(t_i) + gz_i on its
    paths, node-major, Y_prev = B c_prev (F when c_prev is None).  Y_prev
    goes into Y's rows, op's GEMM into the targets', then F and gz are
    added and Y formed: the bits of the whole tables' formulas."""
    for (part, wt, f), (_, out) in zip(_path_states(fam, ensemble),
                                       ensemble.block_buffers(2 * len(c))):
        yt = out.reshape(2, len(c), -1)
        y, target = yt
        if c_prev is None:
            np.copyto(y, f)
        else:
            basis.values(c_prev, wt, y)
        block_matmul(op.values, y, target)
        target += f
        target += gz[:, None]
        basis.values(c, wt, y)
        yield part, yt


def _slope_z(blocks, basis: _StackedBasis) -> tuple[np.ndarray, np.ndarray]:
    """_slope_fit of theta = targets - Y with the SEs, from the blocks
    (paths, YT) of _readout: each block's first N rows of theta, formed
    over its targets and shifted by the first block's row means, add
    their sums, squares and products with the draws, which a rank-one
    correction by the sums centres: |theta_c|^2 and draws^T theta_c."""
    m_paths, n = basis.draws.shape
    shift = None
    for part, (y, target) in blocks:
        theta = np.subtract(target[:n], y[:n], out=target[:n])
        if shift is None:
            shift = theta.mean(axis=1)
            sums, sq, cross = np.zeros(n), np.zeros(n), np.zeros((n, n))
        theta -= shift[:, None]
        sums += theta.sum(axis=1)
        sq += np.einsum("im,im->i", theta, theta)
        cross += theta @ basis.draws[part]
    sq -= sums ** 2 / m_paths
    cross -= np.outer(sums, basis.draws_mean)
    return _slope_fit(cross, basis, sq)


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
    m_paths, n = basis.draws.shape
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
