"""Free-term families F(t): evaluation, Q-conditionals, Malliavin readout.

Three closed families cover the test surface while keeping conditional
expectations exact:

  * Deterministic     F(t) = f0(t)
  * GaussianLinear    F(t) = f0(t) + int_0^T phi(t, u) dW(u)
  * TerminalFunction  F(t) = h(t, W(T)),  |h(t,x)| <= a * exp(b|x|)

Ito integrals are discretized with left-point sums on the ensemble grid, and
the conditional formulas use the same convention, so tower identities hold
exactly on the discrete model (the O(dt) continuum bias is carried by the
test tolerances, not hidden).  TerminalFunction conditionals integrate the
Gaussian transition with a 64-node Gauss-Hermite rule and refuse to proceed
when h breaks its declared growth envelope on the quadrature points.

Along the paths, conditional_sweep reads that rule through a Chebyshev
interpolant in the state, one per node, fitted once on the states of
every path and evaluated one block of paths at a time: the rule is
evaluated at CHEB_NODES Chebyshev-Lobatto points spanning the node's
states (its end points the extreme states themselves), and the fit must
match the rule at the CHEB_NODES - 1 interleaved points to CHEB_TOL times
its largest node value; the series is summed only up to its last
coefficient above the rounding of its own transform.  A node whose states
do not spread (t_0) takes the rule at its one state for every path.  A
node whose transition has sd = 0 (t_N), with too few paths to gain, or
whose fit fails that certificate takes the rule at every state.  The
growth guard checks every point whose h value enters a result; as the
extreme states are interpolation points, the hull of the checked points
is the one the rule at every state would check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .girsanov import DriftFunction, PathEnsemble, block_matmul
from .kernels import TriangularGrid

GH_NODES = 64
_GH_X, _GH_W = np.polynomial.hermite.hermgauss(GH_NODES)
_GH_W_NORM = _GH_W / math.sqrt(math.pi)
_GH_SHIFT = math.sqrt(2.0) * _GH_X
# Means per block of the Gauss-Hermite layer: a block's 256 x 64 points,
# envelope and h values (128 KiB each) stay in L2.
GH_BLOCK = 256

# conditional_sweep's interpolant: K = CHEB_NODES Chebyshev-Lobatto points
# per node, certified where its fit and the rule agree to CHEB_TOL times
# the largest value at those points.
CHEB_NODES = 32
CHEB_TOL = 1e-13


def _cos_pi(m: np.ndarray, n: int) -> np.ndarray:
    """cos(pi m / n) for integer m, each value +-sin(pi r / (2n)) with
    0 <= r <= n, so that the cosine's symmetries hold exactly.  Cosines
    evaluated apart miss them by an ulp; the cosine transform below then
    leaves coefficient noise that put the sweep 8.5e-15 from the rule,
    against 8e-16 with them exact (h = x^2, N = 40, M = 20000)."""
    m = np.asarray(m) % (2 * n)
    m = np.minimum(m, 2 * n - m)  # cos(pi m/n) = cos(pi (2n - m)/n)
    q = np.minimum(m, n - m)      # cos(pi m/n) = -cos(pi (n - m)/n)
    return np.where(m > q, -1.0, 1.0) * np.sin(np.pi * (n - 2 * q) / (2 * n))


# _CHEB_X: the 2K - 1 Lobatto points of degree 2K - 2 on [-1, 1], from 1
# down; the even ones are the K nodes, the odd ones the K - 1 interleaved
# check points.  _CHEB_COEF maps the K node values to the coefficients c_k
# of sum_k c_k T_k (a type-I cosine transform, first and last rows and
# columns halved).
_CHEB_X = _cos_pi(np.arange(2 * CHEB_NODES - 1), 2 * CHEB_NODES - 2)
_CHEB_COEF = (2.0 / (CHEB_NODES - 1)) * _cos_pi(
    np.outer(np.arange(CHEB_NODES), np.arange(CHEB_NODES)), CHEB_NODES - 1)
_CHEB_COEF[[0, -1]] *= 0.5
_CHEB_COEF[:, [0, -1]] *= 0.5

# W(s) at which the F_s-conditionals of the Z formula are anchored
Z_REF_STATE = 0.0


class QuadratureError(RuntimeError):
    """h exceeded its declared growth envelope on the quadrature points."""


@dataclass(frozen=True)
class Deterministic:
    """F(t) = f0(t): no randomness, Z is identically zero."""

    f0: Callable


@dataclass(frozen=True)
class GaussianLinear:
    """F(t) = f0(t) + int_0^T phi(t, u) dW(u) with deterministic phi."""

    f0: Callable
    phi: Callable


@dataclass(frozen=True)
class TerminalFunction:
    """F(t) = h(t, W(T)) with analytic state derivative dh = dh/dx.

    growth_a, growth_b declare |h(t,x)| <= growth_a * exp(growth_b |x|);
    t_dependent=False lets conditionals reuse one quadrature for every t.
    """

    h: Callable
    dh: Callable
    growth_a: float
    growth_b: float
    t_dependent: bool = False


TerminalFamily = Union[Deterministic, GaussianLinear, TerminalFunction]


def is_stochastic(fam: TerminalFamily) -> bool:
    return not isinstance(fam, Deterministic)


def _growth_bound(fam: TerminalFunction, pts: np.ndarray) -> np.ndarray:
    """The envelope a*exp(b|x|) on pts, widened by the guard's slack."""
    return fam.growth_a * np.exp(fam.growth_b * np.abs(pts)) * (1.0 + 1e-9) + 1e-290


def _growth_checked(fam: TerminalFunction, t, pts: np.ndarray,
                    bound: np.ndarray) -> np.ndarray:
    vals = np.asarray(fam.h(t, pts), dtype=float)
    # written so that a NaN value fails the test
    if not np.all(np.abs(vals) <= bound):
        raise QuadratureError(
            "h exceeds its declared growth envelope a*exp(b|x|) "
            f"(a={fam.growth_a}, b={fam.growth_b})"
        )
    return vals


def _gh_sum(vals: np.ndarray) -> np.ndarray:
    """The Gauss-Hermite rule's weighted sum over the last axis of vals
    (GH_NODES values, or 1 that stands for GH_NODES equal ones), row by
    row: a BLAS GEMV would give a row bits that depend on its neighbours."""
    return (vals * _GH_W_NORM).sum(axis=-1)


def gauss_hermite_mean(fam: TerminalFunction, t, mean, sd) -> np.ndarray:
    """E[h(t, X)] for X ~ N(mean, sd^2), vectorized over an array of means;
    a 1-D array of times t adds a leading axis, one row per time.

    The means go GH_BLOCK at a time, each block's points and envelope built
    once for every t; a mean's value is _gh_sum of its own row, the same
    bits in any call.  With sd = 0 h and the growth guard see a mean once.
    """
    mean = np.asarray(mean, dtype=float)
    flat = mean.reshape(-1)
    times = [t] if np.ndim(t) == 0 else t
    out = np.empty((len(times), len(flat)))
    shift = sd * _GH_SHIFT if sd else np.zeros(1)
    for lo in range(0, len(flat), GH_BLOCK):
        pts = flat[lo:lo + GH_BLOCK, None] + shift
        bound = _growth_bound(fam, pts)
        for row, ta in zip(out, times):
            vals = _growth_checked(fam, ta, pts, bound)
            row[lo:lo + GH_BLOCK] = _gh_sum(vals)
    return out.reshape(np.shape(t) + mean.shape)


def _times(fam: TerminalFunction, grid: TriangularGrid) -> np.ndarray:
    """The times at which h is evaluated: every node, or only t_0 when h
    ignores t, its one row then standing for every node."""
    return grid.nodes if fam.t_dependent else grid.nodes[:1]


def evaluate_F_blocks(fam: GaussianLinear | TerminalFunction,
                      ensemble: PathEnsemble) -> Callable:
    """The function (paths, out, w_t=None) that writes F(t_a) of a
    stochastic family on every node and the paths of the block paths
    into out's first f_rows rows and returns it, node-major (N+1, m): for
    GaussianLinear, one GEMM of the phi table of
    gaussian_linear_conditionals with the block's increments
    (PathEnsemble.dw_times, no dW table); a terminal function is
    growth-checked at each of its _times at W(T), w_t where the caller
    has formed it, else end_states in F's last row (which np.stack writes
    last, should h return W(T) itself), and broadcast to every node
    (stride-0 rows when h ignores t).  f0 and phi are evaluated once."""
    grid = ensemble.grid
    n1 = grid.n + 1
    if isinstance(fam, GaussianLinear):
        a, f0 = _phi_table(fam, grid)[:, :-1].T, f0_profile(fam, grid)

        def gaussian(part, out, w_t=None):
            out = ensemble.dw_times(a, part, out[:n1])
            out += f0[:, None]
            return out
        return gaussian
    times = _times(fam, grid)

    def terminal(part, out, w_t=None):
        if w_t is None:
            w_t = ensemble.end_states(part, out[len(times) - 1])
        bound = _growth_bound(fam, w_t)
        out = np.stack([_growth_checked(fam, t, w_t, bound) for t in times],
                       out=out[:len(times)])
        return np.broadcast_to(out, (n1, out.shape[1]))
    return terminal


def f_rows(fam: GaussianLinear | TerminalFunction, grid) -> int:
    """The rows evaluate_F_blocks writes: N + 1, or one per _times."""
    return len(grid.nodes if isinstance(fam, GaussianLinear)
               else _times(fam, grid))


def f0_profile(fam: Deterministic | GaussianLinear,
               grid: TriangularGrid) -> np.ndarray:
    """The deterministic part f0 at every grid node, one scalar call per
    node."""
    return np.asarray([float(fam.f0(t)) for t in grid.nodes])


def _phi_table(fam: GaussianLinear, grid: TriangularGrid) -> np.ndarray:
    """phi(t_a, t_b) on every pair of nodes, (N+1, N+1), the one evaluation
    of phi; its first N columns are the increments' left endpoints t_k."""
    tt, ss = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    return np.asarray(fam.phi(tt, ss), dtype=float)


def gaussian_linear_conditionals(fam: GaussianLinear, drift_fn: DriftFunction):
    """(c, phimat) with E^Q[F(t_a) | F_{t_i}] = c[a, i] + sum_{k<i}
    phimat[a, k] dW_k on every path of the drift's grid: phimat[a, k] =
    phi(t_a, t_k), and c[a, i] = f0(t_a) + sum_{k>=i} phi(t_a, t_k) b_k dt
    adds the Q-mean of the increments still unknown at t_i."""
    grid = drift_fn.grid
    phimat = _phi_table(fam, grid)[:, :-1]
    comp = np.cumsum((phimat * drift_fn.increments())[:, ::-1], axis=1)[:, ::-1]
    c = f0_profile(fam, grid)[:, None] + np.concatenate(
        [comp, np.zeros((grid.n + 1, 1))], axis=1)
    return c, phimat


def _q_transition(drift_fn: DriftFunction):
    """(shift, sd) with W(T) | F_{t_i} ~ N(W(t_i) + shift[i], sd[i]^2)
    under Q: shift the left-point int_{t_i}^T b, sd = sqrt(T - t_i)."""
    grid = drift_fn.grid
    return drift_fn.remaining(), np.sqrt(np.maximum(grid.horizon - grid.nodes, 0.0))


def mean_profile(fam: TerminalFamily, drift_fn: DriftFunction) -> np.ndarray:
    """E^Q[F(t_a) | F_0] on the drift's grid: f0 for a deterministic
    family, column 0 of gaussian_linear_conditionals for GaussianLinear,
    one Gauss-Hermite layer at W(0) = 0 for a terminal function, at each
    of its _times, broadcast to every node."""
    if not is_stochastic(fam):
        return f0_profile(fam, drift_fn.grid)
    if isinstance(fam, GaussianLinear):
        return gaussian_linear_conditionals(fam, drift_fn)[0][:, 0]
    shift, sd = _q_transition(drift_fn)
    return np.broadcast_to(gauss_hermite_mean(
        fam, _times(fam, drift_fn.grid), shift[0], sd[0]), drift_fn.grid.n + 1)


def conditional_sweep(fam: TerminalFunction, ensemble: PathEnsemble,
                      blocks):
    """Yield (i, C_i) for each (paths, out) of blocks in turn, and within
    it for i = 0..N, where C_i[k, m] = E^Q[F(t_a) | F_{t_i}] on path m of
    the block, under the ensemble's drift, t_a the k-th of _times: one
    row per node, or t_0's one row standing for every node when h
    ignores t.  A block's N + 1 layers are read before the next block is
    taken, and row i of its view out only until (i, C_i) is yielded.

    Each node reads the Gauss-Hermite rule through a Chebyshev interpolant
    in the state (_chebyshev_fit), fitted once per node on [min, max] of
    the node's states over the paths of every block: the rule at K =
    CHEB_NODES Chebyshev-Lobatto points, the end points the extreme states
    exactly, turned into coefficients by one fixed K x K cosine matrix,
    chopped after the last term above that transform's rounding
    (_chopped_length), and certified against the rule at the K - 1
    interleaved points to CHEB_TOL times the largest node value.  The
    extremes take a first pass over the blocks, each forming its states
    in its (N+1, m) view out (PathEnsemble.states); rounding is monotone,
    so the shifted extremes of W are the extreme shifted states.  A second
    pass evaluates the fits at each block's states, read as contiguous
    rows of its W: one product of the kept coefficients with the table of
    those T_k at the states (_chebyshev_table), every time row at once;
    each path rounds as on one block of every path.
    A node whose states are all equal (t_0) takes the rule at its one
    state for every path, the bits of mean_profile's layer whatever M is.
    A node with sd = 0 (t_N), M <= 2K - 1 paths or a failed certificate
    takes one gauss_hermite_mean call over each block's states instead; at
    sd = 0 that call reads h once per state.  The growth guard checks
    every point whose h value enters a result; as the extreme states are
    interpolation points, the hull of those points is the one the rule at
    every state checks.
    """
    grid = ensemble.grid
    times = _times(fam, grid)
    shift, sd = _q_transition(ensemble.drift_fn)
    rows = grid.n + 1
    lo, hi = np.full(rows, np.inf), np.full(rows, -np.inf)
    for part, out in blocks:
        wt = ensemble.states(part, out)
        np.minimum(lo, wt.min(axis=1), out=lo)
        np.maximum(hi, wt.max(axis=1), out=hi)
    layers = [_node_layer(fam, times, lo[i] + shift[i], hi[i] + shift[i],
                          sd[i], ensemble.n_paths) for i in range(rows)]
    for part, out in blocks:
        wt = ensemble.states(part, out)
        for i, layer in enumerate(layers):
            yield i, layer(wt[i] + shift[i])


def _node_layer(fam: TerminalFunction, times: np.ndarray, lo, hi,
                sd: float, m_paths: int) -> Callable:
    """The function that takes a node's shifted states x to
    gauss_hermite_mean(fam, times, x, sd), lo and hi the extreme states
    over m_paths paths (see conditional_sweep): the rule at the one state
    when lo = hi, else the fit of _chebyshev_fit, else the rule at every
    state."""
    if lo == hi:
        c = gauss_hermite_mean(fam, times, np.array([lo]), sd)
        return lambda x: np.broadcast_to(c, (len(c), len(x)))
    fit = _chebyshev_fit(fam, times, lo, hi, sd, m_paths)
    if fit is None:
        return lambda x: gauss_hermite_mean(fam, times, x, sd)
    mid, half, coef = fit
    return lambda x: block_matmul(coef, _chebyshev_table(
        (x - mid) / half, coef.shape[1]), np.empty((len(coef), len(x))))


def _chebyshev_fit(fam: TerminalFunction, times: np.ndarray, lo, hi,
                   sd: float, m_paths: int):
    """(mid, half, coef) of the certified Chebyshev interpolant of
    gauss_hermite_mean(fam, times, x, sd) on [lo, hi] = [mid - half,
    mid + half] (see conditional_sweep), or None where it does not apply
    (sd = 0, or m_paths <= 2K - 1) or fails its certificate.  The 2K - 1
    points go through one gauss_hermite_mean call, its growth guard
    included.  The series keeps its first _chopped_length terms, the
    scale of a time row being its largest |node value|; the certificate
    checks that chopped fit, at the check points as at the states the
    kept coefficients times a _chebyshev_table of as many rows, one GEMM
    for every time row."""
    if not (sd > 0.0 and hi > lo and m_paths > 2 * CHEB_NODES - 1):
        return None
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    pts = mid + half * _CHEB_X
    pts[0], pts[-1] = hi, lo
    vals = gauss_hermite_mean(fam, times, pts, sd)
    nodes, checks = vals[:, ::2], vals[:, 1::2]
    coef = nodes @ _CHEB_COEF.T
    scale = np.abs(nodes).max(axis=1, keepdims=True)
    coef = coef[:, :_chopped_length(coef, scale)]
    fit = coef @ _chebyshev_table(_CHEB_X[1::2], coef.shape[1])
    if not np.all(np.abs(fit - checks) <= CHEB_TOL * scale):
        return None
    return mid, half, coef


def _chopped_length(coef: np.ndarray, scale: np.ndarray) -> int:
    """The length k0 of the shortest prefix of the Chebyshev coefficients
    coef (one row per time) whose dropped tail sum_(j >= k0) |c_j| is at
    most CHEB_NODES eps scale in every row: the rounding of the K x K
    transform that made coef, so the terms after k0 are noise (Aurentz &
    Trefethen, "Chopping a Chebyshev series", ACM TOMS 43, 2017)."""
    tail = np.cumsum(np.abs(coef[:, ::-1]), axis=1)[:, ::-1]
    floor = CHEB_NODES * np.finfo(float).eps * scale
    # tail falls along each row, so the rows' noise terms are a suffix
    return coef.shape[1] - int(np.all(tail <= floor, axis=0).sum())


def _chebyshev_table(s: np.ndarray, rows: int) -> np.ndarray:
    """T_k(s) for k = 0..rows - 1, one row per k, by the three-term
    recurrence T_k = 2 s T_(k-1) - T_(k-2)."""
    table = np.empty((rows, len(s)))
    table[:1] = 1.0  # slices, as a chopped series may keep 0 or 1 rows
    table[1:2] = s
    s2 = s + s
    for k in range(2, rows):
        np.multiply(s2, table[k - 1], out=table[k])
        table[k] -= table[k - 2]
    return table


def malliavin_table(fam: GaussianLinear | TerminalFunction,
                    drift_fn: DriftFunction) -> np.ndarray:
    """d[v, j] = E^Q[D_{s_j} F(t_v) | F_{s_j}] at W(s_j) = Z_REF_STATE,
    an (N+1) x (N+1) table over every v and j of the drift's grid.

    GaussianLinear: D_s F(t) = phi(t, s) is deterministic, _phi_table.
    TerminalFunction: D_s F(t) = dh(t, W(T)), and W(T) | F_{s_j} is
    N(Z_REF_STATE + remaining drift, T - s_j) under Q, integrated by one
    Gauss-Hermite layer: one dh call on the (N+1) x 64 points per time of
    _times, broadcast to every v.
    """
    grid = drift_fn.grid
    if isinstance(fam, GaussianLinear):
        return _phi_table(fam, grid)
    shift, sd = _q_transition(drift_fn)
    pts = (Z_REF_STATE + shift)[:, None] + sd[:, None] * _GH_SHIFT
    return np.broadcast_to(
        np.stack([_gh_sum(np.asarray(fam.dh(t, pts), dtype=float))
                  for t in _times(fam, grid)]), (grid.n + 1, grid.n + 1))


# ---------------------------------------------------------------------------
# registries wired to the config front end
# ---------------------------------------------------------------------------

class UnknownParameter(ValueError):
    """A registry entry was given a parameter (args[0]) it does not take."""


def _params(params: dict, **defaults) -> list[float]:
    """The values of params in the order of defaults, each default where
    params has none; UnknownParameter for a key defaults does not name."""
    for key in params:
        if key not in defaults:
            raise UnknownParameter(key)
    return [float(params.get(key, value)) for key, value in defaults.items()]


def _const_fn(value):
    return lambda t: value + 0.0 * np.asarray(t, dtype=float)


def make_f0(name: str, **params) -> Callable:
    if name == "constant":
        value, = _params(params, value=1.0)
        return _const_fn(value)
    if name == "zero":
        _params(params)
        return _const_fn(0.0)
    if name == "exp_decay":
        rate, = _params(params, rate=1.0)
        return lambda t: np.exp(-rate * np.asarray(t, dtype=float))
    raise KeyError(f"unknown f0 registry name {name!r}")


def make_phi(name: str, **params) -> Callable:
    if name == "constant":
        value, = _params(params, value=1.0)
        return lambda t, u: value + 0.0 * (np.asarray(t, dtype=float)
                                           + np.asarray(u, dtype=float))
    if name == "exp_u":
        rate, = _params(params, rate=1.0)
        return lambda t, u: np.exp(-rate * np.asarray(u, dtype=float)) \
            + 0.0 * np.asarray(t, dtype=float)
    if name == "bilinear":
        scale, = _params(params, scale=1.0)
        return lambda t, u: scale * np.asarray(t, dtype=float) * np.asarray(u, dtype=float)
    raise KeyError(f"unknown phi registry name {name!r}")


def make_h(name: str, **params) -> TerminalFunction:
    if name == "square":
        _params(params)
        return TerminalFunction(
            h=lambda t, x: np.asarray(x, dtype=float) ** 2,
            dh=lambda t, x: 2.0 * np.asarray(x, dtype=float),
            growth_a=3.0, growth_b=1.0)
    if name == "exp":
        _params(params)
        return TerminalFunction(
            h=lambda t, x: np.exp(np.asarray(x, dtype=float)),
            dh=lambda t, x: np.exp(np.asarray(x, dtype=float)),
            growth_a=1.0, growth_b=1.0)
    if name == "affine":
        a0, a1 = _params(params, intercept=0.0, slope=1.0)
        return TerminalFunction(
            h=lambda t, x: a0 + a1 * np.asarray(x, dtype=float),
            dh=lambda t, x: a1 + 0.0 * np.asarray(x, dtype=float),
            growth_a=abs(a0) + abs(a1) + 1.0, growth_b=1.0)
    raise KeyError(f"unknown h registry name {name!r}")
