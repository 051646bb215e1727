"""Change of measure: drift construction, path simulation, reweighting.

The driver's Z-coefficient g enters the solution theory only through the
drift b(s) = alpha((s-T, 0]) * g(s), which tilts the Brownian motion W into
a Q-Brownian motion W^Q = W - int b.  Ensembles can be generated two ways:

  * mode "P": W is a plain Brownian path; Q-expectations are importance
    sampling with the exponential-martingale weight M(T);
  * mode "Q": the raw draws build W^Q and W is reconstructed by adding the
    accumulated drift, so Q-expectations are plain sample means.

Both modes share the discrete left-point Ito convention, so they describe
the same discrete-time model and agree beyond Monte Carlo noise.  The raw
normal draws come from a Philox stream keyed by the root seed, path after
path, so ensembles are bit-identical for a given (seed, M, N).
standard_normal rejects some draws, so the counters path k consumes depend
on the paths before it.  What holds, and is tested, is that sequential
blocks of draws give the bits of one call, and that the first k paths do
not depend on M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .kernels import DelayedGenerator, TriangularGrid

ESS_FLOOR = 10.0
LSMC_CHUNK = 2048  # paths per block of a pass over the paths (_path_blocks)


class DegenerateWeights(RuntimeError):
    """Effective sample size below 10, or weights that underflow to 0."""


@dataclass(frozen=True)
class DriftFunction:
    """Grid samples of b(s) = alpha((s-T, 0]) * g(s)."""

    grid: TriangularGrid
    values: np.ndarray

    def increments(self) -> np.ndarray:
        """b(t_k) dt for k < N: the left-point rule of the Ito sums."""
        return self.values[:-1] * self.grid.dt

    def cumulative(self) -> np.ndarray:
        """Left-point accumulation int_0^{t_i} b ds."""
        return np.concatenate([[0.0], np.cumsum(self.increments())])

    def remaining(self) -> np.ndarray:
        """Left-point accumulation int_{t_i}^T b ds, summed backward."""
        return np.concatenate([np.cumsum(self.increments()[::-1])[::-1], [0.0]])


def drift(gen: DelayedGenerator) -> DriftFunction:
    """Tabulate the Girsanov drift on the generator's grid.

    Uses the half-open mass alpha((s-T, 0]), so a point mass at lag 0
    contributes nothing at s = T.
    """
    t = gen.grid.nodes
    mass = gen.measure.mass_left_open(gen.lag(t))
    return DriftFunction(gen.grid, mass * gen.g_at(t))


@dataclass
class PathEnsemble:
    """Simulated Brownian ensemble on the grid of its drift, with its tag.

    draws (M, N) is the one path table held: the scaled normal draws,
    increments of W for tag "P" and of W^Q for tag "Q".  dw (the
    increments of W), w (W, (M, N+1)) and wq (W^Q, which coincides with
    W when the drift vanishes) are derived from it and the drift, as
    sample_paths describes: each access builds a new read-only table.
    Every pass over the paths takes the one partition blocks, each block
    node-major (K, m) in its driver's block_buffers: states forms W's
    columns, end_states its last row W(T) and dw_times a^T dW^T, with no
    whole table.  weights is the per-path Radon-Nikodym density M(T) for
    tag "P" and exactly 1 for tag "Q".  M is the number of rows of draws.
    """

    tag: str
    draws: np.ndarray
    drift_fn: DriftFunction
    weights: np.ndarray

    def __post_init__(self):
        if self.tag not in ("P", "Q"):
            raise ValueError(f"unknown measure tag {self.tag!r}")
        if self.draws.shape[1:] != (self.grid.n,):
            raise ValueError(f"draws of shape {self.draws.shape}, expected "
                             f"(M, {self.grid.n})")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be strictly positive")

    @property
    def grid(self) -> TriangularGrid:
        return self.drift_fn.grid

    @property
    def n_paths(self) -> int:
        return len(self.draws)

    @property
    def dw(self) -> np.ndarray:
        """Increments of W, (M, N): the draws under tag "P", the draws
        plus the left-point drift b_k dt under tag "Q"."""
        if self.tag == "P":
            out = self.draws.view()
        else:
            out = self.draws + self.drift_fn.increments()[None, :]
        out.flags.writeable = False
        return out

    @property
    def blocks(self) -> tuple[slice, ...]:
        """The one partition of the paths, _path_blocks(M, LSMC_CHUNK),
        which every pass over the paths takes in order."""
        return _path_blocks(self.n_paths, LSMC_CHUNK)

    def block_buffers(self, rows: int) -> tuple:
        """(paths, out) for each block paths of blocks, out (rows, m) a
        C-contiguous view of one buffer sized for the widest block, which
        every block shares: a re-iterable tuple, whose rows its driver
        hands to the producers of a pass."""
        buf = np.empty(rows * max(p.stop - p.start for p in self.blocks))
        return tuple((part, buf[:rows * (part.stop - part.start)].reshape(
            rows, part.stop - part.start)) for part in self.blocks)

    def dw_times(self, a: np.ndarray, paths: slice,
                 out: np.ndarray) -> np.ndarray:
        """a^T dW^T on the paths of the block paths, (K, N) . (N, m), into
        out (K, m), with no dw table: a^T times the draws, plus under tag
        "Q" a^T times the drift's b_k dt on every path."""
        block_matmul(a.T, self.draws[paths].T, out)
        if self.tag == "Q":
            out += (self.drift_fn.increments() @ a)[:, None]
        return out

    def states(self, paths: slice = slice(None),
               out: np.ndarray | None = None) -> np.ndarray:
        """W node-major on the paths of the block paths, (N+1, m), into
        out if given: the columns of states() bit for bit."""
        out = self._cumulative_draws(paths, out)
        if self.tag == "Q":
            out += self.drift_fn.cumulative()[:, None]
        return out

    @property
    def w(self) -> np.ndarray:
        """W on every path and node, (M, N+1): states().T, read-only."""
        out = self.states()
        out.flags.writeable = False
        return out.T

    def end_states(self, paths: slice,
                   out: np.ndarray | None = None) -> np.ndarray:
        """W(T) on the paths of the block paths, into out if given: row N
        of states() bit for bit, the same running sums of the draws one
        node at a time into one column, plus int_0^T b under tag "Q"."""
        draws = self.draws[paths]
        out = np.empty(len(draws)) if out is None else out
        out[:] = draws[:, 0]
        for k in range(1, self.grid.n):
            out += draws[:, k]
        if self.tag == "Q":
            out += self.drift_fn.cumulative()[-1]
        return out

    @property
    def wq(self) -> np.ndarray:
        """W^Q = W - int b on every path and node, (M, N+1)."""
        out = self._cumulative_draws()
        if self.tag == "P":
            out -= self.drift_fn.cumulative()[:, None]
        out.flags.writeable = False
        return out.T

    def _cumulative_draws(self, paths: slice = slice(None),
                          out: np.ndarray | None = None) -> np.ndarray:
        """Node-major (N+1, m) on the paths of the block paths, into out
        if given: 0, then each row the one before it plus a column of the
        draws, the bits of a cumsum along the nodes."""
        draws = self.draws[paths]
        if out is None:
            out = np.empty((self.grid.n + 1, len(draws)))
        out[0] = 0.0
        out[1] = draws[:, 0]
        for k in range(1, self.grid.n):
            np.add(out[k], draws[:, k], out=out[k + 1])
        return out


@cache
def _path_blocks(m_paths: int, width: int) -> tuple[slice, ...]:
    """Near-equal blocks of at most width paths (a multiple of 64), the
    whole table when it fits, each starting on a multiple of 64 paths and
    all but the last a multiple of 64 long, so that a block's paths take
    the BLAS kernel's lanes they take in the whole table; each holds at
    least width / 2 - 128 paths, too many for BLAS to take another route
    (a GEMV, or one thread).  One cached tuple serves every pass."""
    lanes = -(-m_paths // 64)
    count = -(-lanes // (width // 64))
    bounds = [min(m_paths, 64 * (lanes * k // count))
              for k in range(count + 1)]
    return tuple(slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]))


def block_matmul(a: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ x into out, (K, N) . (N, m), x one column per path of a block,
    the paths after its last multiple of 64 by a product of their own, so
    that each path rounds as on the one block of every path (BLAS rounds
    a product's last paths by kernels chosen on its whole shape)."""
    cut = x.shape[1] - x.shape[1] % 64
    np.matmul(a, x[:, :cut], out=out[:, :cut])
    np.matmul(a, x[:, cut:], out=out[:, cut:])
    return out


def sample_paths(n_paths: int, seed: int, mode: str,
                 drift_fn: DriftFunction) -> PathEnsemble:
    """Generate an ensemble of M Brownian paths on the grid of the drift.

    mode "P": raw draws are increments of W, and W^Q = W - int b; the
      weight column carries M(T) = exp(sum_k b_k dW_k - 0.5 sum_k b_k^2 dt)
      with left-point b, and DegenerateWeights is raised if any of them
      underflows to 0 or their effective sample size sum(w) / max(w) is
      below ESS_FLOOR.
    mode "Q": raw draws are increments of W^Q; W adds the accumulated
      drift, dW the drift b_k dt, and all weights are one.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")

    n = drift_fn.grid.n
    dt = drift_fn.grid.dt
    rng = np.random.Generator(np.random.Philox(key=seed))
    xi = rng.standard_normal((n_paths, n))
    xi *= math.sqrt(dt)

    if mode == "P":
        b_left = drift_fn.values[:n]
        exponent = xi @ b_left - 0.5 * dt * float(b_left @ b_left)
        weights = np.exp(exponent)
        if not np.all(weights > 0.0):
            raise DegenerateWeights(
                f"{int(np.sum(weights == 0.0))} of {n_paths} importance "
                "weights underflow to 0")
        ess = effective_sample_size(weights)
        if ess < ESS_FLOOR:
            raise DegenerateWeights(
                f"effective sample size {ess:.2f} below {ESS_FLOOR}")
    else:
        weights = np.ones(n_paths)
    return PathEnsemble(mode, xi, drift_fn, weights)


def effective_sample_size(weights: np.ndarray) -> float:
    """sum(w) / max(w): M for unit weights, 1 when one weight dominates."""
    return float(weights.sum() / weights.max())


def expect_q_blocks(ensemble: PathEnsemble, blocks,
                    se_rows: slice = slice(None)
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise Q-expectations of per-path values, and the standard errors
    of the rows se_rows (every row by default), from blocks yielding
    (paths, values), values (K, m) node-major, one column per path of the
    block paths, each reduced before the next is taken; ValueError for a
    block whose rows are not m long.  Rows that are not contiguous are
    reduced in a contiguous copy.

    Tag "Q" is a plain sample mean with the ddof-1 standard error (SE 0
    for a single path); tag "P" a self-normalized importance-sampling mean
    with the delta-method standard error.  Every row's mean is formed with
    all the others beside it, so a row's bits do not depend on se_rows;
    only the rows of se_rows take the deviation pass, formed, weighted and
    squared as many rows at a time as one buffer of M floats holds, so
    values is never written.  The blocks' weight sums, means and squared
    deviations (under tag "P" with their sums of w^2 (x - mean) and of
    w^2) merge by the pairwise update of Chan, Golub and LeVeque (The
    American Statistician 37 (1983)): one block is numpy's reductions bit
    for bit.  A merged sum of squares rounded below 0 is 0.
    """
    w_all = ensemble.weights if ensemble.tag == "P" else None
    buf, acc = np.empty(ensemble.n_paths), None
    for paths, values in blocks:
        x, m = np.ascontiguousarray(values, float), len(ensemble.draws[paths])
        if x.shape[1:] != (m,):
            raise ValueError(f"values of shape {x.shape} on a block of {m} "
                             "paths: expected (K, m), one column per path")
        x_se = x[se_rows]
        w = None if w_all is None else w_all[paths]
        sq, s1 = np.empty(len(x_se)), np.zeros(len(x_se))
        if w is None:  # np.mean and np.std(ddof=1), step by step
            wsum, w2, est = float(m), float(m), x.sum(axis=1) / m
        else:
            wsum, w2 = float(w.sum()), float(w @ w)
            est = (x @ w) / wsum
        est_se = est[se_rows]
        step = max(1, ensemble.n_paths // m)  # rows of at most M floats
        for lo in range(0, len(x_se), step):
            rows, at = x_se[lo:lo + step], slice(lo, lo + step)
            dev = np.subtract(rows, est_se[at, None],
                              out=buf[:rows.size].reshape(rows.shape))
            if w is not None:
                dev *= w
                if m < ensemble.n_paths:  # blocks of other paths merge in
                    s1[at] = np.einsum("km,m->k", dev, w)
            np.square(dev, out=dev)
            sq[at] = dev.sum(axis=1)
        block = wsum, est, sq, s1, w2
        acc = block if acc is None else _merge(acc, block, se_rows)
    wsum, est, sq = acc[0], acc[1], np.maximum(acc[2], 0.0)
    if w_all is not None:
        return est, np.sqrt(sq) / wsum
    return est, np.sqrt(sq / max(wsum - 1.0, 1.0)) / math.sqrt(wsum)


def _merge(a: tuple, b: tuple, se_rows: slice) -> tuple:
    """Two blocks' moments merged, each moved to the merged means; the
    squared deviations and their weighted sums are those of se_rows."""
    (wa, ea, sqa, s1a, w2a), (wb, eb, sqb, s1b, w2b) = a, b
    est = ea + (eb - ea) * (wb / (wa + wb))
    da, db = (ea - est)[se_rows], (eb - est)[se_rows]
    sq = sqa + sqb + da * (2.0 * s1a + da * w2a) + db * (2.0 * s1b + db * w2b)
    return wa + wb, est, sq, s1a + s1b + da * w2a + db * w2b, w2a + w2b


def girsanov_report(b: DriftFunction, n_paths: int,
                    seed: int) -> list[tuple[str, float, float]]:
    """The three cross-check statistics of girsanov.csv, on b's grid.

    mean_weight: E_P[M(T)], martingale property, should sit near 1.
    mean_WQ_T:   E^Q[W^Q(T)] from the mode-Q leg, should sit near 0.
    crosscheck_gap: |reweighted-P minus direct-Q| estimate of exp(W(T)),
      with the combined SE, conservative as both legs read one draw: its
      running sum is W(T) under P and W^Q(T) = W(T) - int b under Q.
    All are expect_q_blocks estimates on the one block of every path: one
    call stacks the Q leg's plain means, the other reweights exp(W(T))
    alone, as a mode-P row's bits depend on the rows beside it.
    """
    ens_p = sample_paths(n_paths, seed, "P", b)
    ens_q = PathEnsemble("Q", ens_p.draws, b, np.ones(n_paths))
    w_t = ens_p.end_states(slice(None))
    q_rows = np.stack([ens_p.weights, w_t, np.exp(w_t + b.cumulative()[-1])])
    p_row = np.exp(w_t)[None]
    if not (np.isfinite(q_rows).all() and np.isfinite(p_row).all()):
        raise ValueError("functional not finite on all paths")
    est, se = expect_q_blocks(ens_q, [(slice(None), q_rows)])
    est_p, se_p = expect_q_blocks(ens_p, [(slice(None), p_row)])
    return [
        ("mean_weight", float(est[0]), float(se[0])),
        ("mean_WQ_T", float(est[1]), float(se[1])),
        ("crosscheck_gap", float(abs(est_p[0] - est[2])),
         math.hypot(se_p[0], se[2])),
    ]
