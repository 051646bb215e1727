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
normal draws come from a counter-based Philox stream keyed by the root
seed: path k always consumes the same counters, so ensembles are
bit-identical for a given (seed, M, N) no matter how generation is
scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import HorizonMismatch, KernelSpec, TriangularGrid
from .measures import DelayMeasure, snap_lag

ESS_FLOOR = 10.0


class DegenerateWeights(RuntimeError):
    """Effective sample size below 10, or weights that underflow to 0."""


@dataclass(frozen=True)
class DriftFunction:
    """Grid samples of b(s) = alpha((s-T, 0]) * g(s)."""

    grid: TriangularGrid
    values: np.ndarray
    bound: float

    def cumulative(self) -> np.ndarray:
        """Left-point accumulation int_0^{t_i} b ds, matching the Ito sums."""
        incr = self.values[:-1] * self.grid.dt
        return np.concatenate([[0.0], np.cumsum(incr)])

    def remaining(self) -> np.ndarray:
        """Left-point accumulation int_{t_i}^T b ds, summed backward."""
        incr = self.values[:-1] * self.grid.dt
        return np.concatenate([np.cumsum(incr[::-1])[::-1], [0.0]])


def drift(m: DelayMeasure, k: KernelSpec, grid: TriangularGrid) -> DriftFunction:
    """Tabulate the Girsanov drift on the grid.

    Uses the half-open mass alpha((s-T, 0]), so a point mass at lag 0
    contributes nothing at s = T.
    """
    if m.horizon != grid.horizon:
        raise HorizonMismatch(
            f"measure horizon {m.horizon} != grid horizon {grid.horizon}"
        )
    m.validate()
    gvals = k.g_values(grid)
    mass = np.array(
        [m.mass_left_open(snap_lag(s - grid.horizon)) for s in grid.nodes]
    )
    vals = mass * gvals
    return DriftFunction(grid, vals, k.g_bound)


@dataclass
class PathEnsemble:
    """Simulated Brownian ensemble with its measure tag.

    dw holds increments of W itself; w and wq the cumulative paths of W and
    W^Q (these coincide when the drift vanishes).  weights is the per-path
    Radon-Nikodym density M(T) for tag "P" and exactly 1 for tag "Q".
    """

    grid: TriangularGrid
    n_paths: int
    seed: int
    tag: str
    dw: np.ndarray
    w: np.ndarray
    wq: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.tag not in ("P", "Q"):
            raise ValueError(f"unknown measure tag {self.tag!r}")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be strictly positive")


def sample_paths(grid: TriangularGrid, n_paths: int, seed: int, mode: str,
                 drift_fn: DriftFunction | None = None) -> PathEnsemble:
    """Generate an ensemble of M Brownian paths on the grid.

    mode "P": raw draws are increments of W; the weight column carries
      M(T) = exp(sum_k b_k dW_k - 0.5 sum_k b_k^2 dt) with left-point b,
      and DegenerateWeights is raised if any of them underflows to 0.
    mode "Q": raw draws are increments of W^Q; W adds the accumulated
      drift and all weights are one.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    if mode not in ("P", "Q"):
        raise ValueError(f"unknown mode {mode!r}")
    if drift_fn is not None and not drift_fn.grid.same_as(grid):
        raise HorizonMismatch("drift tabulated on a different grid")

    n = grid.n
    dt = grid.dt
    rng = np.random.Generator(np.random.Philox(key=seed))
    xi = rng.standard_normal((n_paths, n)) * math.sqrt(dt)
    if drift_fn is None:
        drift_fn = DriftFunction(grid, np.zeros(n + 1), 0.0)
    b_left = drift_fn.values[:n]
    drift_cum = drift_fn.cumulative()

    zeros_col = np.zeros((n_paths, 1))
    if mode == "P":
        dw = xi
        w = np.hstack([zeros_col, np.cumsum(xi, axis=1)])
        wq = w - drift_cum[None, :]
        exponent = xi @ b_left - 0.5 * dt * float(b_left @ b_left)
        weights = np.exp(exponent)
        if not np.all(weights > 0.0):
            raise DegenerateWeights(
                f"{int(np.sum(weights == 0.0))} of {n_paths} importance "
                "weights underflow to 0")
    else:
        wq = np.hstack([zeros_col, np.cumsum(xi, axis=1)])
        w = wq + drift_cum[None, :]
        dw = xi + b_left[None, :] * dt
        weights = np.ones(n_paths)
    return PathEnsemble(grid, n_paths, seed, mode, dw, w, wq, weights)


def expect_q(ensemble: PathEnsemble, functional) -> tuple[float, float]:
    """Q-expectation of a per-path functional with a standard error.

    The functional receives the ensemble and must return one value per
    path.  Tag "Q" is a plain sample mean; tag "P" a self-normalized
    importance-sampling mean with the delta-method standard error.
    """
    x = np.asarray(functional(ensemble), dtype=float)
    if x.shape != (ensemble.n_paths,):
        raise ValueError("functional must return one value per path")
    if not np.all(np.isfinite(x)):
        raise ValueError("functional not finite on all paths")
    w = ensemble.weights
    ess = float(w.sum() / w.max())
    if ess < ESS_FLOOR:
        raise DegenerateWeights(
            f"effective sample size {ess:.2f} below {ESS_FLOOR}"
        )
    if ensemble.tag == "Q":
        est = float(x.mean())
        se = float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0
        return est, se
    wsum = float(w.sum())
    est = float((w @ x) / wsum)
    se = float(np.sqrt(np.sum((w * (x - est)) ** 2)) / wsum)
    return est, se


def girsanov_report(m: DelayMeasure, k: KernelSpec, grid: TriangularGrid,
                    n_paths: int, seed: int) -> list[tuple[str, float, float]]:
    """The three cross-check statistics written to girsanov.csv.

    mean_weight: E_P[M(T)], martingale property, should sit near 1.
    mean_WQ_T:   E^Q[W^Q(T)] from the mode-Q leg, should sit near 0.
    crosscheck_gap: |reweighted-P minus direct-Q| estimate of exp(W(T)),
      with the combined standard error.  Both legs reuse the same draws
    (common random numbers), which makes the combined SE conservative.
    """
    b = drift(m, k, grid)
    ens_p = sample_paths(grid, n_paths, seed, "P", b)
    ens_q = sample_paths(grid, n_paths, seed, "Q", b)

    wts = ens_p.weights
    mean_w = (float(wts.mean()),
              float(wts.std(ddof=1) / math.sqrt(n_paths)))
    mean_wq = expect_q(ens_q, lambda e: e.wq[:, -1])
    est_p, se_p = expect_q(ens_p, lambda e: np.exp(e.w[:, -1]))
    est_q, se_q = expect_q(ens_q, lambda e: np.exp(e.w[:, -1]))
    gap = abs(est_p - est_q)
    gap_se = math.hypot(se_p, se_q)
    return [
        ("mean_weight", mean_w[0], mean_w[1]),
        ("mean_WQ_T", mean_wq[0], mean_wq[1]),
        ("crosscheck_gap", gap, gap_se),
    ]
