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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .girsanov import DriftFunction, PathEnsemble
from .kernels import TriangularGrid

GH_NODES = 64
_GH_X, _GH_W = np.polynomial.hermite.hermgauss(GH_NODES)
_GH_W_NORM = _GH_W / math.sqrt(math.pi)
_GH_SHIFT = math.sqrt(2.0) * _GH_X


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


def _growth_checked(fam: TerminalFunction, t, pts: np.ndarray) -> np.ndarray:
    vals = np.asarray(fam.h(t, pts), dtype=float)
    envelope = fam.growth_a * np.exp(fam.growth_b * np.abs(pts))
    if np.any(np.abs(vals) > envelope * (1.0 + 1e-9) + 1e-290):
        raise QuadratureError(
            "h exceeds its declared growth envelope a*exp(b|x|) "
            f"(a={fam.growth_a}, b={fam.growth_b})"
        )
    return vals


def gauss_hermite_mean(fam: TerminalFunction, t, mean, sd) -> np.ndarray:
    """E[h(t, X)] for X ~ N(mean, sd^2), vectorized over an array of means."""
    mean = np.asarray(mean, dtype=float)
    pts = mean[..., None] + sd * _GH_SHIFT
    vals = _growth_checked(fam, t, pts)
    return vals @ _GH_W_NORM


def evaluate_F(fam: TerminalFamily, t: float, ensemble: PathEnsemble) -> np.ndarray:
    """Pointwise F(t) on every path of the ensemble."""
    n_paths = ensemble.n_paths
    if isinstance(fam, Deterministic):
        return np.full(n_paths, float(fam.f0(t)))
    if isinstance(fam, GaussianLinear):
        left = ensemble.grid.nodes[:-1]
        return float(fam.f0(t)) + ensemble.dw @ np.asarray(fam.phi(t, left), dtype=float)
    return _growth_checked(fam, t, ensemble.w[:, -1])


def malliavin_F(fam: TerminalFamily, t: float, s: float,
                ensemble: PathEnsemble) -> np.ndarray:
    """Hida-Malliavin derivative D_s F(t) on every path."""
    n_paths = ensemble.n_paths
    if isinstance(fam, Deterministic):
        return np.zeros(n_paths)
    if isinstance(fam, GaussianLinear):
        return np.full(n_paths, float(fam.phi(t, s)))
    return np.asarray(fam.dh(t, ensemble.w[:, -1]), dtype=float)


def known_increment_count(grid: TriangularGrid, r: float) -> int:
    """Number of increments treated as F_r-measurable: those with left
    endpoint t_k < r (up to grid-noise tolerance)."""
    if r < -1e-12 or r > grid.horizon + 1e-12:
        raise ValueError("conditioning time outside [0, T]")
    return int(np.searchsorted(grid.nodes[:-1], r - 1e-12, side="left"))


def f0_profile(fam: Deterministic | GaussianLinear,
               grid: TriangularGrid) -> np.ndarray:
    """The deterministic part f0 at every grid node, one scalar call per
    node."""
    return np.asarray([float(fam.f0(t)) for t in grid.nodes])


def _drift_values(grid: TriangularGrid, drift_fn: DriftFunction | None) -> np.ndarray:
    if drift_fn is None:
        return np.zeros(grid.n + 1)
    return drift_fn.values


def conditional_F(fam: TerminalFamily, t: float, r: float,
                  ensemble: PathEnsemble,
                  drift_fn: DriftFunction | None = None) -> np.ndarray:
    """E^Q[F(t) | F_r] on every path, using the path prefix up to r.

    GaussianLinear is exact Gaussian conditioning: known increments keep
    their sampled values, future ones contribute their Q-mean b(t_k) dt.
    TerminalFunction integrates the N(state + remaining drift, T - r)
    transition of W(T) by Gauss-Hermite.
    """
    grid = ensemble.grid
    b = _drift_values(grid, drift_fn)
    j = known_increment_count(grid, r)
    dt = grid.dt
    if isinstance(fam, Deterministic):
        return np.full(ensemble.n_paths, float(fam.f0(t)))
    if isinstance(fam, GaussianLinear):
        left = grid.nodes[:-1]
        phi_row = np.asarray(fam.phi(t, left), dtype=float)
        known = ensemble.dw[:, :j] @ phi_row[:j]
        compensator = float(phi_row[j:] @ (b[j:-1] * dt))
        return float(fam.f0(t)) + known + compensator
    state = ensemble.w[:, j]
    remaining = float(b[j:-1].sum() * dt)
    sd = math.sqrt(max(grid.horizon - r, 0.0))
    return gauss_hermite_mean(fam, t, state + remaining, sd)


def conditional_sweep(fam: TerminalFamily, grid: TriangularGrid,
                      ensemble: PathEnsemble | None,
                      drift_fn: DriftFunction | None = None):
    """Yield (i, C_i) for i = 0..N where C_i[a, m] = E^Q[F(t_a) | F_{t_i}]
    on path m.

    The sweep maintains the partial Ito sums incrementally, so the whole
    pass over conditioning nodes costs one rank-1 update per step instead
    of a fresh O(N * M) contraction.  Deterministic families need no
    ensemble and yield a single shared column.
    """
    nodes = grid.nodes
    n = grid.n
    dt = grid.dt

    if isinstance(fam, Deterministic):
        profile = f0_profile(fam, grid)[:, None]
        for i in range(n + 1):
            yield i, profile
        return

    if ensemble is None:
        raise ValueError("stochastic family needs an ensemble")
    m_paths = ensemble.n_paths

    if isinstance(fam, GaussianLinear):
        f0_vec = f0_profile(fam, grid)
        tt, kk = np.meshgrid(nodes, nodes[:-1], indexing="ij")
        phimat = np.asarray(fam.phi(tt, kk), dtype=float)  # (N+1, N)
        bdt = _drift_values(grid, drift_fn)[:-1] * dt
        # compensator[a, i] = sum_{k >= i} phi(t_a, t_k) b_k dt
        comp = np.concatenate(
            [np.cumsum((phimat * bdt[None, :])[:, ::-1], axis=1)[:, ::-1],
             np.zeros((n + 1, 1))], axis=1)
        known = np.zeros((n + 1, m_paths))
        for i in range(n + 1):
            yield i, f0_vec[:, None] + known + comp[:, i][:, None]
            if i < n:
                known += phimat[:, i][:, None] * ensemble.dw[:, i][None, :]
        return

    remaining = np.zeros(n + 1) if drift_fn is None else drift_fn.remaining()
    for i in range(n + 1):
        mean = ensemble.w[:, i] + remaining[i]
        sd = math.sqrt(max(grid.horizon - nodes[i], 0.0))
        if fam.t_dependent:
            rows = [gauss_hermite_mean(fam, t, mean, sd) for t in nodes]
            yield i, np.asarray(rows)
        else:
            row = gauss_hermite_mean(fam, nodes[0], mean, sd)
            yield i, np.broadcast_to(row, (n + 1, m_paths))


# ---------------------------------------------------------------------------
# registries wired to the config front end
# ---------------------------------------------------------------------------

def _const_fn(value):
    return lambda t: value + 0.0 * np.asarray(t, dtype=float)


def make_f0(name: str, **params) -> Callable:
    if name == "constant":
        return _const_fn(float(params.get("value", 1.0)))
    if name == "zero":
        return _const_fn(0.0)
    if name == "exp_decay":
        rate = float(params.get("rate", 1.0))
        return lambda t: np.exp(-rate * np.asarray(t, dtype=float))
    raise KeyError(f"unknown f0 registry name {name!r}")


def make_phi(name: str, **params) -> Callable:
    if name == "constant":
        value = float(params.get("value", 1.0))
        return lambda t, u: value + 0.0 * (np.asarray(t, dtype=float)
                                           + np.asarray(u, dtype=float))
    if name == "exp_u":
        rate = float(params.get("rate", 1.0))
        return lambda t, u: np.exp(-rate * np.asarray(u, dtype=float)) \
            + 0.0 * np.asarray(t, dtype=float)
    if name == "bilinear":
        scale = float(params.get("scale", 1.0))
        return lambda t, u: scale * np.asarray(t, dtype=float) * np.asarray(u, dtype=float)
    raise KeyError(f"unknown phi registry name {name!r}")


def make_h(name: str, **params) -> TerminalFunction:
    if name == "square":
        return TerminalFunction(
            h=lambda t, x: np.asarray(x, dtype=float) ** 2,
            dh=lambda t, x: 2.0 * np.asarray(x, dtype=float),
            growth_a=3.0, growth_b=1.0)
    if name == "exp":
        return TerminalFunction(
            h=lambda t, x: np.exp(np.asarray(x, dtype=float)),
            dh=lambda t, x: np.exp(np.asarray(x, dtype=float)),
            growth_a=1.0, growth_b=1.0)
    if name == "affine":
        a0 = float(params.get("intercept", 0.0))
        a1 = float(params.get("slope", 1.0))
        return TerminalFunction(
            h=lambda t, x: a0 + a1 * np.asarray(x, dtype=float),
            dh=lambda t, x: a1 + 0.0 * np.asarray(x, dtype=float),
            growth_a=abs(a0) + abs(a1) + 1.0, growth_b=1.0)
    raise KeyError(f"unknown h registry name {name!r}")
