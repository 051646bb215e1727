"""Explicit solution formulas: Y from the resolvent, U, the Z surface,
smoothness and norm diagnostics.

Everything here evaluates closed-form conditional expectations and
deterministic quadratures; the Monte Carlo element is only the ensemble of
conditioning paths.  The independent numerical solvers that validate these
formulas live in oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .girsanov import DriftFunction, PathEnsemble
from .kernels import GridMismatch, HorizonMismatch, KernelSpec, KernelTable, \
    ResolventTable, TriangularGrid, build_phi, tail_weight_matrix, \
    trapezoid_weights
from .measures import DelayMeasure
from .terminal import Deterministic, GaussianLinear, TerminalFamily, \
    TerminalFunction, _GH_SHIFT, _GH_W_NORM, conditional_sweep, evaluate_F, \
    f0_profile, is_stochastic

# W(s) at which the F_s-conditional of the Z formula is anchored
Z_REF_STATE = 0.0


class UnsupportedFamily(ValueError):
    """Family object not one of the three supported variants."""


@dataclass
class SolutionField:
    """Solution data on the grid.

    y is a single profile (N+1,) for deterministic families and an
    M x (N+1) per-path matrix otherwise; y_se holds the Monte Carlo
    standard error of the node means where applicable.  z is the
    deterministic Z(t_i, s_j) surface on the triangle i <= j (zeros for
    deterministic families, None until solve_Z runs).
    """

    grid: TriangularGrid
    family: TerminalFamily
    y: np.ndarray
    y_se: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    ensemble: Optional[PathEnsemble] = None

    @property
    def stochastic(self) -> bool:
        return self.y.ndim == 2

    def y_mean(self) -> np.ndarray:
        return self.y.mean(axis=0) if self.stochastic else self.y


@dataclass(frozen=True)
class NormReport:
    beta: float
    h1: float
    h2: float
    s2: float


def solve_Y(fam: TerminalFamily, psi: ResolventTable,
            drift_fn: Optional[DriftFunction], grid: TriangularGrid,
            ensemble: Optional[PathEnsemble] = None) -> SolutionField:
    """Y(t) = E^Q[F(t) | F_t] + int_t^T Psi(t,r) E^Q[F(r) | F_t] dr.

    Deterministic families need no ensemble and produce a single profile;
    stochastic families evaluate the formula path by path, the prefix up
    to t supplying the conditioning information.
    """
    if not psi.grid.same_as(grid):
        raise GridMismatch("resolvent built on a different grid")
    if is_stochastic(fam):
        if ensemble is None:
            raise ValueError("stochastic family needs an ensemble")
        if not ensemble.grid.same_as(grid):
            raise GridMismatch("ensemble on a different grid")
    n = grid.n
    a = psi.values * tail_weight_matrix(grid)

    if not is_stochastic(fam):
        rows = next(iter(conditional_sweep(fam, grid, None)))[1][:, 0]
        y = rows + a @ rows
        return SolutionField(grid, fam, y)

    m_paths = ensemble.n_paths
    y = np.empty((m_paths, n + 1))
    for i, c in conditional_sweep(fam, grid, ensemble, drift_fn):
        y[:, i] = c[i] + a[i] @ c
    se = y.std(axis=0, ddof=1) / math.sqrt(m_paths) if m_paths > 1 \
        else np.zeros(n + 1)
    return SolutionField(grid, fam, y, y_se=se, ensemble=ensemble)


def compute_U(fam: TerminalFamily, fld: SolutionField, m: DelayMeasure,
              k: KernelSpec, grid: TriangularGrid) -> np.ndarray:
    """U(t) = F(t) + int_t^T alpha((r-T,0]) G(t,r) Y(r) dr - Y(t).

    For stochastic families F(t) is the raw (generally non-adapted) value
    on each path, so U collects exactly the martingale part int Z dW^Q.

    The defining formula weights G with the half-open mass alpha((r-T, 0]),
    which differs from the closed mass alpha([r-T, 0]) only at the finitely
    many r where an atom sits exactly at r - T -- a null set of the
    r-integral.  The quadrature therefore uses the closed-mass kernel, the
    same table that defined Y; evaluating the half-open version at a grid
    node that hits an atom would inject an O(dt) endpoint error into an
    integral the conventions cannot actually distinguish.
    """
    if not fld.grid.same_as(grid):
        raise GridMismatch("solution field on a different grid")
    if m.horizon != grid.horizon:
        raise HorizonMismatch("measure horizon differs from grid")
    kern = build_phi(m, k, grid).values * tail_weight_matrix(grid)
    if not fld.stochastic:
        return f0_profile(fam, grid) + kern @ fld.y - fld.y
    ens = fld.ensemble
    f_vals = np.stack([evaluate_F(fam, t, ens) for t in grid.nodes], axis=1)
    return f_vals + fld.y @ kern.T - fld.y


def _state_derivative(fam: TerminalFunction, t, x: np.ndarray) -> np.ndarray:
    """dh/dx, analytic when the registry provides it, else a central
    difference with step 1e-4 * (1 + |x|)."""
    x = np.asarray(x, dtype=float)
    if fam.dh is not None:
        return np.asarray(fam.dh(t, x), dtype=float)
    step = 1e-4 * (1.0 + np.abs(x))
    return (np.asarray(fam.h(t, x + step), dtype=float)
            - np.asarray(fam.h(t, x - step), dtype=float)) / (2.0 * step)


def solve_Z(fam: TerminalFamily, phi: KernelTable, psi: ResolventTable,
            drift_fn: Optional[DriftFunction], grid: TriangularGrid
            ) -> np.ndarray:
    """Z(t,s) = E^Q[D_s F(t) + int_s^T Phi(t,r) D_s Y(r) dr | F_s].

    GaussianLinear: everything is deterministic; D_s Y(r) = phi(r,s) +
    int_r^T Psi(r,v) phi(v,s) dv and the conditional is the identity.
    TerminalFunction: D_s Y(r) is the state derivative of x -> Y(r) given
    W(r) = x, and the F_s-conditional is evaluated by nested Gauss-Hermite
    layers anchored at W(s) = Z_REF_STATE.
    Deterministic families carry no martingale part: the zero surface is
    returned without computation.  The second Malliavin term,
    -U(t) int D_s g dW^Q, vanishes because g is deterministic.
    """
    if not (phi.grid.same_as(grid) and psi.grid.same_as(grid)):
        raise GridMismatch("kernel tables on a different grid")
    n = grid.n
    nodes = grid.nodes
    tri = np.triu(np.ones((n + 1, n + 1), dtype=bool))

    if isinstance(fam, Deterministic):
        return np.zeros((n + 1, n + 1))

    trap = tail_weight_matrix(grid)
    col_w = trap.T  # weights in r for int_{t_s}^T

    if isinstance(fam, GaussianLinear):
        tt, ss = np.meshgrid(nodes, nodes, indexing="ij")
        phimat = np.asarray(fam.phi(tt, ss), dtype=float)
        d = phimat + (psi.values * trap) @ phimat
        z = phimat + phi.values @ (col_w * d)
        return np.where(tri, z, 0.0)

    if not isinstance(fam, TerminalFunction):
        raise UnsupportedFamily(f"unknown family {type(fam).__name__}")

    remaining = np.zeros(n + 1) if drift_fn is None else drift_fn.remaining()
    psi_row_int = (trap * psi.values).sum(axis=1)

    def dh_mean(t, mean, sd):
        pts = np.asarray(mean, dtype=float)[..., None] + sd * _GH_SHIFT
        return _state_derivative(fam, t, pts) @ _GH_W_NORM

    # ed[r, j] = E^Q[D_s Y(t_r) | F_{t_j}, W(t_j) = Z_REF_STATE]
    ed = np.zeros((n + 1, n + 1))
    term1 = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        sd_j = math.sqrt(max(grid.horizon - nodes[j], 0.0))
        if fam.t_dependent:
            term1[:, j] = [dh_mean(t, Z_REF_STATE + remaining[j], sd_j)
                           for t in nodes]
        else:
            term1[:, j] = dh_mean(nodes[0], Z_REF_STATE + remaining[j], sd_j)
        for r in range(j, n + 1):
            # W(t_r) | F_{t_j} under Q
            mean_r = Z_REF_STATE + remaining[j] - remaining[r]
            sd_r = math.sqrt(max(nodes[r] - nodes[j], 0.0))
            states = mean_r + sd_r * _GH_SHIFT
            sd_cond = math.sqrt(max(grid.horizon - nodes[r], 0.0))
            if fam.t_dependent:
                dsy = dh_mean(nodes[r], states + remaining[r], sd_cond)
                tail = np.zeros(len(states))
                for v in range(r, n + 1):
                    tail += trap[r, v] * psi.values[r, v] * dh_mean(
                        nodes[v], states + remaining[r], sd_cond)
                dsy = dsy + tail
            else:
                gd = dh_mean(nodes[0], states + remaining[r], sd_cond)
                dsy = gd * (1.0 + psi_row_int[r])
            ed[r, j] = float(dsy @ _GH_W_NORM)
    z = term1 + phi.values @ (col_w * ed)
    return np.where(tri, z, 0.0)


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
    d = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        for i in range(j + 1):
            if 0 < i and i + 1 <= j:
                d[i, j] = (z[i + 1, j] - z[i - 1, j]) / (2.0 * dt)
            elif i == 0 and j >= 1:
                d[i, j] = (z[1, j] - z[0, j]) / dt
            elif i == j and i >= 1:
                d[i, j] = (z[i, j] - z[i - 1, j]) / dt
    inner = (tail_weight_matrix(grid) * d**2).sum(axis=1)
    integral = float(trapezoid_weights(grid) @ inner)
    return SmoothnessReport(d, integral, bool(np.all(np.isfinite(d))))


def norms(fld: SolutionField, beta: float = 0.0) -> NormReport:
    """Weighted solution-space norms.

    H1 extends Y to [-T, 0) by its time-0 value, H2 extends Z by zero off
    the positive triangle, and the S2 report follows the convention of
    carrying no square root (it is the expected weighted squared sup).
    """
    grid = fld.grid
    nodes = grid.nodes
    horizon = grid.horizon
    y = np.atleast_2d(fld.y)
    weight = np.exp(beta * nodes)
    if beta == 0.0:
        neg_mass = horizon
    else:
        neg_mass = (1.0 - math.exp(-beta * horizon)) / beta
    h1_sq = neg_mass * y[:, 0] ** 2 + np.trapezoid(weight * y**2, nodes, axis=1)
    h1 = math.sqrt(float(h1_sq.mean()))
    s2 = float((weight * y**2).max(axis=1).mean())
    if fld.z is None:
        h2 = 0.0
    else:
        inner = (tail_weight_matrix(grid) * (weight[None, :] * fld.z**2)).sum(axis=1)
        h2 = math.sqrt(float(trapezoid_weights(grid) @ inner))
    return NormReport(beta, h1, h2, s2)
