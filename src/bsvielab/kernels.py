"""Reduced kernel, iterated kernels and the Neumann-series resolvent.

Tables live on a uniform triangular grid over {0 <= t <= s <= T} and are
stored as full (N+1, N+1) arrays with the strict lower triangle at zero,
so plain matrix products already restrict composition sums to t <= u <= s.
Compositions use the composite trapezoid rule, which is exact for constant
kernels and second-order otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .measures import DelayMeasure, snap_lag

SERIES_ORDER_CAP = 60


class HorizonMismatch(ValueError):
    """Grid and measure horizons differ."""


class GridMismatch(ValueError):
    """Tables built on different grids."""


class ToleranceUnreachable(RuntimeError):
    """Requested truncation tolerance needs more than the order cap."""


@dataclass(frozen=True)
class TriangularGrid:
    """Uniform nodes t_i = i*T/N, i = 0..N."""

    horizon: float
    n: int

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.n < 2:
            raise ValueError("need at least 2 subdivisions")

    @property
    def dt(self) -> float:
        return self.horizon / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n + 1)

    def same_as(self, other: "TriangularGrid") -> bool:
        return self.horizon == other.horizon and self.n == other.n

    def locate(self, x):
        """Cell (idx, frac) of times x: x is clipped into [0, T], then
        idx = min(floor(x/dt), N-1) and frac = x/dt - idx, so x = T reads
        as the right end (frac = 1) of the last cell."""
        pos = np.clip(x, 0.0, self.horizon) / self.dt
        idx = np.minimum(np.asarray(pos).astype(int), self.n - 1)
        return idx, pos - idx

    def interpolate(self, table: np.ndarray, t, s):
        """Bilinear value of an (N+1, N+1) node table at (t, s), both
        located by locate; t and s broadcast against each other."""
        i, fi = self.locate(t)
        j, fj = self.locate(s)
        return ((1 - fi) * (1 - fj) * table[i, j]
                + fi * (1 - fj) * table[i + 1, j]
                + (1 - fi) * fj * table[i, j + 1]
                + fi * fj * table[i + 1, j + 1])


def zero_extend_kernel(f: Callable) -> Callable:
    """Wrap a two-argument kernel so any negative argument evaluates to 0."""

    def wrapped(t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        mask = (t >= 0.0) & (s >= 0.0)
        out = np.where(mask, f(np.where(mask, t, 0.0), np.where(mask, s, 0.0)), 0.0)
        return out if out.ndim else float(out)

    return wrapped


def zero_extend_g(g: Callable) -> Callable:
    """Wrap a one-argument function so negative arguments evaluate to 0."""

    def wrapped(s):
        s = np.asarray(s, dtype=float)
        out = np.where(s >= 0.0, g(np.where(s >= 0.0, s, 0.0)), 0.0)
        return out if out.ndim else float(out)

    return wrapped


@dataclass(frozen=True)
class KernelSpec:
    """Coefficient functions of the linear generator.

    G(t, s) weights past values of Y, g(s) past values of Z; both are
    extended by zero for negative arguments.  A spec may instead carry the
    reduced kernel directly (phi_direct) when G alone is unbounded but the
    measure-weighted product is not.  Declared bounds are checked against
    grid evaluations at build time.
    """

    G: Optional[Callable] = None
    g: Callable = None
    G_bound: float = 0.0
    g_bound: float = 0.0
    phi_direct: Optional[Callable] = None
    name: str = "custom"

    def __post_init__(self):
        if self.G is None and self.phi_direct is None:
            raise ValueError("kernel spec needs G or phi_direct")
        if self.g is None:
            object.__setattr__(self, "g", lambda s: np.zeros_like(np.asarray(s, dtype=float)))

    def g_values(self, grid: TriangularGrid) -> np.ndarray:
        vals = np.asarray(zero_extend_g(self.g)(grid.nodes), dtype=float)
        if np.abs(vals).max(initial=0.0) > self.g_bound + 1e-12:
            raise ValueError(
                f"|g| exceeds declared bound {self.g_bound} on the grid"
            )
        return vals


@dataclass
class KernelTable:
    """Kernel values K(t_i, t_j) on the triangle i <= j."""

    grid: TriangularGrid
    values: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("kernel table has non-finite entries")

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


@dataclass
class ResolventTable:
    """Truncated Neumann-series resolvent with truncation metadata."""

    grid: TriangularGrid
    values: np.ndarray
    n_star: int
    tail_bound: float
    series_terms: list[float]  # per-order sup norms, orders 1..n_star

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


def triangle_mask(n: int) -> np.ndarray:
    i = np.arange(n + 1)
    return i[:, None] <= i[None, :]


def tail_weight_matrix(grid: TriangularGrid) -> np.ndarray:
    """W[i, j] such that sum_j W[i, j] f(t_j) is the composite trapezoid
    value of int_{t_i}^T f; row N is identically zero.  The transpose
    holds the weights in r of int_{t_s}^T, one column per s."""
    n, dt = grid.n, grid.dt
    w = np.where(triangle_mask(n), dt, 0.0)
    w[np.diag_indices(n + 1)] = 0.5 * dt
    w[:, n] = 0.5 * dt
    w[n] = 0.0
    return w


def trapezoid_weights(grid: TriangularGrid) -> np.ndarray:
    """Composite trapezoid weights of int_0^T over the grid nodes."""
    w = np.full(grid.n + 1, grid.dt)
    w[0] = w[-1] = 0.5 * grid.dt
    return w


def build_phi(m: DelayMeasure, k: KernelSpec, grid: TriangularGrid) -> KernelTable:
    """Reduced kernel: alpha-mass of [s-T, 0] times G(t, s) on the triangle.

    When the spec supplies the reduced kernel directly, its grid values are
    tabulated as-is.
    """
    if m.horizon != grid.horizon:
        raise HorizonMismatch(
            f"measure horizon {m.horizon} != grid horizon {grid.horizon}"
        )
    m.validate()
    t = grid.nodes
    if k.phi_direct is not None:
        tt, ss = np.meshgrid(t, t, indexing="ij")
        vals = np.asarray(zero_extend_kernel(k.phi_direct)(tt, ss), dtype=float)
    else:
        mass = np.array([m.mass_closed(snap_lag(s - grid.horizon)) for s in t])
        tt, ss = np.meshgrid(t, t, indexing="ij")
        gvals = np.asarray(zero_extend_kernel(k.G)(tt, ss), dtype=float)
        if np.abs(gvals[triangle_mask(grid.n)]).max() > k.G_bound + 1e-12:
            raise ValueError(f"|G| exceeds declared bound {k.G_bound} on the grid")
        vals = mass[None, :] * gvals
    vals = np.where(triangle_mask(grid.n), vals, 0.0)
    return KernelTable(grid, vals)


def volterra_compose(a: KernelTable, b: KernelTable) -> KernelTable:
    """(A o B)(t, s) = integral over [t, s] of A(t, u) B(u, s) du, trapezoid.

    Diagonal entries are exactly zero (empty integration range).
    """
    if not a.grid.same_as(b.grid):
        raise GridMismatch("kernel tables on different grids")
    dt = a.grid.dt
    A, B = a.values, b.values
    da, db = np.diag(A), np.diag(B)
    c = dt * (A @ B - 0.5 * da[:, None] * B - 0.5 * A * db[None, :])
    c = np.where(triangle_mask(a.grid.n), c, 0.0)
    np.fill_diagonal(c, 0.0)
    return KernelTable(a.grid, c)


def tail_bound(c: float, horizon: float, n: int) -> float:
    """(C*T)^n / n!, the factorial truncation bound for order n.

    The measured sup of an n-th iterated kernel can exceed this value: the
    sharp elementary bound is C^n T^(n-1) / (n-1)!, one factorial index
    lower.  Both are exposed; truncation control uses the series tail of
    this one, which still dominates convergence behaviour.
    """
    if c < 0 or horizon <= 0 or n < 1:
        raise ValueError("need c >= 0, horizon > 0, n >= 1")
    return (c * horizon) ** n / math.factorial(n)


def iterated_sup_bound(c: float, horizon: float, n: int) -> float:
    """Sharp sup bound for the n-th iterated kernel: C^n T^(n-1) / (n-1)!."""
    if c < 0 or horizon <= 0 or n < 1:
        raise ValueError("need c >= 0, horizon > 0, n >= 1")
    return c**n * horizon ** (n - 1) / math.factorial(n - 1)


def series_tail(c: float, horizon: float, n: int) -> float:
    """Sum over m > n of (C*T)^m / m!, summed forward until negligible."""
    x = c * horizon
    if x == 0.0:
        return 0.0
    total = 0.0
    term = x**n / math.factorial(n)
    for m in range(n + 1, n + 400):
        term *= x / m
        total += term
        if term < total * 1e-17 + 1e-300:
            break
    return total


def resolvent(phi: KernelTable, tol: float, order_cap: int = SERIES_ORDER_CAP) -> ResolventTable:
    """Sum the iterated kernels of phi until the analytic factorial tail
    drops below tol; records per-order sup norms and the certified tail."""
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    c_phi = phi.sup_norm
    horizon = phi.grid.horizon
    if not math.isfinite(c_phi * horizon):
        raise ValueError("kernel bound times horizon must be finite")

    psi = phi.values.copy()
    term = phi
    sups = [phi.sup_norm]
    n = 1
    while series_tail(c_phi, horizon, n) >= tol:
        n += 1
        if n > order_cap:
            raise ToleranceUnreachable(
                f"tail below {tol} needs more than {order_cap} orders"
            )
        term = volterra_compose(term, phi)
        sups.append(term.sup_norm)
        psi = psi + term.values
    return ResolventTable(phi.grid, psi, n, series_tail(c_phi, horizon, n), sups)


def example33_reference(horizon: float, variant: str) -> Callable[[np.ndarray], np.ndarray]:
    """Closed-form resolvents for the built-in damped-lag kernel
    phi(t, s) = (s - t) exp(-(s - t)), as functions of u = s - t.

    variant "derived": u -> (1 - exp(-2u))/2, the Laplace-algebra result
      (geometric series of 1/(x+1)^2 sums to 1/(x(x+2))).
    variant "quoted":  u -> (1 - exp(-u))/2, an often-quoted closed form
      kept for comparison; the numeric Neumann series does not match it.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if variant == "derived":
        return lambda u: 0.5 * (1.0 - np.exp(-2.0 * np.asarray(u, dtype=float)))
    if variant == "quoted":
        return lambda u: 0.5 * (1.0 - np.exp(-np.asarray(u, dtype=float)))
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# kernel registry
# ---------------------------------------------------------------------------

def constant_kernel(c: float, g_value: float = 0.0) -> KernelSpec:
    """G(t, s) = c on the triangle, g(s) = g_value."""
    return KernelSpec(
        G=lambda t, s: np.full_like(np.asarray(t, dtype=float), c),
        g=lambda s: np.full_like(np.asarray(s, dtype=float), g_value),
        G_bound=abs(c),
        g_bound=abs(g_value),
        name=f"constant(c={c})",
    )


def poly_exp_kernel(k: int, lam: float, scale: float = 1.0,
                    horizon: float = 1.0, g_value: float = 0.0) -> KernelSpec:
    """G(t, s) = scale * (s-t)^k * exp(-lam*(s-t)); bound evaluated on [0, T]."""
    def G(t, s):
        u = np.asarray(s, dtype=float) - np.asarray(t, dtype=float)
        return scale * u**k * np.exp(-lam * u)

    u = np.linspace(0.0, horizon, 4097)
    bound = float(np.abs(scale * u**k * np.exp(-lam * u)).max())
    return KernelSpec(
        G=G,
        g=lambda s: np.full_like(np.asarray(s, dtype=float), g_value),
        G_bound=bound,
        g_bound=abs(g_value),
        name=f"poly_exp(k={k},lam={lam},scale={scale})",
    )


def example33_kernel(g_value: float = 0.0) -> KernelSpec:
    """Reduced kernel phi(t, s) = (s-t) exp(-(s-t)) supplied directly.

    The underlying G(t, s) = T(s-t)/(T-s) * exp(-(s-t)) blows up at s = T,
    so only the bounded measure-weighted product is tabulated.
    """
    def phi(t, s):
        u = np.asarray(s, dtype=float) - np.asarray(t, dtype=float)
        return u * np.exp(-u)

    return KernelSpec(
        G=None,
        g=lambda s: np.full_like(np.asarray(s, dtype=float), g_value),
        G_bound=math.exp(-1.0),
        g_bound=abs(g_value),
        phi_direct=phi,
        name="example33",
    )


def zero_kernel() -> KernelSpec:
    return constant_kernel(0.0, 0.0)


def tabulated_kernel(grid: TriangularGrid, values: np.ndarray,
                     g_value: float = 0.0) -> KernelSpec:
    """G given by bilinear interpolation of a (N+1, N+1) table on the grid."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (grid.n + 1, grid.n + 1):
        raise ValueError("table shape does not match grid")
    return KernelSpec(
        G=lambda t, s: grid.interpolate(vals, t, s),
        g=lambda s: np.full_like(np.asarray(s, dtype=float), g_value),
        G_bound=float(np.abs(vals).max()),
        g_bound=abs(g_value),
        name="tabulated",
    )
