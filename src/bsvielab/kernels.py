"""Reduced kernel, iterated kernels and the resolvent.

Tables live on a uniform triangular grid over {0 <= t <= s <= T} and are
stored as full (N+1, N+1) arrays with the strict lower triangle at zero,
so plain matrix products already restrict composition sums to t <= u <= s.
Compositions use the composite trapezoid rule, which is exact for constant
kernels and second-order otherwise; the resolvent is their series' limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .measures import DelayMeasure, snap_lag

# Columns per block of the resolvent's triangular substitution: a grid of
# at most this many nodes is one inverse and one GEMM.
RESOLVENT_BLOCK = 64


class HorizonMismatch(ValueError):
    """Grid and measure horizons differ."""


class GridMismatch(ValueError):
    """Tables built on different grids."""


class ToleranceUnreachable(RuntimeError):
    """Psi overflows, or C*T is too large for its sharp tail to be summed."""


class SingularStep(RuntimeError):
    """Implicit-trapezoid diagonal factor nearly zero; refine the grid."""


@dataclass(frozen=True)
class TriangularGrid:
    """Uniform nodes t_i = i*T/N, i = 0..N."""

    horizon: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.horizon < np.inf:  # NaN fails too
            raise ValueError("horizon must be positive and finite")
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError("need an integer n >= 2 of subdivisions")

    @property
    def dt(self) -> float:
        return self.horizon / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n + 1)

    @property
    def grid(self) -> TriangularGrid:
        """The grid itself, so that same_grid takes a bare grid."""
        return self

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


def same_grid(*values) -> TriangularGrid:
    """The grid all values share, by .grid or, for a node array, by its last
    axis of grid.n + 1 entries; else GridMismatch naming differing grids."""
    grid = next(v.grid for v in values if hasattr(v, "grid"))
    bad = [str(v.grid) for v in values if getattr(v, "grid", grid) != grid]
    bad += [f"a node array of shape {np.shape(v)}" for v in values
            if not hasattr(v, "grid") and np.shape(v)[-1:] != (grid.n + 1,)]
    if bad:
        raise GridMismatch(f"{grid} against {', '.join(dict.fromkeys(bad))}")
    return grid


def zero_extend_kernel(f: Callable) -> Callable:
    """Wrap a two-argument kernel so any negative argument evaluates to 0.
    Each argument keeps its own shape (a negative or NaN time is read as
    0): f broadcasts them, so a column and a row of times give the square
    without two square copies of the times."""

    def wrapped(t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        t_in, s_in = t >= 0.0, s >= 0.0
        out = np.where(t_in & s_in,
                       f(np.where(t_in, t, 0.0), np.where(s_in, s, 0.0)), 0.0)
        return out if out.ndim else float(out)

    return wrapped


def sup_abs(values) -> float:
    """max(max values, -min values), sup |values| with no |values| table;
    +0.0 for all-zero or empty values, NaN where one is NaN."""
    return float(np.maximum(np.max(values, initial=0.0),
                            -np.min(values, initial=0.0)) + 0.0)


def _check_bound(vals, bound: float, what: str, where: str = "") -> None:
    """ValueError unless sup |vals| <= bound (NaN fails) up to a slack
    1e-12 max(1, bound): a kernel's rounding is relative to its size."""
    if not sup_abs(vals) <= bound + 1e-12 * max(1.0, bound):
        raise ValueError(f"{what} exceeds declared bound {bound}{where}")


@dataclass(frozen=True)
class KernelSpec:
    """Coefficient functions of the linear generator.

    G(t, s) weights past values of Y, g(s) past values of Z; both are
    extended by zero for negative arguments.  A spec may instead carry the
    reduced kernel directly (phi_direct) when G alone is unbounded but the
    measure-weighted product is not.  build_phi checks G_bound, a bound on
    G or on Phi for a product-form spec, on the grid; DelayedGenerator.g_at
    checks g_bound wherever g is read, also at the atoms' shifted times.
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


@dataclass(frozen=True)
class DelayedGenerator:
    """The delay measure alpha and the coefficients (G, g) of the generator
    on one grid; HorizonMismatch unless alpha has the grid's horizon."""

    measure: DelayMeasure
    kernel: KernelSpec
    grid: TriangularGrid

    def __post_init__(self):
        if self.measure.horizon != self.grid.horizon:
            raise HorizonMismatch(f"measure horizon {self.measure.horizon} "
                                  f"!= grid horizon {self.grid.horizon}")

    def lag(self, x: np.ndarray) -> np.ndarray:
        """The lags x - T of the times x, clipped into [-T, 0] and snapped
        by snap_lag: the points at which the alpha-masses are queried."""
        horizon = self.grid.horizon
        return snap_lag(np.clip(x - horizon, -horizon, 0.0))

    @cached_property
    def node_table(self) -> np.ndarray:
        """spec_at on the nodes, once until drop_node_table; read-only."""
        table = self.spec_at(self.grid.nodes)
        table.flags.writeable = False
        return table

    def drop_node_table(self) -> None:
        """Forget node_table, which a G spec's fresh Phi does not hold."""
        self.__dict__.pop("node_table", None)

    def spec_at(self, x: np.ndarray) -> np.ndarray:
        """The spec's own kernel at (x_i, x_j), i <= j, over the times x
        (node_table on the nodes), zero-extended: phi_direct for a product-
        form spec, else G; 0 below the diagonal, which no table reads and
        where G may overflow.  Each of at most 8 row blocks is evaluated
        from its first row's diagonal, then zeroed in place below it."""
        k = self.kernel
        f = zero_extend_kernel(k.G if k.phi_direct is None else k.phi_direct)
        out = np.zeros((len(x), len(x)))
        step = -(-len(x) // 8)
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, len(x), step):
                rows = slice(lo, lo + step)
                out[rows, lo:] = f(x[rows, None], x[None, lo:])
                diag = out[rows, rows]
                diag[np.tri(len(diag), k=-1, dtype=bool)] = 0.0
        return out

    def G_at(self, x: np.ndarray, spec=None) -> np.ndarray:
        """G(x_i, x_j), i <= j, over the times x (from spec, spec_at(x) if
        not given), zero-extended, 0 below the diagonal: spec for a G spec;
        Phi / alpha([x_j - T, 0]) for a product-form one, 0 where that mass
        is <= 1e-12: an integrable endpoint singularity loses one cell."""
        spec = self.spec_at(x) if spec is None else spec
        if self.kernel.phi_direct is None:
            return spec
        mass = self.measure.mass_closed(self.lag(x))
        with np.errstate(divide="ignore", invalid="ignore"):
            g = spec / mass
        g[:, ~(mass > 1e-12)] = 0.0
        return g

    def g_at(self, x: np.ndarray) -> np.ndarray:
        """g at the times x, zero-extended; ValueError where |g| exceeds
        the declared g_bound or g is NaN."""
        k = self.kernel
        vals = zero_extend_kernel(lambda t, s: k.g(s))(x, x)
        _check_bound(vals, k.g_bound, "|g|")
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
        return sup_abs(self.values)


@dataclass
class ResolventTable(KernelTable):
    """Psi = sum_n Phi^(n) of the table phi it was solved from, on phi's
    grid (else GridMismatch), and sharp_tail's report, both None where
    that tail cannot be summed."""

    phi: KernelTable
    n_star: Optional[int]
    tail_bound: Optional[float]

    def __post_init__(self):
        super().__post_init__()
        same_grid(self, self.phi)


@dataclass(frozen=True)
class DelayOperator:
    """L built from generator, (L y)(t_i) = sum_j values[i, j] y(t_j) on
    its generator's grid: not triangular (no KernelTable), not checked finite."""

    generator: DelayedGenerator
    values: np.ndarray

    @property
    def grid(self) -> TriangularGrid:
        return self.generator.grid


def tail_weight_matrix(grid: TriangularGrid) -> np.ndarray:
    """W[i, j] such that sum_j W[i, j] f(t_j) is the composite trapezoid
    value of int_{t_i}^T f, tail_weighted of the upper-triangular ones;
    row N is identically zero.  The transpose holds the weights in r of
    int_{t_s}^T, one column per s."""
    return tail_weighted(grid, np.triu(np.ones((grid.n + 1, grid.n + 1))))


def tail_weighted(grid: TriangularGrid, v: np.ndarray,
                  out: Optional[np.ndarray] = None, lo: int = 0) -> np.ndarray:
    """v * tail_weight_matrix(grid), bit for bit, with no weight table, for
    an (N+1, N+1) table v whose strict lower triangle is zero (the
    KernelTable contract), where dt x and 0.0 x are the same zero: dt
    times v, the diagonal and the last column times dt/2, the last row
    times 0.0 (so a negative cell gives -0.0 there too); or its rows from
    lo on.  Into out if given, which may be v: one product per cell."""
    n, half, top = grid.n, 0.5 * grid.dt, grid.n - lo  # top: rows above N
    diag, last, row = np.diagonal(v, lo)[:top] * half, v[:top, n] * half, v[top:] * 0.0
    a = np.multiply(v, grid.dt, out=out)
    np.fill_diagonal(a[:top, lo:], diag)
    a[:top, n], a[top:] = last, row
    return a


def lag_weights(m: DelayMeasure, grid: TriangularGrid
                ) -> tuple[list[tuple[int, float]], list[tuple[float, float]]]:
    """The atoms of m on the grid lags u = -t_k after snap_lag as (k, weight),
    increasing in k, one lag's weights summed in atom order, and the atoms
    (u, weight) between lags; the uniform part has no nodes of its own."""
    on_lag, between = {}, []
    for u, wu in m.atoms:
        k = round(-u / grid.dt)
        if snap_lag(u) == snap_lag(-grid.nodes[k]):
            on_lag[k] = on_lag.get(k, 0.0) + wu
        else:
            between.append((float(u), float(wu)))
    return sorted((k, w) for k, w in on_lag.items() if w), between


def trapezoid_weights(grid: TriangularGrid) -> np.ndarray:
    """Composite trapezoid weights of int_0^T over the grid nodes."""
    w = np.full(grid.n + 1, grid.dt)
    w[0] = w[-1] = 0.5 * grid.dt
    return w


def build_phi(gen: DelayedGenerator) -> KernelTable:
    """Reduced kernel on the triangle: the alpha-mass of [s-T, 0] times
    G(t, s), or for a product-form spec gen.node_table itself (read-only),
    which is checked against G_bound."""
    k, spec = gen.kernel, gen.node_table
    _check_bound(spec, k.G_bound, "|G|" if k.phi_direct is None else "|Phi|",
                 " on the grid")
    if k.phi_direct is None:
        spec = gen.measure.mass_closed(gen.lag(gen.grid.nodes)) * spec
    return KernelTable(gen.grid, spec)


def volterra_compose(a: KernelTable, b: KernelTable) -> KernelTable:
    """(A o B)(t, s) = integral over [t, s] of A(t, u) B(u, s) du, trapezoid.

    In A B's buffer and one scratch table; the diagonal is exactly zero.
    """
    grid = same_grid(a, b)
    A, B = a.values, b.values
    c = A @ B
    half = np.multiply(0.5 * np.diag(A)[:, None], B)
    c -= half
    c -= np.multiply(np.multiply(0.5, A, out=half), np.diag(B), out=half)
    del half
    c *= grid.dt
    c[np.tri(grid.n + 1, dtype=bool)] = 0.0
    return KernelTable(grid, c)


def iterated_sup_bound(c: float, horizon: float, n: int) -> float:
    """Sharp sup bound for the n-th iterated kernel: C^n T^(n-1) / (n-1)!."""
    if c < 0 or horizon <= 0 or n < 1:
        raise ValueError("need c >= 0, horizon > 0, n >= 1")
    return c**n * horizon ** (n - 1) / math.factorial(n - 1)


def sharp_tail(c: float, horizon: float, tol: float) -> tuple[int, float]:
    """First order n whose sharp tail C sum_{m>n} (CT)^(m-1)/(m-1)!, the sum
    of iterated_sup_bound past n, is below tol, and that tail.  The terms
    C x^k/k! (x = CT) are summed in logs, so nothing overflows, up to the
    first K >= e^2 x with C e^-K < e^-40 tol (x^k/k! <= e^-k from e^2 x on);
    a K beyond 2^20 raises ToleranceUnreachable."""
    if c < 0 or horizon <= 0 or not tol > 0:
        raise ValueError("need c >= 0, horizon > 0, tol > 0")
    x = c * horizon
    if x == 0.0:
        return 1, 0.0
    top = max(math.e**2 * x, math.log(c) - math.log(tol) + 40.0, 1.0)
    if not top <= 2**20:
        raise ToleranceUnreachable(f"sharp tail of C*T = {x:.3g} needs over 2^20 terms")
    k = np.arange(math.ceil(top) + 1)
    log_terms = math.log(c) + k * math.log(x) - np.array(
        [math.lgamma(j + 1.0) for j in range(k.size)])
    tails = np.logaddexp.accumulate(log_terms[::-1])[::-1]
    n = max(1, int(np.argmax(tails < math.log(tol))))
    return n, math.exp(tails[n])


def implicit_factors(phi: KernelTable) -> np.ndarray:
    """1 - (dt/2) Phi(t_i, t_i), the diagonal of each implicit-trapezoid
    step; SingularStep where one is nearly zero."""
    denom = 1.0 - 0.5 * phi.grid.dt * np.diag(phi.values)
    bad = np.flatnonzero(np.abs(denom) < 1e-8)
    if bad.size:
        raise SingularStep(f"diagonal factor {denom[bad[-1]]:.2e} at node {bad[-1]}")
    return denom


def _upper_substitution(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """X with X u = r for upper-triangular u and r, by column-blocked
    forward substitution (Golub & Van Loan, 4th ed., 3.1.4), written over
    r and returned.  For each block J of RESOLVENT_BLOCK columns, every
    row block I above J takes off X[I, i0:j0] u[i0:j0, J], one GEMM from
    its own diagonal on (X[I, :i0] is zero: X is upper triangular), and
    X[:j1, J] is that right-hand side times inv(u[J, J]), one more GEMM.
    Everything below the diagonal of X is +0.0."""
    n = len(u)
    for j0 in range(0, n, RESOLVENT_BLOCK):
        j1 = min(j0 + RESOLVENT_BLOCK, n)
        for i0 in range(0, j0, RESOLVENT_BLOCK):
            i1 = i0 + RESOLVENT_BLOCK
            r[i0:i1, j0:j1] -= r[i0:i1, i0:j0] @ u[i0:j0, j0:j1]
        r[:j1, j0:j1] = r[:j1, j0:j1] @ np.linalg.inv(u[j0:j1, j0:j1])
        r[j0:, j0:j1][np.tri(n - j0, j1 - j0, -1, dtype=bool)] = 0.0
    return r


def resolvent(phi: KernelTable, tol: float) -> ResolventTable:
    """The limit of the series Phi + Phi o Phi + ..., solved for directly.

    volterra_compose is linear in its first argument, so the limit solves
    Psi = Phi + Psi o Phi, the triangular system
    Psi (I - dt Phi + dt/2 D) = Phi - dt/2 D Phi with D = diag Phi,
    solved in place by _upper_substitution; the diagonal is Phi's, as in
    the series.  tol only sets the reported order n_star and tail_bound
    of sharp_tail, None both when C*T is too large for that tail to be
    summed: the report does not stop the solve.  Psi holds phi;
    ToleranceUnreachable when it overflows.
    """
    p = phi.values
    denom = implicit_factors(phi)
    system = -phi.grid.dt * p
    np.fill_diagonal(system, denom)
    try:
        report = sharp_tail(phi.sup_norm, phi.grid.horizon, tol)
    except ToleranceUnreachable:
        report = None, None
    with np.errstate(over="ignore", invalid="ignore"):
        try:  # overflow: a singular LinAlgError or a non-finite table
            psi = _upper_substitution(denom[:, None] * p, system)
            np.fill_diagonal(psi, np.diag(p))
            return ResolventTable(phi.grid, psi, phi, *report)
        except ValueError:
            raise ToleranceUnreachable(
                f"resolvent overflows for C = {phi.sup_norm:.3g}") from None


def identity_residual(psi: ResolventTable) -> float:
    """sup|Psi - Phi - Psi o Phi| for the Phi psi was solved from, the
    a-posteriori residual of the identity resolvent solves: one (N+1)^3
    volterra_compose, so only the command that reports it pays for it.
    ToleranceUnreachable if the composition overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            r = volterra_compose(psi, psi.phi).values
            np.subtract(psi.values - psi.phi.values, r, out=r)
            return KernelTable(psi.grid, r).sup_norm
        except ValueError:
            raise ToleranceUnreachable("resolvent overflows for C = "
                                       f"{psi.phi.sup_norm:.3g}") from None


def example33_reference(variant: str) -> Callable[[np.ndarray], np.ndarray]:
    """Closed-form resolvents for the built-in damped-lag kernel
    phi(t, s) = (s - t) exp(-(s - t)), as functions of u = s - t.

    variant "derived": u -> (1 - exp(-2u))/2, the Laplace-algebra result
      (geometric series of 1/(x+1)^2 sums to 1/(x(x+2))).
    variant "quoted":  u -> (1 - exp(-u))/2, an often-quoted closed form
      kept for comparison; the numeric resolvent does not match it.
    """
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
    if lam > 0:  # the maximiser of u^k e^{-lam u}, which samples can miss
        u = np.append(u, min(k / lam, horizon))
    with np.errstate(all="ignore"):
        bound = float(np.abs(scale * u**k * np.exp(-lam * u)).max())
    if not math.isfinite(bound):  # the kernel table would not be finite
        raise ValueError(f"poly_exp(k={k},lam={lam},scale={scale}) has no "
                         f"finite bound on [0, {horizon}] (got {bound})")
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
