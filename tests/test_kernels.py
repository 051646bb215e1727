"""Kernel tables, trapezoid composition, Neumann resolvent.

Closed-form oracles used below (all for the triangle 0 <= t <= s <= T):
  * constant kernel c: n-th iterate c^n (s-t)^(n-1)/(n-1)!, resolvent
    c * exp(c (s-t));
  * damped-lag kernel (s-t) e^{-(s-t)}: resolvent (1 - e^{-2(s-t)})/2,
    cross-checked by an implicit-trapezoid renewal recursion written
    independently of the Neumann series.
"""

import math

import numpy as np
import pytest

from bsvielab.kernels import (
    GridMismatch,
    HorizonMismatch,
    KernelSpec,
    KernelTable,
    ToleranceUnreachable,
    TriangularGrid,
    build_phi,
    constant_kernel,
    example33_kernel,
    example33_reference,
    iterated_sup_bound,
    poly_exp_kernel,
    resolvent,
    series_tail,
    tabulated_kernel,
    tail_bound,
    volterra_compose,
    zero_extend_kernel,
    zero_kernel,
)
from bsvielab.measures import DiracAt, Uniform


def grid(n=200, horizon=1.0):
    return TriangularGrid(horizon=horizon, n=n)


def table_from(f, g):
    tt, ss = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    vals = np.where(tt <= ss, f(tt, ss), 0.0)
    return KernelTable(g, vals)


def test_composition_linear_oracle():
    # A(t,u) = u - t, B(u,s) = s - u: (A o B)(0,1) = int_0^1 u(1-u) du = 1/6
    g = grid(400)
    a = table_from(lambda t, s: s - t, g)
    c = volterra_compose(a, a)
    assert c.values[0, -1] == pytest.approx(1.0 / 6.0, abs=3e-6)
    # diagonal is an empty integral
    assert np.all(np.diag(c.values) == 0.0)
    assert np.all(c.values[np.tril_indices(g.n + 1, -1)] == 0.0)


def test_constant_kernel_iterates():
    g = grid(400)
    c = 0.7
    phi = table_from(lambda t, s: np.full_like(t, c), g)
    it2 = volterra_compose(phi, phi)
    it3 = volterra_compose(it2, phi)
    tt, ss = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    mask = tt <= ss
    want2 = np.where(mask, c**2 * (ss - tt), 0.0)
    want3 = np.where(mask, c**3 * (ss - tt) ** 2 / 2.0, 0.0)
    assert np.abs(it2.values - want2).max() < 1e-10  # trapezoid exact on linear
    assert np.abs(it3.values - want3).max() < 1e-5


def test_constant_kernel_resolvent_closed_form():
    g = grid(400)
    c = 0.8
    phi = table_from(lambda t, s: np.full_like(t, c), g)
    psi = resolvent(phi, tol=1e-10)
    tt, ss = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    want = np.where(tt <= ss, c * np.exp(c * (ss - tt)), 0.0)
    assert np.abs(psi.values - want).max() < 1e-4
    assert psi.tail_bound < 1e-10
    assert len(psi.series_terms) == psi.n_star


def test_resolvent_grid_convergence_second_order():
    c = 1.0
    errs = []
    for n in (100, 200):
        g = grid(n)
        phi = table_from(lambda t, s: np.full_like(t, c), g)
        psi = resolvent(phi, tol=1e-12)
        tt, ss = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        want = np.where(tt <= ss, c * np.exp(c * (ss - tt)), 0.0)
        errs.append(np.abs(psi.values - want).max())
    assert errs[0] / errs[1] > 3.5  # ~4 for a second-order rule


def test_tail_bound_frozen_values():
    assert tail_bound(1.0, 1.0, 3) == pytest.approx(1.0 / 6.0)
    assert tail_bound(2.0, 0.5, 4) == pytest.approx(1.0 / 24.0)
    assert iterated_sup_bound(1.0, 1.0, 3) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        tail_bound(-1.0, 1.0, 1)


def test_series_tail_matches_exponential_remainder():
    # sum_{m>n} x^m/m! = e^x - sum_{m<=n} x^m/m!
    x, n = 0.9, 4
    direct = math.exp(x) - sum(x**m / math.factorial(m) for m in range(n + 1))
    assert series_tail(0.9, 1.0, n) == pytest.approx(direct, rel=1e-12)


def test_iterated_sup_bound_is_sound_and_factorial_bound_is_not():
    """Measured sup of the n-th iterate of a constant kernel is
    c^n T^(n-1)/(n-1)! -- equal to the sharp bound, n times the factorial
    truncation bound (c T)^n/n!."""
    g = grid(300)
    phi = table_from(lambda t, s: np.ones_like(t), g)
    term = phi
    for n in (2, 3, 4):
        term = volterra_compose(term, phi)
        sup = float(np.abs(term.values).max())
        assert sup <= iterated_sup_bound(1.0, 1.0, n) * (1 + 1e-4)
        assert sup > tail_bound(1.0, 1.0, n) * (n - 0.1)


def renewal_resolvent_row(phi_fun, g):
    """Implicit-trapezoid march for psi(0, s), independent of the series:
    psi(t,s) = phi(t,s) + int_t^s psi(t,u) phi(u,s) du."""
    N, dt, s = g.n, g.dt, g.nodes
    psi = np.zeros(N + 1)
    for j in range(1, N + 1):
        acc = phi_fun(0.0, s[j]) + 0.5 * dt * psi[0] * phi_fun(s[0], s[j])
        for k in range(1, j):
            acc += dt * psi[k] * phi_fun(s[k], s[j])
        psi[j] = acc / (1.0 - 0.5 * dt * phi_fun(s[j], s[j]))
    return psi


def test_damped_lag_resolvent_against_renewal_oracle():
    g = grid(200)
    phi_fun = lambda t, s: (s - t) * np.exp(-(s - t))
    oracle = renewal_resolvent_row(phi_fun, g)
    ref = example33_reference(1.0, "derived")(g.nodes)
    assert np.abs(oracle - ref).max() < 1e-5

    phi = build_phi(Uniform(1.0), example33_kernel(), g)
    psi = resolvent(phi, tol=1e-10)
    assert np.abs(psi.values[0, :] - oracle).max() < 1e-5
    # the often-quoted alternative closed form does not match
    alt = example33_reference(1.0, "quoted")(g.nodes)
    assert np.abs(psi.values[0, -1] - alt[-1]) > 0.1


def test_example33_reference_frozen_values():
    derived = example33_reference(1.0, "derived")
    quoted = example33_reference(1.0, "quoted")
    assert float(derived(1.0)) == pytest.approx(0.43233235838169365, abs=1e-12)
    assert float(quoted(1.0)) == pytest.approx(0.31606027941427883, abs=1e-12)
    with pytest.raises(ValueError):
        example33_reference(1.0, "bogus")


def test_build_phi_measure_weighting():
    g = grid(10)
    spec = constant_kernel(2.0)
    # point mass at lag 0 keeps G unchanged
    t_dirac = build_phi(DiracAt(1.0, 0.0), spec, g)
    assert t_dirac.values[0, -1] == pytest.approx(2.0)
    # uniform lag: mass of [s-T, 0] is (T-s)/T
    t_unif = build_phi(Uniform(1.0), spec, g)
    i, j = 2, 7
    want = (1.0 - g.nodes[j]) * 2.0
    assert t_unif.values[i, j] == pytest.approx(want)
    assert t_unif.values[0, -1] == pytest.approx(0.0)
    # retarded point mass switches G off beyond s = T - d
    t_lag = build_phi(DiracAt(1.0, -0.3), spec, g)
    assert t_lag.values[0, 7] == pytest.approx(2.0)  # s=0.7 = T-d still on
    assert t_lag.values[0, 8] == 0.0


def test_build_phi_horizon_mismatch():
    with pytest.raises(HorizonMismatch):
        build_phi(Uniform(2.0), constant_kernel(1.0), grid(10, horizon=1.0))


def test_compose_grid_mismatch():
    a = table_from(lambda t, s: np.ones_like(t), grid(10))
    b = table_from(lambda t, s: np.ones_like(t), grid(20))
    with pytest.raises(GridMismatch):
        volterra_compose(a, b)


def test_resolvent_order_cap():
    g = grid(50)
    phi = table_from(lambda t, s: np.full_like(t, 30.0), g)
    with pytest.raises(ToleranceUnreachable):
        resolvent(phi, tol=1e-12, order_cap=10)
    for bad in (0.0, float("nan")):
        with pytest.raises(ValueError):
            resolvent(phi, tol=bad)


def test_declared_bound_enforced():
    g = grid(10)
    spec = KernelSpec(G=lambda t, s: np.full_like(t, 2.0), G_bound=1.0)
    with pytest.raises(ValueError):
        build_phi(DiracAt(1.0, 0.0), spec, g)
    gspec = constant_kernel(1.0, g_value=0.5)
    object.__setattr__(gspec, "g_bound", 0.1)
    with pytest.raises(ValueError):
        gspec.g_values(g)


def test_zero_extension():
    f = zero_extend_kernel(lambda t, s: np.ones_like(t))
    assert f(-0.1, 0.5) == 0.0
    assert f(0.1, -0.5) == 0.0
    assert f(0.1, 0.5) == 1.0
    spec = zero_kernel()
    g = grid(10)
    assert build_phi(DiracAt(1.0, 0.0), spec, g).sup_norm == 0.0


def test_poly_exp_bound_and_values():
    spec = poly_exp_kernel(k=1, lam=1.0, horizon=1.0)
    # sup of u e^{-u} on [0,1] is at u=1 (max of the hump is at u=1)
    assert spec.G_bound == pytest.approx(math.exp(-1.0), abs=1e-6)
    g = grid(10)
    tab = build_phi(DiracAt(1.0, 0.0), spec, g)
    assert tab.values[0, 5] == pytest.approx(0.5 * math.exp(-0.5))


def test_tabulated_kernel_roundtrip():
    g = grid(40)
    base = build_phi(DiracAt(1.0, 0.0), poly_exp_kernel(k=1, lam=0.5), g)
    spec = tabulated_kernel(g, base.values)
    rebuilt = build_phi(DiracAt(1.0, 0.0), spec, g)
    assert np.abs(rebuilt.values - base.values).max() < 1e-15
