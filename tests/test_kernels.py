"""Kernel tables, trapezoid composition, the resolvent and its tail.

Closed-form oracles used below (all for the triangle 0 <= t <= s <= T):
  * constant kernel c: n-th iterate c^n (s-t)^(n-1)/(n-1)!, resolvent
    c * exp(c (s-t));
  * damped-lag kernel (s-t) e^{-(s-t)}: resolvent (1 - e^{-2(s-t)})/2,
    cross-checked by an implicit-trapezoid renewal recursion written
    independently of the Neumann series.
"""

import dataclasses
import math

import numpy as np
import pytest

from bsvielab.kernels import (
    DelayedGenerator,
    GridMismatch,
    HorizonMismatch,
    KernelSpec,
    KernelTable,
    ResolventTable,
    SingularStep,
    ToleranceUnreachable,
    TriangularGrid,
    build_phi,
    constant_kernel,
    example33_kernel,
    example33_reference,
    identity_residual,
    iterated_sup_bound,
    poly_exp_kernel,
    resolvent,
    same_grid,
    sharp_tail,
    tail_weight_matrix,
    tail_weighted,
    volterra_compose,
    zero_extend_kernel,
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
    assert identity_residual(psi) < 1e-13


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


def test_iterated_sup_bound_frozen_values():
    assert iterated_sup_bound(1.0, 1.0, 3) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        iterated_sup_bound(-1.0, 1.0, 1)


def test_sharp_tail_matches_exponential_remainder():
    # C sum_{m>n} x^(m-1)/(m-1)! = C (e^x - sum_{k<n} x^k/k!), x = C T
    for c, horizon, tol in ((0.9, 1.0, 1e-3), (0.5, 2.0, 1e-10),
                            (3.0, 1.0, 1e-10), (2.0, 5.0, 1e-6)):
        x = c * horizon
        tail = lambda n: c * (math.exp(x) - sum(x**k / math.factorial(k)
                                                for k in range(n)))
        n, bound = sharp_tail(c, horizon, tol)
        # cancellation in the direct remainder costs e^x * eps absolute
        assert bound == pytest.approx(tail(n), rel=1e-9,
                                      abs=c * math.exp(x) * 1e-15)
        assert bound < tol <= tail(n - 1)
        # the tail is the sum of the sharp per-order bounds after n
        assert bound == pytest.approx(sum(
            iterated_sup_bound(c, horizon, m) for m in range(n + 1, n + 60)),
            rel=1e-12)
    assert sharp_tail(0.0, 1.0, 1e-10) == (1, 0.0)


def test_sharp_tail_finite_at_large_ct():
    # the terms peak near e^1000: summed as logarithms, nothing overflows
    n, bound = sharp_tail(1000.0, 1.0, 1e-10)
    assert math.isfinite(bound) and 0.0 < bound < 1e-10
    assert 2000 < n < 3000
    assert sharp_tail(1000.0, 1.0, 1e-10) == (n, bound)
    with pytest.raises(ToleranceUnreachable):
        sharp_tail(1e17, 1.0, 1e-10)


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
        assert sup > (1.0 * 1.0) ** n / math.factorial(n) * (n - 0.1)


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
    ref = example33_reference("derived")(g.nodes)
    assert np.abs(oracle - ref).max() < 1e-5

    phi = build_phi(DelayedGenerator(Uniform(1.0), example33_kernel(), g))
    psi = resolvent(phi, tol=1e-10)
    assert np.abs(psi.values[0, :] - oracle).max() < 1e-5
    # the often-quoted alternative closed form does not match
    alt = example33_reference("quoted")(g.nodes)
    assert np.abs(psi.values[0, -1] - alt[-1]) > 0.1


def test_example33_reference_frozen_values():
    derived = example33_reference("derived")
    quoted = example33_reference("quoted")
    assert float(derived(1.0)) == pytest.approx(0.43233235838169365, abs=1e-12)
    assert float(quoted(1.0)) == pytest.approx(0.31606027941427883, abs=1e-12)
    with pytest.raises(ValueError):
        example33_reference("bogus")


def test_build_phi_measure_weighting():
    g = grid(10)
    spec = constant_kernel(2.0)
    # point mass at lag 0 keeps G unchanged
    t_dirac = build_phi(DelayedGenerator(DiracAt(1.0, 0.0), spec, g))
    assert t_dirac.values[0, -1] == pytest.approx(2.0)
    # uniform lag: mass of [s-T, 0] is (T-s)/T
    t_unif = build_phi(DelayedGenerator(Uniform(1.0), spec, g))
    i, j = 2, 7
    want = (1.0 - g.nodes[j]) * 2.0
    assert t_unif.values[i, j] == pytest.approx(want)
    assert t_unif.values[0, -1] == pytest.approx(0.0)
    # retarded point mass switches G off beyond s = T - d
    t_lag = build_phi(DelayedGenerator(DiracAt(1.0, -0.3), spec, g))
    assert t_lag.values[0, 7] == pytest.approx(2.0)  # s=0.7 = T-d still on
    assert t_lag.values[0, 8] == 0.0


def test_build_phi_horizon_mismatch():
    # a measure on [-2, 0] on a T = 1 grid is refused by the generator
    # build_phi reads; one with the grid's horizon is built
    spec = constant_kernel(1.0)
    with pytest.raises(HorizonMismatch,
                       match=r"^measure horizon 2\.0 != grid horizon 1\.0$"):
        build_phi(DelayedGenerator(Uniform(2.0), spec, grid(10, horizon=1.0)))
    gen = DelayedGenerator(Uniform(2.0), spec, grid(20, horizon=2.0))
    assert build_phi(gen).grid == gen.grid


def test_compose_grid_mismatch():
    a = table_from(lambda t, s: np.ones_like(t), grid(10))
    b = table_from(lambda t, s: np.ones_like(t), grid(20))
    with pytest.raises(GridMismatch):
        volterra_compose(a, b)


def test_same_grid_returns_the_grid_or_names_the_others():
    # values built apart: a table by its grid, a node array by its last
    # axis; each grid that differs from the first value's is named once
    g = grid(10)
    a = table_from(lambda t, s: np.ones_like(t), g)
    assert same_grid(np.ones(11), a, np.ones((3, 11)), a) == g
    other = table_from(lambda t, s: np.ones_like(t), grid(10, horizon=2.0))
    with pytest.raises(GridMismatch, match=(
            r"^TriangularGrid\(horizon=1\.0, n=10\) against "
            r"TriangularGrid\(horizon=2\.0, n=10\), "
            r"a node array of shape \(3, 12\)$")):
        same_grid(a, other, np.ones(11), other, np.ones((3, 12)))
    with pytest.raises(GridMismatch, match=r"a node array of shape \(\)$"):
        same_grid(a, np.float64(1.0))


def test_resolvent_singular_step():
    # dt/2 * phi = 1 on the diagonal: the implicit trapezoid cannot step
    g = grid(40)
    phi = table_from(lambda t, s: np.full_like(t, 80.0), g)
    with pytest.raises(SingularStep):
        resolvent(phi, tol=1e-10)
    for bad in (0.0, float("nan")):
        with pytest.raises(ValueError):
            resolvent(table_from(lambda t, s: np.ones_like(t), g), tol=bad)


def test_resolvent_large_ct_finite_then_overflow():
    # C T = 40 on 40 steps: Psi reaches ~5e20 but is finite, and zero
    # below the diagonal
    phi = table_from(lambda t, s: np.full_like(t, 40.0), grid(40))
    psi = resolvent(phi, tol=1e-10)
    assert np.isfinite(psi.values).all() and psi.sup_norm > 1e20
    assert np.all(np.tril(psi.values, -1) == 0.0)
    assert identity_residual(psi) <= 1e-14 * psi.sup_norm
    assert math.isfinite(psi.tail_bound) and psi.tail_bound < 1e-10
    # C T = 1000 on 400 steps: Psi grows ~9x per step and overflows
    phi = table_from(lambda t, s: np.full_like(t, 1000.0), grid(400))
    with pytest.raises(ToleranceUnreachable, match="overflows"):
        resolvent(phi, tol=1e-10)
    # C = 1e300: the solve meets no singular pivot, but Psi is not finite
    phi = table_from(lambda t, s: np.full_like(t, 1e300), grid(10))
    with pytest.raises(ToleranceUnreachable, match="overflows"):
        resolvent(phi, tol=1e-10)
    # C = 1.7e308 on two blocks: dt Phi is finite, the right-hand side
    # (1 - dt/2 C) Phi is not, and the block updates carry it
    phi = table_from(lambda t, s: np.full_like(t, 1.7e308), grid(100))
    with pytest.raises(ToleranceUnreachable, match="overflows"):
        resolvent(phi, tol=1e-10)


def test_resolvent_checks_psi_finite_once(monkeypatch):
    # the returned table's own check is the overflow check, so Psi is
    # scanned once; a bad tol is refused before the solve, even where Psi
    # would overflow
    phi = table_from(lambda t, s: np.full_like(t, 2.0), grid(20))
    huge = table_from(lambda t, s: np.full_like(t, 1e300), grid(10))
    checked = []
    check = KernelTable.__post_init__
    monkeypatch.setattr(KernelTable, "__post_init__",
                        lambda self: checked.append(type(self)) or check(self))
    assert resolvent(phi, tol=1e-10).phi is phi
    assert checked == [ResolventTable]
    with pytest.raises(ValueError, match="tol > 0"):
        resolvent(huge, tol=0.0)


def test_resolvent_table_refuses_a_phi_on_another_grid():
    # a Psi held beside the Phi of another grid is refused on construction,
    # naming both grids, rather than read as an overflow or a numpy error
    psi = resolvent(table_from(lambda t, s: np.full_like(t, 0.5), grid(50)),
                    tol=1e-10)
    phi = table_from(lambda t, s: np.full_like(t, 0.5), grid(60))
    with pytest.raises(GridMismatch, match=r"n=50\) against .*n=60\)"):
        ResolventTable(psi.grid, psi.values, phi, None, None)


def test_declared_bound_enforced():
    g = grid(10)
    spec = KernelSpec(G=lambda t, s: np.full_like(t, 2.0), G_bound=1.0)
    with pytest.raises(ValueError):
        build_phi(DelayedGenerator(DiracAt(1.0, 0.0), spec, g))
    # the slack is 1e-12 of the bound, so a relative 1e-9 past it is broken
    spec = KernelSpec(G=lambda t, s: np.full_like(t, 1e6 * (1.0 + 1e-9)),
                      G_bound=1e6)
    with pytest.raises(ValueError, match=r"^\|G\| exceeds declared bound"):
        build_phi(DelayedGenerator(DiracAt(1.0, 0.0), spec, g))
    gspec = constant_kernel(1.0, g_value=0.5)
    object.__setattr__(gspec, "g_bound", 0.1)
    with pytest.raises(ValueError):
        DelayedGenerator(DiracAt(1.0, 0.0), gspec, g).g_at(g.nodes)
    # a NaN g breaks any bound (the drift and every g-term read g_at)
    gspec = dataclasses.replace(gspec, g=lambda s: np.full_like(s, np.nan))
    with pytest.raises(ValueError, match="exceeds declared bound"):
        DelayedGenerator(DiracAt(1.0, 0.0), gspec, g).g_at(g.nodes)
    # a product-form spec bounds Phi: example33's e^-1, the sup of u e^-u,
    # holds; 1e-6 is broken (Phi reaches 0.368 at N = 10)
    spec = example33_kernel()
    assert build_phi(DelayedGenerator(Uniform(1.0), spec, g)).sup_norm \
        <= spec.G_bound
    tight = dataclasses.replace(spec, G_bound=1e-6)
    with pytest.raises(ValueError, match=r"^\|Phi\| exceeds declared bound"):
        build_phi(DelayedGenerator(Uniform(1.0), tight, g))


@pytest.mark.parametrize("horizon, n", [
    (0.0, 4), (-1.0, 4), (math.nan, 4), (math.inf, 4),
    (1.0, 1), (1.0, 2.5), (1.0, 3.0)])
def test_grid_rejects_bad_horizon_or_n(horizon, n):
    # a horizon outside (0, inf), NaN included, and an n that is not an
    # integer of at least 2 fail on construction, not when nodes are read
    with pytest.raises(ValueError):
        TriangularGrid(horizon, n)


def test_grid_takes_numpy_integers():
    assert np.array_equal(TriangularGrid(1.0, np.int64(4)).nodes,
                          TriangularGrid(1.0, 4).nodes)


def test_zero_extension():
    f = zero_extend_kernel(lambda t, s: np.ones_like(t))
    assert f(-0.1, 0.5) == 0.0
    assert f(0.1, -0.5) == 0.0
    assert f(0.1, 0.5) == 1.0
    spec = constant_kernel(0.0)
    g = grid(10)
    gen = DelayedGenerator(DiracAt(1.0, 0.0), spec, g)
    assert build_phi(gen).sup_norm == 0.0


def test_zero_extension_keeps_the_argument_shapes():
    # a column and a row of times reach the kernel as they are, not as two
    # squares, and give the bits of the squares' evaluation
    shapes = []

    def f(t, s):
        shapes.append((np.shape(t), np.shape(s)))
        return (s - t) * np.exp(-(s - t))

    x = np.linspace(-0.3, 1.0, 14)
    tt, ss = np.meshgrid(x, x, indexing="ij")
    got = zero_extend_kernel(f)(x[:, None], x[None, :])
    want = zero_extend_kernel(f)(tt, ss)
    assert shapes == [((14, 1), (1, 14)), ((14, 14), (14, 14))]
    assert got.tobytes() == want.tobytes()
    assert not got[x < 0.0].any() and not got[:, x < 0.0].any()


@pytest.mark.parametrize("n", [2, 3, 64, 600])
def test_tail_weighted_matches_the_weight_table_bitwise(n):
    # negative cells, -0.0 above and on the diagonal, in the last row and
    # column, and -0.0 below it (a zero of the table contract)
    g = grid(n)
    rng = np.random.default_rng(n)
    v = np.triu(rng.standard_normal((n + 1, n + 1)))
    v[0, 0] = v[1, n] = v[n, n] = v[0, 1] = -0.0
    v[n, 0] = -0.0
    want = v * tail_weight_matrix(g)
    got = tail_weighted(g, v)
    assert got.tobytes() == want.tobytes()
    assert np.signbit(got).sum() > 0 and (got < 0.0).any()
    # written over v itself, each cell from its own value, the same bits
    assert tail_weighted(g, v, out=v) is v
    assert v.tobytes() == want.tobytes()


def test_product_form_phi_is_the_read_only_node_table():
    # the spec is evaluated once per generator: a product-form Phi holds
    # the node table itself, which cannot be written, and the delayed
    # operator's G is read from the same table
    g = grid(12)
    gen = DelayedGenerator(Uniform(1.0), example33_kernel(), g)
    phi = build_phi(gen)
    assert phi.values is gen.node_table
    assert phi.values.tobytes() == gen.spec_at(g.nodes).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        phi.values[0, 1] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        phi.values *= 2.0
    assert build_phi(gen).values is phi.values
    assert gen.G_at(g.nodes, gen.node_table).tobytes() \
        == gen.G_at(g.nodes).tobytes()
    # a G spec's Phi is a fresh table, its mass times the node table
    gen = DelayedGenerator(Uniform(1.0), constant_kernel(2.0), g)
    phi = build_phi(gen)
    assert phi.values is not gen.node_table and phi.values.flags.writeable
    assert not gen.node_table.flags.writeable


def test_resolvent_report_is_none_where_the_sharp_tail_is_unsummable():
    # C*T = 2.45e5 needs over 2^20 terms of the sharp tail, but Psi is
    # finite: the resolvent is returned with no report
    spec = poly_exp_kernel(k=1, lam=1.5, scale=1e6)
    phi = build_phi(DelayedGenerator(DiracAt(1.0, 0.0), spec, grid(3)))
    with pytest.raises(ToleranceUnreachable, match="2\\^20"):
        sharp_tail(phi.sup_norm, 1.0, 1e-10)
    psi = resolvent(phi, tol=1e-10)
    assert psi.n_star is None and psi.tail_bound is None
    assert np.isfinite(psi.values).all() and psi.sup_norm > 1e14
    assert identity_residual(psi) <= 1e-14 * psi.sup_norm


def test_poly_exp_bound_and_values():
    spec = poly_exp_kernel(k=1, lam=1.0, horizon=1.0)
    # sup of u e^{-u} on [0,1] is at u=1 (max of the hump is at u=1)
    assert spec.G_bound == pytest.approx(math.exp(-1.0), abs=1e-6)
    g = grid(10)
    tab = build_phi(DelayedGenerator(DiracAt(1.0, 0.0), spec, g))
    assert tab.values[0, 5] == pytest.approx(0.5 * math.exp(-0.5))
    # an interior peak at u = k/lam = 1/3 lies between the 4097 bound
    # samples but on the node of a 3-step grid
    spec = poly_exp_kernel(k=1, lam=3.0, horizon=1.0)
    assert spec.G_bound == pytest.approx(math.exp(-1.0) / 3.0, rel=1e-15)
    build_phi(DelayedGenerator(DiracAt(1.0, 0.0), spec,
                               TriangularGrid(1.0, 3)))
    # the peak 1e6/(12 e) = 3.1e4 on the node t = 1/12 of a 12-step grid:
    # G there rounds 3.6e-12 (1.2e-16 relative) past the declared sup,
    # which a slack relative to the bound absorbs and an absolute 1e-12
    # did not
    spec = poly_exp_kernel(k=1, lam=12.0, scale=1e6, horizon=1.0)
    build_phi(DelayedGenerator(DiracAt(1.0, 0.0), spec,
                               TriangularGrid(1.0, 12)))


def test_poly_exp_rejects_an_overflowing_bound():
    # e^{2000 u} overflows on [0, 1], e^u on [0, 1000]: the table could not
    # be finite, so the spec is refused before any table is built
    for lam, horizon in [(-2000.0, 1.0), (-1.0, 1000.0)]:
        with pytest.raises(ValueError, match="no finite bound"):
            poly_exp_kernel(k=1, lam=lam, horizon=horizon)
    assert math.isfinite(poly_exp_kernel(k=1, lam=-700.0).G_bound)
