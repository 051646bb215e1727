"""Cross-oracle solvers: collocation, delayed Picard, regression Monte Carlo."""

import math

import numpy as np
import pytest

from bsvielab.girsanov import sample_paths
from bsvielab.kernels import TriangularGrid, build_phi, constant_kernel, \
    example33_kernel, poly_exp_kernel, resolvent, tail_weight_matrix, \
    zero_extend_kernel, zero_kernel
from bsvielab.measures import Atoms, DiracAt, Mixture, Uniform, snap_lag
from bsvielab.oracles import PicardConfig, PicardDiverged, PicardResult, \
    PicardStalled, RegressionIllConditioned, SingularStep, _NodeRegressor, \
    _g_weighted_term, build_delayed_operator, lipschitz_constant, \
    residual_delayed, residual_reduced, residual_reduced_pathwise, \
    solve_delayed_lsmc, solve_delayed_picard, solve_reduced_collocation
from bsvielab.solver import solve_Y, solve_Z
from bsvielab.terminal import Deterministic, GaussianLinear, f0_profile, \
    make_f0, make_phi

T = 1.0


def make_phi_table(c, n, measure=None, spec=None):
    g = TriangularGrid(T, n)
    m = measure if measure is not None else DiracAt(T, 0.0)
    k = spec if spec is not None else constant_kernel(c)
    return g, m, k, build_phi(m, k, g)


def test_collocation_zero_kernel_identity():
    g, m, k, phi = make_phi_table(0.0, 50)
    fbar = np.sin(3 * g.nodes)
    y = solve_reduced_collocation(fbar, phi, g)
    assert np.array_equal(y, fbar)


def test_collocation_ode_oracle():
    g, m, k, phi = make_phi_table(0.5, 200)
    y = solve_reduced_collocation(np.ones(201), phi, g)
    want = np.exp(0.5 * (1.0 - g.nodes))
    assert np.abs(y - want).max() < 10 * g.dt**2
    assert y[0] == pytest.approx(math.exp(0.5), abs=1e-4)


def test_collocation_matches_neumann_series():
    # Fbar(t) = e^{-t}, Phi(t,s) = s - t: two independent evaluations
    spec = poly_exp_kernel(k=1, lam=0.0)
    g, m, k, phi = make_phi_table(0.0, 200, spec=spec)
    fam = Deterministic(f0=make_f0("exp_decay", rate=1.0))
    psi = resolvent(phi, tol=1e-12)
    y_neumann = solve_Y(fam, psi, None, g).y
    y_colloc = solve_reduced_collocation(np.exp(-g.nodes), phi, g)
    assert np.abs(y_neumann - y_colloc).max() < 10 * g.dt**2


def test_collocation_vectorized_over_paths():
    g, m, k, phi = make_phi_table(0.5, 60)
    f1 = np.ones(61)
    f2 = np.exp(-g.nodes)
    stacked = solve_reduced_collocation(np.stack([f1, f2]), phi, g)
    assert np.allclose(stacked[0], solve_reduced_collocation(f1, phi, g))
    assert np.allclose(stacked[1], solve_reduced_collocation(f2, phi, g))


def test_collocation_singular_step():
    n = 10
    g = TriangularGrid(T, n)
    c = 2.0 / g.dt  # makes 1 - (dt/2) Phi_ii vanish
    phi = build_phi(DiracAt(T, 0.0), constant_kernel(c), g)
    with pytest.raises(SingularStep):
        solve_reduced_collocation(np.ones(n + 1), phi, g)


def picard(fam, k, m, g, cfg=PicardConfig()):
    return solve_delayed_picard(f0_profile(fam, g),
                                build_delayed_operator(k, m, g), cfg)


def delayed_residual(y, fam, k, m, g):
    return residual_delayed(y, f0_profile(fam, g),
                            build_delayed_operator(k, m, g))


def test_picard_matches_collocation_for_dirac_at_zero():
    g, m, k, phi = make_phi_table(0.5, 100)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    res = picard(fam, k, m, g)
    y_colloc = solve_reduced_collocation(np.ones(101), phi, g)
    assert np.abs(res.y - y_colloc).max() < 10 * g.dt**2


def test_picard_zero_kernel_single_sweep():
    g = TriangularGrid(T, 30)
    fam = Deterministic(f0=make_f0("exp_decay", rate=1.0))
    res = picard(fam, zero_kernel(), DiracAt(T, 0.0), g)
    assert res.iterations == 1
    assert np.allclose(res.y, np.exp(-g.nodes))


def test_picard_retarded_dirac_fixed_point_certificate():
    g = TriangularGrid(T, 80)
    m = DiracAt(T, -0.3)
    k = constant_kernel(0.5)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    res = picard(fam, k, m, g)
    r, sup = delayed_residual(res.y, fam, k, m, g)
    assert sup <= 1e-10 + 1e-12
    # the same Y pushed through the reduced equation: a measured, nonzero gap
    phi = build_phi(m, k, g)
    _, sup_red = residual_reduced(res.y, np.ones(81), phi, g)
    assert sup_red > 1e-3


def test_picard_geometric_contraction():
    g = TriangularGrid(T, 60)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    res = picard(fam, constant_kernel(0.6), DiracAt(T, 0.0), g)
    d = res.sup_diffs
    for a, b in zip(d[3:-1], d[4:]):
        assert b < a


def test_picard_divergence_guard():
    # a point mass at lag 0 keeps the operator Volterra (iteration always
    # converges); a retarded atom reads the past, and with a large bound
    # the spectral radius exceeds 1 and the guard must trip
    g = TriangularGrid(T, 40)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    with pytest.raises(PicardDiverged):
        picard(fam, constant_kernel(8.0), DiracAt(T, -0.4), g)


def test_picard_stalls_on_tiny_budget():
    g = TriangularGrid(T, 40)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    with pytest.raises(PicardStalled):
        picard(fam, constant_kernel(0.6), DiracAt(T, 0.0), g,
               PicardConfig(max_iterations=2))


def test_picard_config_validation():
    with pytest.raises(ValueError):
        PicardConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        PicardConfig(tolerance=float("nan"))
    with pytest.raises(ValueError):
        PicardConfig(max_iterations=0)


def test_residual_trivial_cases():
    g, m, k, phi = make_phi_table(0.5, 40)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    r, sup = delayed_residual(np.zeros(41), fam, k, m, g)
    assert np.allclose(r, -1.0)
    r2, sup2 = residual_reduced(np.ones(41), np.ones(41),
                                build_phi(m, zero_kernel(), g), g)
    assert sup2 == 0.0


def test_explicit_Y_satisfies_both_equations_for_dirac():
    g, m, k, phi = make_phi_table(0.5, 150)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    psi = resolvent(phi, tol=1e-12)
    y = solve_Y(fam, psi, None, g).y
    _, sup_del = delayed_residual(y, fam, k, m, g)
    _, sup_red = residual_reduced(y, np.ones(151), phi, g)
    assert sup_red < 10 * g.dt**2
    assert sup_del < 10 * g.dt**2


def test_uniform_measure_delayed_vs_reduced_gap_is_real():
    # Picard on the delayed equation vs collocation on the reduced one:
    # for a uniform delay measure the two equations genuinely differ
    g = TriangularGrid(T, 100)
    m = Uniform(T)
    k = constant_kernel(0.8)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    res = picard(fam, k, m, g)
    _, sup_self = delayed_residual(res.y, fam, k, m, g)
    assert sup_self <= 1e-10 + 1e-12
    phi = build_phi(m, k, g)
    y_red = solve_reduced_collocation(np.ones(101), phi, g)
    gap = np.abs(res.y - y_red).max()
    assert gap > 1e-3  # measured discrepancy, not a defect


def test_lipschitz_constant_values():
    assert lipschitz_constant(constant_kernel(1.0, 0.0)) == 2.0
    assert lipschitz_constant(constant_kernel(0.0, 0.0)) == 0.0
    assert lipschitz_constant(constant_kernel(2.0, 3.0)) == 18.0


def test_lsmc_martingale_representation():
    g = TriangularGrid(T, 20)
    m = DiracAt(T, 0.0)
    k = zero_kernel()
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(g, 20_000, 31, "P")
    res = solve_delayed_lsmc(fam, k, m, build_delayed_operator(k, m, g), g,
                             ens)
    # Y(t_i) tracks W(t_i): R^2 of the fit against the exact conditional
    for i in (5, 10, 15):
        w = ens.w[:, i]
        ss_res = float(((res.y[:, i] - w) ** 2).sum())
        ss_tot = float(((w - w.mean()) ** 2).sum())
        assert 1.0 - ss_res / ss_tot > 0.999
    tri = np.triu_indices(20)
    assert np.all(np.abs(res.z[:20, :20][tri] - 1.0)
                  <= 3 * res.z_se[:20, :20][tri] + 1e-12)


def test_lsmc_cross_oracle_against_explicit():
    c = 0.3
    g = TriangularGrid(T, 20)
    m = DiracAt(T, 0.0)
    k = constant_kernel(c)
    phi = build_phi(m, k, g)
    psi = resolvent(phi, tol=1e-12)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(g, 20_000, 37, "P")
    fld = solve_Y(fam, psi, None, g, ens)
    res = solve_delayed_lsmc(fam, k, m, build_delayed_operator(k, m, g), g,
                             ens)
    for i in (0, 5, 10, 15, 20):
        # paired comparison of raw regression targets against the explicit
        # per-path values: the target spread is the honest noise scale
        d = res.y_targets[:, i] - fld.y[:, i]
        se = d.std(ddof=1) / math.sqrt(len(d))
        assert abs(d.mean()) <= 3 * se + 1e-3, i
    z_closed = solve_Z(fam, phi, psi, None, g)
    for i, j in ((0, 5), (0, 19), (5, 10), (10, 19)):
        assert abs(res.z[i, j] - z_closed[i, j]) <= 3 * res.z_se[i, j], (i, j)


def test_lsmc_deterministic_F_has_no_martingale_part():
    g = TriangularGrid(T, 15)
    m = DiracAt(T, 0.0)
    k = constant_kernel(0.4)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    ens = sample_paths(g, 5_000, 41, "P")
    res = solve_delayed_lsmc(fam, k, m, build_delayed_operator(k, m, g), g,
                             ens)
    tri = np.triu_indices(15)
    assert np.all(np.abs(res.z[:15, :15][tri])
                  <= 3 * res.z_se[:15, :15][tri] + 1e-10)


def test_pathwise_reduced_residual_exact_for_martingale():
    g = TriangularGrid(T, 25)
    m = DiracAt(T, 0.0)
    k = zero_kernel()
    phi = build_phi(m, k, g)
    psi = resolvent(phi, tol=1e-12)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(g, 300, 43, "P")
    fld = solve_Y(fam, psi, None, g, ens)
    z = solve_Z(fam, phi, psi, None, g)
    r = residual_reduced_pathwise(fld.y, z, fam, phi, g, ens)
    assert np.abs(r).max() < 1e-12


def test_regression_guard_trips_on_collinear_basis():
    w_col = np.full(500, 2.0)
    w_col[0] += 1e-9
    with pytest.raises(RegressionIllConditioned):
        _NodeRegressor(w_col)


def test_delayed_operator_accepts_product_form_kernels():
    # kernels supplied as the reduced product Phi reconstruct G through the
    # measure mass; the operator must evaluate on vectorized node blocks
    grid = TriangularGrid(1.0, 24)
    m = Uniform(1.0)
    k = example33_kernel()
    op = build_delayed_operator(k, m, grid)
    assert op.shape == (25, 25)
    assert np.all(np.isfinite(op))
    assert np.abs(op).max() > 0.0
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    y = solve_delayed_picard(f0_profile(fam, grid), op).y
    _, sup = residual_delayed(y, f0_profile(fam, grid), op)
    assert sup < 1e-9


def test_delayed_operator_annihilates_negative_times():
    # retarded point mass: rows with t_i + u < 0 must receive no mass
    g = TriangularGrid(T, 20)
    m = DiracAt(T, -0.5)
    op = build_delayed_operator(constant_kernel(1.0), m, g)
    # for t_i < 0.5 the first kernel argument t_i - 0.5 is negative at the
    # only atom, so those rows integrate G = 0 over part of the range only
    assert op[0, :].sum() == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# both delay integrals against their original per-column loop versions


def reference_delayed_operator(k, m, grid):
    """The operator assembled column by column, one scalar cell lookup per
    (u, s_j)."""
    n, dt = grid.n, grid.dt
    nodes = grid.nodes
    u_pts, u_wts = m.quadrature()
    trap = tail_weight_matrix(grid)
    if k.phi_direct is None:
        gfun = zero_extend_kernel(k.G)
    else:
        phi_fun = zero_extend_kernel(k.phi_direct)

        def gfun(a, b):
            lag = np.clip(np.atleast_1d(b) - grid.horizon, -grid.horizon, 0.0)
            mass = np.array([m.mass_closed(snap_lag(float(v)))
                             for v in np.ravel(lag)]).reshape(np.shape(lag))
            vals = phi_fun(a, b)
            return np.divide(vals, mass, out=np.zeros_like(vals),
                             where=mass > 1e-12)

    op = np.zeros((n + 1, n + 1))
    tt = nodes[:, None]
    for u, wu in zip(u_pts, u_wts):
        if wu == 0.0:
            continue
        shifted = nodes + u
        gq = np.asarray(gfun(tt + u, shifted[None, :]), dtype=float)
        coeff = trap * gq * wu
        pos = np.clip(shifted, 0.0, grid.horizon)
        idx = np.minimum((pos / dt).astype(int), n - 1)
        frac = pos / dt - idx
        for j in range(n + 1):
            col = coeff[:, j]
            if not np.any(col):
                continue
            op[:, idx[j]] += col * (1.0 - frac[j])
            op[:, idx[j] + 1] += col * frac[j]
    return op


def reference_g_weighted_term(k, m, grid, z_surface, trap):
    """The g-weighted Z term as a scalar triple loop over (u, t_i, s_j)."""
    if k.g_bound == 0.0:
        return np.zeros(grid.n + 1)
    n, dt = grid.n, grid.dt
    nodes = grid.nodes
    u_pts, u_wts = m.quadrature()
    g_ext = zero_extend_kernel(lambda a, b: np.asarray(k.g(b), dtype=float)
                               + 0.0 * a)
    out = np.zeros(n + 1)

    def z_at(tq, sq):
        if tq < 0.0 or sq < 0.0 or tq > sq:
            return 0.0
        i = min(int(tq / dt), n - 1)
        j = min(int(sq / dt), n - 1)
        fi, fj = tq / dt - i, sq / dt - j
        return ((1 - fi) * (1 - fj) * z_surface[i, j]
                + fi * (1 - fj) * z_surface[i + 1, j]
                + (1 - fi) * fj * z_surface[i, j + 1]
                + fi * fj * z_surface[i + 1, j + 1])

    for u, wu in zip(u_pts, u_wts):
        for i in range(n + 1):
            acc = 0.0
            for j in range(i, n + 1):
                gv = float(g_ext(nodes[j] + u, nodes[j] + u)) \
                    if nodes[j] + u >= 0.0 else 0.0
                if gv != 0.0:
                    acc += trap[i, j] * gv * z_at(nodes[i] + u, nodes[j] + u)
            out[i] += wu * acc
    return out


DELAY_CASES = {
    "uniform-example33": (Uniform(T), example33_kernel(g_value=0.7)),
    "uniform-constant": (Uniform(T), constant_kernel(0.6, g_value=-1.3)),
    "dirac-0": (DiracAt(T, 0.0), constant_kernel(0.5, g_value=0.9)),
    "dirac-0.3": (DiracAt(T, -0.3), constant_kernel(0.5, g_value=0.9)),
    "dirac-0.5": (DiracAt(T, -0.5), constant_kernel(0.5, g_value=0.9)),
    "off-grid-atoms": (Atoms(T, ((-0.013, 0.25), (-0.3717, 0.5),
                                 (-0.9001, 0.25))),
                       poly_exp_kernel(k=1, lam=0.5, g_value=1.1)),
    "uniform+dirac": (Mixture(T, ((Uniform(T), 0.6),
                                  (DiracAt(T, -0.25), 0.4))),
                      constant_kernel(0.4, g_value=0.5)),
}


@pytest.mark.parametrize("case", sorted(DELAY_CASES))
def test_delay_integrals_match_loop_references_bitwise(case):
    m, k = DELAY_CASES[case]
    g = TriangularGrid(T, 20)
    op = build_delayed_operator(k, m, g)
    assert np.array_equal(op, reference_delayed_operator(k, m, g))
    rng = np.random.default_rng(11)
    z = np.triu(rng.standard_normal((21, 21)))
    trap = tail_weight_matrix(g)
    gz = _g_weighted_term(k, m, g, z, trap)
    assert np.abs(gz).max() > 0.0
    assert np.array_equal(gz, reference_g_weighted_term(k, m, g, z, trap))
