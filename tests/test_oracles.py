"""Cross-oracle solvers: collocation, delayed Picard, regression Monte Carlo."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from bsvielab.girsanov import DriftFunction, PathEnsemble, drift, \
    expect_q_columns, sample_paths
from bsvielab.kernels import DelayOperator, DelayedGenerator, GridMismatch, \
    HorizonMismatch, SingularStep, TriangularGrid, build_phi, \
    constant_kernel, example33_kernel, poly_exp_kernel, resolvent, \
    tail_weight_matrix, zero_extend_kernel
from bsvielab.measures import Atoms, DiracAt, Mixture, Uniform, snap_lag
from bsvielab import oracles
from bsvielab.oracles import PicardDiverged, PicardStalled, \
    RegressionIllConditioned, _IncrementBasis, _StackedBasis, \
    _g_weighted_term, _slope_z, build_delayed_operator, residual_delayed, \
    residual_reduced, residual_reduced_pathwise, solve_delayed_lsmc, \
    solve_delayed_picard, solve_reduced_collocation
from bsvielab.solver import solve_Y, solve_Z
from bsvielab.terminal import Deterministic, GaussianLinear, \
    evaluate_F_table, f0_profile, make_f0, make_h, make_phi

T = 1.0


def zero_drift(g):
    return DriftFunction(g, np.zeros(g.n + 1))


def make_phi_table(c, n, measure=None, spec=None):
    g = TriangularGrid(T, n)
    m = measure if measure is not None else DiracAt(T, 0.0)
    k = spec if spec is not None else constant_kernel(c)
    return g, m, k, build_phi(DelayedGenerator(m, k, g))


def test_collocation_zero_kernel_identity():
    g, m, k, phi = make_phi_table(0.0, 50)
    fbar = np.sin(3 * g.nodes)
    y = solve_reduced_collocation(fbar, phi)
    assert np.array_equal(y, fbar)


def test_collocation_ode_oracle():
    g, m, k, phi = make_phi_table(0.5, 200)
    y = solve_reduced_collocation(np.ones(201), phi)
    want = np.exp(0.5 * (1.0 - g.nodes))
    assert np.abs(y - want).max() < 10 * g.dt**2
    assert y[0] == pytest.approx(math.exp(0.5), abs=1e-4)


def test_collocation_matches_neumann_series():
    # Fbar(t) = e^{-t}, Phi(t,s) = s - t: two independent evaluations
    spec = poly_exp_kernel(k=1, lam=0.0)
    g, m, k, phi = make_phi_table(0.0, 200, spec=spec)
    fam = Deterministic(f0=make_f0("exp_decay", rate=1.0))
    psi = resolvent(phi, tol=1e-12)
    y_neumann = solve_Y(fam, psi)
    y_colloc = solve_reduced_collocation(np.exp(-g.nodes), phi)
    assert np.abs(y_neumann - y_colloc).max() < 10 * g.dt**2


def test_collocation_vectorized_over_paths():
    g, m, k, phi = make_phi_table(0.5, 60)
    f1 = np.ones(61)
    f2 = np.exp(-g.nodes)
    stacked = solve_reduced_collocation(np.stack([f1, f2]), phi)
    assert np.allclose(stacked[0], solve_reduced_collocation(f1, phi))
    assert np.allclose(stacked[1], solve_reduced_collocation(f2, phi))


def test_collocation_singular_step():
    n = 10
    g = TriangularGrid(T, n)
    c = 2.0 / g.dt  # makes 1 - (dt/2) Phi_ii vanish
    phi = build_phi(DelayedGenerator(DiracAt(T, 0.0), constant_kernel(c), g))
    with pytest.raises(SingularStep):
        solve_reduced_collocation(np.ones(n + 1), phi)


def picard(fam, k, m, g):
    op = build_delayed_operator(DelayedGenerator(m, k, g))
    return solve_delayed_picard(f0_profile(fam, g), op)


def delayed_residual(y, fam, k, m, g):
    op = build_delayed_operator(DelayedGenerator(m, k, g))
    return residual_delayed(y, f0_profile(fam, g), op)


def test_picard_matches_collocation_for_dirac_at_zero():
    g, m, k, phi = make_phi_table(0.5, 100)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    res = picard(fam, k, m, g)
    y_colloc = solve_reduced_collocation(np.ones(101), phi)
    assert np.abs(res.y - y_colloc).max() < 10 * g.dt**2


def test_picard_zero_kernel_single_sweep():
    g = TriangularGrid(T, 30)
    fam = Deterministic(f0=make_f0("exp_decay", rate=1.0))
    res = picard(fam, constant_kernel(0.0), DiracAt(T, 0.0), g)
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
    phi = build_phi(DelayedGenerator(m, k, g))
    _, sup_red = residual_reduced(res.y, np.ones(81), phi)
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


def test_picard_divergence_guard_fires_on_non_finite_f0():
    # a NaN or an infinity in the free term trips the guard at sweep 1,
    # as a NaN in the LSMC's F does (op @ y meets inf * 0: numpy's
    # invalid-value note is silenced, the guard is what is tested)
    g = TriangularGrid(T, 20)
    op = build_delayed_operator(
        DelayedGenerator(DiracAt(T, 0.0), constant_kernel(0.5), g))
    for bad in (np.nan, np.inf, -np.inf):
        f0 = np.ones(g.n + 1)
        f0[7] = bad
        with pytest.raises(PicardDiverged) as exc, \
                np.errstate(invalid="ignore"):
            solve_delayed_picard(f0, op)
        assert len(exc.value.sup_diffs) == 1, bad


def test_picard_stalls_on_tiny_budget(monkeypatch):
    g = TriangularGrid(T, 40)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    monkeypatch.setattr(oracles, "MAX_ITERATIONS", 2)
    with pytest.raises(PicardStalled) as exc:
        picard(fam, constant_kernel(0.6), DiracAt(T, 0.0), g)
    assert len(exc.value.sup_diffs) == 2
    assert "in 2 iterations" in str(exc.value)


def test_lsmc_stalls_on_tiny_budget(monkeypatch):
    # the LSMC reads the same budget as Picard
    g = TriangularGrid(T, 12)
    gen = DelayedGenerator(DiracAt(T, 0.0), constant_kernel(0.3), g)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(2000, 53, "P", zero_drift(g))
    monkeypatch.setattr(oracles, "MAX_ITERATIONS", 2)
    with pytest.raises(PicardStalled) as exc:
        solve_delayed_lsmc(evaluate_F_table(fam, ens),
                           build_delayed_operator(gen), ens)
    assert len(exc.value.sup_diffs) == 2
    assert "in 2 iterations" in str(exc.value)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_delayed_oracles_refuse_a_non_positive_tolerance(tol):
    g = TriangularGrid(T, 12)
    gen = DelayedGenerator(DiracAt(T, 0.0), constant_kernel(0.3), g)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(200, 53, "P", zero_drift(g))
    with pytest.raises(ValueError, match="tolerance must be positive"):
        solve_delayed_picard(np.ones(g.n + 1), build_delayed_operator(gen),
                             tol)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        solve_delayed_lsmc(evaluate_F_table(fam, ens),
                           build_delayed_operator(gen), ens, tol)


def test_residual_trivial_cases():
    g, m, k, phi = make_phi_table(0.5, 40)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    r, sup = delayed_residual(np.zeros(41), fam, k, m, g)
    assert np.allclose(r, -1.0)
    phi0 = build_phi(DelayedGenerator(m, constant_kernel(0.0), g))
    r2, sup2 = residual_reduced(np.ones(41), np.ones(41), phi0)
    assert sup2 == 0.0


def test_explicit_Y_satisfies_both_equations_for_dirac():
    g, m, k, phi = make_phi_table(0.5, 150)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    psi = resolvent(phi, tol=1e-12)
    y = solve_Y(fam, psi)
    _, sup_del = delayed_residual(y, fam, k, m, g)
    _, sup_red = residual_reduced(y, np.ones(151), phi)
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
    phi = build_phi(DelayedGenerator(m, k, g))
    y_red = solve_reduced_collocation(np.ones(101), phi)
    gap = np.abs(res.y - y_red).max()
    assert gap > 1e-3  # measured discrepancy, not a defect


@pytest.mark.parametrize("spec", [constant_kernel(0.5), example33_kernel()],
                         ids=["constant", "example33"])
def test_uniform_delay_leaves_y0_at_f0(spec):
    # at t = 0 every u < 0 puts t + u below 0, where G is zero-extended,
    # and a uniform delay has no atom at u = 0: (L y)(0) = 0, so Picard's
    # Y(0) is f0(0) exactly
    g = TriangularGrid(T, 60)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    op = build_delayed_operator(DelayedGenerator(Uniform(T), spec, g))
    assert np.all(op.values[0] == 0.0)
    assert picard(fam, spec, Uniform(T), g).y[0] == 1.0


def test_lsmc_martingale_representation():
    g = TriangularGrid(T, 20)
    gen = DelayedGenerator(DiracAt(T, 0.0), constant_kernel(0.0), g)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(20_000, 31, "P", zero_drift(g))
    res = solve_delayed_lsmc(evaluate_F_table(fam, ens),
                             build_delayed_operator(gen), ens)
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
    gen = DelayedGenerator(DiracAt(T, 0.0), constant_kernel(c), g)
    phi = build_phi(gen)
    psi = resolvent(phi, tol=1e-12)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(20_000, 37, "P", zero_drift(g))
    y = solve_Y(fam, psi, ens)
    res = solve_delayed_lsmc(evaluate_F_table(fam, ens),
                             build_delayed_operator(gen), ens)
    for i in (0, 5, 10, 15, 20):
        # paired comparison of raw regression targets against the explicit
        # per-path values: the target spread is the honest noise scale
        d = res.y_targets[:, i] - y[:, i]
        se = d.std(ddof=1) / math.sqrt(len(d))
        assert abs(d.mean()) <= 3 * se + 1e-3, i
    z_closed = solve_Z(fam, psi, zero_drift(g))
    for i, j in ((0, 5), (0, 19), (5, 10), (10, 19)):
        assert abs(res.z[i, j] - z_closed[i, j]) <= 3 * res.z_se[i, j], (i, j)


def test_lsmc_deterministic_F_has_no_martingale_part():
    g = TriangularGrid(T, 15)
    gen = DelayedGenerator(DiracAt(T, 0.0), constant_kernel(0.4), g)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    ens = sample_paths(5_000, 41, "P", zero_drift(g))
    res = solve_delayed_lsmc(evaluate_F_table(fam, ens),
                             build_delayed_operator(gen), ens)
    tri = np.triu_indices(15)
    assert np.all(np.abs(res.z[:15, :15][tri])
                  <= 3 * res.z_se[:15, :15][tri] + 1e-10)


def test_pathwise_reduced_residual_exact_for_martingale():
    g = TriangularGrid(T, 25)
    k = constant_kernel(0.0)
    phi = build_phi(DelayedGenerator(DiracAt(T, 0.0), k, g))
    psi = resolvent(phi, tol=1e-12)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(300, 43, "P", zero_drift(g))
    y = solve_Y(fam, psi, ens)
    z = solve_Z(fam, psi, zero_drift(g))
    f_vals = evaluate_F_table(fam, ens)
    r = residual_reduced_pathwise(y, z, f_vals, phi, ens)
    assert np.abs(r).max() < 1e-12
    # Phi is built apart from the paths: one on T = 2 is refused
    phi_t2 = build_phi(DelayedGenerator(DiracAt(2.0, 0.0), k,
                                        TriangularGrid(2.0, 25)))
    with pytest.raises(GridMismatch):
        residual_reduced_pathwise(y, z, f_vals, phi_t2, ens)


def pathwise_inputs(mode, n, m_paths, seed):
    """Y, Z, F and Phi of a Gaussian-linear family on a tilted ensemble."""
    gen = DelayedGenerator(DiracAt(T, 0.0), constant_kernel(0.3, g_value=0.2),
                           TriangularGrid(T, n))
    phi = build_phi(gen)
    psi = resolvent(phi, tol=1e-12)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    b = drift(gen)
    ens = sample_paths(m_paths, seed, mode, b)
    return (solve_Y(fam, psi, ens), solve_Z(fam, psi, b),
            evaluate_F_table(fam, ens), phi, ens)


@pytest.mark.parametrize("mode", ["P", "Q"])
def test_pathwise_ito_sum_on_w_q_increments(mode):
    # the left-point sum against dW - b dt is the one against the
    # increments of the W^Q paths, up to rounding
    y, z, f_vals, phi, ens = pathwise_inputs(mode, 20, 500, 71)
    n = phi.grid.n
    want = residual_reduced(y, f_vals, phi)[0]
    want[:, :n] += np.diff(ens.wq, axis=1) @ np.triu(z[:n, :n]).T
    r = residual_reduced_pathwise(y, z, f_vals, phi, ens)
    assert np.abs(r - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("mode", ["P", "Q"])
def test_pathwise_residual_traced_peak_within_two_tables(mode):
    # the Ito sum reads the ensemble's draws, allocated before the trace,
    # in both modes: no dW or dW^Q table is formed.  The residual's
    # (M, N+1) float tables are then two: R and one temporary, first
    # y A^T and then the Ito sum (M, N).  The rest is O(N^2): the tail
    # weights, A, and the triangle of Z and its transpose, which
    # 4 (N+1)^2 floats cover; numpy's ufunc buffers come on top.
    y, z, f_vals, phi, ens = pathwise_inputs(mode, 60, 20_000, 73)
    n = phi.grid.n
    table = ens.n_paths * (n + 1) * 8
    tracemalloc.start()
    try:
        residual_reduced_pathwise(y, z, f_vals, phi, ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * table + 4 * (n + 1) ** 2 * 8 + 2 * 8 * np.getbufsize()


def test_delayed_operator_horizon_mismatch():
    # a measure on [-1, 0] on a T = 2 grid is refused by the generator the
    # operator and the LSMC read; one on [-2, 0] gives the (N+1)^2 operator
    g = TriangularGrid(2.0, 20)
    k = constant_kernel(0.3)
    with pytest.raises(HorizonMismatch,
                       match=r"^measure horizon 1\.0 != grid horizon 2\.0$"):
        build_delayed_operator(DelayedGenerator(DiracAt(1.0, 0.0), k, g))
    gen = DelayedGenerator(DiracAt(2.0, 0.0), k, g)
    assert build_delayed_operator(gen).values.shape == (21, 21)


def test_lsmc_grid_mismatch():
    # the generator and the paths are built apart: paths on the same
    # horizon but another N are refused, paths on its grid are not
    gen = DelayedGenerator(DiracAt(T, 0.0), constant_kernel(0.3),
                           TriangularGrid(T, 20))
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(500, 3, "P", zero_drift(TriangularGrid(T, 25)))
    with pytest.raises(GridMismatch, match=r"n=20\) against .*n=25\)"):
        solve_delayed_lsmc(evaluate_F_table(fam, ens),
                           build_delayed_operator(gen), ens)
    ens = sample_paths(500, 3, "P", zero_drift(gen.grid))
    res = solve_delayed_lsmc(evaluate_F_table(fam, ens),
                             build_delayed_operator(gen), ens)
    assert res.y.shape == (500, 21)


@pytest.mark.parametrize("op_grid, grid", [
    (TriangularGrid(T, 10), TriangularGrid(T, 12)),
    (TriangularGrid(2.0, 10), TriangularGrid(T, 10)),
], ids=["other-n", "other-horizon"])
def test_delayed_oracles_refuse_an_operator_on_another_grid(op_grid, grid):
    # L is built apart from the profiles, the generator and the paths it
    # meets: on another N every delayed oracle refuses it; on another
    # horizon with the same N only the LSMC can, from the generator and
    # the ensemble, as a profile carries no horizon
    k = constant_kernel(0.3)
    op = build_delayed_operator(
        DelayedGenerator(Uniform(op_grid.horizon), k, op_grid))
    gen = DelayedGenerator(Uniform(T), k, grid)
    ens = sample_paths(500, 3, "P", drift(gen))
    f_vals = evaluate_F_table(LSMC_FAMILIES["gaussian"], ens)
    with pytest.raises(GridMismatch, match=f"^{re.escape(repr(op_grid))} "
                       f"against {re.escape(repr(grid))}"):
        solve_delayed_lsmc(f_vals, op, ens)
    f0 = np.ones(grid.n + 1)
    if op_grid.n != grid.n:
        with pytest.raises(GridMismatch, match=r"node array of shape \(13,\)"):
            solve_delayed_picard(f0, op)
        with pytest.raises(GridMismatch, match=r"node array of shape \(13,\)"):
            residual_delayed(f0, f0, op)


def reference_stacked_rows(w):
    """B^T (P, M) in full, as the LSMC once built and held it: every
    node's intercept and centred, unit-variance powers of W(t_i), a row
    zeroed where W(t_i) is degenerate or the power has no spread."""
    m_paths, n1 = w.shape
    d = oracles.REGRESSION_DEGREE + 1
    rows = np.empty((n1, d, m_paths))
    rows[:, 0] = 1.0
    rows[:, 1] = w.T
    for p in range(2, d):
        np.multiply(rows[:, p - 1], rows[:, 1], out=rows[:, p])
    live = np.ones((n1, d), dtype=bool)
    for p in range(1, d):
        row = rows[:, p]
        row -= row.mean(axis=1, keepdims=True)
        sd = np.sqrt(np.square(row).sum(axis=1) / m_paths)
        live[:, p] = (sd > 1e-12) & live[:, 1]
        row /= np.where(live[:, p], sd, 1.0)[:, None]
        row[~live[:, p]] = 0.0
    return rows.reshape(n1 * d, m_paths)


@pytest.mark.parametrize("m_paths, n", [(20_000, 20), (4_001, 12), (700, 3)])
def test_basis_blocks_match_the_stacked_basis_bitwise(m_paths, n):
    # each node's centring and scale are those of the full-table pass, and
    # the blocks of paths are its columns, bit for bit
    ens = sample_paths(m_paths, 71, "Q", zero_drift(TriangularGrid(T, n)))
    w = ens.w
    basis = _StackedBasis(w, np.zeros((m_paths, n + 1)))
    blocks = [basis._chunk(w[lo:lo + oracles.LSMC_CHUNK])
              for lo in range(0, m_paths, oracles.LSMC_CHUNK)]
    assert np.concatenate(blocks, axis=1).tobytes() \
        == reference_stacked_rows(w).tobytes()


def test_basis_values_and_sup_by_node_blocks_bitwise(monkeypatch):
    # blocks of 3 node rows on N + 1 = 13 nodes, the last block short:
    # values is the whole-table Horner pass, and sup the max |.| over its
    # table, bit for bit, a NaN included
    m_paths, n = 500, 12
    monkeypatch.setattr(oracles, "HORNER_BLOCK", 3 * m_paths)
    ens = sample_paths(m_paths, 73, "Q", zero_drift(TriangularGrid(T, n)))
    basis = _StackedBasis(ens.w, np.zeros((m_paths, n + 1)))
    wt = np.ascontiguousarray(ens.w.T)
    c = np.random.default_rng(5).standard_normal((n + 1, 5))
    a = basis._powers(c)[:, :, None]
    want = wt * a[:, -1]
    for p in range(a.shape[1] - 2, 0, -1):
        want += a[:, p]
        want *= wt
    want += a[:, 0]
    assert basis.values(c, wt).tobytes() == want.tobytes()
    assert basis.sup(c, wt) == np.abs(want).max()
    for i in range(n + 1):  # node i alone, in whichever block it falls
        c_i = np.where(np.arange(n + 1)[:, None] == i, c, 0.0)
        assert basis.sup(c_i, wt) == np.abs(want[i]).max(), i
    c[7, 2] = np.nan
    assert np.isnan(basis.sup(c, wt))


def test_regression_guard_trips_on_collinear_basis():
    w_col = np.full(500, 2.0)
    w_col[0] += 1e-9
    with pytest.raises(RegressionIllConditioned, match="condition number"):
        _StackedBasis(w_col[:, None], np.zeros((500, 1)))


def test_delayed_operator_accepts_product_form_kernels():
    # kernels supplied as the reduced product Phi reconstruct G through the
    # measure mass; the operator must evaluate on vectorized node blocks
    grid = TriangularGrid(1.0, 24)
    m = Uniform(1.0)
    k = example33_kernel()
    op = build_delayed_operator(DelayedGenerator(m, k, grid))
    assert op.grid == grid and op.values.shape == (25, 25)
    assert np.all(np.isfinite(op.values))
    assert np.abs(op.values).max() > 0.0
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    y = solve_delayed_picard(f0_profile(fam, grid), op).y
    _, sup = residual_delayed(y, f0_profile(fam, grid), op)
    assert sup < 1e-9


def test_delayed_operator_annihilates_negative_times():
    # retarded point mass: rows with t_i + u < 0 must receive no mass
    g = TriangularGrid(T, 20)
    m = DiracAt(T, -0.5)
    op = build_delayed_operator(DelayedGenerator(m, constant_kernel(1.0), g))
    # for t_i < 0.5 the first kernel argument t_i - 0.5 is negative at the
    # only atom, so those rows integrate G = 0 over part of the range only
    assert op.values[0, :].sum() == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# both delay integrals against per-column loop versions


def reference_lag_weights(m, grid):
    """Row weights w[i][k] of the grid lags u = -t_k, one scalar at a time:
    the uniform part as a trapezoid over [-t_i, 0], then each atom that
    sits on a lag; the atoms between lags are returned apart."""
    n, dt = grid.n, grid.dt
    dens = m.diffuse_mass / m.horizon
    w = [[0.0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for k in range(i + 1):
            w[i][k] = dens * (0.5 * dt if k in (0, i) else dt)
    between = []
    for u, wu in m.atoms:
        k = round(-u / dt)
        if abs(-u / dt - k) < 1e-9:
            for i in range(n + 1):
                w[i][k] += wu
        else:
            between.append((u, wu))
    return w, between


def reference_kernel(k, m, grid):
    """G at (t, s) arrays, zero-extended; a product-form kernel divided by
    one scalar closed-mass query per column."""
    if k.phi_direct is None:
        return zero_extend_kernel(k.G)
    phi_fun = zero_extend_kernel(k.phi_direct)

    def gfun(a, b):
        lag = np.clip(np.atleast_1d(b) - grid.horizon, -grid.horizon, 0.0)
        mass = np.array([m.mass_closed(snap_lag(float(v)))
                         for v in np.ravel(lag)]).reshape(np.shape(lag))
        vals = phi_fun(a, b)
        return np.divide(vals, mass, out=np.zeros_like(vals),
                         where=mass > 1e-12)
    return gfun


def reference_delayed_operator(kfun, m, grid, table=None):
    """The operator of the kernel kfun (at (t, s) arrays, zero at negative
    times; reference_kernel for G) assembled column by column: for every
    grid lag k each column s_j reads K(t_{i-k}, s_{j-k}) from table, K on
    the nodes (kfun there by default); then, for every atom between lags,
    each column s_j gives theta of its weight to the node below s_j + u
    (all columns first), then 1 - theta to the node above."""
    n, dt = grid.n, grid.dt
    nodes = grid.nodes
    trap = tail_weight_matrix(grid)
    w, between = reference_lag_weights(m, grid)
    tt = nodes[:, None]
    if table is None:
        table = np.asarray(kfun(tt, nodes[None, :]), dtype=float)
    op = np.zeros((n + 1, n + 1))
    for lag in range(n + 1):
        wcol = np.array([w[i][lag] for i in range(lag, n + 1)])
        for j in range(lag, n + 1):
            op[lag:, j - lag] += wcol * trap[lag:, j] \
                * table[:n + 1 - lag, j - lag]
    for u, wu in between:
        gq = np.asarray(kfun(tt + u, nodes[None, :] + u), dtype=float)
        pos = -u / dt
        lag = int(pos)
        theta = pos - lag
        for j in range(lag + 1, n + 1):
            op[:, j - lag - 1] += theta * (wu * trap[:, j] * gq[:, j])
        for j in range(lag + 1, n + 1):
            op[:, j - lag] += (1.0 - theta) * (wu * trap[:, j] * gq[:, j])
    return op


def reference_g(k):
    """g at (t, s) arrays, read at s, zero-extended."""
    return zero_extend_kernel(lambda a, b: np.asarray(k.g(b), dtype=float)
                              + 0.0 * a)


def reference_z_at(grid, z_surface, tq, sq):
    """The bilinear value of Z at one point (tq, sq), 0 off the triangle
    0 <= tq <= sq."""
    n, dt = grid.n, grid.dt
    if tq < 0.0 or sq < 0.0 or tq > sq:
        return 0.0
    i = min(int(tq / dt), n - 1)
    j = min(int(sq / dt), n - 1)
    fi, fj = tq / dt - i, sq / dt - j
    return ((1 - fi) * (1 - fj) * z_surface[i, j]
            + fi * (1 - fj) * z_surface[i + 1, j]
            + (1 - fi) * fj * z_surface[i, j + 1]
            + fi * fj * z_surface[i + 1, j + 1])


def reference_gz_kernel(k, grid, z_surface):
    """K(t, s) = g(s) Z(t, s) at (t, s) arrays, Z point by point by
    reference_z_at: the kernel whose delay operator has the g-term as
    its row sums.  Its node table is g times the surface itself, not
    kfun on the nodes: a node t_i need not locate at fraction 0 (t_3 / dt
    = 3 + 4.4e-16 at N = 20), and a bilinear read there is not exact."""
    g_ext = reference_g(k)

    def kfun(a, b):
        a, b = np.broadcast_arrays(a, b)
        z = [reference_z_at(grid, z_surface, tq, sq)
             for tq, sq in zip(a.ravel(), b.ravel())]
        return g_ext(a, b) * np.reshape(z, a.shape)
    return kfun


def reference_g_weighted_term(k, m, grid, z_surface):
    """The g-weighted Z term as a scalar triple loop over (u, t_i, s_j)."""
    if k.g_bound == 0.0:
        return np.zeros(grid.n + 1)
    n = grid.n
    nodes = grid.nodes
    trap = tail_weight_matrix(grid)
    w, between = reference_lag_weights(m, grid)
    g_ext = reference_g(k)
    out = np.zeros(n + 1)
    for lag in range(n + 1):
        for i in range(lag, n + 1):
            acc = 0.0
            for j in range(i, n + 1):
                gv = float(g_ext(nodes[j - lag], nodes[j - lag]))
                acc += trap[i, j] * gv * z_surface[i - lag, j - lag]
            out[i] += w[i][lag] * acc
    for u, wu in between:
        for i in range(n + 1):
            acc = 0.0
            for j in range(i, n + 1):
                gv = float(g_ext(nodes[j] + u, nodes[j] + u)) \
                    if nodes[j] + u >= 0.0 else 0.0
                if gv != 0.0:
                    acc += trap[i, j] * gv * reference_z_at(
                        grid, z_surface, nodes[i] + u, nodes[j] + u)
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
    # on an N = 20 grid -0.25 is a lag and -0.3717 lies between two
    "uniform+on-lag+between": (Mixture(T, ((Uniform(T), 0.5),
                                           (DiracAt(T, -0.25), 0.3),
                                           (DiracAt(T, -0.3717), 0.2))),
                               poly_exp_kernel(k=1, lam=0.5, g_value=1.1)),
    # product form: G = Phi / alpha([s-T, 0]) drops the cells of zero
    # mass, s > T/2 under the Dirac and s = T under the mixture
    "example33-dirac-0.5": (DiracAt(T, -0.5), example33_kernel(g_value=0.7)),
    "example33-mixture": (Mixture(T, ((Uniform(T), 0.5),
                                      (DiracAt(T, -0.25), 0.3),
                                      (DiracAt(T, -0.3717), 0.2))),
                          example33_kernel(g_value=0.7)),
}

EPS = np.finfo(float).eps


def delay_error_bounds(k, m, grid, z):
    """Bounds on |code - loop reference| for both delay integrals: the
    operator's for a measure with a uniform part, the g-term's for any
    measure, z the g-term's Z surface.

    To first order in u = eps/2, with S_c = sum_q |G[q, c]|, one operator
    cell (0 < r, c < N) of the window sum carries (hi + lo + 8) u rho dt^2
    S_c: the prefix P[k] (k + 1) u S_c, their difference one more u, the
    two quarter corrections 2 u, the scale fl(fl(rho dt) dt) and its
    product 3 u; hi + lo <= 2N - 3.  The loop adds at most N terms of
    three roundings each, (N + 3) u.  Together (3N + 8) u <= 2 (N + 2) eps.
    The g-term is the row sums of that window sum on x[q, c] = g(s_c)
    Z[q, c], S = sum |x|: (2N + 5) u S from the cells, at most N u S more
    from adding them and u S from forming x, against (2N + 5) u S for the
    triple loop: (5N + 11) u <= 3 (N + 2) eps.  The operator's atoms go
    through the same products as in the loop; only their sums are
    reordered, so each adds its weight times dt max|G| to its sums of
    absolute values.  The g-term's atoms are the row sums of the same walk
    on x: a term w trap x takes at most five roundings there (x, the two
    products, the theta split), each cell at most two adds per atom and
    the row a pairwise sum, against three roundings, a running sum and
    one add per atom in the loop.  With at most three atoms that is
    (2N + 17) u <= 3 (N + 2) eps of S, to which each atom adds its weight
    times T g_bound max|Z| (a row of trap sums to at most T)."""
    n, dt = grid.n, grid.dt
    nodes = grid.nodes
    gfun = reference_kernel(k, m, grid)
    table = np.abs(gfun(nodes[:, None], nodes[None, :]))
    gmax = table.max()
    for u, _ in m.atoms:
        gmax = max(gmax, np.abs(gfun(nodes[:, None] + u,
                                     nodes[None, :] + u)).max())
    atoms = sum(w for _, w in m.atoms)
    rho = m.diffuse_mass / m.horizon
    x = k.g(nodes) * z
    op_bound = 2 * (n + 2) * EPS * (rho * dt**2 * table.sum(axis=0)
                                    + atoms * dt * gmax)
    gz_bound = 3 * (n + 2) * EPS * (rho * dt**2 * np.abs(x).sum()
                                    + atoms * T * k.g_bound * np.abs(z).max())
    return op_bound, gz_bound


def check_delay_integrals(case, n):
    """Both delay integrals against their loop references.  The g-term is
    within delay_error_bounds of its scalar triple loop in every case.  A
    pure-atom measure's code is the column loop's: its operator equals
    reference_delayed_operator bit for bit, and its g-term the row sums of
    that loop on g Z.  A uniform part takes the window sum, within
    delay_error_bounds of the loop."""
    m, k = DELAY_CASES[case]
    g = TriangularGrid(T, n)
    gen = DelayedGenerator(m, k, g)
    op = build_delayed_operator(gen).values
    op_ref = reference_delayed_operator(reference_kernel(k, m, g), m, g)
    rng = np.random.default_rng(11)
    z = np.triu(rng.standard_normal((n + 1, n + 1)))
    gz = _g_weighted_term(gen, z)
    assert np.abs(gz).max() > 0.0
    op_bound, gz_bound = delay_error_bounds(k, m, g, z)
    assert np.all(np.abs(gz - reference_g_weighted_term(k, m, g, z))
                  <= gz_bound)
    if m.diffuse_mass == 0.0:
        assert np.array_equal(op, op_ref)
        gz_op = reference_delayed_operator(reference_gz_kernel(k, g, z), m, g,
                                           k.g(g.nodes) * z)
        assert np.array_equal(gz, gz_op.sum(axis=1))
        return
    assert np.all(np.abs(op - op_ref) <= op_bound)
    # rows 0 and N stay exactly zero
    assert not op[[0, n]].any() and not gz[[0, n]].any()


@pytest.mark.parametrize("case", sorted(DELAY_CASES))
def test_delay_integrals_match_loop_references_bitwise(case):
    check_delay_integrals(case, 20)


@pytest.mark.parametrize("case", sorted(DELAY_CASES))
@pytest.mark.parametrize("n", [2, 3, 7])
def test_delay_integrals_match_loop_references_small_grids(case, n):
    # N = 1 has no grid: TriangularGrid needs at least 2 steps
    check_delay_integrals(case, n)


def test_delayed_operator_peak_memory():
    # a uniform build keeps five (N+1)^2 tables live at most: G, its column
    # prefix M below N copies of M's row 0 (two tables), the operator and
    # the boolean lower triangle; numpy's ufunc buffers come on top
    grid = TriangularGrid(T, 400)
    table = (grid.n + 1) ** 2 * 8
    gen = DelayedGenerator(Uniform(T), constant_kernel(0.3), grid)
    tracemalloc.start()
    try:
        build_delayed_operator(gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * table + 2 * 8 * np.getbufsize()


OPERATOR_MEASURES = {
    "dirac-0": DiracAt(T, 0.0),
    "on-lag": DiracAt(T, -0.5),  # a lag of every even N
    "between-lags": DiracAt(T, -0.3717),
    "uniform": Uniform(T),
    "mixture": Mixture(T, ((Uniform(T), 0.5), (DiracAt(T, -0.5), 0.3),
                           (DiracAt(T, -0.3717), 0.2))),
}
OPERATOR_SPECS = {
    "example33": example33_kernel(),
    "constant": constant_kernel(0.6),
    "poly_exp": poly_exp_kernel(k=1, lam=0.5),
}


@pytest.mark.parametrize("n", [2, 3, 7, 20])
@pytest.mark.parametrize("measure", sorted(OPERATOR_MEASURES))
@pytest.mark.parametrize("spec", sorted(OPERATOR_SPECS))
def test_operator_from_phis_evaluation_bitwise(spec, measure, n):
    # the operator built from the node evaluation build_phi reads is the
    # walk on G_at's own table, bit for bit, and so is Phi; it holds its
    # generator, whose grid is its own
    gen = DelayedGenerator(OPERATOR_MEASURES[measure], OPERATOR_SPECS[spec],
                           TriangularGrid(T, n))
    nodes = gen.grid.nodes
    want = oracles._delay_walk(gen, gen.G_at(nodes), gen.G_at)
    values = gen.spec_at(nodes)
    phi = build_phi(gen, values)
    got = build_delayed_operator(gen, values)
    assert got.grid == gen.grid and got.values.tobytes() == want.tobytes()
    assert got.generator is gen
    bare = build_delayed_operator(gen)
    assert bare.generator is gen and bare.grid == gen.grid
    assert bare.values.tobytes() == want.tobytes()
    assert phi.values.tobytes() == build_phi(gen).values.tobytes()


def reference_diffuse_operator(gt, gen):
    """_diffuse_operator with its two gathers P[min(r, c), c] and
    P[max(c+r-N, 0), c] taken through (N+1)^2 index grids."""
    m, n, dt = gen.measure, gen.grid.n, gen.grid.dt
    p = np.cumsum(gt, axis=0)
    p -= 0.5 * gt
    r, c = np.ogrid[:n + 1, :n + 1]
    op = p[np.minimum(r, c), c]
    op -= p[np.maximum(c + r - n, 0), c]
    inner = np.arange(1, n)
    op[inner, inner] -= 0.25 * gt[inner, inner]
    op[inner, n - inner] -= 0.25 * gt[0, n - inner]
    op[:, 0], op[:, n] = 0.25 * gt[0, 0], 0.25 * gt[:, n]
    op[[0, n]] = 0.0
    op *= m.diffuse_mass / m.horizon * dt * dt
    return op


@pytest.mark.parametrize("n", [2, 3, 7, 20, 64])
def test_diffuse_operator_gathers_match_index_grids_bitwise(n):
    # the gathers are views, not index grids, with the same bits; and no
    # cell below the diagonal is read
    gen = DelayedGenerator(Mixture(T, ((Uniform(T), 0.7),
                                       (DiracAt(T, -0.5), 0.3))),
                           constant_kernel(0.6), TriangularGrid(T, n))
    rng = np.random.default_rng(n)
    gt = np.triu(rng.standard_normal((n + 1, n + 1)))
    gt[0, 1] = -0.0
    want = reference_diffuse_operator(gt, gen)
    assert oracles._diffuse_operator(gt, gen).tobytes() == want.tobytes()
    dirty = np.where(np.tri(n + 1, k=-1, dtype=bool),
                     rng.standard_normal((n + 1, n + 1)), gt)
    assert oracles._diffuse_operator(dirty, gen).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the LSMC Z slopes against their original per-(i, j) loop


def reference_slope_z(theta, ensemble, grid, op, trap):
    """Z slopes and SEs as the original double loop of M-length dot
    products, with residual vectors for the SEs."""
    n = grid.n
    dt = grid.dt
    m_paths = ensemble.n_paths
    dw = ensemble.dw
    z = np.zeros((n + 1, n + 1))
    se = np.zeros((n + 1, n + 1))
    for j in range(n):
        x = dw[:, j] - dw[:, j].mean()
        ss = float(x @ x)
        for i in range(j + 1):
            t_col = theta[:, i]
            slope = float(x @ t_col) / ss
            resid = t_col - t_col.mean() - slope * x
            var = float(resid @ resid) / max(m_paths - 2, 1) / ss
            z[i, j] = slope
            se[i, j] = math.sqrt(var)
    kk = np.divide(op, trap, out=np.zeros_like(op), where=trap > 0.0)
    for j in range(n):
        scale = 1.0 - op[j, j]
        z_diag = z[j, j] / scale
        se_diag = se[j, j] / abs(scale)
        half = 0.5 * dt * kk[: j + 1, j]
        z[: j + 1, j] += half * z_diag
        se[: j + 1, j] = np.hypot(se[: j + 1, j], np.abs(half) * se_diag)
    if n >= 2:
        rows = slice(0, n - 1)
        z[rows, n] = 2.0 * z[rows, n - 1] - z[rows, n - 2]
        se[rows, n] = np.hypot(2.0 * se[rows, n - 1], se[rows, n - 2])
        z[n - 1, n] = z[n, n] = z[n - 2, n]
        se[n - 1, n] = se[n, n] = se[n - 2, n]
    else:
        z[:, n] = z[:, n - 1]
        se[:, n] = se[:, n - 1]
    return np.where(np.triu(np.ones_like(z, dtype=bool)), z, 0.0), se


def small_lsmc(g_value, n=12, paths=2000):
    g = TriangularGrid(T, n)
    gen = DelayedGenerator(DiracAt(T, 0.0),
                           constant_kernel(0.3, g_value=g_value), g)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(paths, 53, "P", zero_drift(g))
    op = build_delayed_operator(gen)
    return g, op, ens, solve_delayed_lsmc(evaluate_F_table(fam, ens), op,
                                          ens)


def test_lsmc_divergence_guard_reads_the_formed_y(monkeypatch):
    # the running bound sup|Y_1| + (later sup-differences) only decides
    # when Y is formed, and the guard trips on that Y
    g = TriangularGrid(T, 12)
    gen = DelayedGenerator(DiracAt(T, 0.0), constant_kernel(0.3), g)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(2000, 53, "P", zero_drift(g))
    f_vals = evaluate_F_table(fam, ens)
    op = build_delayed_operator(gen)
    res = solve_delayed_lsmc(f_vals, op, ens)
    # sweep j's exact sup|Y_j|, from runs stopped there: the first sweep
    # whose sup-difference is below diffs[j - 1] is j (the diffs decrease)
    diffs = res.sup_diffs
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    sups = [float(np.abs(solve_delayed_lsmc(
        f_vals, op, ens, d).y).max())
        for d in [np.inf, *diffs[:-1]]]
    bound = sups[0] + sum(diffs[1:])
    assert max(sups) < bound
    # a guard the bound crosses but no Y does: Y is formed and checked,
    # and the run goes on to the same result
    monkeypatch.setattr(oracles, "DIVERGENCE_GUARD", 0.5 * (max(sups) + bound))
    again = solve_delayed_lsmc(f_vals, op, ens)
    assert again.sup_diffs == diffs and np.array_equal(again.y, res.y)
    # a guard below sup|Y_1| trips on the first sweep, and so does a NaN
    monkeypatch.setattr(oracles, "DIVERGENCE_GUARD", 0.5 * sups[0])
    with pytest.raises(PicardDiverged) as low:
        solve_delayed_lsmc(f_vals, op, ens)
    assert len(low.value.sup_diffs) == 1
    monkeypatch.undo()
    f_nan = f_vals.copy()
    f_nan[7, 3] = np.nan
    with pytest.raises(PicardDiverged) as nan:
        solve_delayed_lsmc(f_nan, op, ens)
    assert len(nan.value.sup_diffs) == 1
    # a retarded atom with a large bound diverges: the bound grows with
    # the sup-differences and the guard trips long before the budget ends
    gen = DelayedGenerator(DiracAt(T, -0.4), constant_kernel(8.0), g)
    with pytest.raises(PicardDiverged) as grown:
        solve_delayed_lsmc(f_vals, build_delayed_operator(gen), ens)
    assert len(grown.value.sup_diffs) < oracles.MAX_ITERATIONS


@pytest.mark.parametrize("g_value", [0.2, 0.0])
def test_slope_z_matches_loop_reference(g_value):
    g, op, ens, res = small_lsmc(g_value)
    z_ref, se_ref = reference_slope_z(res.y_targets - res.y, ens, g,
                                      op.values, tail_weight_matrix(g))
    assert np.abs(res.z - z_ref).max() <= 1e-12 * np.abs(z_ref).max()
    tri = np.triu_indices(g.n + 1)
    assert np.all(se_ref[tri] > 0.0)
    assert np.all(np.abs(res.z_se - se_ref) <= 1e-9 * se_ref)
    assert np.array_equal(res.z_se == 0.0, se_ref == 0.0)


def test_slope_se_of_a_noiseless_regression_is_finite():
    # theta_i an exact multiple of dW_i: the rss of the diagonal fits is 0
    # up to rounding, which the Gram identity may take below 0
    g = TriangularGrid(T, 12)
    ens = sample_paths(2000, 59, "Q", zero_drift(g))
    op = build_delayed_operator(DelayedGenerator(DiracAt(T, 0.0),
                                                 constant_kernel(0.3), g))
    basis = _IncrementBasis(ens.dw, op)
    theta = np.zeros((2000, 13))
    theta[:, :12] = ens.dw * np.linspace(0.5, 3.0, 12)
    z, se = _slope_z(theta, basis)
    assert np.all(np.isfinite(se)) and np.all(se >= 0.0)
    assert np.all(np.isfinite(z))
    assert np.allclose(np.diag(z)[:12] * (1.0 - np.diag(op.values)[:12]),
                       np.linspace(0.5, 3.0, 12), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("g_value", [0.2, 0.0])
def test_slopes_fitted_once_per_sweep(monkeypatch, g_value):
    # g != 0: the g-term reads the slopes, so every sweep fits them once;
    # g = 0: only the converged sweep does.  Only that fit takes the SEs.
    calls = []
    fit = oracles._slope_fit

    def counted(cross, basis, sq=None):
        calls.append(sq is not None)
        return fit(cross, basis, sq)

    monkeypatch.setattr(oracles, "_slope_fit", counted)
    res = small_lsmc(g_value)[3]
    assert res.iterations > 2
    sweeps = res.iterations if g_value != 0.0 else 1
    assert calls == [False] * (sweeps - 1) + [True]



# ---------------------------------------------------------------------------
# the coefficient-space LSMC against the per-node loop it replaced


def reference_design_matrix(w_col):
    """One node's regression basis: the intercept plus the centred,
    unit-variance powers of W(t_i); the intercept alone when W(t_i) is
    degenerate, and a power with spread <= 1e-12 dropped."""
    cols = [np.ones(len(w_col))]
    if w_col.std() > 1e-12:
        for p in range(1, oracles.REGRESSION_DEGREE + 1):
            c = w_col**p
            c = c - c.mean()
            if c.std() > 1e-12:
                cols.append(c / c.std())
    return np.stack(cols, axis=1)


def reference_lsmc(fam, k, m, op, g, ens, tol=1e-10):
    """The per-node LSMC loop: every sweep forms the M x (N+1) targets and
    refits each node's column through the Cholesky factor of its ridged
    Gram matrix; the slopes come from the (i, j) loop reference_slope_z.
    On Q-paths the g-term takes off the drift's compensator
    sum_{k>=i} Z(t_i, s_k) b_k dt.
    Returns (y, z, z_se, sup_diffs, targets, max Gram condition)."""
    n = g.n
    trap = tail_weight_matrix(g)
    f_vals = evaluate_F_table(fam, ens)
    nodes = []
    for i in range(n + 1):
        b = reference_design_matrix(ens.w[:, i])
        gram = b.T @ b + oracles.RIDGE * np.eye(b.shape[1])
        nodes.append((b, np.linalg.cholesky(gram), np.linalg.cond(gram)))

    def fit(i, target):
        b, chol, _ = nodes[i]
        coef = np.linalg.solve(chol.T, np.linalg.solve(chol, b.T @ target))
        return b @ coef

    y = f_vals.copy()
    z_mean = np.zeros((n + 1, n + 1))
    sup_diffs = []
    for _ in range(oracles.MAX_ITERATIONS):
        gz = _g_weighted_term(DelayedGenerator(m, k, g), z_mean)
        if ens.tag == "Q":
            gz = gz - np.append(np.triu(z_mean[:n, :n])
                                @ ens.drift_fn.increments(), 0.0)
        target = f_vals + y @ op.T + gz[None, :]
        y_next = np.stack([fit(i, target[:, i]) for i in range(n + 1)],
                          axis=1)
        sup_diffs.append(float(np.abs(y_next - y).max()))
        y = y_next
        if sup_diffs[-1] < tol:
            z, se = reference_slope_z(target - y, ens, g, op, trap)
            return y, z, se, sup_diffs, target, max(c for *_, c in nodes)
        if k.g_bound != 0.0:
            z_mean = reference_slope_z(target - y, ens, g, op, trap)[0]
    raise AssertionError("the reference loop did not converge")


def stop_rule_bounds(sup_diffs, tol, op, k, g, ens, targets, cond):
    """How far apart two LSMC runs that stop at the same sweep may put
    (y, z, z_se).

    y: both runs iterate one affine sweep map from y = F and stop at the
    first sweep whose sup-difference is below tol.  The differences shrink
    geometrically, by at most q per sweep (q the largest ratio of
    successive sup-differences over the last three sweeps), so each
    stopped iterate is within tol q / (1 - q) of the common fixed point.
    Rounding adds, per sweep, at most the forward error of a ridge solve,
    cond(Gram) sqrt(M) u max|target| (u the unit roundoff, sqrt(M) the
    usual growth of rounding in an M-term sum); the K sweeps are counted
    without any damping.

    z: a slope is x_j . theta_i / ss_j with theta = target - y, so by
    Cauchy-Schwarz |dz| <= sqrt(M / ss_j) |d theta|_inf; the half-cell
    correction adds the factor 1 + max|half| / min|scale| and the
    extrapolated column N a factor 3 (|2a - b|).  theta moves with y and
    with the operator applied to the previous y (max row sum of |op|);
    the g-term adds T sup|g| |dz| of the previous sweep's slopes, taken as
    c_z times that g-free theta error: one step of the chain, since the
    sweeps contract and earlier steps shrink.

    z_se: the residual norm behind an SE is a projection of theta, so it
    moves by at most sqrt(M) |d theta|_inf; the Gram identity rounds
    rss = |theta_c|^2 - z cross by at most 2 M u |theta_c|^2, which moves
    its square root by at most that quantity's square root."""
    m_paths, n = ens.dw.shape
    u = np.finfo(float).eps / 2
    q = max(b / a for a, b in zip(sup_diffs[-4:-1], sup_diffs[-3:]))
    assert q < 1.0
    scale = float(np.abs(targets).max())
    e_y = 2.0 * tol * q / (1.0 - q) \
        + len(sup_diffs) * cond * math.sqrt(m_paths) * u * scale
    x = ens.dw - ens.dw.mean(axis=0)
    ss = np.einsum("mj,mj->j", x, x)
    kk = np.divide(op, tail_weight_matrix(g), out=np.zeros_like(op),
                   where=tail_weight_matrix(g) > 0.0)
    half = float(np.abs(0.5 * g.dt * np.triu(kk[:n, :n])).max())
    corr = 3.0 * (1.0 + half / float(np.abs(1.0 - np.diag(op)[:n]).min()))
    c_z = corr * math.sqrt(m_paths / ss.min())
    e_theta = (1.0 + float(np.abs(op).sum(axis=1).max())) * e_y
    e_theta *= 1.0 + g.horizon * k.g_bound * c_z
    theta_c = targets[:, :n] - targets[:, :n].mean(axis=0)
    sq = float(np.einsum("mi,mi->i", theta_c, theta_c).max())
    e_se = corr * (math.sqrt(m_paths) * e_theta
                   + math.sqrt(2.0 * m_paths * u * sq)) \
        / math.sqrt((m_paths - 2) * ss.min())
    return e_y, c_z * e_theta, e_se


LSMC_FAMILIES = {
    "gaussian": GaussianLinear(f0=make_f0("constant", value=0.5),
                               phi=make_phi("exp_u", rate=1.0)),
    "terminal": make_h("square"),
}

LSMC_DELAYS = {
    "dirac": DiracAt(T, 0.0),
    "uniform": Uniform(T),
    # all three lag branches: on N = 12, -0.25 is a lag and -0.3717 lies
    # between two
    "mixture": Mixture(T, ((Uniform(T), 0.5), (DiracAt(T, -0.25), 0.3),
                           (DiracAt(T, -0.3717), 0.2))),
}


@pytest.mark.parametrize("g_value", [0.0, 0.2])
@pytest.mark.parametrize("delay", ["dirac", "uniform", "mixture"])
@pytest.mark.parametrize("family", sorted(LSMC_FAMILIES))
def test_lsmc_matches_per_node_loop(family, delay, g_value):
    g = TriangularGrid(T, 12)
    m = LSMC_DELAYS[delay]
    k = constant_kernel(0.3, g_value=g_value)
    fam = LSMC_FAMILIES[family]
    mode = "P" if family == "gaussian" else "Q"
    gen = DelayedGenerator(m, k, g)
    ens = sample_paths(2000, 61, mode, drift(gen))
    op = build_delayed_operator(gen)
    tol = 1e-10
    y, z, se, sup_diffs, targets, cond = reference_lsmc(fam, k, m, op.values,
                                                        g, ens, tol)
    res = solve_delayed_lsmc(evaluate_F_table(fam, ens), op, ens, tol)
    assert res.iterations == len(sup_diffs) > 3
    assert res.max_gram_cond == pytest.approx(cond, rel=1e-6)
    e_y, e_z, e_se = stop_rule_bounds(sup_diffs, tol, op.values, k, g,
                                      ens, targets, cond)
    assert np.abs(res.y - y).max() <= e_y
    # every sweep moves Y alike, so the traces agree sweep by sweep
    assert np.abs(np.subtract(res.sup_diffs, sup_diffs)).max() <= 2 * e_y
    assert np.abs(res.y_targets - targets).max() <= e_y * (
        1.0 + float(np.abs(op.values).sum(axis=1).max()))
    assert np.abs(res.z - z).max() <= e_z
    assert np.abs(res.z_se - se).max() <= e_se
    # the bounds stay far below the statistical error they guard
    assert e_z < 1e-3 * se[np.triu_indices(g.n)].min()


@pytest.mark.parametrize("delay", ["dirac", "uniform"])
def test_lsmc_reads_the_operator_it_is_given(delay):
    # at g = 0 the zero operator leaves F alone in every target, so the
    # second sweep repeats the first regression exactly and the run stops
    # there; the generator's own operator takes more sweeps
    g = TriangularGrid(T, 12)
    gen = DelayedGenerator(LSMC_DELAYS[delay], constant_kernel(0.3), g)
    ens = sample_paths(3000, 1, "P", drift(gen))
    f_vals = evaluate_F_table(LSMC_FAMILIES["gaussian"], ens)
    zero = DelayOperator(gen, np.zeros((g.n + 1, g.n + 1)))
    zero = solve_delayed_lsmc(f_vals, zero, ens)
    assert zero.iterations == 2 and zero.sup_diffs[1] == 0.0
    res = solve_delayed_lsmc(f_vals, build_delayed_operator(gen), ens)
    assert res.iterations > 2 and res.sup_diffs[1] > 0.0


@pytest.mark.parametrize("delay", ["dirac", "uniform"])
@pytest.mark.parametrize("family", sorted(LSMC_FAMILIES))
def test_lsmc_mean_does_not_depend_on_sampling_measure(family, delay):
    # The delayed equation holds under P.  On common draws, the mode-P
    # ensemble's importance-weighted E^Q mean and the mode-Q ensemble's
    # plain one agree within their noise at every node; without the
    # drift's compensator of the g-term the mode-Q mean sat 4-11
    # hypot(SE) away, except for the uniform delay with h = x^2.
    gen = DelayedGenerator(LSMC_DELAYS[delay],
                           constant_kernel(0.3, g_value=0.2),
                           TriangularGrid(T, 20))
    b = drift(gen)
    fam = LSMC_FAMILIES[family]
    for seed in (1, 2, 3):
        ens_p = sample_paths(5000, seed, "P", b)
        ens_q = PathEnsemble("Q", ens_p.draws, b, np.ones(ens_p.n_paths))
        means, ses = [], []
        for ens in (ens_p, ens_q):
            res = solve_delayed_lsmc(evaluate_F_table(fam, ens),
                                     build_delayed_operator(gen), ens)
            means.append(expect_q_columns(ens, res.y)[0])
            ses.append(expect_q_columns(ens, res.y_targets)[1])
        gap = np.abs(means[0] - means[1])
        assert np.all(gap <= 4.0 * np.hypot(*ses)), (seed, gap)


def test_lsmc_traced_peak_within_four_tables_and_one_chunk():
    # The loop holds no basis stack.  Its (M, N+1) float tables at the
    # peak, the converged sweep, are four: F, W, and two of Y_prev = B
    # c_prev, the targets, Y and theta = targets - Y (Y_prev goes before Y
    # is formed, W before theta, and theta is centred in place); mode P's
    # dW is the ensemble's own draws table, allocated before the trace.
    # The basis is formed one block of LSMC_CHUNK paths at a time, P x
    # LSMC_CHUNK floats.  The (P, P) Gram and coupling matrices, with the
    # product that forms either, add 3 P^2 floats.  The rest is O(N^2):
    # the operator's kernel, the slope weights, the g-term's lag blocks
    # and the N x P products of the increments with B, which alone are
    # 5 (N+1)^2; 64 (N+1)^2 floats cover them.  numpy's ufunc buffers come
    # on top.
    gen = DelayedGenerator(DiracAt(T, 0.0), constant_kernel(0.3, g_value=0.2),
                           TriangularGrid(T, 20))
    g = gen.grid
    fam = LSMC_FAMILIES["gaussian"]
    ens = sample_paths(4000, 67, "P", drift(gen))
    p = (g.n + 1) * (oracles.REGRESSION_DEGREE + 1)
    table = ens.n_paths * (g.n + 1) * 8
    chunk = p * oracles.LSMC_CHUNK * 8
    assert ens.n_paths > oracles.LSMC_CHUNK  # more than one block
    tracemalloc.start()
    try:
        solve_delayed_lsmc(evaluate_F_table(fam, ens),
                           build_delayed_operator(gen), ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    small = 3 * p * p * 8 + 64 * (g.n + 1) ** 2 * 8 + 2 * 8 * np.getbufsize()
    assert peak <= 4 * table + chunk + small
