"""Cross-oracle solvers: collocation, delayed Picard, regression Monte Carlo."""

import contextlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from bsvielab import girsanov
from bsvielab.girsanov import DriftFunction, PathEnsemble, _path_blocks, \
    drift, sample_paths
from bsvielab.kernels import DelayOperator, DelayedGenerator, GridMismatch, \
    HorizonMismatch, SingularStep, TriangularGrid, build_phi, \
    constant_kernel, example33_kernel, poly_exp_kernel, resolvent, \
    tail_weight_matrix, tail_weighted, zero_extend_kernel
from bsvielab.measures import Atoms, DiracAt, Mixture, Uniform, snap_lag
from bsvielab import oracles
from bsvielab.oracles import PicardDiverged, PicardStalled, \
    RegressionIllConditioned, _StackedBasis, _readout, \
    _g_weighted_term, _slope_z, build_delayed_operator, residual_delayed, \
    residual_reduced, residual_reduced_pathwise, solve_delayed_lsmc, \
    solve_delayed_picard, solve_reduced_collocation
from bsvielab.solver import mean_Y, solve_Y_blocks, solve_Z
from bsvielab.terminal import Deterministic, GaussianLinear, \
    evaluate_F_blocks, f0_profile, make_f0, make_h, make_phi

T = 1.0


def zero_drift(g):
    return DriftFunction(g, np.zeros(g.n + 1))


@contextlib.contextmanager
def one_block(ens):
    """ens.blocks as the one block of every path, LSMC_CHUNK raised past
    M, inside the block of the with statement."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(girsanov, "LSMC_CHUNK", 64 * ens.n_paths)
        yield


def y_paths(fam, psi, ens):
    """Y of a stochastic family on every path, path-major (M, N+1):
    solve_Y_blocks on the one block of every path, transposed."""
    with one_block(ens):
        return next(solve_Y_blocks(fam, psi, ens)).T


def y_profile(fam, psi):
    """Y of a deterministic family: mean_Y of its f0 profile."""
    return mean_Y(f0_profile(fam, psi.grid), psi)


def f_paths(fam, ens):
    """F on every path, path-major (M, N+1): evaluate_F_blocks on the one
    block of every path, transposed."""
    with one_block(ens):
        return next(evaluate_F_blocks(fam, ens)).T


def lsmc_paths(res):
    """(Y, targets) of an LSMC run on every path, path-major (M, N+1)
    each: its readout's blocks side by side, transposed."""
    y, targets = np.concatenate([yt.copy() for _, yt in res.readout()],
                                axis=2)
    return y.T, targets.T


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
    y_neumann = y_profile(fam, psi)
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
        solve_delayed_lsmc(fam, build_delayed_operator(gen), ens)
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
        solve_delayed_lsmc(fam, build_delayed_operator(gen), ens, tol)


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
    y = y_profile(fam, psi)
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
    res = solve_delayed_lsmc(fam, build_delayed_operator(gen), ens)
    y = lsmc_paths(res)[0]
    # Y(t_i) tracks W(t_i): R^2 of the fit against the exact conditional
    for i in (5, 10, 15):
        w = ens.w[:, i]
        ss_res = float(((y[:, i] - w) ** 2).sum())
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
    y = y_paths(fam, psi, ens)
    res = solve_delayed_lsmc(fam, build_delayed_operator(gen), ens)
    targets = lsmc_paths(res)[1]
    for i in (0, 5, 10, 15, 20):
        # paired comparison of raw regression targets against the explicit
        # per-path values: the target spread is the honest noise scale
        d = targets[:, i] - y[:, i]
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
    res = solve_delayed_lsmc(fam, build_delayed_operator(gen), ens)
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
    y = y_paths(fam, psi, ens)
    z = solve_Z(fam, psi, zero_drift(g))
    r = pathwise_residual(y, z, fam, phi, ens)
    assert np.abs(r).max() < 1e-12
    # Phi is built apart from the paths: one on T = 2 is refused
    phi_t2 = build_phi(DelayedGenerator(DiracAt(2.0, 0.0), k,
                                        TriangularGrid(2.0, 25)))
    with pytest.raises(GridMismatch):
        pathwise_residual(y, z, fam, phi_t2, ens)


def pathwise_residual(y, z, fam, phi, ens):
    """R as one path-major table, from residual_reduced_pathwise on the
    blocks of ens.blocks, of at most LSMC_CHUNK paths, fed the rows of y
    as node-major blocks."""
    return np.concatenate([r.copy() for _, r in residual_reduced_pathwise(
        (np.ascontiguousarray(y[part].T) for part in ens.blocks), z, fam,
        phi, ens)], axis=1).T


def pathwise_inputs(mode, n, m_paths, seed):
    """Y, Z, the family and Phi of a Gaussian-linear family on a tilted
    ensemble."""
    gen = DelayedGenerator(DiracAt(T, 0.0), constant_kernel(0.3, g_value=0.2),
                           TriangularGrid(T, n))
    phi = build_phi(gen)
    psi = resolvent(phi, tol=1e-12)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    b = drift(gen)
    ens = sample_paths(m_paths, seed, mode, b)
    return y_paths(fam, psi, ens), solve_Z(fam, psi, b), fam, phi, ens


@pytest.mark.parametrize("mode", ["P", "Q"])
def test_pathwise_ito_sum_on_w_q_increments(mode):
    # the left-point sum against dW - b dt is the one against the
    # increments of the W^Q paths, up to rounding
    y, z, fam, phi, ens = pathwise_inputs(mode, 20, 500, 71)
    n = phi.grid.n
    want = residual_reduced(y, f_paths(fam, ens), phi)[0]
    want[:, :n] += np.diff(ens.wq, axis=1) @ np.triu(z[:n, :n]).T
    r = pathwise_residual(y, z, fam, phi, ens)
    assert np.abs(r - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("mode", ["P", "Q"])
def test_pathwise_residual_traced_peak_within_two_tables(mode):
    # the Ito sum reads the ensemble's draws, allocated before the trace,
    # in both modes: no dW or dW^Q table is formed.  Y comes in blocks of
    # ens.blocks, and R goes out in them: each block, of at most
    # LSMC_CHUNK paths, holds R, F and one buffer that takes A y and
    # then the Ito sum, N + 1 floats per path each.  The rest is O(N^2):
    # the tail weights, A, and the triangle of Z and its transpose, which
    # 4 (N+1)^2 floats cover; numpy's ufunc buffers come on top.  A whole
    # table of R, F or either product would take the peak past this gate.
    y, z, fam, phi, ens = pathwise_inputs(mode, 60, 20_000, 73)
    n = phi.grid.n
    table = ens.n_paths * (n + 1) * 8
    y_blocks = [np.ascontiguousarray(y[part].T) for part in ens.blocks]
    block = 3 * girsanov.LSMC_CHUNK * (n + 1) * 8
    assert block < table / 2  # several blocks
    tracemalloc.start()
    try:
        for _ in residual_reduced_pathwise(y_blocks, z, fam, phi, ens):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= block + 4 * (n + 1) ** 2 * 8 + 2 * 8 * np.getbufsize()


@pytest.mark.parametrize("m_paths", [1, 63, 64, 2048, 2049, 3000, 10241,
                                     20000, 20001, 50000])
@pytest.mark.parametrize("width", [2048, 10240])
def test_path_blocks_are_aligned_and_near_equal(m_paths, width):
    # in order and covering every path; the whole table when it fits,
    # else blocks of at most width paths and at least width / 2 - 128,
    # each starting on a multiple of 64 paths
    blocks = _path_blocks(m_paths, width)
    bounds = [b.start for b in blocks] + [m_paths]
    assert bounds[0] == 0 and all(b.stop == nxt for b, nxt in
                                  zip(blocks, bounds[1:]))
    sizes = np.diff(bounds)
    assert np.all(sizes <= width) and all(lo % 64 == 0 for lo in bounds[:-1])
    if m_paths <= width:
        assert len(blocks) == 1
    else:
        assert np.all(sizes >= width // 2 - 128)


@pytest.mark.parametrize("mode", ["P", "Q"])
def test_pathwise_residual_by_path_blocks_bitwise(mode):
    # three blocks of paths, the last one short: each product rounds every
    # path as the whole-table node-major products do
    y, z, fam, phi, ens = pathwise_inputs(mode, 20, 5000, 79)
    n = phi.grid.n
    assert len(ens.blocks) == 3
    zu = np.triu(z[:n, :n])
    yt = np.ascontiguousarray(y.T)
    want = yt - f_paths(fam, ens).T
    want -= tail_weighted(phi.grid, phi.values) @ yt
    ito = zu @ ens.draws.T
    if mode == "P":
        ito -= (zu @ ens.drift_fn.increments())[:, None]
    want[:n] += ito
    got = pathwise_residual(y, z, fam, phi, ens)
    assert got.T.tobytes() == want.tobytes()


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
        solve_delayed_lsmc(fam, build_delayed_operator(gen), ens)
    ens = sample_paths(500, 3, "P", zero_drift(gen.grid))
    res = solve_delayed_lsmc(fam, build_delayed_operator(gen), ens)
    assert res.mean.shape == res.se.shape == (21,)
    assert [a.shape for a in lsmc_paths(res)] == [(500, 21)] * 2


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
    with pytest.raises(GridMismatch, match=f"^{re.escape(repr(op_grid))} "
                       f"against {re.escape(repr(grid))}"):
        solve_delayed_lsmc(LSMC_FAMILIES["gaussian"], op, ens)
    f0 = np.ones(grid.n + 1)
    if op_grid.n != grid.n:
        with pytest.raises(GridMismatch, match=r"node array of shape \(13,\)"):
            solve_delayed_picard(f0, op)
        with pytest.raises(GridMismatch, match=r"node array of shape \(13,\)"):
            residual_delayed(f0, f0, op)


def zero_operator(g):
    """A DelayOperator on grid g whose values are all 0."""
    gen = DelayedGenerator(DiracAt(g.horizon, 0.0), constant_kernel(0.0), g)
    return DelayOperator(gen, np.zeros((g.n + 1, g.n + 1)))


def draws_ensemble(draws, grid):
    """A mode-Q ensemble of the draws (M, N) on grid, under no drift."""
    return PathEnsemble("Q", draws, zero_drift(grid), np.ones(len(draws)))


def stacked_basis(w, f, draws, op):
    """_StackedBasis of the paths W and F (M, N+1), any layout, in the
    blocks of the ensemble of the draws that the LSMC's pass forms:
    node-major W and F on each block's paths, cut from the two tables."""
    ens = draws_ensemble(draws, op.grid)
    return _StackedBasis([(part, w.T[:, part], f.T[:, part])
                          for part in ens.blocks], ens, op)


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


# the products of the basis against those of reference_stacked_rows, each
# entry over its Cauchy-Schwarz scale (M for the Gram of unit-variance
# rows, |row| |column| for the others); the means over mean |W|^p, and
# the spreads and ss relative to themselves
PRODUCT_BOUND = 1e-13


def reference_products(w, f, draws):
    """What _StackedBasis holds, from the full stack of
    reference_stacked_rows and the full tables: the products, the node
    means and spreads of the powers of W(t_i) (zero and one in the
    intercept column), their live rows and the centred draws' sums of
    squares; with the scales of PRODUCT_BOUND."""
    m_paths, n1 = w.shape
    d = oracles.REGRESSION_DEGREE + 1
    b = reference_stacked_rows(w)
    raw = w.T[:, None, :] ** np.arange(d)[:, None]
    mean = raw.mean(axis=2)
    mean[:, 0] = 0.0
    sd = np.sqrt(np.square(raw - mean[:, :, None]).sum(axis=2) / m_paths)
    live = b.reshape(n1, d, m_paths).any(axis=2)
    x = draws - draws.mean(axis=0)
    f_norm = np.sqrt(np.square(f).sum(axis=0))
    d_norm = np.sqrt(np.square(draws).sum(axis=0))[:, None]
    root = math.sqrt(m_paths)
    return {"gram": (b @ b.T, m_paths), "bt_f": (b @ f, root * f_norm),
            "draws_b": (draws.T @ b.T, root * d_norm),
            "draws_f": (draws.T @ f, d_norm * f_norm),
            "mean": (mean, np.abs(raw).mean(axis=2)),
            "sd": (np.where(live, sd, 1.0), np.where(live, sd, 1.0)),
            "ss": (np.einsum("mj,mj->j", x, x), np.einsum("mj,mj->j", x, x)),
            "live": (live, None)}


def check_basis_products(basis, w, f, draws):
    for name, (want, scale) in reference_products(w, f, draws).items():
        got = getattr(basis, name)
        if scale is None:
            assert np.array_equal(got, want), name
        else:
            err = float((np.abs(got - want)
                         / np.where(scale > 0.0, scale, 1.0)).max())
            assert err <= PRODUCT_BOUND, (name, err)


def shifted_power_rows(monkeypatch):
    """Record a copy of every block of rows _shifted_powers forms."""
    blocks = []
    form = oracles._shifted_powers

    def recorded(wt, shift, out):
        blocks.append(form(wt, shift, out).copy())
        return blocks[-1]

    monkeypatch.setattr(oracles, "_shifted_powers", recorded)
    return blocks


@pytest.mark.parametrize("m_paths, n", [(20_000, 20), (4_001, 12), (700, 3)])
def test_basis_blocks_match_the_stacked_basis_bitwise(monkeypatch, m_paths,
                                                      n):
    # each block of ens.blocks forms the rows (W(t_i) - mu_i)^p, mu_i
    # the node's mean over the first block's paths (over all of them at
    # M = 700, one block), bit for bit as on the whole table; the
    # products, the node means and spreads, the live rows and ss are
    # those of the full stack of centred rows up to rounding; the
    # intercept rows' entries are exact: M against themselves, 0 against a
    # centred power, the column sums of the draws, and f_sum, the ones
    # row's products with F, F's column sums up to rounding
    g = TriangularGrid(T, n)
    ens = sample_paths(m_paths, 71, "Q", zero_drift(g))
    wt = ens.wt
    f = np.random.default_rng(7).standard_normal((m_paths, n + 1))
    blocks = shifted_power_rows(monkeypatch)
    basis = stacked_basis(wt.T, f, ens.draws, zero_operator(g))
    n1, d = n + 1, oracles.REGRESSION_DEGREE + 1
    parts = ens.blocks
    assert len(blocks) == len(parts) and (len(parts) == 1) == (m_paths == 700)
    want = np.empty((n1, d - 1, m_paths))
    want[:, 0] = wt - wt[:, parts[0]].mean(axis=1, keepdims=True)
    for p in range(1, d - 1):
        want[:, p] = want[:, p - 1] * want[:, 0]
    assert np.concatenate(blocks, axis=2).tobytes() == want.tobytes()
    check_basis_products(basis, wt.T, f, ens.draws)
    gram = basis.gram.reshape(n1, d, n1, d)
    assert np.all(gram[:, 0, :, 0] == m_paths)
    assert not gram[:, 0, :, 1:].any() and not gram[:, 1:, :, 0].any()
    assert basis.bt_f.reshape(n1, d, n1)[:, 0].tobytes() \
        == np.tile(basis.f_sum, (n1, 1)).tobytes()
    f_norm = np.sqrt(np.square(f).sum(axis=0))
    assert np.all(np.abs(basis.f_sum - f.sum(axis=0))
                  <= PRODUCT_BOUND * math.sqrt(m_paths) * f_norm)
    assert basis.draws_b.reshape(n, n1, d)[:, :, 0].tobytes() \
        == np.tile(ens.draws.sum(axis=0)[:, None], (1, n1)).tobytes()


def test_basis_of_states_far_from_zero(monkeypatch):
    # W + 40: each node's mean lies 40 / sqrt(t_i) spreads from 0 (about
    # 180 at t_1), where the mean square of W^4 is 2000 times its
    # variance.  Centred about mu_i, the products keep the full stack's
    # accuracy; centring the raw powers' products instead cancels that
    # much and misses the bound by more than 10 times.  The Gram blocks
    # of so offset a W are beyond the guard (condition numbers near 8e12
    # with the full stack too), so the guard is lifted here: only the
    # products are compared.
    m_paths, n = 20_000, 20
    g = TriangularGrid(T, n)
    ens = sample_paths(m_paths, 71, "Q", zero_drift(g))
    wt = ens.wt + 40.0
    f = 100.0 + np.random.default_rng(7).standard_normal((m_paths, n + 1))
    monkeypatch.setattr(oracles, "COND_LIMIT", np.inf)
    basis = stacked_basis(wt.T, f, ens.draws, zero_operator(g))
    assert basis.live[1:].all() and not basis.live[0, 1:].any()
    check_basis_products(basis, wt.T, f, ens.draws)


def reference_ridged_inverses(gram, live):
    """Node i's ridged Gram block inverted on its live rows, one node at
    a time, and the largest condition number; RegressionIllConditioned
    at the first node beyond COND_LIMIT."""
    n1, d = live.shape
    ginv, top = np.zeros((n1, d, d)), 0.0
    at = np.arange(n1)
    for i, block in enumerate(gram.reshape(n1, d, n1, d)[at, :, at]):
        keep = np.ix_(live[i], live[i])
        ridged = block[keep] + oracles.RIDGE * np.eye(int(live[i].sum()))
        cond = float(np.linalg.cond(ridged))
        if cond > oracles.COND_LIMIT:
            raise RegressionIllConditioned(f"condition number {cond:.2e}")
        top = max(top, cond)
        ginv[i][keep] = np.linalg.inv(ridged)
    return ginv, top


def test_gram_blocks_inverted_per_live_pattern_bitwise(monkeypatch):
    # three kinds of node: t_0, whose W is 0 (the intercept alone); node 5,
    # whose paths sit at +-0.5, so W^2 and W^4 are constant and dead; and
    # all-live nodes.  One stacked inversion per pattern gives each node's
    # inverse and condition number bit for bit.  Node 5's odd powers are
    # collinear (W^3 = W / 4), so its ridged block is beyond the guard:
    # the guard is lifted for the comparison, then set below node 5's and
    # one earlier node's condition numbers, and names the earlier node
    m_paths, n = 4000, 12
    g = TriangularGrid(T, n)
    ens = sample_paths(m_paths, 79, "Q", zero_drift(g))
    wt = ens.wt.copy()
    wt[5] = np.where(np.arange(m_paths) % 2, 0.5, -0.5)
    monkeypatch.setattr(oracles, "COND_LIMIT", np.inf)
    basis = stacked_basis(wt.T, np.zeros((m_paths, n + 1)), ens.draws,
                          zero_operator(g))
    assert basis.live[0].tolist() == [True, False, False, False, False]
    assert basis.live[5].tolist() == [True, True, False, True, False]
    assert basis.live[1:5].all() and basis.live[6:].all()
    ginv, cond = reference_ridged_inverses(basis.gram, basis.live)
    assert basis.ginv.tobytes() == ginv.tobytes()
    assert basis.cond == cond
    at = np.arange(n + 1)
    blocks = basis.gram.reshape(n + 1, 5, n + 1, 5)[at, :, at]
    conds = [float(np.linalg.cond(b[np.ix_(k, k)]
                                  + oracles.RIDGE * np.eye(int(k.sum()))))
             for b, k in zip(blocks, basis.live)]
    assert cond == max(conds) == conds[5] > 1e10
    first = max(conds[1:5])
    monkeypatch.setattr(oracles, "COND_LIMIT", np.nextafter(first, 0.0))
    message = re.escape(f"condition number {first:.2e}")
    with pytest.raises(RegressionIllConditioned, match=message):
        reference_ridged_inverses(basis.gram, basis.live)
    with pytest.raises(RegressionIllConditioned, match=message):
        oracles._ridged_inverses(blocks, basis.live)


def test_basis_is_formed_in_one_pass_over_the_paths(monkeypatch):
    # the blocks are taken once, in order, each formed into one block of
    # shifted powers before the next is taken, and nothing of the size of
    # the draws or of W is formed: the traced peak stays below one chunk
    # of power rows, P' x LSMC_CHUNK floats with P' = (N+1)(D-1), plus
    # 8 P^2 floats for the products (P = (N+1) D) and numpy's ufunc
    # buffers.  At M = 40000, N = 12 a centred copy of the draws alone is
    # 3.8 MB, three times the bound.
    m_paths, n = 40_000, 12
    g = TriangularGrid(T, n)
    ens = sample_paths(m_paths, 83, "Q", zero_drift(g))
    wt = ens.wt
    f = np.random.default_rng(10).standard_normal((m_paths, n + 1))
    op = zero_operator(g)
    d = oracles.REGRESSION_DEGREE + 1
    p = (n + 1) * d
    chunk = (n + 1) * (d - 1) * girsanov.LSMC_CHUNK * 8
    bound = chunk + 8 * p * p * 8 + 2 * 8 * np.getbufsize()
    parts = ens.blocks
    events = []
    form = oracles._shifted_powers

    def counted(*args):
        events.append("powers")
        return form(*args)

    def blocks():
        for part in parts:
            events.append(part)
            yield part, wt[:, part], f.T[:, part]

    monkeypatch.setattr(oracles, "_shifted_powers", counted)
    tracemalloc.start()
    try:
        _StackedBasis(blocks(), ens, op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(parts) > 1
    assert events == [e for part in parts for e in (part, "powers")]
    assert peak <= bound, (peak, bound)


def test_basis_values_by_node_blocks_bitwise():
    # values is the whole-table Horner pass, bit for bit: on the whole
    # table, and on a block of paths, as a view of the table's columns
    # or as a contiguous copy of them
    m_paths, n = 500, 12
    g = TriangularGrid(T, n)
    ens = sample_paths(m_paths, 73, "Q", zero_drift(g))
    basis = stacked_basis(ens.w, np.zeros((m_paths, n + 1)), ens.dw,
                          zero_operator(g))
    wt = np.ascontiguousarray(ens.w.T)
    c = np.random.default_rng(5).standard_normal((n + 1, 5))
    a = basis._powers(c)[:, :, None]
    want = wt * a[:, -1]
    for p in range(a.shape[1] - 2, 0, -1):
        want += a[:, p]
        want *= wt
    want += a[:, 0]
    assert basis.values(c, wt, np.empty_like(wt)).tobytes() == want.tobytes()
    block = np.ascontiguousarray(want[:, 100:300]).tobytes()
    for states in (wt[:, 100:300], np.ascontiguousarray(wt[:, 100:300])):
        cols = basis.values(c, states, np.empty((n + 1, 200)))
        assert cols.tobytes() == block


@pytest.mark.parametrize("offset", [0.0, 40.0])
def test_basis_rms_matches_the_formed_table(offset):
    # rms reads the Gram blocks and F's sums, the formed table reads
    # values: the largest RMS over the paths at a node of B c and of
    # B c - F agree, for every node alone and for all of them, on a
    # basis whose node 0 is dead (W(t_0) = 0) and for an F far from 0.
    # The two differ by the rounding of M-term sums and of the centring
    # of the Gram's products, far below the bound of 1e-12 relative,
    # fixed before measuring.  A NaN coefficient gives NaN.
    m_paths, n = 3000, 12
    g = TriangularGrid(T, n)
    ens = sample_paths(m_paths, 79, "Q", zero_drift(g))
    wt = np.ascontiguousarray(ens.w.T)
    rng = np.random.default_rng(6)
    f = offset + np.sin(2.0 * ens.w) + 0.3 * rng.standard_normal(ens.w.shape)
    basis = stacked_basis(ens.w, f, ens.dw, zero_operator(g))
    assert not basis.live[0, 1:].any() and basis.live[1:].all()
    c = rng.standard_normal((n + 1, 5))
    c[:, 0] += offset

    def table_rms(y):
        return float(np.sqrt((y ** 2).mean(axis=1)).max())

    for c_i in [c] + [np.where(np.arange(n + 1)[:, None] == i, c, 0.0)
                      for i in range(n + 1)]:
        y = basis.values(c_i, wt, np.empty_like(wt))
        for got, want in ((basis.rms(c_i), table_rms(y)),
                          (basis.rms(c_i, True), table_rms(y - f.T))):
            assert abs(got - want) <= 1e-12 * want, (got, want)
    c[7, 2] = np.nan
    assert np.isnan(basis.rms(c)) and np.isnan(basis.rms(c, True))


def test_basis_of_a_broadcast_f_matches_its_full_table():
    # an h that ignores t gives F broadcast along the nodes: the basis
    # multiplies its one distinct column, and its products are those of
    # the same F written out in full, the Gram bit for bit and the F
    # products up to the rounding of a one-column product
    g = TriangularGrid(T, 20)
    gen = DelayedGenerator(Uniform(T), constant_kernel(0.3, g_value=0.2), g)
    ens = sample_paths(3000, 3, "Q", drift(gen))
    op = build_delayed_operator(gen)
    f = f_paths(make_h("square"), ens)
    assert f.strides[1] == 0
    one = stacked_basis(ens.w, f, ens.draws, op)
    full = stacked_basis(ens.w, np.ascontiguousarray(f), ens.draws, op)
    assert one.gram.tobytes() == full.gram.tobytes()
    for got, want in ((one.bt_f, full.bt_f), (one.draws_f, full.draws_f)):
        assert np.allclose(got, want, rtol=0.0,
                           atol=1e-14 * np.abs(want).max())
        assert np.all(got == got[:, :1])


def test_lsmc_sweeps_run_no_horner_pass(monkeypatch):
    # the sweeps' differences and the divergence guard read the Gram
    # alone: between the basis and the converged sweep no Horner pass
    # runs; the readout's, two per block of paths (the previous sweep's Y
    # and Y), are the only ones
    g = TriangularGrid(T, 40)
    gen = DelayedGenerator(Uniform(T), constant_kernel(0.8, g_value=0.3), g)
    ens = sample_paths(4000, 19, "Q", drift(gen))
    calls, phase = [], ["basis"]
    values, init, readout = (_StackedBasis.values, _StackedBasis.__init__,
                             oracles._readout)

    def counted(self, *args):
        calls.append(phase[-1])
        return values(self, *args)

    def built(self, *args):
        init(self, *args)
        phase.append("sweeps")

    def converged(*args):
        phase.append("readout")
        return readout(*args)

    monkeypatch.setattr(_StackedBasis, "values", counted)
    monkeypatch.setattr(_StackedBasis, "__init__", built)
    monkeypatch.setattr(oracles, "_readout", converged)
    res = solve_delayed_lsmc(LSMC_FAMILIES["gaussian"],
                             build_delayed_operator(gen), ens)
    blocks = ens.blocks
    assert res.iterations >= 4 and phase == ["basis", "sweeps", "readout"]
    assert len(blocks) == 2 and calls == ["readout"] * 2 * len(blocks)


def test_regression_guard_trips_on_collinear_basis():
    # node 1 holds near-constant states; the increments have spread, so
    # the guard that trips is the Gram block's, not the increments'
    w = np.zeros((500, 3))
    w[:, 1] = 2.0
    w[0, 1] += 1e-9
    w[:, 2] = np.random.default_rng(3).standard_normal(500)
    dw = np.random.default_rng(4).standard_normal((500, 2))
    with pytest.raises(RegressionIllConditioned, match="condition number"):
        stacked_basis(w, np.zeros((500, 3)), dw,
                      zero_operator(TriangularGrid(T, 2)))


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
    # the operator, which evaluates the spec itself as build_phi does, is
    # the walk on G_at's own node table, bit for bit; it holds its
    # generator, whose grid is its own
    gen = DelayedGenerator(OPERATOR_MEASURES[measure], OPERATOR_SPECS[spec],
                           TriangularGrid(T, n))
    nodes = gen.grid.nodes
    want = oracles._delay_walk(gen, gen.G_at(nodes), gen.G_at)
    got = build_delayed_operator(gen)
    assert got.generator is gen and got.grid == gen.grid
    assert got.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("measure", ["uniform", "mixture"])
def test_g_spec_node_table_is_never_written(measure):
    # a G spec's G_at is its read-only node table: the walk writes L over
    # a copy of it, and the table the generator holds keeps its bits
    gen = DelayedGenerator(OPERATOR_MEASURES[measure],
                           OPERATOR_SPECS["poly_exp"], TriangularGrid(T, 20))
    table = gen.node_table
    before = table.tobytes()
    op = build_delayed_operator(gen)
    assert gen.node_table is table and not table.flags.writeable
    assert table.tobytes() == before
    want = oracles._delay_walk(gen, table.copy(), gen.G_at)
    assert op.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", ["example33", "poly_exp"])
@pytest.mark.parametrize("n", [2, 4, 20])
def test_mixture_atoms_read_an_intact_g(spec, n):
    # the uniform part is written over G only where nothing reads G
    # again: an atom on a lag adds its shifted block of the intact G
    gen = DelayedGenerator(Mixture(T, ((Uniform(T), 0.7),
                                       (DiracAt(T, -0.5), 0.3))),
                           OPERATOR_SPECS[spec], TriangularGrid(T, n))
    g = gen.G_at(gen.grid.nodes)
    intact = g.copy()
    want = oracles._diffuse_operator(g.copy(), gen)
    ((lag, wl),), between = oracles.lag_weights(gen.measure, gen.grid)
    assert not between
    live = n + 1 - lag
    want[lag:, :live] += (wl * tail_weight_matrix(gen.grid)[lag:, lag:]
                          * intact[:live, :live])
    got = oracles._delay_walk(gen, g, gen.G_at)
    assert got.tobytes() == want.tobytes()
    assert g.tobytes() == intact.tobytes()
    # with no atom, a table the walk may write is written over
    alone = DelayedGenerator(Uniform(T), OPERATOR_SPECS[spec], gen.grid)
    g = alone.G_at(alone.grid.nodes)
    assert oracles._delay_walk(alone, g, alone.G_at) is g


@pytest.mark.parametrize("measure", sorted(OPERATOR_MEASURES))
def test_spec_is_not_evaluated_below_the_diagonal(measure):
    # e^{-800 u} overflows at u = s - t < -0.89: the spec's table is cut at
    # the diagonal before it is evaluated there (an overflow warning is an
    # error in this suite), and the operator has no 0 * inf = NaN cell
    gen = DelayedGenerator(OPERATOR_MEASURES[measure],
                           poly_exp_kernel(k=0, lam=800.0, scale=0.5),
                           TriangularGrid(T, 10))
    table = gen.spec_at(gen.grid.nodes)
    assert np.isfinite(table).all()
    assert np.all(np.tril(table, -1) == 0.0)
    assert not np.isnan(build_delayed_operator(gen).values).any()


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
    # cell below the diagonal is read.  The operator is written over the
    # table it is given, so each call gets a copy of gt
    gen = DelayedGenerator(Mixture(T, ((Uniform(T), 0.7),
                                       (DiracAt(T, -0.5), 0.3))),
                           constant_kernel(0.6), TriangularGrid(T, n))
    rng = np.random.default_rng(n)
    gt = np.triu(rng.standard_normal((n + 1, n + 1)))
    gt[0, 1] = -0.0
    want = reference_diffuse_operator(gt, gen)
    assert oracles._diffuse_operator(gt.copy(), gen).tobytes() \
        == want.tobytes()
    dirty = np.where(np.tri(n + 1, k=-1, dtype=bool),
                     rng.standard_normal((n + 1, n + 1)), gt)
    assert oracles._diffuse_operator(dirty.copy(), gen).tobytes() \
        == want.tobytes()


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
    return g, op, ens, solve_delayed_lsmc(fam, op, ens)


def test_lsmc_divergence_guard_reads_the_formed_y(monkeypatch):
    # the guard reads every sweep's RMS of Y from the Gram, which is the
    # largest RMS over the paths at a node of the Y that sweep would form,
    # up to rounding (a relative margin of 1e-12, fixed before measuring)
    g = TriangularGrid(T, 12)
    gen = DelayedGenerator(DiracAt(T, 0.0), constant_kernel(0.3), g)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(2000, 53, "P", zero_drift(g))
    op = build_delayed_operator(gen)
    res = solve_delayed_lsmc(fam, op, ens)
    # sweep j's formed Y, from runs stopped there: the first sweep whose
    # difference is below diffs[j - 1] is j + 1 (the diffs decrease)
    diffs = res.sup_diffs
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    rms = [float(np.sqrt((lsmc_paths(solve_delayed_lsmc(fam, op, ens, d))[0]
                          ** 2).mean(axis=0)).max())
           for d in [np.inf, *diffs[:-1]]]
    # a guard at the largest of them leaves the run as it was
    monkeypatch.setattr(oracles, "DIVERGENCE_GUARD",
                        max(rms) * (1.0 + 1e-12))
    again = solve_delayed_lsmc(fam, op, ens)
    assert again.sup_diffs == diffs
    assert lsmc_paths(again)[0].tobytes() == lsmc_paths(res)[0].tobytes()
    # a guard just below the first sweep's trips on the first sweep
    monkeypatch.setattr(oracles, "DIVERGENCE_GUARD", rms[0] * (1.0 - 1e-12))
    with pytest.raises(PicardDiverged) as low:
        solve_delayed_lsmc(fam, op, ens)
    assert low.value.sup_diffs == diffs[:1]
    monkeypatch.undo()
    # F is NaN at t_3 on every path, and so is the first sweep's Y
    fam_nan = GaussianLinear(f0=lambda t: np.nan if t == g.nodes[3] else 0.0,
                             phi=make_phi("constant"))
    with pytest.raises(PicardDiverged) as nan:
        solve_delayed_lsmc(fam_nan, op, ens)
    assert len(nan.value.sup_diffs) == 1
    # a retarded atom with a large bound diverges: the RMS of Y grows
    # with every sweep and the guard trips long before the budget ends
    gen = DelayedGenerator(DiracAt(T, -0.4), constant_kernel(8.0), g)
    with pytest.raises(PicardDiverged) as grown:
        solve_delayed_lsmc(fam, build_delayed_operator(gen), ens)
    assert len(grown.value.sup_diffs) < oracles.MAX_ITERATIONS


@pytest.mark.parametrize("g_value", [0.2, 0.0])
def test_slope_z_matches_loop_reference(g_value):
    g, op, ens, res = small_lsmc(g_value)
    y, targets = lsmc_paths(res)
    z_ref, se_ref = reference_slope_z(targets - y, ens, g, op.values,
                                      tail_weight_matrix(g))
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
    basis = stacked_basis(ens.w, np.zeros((2000, 13)), ens.dw, op)
    theta = np.zeros((2000, 13))
    theta[:, :12] = ens.dw * np.linspace(0.5, 3.0, 12)
    yt = np.stack([np.zeros((13, 2000)), theta.T])
    z, se = _slope_z([(slice(None), yt)], basis)
    assert np.all(np.isfinite(se)) and np.all(se >= 0.0)
    assert np.all(np.isfinite(z))
    assert np.allclose(np.diag(z)[:12] * (1.0 - np.diag(op.values)[:12]),
                       np.linspace(0.5, 3.0, 12), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mode", ["P", "Q"])
def test_slope_z_by_row_blocks_matches_the_whole_theta(mode):
    # theta = targets - Y on several blocks of paths, taken in order, and
    # on one block of every path: each block's theta, shifted by the
    # first block's row means, multiplied by the draws, which under Q
    # leave out the drift's constant per column of dW, and centred by the
    # rank-one correction of its sums give the slopes and SEs of the
    # whole centred theta against dW, up to rounding
    g = TriangularGrid(T, 12)
    gen = DelayedGenerator(Uniform(T), constant_kernel(0.3, g_value=0.4), g)
    ens = sample_paths(3000, 61, mode, drift(gen))
    op = build_delayed_operator(gen)
    basis = stacked_basis(ens.w, np.zeros((3000, 13)), ens.draws, op)
    rng = np.random.default_rng(8)
    y = rng.standard_normal((13, 3000))
    targets = y + 0.1 * rng.standard_normal((13, 3000)) \
        + np.linspace(0.5, 2.0, 13)[:, None] * ens.draws.T[np.r_[0:12, 11]]
    theta = (targets - y).T[:, :12]
    theta_c = theta - theta.mean(axis=0)
    z_ref, se_ref = oracles._slope_fit(
        theta_c.T @ ens.dw, basis, np.einsum("mi,mi->i", theta_c, theta_c))
    for parts in (_path_blocks(3000, 512), [slice(None)]):
        yt = [(part, np.stack([y[:, part], targets[:, part]]))
              for part in parts]
        z, se = _slope_z(yt, basis)
        assert np.allclose(z, z_ref, rtol=0.0,
                           atol=1e-12 * np.abs(z_ref).max())
        assert np.allclose(se, se_ref, rtol=1e-9, atol=0.0)
    assert len(_path_blocks(3000, 512)) == 6


def test_targets_by_path_blocks_bitwise():
    # six blocks of paths at M = 12000: on each, the previous sweep's Y
    # by Horner (F itself on the first sweep), op's GEMM and the two
    # sums, then Y, as on the whole tables, bit for bit, for an F with a
    # table (gaussian) and for a broadcast F (an h that ignores t)
    g = TriangularGrid(T, 20)
    gen = DelayedGenerator(Uniform(T), constant_kernel(0.3, g_value=0.2), g)
    ens = sample_paths(12_000, 83, "Q", drift(gen))
    op = build_delayed_operator(gen)
    wt = ens.wt
    assert len(ens.blocks) == 6
    rng = np.random.default_rng(9)
    c, gz = 0.1 * rng.standard_normal((21, 5)), rng.standard_normal(21)
    for family, broadcast in (("gaussian", False), ("terminal", True)):
        fam = LSMC_FAMILIES[family]
        f_vals = f_paths(fam, ens)
        assert (f_vals.strides[1] == 0) == broadcast
        basis = stacked_basis(wt.T, f_vals, ens.draws, op)
        y = basis.values(c, wt, np.empty_like(wt))
        for c_prev in (c, None):
            y_prev = np.ascontiguousarray(f_vals.T) if c_prev is None else y
            want = op.values @ y_prev
            want += f_vals.T
            want += gz[:, None]
            got = np.concatenate(
                [yt.copy() for _, yt in _readout(fam, ens, op, basis, c,
                                                 c_prev, gz)],
                axis=2)
            assert got[0].tobytes() == y.tobytes(), family
            assert got[1].tobytes() == want.tobytes(), (family, c_prev)


@pytest.mark.parametrize("g_value", [0.2, 0.0])
def test_slopes_fitted_once_per_sweep(monkeypatch, g_value):
    # every sweep fits the slopes once, for the g-term, which at g = 0
    # returns zeros without reading them.  The final fit, the only one
    # that takes the SEs, comes on the first read of z or z_se.
    calls = []
    fit = oracles._slope_fit

    def counted(cross, basis, sq=None):
        calls.append(sq is not None)
        return fit(cross, basis, sq)

    monkeypatch.setattr(oracles, "_slope_fit", counted)
    res = small_lsmc(g_value)[3]
    assert res.z is res.z and res.z_se is res.z_se  # one fit, on read
    assert res.iterations > 2
    assert calls == [False] * (res.iterations - 1) + [True]



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
    sum_{k>=i} Z(t_i, s_k) b_k dt.  A sweep's difference is the largest
    RMS over the paths at a node of the change of the formed Y.
    Returns (y, z, z_se, sup_diffs, targets, max Gram condition)."""
    n = g.n
    trap = tail_weight_matrix(g)
    f_vals = f_paths(fam, ens)
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
        sup_diffs.append(float(np.sqrt(((y_next - y) ** 2).mean(axis=0))
                               .max()))
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
    res = solve_delayed_lsmc(fam, op, ens, tol)
    assert res.iterations == len(sup_diffs) > 3
    assert res.max_gram_cond == pytest.approx(cond, rel=1e-6)
    e_y, e_z, e_se = stop_rule_bounds(sup_diffs, tol, op.values, k, g,
                                      ens, targets, cond)
    res_y, res_targets = lsmc_paths(res)
    assert np.abs(res_y - y).max() <= e_y
    # every sweep moves Y alike, so the traces agree sweep by sweep
    assert np.abs(np.subtract(res.sup_diffs, sup_diffs)).max() <= 2 * e_y
    assert np.abs(res_targets - targets).max() <= e_y * (
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
    fam = LSMC_FAMILIES["gaussian"]
    zero = DelayOperator(gen, np.zeros((g.n + 1, g.n + 1)))
    zero = solve_delayed_lsmc(fam, zero, ens)
    assert zero.iterations == 2 and zero.sup_diffs[1] == 0.0
    res = solve_delayed_lsmc(fam, build_delayed_operator(gen), ens)
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
            res = solve_delayed_lsmc(fam, build_delayed_operator(gen), ens)
            means.append(res.mean)
            ses.append(res.se)
        gap = np.abs(means[0] - means[1])
        assert np.all(gap <= 4.0 * np.hypot(*ses)), (seed, gap)


def test_lsmc_traced_peak_within_four_tables_and_one_chunk():
    # The run holds no basis stack and no (M, N+1) table: its two passes
    # over the paths, the basis and the converged readout, take one block
    # of ens.blocks, at most LSMC_CHUNK paths, at a time.  The basis
    # block is P x LSMC_CHUNK floats at most, one chunk, beside the
    # block's W and F, (N+1) floats per path each; the readout's blocks
    # are W, F, Y and the targets, and its reduction forms deviations in
    # one buffer of M floats.  Mode P's draws, which the basis and the
    # sweeps' slopes read, are allocated before the trace.  The (P, P)
    # Gram and coupling matrices, with the product that forms either,
    # add 3 P^2 floats.  The rest is O(N^2): the operator's kernel, the
    # slope weights, the g-term's lag blocks and the N x P products of
    # the draws with B, which alone are 5 (N+1)^2; 64 (N+1)^2 floats
    # cover them.  numpy's ufunc buffers come on top.  At M = 20000 a
    # quarter of one table covers the blocks beside the chunk and the
    # reduction's buffer; a table of W, F, Y, the targets or theta would
    # exceed the gate; the final slopes, which theta feeds, are not
    # fitted until z is read.
    gen = DelayedGenerator(DiracAt(T, 0.0), constant_kernel(0.3, g_value=0.2),
                           TriangularGrid(T, 20))
    g = gen.grid
    fam = LSMC_FAMILIES["gaussian"]
    ens = sample_paths(20_000, 67, "P", drift(gen))
    p = (g.n + 1) * (oracles.REGRESSION_DEGREE + 1)
    table = ens.n_paths * (g.n + 1) * 8
    chunk = p * girsanov.LSMC_CHUNK * 8
    assert ens.n_paths > girsanov.LSMC_CHUNK  # more than one block
    tracemalloc.start()
    try:
        solve_delayed_lsmc(fam, build_delayed_operator(gen), ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    small = 3 * p * p * 8 + 64 * (g.n + 1) ** 2 * 8 + 2 * 8 * np.getbufsize()
    assert peak <= chunk + small + table / 4


@pytest.mark.parametrize("mode", ["P", "Q"])
@pytest.mark.parametrize("family", ["gaussian", "terminal"])
def test_per_path_blocks_are_node_major(mode, family):
    # every per-path block of a pass over ens.blocks, three blocks here,
    # is node-major (N+1, m) on the m paths of its block, and C-contiguous
    # or a stride-0 broadcast: F, Y, the pathwise residual R and the LSMC
    # readout's Y and targets
    g = TriangularGrid(T, 12)
    gen = DelayedGenerator(Uniform(T), constant_kernel(0.3, g_value=0.2), g)
    b = drift(gen)
    ens = sample_paths(2 * girsanov.LSMC_CHUNK + 100, 5, mode, b)
    phi = build_phi(gen)
    psi = resolvent(phi, tol=1e-12)
    fam = LSMC_FAMILIES[family]
    parts = ens.blocks
    assert len(parts) == 3

    def node_major(blocks):
        seen = []
        for part, block in blocks:
            assert block.shape == (g.n + 1, part.stop - part.start)
            assert block.flags.c_contiguous or 0 in block.strides
            seen.append(part)
        assert seen == list(parts)

    node_major(zip(parts, evaluate_F_blocks(fam, ens)))
    z = solve_Z(fam, psi, b)
    res = solve_delayed_lsmc(fam, build_delayed_operator(gen), ens)
    for k in (0, 1):  # Y and R; the readout's Y and targets
        node_major((part, pair[k]) for part, pair in zip(
            parts, residual_reduced_pathwise(solve_Y_blocks(fam, psi, ens),
                                             z, fam, phi, ens)))
        node_major((part, yt[k]) for part, yt in res.readout())
