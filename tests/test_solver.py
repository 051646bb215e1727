"""Explicit formulas for Y, U, Z plus norm and smoothness diagnostics.

U(t) = F(t) + int_t^T Phi(t,r) Y(r) dr - Y(t), the martingale part of the
reduced equation, is the reduced residual with its sign flipped.

Closed forms used as oracles:
  * f0 == 1, Phi == 0.5 constant, T=1:  Y(t) = exp(0.5 (1-t));
  * phi == 1 (so F = W(T)), Phi == c:   Z(t,s) = exp(c (T-s)),
    D_sY(r) = exp(c (T-r)), and with g == 0, Y(t) = W(t) exp(c (T-t));
  * Z(t,s) = t s:  double integral of (dZ/dt)^2 over the triangle = T^4/4.
"""

import contextlib
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from bsvielab import girsanov, terminal
from bsvielab.girsanov import LSMC_CHUNK, DriftFunction, PathEnsemble, \
    drift, expect_q_blocks, sample_paths
from bsvielab.kernels import DelayedGenerator, GridMismatch, TriangularGrid, \
    build_phi, constant_kernel, resolvent, tail_weight_matrix, \
    tail_weighted, trapezoid_weights
from bsvielab.measures import DiracAt, Uniform
from bsvielab.oracles import residual_reduced, residual_reduced_pathwise
from bsvielab.solver import mean_Y, norm_columns, norm_report, \
    smoothness_diagnostics, solve_Y_blocks, solve_Z
from bsvielab.terminal import GH_BLOCK, Z_REF_STATE, Deterministic, \
    GaussianLinear, QuadratureError, TerminalFunction, _GH_SHIFT, _GH_W_NORM, \
    conditional_sweep, evaluate_F_blocks, f0_profile, gauss_hermite_mean, \
    make_f0, make_h, make_phi, mean_profile

T = 1.0


def setup_reduced(c, n, measure=None, g_value=0.0):
    g = TriangularGrid(T, n)
    m = measure if measure is not None else DiracAt(T, 0.0)
    spec = constant_kernel(c, g_value=g_value)
    phi = build_phi(DelayedGenerator(m, spec, g))
    psi = resolvent(phi, tol=1e-12)
    return g, m, spec, phi, psi


def zero_drift(g):
    return DriftFunction(g, np.zeros(g.n + 1))


@contextlib.contextmanager
def one_block(ens):
    """ens.blocks as the one block of every path, LSMC_CHUNK raised past
    M, inside the block of the with statement."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(girsanov, "LSMC_CHUNK", 64 * ens.n_paths)
        yield


def views(ens):
    """The (N+1, m) views of ens.block_buffers, one per block of
    ens.blocks: the rows a producer is handed."""
    return ens.block_buffers(ens.grid.n + 1)


def y_paths(fam, psi, ens):
    """Y of a stochastic family on every path, path-major (M, N+1):
    solve_Y_blocks on the one block of every path, transposed."""
    with one_block(ens):
        return next(solve_Y_blocks(fam, psi, ens, views(ens))).T


def y_profile(fam, psi):
    """Y of a deterministic family: mean_Y of its f0 profile."""
    return mean_Y(f0_profile(fam, psi.grid), psi)


def f_paths(fam, ens):
    """F on every path, path-major (M, N+1): evaluate_F_blocks on the one
    block of every path, transposed."""
    with one_block(ens):
        (part, out), = views(ens)
        return evaluate_F_blocks(fam, ens)(part, out).T


def expect_table(ens, values):
    """expect_q_blocks of a path-major table (M, K), node-major by its
    transpose, on the one block of every path."""
    return expect_q_blocks(ens, [(slice(None), values.T)])


def norms_of_profile(y, z, grid, beta=0.0):
    """The norms of one profile y: norm_report of its norm_columns."""
    return norm_report(norm_columns(y[:, None], grid, beta)[:, 0], z, grid,
                       beta)


def norms_on_paths(y, z, grid, ens, beta=0.0):
    """The norms of Y on every path of ens, path-major (M, N+1):
    norm_report of the Q-means of its norm_columns, as one block."""
    means = expect_q_blocks(
        ens, [(slice(None), norm_columns(y.T, grid, beta))], slice(0))[0]
    return norm_report(means, z, grid, beta)


def test_tail_weight_matrix_integrates():
    g = TriangularGrid(T, 100)
    w = tail_weight_matrix(g)
    f = g.nodes**2
    # int_{t}^1 s^2 ds = (1 - t^3)/3
    want = (1.0 - g.nodes**3) / 3.0
    assert np.abs(w @ f - want).max() < 1e-4
    assert np.all(w[-1] == 0.0)
    # same values as the row-by-row construction
    ref = np.zeros_like(w)
    for i in range(g.n):
        ref[i, i] = ref[i, g.n] = 0.5 * g.dt
        ref[i, i + 1:g.n] = g.dt
    assert np.array_equal(w, ref)
    # the outer weights are row 0 of the tail weights: int_0^1 s^2 ds
    outer = trapezoid_weights(g)
    assert np.array_equal(outer, w[0])
    assert outer @ f == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_solve_Y_deterministic_ode_oracle():
    g, m, spec, phi, psi = setup_reduced(0.5, 200)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    y = y_profile(fam, psi)
    want = np.exp(0.5 * (1.0 - g.nodes))
    assert np.abs(y - want).max() < 5e-5
    assert y[0] == pytest.approx(math.exp(0.5), abs=1e-4)
    assert y.shape == (g.n + 1,)


def test_solve_Y_zero_kernel_is_conditional_F():
    g = TriangularGrid(T, 50)
    phi = build_phi(DelayedGenerator(DiracAt(T, 0.0), constant_kernel(0.0), g))
    psi = resolvent(phi, tol=1e-12)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(200, 7, "Q", zero_drift(g))
    y = y_paths(fam, psi, ens)
    # E[W(T) | F_t] = W(t) path by path
    assert np.abs(y - ens.w).max() < 1e-12
    mean, se = expect_table(ens, y)
    assert mean.shape == se.shape == (g.n + 1,)
    assert se[0] == 0.0 and np.all(se[1:] > 0.0)


def test_solve_Y_with_drift_shifts_conditional():
    gamma = 0.4
    g, m, spec, phi, psi = setup_reduced(0.0, 50, g_value=gamma)
    b = drift(DelayedGenerator(m, spec, g))
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(100, 3, "Q", b)
    y = y_paths(fam, psi, ens)
    want = ens.w + gamma * (T - g.nodes)[None, :]
    assert np.abs(y - want).max() < 1e-12


def reference_solve_Y_gaussian(fam, psi, drift_fn, grid, ens):
    """The per-node sweep that computed GaussianLinear Y before the single
    product: the (N+1) x M conditionals of node i, kept by rank-1 updates
    of the known Ito sums, then Y[:, i] = C_i[i] + A[i] C_i."""
    n, dt, nodes = grid.n, grid.dt, grid.nodes
    a = psi.values * tail_weight_matrix(grid)
    f0_vec = f0_profile(fam, grid)
    tt, kk = np.meshgrid(nodes, nodes[:-1], indexing="ij")
    phimat = np.asarray(fam.phi(tt, kk), dtype=float)
    bdt = drift_fn.values[:-1] * dt
    comp = np.concatenate(
        [np.cumsum((phimat * bdt[None, :])[:, ::-1], axis=1)[:, ::-1],
         np.zeros((n + 1, 1))], axis=1)
    known = np.zeros((n + 1, ens.n_paths))
    y = np.empty((ens.n_paths, n + 1))
    for i in range(n + 1):
        c = f0_vec[:, None] + known + comp[:, i][:, None]
        y[:, i] = c[i] + a[i] @ c
        if i < n:
            known += phimat[:, i][:, None] * ens.dw[:, i][None, :]
    return y


@pytest.mark.parametrize("mode", ["Q", "P"])
@pytest.mark.parametrize("phi_name", ["constant", "exp_u", "bilinear"])
def test_solve_Y_gaussian_linear_matches_node_loop(mode, phi_name):
    g, m, spec, phi, psi = setup_reduced(0.4, 30, Uniform(T), g_value=0.3)
    b = drift(DelayedGenerator(m, spec, g))
    ens = sample_paths(500, 11, mode, b)
    fam = GaussianLinear(f0=make_f0("exp_decay", rate=0.7),
                         phi=make_phi(phi_name))
    y = y_paths(fam, psi, ens)
    ref = reference_solve_Y_gaussian(fam, psi, b, g, ens)
    assert y.shape == ref.shape
    assert np.abs(y - ref).max() <= 1e-13 * max(1.0, float(np.abs(ref).max()))


@pytest.mark.parametrize("mode", ["P", "Q"])
@pytest.mark.parametrize("phi_name", ["constant", "exp_u", "bilinear"])
@pytest.mark.parametrize("measure", [DiracAt(T, 0.0), Uniform(T)],
                         ids=["dirac", "uniform"])
def test_mean_Y_is_gaussian_linear_closed_form(measure, phi_name, mode):
    # GaussianLinear Y = diag((I + A) c) + dW B^T is affine in dW, so its
    # Q-mean is Y at dW = E^Q[dW] = b dt: one path drawn there, of raw
    # draws b dt under P and 0 under Q.  The tower identity on the mean
    # profile gives the same numbers without the conditionals.
    g, m, spec, phi, psi = setup_reduced(0.4, 40, measure, g_value=0.3)
    b = drift(DelayedGenerator(m, spec, g))
    assert np.abs(b.values).max() > 0.0
    fam = GaussianLinear(f0=make_f0("exp_decay", rate=0.7),
                         phi=make_phi(phi_name))
    bdt = b.increments()[None, :]
    probe = PathEnsemble(mode, bdt if mode == "P" else np.zeros_like(bdt),
                         b, np.ones(1))
    closed = y_paths(fam, psi, probe)[0]
    assert np.abs(mean_Y(mean_profile(fam, b), psi) - closed).max() <= 1e-15


def test_mean_Y_within_four_se_of_terminal_function_mean():
    # h = x^2 has no closed form: the Monte Carlo mean of the explicit Y
    # lies within 4 SE of the tower value at every node.  Y(0) is
    # F_0-measurable, one value on every path: there the two agree to
    # rounding and the SE is 0.
    g, m, spec, phi, psi = setup_reduced(0.3, 40, Uniform(T), g_value=0.2)
    b = drift(DelayedGenerator(m, spec, g))
    fam = make_h("square")
    ens = sample_paths(20_000, 8, "Q", b)
    y_mc, se = expect_table(ens, y_paths(fam, psi, ens))
    tower = mean_Y(mean_profile(fam, b), psi)
    assert se[1:].min() > 0.0
    assert np.all(np.abs(y_mc - tower) <= 4.0 * se + 1e-14 * np.abs(tower))


def test_solve_Y_at_t0_does_not_depend_on_path_count():
    # every path starts at W(0) = 0, so Y(0) is one value, the same bits
    # whatever the path count
    g, m, spec, phi, psi = setup_reduced(0.3, 10, Uniform(T), g_value=0.2)
    b = drift(DelayedGenerator(m, spec, g))
    fam = make_h("square")
    y0 = {m_paths: y_paths(fam, psi, sample_paths(m_paths, 7, "Q", b))[:, 0]
          for m_paths in (1, 2, 3, 4, 5, 300)}
    assert {float(v) for col in y0.values() for v in col} == \
        {float(y0[300][0])}, {k: float(v[0]) for k, v in y0.items()}


@pytest.mark.parametrize("t_dependent", [False, True])
def test_mean_profile_is_the_sweeps_t0_layer(t_dependent):
    # compare's tower mean and solve's sweep read one t_0 layer, bit for
    # bit, whatever the path count
    g, m, spec, phi, psi = setup_reduced(0.3, 10, Uniform(T), g_value=0.2)
    b = drift(DelayedGenerator(m, spec, g))
    fam = t_varying_h("square") if t_dependent else make_h("square")
    profile = mean_profile(fam, b)
    for m_paths in (1, 2, 3, 5, 300):
        ens = sample_paths(m_paths, 7, "Q", b)
        i, c0 = next(sweep_rows(fam, ens))
        assert i == 0
        assert np.array_equal(c0, np.broadcast_to(profile[:, None], c0.shape))


def sweep_rows(fam, ens):
    """(i, C_i) of conditional_sweep on the one block of every path, C_i
    broadcast to one row per node."""
    assert len(ens.blocks) == 1
    for i, c in conditional_sweep(fam, ens, views(ens)):
        yield i, np.broadcast_to(c, (ens.grid.n + 1, ens.n_paths))


def reference_solve_Y_terminal(fam, psi, drift_fn, grid, ens):
    """Terminal-function Y with each node's Gauss-Hermite layer taken over
    all M paths in one piece, as before the blocked layer; a t-independent
    row C_i enters as C_i + (sum_a A[i, a]) C_i, as in solve_Y."""
    n, nodes = grid.n, grid.nodes
    a = psi.values * tail_weight_matrix(grid)
    remaining = drift_fn.remaining()
    y = np.empty((ens.n_paths, n + 1))
    for i in range(n + 1):
        sd = math.sqrt(max(grid.horizon - nodes[i], 0.0))
        pts = (ens.w[:, i] + remaining[i])[:, None] + sd * _GH_SHIFT
        if fam.t_dependent:
            c = np.stack([np.asarray(fam.h(t, pts), dtype=float) @ _GH_W_NORM
                          for t in nodes])
        else:
            row = np.asarray(fam.h(nodes[0], pts), dtype=float) @ _GH_W_NORM
            c = np.broadcast_to(row, (n + 1, ens.n_paths))
        y[:, i] = c[i] + a[i] @ c if fam.t_dependent \
            else c[i] + a[i].sum() * c[i]
    return y


def test_solve_Y_t_independent_row_sum_matches_matvec():
    # C_i + (sum_a A[i, a]) C_i against the matvec A[i] . C on the
    # broadcast rows that it replaced: the same value up to rounding
    g, m, spec, phi, psi = setup_reduced(0.3, 40, Uniform(T), g_value=0.2)
    b = drift(DelayedGenerator(m, spec, g))
    ens = sample_paths(300, 4, "Q", b)
    fam = make_h("square")
    a = psi.values * tail_weight_matrix(g)
    matvec = np.empty((ens.n_paths, g.n + 1))
    for i, c in sweep_rows(fam, ens):
        matvec[:, i] = c[i] + a[i] @ c
    y = y_paths(fam, psi, ens)
    eps = np.finfo(float).eps
    assert np.abs(y - matvec).max() <= 4 * eps * np.abs(matvec).max()


@pytest.mark.parametrize("m_paths", [1, 63, 64, 300])
@pytest.mark.parametrize("t_dependent", [False, True])
def test_solve_Y_node_major_rows_match_column_loop(monkeypatch, m_paths,
                                                   t_dependent):
    # Y filled as node-major rows is the table the column writes gave,
    # bit for bit, in one C-contiguous block, with every Chebyshev term kept:
    # one path (t_0's one state everywhere), M = 2K - 1 (the direct
    # layer) and M above it (the interpolant)
    monkeypatch.setattr(terminal, "_chopped_length",
                        lambda coef, scale: coef.shape[1])
    g, m, spec, phi, psi = setup_reduced(0.3, 12, Uniform(T), g_value=0.2)
    ens = sample_paths(m_paths, 4, "Q", drift(DelayedGenerator(m, spec, g)))
    fam = t_varying_h("square") if t_dependent else make_h("square")
    a = psi.values * tail_weight_matrix(g)
    want = np.empty((m_paths, g.n + 1))
    for i, c in sweep_rows(fam, ens):
        want[:, i] = c[i] + a[i] @ c if t_dependent \
            else c[i] + a[i].sum() * c[i]
    with one_block(ens):
        y = next(solve_Y_blocks(fam, psi, ens, views(ens)))
    assert y.flags.c_contiguous
    assert y.tobytes() == np.ascontiguousarray(want.T).tobytes()


@pytest.mark.parametrize("m_paths", [1, 100, GH_BLOCK - 1, GH_BLOCK,
                                     GH_BLOCK + 1, 2 * GH_BLOCK + 44],
                         ids=["one", "below", "block-less-1", "equal",
                              "block-plus-1", "not-multiple"])
@pytest.mark.parametrize("t_dependent", [False, True])
def test_solve_Y_terminal_blocks_bitwise_unchanged(m_paths, t_dependent):
    g, m, spec, phi, psi = setup_reduced(0.3, 12, Uniform(T), g_value=0.2)
    b = drift(DelayedGenerator(m, spec, g))
    ens = sample_paths(m_paths, 4, "Q", b)
    fam = t_varying_h("square") if t_dependent else make_h("square")
    # the blocked Gauss-Hermite layer is bit-identical to one row sum over
    # all the means, and each mean to the layer on that mean alone, at
    # every node's states (t_N, with sd = 0, included)
    times = g.nodes if t_dependent else g.nodes[:1]
    remaining = b.remaining()
    for i, t_i in enumerate(g.nodes):
        sd = math.sqrt(max(T - t_i, 0.0))
        means = ens.w[:, i] + remaining[i]
        pts = means[:, None] + sd * _GH_SHIFT
        one_piece = np.stack([(np.asarray(fam.h(t, pts), dtype=float)
                               * _GH_W_NORM).sum(axis=1) for t in times])
        layer = gauss_hermite_mean(fam, times, means, sd)
        assert np.array_equal(layer, one_piece)
        alone = np.stack([gauss_hermite_mean(fam, times, x, sd)
                          for x in means], axis=-1)
        assert np.array_equal(layer, alone)
    # solve_Y reads the layer through the sweep's certified interpolant:
    # each node within 1e-13 of its largest |Y| (a bound fixed before
    # measuring)
    y = y_paths(fam, psi, ens)
    want = reference_solve_Y_terminal(fam, psi, b, g, ens)
    assert np.all(np.abs(y - want).max(axis=0)
                  <= 1e-13 * np.abs(want).max(axis=0))


def kinked_h():
    """|x - 0.3|: the rule's mean is piecewise linear in the state, so no
    node's fit passes its certificate and every node takes the rule at
    every state."""
    return TerminalFunction(
        h=lambda t, x: np.abs(np.asarray(x, dtype=float) - 0.3),
        dh=lambda t, x: np.sign(np.asarray(x, dtype=float) - 0.3),
        growth_a=2.0, growth_b=1.0)


BLOCK_CASES = {
    "gaussian-p": ("P", lambda: GaussianLinear(
        f0=make_f0("exp_decay", rate=0.7), phi=make_phi("exp_u"))),
    "gaussian-q": ("Q", lambda: GaussianLinear(
        f0=make_f0("exp_decay", rate=0.7), phi=make_phi("exp_u"))),
    "h-of-x": ("Q", lambda: make_h("exp")),
    "h-of-t-and-x": ("Q", lambda: t_varying_h("square")),
    "kinked-h": ("P", kinked_h),
}


@pytest.mark.parametrize("case, m_paths, blocks", [
    *[(case, m_paths, None) for case in BLOCK_CASES
      for m_paths in (LSMC_CHUNK + 1, 3 * LSMC_CHUNK + 5)],
    *[pytest.param(case, 2 * terminal.CHEB_NODES - 1,
                   [slice(0, 32), slice(32, 63)], id=f"{case}-no-fit")
      for case in ("h-of-x", "h-of-t-and-x")],
])
def test_solve_Y_and_residual_blocks_bitwise(monkeypatch, case, m_paths,
                                             blocks):
    # Y and the pathwise residual R on blocks of paths are the columns of
    # the one-block call bit for bit: on the blocks of ens.blocks, and at
    # M <= 2K - 1, where every node takes the rule at every state, on a
    # split of the paths that no fit spans
    mode, family = BLOCK_CASES[case]
    fam = family()
    g, m, spec, phi, psi = setup_reduced(0.3, 20, Uniform(T), g_value=0.2)
    b = drift(DelayedGenerator(m, spec, g))
    ens = sample_paths(m_paths, 9, mode, b)
    z = solve_Z(fam, psi, b)
    with one_block(ens):
        whole = next(solve_Y_blocks(fam, psi, ens, views(ens))).copy()
        (_, r_whole), = residual_reduced_pathwise([whole], z, fam, phi, ens,
                                                  views(ens), views(ens))
    if blocks is not None:
        monkeypatch.setattr(PathEnsemble, "blocks",
                            property(lambda self: blocks))
    assert len(ens.blocks) > 1
    ys, rs = [], []
    for y, r in residual_reduced_pathwise(
            solve_Y_blocks(fam, psi, ens, views(ens)), z, fam, phi, ens,
            views(ens), views(ens)):
        ys.append(y.copy())
        rs.append(r.copy())
    assert np.array_equal(np.concatenate(ys, axis=1), whole)
    assert np.array_equal(np.concatenate(rs, axis=1), r_whole)


@pytest.mark.parametrize("m_paths", [8191, 20_001])
def test_t_dependent_y_blocks_bitwise_past_the_last_lane(m_paths):
    # a t-dependent h on N = 40: the sweep's fit product and the row step
    # A[i] C_i take the paths after the last multiple of 64 by a product
    # of their own (girsanov.block_matmul), so those paths keep the bits
    # of the one block of every path too; as one product each, up to 4
    # of them did not (M = 8191: the fit product; M = 20001: the row step)
    fam = TerminalFunction(
        h=lambda t, x: np.exp(-t) * np.asarray(x) ** 2 + t * np.asarray(x),
        dh=lambda t, x: 2.0 * np.exp(-t) * np.asarray(x) + t,
        growth_a=3.0, growth_b=1.0, t_dependent=True)
    g, m, spec, phi, psi = setup_reduced(0.3, 40, Uniform(T), g_value=0.2)
    ens = sample_paths(m_paths, 3, "Q", drift(DelayedGenerator(m, spec, g)))
    with one_block(ens):
        whole = next(solve_Y_blocks(fam, psi, ens, views(ens))).copy()
    assert len(ens.blocks) > 1
    ys = [y.copy() for y in solve_Y_blocks(fam, psi, ens, views(ens))]
    assert np.array_equal(np.concatenate(ys, axis=1), whole)


def test_solve_Y_growth_breach_on_last_path_raises():
    # h breaks its envelope only beyond x = 25, which the Gauss-Hermite
    # points reach only from the last path, moved to W = 40 at one node
    g, m, spec, phi, psi = setup_reduced(0.3, 10)
    ens = sample_paths(2 * GH_BLOCK + 1, 6, "Q", zero_drift(g))
    draws = ens.draws.copy()  # the draws before and after t_4 absorb it
    shift = 40.0 - ens.w[-1, 4]
    draws[-1, 3] += shift
    draws[-1, 4] -= shift
    ens = dataclasses.replace(ens, draws=draws)
    assert ens.w[-1, 4] == pytest.approx(40.0)

    def h(t, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 25.0, 10.0 * np.exp(np.abs(x)), x**2)

    fam = TerminalFunction(h=h, dh=lambda t, x: 2.0 * np.asarray(x),
                           growth_a=3.0, growth_b=1.0)
    sd = math.sqrt(T - g.nodes[4])
    gauss_hermite_mean(fam, 0.0, ens.w[:-1, 4], sd)  # the others pass
    with pytest.raises(QuadratureError):
        y_paths(fam, psi, ens)


def test_solve_Y_growth_breach_on_lowest_state_raises():
    # the mirror case: h breaks its envelope only below x = -25, which the
    # Gauss-Hermite points reach only from the first path, moved to
    # W = -40 at one node, where it is the lowest state
    g, m, spec, phi, psi = setup_reduced(0.3, 10)
    ens = sample_paths(2 * GH_BLOCK + 1, 6, "Q", zero_drift(g))
    draws = ens.draws.copy()
    shift = -40.0 - ens.w[0, 4]
    draws[0, 3] += shift
    draws[0, 4] -= shift
    ens = dataclasses.replace(ens, draws=draws)
    assert ens.w[0, 4] == pytest.approx(-40.0)

    def h(t, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < -25.0, 10.0 * np.exp(np.abs(x)), x**2)

    fam = TerminalFunction(h=h, dh=lambda t, x: 2.0 * np.asarray(x),
                           growth_a=3.0, growth_b=1.0)
    sd = math.sqrt(T - g.nodes[4])
    gauss_hermite_mean(fam, 0.0, ens.w[1:, 4], sd)  # the others pass
    with pytest.raises(QuadratureError):
        y_paths(fam, psi, ens)


def test_solve_Y_grid_mismatch():
    # Y reads the grid from psi; an ensemble drawn on another grid is
    # refused, whichever of N and T differs
    g, m, spec, phi, psi = setup_reduced(0.5, 50)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    for other in (TriangularGrid(T, 60), TriangularGrid(2.0 * T, 50)):
        with pytest.raises(GridMismatch):
            y_paths(fam, psi, sample_paths(20, 1, "Q", zero_drift(other)))
    assert y_paths(fam, psi, sample_paths(20, 1, "Q", zero_drift(g))).shape \
        == (20, 51)


def test_solve_Z_grid_mismatch():
    # psi and the drift are built apart: a drift on another grid, whichever
    # of N and T differs, is refused; Phi comes from psi
    g, m, spec, phi, psi = setup_reduced(0.5, 50)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    for other in (TriangularGrid(T, 60), TriangularGrid(2.0 * T, 50)):
        with pytest.raises(GridMismatch):
            solve_Z(fam, psi, zero_drift(other))
    assert solve_Z(fam, psi, zero_drift(g)).shape == (51, 51)


def test_compute_U_deterministic_residual_small():
    g, m, spec, phi, psi = setup_reduced(0.5, 200)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    y = y_profile(fam, psi)
    u = -residual_reduced(y, f0_profile(fam, g), phi)[0]
    assert np.abs(u).max() < 1e-4  # c * dt^2 scale


def test_compute_U_martingale_increment():
    # G == 0, F = W(T), b == 0: U(t) = W(T) - W(t) exactly
    g = TriangularGrid(T, 40)
    m = DiracAt(T, 0.0)
    spec = constant_kernel(0.0)
    phi = build_phi(DelayedGenerator(m, spec, g))
    psi = resolvent(phi, tol=1e-12)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(64, 9, "P", zero_drift(g))
    y = y_paths(fam, psi, ens)
    u = -residual_reduced(y, f_paths(fam, ens), phi)[0]
    want = ens.w[:, -1][:, None] - ens.w
    assert np.abs(u - want).max() < 1e-12


def test_zero_family_zero_everything():
    g, m, spec, phi, psi = setup_reduced(0.7, 50)
    fam = Deterministic(f0=make_f0("zero"))
    y = y_profile(fam, psi)
    assert np.all(y == 0.0)
    assert np.all(-residual_reduced(y, f0_profile(fam, g), phi)[0]
                  == 0.0)


def test_solve_Z_martingale_representation_of_WT():
    g = TriangularGrid(T, 30)
    phi = build_phi(DelayedGenerator(DiracAt(T, 0.0), constant_kernel(0.0), g))
    psi = resolvent(phi, tol=1e-12)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    z = solve_Z(fam, psi, zero_drift(g))
    tri = np.triu(np.ones_like(z, dtype=bool))
    assert np.abs(z[tri] - 1.0).max() < 1e-12
    assert np.all(z[~tri] == 0.0)


def test_solve_Z_deterministic_zero_surface():
    g, m, spec, phi, psi = setup_reduced(0.5, 20)
    z = solve_Z(Deterministic(f0=make_f0("constant")), psi, zero_drift(g))
    assert np.all(z == 0.0)


def test_solve_Z_constant_kernel_closed_form():
    c = 0.3
    g, m, spec, phi, psi = setup_reduced(c, 200)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    z = solve_Z(fam, psi, zero_drift(g))
    tt, ss = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    want = np.where(tt <= ss, np.exp(c * (T - ss)), 0.0)
    assert np.abs(z - want).max() < 1e-4


def test_solve_Z_terminal_function_matches_gaussian_linear():
    # affine h with slope 1 is the same functional as phi == 1
    c = 0.3
    g, m, spec, phi, psi = setup_reduced(c, 40)
    z_gl = solve_Z(GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant")),
                   psi, zero_drift(g))
    z_tf = solve_Z(make_h("affine", intercept=0.0, slope=1.0),
                   psi, zero_drift(g))
    assert np.abs(z_gl - z_tf).max() < 1e-10


def test_t_dependent_branches_match_shared_quadrature():
    # h(t, x) = x^2 ignores t, so the per-t quadratures of the
    # t_dependent branches must reproduce the shared ones
    g, m, spec, phi, psi = setup_reduced(0.3, 12, Uniform(T), g_value=0.2)
    b = drift(DelayedGenerator(m, spec, g))
    ens = sample_paths(200, 5, "Q", b)
    shared = make_h("square")
    per_t = dataclasses.replace(shared, t_dependent=True)
    y_gap = np.abs(y_paths(per_t, psi, ens)
                   - y_paths(shared, psi, ens)).max()
    z_gap = np.abs(solve_Z(per_t, psi, b)
                   - solve_Z(shared, psi, b)).max()
    assert y_gap < 1e-12
    assert z_gap < 1e-12


def reference_solve_Z_terminal(fam, phi, psi, drift_fn, grid):
    """The nested Gauss-Hermite (j, r[, v]) loops that computed Z for a
    TerminalFunction before the tower-property formula."""
    n = grid.n
    nodes = grid.nodes
    tri = np.triu(np.ones((n + 1, n + 1), dtype=bool))
    trap = tail_weight_matrix(grid)
    col_w = trap.T  # weights in r for int_{t_s}^T
    remaining = drift_fn.remaining()
    psi_row_int = (trap * psi.values).sum(axis=1)

    def dh_mean(t, mean, sd):
        pts = np.asarray(mean, dtype=float)[..., None] + sd * _GH_SHIFT
        return np.asarray(fam.dh(t, pts), dtype=float) @ _GH_W_NORM

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


def reference_solve_Z_gaussian(fam, phi, psi, grid):
    """The GaussianLinear branch as it was written before the shared
    formula."""
    n = grid.n
    nodes = grid.nodes
    tri = np.triu(np.ones((n + 1, n + 1), dtype=bool))
    trap = tail_weight_matrix(grid)
    col_w = trap.T
    tt, ss = np.meshgrid(nodes, nodes, indexing="ij")
    phimat = np.asarray(fam.phi(tt, ss), dtype=float)
    d = phimat + (psi.values * trap) @ phimat
    z = phimat + phi.values @ (col_w * d)
    return np.where(tri, z, 0.0)


def t_varying_h(name):
    """A registry h made to depend on t, so that the per-node tables of
    the t_dependent path differ from node to node."""
    base = make_h(name)
    return TerminalFunction(
        h=lambda t, x: (1.0 + 0.5 * np.asarray(t)) * base.h(t, x),
        dh=lambda t, x: (1.0 + 0.5 * np.asarray(t)) * base.dh(t, x),
        growth_a=1.5 * base.growth_a, growth_b=base.growth_b,
        t_dependent=True)


TOWER_SETUPS = {
    # (delay measure, n, drift strength g)
    "uniform-drift": (Uniform(T), 40, 0.2),
    "dirac-0.3": (DiracAt(T, -0.3), 30, 0.0),
    "dirac0-drift": (DiracAt(T, 0.0), 60, 0.2),
}


@pytest.mark.parametrize("setup", sorted(TOWER_SETUPS))
@pytest.mark.parametrize("h_name", ["square", "exp", "affine"])
@pytest.mark.parametrize("t_dependent", [False, True])
def test_solve_Z_terminal_matches_nested_loop_reference(setup, h_name,
                                                        t_dependent):
    measure, n, g_value = TOWER_SETUPS[setup]
    g, m, spec, phi, psi = setup_reduced(0.3, n, measure, g_value=g_value)
    b = drift(DelayedGenerator(m, spec, g))
    fam = t_varying_h(h_name) if t_dependent else make_h(h_name)
    z = solve_Z(fam, psi, b)
    ref = reference_solve_Z_terminal(fam, phi, psi, b, g)
    scale = max(1.0, float(np.abs(ref).max()))
    assert np.abs(z - ref).max() <= 1e-14 * scale


@pytest.mark.parametrize("phi_name", ["constant", "exp_u", "bilinear"])
def test_solve_Z_gaussian_linear_bitwise_unchanged(phi_name):
    g, m, spec, phi, psi = setup_reduced(0.3, 40, Uniform(T), g_value=0.2)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi(phi_name))
    z = solve_Z(fam, psi, drift(DelayedGenerator(m, spec, g)))
    assert np.array_equal(z, reference_solve_Z_gaussian(fam, phi, psi, g))


@pytest.mark.parametrize("t_dependent", [False, True])
def test_solve_Z_one_dh_call_per_distinct_t(t_dependent):
    n = 20
    g, m, spec, phi, psi = setup_reduced(0.3, n, Uniform(T), g_value=0.2)
    base = make_h("exp")
    calls = []

    def counting_dh(t, x):
        calls.append(np.shape(x))
        return base.dh(t, x)

    fam = dataclasses.replace(base, dh=counting_dh, t_dependent=t_dependent)
    solve_Z(fam, psi, drift(DelayedGenerator(m, spec, g)))
    assert len(calls) == (n + 1 if t_dependent else 1)
    assert all(shape == (n + 1, 64) for shape in calls)


def test_ito_isometry():
    c = 0.3
    g, m, spec, phi, psi = setup_reduced(c, 50)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(20_000, 17, "Q", zero_drift(g))
    y = y_paths(fam, psi, ens)
    u = -residual_reduced(y, f_paths(fam, ens), phi)[0]
    for i in (0, 12, 25, 37):
        t = g.nodes[i]
        want = (math.exp(2 * c * (T - t)) - 1.0) / (2 * c)
        sq = u[:, i] ** 2
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - want) < 3 * se + 5e-3, i


def test_solve_Y_product_closed_form():
    # phi == 1, Phi == c, g == 0: Y(t) = W(t) exp(c (T-t))
    c = 0.4
    g, m, spec, phi, psi = setup_reduced(c, 100)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(100, 21, "P", zero_drift(g))
    y = y_paths(fam, psi, ens)
    want = ens.w * np.exp(c * (T - g.nodes))[None, :]
    assert np.abs(y - want).max() < 1e-3


def test_smoothness_constant_surface():
    g = TriangularGrid(T, 50)
    rep = smoothness_diagnostics(np.ones((51, 51)), g)
    assert rep.integral == 0.0
    assert rep.finite
    assert np.all(rep.dzdt == 0.0)


def test_smoothness_bilinear_oracle():
    g = TriangularGrid(T, 100)
    tt, ss = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    z = np.where(tt <= ss, tt * ss, 0.0)
    rep = smoothness_diagnostics(z, g)
    assert rep.integral == pytest.approx(T**4 / 4.0, rel=1e-3)


def reference_dzdt(z, grid):
    """dZ/dt cell by cell: central inside, forward at t = 0, backward at
    t = s, zero at (0, 0) and below the diagonal."""
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
    return d


def test_smoothness_matches_loop_reference_bitwise():
    g = TriangularGrid(T, 12)
    z = np.triu(np.random.default_rng(5).standard_normal((13, 13)))
    d = smoothness_diagnostics(z, g).dzdt
    assert np.array_equal(d, reference_dzdt(z, g))


def reference_smoothness(z, g):
    """dZ/dt and the smoothness integral through np.gradient, np.triu and
    d**2 tables, the formula smoothness_diagnostics forms in one table."""
    n, dt = g.n, g.dt
    d = np.gradient(z, dt, axis=0)
    diag = np.arange(1, n + 1)
    d[diag, diag] = (z[diag, diag] - z[diag - 1, diag]) / dt
    d = np.triu(d)
    d[0, 0] = 0.0
    inner = tail_weighted(g, d**2).sum(axis=1)
    return d, float(trapezoid_weights(g) @ inner)


@pytest.mark.parametrize("n", [2, 5, 60, 600])
def test_smoothness_is_the_gradient_formula_bitwise(n):
    # the whole surface is read, below the diagonal too (np.gradient reads
    # it at the t = s edge's neighbours), and z is left as it was
    g = TriangularGrid(T, n)
    z = np.random.default_rng(n).standard_normal((n + 1, n + 1))
    z[0, n] = z[n, n] = -0.0
    before = z.copy()
    rep = smoothness_diagnostics(z, g)
    d, integral = reference_smoothness(z, g)
    assert rep.dzdt.tobytes() == d.tobytes()
    assert rep.integral.hex() == integral.hex()
    assert z.tobytes() == before.tobytes()


def test_smoothness_grid_stability():
    c = 0.3
    flat, vals = [], []
    for n in (100, 200):
        g, m, spec, phi, psi = setup_reduced(c, n)
        z1 = solve_Z(GaussianLinear(f0=make_f0("zero"),
                                    phi=make_phi("constant")), psi, zero_drift(g))
        flat.append(smoothness_diagnostics(z1, g).integral)
        z2 = solve_Z(GaussianLinear(f0=make_f0("zero"),
                                    phi=make_phi("bilinear")), psi, zero_drift(g))
        vals.append(smoothness_diagnostics(z2, g).integral)
    # phi == 1 gives a t-independent surface: the integral is exactly 0
    assert flat == [0.0, 0.0]
    # the bilinear kernel has real t-dependence; value stable under doubling
    assert vals[0] > 0.0
    assert abs(vals[1] - vals[0]) < 0.02 * abs(vals[0])


def test_norms_constant_profile():
    g = TriangularGrid(T, 100)
    rep = norms_of_profile(np.ones(101), np.zeros((101, 101)), g)
    assert rep.h1 == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert rep.s2 == pytest.approx(1.0)
    assert rep.h2 == 0.0


def test_norms_exponential_profile_sup():
    g, m, spec, phi, psi = setup_reduced(0.5, 200)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    y = y_profile(fam, psi)
    rep = norms_of_profile(y, solve_Z(fam, psi, zero_drift(g)), g)
    assert rep.s2 == pytest.approx(math.e, abs=1e-3)


def test_norms_with_positive_beta():
    g = TriangularGrid(T, 200)
    beta = 1.3
    rep = norms_of_profile(np.ones(201), np.zeros((201, 201)), g, beta)
    # int_{-T}^0 e^{bs} ds + int_0^T e^{bs} ds = (e^{bT} - e^{-bT})/b
    want = (math.exp(beta * T) - math.exp(-beta * T)) / beta
    assert rep.h1**2 == pytest.approx(want, rel=1e-4)
    assert rep.s2 == pytest.approx(math.exp(beta * T), rel=1e-12)


def test_norms_of_z_surface():
    g = TriangularGrid(T, 100)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(50, 2, "P", zero_drift(g))
    phi = build_phi(DelayedGenerator(DiracAt(T, 0.0), constant_kernel(0.0), g))
    psi = resolvent(phi, tol=1e-12)
    y = y_paths(fam, psi, ens)
    rep = norms_on_paths(y, solve_Z(fam, psi, zero_drift(g)), g, ens)
    # Z == 1 on the triangle: integral = T^2/2
    assert rep.h2 == pytest.approx(math.sqrt(0.5), rel=1e-6)


@pytest.mark.parametrize("beta", [0.0, 0.7, -2.0])
@pytest.mark.parametrize("n", [2, 5, 60, 600])
def test_norm_report_h2_is_the_triangle_formula_bitwise(n, beta):
    # H2's integrand, formed in one buffer, has the bits of the weighted
    # square cut to the triangle and tail-weighted as three tables; the
    # strict lower triangle of z is not read, and z is left as it was
    g = TriangularGrid(T, n)
    z = np.random.default_rng(n).standard_normal((n + 1, n + 1))
    z[n, 0] = z[n, n] = -0.0
    before = z.copy()
    weight = np.exp(beta * g.nodes)
    inner = tail_weighted(g, np.triu(weight[None, :] * z**2)).sum(axis=1)
    want = math.sqrt(float(trapezoid_weights(g) @ inner))
    got = norm_report(np.array([1.0, 2.0]), z, g, beta).h2
    assert got.hex() == want.hex()
    assert z.tobytes() == before.tobytes()
    z_upper = np.triu(z) - np.tril(np.full_like(z, np.nan), -1)
    assert norm_report(np.array([1.0, 2.0]), z_upper, g, beta).h2 == got
    zero = norm_report(np.array([1.0, 2.0]), np.zeros_like(z), g, beta).h2
    assert zero == 0.0 and not math.copysign(1.0, zero) < 0.0


def test_norms_checks_its_grid():
    # a y (paths or one profile) or a z with one node too many is refused
    # by norm_columns and norm_report, not read on the wrong weights; an
    # ensemble on another horizon is refused where its Y is formed
    # (test_solve_Y_grid_mismatch)
    g = TriangularGrid(T, 10)
    ens = sample_paths(50, 2, "P", zero_drift(g))
    y, z = np.ones((50, 11)), np.triu(np.ones((11, 11)))
    assert norms_on_paths(y, z, g, ens).h1 == pytest.approx(math.sqrt(2.0))
    for bad in (np.ones((12, 50)), np.ones((12, 1))):
        with pytest.raises(GridMismatch, match=re.escape("shape (12,)")):
            norm_columns(bad, g, 0.0)
    means = norm_columns(y.T, g, 0.0)[:, 0]
    for bad in (np.triu(np.ones((12, 12))), np.ones(12)):
        with pytest.raises(GridMismatch) as err:
            norm_report(means, bad, g, 0.0)
        assert str(g) in str(err.value)
        assert f"shape {bad.shape}" in str(err.value)


@pytest.mark.parametrize("mode", ["P", "Q"])
def test_norms_traced_peak_within_one_table(mode):
    # H1 and S2 read the per-path columns of norm_columns, formed one
    # block of ens.blocks at a time into its rows of a (2, M) stack:
    # a block holds one weighted square of its Y, at most LSMC_CHUNK
    # paths by N + 1 nodes, and three columns of its paths (y(0)^2, that
    # times neg_mass, and the trapezoid sums).  expect_q_blocks reduces
    # the stack where it lies, SEs skipped, with one buffer of M floats.
    # Besides: the stack, 2 M floats, the O(N^2) tables of H2, which
    # 4 (N+1)^2 floats cover, and numpy's ufunc buffers.  A whole
    # (M, N+1) weighted square would be ten times the blocks' share.
    m_paths, n = 20_000, 60
    g = TriangularGrid(T, n)
    ens = sample_paths(m_paths, 5, mode, DriftFunction(g, np.full(n + 1, 0.2)))
    y = np.random.default_rng(6).standard_normal((m_paths, n + 1))
    yt = np.ascontiguousarray(y.T)
    z = np.triu(np.ones((n + 1, n + 1)))
    tracemalloc.start()
    try:
        columns = np.empty((2, m_paths))
        for part in ens.blocks:
            norm_columns(yt[:, part], g, 0.7, columns[:, part])
        means = expect_q_blocks(ens, [(slice(None), columns)], slice(0))[0]
        rep = norm_report(means, z, g, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (LSMC_CHUNK * (n + 4) * 8 + 3 * m_paths * 8
                    + 4 * (n + 1) ** 2 * 8 + 2 * 8 * np.getbufsize())
    # the blocks' columns are the whole table's, and so are the norms
    assert np.array_equal(columns, norm_columns(yt, g, 0.7))
    assert rep == norms_on_paths(y, z, g, ens, 0.7)


@pytest.mark.parametrize("mode", ["P", "Q"])
def test_gaussian_linear_f_and_y_traced_peak_within_one_table(mode):
    # GaussianLinear F and Y are each the increments times one matrix:
    # under Q, the draws times it plus the drift's row b dt times it, so
    # no (M, N) table of dW is formed beside the (M, N+1) product.
    # Besides it: the O(N^2) tables (phi, Psi's step, the triangle), which
    # 4 (N+1)^2 floats cover; numpy's ufunc buffers come on top.
    m_paths, n = 20_000, 60
    g, _, _, _, psi = setup_reduced(0.5, n, Uniform(T), g_value=0.3)
    ens = sample_paths(m_paths, 5, mode, DriftFunction(g, np.full(n + 1, 0.2)))
    fam = GaussianLinear(f0=make_f0("exp_decay", rate=0.7),
                         phi=make_phi("exp_u"))
    table = m_paths * (n + 1) * 8
    for run in (lambda: f_paths(fam, ens),
                lambda: y_paths(fam, psi, ens)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (table + 4 * (n + 1) ** 2 * 8
                        + 2 * 8 * np.getbufsize())
