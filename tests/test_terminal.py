"""Free-term families: evaluation, exact conditionals, Malliavin readouts."""

import contextlib
import dataclasses
import math
from itertools import islice

import numpy as np
import pytest

from bsvielab import girsanov, terminal
from bsvielab.girsanov import DriftFunction, drift, sample_paths
from bsvielab.kernels import DelayedGenerator, TriangularGrid, build_phi, \
    constant_kernel, resolvent, tail_weight_matrix
from bsvielab.measures import Uniform
from bsvielab.solver import mean_Y, solve_Y_blocks
from bsvielab.terminal import (
    CHEB_NODES,
    GH_NODES,
    Deterministic,
    GaussianLinear,
    QuadratureError,
    TerminalFunction,
    UnknownParameter,
    Z_REF_STATE,
    conditional_sweep,
    evaluate_F_blocks,
    f0_profile,
    gauss_hermite_mean,
    is_stochastic,
    make_f0,
    make_h,
    make_phi,
    malliavin_table,
    mean_profile,
)

T = 1.0


def conditional_F(fam, t, r, ensemble):
    """E^Q[F(t) | F_r] on every path from the path prefix up to r, under
    the ensemble's drift, one (t, r) at a time: the reference for the
    package's table forms.

    The increments with left endpoint t_k < r are known.  GaussianLinear
    keeps their sampled values and adds the Q-mean b(t_k) dt of the others;
    TerminalFunction integrates the N(state + remaining drift, T - r)
    transition of W(T) by Gauss-Hermite."""
    g = ensemble.grid
    b = ensemble.drift_fn.values
    if r < -1e-12 or r > g.horizon + 1e-12:
        raise ValueError("conditioning time outside [0, T]")
    j = int(np.searchsorted(g.nodes[:-1], r - 1e-12, side="left"))
    if isinstance(fam, Deterministic):
        return np.full(ensemble.n_paths, float(fam.f0(t)))
    if isinstance(fam, GaussianLinear):
        phi_row = np.asarray(fam.phi(t, g.nodes[:-1]), dtype=float)
        known = ensemble.dw[:, :j] @ phi_row[:j]
        compensator = float(phi_row[j:] @ (b[j:-1] * g.dt))
        return float(fam.f0(t)) + known + compensator
    remaining = float(b[j:-1].sum() * g.dt)
    sd = math.sqrt(max(g.horizon - r, 0.0))
    return gauss_hermite_mean(fam, t, ensemble.w[:, j] + remaining, sd)


@contextlib.contextmanager
def one_block(ens):
    """ens.blocks as the one block of every path, LSMC_CHUNK raised past
    M, inside the block of the with statement."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(girsanov, "LSMC_CHUNK", 64 * ens.n_paths)
        yield


def F_table(fam, ensemble):
    """F on every path and node, path-major (M, N+1): a deterministic
    family's f0_profile along every path, else evaluate_F_blocks on the
    one block of every path, transposed."""
    grid = ensemble.grid
    if not is_stochastic(fam):
        return np.broadcast_to(f0_profile(fam, grid),
                               (ensemble.n_paths, grid.n + 1))
    with one_block(ensemble):
        (part, out), = ensemble.block_buffers(grid.n + 1)
        return evaluate_F_blocks(fam, ensemble)(part, out).T


def F_at(fam, t, ensemble):
    """F(t) on every path: the column of F_table at the grid node t."""
    (j,) = np.flatnonzero(np.isclose(ensemble.grid.nodes, t))
    return F_table(fam, ensemble)[:, j]


def reference_F(fam, t, ensemble):
    """F(t) on every path, one node at a time: the reference for
    evaluate_F_blocks' table forms."""
    if isinstance(fam, Deterministic):
        return np.full(ensemble.n_paths, float(fam.f0(t)))
    if isinstance(fam, GaussianLinear):
        left = ensemble.grid.nodes[:-1]
        return float(fam.f0(t)) + ensemble.dw @ np.asarray(fam.phi(t, left),
                                                           dtype=float)
    return np.asarray(fam.h(t, ensemble.w[:, -1]), dtype=float)


def grid(n=50):
    return TriangularGrid(horizon=T, n=n)


def ens(n=50, m=2000, seed=3, mode="Q"):
    """Paths without drift: W and W^Q coincide."""
    return sample_paths(m, seed, mode, DriftFunction(grid(n), np.zeros(n + 1)))


def test_deterministic_everywhere():
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    e = ens(m=17)
    assert np.all(F_at(fam, 0.3, e) == 1.0)
    assert np.all(conditional_F(fam, 0.3, 0.7, e) == 1.0)
    assert not is_stochastic(fam)


def test_gaussian_linear_telescopes_to_WT():
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant", value=1.0))
    e = ens(m=64)
    vals = F_at(fam, 0.2, e)
    assert np.allclose(vals, e.w[:, -1])


def test_terminal_function_pointwise():
    fam = make_h("square")
    e = ens(m=8)
    vals = F_at(fam, 0.0, e)
    assert np.allclose(vals, e.w[:, -1] ** 2)


def test_conditional_gaussian_linear_martingale():
    # phi == 1, b == 0: E[W(T) | F_r] = W(r)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    e = ens(n=40, m=32)
    j = 13
    vals = conditional_F(fam, 0.9, e.grid.nodes[j], e)
    assert np.allclose(vals, e.w[:, j])


def test_conditional_terminal_function_second_moment():
    fam = make_h("square")
    e = ens(n=40, m=5)
    vals = conditional_F(fam, 0.0, 0.0, e)
    assert np.allclose(vals, T)  # E[W(T)^2] = T, exact for a 64-node rule


def test_conditional_with_drift_compensator():
    # phi == 1, uniform-measure drift: compensator is the left-point sum
    # of b over the unknown increments
    g = grid(20)
    b = drift(DelayedGenerator(Uniform(T), constant_kernel(0.0, g_value=1.0),
                               g))
    e = sample_paths(16, 5, "Q", b)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    j = 7
    vals = conditional_F(fam, 0.5, g.nodes[j], e)
    want = e.w[:, j] + (b.values[j:-1] * g.dt).sum()
    assert np.allclose(vals, want)


def test_tower_property_at_T():
    e = ens(n=30, m=40)
    fam_gl = GaussianLinear(f0=make_f0("constant", value=0.5),
                            phi=make_phi("exp_u", rate=1.0))
    assert np.allclose(conditional_F(fam_gl, 0.4, T, e),
                       F_at(fam_gl, 0.4, e))
    fam_tf = make_h("exp")
    got = conditional_F(fam_tf, 0.0, T - 1e-12, e)
    want = F_at(fam_tf, 0.0, e)
    assert np.abs(got - want).max() < 1e-5


def test_unconditional_matches_monte_carlo():
    fam = make_h("exp")
    e = ens(n=50, m=100_000, seed=11)
    cond0 = conditional_F(fam, 0.0, 0.0, e)
    assert np.allclose(cond0, cond0[0])  # no path dependence at r=0
    samples = F_at(fam, 0.0, e)
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - cond0[0]) < 3 * se
    # and the quadrature value is the exact lognormal mean e^{T/2}
    assert cond0[0] == pytest.approx(math.exp(0.5), rel=1e-10)


def test_malliavin_bump_consistency():
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("exp_u", rate=1.0))
    e = ens(n=20, m=6)
    k, eps, t = 9, 1e-3, 0.3
    base = F_at(fam, t, e)
    draws = e.draws.copy()  # mode Q without drift: dW is the draws
    draws[:, k] += eps
    bumped = F_at(fam, t, dataclasses.replace(e, draws=draws))
    want = eps * math.exp(-e.grid.nodes[k])
    assert np.allclose(bumped - base, want)
    # and malliavin_table reads the same kernel value at (t, s_k)
    v = 6
    assert e.grid.nodes[v] == pytest.approx(t)
    assert malliavin_table(fam, e.drift_fn)[v, k] == pytest.approx(
        math.exp(-e.grid.nodes[k]))


def test_growth_envelope_enforced():
    bad = TerminalFunction(
        h=lambda t, x: np.exp(np.asarray(x, dtype=float)),
        dh=lambda t, x: np.exp(np.asarray(x, dtype=float)),
        growth_a=1.0, growth_b=0.5)
    e = ens(n=20, m=4)
    with pytest.raises(QuadratureError):
        conditional_F(bad, 0.0, 0.0, e)


def test_growth_guard_rejects_nan():
    # sqrt is NaN on the negative points; NaN is no value within the envelope
    fam = TerminalFunction(h=lambda t, x: np.sqrt(np.asarray(x, dtype=float)),
                           dh=lambda t, x: 0.5 / np.sqrt(np.asarray(x)),
                           growth_a=1.0, growth_b=1.0)
    with np.errstate(invalid="ignore"), pytest.raises(QuadratureError):
        gauss_hermite_mean(fam, 0.0, np.array([0.0, 1.0]), 1.0)


def test_sweep_matches_pointwise_conditionals():
    g = grid(15)
    b = drift(DelayedGenerator(Uniform(T), constant_kernel(0.0, g_value=0.7),
                               g))
    e = sample_paths(12, 8, "Q", b)
    gen = DelayedGenerator(Uniform(T), constant_kernel(0.4), g)
    psi = resolvent(build_phi(gen), tol=1e-12)
    a_mat = psi.values * tail_weight_matrix(g)
    fams = [
        Deterministic(f0=make_f0("exp_decay", rate=0.5)),
        GaussianLinear(f0=make_f0("constant", value=0.2),
                       phi=make_phi("exp_u", rate=2.0)),
        make_h("square"),
        TerminalFunction(h=lambda t, x: np.exp(-t) * np.asarray(x) ** 2,
                         dh=lambda t, x: 2.0 * np.exp(-t) * np.asarray(x),
                         growth_a=3.0, growth_b=1.0, t_dependent=True),
    ]
    for fam in fams:
        # Y[:, i] = C_i[i] + sum_a A[i, a] C_i[a] with each C_i[a] from
        # conditional_F; only terminal functions go through the sweep
        y = next(solve_Y_blocks(fam, psi, e, e.block_buffers(16))).T \
            if is_stochastic(fam) else mean_Y(mean_profile(fam, b), psi)
        for i in (0, 7, 15):
            cond = np.stack([conditional_F(fam, t, g.nodes[i], e)
                             for t in g.nodes])
            want = cond[i] + a_mat[i] @ cond
            got = y[:, i] if y.ndim == 2 else np.full(12, y[i])
            assert np.allclose(got, want), (fam, i)
        if not isinstance(fam, TerminalFunction):
            continue
        assert len(e.blocks) == 1
        for i, c in conditional_sweep(fam, e, e.block_buffers(16)):
            if i in (0, 7, 15):
                for a in (i, min(i + 3, 15)):
                    want = conditional_F(fam, g.nodes[a], g.nodes[i], e)
                    row = c[a] if fam.t_dependent else c[0]
                    assert np.allclose(row, want), (fam, i, a)


def mc_terminal_ensemble(seed, n=40, m=20000):
    """A drifted mode-Q ensemble: uniform delay, c = 0.3, g = 0.2."""
    g = grid(n)
    b = drift(DelayedGenerator(Uniform(T), constant_kernel(0.3, g_value=0.2),
                               g))
    return sample_paths(m, seed, "Q", b)


def direct_layer(fam, e, i, times):
    """Node i's conditionals from the Gauss-Hermite rule at every path's
    state, at the given times."""
    shift = e.drift_fn.remaining()[i]
    sd = math.sqrt(max(T - e.grid.nodes[i], 0.0))
    return gauss_hermite_mean(fam, times, e.w[:, i] + shift, sd)


def blocked_sweep(fam, e):
    """(i, paths, C_i) of conditional_sweep on the blocks of e.blocks,
    C_i on the paths of the block paths."""
    blocks = e.blocks
    assert len(blocks) > 1
    sweep = conditional_sweep(fam, e, e.block_buffers(e.grid.n + 1))
    for part in blocks:
        for i, c in islice(sweep, e.grid.n + 1):
            yield i, part, c


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("fam", [
    make_h("square"),
    make_h("exp"),
    make_h("affine"),
    TerminalFunction(
        h=lambda t, x: np.exp(-t) * np.asarray(x) ** 2 + t * np.asarray(x),
        dh=lambda t, x: 2.0 * np.exp(-t) * np.asarray(x) + t,
        growth_a=3.0, growth_b=1.0, t_dependent=True),
], ids=["square", "exp", "affine", "t-dependent"])
def test_sweep_interpolant_matches_direct_layer(fam, seed):
    # each node's one fit, on the states of every block, is within 1e-13
    # of the node's largest |C_i| on each block; a t-dependent h is
    # checked on the diagonal row, which Y reads, and on the last
    e = mc_terminal_ensemble(seed)
    n = e.grid.n
    rows = [[i, n] if fam.t_dependent else [0] for i in range(n + 1)]
    want = [direct_layer(fam, e, i, e.grid.nodes[rows[i]])
            for i in range(n + 1)]
    for i, part, c in blocked_sweep(fam, e):
        bound = 1e-13 * np.abs(want[i]).max()
        assert np.abs(c[rows[i]] - want[i][:, part]).max() <= bound, i


def test_sweep_kinked_h_falls_back_bitwise():
    # the rule's mean of |x - 0.3| is piecewise linear in the state, so no
    # interior node's fit passes the certificate: each tries its 2K - 1
    # points once, then takes the rule at every state of each block, bit
    # for bit
    shapes = []

    def h(t, x):
        shapes.append(np.shape(x))
        return np.abs(np.asarray(x, dtype=float) - 0.3)

    fam = TerminalFunction(h=h, dh=lambda t, x: np.sign(np.asarray(x) - 0.3),
                           growth_a=2.0, growth_b=1.0)
    e = mc_terminal_ensemble(1)
    want = [direct_layer(fam, e, i, e.grid.nodes[:1])[0]
            for i in range(e.grid.n + 1)]
    shapes.clear()
    for i, part, c in blocked_sweep(fam, e):
        assert np.array_equal(c[0], want[i][part]), i
    # one try per interior node, whatever the blocks
    n_tries = shapes.count((2 * CHEB_NODES - 1, GH_NODES))
    assert n_tries == e.grid.n - 1


def test_sweep_counts_h_points():
    # the interior nodes evaluate h on 2K - 1 states each; t_0 (every state
    # W = 0) on one state's GH_NODES points, and t_N (sd = 0) once per state
    n, m = 40, 20000
    points = []

    def h(t, x):
        points.append(np.size(x))
        return np.asarray(x, dtype=float) ** 2

    fam = TerminalFunction(h=h, dh=None, growth_a=3.0, growth_b=1.0)
    e = mc_terminal_ensemble(1, n, m)
    with one_block(e):
        for _ in conditional_sweep(fam, e, e.block_buffers(n + 1)):
            pass
    assert sum(points) <= ((n - 1) * (2 * CHEB_NODES - 1) + 1) * GH_NODES + m


@pytest.mark.parametrize("fam, most", [
    (make_h("square"), 3),
    (make_h("affine"), 2),
    (make_h("exp"), CHEB_NODES - 1),
], ids=["square", "affine", "exp"])
def test_sweep_chops_the_series_at_its_rounding_floor(monkeypatch, fam, most):
    # a polynomial h of degree d keeps d + 1 terms at every interior node
    # (its fit and its states alike); exp keeps fewer than all K
    rows = []

    def table(s, k):
        rows.append(k)
        return full_table(s, k)

    full_table = terminal._chebyshev_table
    monkeypatch.setattr(terminal, "_chebyshev_table", table)
    e = mc_terminal_ensemble(1)
    with one_block(e):
        for _ in conditional_sweep(fam, e, e.block_buffers(e.grid.n + 1)):
            pass
    assert len(rows) == 2 * (e.grid.n - 1)
    assert max(rows) <= most


@pytest.mark.parametrize("fam", [
    make_h("square"),
    make_h("exp"),
    make_h("affine"),
    TerminalFunction(
        h=lambda t, x: np.exp(-t) * np.asarray(x) ** 2 + t * np.asarray(x),
        dh=lambda t, x: 2.0 * np.exp(-t) * np.asarray(x) + t,
        growth_a=3.0, growth_b=1.0, t_dependent=True),
], ids=["square", "exp", "affine", "t-dependent"])
def test_chopped_sweep_within_floor_of_full_series(monkeypatch, fam):
    # The chop keeps the first k0 coefficients c_j of each time row and
    # drops a tail sum_(j >= k0) |c_j| of at most floor * scale, floor =
    # K eps, in its own running sum: asserted here row by row, the tail
    # summed exactly (fsum) within that sum's rounding, a factor 1 + gamma_K.
    # The chopped and the K-term values are both sums over j of c_j T_j at
    # the states, the chopped table the K-term table's first k0 rows bit
    # for bit.  A sum of k products is within gamma_k sum |c_j T_j| of its
    # exact value in any order, gamma_k = k u / (1 - k u), u = eps / 2
    # (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    # 2002, sec. 3.1), and the recurrence keeps every computed |T_j|
    # within 1 + K^2 eps of 1 on the states' interval.  So
    #   |chopped - full|
    #       <= (1 + K^2 eps) ((1 + gamma_K) floor scale + 2 gamma_K A),
    # A = sum_j |c_j|: the dropped tail and the two evaluations' rounding.
    # A t-dependent h is checked on its diagonal row, which Y reads, and
    # on the last.
    rows_seen = []

    def chopped(coef, scale):
        k0 = chopped_length(coef, scale)
        rows_seen.append((scale[:, 0], k0, coef))
        return k0

    chopped_length = terminal._chopped_length
    e = mc_terminal_ensemble(1)
    n = e.grid.n
    rows = [[i, n] if fam.t_dependent else [0] for i in range(n + 1)]
    monkeypatch.setattr(girsanov, "LSMC_CHUNK", 64 * e.n_paths)
    monkeypatch.setattr(terminal, "_chopped_length", chopped)
    chop = [c[rows[i]] for i, c in conditional_sweep(
        fam, e, e.block_buffers(n + 1))]
    monkeypatch.setattr(terminal, "_chopped_length",
                        lambda coef, scale: coef.shape[1])
    full = [c[rows[i]] for i, c in conditional_sweep(
        fam, e, e.block_buffers(n + 1))]
    assert len(rows_seen) == n - 1  # every interior node interpolates
    eps = np.finfo(float).eps
    k = CHEB_NODES
    floor = k * eps
    gamma = k * eps / 2 / (1 - k * eps / 2)
    for i, (scale, k0, coef) in enumerate(rows_seen, start=1):
        tail = np.array([math.fsum(np.abs(c[k0:])) for c in coef])
        assert np.all(tail <= (1 + gamma) * floor * scale), i
        bound = (1 + k * k * eps) * ((1 + gamma) * floor * scale
                                     + 2 * gamma * np.abs(coef).sum(axis=1))
        assert np.all(np.abs(chop[i] - full[i]) <= bound[rows[i], None]), i


def test_nan_at_an_interpolation_point_raises():
    # h is NaN at one point of the first layer on a node's interpolation
    # points and finite everywhere else
    poisoned = []

    def h(t, x):
        out = np.asarray(x, dtype=float) ** 2
        if np.shape(x) == (2 * CHEB_NODES - 1, GH_NODES) and not poisoned:
            poisoned.append(t)
            out[6, 0] = np.nan
        return out

    fam = TerminalFunction(h=h, dh=None, growth_a=3.0, growth_b=1.0)
    e = mc_terminal_ensemble(1, 10, 200)
    with pytest.raises(QuadratureError):
        for _ in conditional_sweep(fam, e, e.block_buffers(11)):
            pass
    assert poisoned


def test_registries_reject_unknown_names():
    with pytest.raises(KeyError):
        make_f0("nope")
    with pytest.raises(KeyError):
        make_phi("nope")
    with pytest.raises(KeyError):
        make_h("nope")


def test_registries_reject_unknown_parameters():
    for make, name, key in [(make_f0, "constant", "valeu"),
                            (make_f0, "zero", "value"),
                            (make_phi, "exp_u", "scale"),
                            (make_h, "square", "slope")]:
        with pytest.raises(UnknownParameter) as info:
            make(name, **{key: 2.0})
        assert info.value.args == (key,)
    assert make_f0("constant", value=2.0)(0.5) == 2.0
    assert make_h("affine", slope=2.0).dh(0.0, 1.0) == 2.0


def test_affine_h_registry():
    fam = make_h("affine", intercept=0.5, slope=2.0)
    e = ens(n=10, m=7)
    assert np.allclose(F_at(fam, 0.0, e), 0.5 + 2.0 * e.w[:, -1])
    assert np.allclose(malliavin_table(fam, e.drift_fn), 2.0)


@pytest.mark.parametrize("fam", [
    make_h("square"),
    TerminalFunction(h=lambda t, x: (1.0 + t) * np.asarray(x, dtype=float),
                     dh=lambda t, x: (1.0 + t) + 0.0 * np.asarray(x),
                     growth_a=3.0, growth_b=1.0, t_dependent=True),
    GaussianLinear(f0=make_f0("exp_decay"), phi=make_phi("bilinear")),
    Deterministic(f0=make_f0("constant", value=2.0)),
    # h returns its own argument W(T) at some times
    TerminalFunction(h=lambda t, x: x if t > 0.5 else 2.0 * np.asarray(x),
                     dh=lambda t, x: 1.0 + 0.0 * np.asarray(x),
                     growth_a=3.0, growth_b=1.0, t_dependent=True),
], ids=["t-independent", "t-dependent", "gaussian", "deterministic",
        "h-returns-its-argument"])
def test_evaluate_F_table_matches_per_node_stack(fam):
    # count the calls of h (of phi for a Gaussian-linear family, of f0 for
    # a deterministic one)
    calls = []
    field = {Deterministic: "f0", GaussianLinear: "phi"}.get(type(fam), "h")
    inner = getattr(fam, field)
    fam = dataclasses.replace(
        fam, **{field: lambda *a: calls.append(a[0]) or inner(*a)})
    e = ens(n=12, m=300)
    want = np.stack([reference_F(fam, t, e) for t in e.grid.nodes], axis=1)
    calls.clear()
    got = F_table(fam, e)
    n_calls = len(calls)
    if isinstance(fam, GaussianLinear):
        # one GEMM instead of a product per node: both sum the same N
        # terms phi(t_a, t_k) dW_k, each within gamma_N = N u / (1 - N u)
        # of |dW| . |phi| (u the unit roundoff), then add f0
        tt, kk = np.meshgrid(e.grid.nodes, e.grid.nodes[:-1], indexing="ij")
        scale = np.abs(e.dw) @ np.abs(fam.phi(tt, kk)).T
        u = np.finfo(float).eps / 2
        gamma = 12 * u / (1 - 12 * u)
        assert np.all(np.abs(got - want) <= 2 * gamma * scale + 2 * u * np.abs(want))
        assert n_calls == 1  # the phi table
        return
    assert np.array_equal(got, want)
    # a t-independent h is evaluated and growth-checked once
    shared = isinstance(fam, TerminalFunction) and not fam.t_dependent
    assert n_calls == (1 if shared else 13)


@pytest.mark.parametrize("t_dependent", [False, True])
def test_evaluate_F_table_growth_checked(t_dependent):
    # h breaks its envelope only beyond x = 25, which W(T) reaches on the
    # last path alone
    e = ens(n=10, m=50)
    fam = TerminalFunction(
        h=lambda t, x: np.where(np.asarray(x) > 25.0,
                                10.0 * np.exp(np.abs(x)), np.asarray(x) ** 2),
        dh=lambda t, x: 2.0 * np.asarray(x), growth_a=3.0, growth_b=1.0,
        t_dependent=t_dependent)
    with pytest.raises(QuadratureError):
        F_table(fam, last_path_ends_at(e, 30.0))
    e = last_path_ends_at(e, 20.0)
    assert np.array_equal(F_table(fam, e)[:, -1], e.w[:, -1] ** 2)


def last_path_ends_at(e, value):
    """e with W(T) on its last path moved to value (up to rounding) by
    shifting that path's last draw; every other path is unchanged."""
    draws = e.draws.copy()
    draws[-1, -1] += value - e.w[-1, -1]
    return dataclasses.replace(e, draws=draws)


@pytest.mark.parametrize("fam", [
    Deterministic(f0=make_f0("exp_decay", rate=0.5)),
    GaussianLinear(f0=make_f0("constant", value=0.2),
                   phi=make_phi("exp_u", rate=2.0)),
    make_h("square"),
    TerminalFunction(h=lambda t, x: np.exp(-t) * np.asarray(x) ** 2,
                     dh=lambda t, x: 2.0 * np.exp(-t) * np.asarray(x),
                     growth_a=3.0, growth_b=1.0, t_dependent=True),
], ids=["deterministic", "gaussian", "t-independent", "t-dependent"])
def test_mean_profile_is_conditional_at_zero(fam):
    g = grid(20)
    b = drift(DelayedGenerator(Uniform(T), constant_kernel(0.0, g_value=0.7),
                               g))
    e = sample_paths(3, 4, "Q", b)
    got = mean_profile(fam, b)
    want = np.stack([conditional_F(fam, t, 0.0, e) for t in g.nodes])
    assert got.shape == (g.n + 1,)
    assert np.abs(want - got[:, None]).max() < 1e-12
    if isinstance(fam, TerminalFunction):
        # E[(mu + sqrt(T) X)^2] = mu^2 + T, exact for the 64-node rule,
        # with mu the left-point int_0^T b
        mu = b.values[:-1].sum() * g.dt
        scale = np.exp(-g.nodes) if fam.t_dependent else 1.0
        assert np.abs(got - scale * (mu**2 + T)).max() < 1e-12


@pytest.mark.parametrize("t_dependent", [False, True])
def test_mean_profile_one_h_call_per_distinct_t(t_dependent):
    n = 40
    g = grid(n)
    b = drift(DelayedGenerator(Uniform(T), constant_kernel(0.0, g_value=0.7),
                               g))
    scale = (lambda t: np.exp(-t)) if t_dependent else (lambda t: 1.0)
    calls = []

    def counting_h(t, x):
        calls.append(t)
        return scale(t) * np.asarray(x) ** 2

    fam = TerminalFunction(h=counting_h, dh=None, growth_a=3.0, growth_b=1.0,
                           t_dependent=t_dependent)
    got = mean_profile(fam, b)
    assert len(calls) == (n + 1 if t_dependent else 1)
    # the values are those of one Gauss-Hermite layer per node
    shift, sd = b.remaining()[0], math.sqrt(T)
    want = [gauss_hermite_mean(fam, t, shift, sd) for t in g.nodes]
    assert got.shape == (n + 1,)
    assert np.array_equal(got, want)


def test_malliavin_table_closed_forms():
    g = grid(20)
    spec = constant_kernel(0.0, g_value=0.3)
    b = drift(DelayedGenerator(Uniform(T), spec, g))
    remaining = b.remaining()
    # h = x^2: E[2 W(T) | W(s_j) = ref] = 2 (ref + remaining drift)
    d = malliavin_table(make_h("square"), b)
    want = 2.0 * (Z_REF_STATE + remaining)
    assert d.shape == (21, 21)
    assert np.abs(d - want[None, :]).max() < 1e-12
    # affine h: the slope everywhere, drift or not
    d = malliavin_table(make_h("affine", intercept=1.0, slope=0.7), b)
    assert np.abs(d - 0.7).max() < 1e-14
    # GaussianLinear: phi(t_v, s_j) itself
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("bilinear"))
    tt, ss = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    assert np.array_equal(malliavin_table(fam, b), tt * ss)
