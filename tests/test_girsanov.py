"""Drift tabulation, two-mode path simulation, importance-sampling means."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bsvielab import girsanov
from bsvielab.girsanov import (
    DegenerateWeights,
    DriftFunction,
    PathEnsemble,
    drift,
    expect_q_blocks,
    girsanov_report,
    sample_paths,
)
from bsvielab.kernels import DelayedGenerator, HorizonMismatch, \
    TriangularGrid, constant_kernel
from bsvielab.measures import DiracAt, Uniform


def grid(n=100, horizon=1.0):
    return TriangularGrid(horizon=horizon, n=n)


def tilt(m, g_value, g):
    """The drift of the measure m, G = 0 and g = g_value on the grid g."""
    return drift(DelayedGenerator(m, constant_kernel(0.0, g_value=g_value), g))


def zero_drift(g):
    return DriftFunction(g, np.zeros(g.n + 1))


def expect_all(ens, rows):
    """expect_q_blocks of node-major rows (K, M) on the one block of
    every path."""
    return expect_q_blocks(ens, [(slice(None), rows)])


def test_drift_dirac_at_zero():
    # point mass at lag 0: b(s) = g for s < T, but 0 at s = T (half-open mass)
    g = grid(10)
    b = tilt(DiracAt(1.0, 0.0), 0.7, g)
    assert np.allclose(b.values[:-1], 0.7)
    assert b.values[-1] == 0.0


def test_drift_uniform_linear():
    g = grid(10)
    b = tilt(Uniform(1.0), 2.0, g)
    want = 2.0 * (1.0 - g.nodes)
    assert np.allclose(b.values, want)


def test_drift_zero_g():
    g = grid(10)
    spec = constant_kernel(1.0, g_value=0.0)
    b = drift(DelayedGenerator(Uniform(1.0), spec, g))
    assert np.all(b.values == 0.0)
    assert np.abs(b.values).max() <= spec.g_bound


def test_drift_horizon_mismatch():
    # a measure on [-2, 0] on a T = 1 grid is refused by the generator the
    # drift reads; one with the grid's horizon gives a drift on its grid
    spec = constant_kernel(0.0, 1.0)
    with pytest.raises(HorizonMismatch,
                       match=r"^measure horizon 2\.0 != grid horizon 1\.0$"):
        drift(DelayedGenerator(Uniform(2.0), spec, grid(10)))
    gen = DelayedGenerator(Uniform(2.0), spec, grid(10, horizon=2.0))
    assert drift(gen).grid == gen.grid


def test_mode_p_without_drift_unit_weights():
    ens = sample_paths(200, seed=7, mode="P", drift_fn=zero_drift(grid(50)))
    assert np.all(ens.weights == 1.0)
    assert np.allclose(ens.w, ens.wq)
    # increments have the right variance scale
    assert ens.dw.std() == pytest.approx(math.sqrt(ens.grid.dt), rel=0.1)


def test_ensemble_path_count_is_the_rows_of_its_draws():
    ens = sample_paths(30, seed=5, mode="P", drift_fn=zero_drift(grid(20)))
    assert ens.n_paths == 30
    assert dataclasses.replace(ens, draws=ens.draws[:7]).n_paths == 7
    for draws in (ens.draws[:, :-1], ens.draws[0]):  # width N only
        with pytest.raises(ValueError):
            dataclasses.replace(ens, draws=draws)


def test_reproducibility_bit_identical():
    b0 = zero_drift(grid(50))
    a = sample_paths(100, seed=11, mode="P", drift_fn=b0)
    b = sample_paths(100, seed=11, mode="P", drift_fn=b0)
    assert np.array_equal(a.dw, b.dw)
    c = sample_paths(100, seed=12, mode="P", drift_fn=b0)
    assert not np.array_equal(a.dw, c.dw)


def test_draws_split_into_blocks_and_paths_into_prefixes():
    # the stream rejects some normals, so a path's counters depend on the
    # paths before it; sequential blocks still give the bits of one call,
    # and the first k paths do not depend on M
    b0 = zero_drift(grid(50))
    whole = sample_paths(300, seed=11, mode="P", drift_fn=b0).draws
    assert whole[:100].tobytes() == sample_paths(
        100, seed=11, mode="P", drift_fn=b0).draws.tobytes()
    rng = np.random.Generator(np.random.Philox(key=11))
    blocks = np.concatenate([rng.standard_normal((k, 50))
                             for k in (1, 99, 200)])
    assert (blocks * math.sqrt(b0.grid.dt)).tobytes() == whole.tobytes()


def test_mean_weight_is_one():
    g = grid(100)
    b = tilt(Uniform(1.0), 1.0, g)
    ens = sample_paths(100_000, seed=3, mode="P", drift_fn=b)
    m = ens.weights.mean()
    se = ens.weights.std(ddof=1) / math.sqrt(ens.n_paths)
    assert abs(m - 1.0) < 3 * se


def test_mode_q_shifts_mean():
    # constant drift gamma: E^Q[W(T)] = gamma * T (left-point sum is exact
    # for a constant integrand)
    g = grid(100)
    gamma = 0.8
    b = tilt(DiracAt(1.0, 0.0), gamma, g)
    ens = sample_paths(100_000, seed=5, mode="Q", drift_fn=b)
    (est,), (se,) = expect_all(ens, ens.states()[-1:])
    # b(T) = 0 under the half-open mass but the left-point sum never reads
    # it, so the accumulated drift is exactly gamma * T
    assert abs(est - gamma) < 3 * se
    (var_est,), (var_se,) = expect_all(ens, ens.wq.T[-1:] ** 2)
    assert abs(var_est - 1.0) < 3 * var_se


def test_mode_p_reweighted_mean_matches_shift():
    g = grid(100)
    gamma = 0.6
    b = tilt(DiracAt(1.0, 0.0), gamma, g)
    ens = sample_paths(100_000, seed=9, mode="P", drift_fn=b)
    (est,), (se,) = expect_all(ens, ens.states()[-1:])
    assert abs(est - gamma) < 3 * se


def test_cross_mode_agreement():
    g = grid(100)
    b = tilt(Uniform(1.0), 1.0, g)
    fns = {
        "WT": lambda e: e.w[:, -1],
        "expWT": lambda e: np.exp(e.w[:, -1]),
        "maxW": lambda e: e.w.max(axis=1),
    }
    ens_p = sample_paths(100_000, seed=21, mode="P", drift_fn=b)
    ens_q = sample_paths(100_000, seed=22, mode="Q", drift_fn=b)
    for name, fn in fns.items():
        (ep,), (sp,) = expect_all(ens_p, fn(ens_p)[None])
        (eq,), (sq,) = expect_all(ens_q, fn(ens_q)[None])
        assert abs(ep - eq) < 3 * math.hypot(sp, sq), name


def test_expect_q_constant_functional():
    ens = sample_paths(50, seed=1, mode="Q", drift_fn=zero_drift(grid(20)))
    est, se = expect_all(ens, np.ones((1, ens.n_paths)))
    assert est.tolist() == [1.0]
    assert se.tolist() == [0.0]


def test_weighted_standard_error_formula():
    g = grid(20)
    b = tilt(DiracAt(1.0, 0.0), 0.5, g)
    ens = sample_paths(5000, seed=2, mode="P", drift_fn=b)
    x = ens.w[:, -1]
    (est,), (se,) = expect_all(ens, x[None])
    w = ens.weights
    want_est = (w * x).sum() / w.sum()
    want_se = np.sqrt(((w * (x - want_est)) ** 2).sum()) / w.sum()
    assert est == pytest.approx(want_est)
    assert se == pytest.approx(want_se)


def test_expect_q_columns_match_expect_q():
    # stacked rows against one single-row call per row: mode Q reduces
    # each row on its own, mode P sums by GEMV, whose bits depend on the
    # rows beside it
    g = grid(20)
    b = tilt(DiracAt(1.0, 0.0), 0.5, g)
    for mode in ("P", "Q"):
        ens = sample_paths(3000, seed=6, mode=mode, drift_fn=b)
        values = np.exp(ens.states())
        est, se = expect_all(ens, values)
        want = np.array([np.concatenate(expect_all(ens, values[[i]]))
                         for i in range(g.n + 1)])
        if mode == "Q":
            assert np.array_equal(est, want[:, 0])
            assert np.array_equal(se, want[:, 1])
        else:
            assert np.allclose(est, want[:, 0], rtol=1e-13, atol=0.0)
            assert np.allclose(se, want[:, 1], rtol=1e-11, atol=1e-15)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("mode", ["P", "Q"])
def test_expect_q_columns_match_numpy_reductions(mode, order):
    # the estimates are numpy's reductions of the contiguous rows of
    # values, bit for bit, in either memory order, and values is not
    # written even when its rows are contiguous
    g = grid(20)
    b = tilt(DiracAt(1.0, 0.0), 0.5, g)
    ens = sample_paths(3001, seed=6, mode=mode, drift_fn=b)
    values = np.array(np.exp(ens.states()), order=order)
    before = values.copy()
    est, se = expect_all(ens, values)
    assert np.array_equal(values, before)
    x = np.ascontiguousarray(values)
    if mode == "Q":
        want = x.mean(axis=1), x.std(axis=1, ddof=1) / math.sqrt(3001)
    else:
        w = ens.weights
        mean = (x @ w) / w.sum()
        want = mean, np.sqrt((((x - mean[:, None]) * w) ** 2).sum(axis=1)) \
            / w.sum()
    assert est.tobytes() == want[0].tobytes()
    assert se.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("mode", ["P", "Q"])
def test_expect_q_columns_of_a_node_major_table_make_no_copy(mode):
    # contiguous node-major rows, as every caller's are: the rows are
    # reduced where they lie, and the deviations take one row at a time,
    # so the traced peak is one row of M floats, the K estimates and sums
    # and the arrays' Python objects (4 KiB), where a copy would be the
    # whole (K, M) table
    g = grid(40)
    ens = sample_paths(20_000, 3, mode, tilt(DiracAt(1.0, 0.0), 0.5, g))
    values = np.exp(ens.states())
    tracemalloc.start()
    try:
        expect_all(ens, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * ens.n_paths + 4 * 8 * (g.n + 1) + 4096


@pytest.mark.parametrize("mode", ["P", "Q"])
def test_expect_q_blocks_merge_blocks_in_any_order(mode):
    # blocks of 700, 1348, 1, 1951 and 1000 paths, contiguous copies or
    # strided views of the node-major table, in three orders, merge to
    # the one-block estimates within
    # bounds fixed before measuring: 1e-13 relative for the means and
    # 1e-11 for the SEs.  Column 0, exp(W(t_0)) = 1 on every path, is
    # constant: its SE is exactly 0 under Q, and under P at the rounding
    # of its mean, never NaN (the suite turns sqrt's warning into a
    # failure): a merged sum of squares rounded below 0 reads 0
    g = grid(20)
    ens = sample_paths(5000, 6, mode, tilt(DiracAt(1.0, 0.0), 0.5, g))
    table = np.exp(ens.states())
    est_one, se_one = expect_all(ens, table)
    bounds = [0, 700, 2048, 2049, 4000, 5000]
    parts = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    shuffled = [parts[i] for i in np.random.default_rng(3).permutation(5)]
    for order in (parts, parts[::-1], shuffled):
        for block in (lambda p: np.array(table[:, p]),
                      lambda p: table[:, p]):
            est, se = expect_q_blocks(
                ens, ((p, block(p)) for p in order))
            assert np.allclose(est, est_one, rtol=1e-13, atol=0.0)
            assert np.allclose(se[1:], se_one[1:], rtol=1e-11, atol=0.0)
            if mode == "Q":
                assert se[0] == se_one[0] == 0.0
            else:
                assert 0.0 <= se[0] <= 1e-15 and 0.0 <= se_one[0] <= 1e-15


@pytest.mark.parametrize("mode", ["P", "Q"])
def test_expect_q_blocks_refuses_a_block_laid_out_by_path(mode):
    # a block's rows must be one value per path of the block: a
    # path-major (m, K) block, a row of another block's length and a
    # bare vector are refused, not reduced along the wrong axis
    g = grid(20)
    ens = sample_paths(50, 4, mode, tilt(DiracAt(1.0, 0.0), 0.5, g))
    table = np.exp(ens.states())
    for part, values in [(slice(None), table.T), (slice(0, 20), table[:, :30]),
                         (slice(20, None), table[0, 20:])]:
        with pytest.raises(ValueError, match=r"expected \(K, m\)"):
            expect_q_blocks(ens, [(part, values)])
    expect_q_blocks(ens, [(slice(0, 20), table[:, :20]),
                          (slice(20, None), table[:, 20:])])


def test_degenerate_weights_raises():
    # a strong tilt: every weight is positive, but a few paths carry the
    # ensemble, so sample_paths refuses it by its effective sample size
    g = grid(20)
    b = tilt(DiracAt(1.0, 0.0), 8.0, g)
    weights = reference_paths(g, 50, 4, "P", b)[3]
    assert np.all(weights > 0.0)
    assert weights.sum() / weights.max() < 10.0
    with pytest.raises(DegenerateWeights,
                       match=r"^effective sample size \d+\.\d\d below 10\.0$"):
        sample_paths(50, seed=4, mode="P", drift_fn=b)


def test_unknown_mode_raises():
    with pytest.raises(ValueError, match="unknown measure tag 'R'"):
        sample_paths(50, seed=4, mode="R", drift_fn=zero_drift(grid(20)))


def test_report_statistics():
    b = tilt(Uniform(1.0), 1.0, grid(100))
    rows = girsanov_report(b, 20_000, seed=14)
    stats = {name: (v, s) for name, v, s in rows}
    assert set(stats) == {"mean_weight", "mean_WQ_T", "crosscheck_gap"}
    v, s = stats["mean_weight"]
    assert abs(v - 1.0) < 3 * s
    v, s = stats["mean_WQ_T"]
    assert abs(v) < 3 * s
    v, s = stats["crosscheck_gap"]
    assert v < 3 * s


def reference_report(b, n_paths, seed):
    """girsanov_report as it was with two draws of the stream, one per
    leg, each leg's W(T) read from its own path tables."""
    ens_p = sample_paths(n_paths, seed, "P", b)
    ens_q = sample_paths(n_paths, seed, "Q", b)
    wts = ens_p.weights
    mean_w = (float(wts.mean()),
              float(wts.std(ddof=1) / math.sqrt(n_paths)))
    (wq_est,), (wq_se,) = expect_all(ens_q, ens_q.wq.T[-1:])
    (est_p,), (se_p,) = expect_all(ens_p, np.exp(ens_p.states()[-1:]))
    (est_q,), (se_q,) = expect_all(ens_q, np.exp(ens_q.states()[-1:]))
    return [
        ("mean_weight", mean_w[0], mean_w[1]),
        ("mean_WQ_T", float(wq_est), float(wq_se)),
        ("crosscheck_gap", float(abs(est_p - est_q)), math.hypot(se_p, se_q)),
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_report_equals_two_draw_reference(seed):
    b = tilt(Uniform(1.0), 0.8, grid(40))
    assert np.any(b.values != 0.0)
    assert girsanov_report(b, 3000, seed) == reference_report(b, 3000, seed)


def test_report_draws_the_stream_once(monkeypatch):
    calls, reads = [], []
    real_sample_paths = girsanov.sample_paths

    def counting_sample_paths(*args, **kwargs):
        calls.append(args)
        return real_sample_paths(*args, **kwargs)

    def counting(name):
        real = getattr(PathEnsemble, name)
        fget = real.fget if isinstance(real, property) else real

        def read(ensemble, *args):
            reads.append((name, *args))
            return fget(ensemble, *args)
        return property(read) if isinstance(real, property) else read

    monkeypatch.setattr(girsanov, "sample_paths", counting_sample_paths)
    for name in ("dw", "w", "wq", "states", "end_states"):
        monkeypatch.setattr(PathEnsemble, name, counting(name))
    girsanov_report(tilt(Uniform(1.0), 0.8, grid(40)), 500, seed=3)
    assert len(calls) == 1
    # no W table: W(T) of every path alone, read once for both legs
    assert reads == [("end_states", slice(None))]


def test_report_takes_its_statistics_from_expect_q_columns(monkeypatch):
    # the Q leg's three rows in one call, the P leg's one in another, each
    # the one block of every path
    calls = []
    real = girsanov.expect_q_blocks

    def counting(ensemble, blocks):
        blocks = list(blocks)
        calls.append((ensemble.tag, [(p, v.shape) for p, v in blocks]))
        return real(ensemble, blocks)

    monkeypatch.setattr(girsanov, "expect_q_blocks", counting)
    girsanov_report(tilt(Uniform(1.0), 0.8, grid(40)), 500, seed=3)
    assert calls == [("Q", [(slice(None), (3, 500))]),
                     ("P", [(slice(None), (1, 500))])]


@pytest.mark.parametrize("g_value", [0.0, 0.6])
@pytest.mark.parametrize("mode", ["P", "Q"])
def test_node_major_paths_match_the_path_major_table_bitwise(mode, g_value):
    # W^T is one cumsum along the nodes plus the drift's cumulative per
    # row: the sequential sums of the path-major table, bit for bit, in
    # contiguous node rows; w is its transpose, which cannot be written
    # into, and end_states of every path, formed without it, its last row
    g = grid(37)
    ens = sample_paths(501, 13, mode, tilt(Uniform(1.0), g_value, g))
    w = reference_paths(g, 501, 13, mode, ens.drift_fn)[1]
    wt = ens.states()
    assert wt.shape == (38, 501) and wt.flags.c_contiguous
    assert wt.tobytes() == np.ascontiguousarray(w.T).tobytes()
    assert ens.w.T.flags.c_contiguous and ens.w[:, -1].flags.c_contiguous
    assert ens.w.T.tobytes() == wt.tobytes()
    assert ens.end_states(slice(None)).tobytes() == wt[-1].tobytes()
    with pytest.raises(ValueError):
        ens.w.T[0, 0] = 1.0


@pytest.mark.parametrize("mode", ["P", "Q"])
def test_running_row_adds_are_the_cumsum_bitwise(mode):
    # W^T and W^Q add the draws' columns into successive node rows: the
    # bits of numpy's cumsum of the draws along the nodes, then the
    # drift's cumulative per row; states forms the same columns on two
    # blocks of paths, the second into a buffer of its own
    g = grid(37)
    ens = sample_paths(2049, 17, mode, tilt(Uniform(1.0), 0.6, g))
    sums = np.zeros((g.n + 1, ens.n_paths))
    np.cumsum(ens.draws.T, axis=0, out=sums[1:])
    drift_rows = ens.drift_fn.cumulative()[:, None]
    want_w = sums + drift_rows if mode == "Q" else sums
    want_wq = sums - drift_rows if mode == "P" else sums
    assert ens.states().tobytes() == want_w.tobytes()
    assert np.ascontiguousarray(ens.wq.T).tobytes() == want_wq.tobytes()
    out = np.empty((g.n + 1, 1025))
    blocks = [ens.states(slice(0, 1024)), ens.states(slice(1024, None), out)]
    assert blocks[1] is out
    assert np.concatenate(blocks, axis=1).tobytes() == want_w.tobytes()


def reference_paths(grid, n_paths, seed, mode, drift_fn):
    """(dw, w, wq, weights) as sample_paths built and held all four when
    the ensemble kept three path tables."""
    n, dt = grid.n, grid.dt
    rng = np.random.Generator(np.random.Philox(key=seed))
    xi = rng.standard_normal((n_paths, n)) * math.sqrt(dt)
    b = drift_fn.values
    b_left = b[:n]
    drift_cum = np.concatenate([[0.0], np.cumsum(b[:-1] * dt)])
    zeros_col = np.zeros((n_paths, 1))
    if mode == "P":
        dw = xi
        w = np.hstack([zeros_col, np.cumsum(xi, axis=1)])
        wq = w - drift_cum[None, :]
        weights = np.exp(xi @ b_left - 0.5 * dt * float(b_left @ b_left))
    else:
        wq = np.hstack([zeros_col, np.cumsum(xi, axis=1)])
        w = wq + drift_cum[None, :]
        dw = xi + b_left[None, :] * dt
        weights = np.ones(n_paths)
    return dw, w, wq, weights


@pytest.mark.parametrize("g_value", [0.0, 0.6])
@pytest.mark.parametrize("mode", ["P", "Q"])
def test_derived_paths_match_three_table_ensemble_bitwise(mode, g_value):
    # with a zero drift and with a drift
    g = grid(37)
    drift_fn = tilt(Uniform(1.0), g_value, g)
    ens = sample_paths(501, 13, mode, drift_fn)
    want = reference_paths(g, 501, 13, mode, drift_fn)
    got = (ens.dw, ens.w, ens.wq, ens.weights)
    for name, a, ref in zip(("dw", "w", "wq", "weights"), got, want):
        assert a.shape == ref.shape, name
        assert a.tobytes() == ref.tobytes(), name
    # one table is held, and the derived ones cannot be written into
    assert ens.draws.shape == (501, 37)
    for a in got[:3]:
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
