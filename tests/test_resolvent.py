"""The resolvent solve against its own identity, against the Neumann
series it replaces, and the order of accuracy of the routes that use it.

The series Phi + Phi o Phi + ... built from volterra_compose is kept here
as the oracle: it is how the paper writes Psi, and its limit is what
kernels.resolvent solves for in one step.  That step is a column-blocked
triangular substitution; one dense np.linalg.solve of the whole system
is its reference here.
"""

import importlib.util
import pathlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsvielab.kernels import RESOLVENT_BLOCK, DelayedGenerator, \
    KernelTable, ResolventTable, TriangularGrid, build_phi, \
    constant_kernel, example33_kernel, identity_residual, implicit_factors, \
    poly_exp_kernel, resolvent, volterra_compose
from bsvielab.measures import Atoms, DiracAt, Uniform

_LADDER_PATH = pathlib.Path(__file__).parents[1] / "tools" / "order_ladder.py"
_spec = importlib.util.spec_from_file_location("order_ladder", _LADDER_PATH)
order_ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(order_ladder)


def neumann_series(phi: KernelTable, max_orders: int = 400) -> np.ndarray:
    """Sum Phi^(n) = Phi^(n-1) o Phi until a term stops adding bits."""
    psi = phi.values.copy()
    term = phi
    for _ in range(max_orders - 1):
        term = volterra_compose(term, phi)
        psi = psi + term.values
        if term.sup_norm <= 1e-18 * np.abs(psi).max():
            return psi
    raise AssertionError(f"series not converged in {max_orders} orders")


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


@st.composite
def kernel_problems(draw):
    horizon = draw(st.sampled_from([0.5, 1.0, 2.0]))
    n = draw(st.integers(10, 80))
    kind = draw(st.sampled_from(["constant", "poly_exp", "example33"]))
    if kind == "constant":
        spec = constant_kernel(draw(st.floats(-3.0, 3.0)))
    elif kind == "poly_exp":
        spec = poly_exp_kernel(k=draw(st.integers(0, 2)),
                               lam=draw(st.floats(0.0, 3.0)),
                               scale=draw(st.floats(-3.0, 3.0)),
                               horizon=horizon)
    else:
        spec = example33_kernel()
    measure_kind = draw(st.sampled_from(["dirac", "uniform", "atoms"]))
    if measure_kind == "dirac":
        measure = DiracAt(horizon, -draw(st.floats(0.0, horizon)))
    elif measure_kind == "uniform":
        measure = Uniform(horizon)
    else:
        lags = draw(st.lists(st.floats(0.0, horizon), min_size=1, max_size=4))
        w = 1.0 / len(lags)
        measure = Atoms(horizon, tuple((-u, w) for u in lags))
    return build_phi(DelayedGenerator(measure, spec,
                                      TriangularGrid(horizon, n)))


@settings(max_examples=60, deadline=None)
@given(kernel_problems())
def test_resolvent_properties(phi):
    psi = resolvent(phi, 1e-10)
    sup = psi.sup_norm
    # Psi holds the Phi it was solved from, not a copy of it
    assert psi.phi is phi
    # the identity it solves holds to rounding, and the table reports it
    comp = volterra_compose(KernelTable(phi.grid, psi.values), phi)
    residual = float(np.abs(psi.values - phi.values - comp.values).max())
    assert identity_residual(psi) == residual
    assert residual <= 1e-14 * max(1.0, sup)
    # the triangle and the diagonal are exactly the series'
    assert np.all(np.tril(psi.values, -1) == 0.0)
    assert np.diag(psi.values).tobytes() == np.diag(phi.values).tobytes()
    # and so is everything else, to rounding
    assert relative_gap(psi.values, neumann_series(phi)) <= 1e-12


@pytest.mark.parametrize("name,measure,spec,horizon", [
    ("c=0.5", DiracAt(1.0, 0.0), constant_kernel(0.5), 1.0),
    ("c=3", DiracAt(1.0, 0.0), constant_kernel(3.0), 1.0),
    ("c=2,T=5", DiracAt(5.0, 0.0), constant_kernel(2.0), 5.0),
    ("example33-uniform", Uniform(1.0), example33_kernel(), 1.0),
])
def test_resolvent_matches_long_series(name, measure, spec, horizon):
    phi = build_phi(DelayedGenerator(measure, spec,
                                     TriangularGrid(horizon, 150)))
    psi = resolvent(phi, 1e-10)
    assert relative_gap(psi.values, neumann_series(phi)) <= 1e-12, name


def test_order_of_accuracy_gate():
    start = time.perf_counter()
    ns = (25, 50, 100, 200)
    table = order_ladder.ladder(ns)
    orders = {q: order_ladder.fitted_order(ns, errs)
              for q, errs in table.items()}
    elapsed = time.perf_counter() - start
    assert set(orders) == set(order_ladder.QUANTITIES)
    for q, p in orders.items():
        assert p >= 1.9, (q, p, table[q])
    assert elapsed < 1.0, elapsed


def dense_resolvent(phi: KernelTable) -> np.ndarray:
    """Psi by one dense np.linalg.solve of the whole triangular system, the
    reference the blocked substitution replaces."""
    p = phi.values
    denom = implicit_factors(phi)
    system = -phi.grid.dt * p
    np.fill_diagonal(system, denom)
    psi = np.triu(np.linalg.solve(system.T, (denom[:, None] * p).T).T)
    np.fill_diagonal(psi, np.diag(p))
    return psi


TABLE_KERNELS = {
    "smooth": lambda t, s: np.exp(t - s) * (1.0 + t),
    "oscillating": lambda t, s: np.cos(25.0 * (s - t) + 3.0 * t),
}


@pytest.mark.parametrize("c", [1.0, 35.0])
@pytest.mark.parametrize("kind", sorted(TABLE_KERNELS))
@pytest.mark.parametrize("nodes", [63, 64, 65, 129, 601])
def test_blocked_substitution_matches_dense_solve(nodes, kind, c):
    grid = TriangularGrid(1.0, nodes - 1)
    t = grid.nodes
    phi = KernelTable(grid, np.triu(c * TABLE_KERNELS[kind](
        t[:, None], t[None, :])))
    psi = resolvent(phi, 1e-10)
    ref = dense_resolvent(phi)
    if nodes <= RESOLVENT_BLOCK:
        assert psi.values.tobytes() == ref.tobytes()
    sup = np.abs(ref).max()
    assert np.abs(psi.values - ref).max() <= 1e-14 * sup
    # both residuals are rounding noise of a few ulps of sup|Psi|, and
    # their maxima differ by up to ~2.3x between equally stable
    # substitution orders; the reference is floored at 4 ulps
    ref_residual = identity_residual(
        ResolventTable(grid, ref, phi, psi.n_star, psi.tail_bound))
    floor = 4.0 * np.finfo(float).eps * sup
    assert identity_residual(psi) <= 2.0 * max(ref_residual, floor)


def test_resolvent_solves_no_full_size_system(monkeypatch):
    grid = TriangularGrid(1.0, 600)
    phi = KernelTable(grid, np.triu(np.ones((601, 601))))
    shapes = []
    solve = np.linalg.solve

    def counted(a, b):
        shapes.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    resolvent(phi, 1e-10)
    assert shapes and all(max(s) < 601 for s in shapes)
