"""Delay measures: interval masses, validation on construction, quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsvielab.kernels import DelayedGenerator, KernelSpec, TriangularGrid, \
    lag_weights
from bsvielab.measures import (
    Atoms,
    DiracAt,
    DomainError,
    MassError,
    Mixture,
    SupportError,
    Uniform,
    snap_lag,
)
from bsvielab.oracles import build_delayed_operator

T = 1.0


def test_dirac_masses():
    m = DiracAt(horizon=T, u0=-0.3)
    assert m.mass_closed(-0.3) == 1.0
    assert m.mass_closed(-0.2) == 0.0
    assert m.mass_closed(-1.0) == 1.0
    assert m.mass_left_open(-0.3) == 0.0
    assert m.mass_left_open(-0.4) == 1.0
    assert m.atoms == ((-0.3, 1.0),) and m.diffuse_mass == 0.0


def test_dirac_at_origin():
    m = DiracAt(horizon=T)
    assert m.mass_closed(0.0) == 1.0
    assert m.mass_left_open(0.0) == 0.0
    assert m.mass_left_open(-1e-9) == 1.0


def test_uniform_masses():
    m = Uniform(horizon=T)
    assert m.mass_closed(-T) == pytest.approx(1.0)
    assert m.mass_closed(0.0) == 0.0
    assert m.mass_closed(-0.25) == pytest.approx(0.25)
    # no atoms: open and closed agree
    assert m.mass_left_open(-0.25) == pytest.approx(0.25)
    assert m.atoms == () and m.diffuse_mass == 1.0


def test_atoms_masses_and_validation():
    m = Atoms(horizon=T, atoms=((-0.5, 0.25), (-0.1, 0.75)))
    assert m.mass_closed(-0.5) == pytest.approx(1.0)
    assert m.mass_closed(-0.3) == pytest.approx(0.75)
    assert m.mass_left_open(-0.1) == 0.0
    assert m.mass_left_open(-0.5) == pytest.approx(0.75)
    assert m.mass_left_open(-0.6) == pytest.approx(1.0)

    with pytest.raises(MassError):
        Atoms(horizon=T, atoms=((-0.5, 0.6), (-0.1, 0.6)))
    with pytest.raises(SupportError):
        Atoms(horizon=T, atoms=((-1.5, 1.0),))


def test_negative_weight_rejected():
    with pytest.raises(MassError):
        Atoms(horizon=T, atoms=((-0.5, 1.5), (-0.1, -0.5)))


# every other way to build an invalid measure (the atom tests above cover
# an atom outside [-T, 0], a negative weight and a total of 1.2)
NAN = float("nan")
INVALID = {
    "horizon-zero": (SupportError, lambda: Uniform(0.0)),
    "horizon-nan": (SupportError, lambda: Uniform(NAN)),
    "horizon-inf": (SupportError, lambda: Uniform(float("inf"))),
    "dirac-horizon-inf": (SupportError, lambda: DiracAt(float("inf"))),
    "atom-nan-location": (SupportError, lambda: Atoms(T, ((NAN, 1.0),))),
    "atom-nan-weight": (MassError, lambda: Atoms(T, ((-0.3, NAN),))),
    "mixture-horizon": (SupportError,
                        lambda: Mixture(T, ((Uniform(2.0), 1.0),))),
    "mixture-negative-weight": (MassError, lambda: Mixture(
        T, ((Uniform(T), 1.5), (DiracAt(T, -0.3), -0.5)))),
    "mixture-total": (MassError, lambda: Mixture(
        T, ((Uniform(T), 0.6), (DiracAt(T, -0.3), 0.6)))),
    "mixture-nan-weight": (MassError,
                           lambda: Mixture(T, ((Uniform(T), NAN),))),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_measure_raises_on_construction(case):
    error, build = INVALID[case]
    with pytest.raises(error):
        build()


def test_domain_checking():
    m = Uniform(horizon=T)
    with pytest.raises(DomainError):
        m.mass_closed(0.5)
    with pytest.raises(DomainError):
        m.mass_closed(-1.5)


# -- array queries ----------------------------------------------------------

# weights whose sum depends on the order of the additions
OFF_GRID_ATOMS = ((-0.013, 0.1), (-0.3717, 0.2), (-0.9001, 0.7))
ARRAY_CASES = {
    "dirac-0.3": DiracAt(T, -0.3),
    "dirac-0": DiracAt(T, 0.0),
    "uniform": Uniform(T),
    "off-grid-atoms": Atoms(T, OFF_GRID_ATOMS),
    "mixture": Mixture(T, ((Uniform(T), 0.6), (DiracAt(T, -0.25), 0.4))),
    "mixture-with-atoms": Mixture(T, ((Atoms(T, OFF_GRID_ATOMS), 0.3),
                                      (DiracAt(T, -0.3), 0.7))),
}


def reference_mass(m, a, closed):
    """Scalar mass by Python arithmetic: the uniform part, then the atoms
    left to right, a skipped atom adding 0.0."""
    mass = m.diffuse_mass * (-a / m.horizon)
    for u, w in m.atoms:
        mass += w if (u >= a if closed else u > a) else 0.0
    return mass


# The masses of the measure classes the value replaced, in their closed
# forms: one comparison giving 1.0 or 0.0, -a/T, and the atoms counted at
# a summed left to right.
OLD_CLOSED_FORMS = {
    "dirac-0.3": lambda a, closed: 1.0 if (-0.3 >= a if closed
                                           else -0.3 > a) else 0.0,
    "dirac-0": lambda a, closed: 1.0 if (0.0 >= a if closed
                                         else 0.0 > a) else 0.0,
    "uniform": lambda a, closed: -a / T,
    "off-grid-atoms": lambda a, closed: sum(
        w for u, w in OFF_GRID_ATOMS if (u >= a if closed else u > a)),
}


def grid_lags():
    """Lags s - T and s + u - T (clipped) over the nodes of an N = 20 grid,
    snapped, plus the off-grid atom positions themselves."""
    nodes = TriangularGrid(T, 20).nodes
    shifted = np.clip(nodes - 0.3717 - T, -T, 0.0)
    lags = snap_lag(np.concatenate([nodes - T, shifted]))
    return np.concatenate([lags, [u for u, _ in OFF_GRID_ATOMS]])


@pytest.mark.parametrize("case", sorted(ARRAY_CASES))
def test_array_query_equals_scalar_queries(case):
    m = ARRAY_CASES[case]
    lags = grid_lags()
    assert -0.3 in lags  # grid arithmetic gives -0.30000000000000004
    for closed, query in ((True, m.mass_closed), (False, m.mass_left_open)):
        got = query(lags)
        assert got.shape == lags.shape
        assert np.array_equal(got, [query(float(a)) for a in lags])
        assert np.array_equal(got, [reference_mass(m, float(a), closed)
                                    for a in lags])
        table = lags.reshape(3, -1)
        assert np.array_equal(query(table), got.reshape(3, -1))
        if case in OLD_CLOSED_FORMS:
            old = [OLD_CLOSED_FORMS[case](float(a), closed) for a in lags]
            assert np.array_equal(got, old)
            assert np.array_equal(np.signbit(got), np.signbit(old))


def test_snap_lag_arrays_match_scalars():
    lags = TriangularGrid(T, 20).nodes - T
    assert np.array_equal(snap_lag(lags), [snap_lag(float(a)) for a in lags])


@pytest.mark.parametrize("case", sorted(ARRAY_CASES))
@pytest.mark.parametrize("bad", [0.5, -1.5, np.nan])
def test_array_query_domain_checked(case, bad):
    m = ARRAY_CASES[case]
    lags = np.linspace(-T, 0.0, 7)
    lags[3] = bad
    for query in (m.mass_closed, m.mass_left_open):
        with pytest.raises(DomainError):
            query(lags)
        with pytest.raises(DomainError):
            query(bad)


def test_dirac_outside_support():
    with pytest.raises(SupportError):
        DiracAt(horizon=T, u0=-2.0)


def test_mixture_linearity():
    mix = Mixture(horizon=T, components=((DiracAt(T, 0.0), 0.4), (Uniform(T), 0.6)))
    assert mix.atoms == ((0.0, 0.4),) and mix.diffuse_mass == 0.6
    a = -0.25
    want = 0.4 * DiracAt(T, 0.0).mass_closed(a) + 0.6 * Uniform(T).mass_closed(a)
    assert mix.mass_closed(a) == pytest.approx(want)
    assert mix.mass_closed(0.0) - mix.mass_left_open(0.0) == pytest.approx(0.4)
    assert mix.mass_left_open(0.0) == 0.0


def test_quadrature_atoms_exact():
    m = Atoms(horizon=T, atoms=((-0.5, 0.25), (-0.1, 0.75)))
    u, w = np.array(m.atoms).T
    assert np.allclose(sorted(u), [-0.5, -0.1])
    assert w.sum() == pytest.approx(1.0)
    # the atoms reproduce the first moment exactly for purely atomic laws
    assert float(u @ w) == pytest.approx(-0.5 * 0.25 - 0.1 * 0.75)


def row_moments(m, grid):
    """Row sums of the delayed operator for G = 1, G = t and G = t^2, each
    divided by the trapezoid's exact int_{t_r}^T ds = T - t_r (rows
    t_r < T): the lag weights of row r against 1, t_r - t_k and
    (t_r - t_k)^2, that is alpha([-t_r, 0]), t_r alpha - (first moment)
    and the second moment about -t_r."""
    t = grid.nodes
    sums = [build_delayed_operator(DelayedGenerator(
        m, KernelSpec(G=lambda a, b, p=p: a**p + 0.0 * b), grid)).sum(axis=1)
        for p in (0, 1, 2)]
    return [s[:-1] / (T - t[:-1]) for s in sums]


def test_quadrature_uniform_moments():
    # the uniform part has no nodes of its own: the operator sums it over
    # the grid lags u = -t_k, a trapezoid over [-t_r, 0] in row r
    m = Uniform(horizon=T)
    assert m.atoms == () and m.diffuse_mass == 1.0
    grid = TriangularGrid(T, 64)
    assert lag_weights(m, grid) == ([], [])
    t = grid.nodes[:-1]
    mass, first, second = row_moments(m, grid)
    assert mass[0] == first[0] == second[0] == 0.0
    # row r holds alpha([-t_r, 0]) and its first moment exactly; the
    # trapezoid's error on u^2 is exactly t_r dt^2 / 6
    assert np.abs(mass - t / T).max() < 1e-15
    assert np.abs(first - t**2 / (2 * T)).max() < 1e-15
    want = (t**3 / 3 + t * grid.dt**2 / 6) / T
    assert np.abs(second - want).max() < 1e-15


def test_quadrature_mixture_concatenates():
    mix = Mixture(horizon=T, components=((DiracAt(T, -0.3), 0.5), (Uniform(T), 0.5)))
    assert mix.atoms == ((-0.3, 0.5),)
    assert mix.diffuse_mass == 0.5
    for n in (20, 7):
        grid = TriangularGrid(T, n)
        t = grid.nodes[:-1]
        atom = np.where(t >= 0.3 - 1e-12, 0.5, 0.0)
        mass, first, _ = row_moments(mix, grid)
        # every row t_r >= 0.3 reaches the atom: it adds 0.5 to the mass
        # and 0.5 (t_r - 0.3) to t_r alpha - (first moment); the atom's
        # block and the window sum round apart, so a row of N + 1 cells
        # is exact to some (N + 2) eps
        assert np.abs(mass - (0.5 * t / T + atom)).max() < 1e-14
        assert np.abs(first - (0.5 * t**2 / (2 * T)
                               + atom * (t - 0.3))).max() < 1e-14
    # an atom on a grid lag is handed out as that lag ...
    assert lag_weights(mix, TriangularGrid(T, 20)) == ([(6, 0.5)], [])
    # ... and one between lags with its exact node
    assert lag_weights(mix, TriangularGrid(T, 7)) == ([], [(-0.3, 0.5)])


# -- property tests ---------------------------------------------------------

coords = st.floats(min_value=-1.0, max_value=0.0, allow_nan=False)


@given(a=coords, b=coords)
@settings(max_examples=200, deadline=None)
def test_mass_monotone_decreasing_in_threshold(a, b):
    """mass_closed([a, 0]) grows as a moves left, for every variant."""
    lo, hi = min(a, b), max(a, b)
    for m in (
        DiracAt(T, -0.3),
        Uniform(T),
        Atoms(T, ((-0.7, 0.2), (-0.2, 0.8))),
        Mixture(T, ((DiracAt(T, 0.0), 0.5), (Uniform(T), 0.5))),
    ):
        assert m.mass_closed(lo) >= m.mass_closed(hi) - 1e-15


@given(a=coords)
@settings(max_examples=200, deadline=None)
def test_open_never_exceeds_closed(a):
    for m in (
        DiracAt(T, -0.25),
        Uniform(T),
        Atoms(T, ((-0.25, 0.5), (0.0, 0.5))),
    ):
        closed = m.mass_closed(a)
        opened = m.mass_left_open(a)
        assert opened <= closed + 1e-15
        at_a = sum(w for u, w in m.atoms if u == a)
        assert closed - opened == pytest.approx(at_a, abs=1e-12)


@given(a=coords, lam=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_mixture_mass_is_convex_combination(a, lam):
    m1 = DiracAt(T, -0.4)
    m2 = Uniform(T)
    mix = Mixture(T, ((m1, lam), (m2, 1.0 - lam)))
    want = lam * m1.mass_closed(a) + (1.0 - lam) * m2.mass_closed(a)
    assert mix.mass_closed(a) == pytest.approx(want, abs=1e-12)


@given(a=coords)
@settings(max_examples=100, deadline=None)
def test_total_mass_bounds(a):
    for m in (DiracAt(T, -0.3), Uniform(T)):
        v = m.mass_closed(a)
        assert -1e-15 <= v <= 1.0 + 1e-15
