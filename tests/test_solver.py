"""Explicit formulas for Y, U, Z plus norm and smoothness diagnostics.

Closed forms used as oracles:
  * f0 == 1, Phi == 0.5 constant, T=1:  Y(t) = exp(0.5 (1-t));
  * phi == 1 (so F = W(T)), Phi == c:   Z(t,s) = exp(c (T-s)),
    D_sY(r) = exp(c (T-r)), and with g == 0, Y(t) = W(t) exp(c (T-t));
  * Z(t,s) = t s:  double integral of (dZ/dt)^2 over the triangle = T^4/4.
"""

import dataclasses
import math

import numpy as np
import pytest

from bsvielab.girsanov import drift, sample_paths
from bsvielab.kernels import GridMismatch, TriangularGrid, build_phi, \
    constant_kernel, resolvent, tail_weight_matrix, trapezoid_weights, \
    zero_kernel
from bsvielab.measures import DiracAt, Uniform
from bsvielab.solver import NormReport, SolutionField, compute_U, norms, \
    smoothness_diagnostics, solve_Y, solve_Z
from bsvielab.terminal import Deterministic, GaussianLinear, make_f0, \
    make_h, make_phi

T = 1.0


def setup_reduced(c, n, measure=None, g_value=0.0):
    g = TriangularGrid(T, n)
    m = measure if measure is not None else DiracAt(T, 0.0)
    spec = constant_kernel(c, g_value=g_value)
    phi = build_phi(m, spec, g)
    psi = resolvent(phi, tol=1e-12)
    return g, m, spec, phi, psi


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
    fld = solve_Y(fam, psi, None, g)
    want = np.exp(0.5 * (1.0 - g.nodes))
    assert np.abs(fld.y - want).max() < 5e-5
    assert fld.y[0] == pytest.approx(math.exp(0.5), abs=1e-4)
    assert not fld.stochastic


def test_solve_Y_zero_kernel_is_conditional_F():
    g = TriangularGrid(T, 50)
    phi = build_phi(DiracAt(T, 0.0), zero_kernel(), g)
    psi = resolvent(phi, tol=1e-12)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(g, 200, 7, "Q")
    fld = solve_Y(fam, psi, None, g, ens)
    # E[W(T) | F_t] = W(t) path by path
    assert np.abs(fld.y - ens.w).max() < 1e-12
    assert fld.y_se is not None


def test_solve_Y_with_drift_shifts_conditional():
    gamma = 0.4
    g, m, spec, phi, psi = setup_reduced(0.0, 50, g_value=gamma)
    b = drift(m, spec, g)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(g, 100, 3, "Q", b)
    fld = solve_Y(fam, psi, b, g, ens)
    want = ens.w + gamma * (T - g.nodes)[None, :]
    assert np.abs(fld.y - want).max() < 1e-12


def test_solve_Y_grid_mismatch():
    g, m, spec, phi, psi = setup_reduced(0.5, 50)
    fam = Deterministic(f0=make_f0("constant"))
    with pytest.raises(GridMismatch):
        solve_Y(fam, psi, None, TriangularGrid(T, 60))


def test_solve_Y_stochastic_needs_ensemble():
    g, m, spec, phi, psi = setup_reduced(0.5, 20)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    with pytest.raises(ValueError):
        solve_Y(fam, psi, None, g)


def test_compute_U_deterministic_residual_small():
    g, m, spec, phi, psi = setup_reduced(0.5, 200)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    fld = solve_Y(fam, psi, None, g)
    u = compute_U(fam, fld, m, spec, g)
    assert np.abs(u).max() < 1e-4  # c * dt^2 scale


def test_compute_U_martingale_increment():
    # G == 0, F = W(T), b == 0: U(t) = W(T) - W(t) exactly
    g = TriangularGrid(T, 40)
    m = DiracAt(T, 0.0)
    spec = zero_kernel()
    phi = build_phi(m, spec, g)
    psi = resolvent(phi, tol=1e-12)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(g, 64, 9, "P")
    fld = solve_Y(fam, psi, None, g, ens)
    u = compute_U(fam, fld, m, spec, g)
    want = ens.w[:, -1][:, None] - ens.w
    assert np.abs(u - want).max() < 1e-12


def test_zero_family_zero_everything():
    g, m, spec, phi, psi = setup_reduced(0.7, 50)
    fam = Deterministic(f0=make_f0("zero"))
    fld = solve_Y(fam, psi, None, g)
    assert np.all(fld.y == 0.0)
    assert np.all(compute_U(fam, fld, m, spec, g) == 0.0)


def test_solve_Z_martingale_representation_of_WT():
    g = TriangularGrid(T, 30)
    phi = build_phi(DiracAt(T, 0.0), zero_kernel(), g)
    psi = resolvent(phi, tol=1e-12)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    z = solve_Z(fam, phi, psi, None, g)
    tri = np.triu(np.ones_like(z, dtype=bool))
    assert np.abs(z[tri] - 1.0).max() < 1e-12
    assert np.all(z[~tri] == 0.0)


def test_solve_Z_deterministic_zero_surface():
    g, m, spec, phi, psi = setup_reduced(0.5, 20)
    z = solve_Z(Deterministic(f0=make_f0("constant")), phi, psi, None, g)
    assert np.all(z == 0.0)


def test_solve_Z_constant_kernel_closed_form():
    c = 0.3
    g, m, spec, phi, psi = setup_reduced(c, 200)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    z = solve_Z(fam, phi, psi, None, g)
    tt, ss = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    want = np.where(tt <= ss, np.exp(c * (T - ss)), 0.0)
    assert np.abs(z - want).max() < 1e-4


def test_solve_Z_terminal_function_matches_gaussian_linear():
    # affine h with slope 1 is the same functional as phi == 1
    c = 0.3
    g, m, spec, phi, psi = setup_reduced(c, 40)
    z_gl = solve_Z(GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant")),
                   phi, psi, None, g)
    z_tf = solve_Z(make_h("affine", intercept=0.0, slope=1.0),
                   phi, psi, None, g)
    assert np.abs(z_gl - z_tf).max() < 1e-10


def test_t_dependent_branches_match_shared_quadrature():
    # h(t, x) = x^2 ignores t, so the per-t quadratures of the
    # t_dependent branches must reproduce the shared ones
    g, m, spec, phi, psi = setup_reduced(0.3, 12, Uniform(T), g_value=0.2)
    b = drift(m, spec, g)
    ens = sample_paths(g, 200, 5, "Q", b)
    shared = make_h("square")
    per_t = dataclasses.replace(shared, t_dependent=True)
    y_gap = np.abs(solve_Y(per_t, psi, b, g, ens).y
                   - solve_Y(shared, psi, b, g, ens).y).max()
    z_gap = np.abs(solve_Z(per_t, phi, psi, b, g)
                   - solve_Z(shared, phi, psi, b, g)).max()
    assert y_gap < 1e-12
    assert z_gap < 1e-12


def test_ito_isometry():
    c = 0.3
    g, m, spec, phi, psi = setup_reduced(c, 50)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(g, 20_000, 17, "Q")
    fld = solve_Y(fam, psi, None, g, ens)
    u = compute_U(fam, fld, m, spec, g)
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
    ens = sample_paths(g, 100, 21, "P")
    fld = solve_Y(fam, psi, None, g, ens)
    want = ens.w * np.exp(c * (T - g.nodes))[None, :]
    assert np.abs(fld.y - want).max() < 1e-3


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


def test_smoothness_grid_stability():
    c = 0.3
    flat, vals = [], []
    for n in (100, 200):
        g, m, spec, phi, psi = setup_reduced(c, n)
        z1 = solve_Z(GaussianLinear(f0=make_f0("zero"),
                                    phi=make_phi("constant")), phi, psi, None, g)
        flat.append(smoothness_diagnostics(z1, g).integral)
        z2 = solve_Z(GaussianLinear(f0=make_f0("zero"),
                                    phi=make_phi("bilinear")), phi, psi, None, g)
        vals.append(smoothness_diagnostics(z2, g).integral)
    # phi == 1 gives a t-independent surface: the integral is exactly 0
    assert flat == [0.0, 0.0]
    # the bilinear kernel has real t-dependence; value stable under doubling
    assert vals[0] > 0.0
    assert abs(vals[1] - vals[0]) < 0.02 * abs(vals[0])


def test_norms_constant_profile():
    g = TriangularGrid(T, 100)
    fld = SolutionField(g, Deterministic(f0=make_f0("constant")),
                        np.ones(101))
    rep = norms(fld, beta=0.0)
    assert rep.h1 == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert rep.s2 == pytest.approx(1.0)
    assert rep.h2 == 0.0


def test_norms_exponential_profile_sup():
    g, m, spec, phi, psi = setup_reduced(0.5, 200)
    fam = Deterministic(f0=make_f0("constant", value=1.0))
    fld = solve_Y(fam, psi, None, g)
    rep = norms(fld, beta=0.0)
    assert rep.s2 == pytest.approx(math.e, abs=1e-3)


def test_norms_with_positive_beta():
    g = TriangularGrid(T, 200)
    fld = SolutionField(g, Deterministic(f0=make_f0("constant")),
                        np.ones(201))
    beta = 1.3
    rep = norms(fld, beta=beta)
    # int_{-T}^0 e^{bs} ds + int_0^T e^{bs} ds = (e^{bT} - e^{-bT})/b
    want = (math.exp(beta * T) - math.exp(-beta * T)) / beta
    assert rep.h1**2 == pytest.approx(want, rel=1e-4)
    assert rep.s2 == pytest.approx(math.exp(beta * T), rel=1e-12)


def test_norms_of_z_surface():
    g = TriangularGrid(T, 100)
    fam = GaussianLinear(f0=make_f0("zero"), phi=make_phi("constant"))
    ens = sample_paths(g, 50, 2, "P")
    phi = build_phi(DiracAt(T, 0.0), zero_kernel(), g)
    psi = resolvent(phi, tol=1e-12)
    fld = solve_Y(fam, psi, None, g, ens)
    fld.z = solve_Z(fam, phi, psi, None, g)
    rep = norms(fld, beta=0.0)
    # Z == 1 on the triangle: integral = T^2/2
    assert rep.h2 == pytest.approx(math.sqrt(0.5), rel=1e-6)
