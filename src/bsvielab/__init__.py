"""Numerical laboratory for linear backward stochastic Volterra integral
equations whose generators read the solution through a delay measure.

The pieces compose in the order an experiment runs them: a delay measure
and kernel pair collapse into the reduced kernel and its resolvent
(:mod:`bsvielab.kernels`), the measure and g induce the change of drift
(:mod:`bsvielab.girsanov`), terminal families supply free terms and
their conditional expectations (:mod:`bsvielab.terminal`), the explicit
solver evaluates the resolvent formula for (Y, Z) and the solution norms
(:mod:`bsvielab.solver`), and independent oracles re-solve both the
reduced and the genuinely delayed equations (:mod:`bsvielab.oracles`).
The command-line harness (:mod:`bsvielab.cli`) wires configs from
:mod:`bsvielab.config` through all of it into CSV reports.
"""

import types

from .config import ConfigError, ExperimentConfig, load_config, \
    load_config_file
from .girsanov import DegenerateWeights, DriftFunction, PathEnsemble, \
    drift, expect_q_columns, girsanov_report, sample_paths
from .kernels import DelayOperator, DelayedGenerator, GridMismatch, \
    HorizonMismatch, KernelSpec, KernelTable, ResolventTable, SingularStep, \
    ToleranceUnreachable, TriangularGrid, build_phi, constant_kernel, \
    example33_kernel, example33_reference, identity_residual, \
    iterated_sup_bound, poly_exp_kernel, resolvent, same_grid, sharp_tail, \
    volterra_compose
from .measures import Atoms, DelayMeasure, DiracAt, DomainError, MassError, \
    Mixture, SupportError, Uniform
from .oracles import LsmcResult, PicardDiverged, PicardFailed, PicardResult, \
    PicardStalled, RegressionIllConditioned, build_delayed_operator, \
    residual_delayed, residual_reduced, residual_reduced_pathwise, \
    solve_delayed_lsmc, solve_delayed_picard, solve_reduced_collocation
from .solver import NormReport, SmoothnessReport, UnsupportedFamily, \
    mean_Y, norms, smoothness_diagnostics, solve_Y, solve_Z
from .terminal import Deterministic, GaussianLinear, QuadratureError, \
    TerminalFunction, UnknownParameter, evaluate_F_table, \
    gauss_hermite_mean, make_f0, make_h, make_phi, malliavin_table, \
    mean_profile

# every name imported above, once
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, types.ModuleType))
