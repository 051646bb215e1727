"""Experiment configuration: line-oriented key=value files with dotted
sections, resolved into the typed objects the solvers consume.

Example:

    horizon = 1.0
    grid.n = 200
    measure.kind = dirac
    measure.u0 = 0.0
    kernel.name = constant
    kernel.c = 0.5
    kernel.g = 0.0
    terminal.kind = deterministic
    terminal.f0 = constant
    terminal.f0.value = 1.0
    mc.paths = 20000
    mc.seed = 12345
    beta = 0.0

Unknown keys are rejected rather than ignored, so typos surface as
validation failures (exit code 2) instead of silently running a different
experiment.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .kernels import DelayedGenerator, KernelSpec, TriangularGrid, \
    constant_kernel, example33_kernel, poly_exp_kernel
from .measures import Atoms, DelayMeasure, DiracAt, Uniform
from .terminal import Deterministic, GaussianLinear, TerminalFamily, \
    UnknownParameter, make_f0, make_h, make_phi


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


@dataclass
class ExperimentConfig:
    generator: DelayedGenerator
    family: TerminalFamily
    n_paths: int
    seed: int
    mode: str
    resolvent_tol: float
    picard_tol: float
    quad_slack: float
    beta: float
    out_dir: str
    sha256: str


def parse_kv(text: str) -> dict[str, str]:
    """Flat dict from 'key = value' lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _take(kv: dict, key: str, default=None, required=False) -> str | None:
    if key in kv:
        return kv.pop(key)
    if required:
        raise ConfigError(f"missing required key {key!r}")
    return default


def _as_float(key: str, value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{key}: not a finite number: {value!r}")
    return x


def _as_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {value!r}") from None


def _build_measure(kv: dict, horizon: float) -> DelayMeasure:
    kind = _take(kv, "measure.kind", required=True)
    if kind == "dirac":
        make, args = DiracAt, (
            _as_float("measure.u0", _take(kv, "measure.u0", "0.0")),)
    elif kind == "uniform":
        make, args = Uniform, ()
    elif kind == "atoms":
        raw = _take(kv, "measure.atoms", required=True)
        pairs = []
        for chunk in raw.split(","):
            try:
                u, w = chunk.split(":")
            except ValueError:
                raise ConfigError(
                    f"measure.atoms: expected u:w pairs, got {chunk!r}"
                ) from None
            pairs.append((_as_float("measure.atoms", u),
                          _as_float("measure.atoms", w)))
        make, args = Atoms, (tuple(pairs),)
    else:
        raise ConfigError(f"measure.kind: unknown kind {kind!r}")
    try:
        return make(horizon, *args)
    except ValueError as exc:
        raise ConfigError(f"measure: {exc}") from exc


def _build_kernel(kv: dict, horizon: float) -> KernelSpec:
    name = _take(kv, "kernel.name", required=True)
    g_value = _as_float("kernel.g", _take(kv, "kernel.g", "0.0"))
    if name == "constant":
        c = _as_float("kernel.c", _take(kv, "kernel.c", "1.0"))
        return constant_kernel(c, g_value)
    if name == "poly_exp":
        k = _as_int("kernel.k", _take(kv, "kernel.k", "1"))
        if k < 0:
            raise ConfigError("kernel.k must be non-negative")
        lam = _as_float("kernel.lam", _take(kv, "kernel.lam", "1.0"))
        scale = _as_float("kernel.scale", _take(kv, "kernel.scale", "1.0"))
        try:
            return poly_exp_kernel(k, lam, scale, horizon, g_value)
        except ValueError as exc:
            raise ConfigError(f"kernel: {exc}") from exc
    if name == "example33":
        return example33_kernel(g_value)
    if name == "zero":
        return constant_kernel(0.0, g_value)
    raise ConfigError(f"kernel.name: unknown kernel {name!r}")


def _registry_entry(kv: dict, prefix: str, make, default=None):
    """make(name, **params) for the name under prefix and the parameters
    under prefix + '.'; a parameter the entry does not take is an error."""
    name = _take(kv, prefix, default, required=default is None)
    params = {key[len(prefix) + 1:]: _as_float(key, kv.pop(key))
              for key in [k for k in kv if k.startswith(prefix + ".")]}
    try:
        return make(name, **params)
    except KeyError as exc:
        raise ConfigError(f"terminal: unknown registry name {exc}") from exc
    except UnknownParameter as exc:
        raise ConfigError(f"{prefix}.{exc}: {prefix} = {name} takes no "
                          f"parameter {exc}") from exc


def _build_family(kv: dict) -> TerminalFamily:
    kind = _take(kv, "terminal.kind", "deterministic")
    if kind == "deterministic":
        return Deterministic(f0=_registry_entry(kv, "terminal.f0", make_f0,
                                                "constant"))
    if kind == "gaussian_linear":
        return GaussianLinear(
            f0=_registry_entry(kv, "terminal.f0", make_f0, "zero"),
            phi=_registry_entry(kv, "terminal.phi", make_phi, "constant"))
    if kind == "terminal_function":
        return _registry_entry(kv, "terminal.h", make_h)
    raise ConfigError(f"terminal.kind: unknown kind {kind!r}")


def load_config(text: str, seed_override: int | None = None,
                out_override: str | None = None) -> ExperimentConfig:
    sha = hashlib.sha256(text.encode()).hexdigest()
    kv = parse_kv(text)
    horizon = _as_float("horizon", _take(kv, "horizon", required=True))
    n = _as_int("grid.n", _take(kv, "grid.n", required=True))
    if horizon <= 0.0:
        raise ConfigError("horizon must be positive")
    if n < 2:
        raise ConfigError("grid.n must be at least 2")

    generator = DelayedGenerator(_build_measure(kv, horizon),
                                 _build_kernel(kv, horizon),
                                 TriangularGrid(horizon, n))
    family = _build_family(kv)

    n_paths = _as_int("mc.paths", _take(kv, "mc.paths", "10000"))
    seed = _as_int("mc.seed", _take(kv, "mc.seed", "12345"))
    mode = _take(kv, "mc.mode", "P")
    if mode not in ("P", "Q"):
        raise ConfigError(f"mc.mode must be P or Q, got {mode!r}")
    if n_paths < 1:
        raise ConfigError("mc.paths must be at least 1")

    resolvent_tol = _as_float("tolerances.resolvent",
                              _take(kv, "tolerances.resolvent", "1e-10"))
    picard_tol = _as_float("tolerances.picard",
                           _take(kv, "tolerances.picard", "1e-10"))
    quad_slack = _as_float("tolerances.quad_slack",
                           _take(kv, "tolerances.quad_slack", "10.0"))
    beta = _as_float("beta", _take(kv, "beta", "0.0"))
    try:  # the norm weights reach exp(|beta| T)
        math.exp(abs(beta) * horizon)
    except OverflowError:
        raise ConfigError(f"beta: exp(|beta| * horizon) overflows "
                          f"(beta={beta}, horizon={horizon})") from None
    out_dir = _take(kv, "output", "out")

    if kv:
        raise ConfigError(f"unknown keys: {', '.join(sorted(kv))}")
    if resolvent_tol <= 0.0 or picard_tol <= 0.0 or quad_slack <= 0.0:
        raise ConfigError("tolerances must be positive")

    if seed_override is not None:
        seed = seed_override
    if not 0 <= seed < 2**128:  # the 128-bit key of the Philox stream
        raise ConfigError(f"seed must lie in [0, 2**128), got {seed}")
    if out_override is not None:
        out_dir = out_override
    return ExperimentConfig(generator, family, n_paths, seed, mode,
                            resolvent_tol, picard_tol, quad_slack, beta,
                            out_dir, sha)


def load_config_file(path: str, seed_override: int | None = None,
                     out_override: str | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return load_config(text, seed_override, out_override)
