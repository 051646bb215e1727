"""Delay measures: probability measures on [-T, 0] with exact interval-mass queries.

The generator of a delayed Volterra equation weights the past of the
solution with a probability measure alpha on [-T, 0].  Everything the
solver needs from alpha reduces to interval masses alpha([a, 0]) and
alpha((a, 0]), so the supported measure classes (point mass, uniform,
finite atom lists, convex mixtures) all answer those two queries exactly.
The two endpoint conventions differ only by the atom weight sitting at
exactly a, and both appear downstream: the reduced kernel uses the closed
interval, the Girsanov drift the half-open one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MASS_TOL = 1e-12
LAG_DECIMALS = 12
UNIFORM_QUADRATURE_NODES = 65


def snap_lag(a: float) -> float:
    """Round a lag coordinate to LAG_DECIMALS places before a mass query.

    Grid arithmetic produces values like -0.29999999999999993 where an atom
    sits at exactly -0.3; snapping makes the query land on the atom
    deterministically instead of depending on floating-point noise.  The
    measures themselves stay exact -- callers that derive lags from grid
    nodes opt in.
    """
    return float(np.round(a, LAG_DECIMALS))


class DomainError(ValueError):
    """Interval-mass query outside [-T, 0]."""


class MassError(ValueError):
    """Weights do not sum to 1 within tolerance."""


class SupportError(ValueError):
    """Support point outside [-T, 0]."""


@dataclass(frozen=True)
class DelayMeasure:
    """Base class; concrete measures implement the two mass queries."""

    horizon: float

    def _check_query(self, a: float) -> None:
        if not (-self.horizon <= a <= 0.0):
            raise DomainError(f"query point {a} outside [-{self.horizon}, 0]")

    def mass_closed(self, a: float) -> float:
        """alpha([a, 0])."""
        raise NotImplementedError

    def mass_left_open(self, a: float) -> float:
        """alpha((a, 0])."""
        self._check_query(a)
        return self.mass_closed(a) - self.atom_at(a)

    def atom_at(self, u: float) -> float:
        """Weight of the atom located exactly at u (0 for diffuse parts)."""
        raise NotImplementedError

    def validate(self) -> "DelayMeasure":
        """Check total mass and support; raise on the first violation."""
        raise NotImplementedError

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Discrete representation (points u_i, weights w_i) for integrating
        bounded functions against the measure.  Exact for atoms; uniform parts
        use UNIFORM_QUADRATURE_NODES composite-trapezoid nodes on [-T, 0]."""
        raise NotImplementedError


@dataclass(frozen=True)
class DiracAt(DelayMeasure):
    """Point mass at u0 in [-T, 0]."""

    u0: float = 0.0

    def mass_closed(self, a: float) -> float:
        self._check_query(a)
        return 1.0 if self.u0 >= a else 0.0

    def mass_left_open(self, a: float) -> float:
        self._check_query(a)
        return 1.0 if self.u0 > a else 0.0

    def atom_at(self, u: float) -> float:
        return 1.0 if u == self.u0 else 0.0

    def validate(self) -> "DiracAt":
        if not (-self.horizon <= self.u0 <= 0.0):
            raise SupportError(f"atom at {self.u0} outside [-{self.horizon}, 0]")
        return self

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self.u0]), np.array([1.0])


@dataclass(frozen=True)
class Uniform(DelayMeasure):
    """Uniform probability measure on [-T, 0]."""

    def mass_closed(self, a: float) -> float:
        self._check_query(a)
        return -a / self.horizon

    def mass_left_open(self, a: float) -> float:
        return self.mass_closed(a)

    def atom_at(self, u: float) -> float:
        return 0.0

    def validate(self) -> "Uniform":
        if self.horizon <= 0.0:
            raise SupportError("horizon must be positive")
        return self

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        nodes = UNIFORM_QUADRATURE_NODES
        u = np.linspace(-self.horizon, 0.0, nodes)
        w = np.full(nodes, 1.0 / (nodes - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        return u, w


@dataclass(frozen=True)
class Atoms(DelayMeasure):
    """Finite list of atoms (u_i, w_i) with weights summing to 1."""

    atoms: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def mass_closed(self, a: float) -> float:
        self._check_query(a)
        return sum(w for u, w in self.atoms if u >= a)

    def mass_left_open(self, a: float) -> float:
        self._check_query(a)
        return sum(w for u, w in self.atoms if u > a)

    def atom_at(self, u: float) -> float:
        return sum(w for v, w in self.atoms if v == u)

    def validate(self) -> "Atoms":
        total = sum(w for _, w in self.atoms)
        if any(w < 0 for _, w in self.atoms) or abs(total - 1.0) > MASS_TOL:
            raise MassError(f"atom weights sum to {total}, expected 1")
        for u, _ in self.atoms:
            if not (-self.horizon <= u <= 0.0):
                raise SupportError(f"atom at {u} outside [-{self.horizon}, 0]")
        return self

    def normalized(self) -> "Atoms":
        """Rescale weights to sum exactly to 1 (explicit request only)."""
        total = sum(w for _, w in self.atoms)
        if total <= 0:
            raise MassError("cannot normalize non-positive total weight")
        return Atoms(self.horizon, tuple((u, w / total) for u, w in self.atoms))

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        u = np.array([a for a, _ in self.atoms])
        w = np.array([b for _, b in self.atoms])
        return u, w


@dataclass(frozen=True)
class Mixture(DelayMeasure):
    """Convex mixture of component measures on the same horizon."""

    components: tuple[tuple[DelayMeasure, float], ...] = field(default_factory=tuple)

    def mass_closed(self, a: float) -> float:
        self._check_query(a)
        return sum(w * m.mass_closed(a) for m, w in self.components)

    def mass_left_open(self, a: float) -> float:
        self._check_query(a)
        return sum(w * m.mass_left_open(a) for m, w in self.components)

    def atom_at(self, u: float) -> float:
        return sum(w * m.atom_at(u) for m, w in self.components)

    def validate(self) -> "Mixture":
        total = sum(w for _, w in self.components)
        if any(w < 0 for _, w in self.components) or abs(total - 1.0) > MASS_TOL:
            raise MassError(f"mixture weights sum to {total}, expected 1")
        for m, _ in self.components:
            if m.horizon != self.horizon:
                raise SupportError(
                    f"component horizon {m.horizon} != mixture horizon {self.horizon}"
                )
            m.validate()
        return self

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        us, ws = [], []
        for m, w in self.components:
            u, q = m.quadrature()
            us.append(u)
            ws.append(w * q)
        return np.concatenate(us), np.concatenate(ws)
