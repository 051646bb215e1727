"""Delay measures: probability measures on [-T, 0] with exact interval-mass queries.

The generator of a delayed Volterra equation weights the past of the
solution with a probability measure alpha on [-T, 0].  Everything the
solver needs from alpha reduces to interval masses alpha([a, 0]) and
alpha((a, 0]), so the supported measure classes (point mass, uniform,
finite atom lists, convex mixtures) all answer those two queries exactly.
The two endpoint conventions differ only by the atom weight sitting at
exactly a, and both appear downstream: the reduced kernel uses the closed
interval, the Girsanov drift the half-open one.  The delay integrals of
the oracles need the split into atoms (quadrature) and the uniform rest
(diffuse_mass).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MASS_TOL = 1e-12
LAG_DECIMALS = 12


def snap_lag(a):
    """Round lag coordinates (a scalar or an array) to LAG_DECIMALS places
    before a mass query.

    Grid arithmetic produces values like -0.29999999999999993 where an atom
    sits at exactly -0.3; snapping makes the query land on the atom
    deterministically instead of depending on floating-point noise.  The
    measures themselves stay exact -- callers that derive lags from grid
    nodes opt in.
    """
    return np.round(a, LAG_DECIMALS)


class DomainError(ValueError):
    """Interval-mass query outside [-T, 0]."""


class MassError(ValueError):
    """Weights do not sum to 1 within tolerance."""


class SupportError(ValueError):
    """Support point outside [-T, 0]."""


@dataclass(frozen=True)
class DelayMeasure:
    """Base class; concrete measures implement the two mass queries,
    mass_closed(a) = alpha([a, 0]) and mass_left_open(a) = alpha((a, 0]),
    for a scalar or an array of lags a, returning masses of a's shape."""

    horizon: float
    diffuse_mass = 0.0  # the uniform part's share of the total mass

    def _check_query(self, a) -> np.ndarray:
        """The lags as an array; DomainError on NaN or outside [-T, 0]."""
        a = np.asarray(a, dtype=float)
        inside = (-self.horizon <= a) & (a <= 0.0)
        if not inside.all():
            raise DomainError(f"query point {a[~inside].flat[0]} outside "
                              f"[-{self.horizon}, 0]")
        return a

    def atom_at(self, u):
        """Weight of the atom located exactly at u (0 for diffuse parts),
        for a scalar or an array of points u, in u's shape."""
        raise NotImplementedError

    def validate(self) -> "DelayMeasure":
        """Check total mass and support; raise on the first violation."""
        raise NotImplementedError

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """The atoms (points u_i, weights w_i), exact.  The rest of the
        mass, diffuse_mass, is uniform on [-T, 0]; integrals against it
        are taken on the grid lags (kernels.lag_weights)."""
        return np.empty(0), np.empty(0)


@dataclass(frozen=True)
class DiracAt(DelayMeasure):
    """Point mass at u0 in [-T, 0]."""

    u0: float = 0.0

    def mass_closed(self, a):
        return np.where(self.u0 >= self._check_query(a), 1.0, 0.0)

    def mass_left_open(self, a):
        return np.where(self.u0 > self._check_query(a), 1.0, 0.0)

    def atom_at(self, u):
        return np.where(np.asarray(u) == self.u0, 1.0, 0.0)

    def validate(self) -> "DiracAt":
        if not (-self.horizon <= self.u0 <= 0.0):
            raise SupportError(f"atom at {self.u0} outside [-{self.horizon}, 0]")
        return self

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self.u0]), np.array([1.0])


@dataclass(frozen=True)
class Uniform(DelayMeasure):
    """Uniform probability measure on [-T, 0]."""

    diffuse_mass = 1.0

    def mass_closed(self, a):
        return -self._check_query(a) / self.horizon

    mass_left_open = mass_closed  # no atoms

    def atom_at(self, u):
        return np.zeros(np.shape(u))

    def validate(self) -> "Uniform":
        if self.horizon <= 0.0:
            raise SupportError("horizon must be positive")
        return self


@dataclass(frozen=True)
class Atoms(DelayMeasure):
    """Finite list of atoms (u_i, w_i) with weights summing to 1."""

    atoms: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    # Masses and atom weights add the atoms left to right, a skipped atom
    # adding 0.0, so each entry is bit-equal to the sum over the atoms it
    # counts.
    def mass_closed(self, a):
        a = self._check_query(a)
        return sum(np.where(u >= a, w, 0.0) for u, w in self.atoms)

    def mass_left_open(self, a):
        a = self._check_query(a)
        return sum(np.where(u > a, w, 0.0) for u, w in self.atoms)

    def atom_at(self, u):
        u = np.asarray(u)
        return sum(np.where(v == u, w, 0.0) for v, w in self.atoms)

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

    def mass_closed(self, a):
        self._check_query(a)
        return sum(w * m.mass_closed(a) for m, w in self.components)

    def mass_left_open(self, a):
        self._check_query(a)
        return sum(w * m.mass_left_open(a) for m, w in self.components)

    def atom_at(self, u):
        return sum(w * m.atom_at(u) for m, w in self.components)

    @property
    def diffuse_mass(self) -> float:
        return sum(w * m.diffuse_mass for m, w in self.components)

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
