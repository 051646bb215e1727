"""Delay measures: probability measures on [-T, 0] with exact interval-mass queries.

The generator of a delayed Volterra equation weights the past of the
solution with a probability measure alpha on [-T, 0].  Every supported
alpha (point mass, uniform, finite atom list, convex mixture) is one
value: finitely many atoms plus a uniform part of mass diffuse_mass.
Everything the solver needs from alpha reduces to interval masses
alpha([a, 0]) and alpha((a, 0]), which differ only by the atom weight
sitting at exactly a; both appear downstream: the reduced kernel uses the
closed interval, the Girsanov drift the half-open one.  The delay
integrals of the oracles need the split into atoms and the uniform rest
(diffuse_mass).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

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


def _check_weights(weights, what: str) -> None:
    """MassError unless the weights are non-negative and sum to 1 within
    MASS_TOL; written so that a NaN fails."""
    total = sum(weights)
    if not (all(w >= 0.0 for w in weights) and abs(total - 1.0) <= MASS_TOL):
        raise MassError(f"{what} weights sum to {total}, expected 1")


@dataclass(frozen=True)
class DelayMeasure:
    """The atoms (u_i, w_i) plus diffuse_mass spread uniformly on [-T, 0],
    checked on construction: a positive finite horizon, atoms inside
    [-T, 0], and non-negative weights with a total mass of 1."""

    horizon: float
    atoms: tuple[tuple[float, float], ...] = ()
    diffuse_mass: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.horizon < np.inf:  # NaN fails too
            raise SupportError("horizon must be positive and finite")
        _check_weights([self.diffuse_mass] + [w for _, w in self.atoms], "atom")
        for u, _ in self.atoms:
            if not -self.horizon <= u <= 0.0:
                raise SupportError(f"atom at {u} outside [-{self.horizon}, 0]")

    def mass_closed(self, a):
        """alpha([a, 0]) for a scalar or an array of lags a, in a's shape."""
        return self._mass(a, operator.ge)

    def mass_left_open(self, a):
        """alpha((a, 0]) for a scalar or an array of lags a, in a's shape."""
        return self._mass(a, operator.gt)

    def _mass(self, a, counts):
        """The uniform part's mass of [a, 0], then the atoms at u with
        counts(u, a), added left to right (a skipped atom adds 0.0): a
        uniform measure gives -a/T exactly (-0.0 at a = 0), and an atom
        list the plain left-to-right sum of its counted weights.
        DomainError on a NaN lag or one outside [-T, 0]."""
        a = np.asarray(a, dtype=float)
        inside = (-self.horizon <= a) & (a <= 0.0)
        if not inside.all():
            raise DomainError(f"query point {a[~inside].flat[0]} outside "
                              f"[-{self.horizon}, 0]")
        mass = self.diffuse_mass * (-a / self.horizon)
        for u, w in self.atoms:
            mass = mass + np.where(counts(u, a), w, 0.0)
        return mass


def DiracAt(horizon: float, u0: float = 0.0) -> DelayMeasure:
    """Point mass at u0 in [-T, 0]."""
    return DelayMeasure(horizon, ((u0, 1.0),))


def Uniform(horizon: float) -> DelayMeasure:
    """Uniform probability measure on [-T, 0]."""
    return DelayMeasure(horizon, diffuse_mass=1.0)


def Atoms(horizon: float, atoms: tuple[tuple[float, float], ...] = ()
          ) -> DelayMeasure:
    """Finite list of atoms (u_i, w_i) with weights summing to 1."""
    return DelayMeasure(horizon, atoms)


def Mixture(horizon: float,
            components: tuple[tuple[DelayMeasure, float], ...] = ()
            ) -> DelayMeasure:
    """Convex mixture of measures on the same horizon: each component's
    atoms with weights c * w_i, in component order, and c * diffuse_mass
    summed over the components."""
    _check_weights([c for _, c in components], "mixture")
    for m, _ in components:
        if m.horizon != horizon:
            raise SupportError(
                f"component horizon {m.horizon} != mixture horizon {horizon}")
    return DelayMeasure(
        horizon,
        tuple((u, c * w) for m, c in components for u, w in m.atoms),
        sum(c * m.diffuse_mass for m, c in components))
