"""Parameter containers for point-process models on linear networks.

Two models are supported throughout the package:

* an inhomogeneous Poisson process with constant intensity on each branch
  type ("main" and "side"), and
* a thinned-Cox process: a Poisson process with branch-wise intensities
  (the *driving* intensity) thinned by a random retention field built from
  ``k`` independent zero-mean, unit-variance Gaussian fields with
  exponential correlation ``exp(-beta * d)`` in the network metric.

Retention of a point ``u`` happens with probability
``exp(-sigma2/2 * sum_j Z_j(u)**2)`` given the fields, so the
unconditional thinning probability is ``(1 + sigma2) ** (-k / 2)`` and the
observed process has intensity ``rho = (1 + sigma2) ** (-k / 2) * rho_Y``
on each branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

__all__ = ["IntensityModel", "CoxModel"]


@dataclass(frozen=True)
class IntensityModel:
    """Branch-wise constant intensity (points per micrometre).

    Parameters
    ----------
    main, side : float
        Intensity on main-branch and side-branch edges. Both must be
        nonnegative.
    """

    main: float
    side: float

    def __post_init__(self) -> None:
        if not (self.main >= 0.0 and self.side >= 0.0):
            raise ValidationError(
                f"intensities must be nonnegative, got ({self.main}, {self.side})"
            )

    def expected_count(self, net) -> float:
        """Expected number of points on ``net``."""
        return self.main * net.main_length + self.side * net.side_length

    def min_positive(self, net) -> float:
        """Least positive intensity over the branch types present in ``net``
        (0.0 if none is positive).

        Used as the default lower intensity bound in empty-space /
        nearest-neighbour estimators, so a branch that holds no point under
        the maximum-likelihood intensity does not set it to 0.
        """
        branches = ((self.main, net.main_length), (self.side, net.side_length))
        return min((v for v, length in branches if length > 0.0 and v > 0.0), default=0.0)


@dataclass(frozen=True)
class CoxModel:
    """Thinned-Cox model parameters.

    Parameters
    ----------
    rho_y_main, rho_y_side : float
        Driving Poisson intensities per branch type (before thinning).
    sigma2 : float
        Thinning strength; must be positive and finite. Small values make
        the model indistinguishable from a Poisson process.
    beta : float
        Correlation decay rate of the underlying Gaussian fields; positive
        and finite.
    k : int
        Number of independent Gaussian fields, at least 1.
    """

    rho_y_main: float
    rho_y_side: float
    sigma2: float
    beta: float
    k: int = 1

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, bool):
                raise ValidationError(f"{name} must be a number, not a boolean, got {value}")
        if not (self.rho_y_main >= 0.0 and self.rho_y_side >= 0.0):
            raise ValidationError("driving intensities must be nonnegative")
        if not 0.0 < self.sigma2 < math.inf:
            raise ValidationError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not 0.0 < self.beta < math.inf:
            raise ValidationError(f"beta must be positive and finite, got {self.beta}")
        if not (isinstance(self.k, int) and self.k >= 1):
            raise ValidationError(f"k must be an integer >= 1, got {self.k}")

    def thinning_mean(self) -> float:
        """Unconditional retention probability ``(1 + sigma2) ** (-k/2)``."""
        return float((1.0 + self.sigma2) ** (-self.k / 2.0))

    def driving_intensity(self) -> IntensityModel:
        return IntensityModel(self.rho_y_main, self.rho_y_side)

    def observed_intensity(self) -> IntensityModel:
        """Intensity of the thinned (observed) process."""
        p = self.thinning_mean()
        return IntensityModel(self.rho_y_main * p, self.rho_y_side * p)

    @classmethod
    def from_observed(
        cls,
        intensity: IntensityModel,
        sigma2: float,
        beta: float,
        k: int = 1,
    ) -> "CoxModel":
        """Build a model whose thinned process has the given intensity.

        Inverts the thinning relation: ``rho_Y = (1 + sigma2) ** (k/2) * rho``.
        """
        scale = float((1.0 + sigma2) ** (k / 2.0))
        return cls(intensity.main * scale, intensity.side * scale, sigma2, beta, k)
