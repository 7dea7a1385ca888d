"""Grids, labeled factors, and tensor-product state vectors.

Coordinate factors are one-dimensional uniform grids with periodic boundary
conditions (a requirement of the spectral propagator); finite-level factors
model internal degrees of freedom with exact linear algebra.  A state vector
carries an ordered tuple of factors and stores its amplitudes row-major over
that order, so every bipartition or partial contraction is pure index
arithmetic.

Conventions
-----------
* hbar = 1 and the mass unit = 1 by default, both configurable.
* The squared norm is sum(|amplitude|^2) * prod(dx) over coordinate factors,
  i.e. trapezoid-free periodic quadrature with uniform weight.
* A Gaussian packet carries the exponent -(x - r0)^2 / (2 sigma^2) on the
  *amplitude*, so sigma is the amplitude dispersion: |g|^2 has standard
  deviation sigma / sqrt(2), and the velocity dispersion is
  xi = hbar / (sigma * mass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import SpaceMismatchError, ValidationError

BOUNDARY_MASS_LIMIT = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: x_k = x_min + k*dx for k = 0..n_points-1."""

    n_points: int
    x_min: float
    x_max: float

    def __post_init__(self):
        n = self.n_points
        if n < 8 or (n & (n - 1)) != 0:
            raise ValidationError(
                f"grid needs at least 8 points and a power of two, got {n}"
            )
        if not self.x_max > self.x_min:
            raise ValidationError("grid needs x_max > x_min")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    def positions(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers in FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)


@dataclass(frozen=True)
class Factor:
    """One labeled tensor factor: either a coordinate grid or a d-level system."""

    label: str
    grid: Grid | None = None
    levels: int | None = None

    def __post_init__(self):
        if (self.grid is None) == (self.levels is None):
            raise ValidationError(
                f"factor {self.label!r} needs exactly one of grid= or levels="
            )
        if self.levels is not None and self.levels < 1:
            raise ValidationError(f"factor {self.label!r} needs levels >= 1")

    @classmethod
    def coordinate(cls, label: str, grid: Grid) -> "Factor":
        return cls(label, grid=grid)

    @classmethod
    def level(cls, label: str, dim: int) -> "Factor":
        return cls(label, levels=dim)

    @property
    def is_coordinate(self) -> bool:
        return self.grid is not None

    @property
    def dim(self) -> int:
        return self.grid.n_points if self.grid is not None else self.levels


@dataclass(frozen=True)
class Space:
    """Ordered collection of factors with unique labels."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValidationError("space needs at least one factor")
        labels = [f.label for f in self.factors]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate factor labels in space: {labels}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def volume_element(self) -> float:
        """Product of dx over coordinate factors (1.0 if none)."""
        out = 1.0
        for f in self.factors:
            if f.is_coordinate:
                out *= f.grid.dx
        return out

    def axis(self, label: str) -> int:
        for i, f in enumerate(self.factors):
            if f.label == label:
                return i
        raise ValidationError(f"no factor labeled {label!r} in space {self.labels}")

    def factor(self, label: str) -> Factor:
        return self.factors[self.axis(label)]

    def has(self, label: str) -> bool:
        return any(f.label == label for f in self.factors)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over a labeled factor space.

    Immutable after construction; the amplitude array is marked read-only so
    instances are safe to share between threads.
    """

    space: Space
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != self.space.dims:
            if amps.size != self.space.total_dim:
                raise ValidationError(
                    f"amplitude array of size {amps.size} does not match space "
                    f"dims {self.space.dims}"
                )
            amps = amps.reshape(self.space.dims)
        amps = np.ascontiguousarray(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        amps = self.amplitudes
        return float(math.sqrt(np.vdot(amps, amps).real * self.space.volume_element))

    def normalized(self) -> "StateVector":
        n = self.norm
        if n == 0.0:
            raise ValidationError("cannot normalize a zero state")
        return StateVector(self.space, self.amplitudes / n)


@dataclass(frozen=True)
class GaussianParams:
    """Center, dispersion, and mass of a Gaussian wavepacket.

    sigma is the amplitude dispersion; the implied velocity dispersion is
    xi = hbar / (sigma * mass).  Under the scaling
    sigma = sigma_ref / sqrt(mass / mass_unit) both sigma and xi vanish as
    the mass grows.
    """

    r0: float
    p0: float
    sigma: float
    mass: float
    hbar: float = 1.0
    mass_unit: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValidationError("gaussian needs sigma > 0")
        if self.mass <= 0.0:
            raise ValidationError("gaussian needs mass > 0")
        if self.hbar <= 0.0 or self.mass_unit <= 0.0:
            raise ValidationError("gaussian needs hbar > 0 and mass_unit > 0")

    @property
    def xi(self) -> float:
        """Velocity dispersion hbar / (sigma * mass)."""
        return self.hbar / (self.sigma * self.mass)

    @classmethod
    def scaled(
        cls,
        mass: float,
        sigma_ref: float,
        hbar: float = 1.0,
        mass_unit: float = 1.0,
    ) -> "GaussianParams":
        """Packet at rest at 0 with sigma = sigma_ref / sqrt(mass / mass_unit)."""
        sigma = sigma_ref / math.sqrt(mass / mass_unit)
        return cls(r0=0.0, p0=0.0, sigma=sigma, mass=mass, hbar=hbar, mass_unit=mass_unit)

    def amplitudes(self, x: np.ndarray) -> np.ndarray:
        """(pi sigma^2)^(-1/4) exp(i p0 x / hbar) exp(-(x-r0)^2 / 2 sigma^2)
        at any positions x, grid points or not, filled into one complex
        array: its exponent, then exp and the norm in place."""
        out = np.empty(np.shape(x), dtype=np.complex128)
        out.real = (x - self.r0) ** 2
        out.real /= -2.0 * self.sigma**2
        out.imag = self.p0 * x
        # Times 1 / hbar: numpy's complex division by a real hbar rounds so.
        out.imag *= 1.0 / self.hbar
        np.exp(out, out=out)
        out *= (np.pi * self.sigma**2) ** -0.25
        return out


def make_gaussian(grid: Grid, params: GaussianParams, label: str) -> StateVector:
    """Normalized Gaussian wavepacket on a single-factor coordinate space.

    params.amplitudes at the grid points, renormalized exactly on the grid.
    The packet must be resolvable (sigma >= 3 dx) and its analytic
    probability mass outside [x_min, x_max] must stay below 1e-12, otherwise
    construction fails.
    """
    dx = grid.dx
    if params.sigma < 3.0 * dx:
        raise ValidationError(
            f"grid too coarse for sigma={params.sigma:g}: needs sigma >= 3*dx = {3 * dx:g}"
        )
    # |g|^2 is normal with std sigma/sqrt(2); erfc gives the clipped tail mass.
    s = params.sigma / math.sqrt(2.0)
    outside = 0.5 * math.erfc((params.r0 - grid.x_min) / (s * math.sqrt(2.0)))
    outside += 0.5 * math.erfc((grid.x_max - params.r0) / (s * math.sqrt(2.0)))
    if outside > BOUNDARY_MASS_LIMIT:
        raise ValidationError(
            f"wavepacket support clipped: mass {outside:.3e} outside "
            f"[{grid.x_min:g}, {grid.x_max:g}] exceeds {BOUNDARY_MASS_LIMIT:g}"
        )
    amps = params.amplitudes(grid.positions())
    state = StateVector(Space((Factor.coordinate(label, grid),)), amps)
    return state.normalized()


def level_state(label: str, amplitudes: Sequence[complex]) -> StateVector:
    """Normalized state of a finite-level factor."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    state = StateVector(Space((Factor.level(label, amps.size),)), amps)
    return state.normalized()


def tensor_product(states: Sequence[StateVector]) -> StateVector:
    """Outer product of states; factor order follows the argument order."""
    if not states:
        raise ValidationError("tensor_product needs at least one state")
    factors: list[Factor] = []
    for s in states:
        factors.extend(s.space.factors)
    space = Space(tuple(factors))  # rejects duplicate labels
    amps = reduce(np.multiply.outer, (s.amplitudes for s in states))
    return StateVector(space, amps)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """Quadrature-weighted inner product, conjugate-linear in the first slot."""
    if a.space != b.space:
        raise SpaceMismatchError(
            f"states live on different spaces: {a.space.labels} vs {b.space.labels}"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes) * a.space.volume_element)


def superpose(terms: Iterable[tuple[complex, StateVector]]) -> StateVector:
    """Linear combination sum(c_i * psi_i) of states on one common space."""
    terms = list(terms)
    if not terms:
        raise ValidationError("superpose needs at least one term")
    space = terms[0][1].space
    amps = np.zeros(space.dims, dtype=np.complex128)
    for coeff, state in terms:
        if state.space != space:
            raise SpaceMismatchError("superpose needs all states on one space")
        amps = amps + coeff * state.amplitudes
    return StateVector(space, amps)


def position_marginal(state: StateVector, label: str) -> np.ndarray:
    """Probability weights per grid point of one coordinate factor (sums to 1)."""
    axis = state.space.axis(label)
    if not state.space.factors[axis].is_coordinate:
        raise ValidationError(f"factor {label!r} is not a coordinate factor")
    prob = np.abs(state.amplitudes) ** 2
    other = tuple(i for i in range(prob.ndim) if i != axis)
    return prob.sum(axis=other) * state.space.volume_element
