"""Hamiltonians and unitary propagation on labeled tensor-product spaces.

The propagator is a second-order Strang splitting,

    exp(-i V dt / 2 hbar) exp(-i T dt / hbar) exp(-i V dt / 2 hbar),

with the kinetic term diagonal in the momentum representation of each
coordinate factor and the position-local part (potentials + coupling +
internal level Hamiltonian) diagonal or block-diagonal in position.  Each
factor is exactly unitary, so the norm is preserved to rounding over
arbitrarily long runs and evolving with dt -> -dt inverts a step exactly.

Between checkpoints the closing half-potential of one step and the opening
half-potential of the next are merged into one full-step factor (Feit,
Fleck & Steiger, J. Comput. Phys. 47 (1982) 412), so `steps` steps apply
V/2 T V T ... V T and one position-local factor per step.  Each stored
state gets its own closing V/2: it is a whole Strang step, and the running
product does not depend on where the checkpoints fall.

The heavy subsystem machinery lives here as well: evolve_factorized
propagates the center-of-mass packet freely while the relative state moves
under the coupling frozen at a reference anchor position, and
factorization_residual measures the norm of the neglected center-of-mass
kinetic term acting on a relative state that still carries explicit
anchor-coordinate dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .errors import ValidationError
from .hilbert import Factor, Space, StateVector, inner_product, tensor_product

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Interaction:
    """Coupling g(x_subject - x_anchor) (x) K acting on a level factor.

    `subject` names the coordinate whose position enters the profile;
    `anchor` names the coordinate subtracted from it, or None to evaluate
    the profile at (x_subject - anchor_position) with the anchor frozen.
    `coupling` is a Hermitian matrix on the `level` factor.
    """

    subject: str
    profile: Callable[[np.ndarray], np.ndarray]
    level: str
    coupling: np.ndarray
    anchor: str | None = None
    anchor_position: float = 0.0

    def frozen_at(self, position: float) -> "Interaction":
        """Same coupling with the anchor coordinate replaced by a constant."""
        return replace(self, anchor=None, anchor_position=position)


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """Kinetic terms, local potentials, internal level Hamiltonian, coupling.

    kinetic maps coordinate labels to masses; potentials maps coordinate
    labels to either a callable sampled on the grid or a pre-sampled array;
    internal is an optional (level label, Hermitian matrix) pair.
    """

    kinetic: Mapping[str, float]
    potentials: Mapping[str, Callable[[np.ndarray], np.ndarray] | np.ndarray] = field(
        default_factory=dict
    )
    internal: tuple[str, np.ndarray] | None = None
    interaction: Interaction | None = None
    hbar: float = 1.0


def _check_hermitian(matrix: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{what} must be a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.conj().T))) > HERMITICITY_TOL * scale:
        raise ValidationError(f"{what} is not Hermitian within {HERMITICITY_TOL:g}")
    return m


def _sampled_potential(spec, grid) -> np.ndarray:
    values = spec(grid.positions()) if callable(spec) else np.asarray(spec, float)
    if values.shape != (grid.n_points,):
        raise ValidationError(
            f"potential sample of shape {values.shape} does not match grid "
            f"({grid.n_points} points)"
        )
    return values


def kinetic_ceiling(space: Space, h: HamiltonianSpec) -> float:
    """Largest eigenvalue of the discrete kinetic operator."""
    total = 0.0
    for label, mass in h.kinetic.items():
        f = space.factor(label)
        if not f.is_coordinate:
            raise ValidationError(f"kinetic term on non-coordinate factor {label!r}")
        k_max = math.pi / f.grid.dx
        total += (h.hbar * k_max) ** 2 / (2.0 * mass)
    return total


def check_time_step(space: Space, h: HamiltonianSpec, dt: float) -> None:
    """Reject a zero step, or one whose fastest kinetic phase aliases."""
    if dt == 0.0:
        raise ValidationError("time step must be nonzero")
    ceiling = kinetic_ceiling(space, h)
    if abs(dt) * ceiling / h.hbar > math.pi + 1e-12:
        raise ValidationError(
            f"time step {dt:g} violates the anti-aliasing bound "
            f"dt * T_max / hbar <= pi (T_max = {ceiling:g})"
        )


class _SplitStepPlan:
    """Precomputed phase arrays for one (space, Hamiltonian, dt) combination."""

    def __init__(self, space: Space, h: HamiltonianSpec, dt: float):
        check_time_step(space, h, dt)
        ndim = len(space.dims)

        # Kinetic phase, broadcastable over the full amplitude array.
        self.kinetic_axes = []
        exponent = np.zeros((1,) * ndim)
        for label, mass in h.kinetic.items():
            if mass <= 0.0:
                raise ValidationError(f"kinetic mass for {label!r} must be positive")
            axis = space.axis(label)
            self.kinetic_axes.append(axis)
            shape = [1] * ndim
            shape[axis] = space.dims[axis]
            k = space.factor(label).grid.wavenumbers().reshape(shape)
            exponent = exponent + h.hbar * k**2 / (2.0 * mass)
        self.kinetic_axes.sort()
        self.kinetic_phase = np.exp(-1j * dt * exponent) if self.kinetic_axes else None

        # Position-local part: scalar diagonal plus an optional level block.
        diag = np.zeros((1,) * ndim)
        for label, spec in h.potentials.items():
            f = space.factor(label)
            if not f.is_coordinate:
                raise ValidationError(f"potential on non-coordinate factor {label!r}")
            shape = [1] * ndim
            shape[space.axis(label)] = f.dim
            diag = diag + _sampled_potential(spec, f.grid).reshape(shape)

        coupling_diag = None
        level_label = None
        coupling_matrix = None
        internal_matrix = None
        if h.interaction is not None:
            ia = h.interaction
            subject = space.factor(ia.subject)
            if not subject.is_coordinate:
                raise ValidationError("interaction subject must be a coordinate factor")
            xs = subject.grid.positions()
            shape = [1] * ndim
            shape[space.axis(ia.subject)] = subject.dim
            if ia.anchor is None:
                delta = (xs - ia.anchor_position).reshape(shape)
            else:
                anchor = space.factor(ia.anchor)
                if not anchor.is_coordinate:
                    raise ValidationError(
                        "interaction anchor must be a coordinate factor"
                    )
                a_shape = [1] * ndim
                a_shape[space.axis(ia.anchor)] = anchor.dim
                delta = xs.reshape(shape) - anchor.grid.positions().reshape(a_shape)
            coupling_diag = np.asarray(ia.profile(delta), dtype=float)
            level_label = ia.level
            coupling_matrix = _check_hermitian(ia.coupling, "interaction coupling")
        if h.internal is not None:
            lab, matrix = h.internal
            if level_label is not None and lab != level_label:
                raise ValidationError(
                    "internal Hamiltonian and interaction act on different level factors"
                )
            level_label = lab
            internal_matrix = _check_hermitian(matrix, "internal Hamiltonian")

        self.level_axis = None
        if level_label is None:
            half = np.exp(-0.5j * dt * diag / h.hbar)
            self.half_potential, self.full_potential = half, half**2
        else:
            level = space.factor(level_label)
            if level.is_coordinate:
                raise ValidationError(f"factor {level_label!r} is not a level factor")
            if level.dim != (
                coupling_matrix if coupling_matrix is not None else internal_matrix
            ).shape[0]:
                raise ValidationError(
                    f"level matrices do not match the dimension of {level_label!r}"
                )
            self.level_axis = space.axis(level_label)
            d = level.dim
            eye = np.eye(d)
            # Block W(x) over broadcast coordinate shape, level indices last.
            block = diag[..., None, None] * eye
            if coupling_diag is not None:
                block = block + coupling_diag[..., None, None] * coupling_matrix
            if internal_matrix is not None:
                block = block + internal_matrix
            # Drop the (now singleton) level axis from the broadcast shape.
            block = np.squeeze(block, axis=self.level_axis)
            evals, evecs = np.linalg.eigh(block)
            half = np.exp(-0.5j * dt * evals / h.hbar)
            self.half_potential, self.full_potential = (
                np.einsum("...ij,...j,...kj->...ik", evecs, phases, evecs.conj())
                for phases in (half, half**2)
            )

    def potential(self, factor: np.ndarray, amps: np.ndarray) -> np.ndarray:
        """Apply a position-local factor (half_potential or full_potential)."""
        if self.level_axis is None:
            return factor * amps
        moved = np.moveaxis(amps, self.level_axis, -1)
        moved = np.einsum("...ij,...j->...i", factor, moved)
        return np.moveaxis(moved, -1, self.level_axis)

    def kinetic(self, amps: np.ndarray) -> np.ndarray:
        if self.kinetic_phase is None:
            return amps
        amps = np.fft.fftn(amps, axes=self.kinetic_axes)
        amps *= self.kinetic_phase
        return np.fft.ifftn(amps, axes=self.kinetic_axes)


@dataclass(eq=False)
class PropagationResult:
    """Checkpointed trajectory of one propagation run."""

    trajectory: list[tuple[float, StateVector]]
    final: StateVector
    norm_drift: float


@dataclass(eq=False)
class FactorizedResult:
    """Product-form evolution: free center-of-mass times relative state."""

    cm: PropagationResult
    final: StateVector


def evolve_exact(
    psi0: StateVector,
    h: HamiltonianSpec,
    dt: float,
    steps: int,
    checkpoint_every: int = 100,
) -> PropagationResult:
    """Split-step propagation of psi0 under h for `steps` steps of size dt.

    Checkpoints (including t=0 and the final state) are stored every
    `checkpoint_every` steps; each is a whole Strang step, closed by its own
    half-potential.  Norm drift is the largest deviation of any
    checkpoint norm from 1.
    """
    if steps < 0:
        raise ValidationError("steps must be >= 0")
    if checkpoint_every < 1:
        raise ValidationError("checkpoint_every must be >= 1")
    plan = _SplitStepPlan(psi0.space, h, dt)
    amps = psi0.amplitudes
    trajectory: list[tuple[float, StateVector]] = [(0.0, psi0)]
    norm_drift = abs(psi0.norm - 1.0)
    # The first step opens with V/2; every later one opens with V, its own
    # V/2 merged with the closing V/2 of the step before.
    opening = plan.half_potential
    for n in range(1, steps + 1):
        amps = plan.kinetic(plan.potential(opening, amps))
        opening = plan.full_potential
        if n % checkpoint_every == 0 or n == steps:
            state = StateVector(psi0.space, plan.potential(plan.half_potential, amps))
            trajectory.append((n * dt, state))
            norm_drift = max(norm_drift, abs(state.norm - 1.0))
    final = trajectory[-1][1]
    return PropagationResult(trajectory, final, norm_drift)


def evolve_factorized(
    phi_cm: StateVector,
    psi1_0: StateVector,
    h: HamiltonianSpec,
    dt: float,
    steps: int,
    checkpoint_every: int = 100,
    freeze_at: float = 0.0,
) -> FactorizedResult:
    """Propagate the product approximation: free packet times relative state.

    The center-of-mass packet evolves under its kinetic term only; the
    relative state evolves under everything else, with the coupling's anchor
    coordinate frozen at `freeze_at` (the narrow-packet limit).  The returned
    final state is the tensor product in (cm, relative) factor order.
    """
    if len(phi_cm.space.factors) != 1 or not phi_cm.space.factors[0].is_coordinate:
        raise ValidationError("phi_cm must live on a single coordinate factor")
    cm_label = phi_cm.space.labels[0]
    if cm_label not in h.kinetic:
        raise ValidationError(f"Hamiltonian has no kinetic term for {cm_label!r}")
    if psi1_0.space.has(cm_label):
        raise ValidationError("relative state must not contain the cm factor")

    h_cm = HamiltonianSpec(kinetic={cm_label: h.kinetic[cm_label]}, hbar=h.hbar)
    rel_kinetic = {
        lab: m for lab, m in h.kinetic.items() if psi1_0.space.has(lab)
    }
    rel_potentials = {
        lab: v for lab, v in h.potentials.items() if psi1_0.space.has(lab)
    }
    interaction = h.interaction
    if interaction is not None and interaction.anchor == cm_label:
        interaction = interaction.frozen_at(freeze_at)
    h_rel = HamiltonianSpec(
        kinetic=rel_kinetic,
        potentials=rel_potentials,
        internal=h.internal,
        interaction=interaction,
        hbar=h.hbar,
    )
    cm = evolve_exact(phi_cm, h_cm, dt, steps, checkpoint_every)
    relative = evolve_exact(psi1_0, h_rel, dt, steps, checkpoint_every)
    return FactorizedResult(cm, tensor_product([cm.final, relative.final]))


def factorization_residual(
    psi1: StateVector, mass: float, hbar: float = 1.0, cm_label: str = "A_cm"
) -> float:
    """Norm of the neglected center-of-mass kinetic term P^2/(2 mass) psi1.

    psi1 must carry the center-of-mass coordinate explicitly; its dependence
    on that coordinate is differentiated spectrally.  States with no such
    dependence give 0.
    """
    if not psi1.space.has(cm_label):
        raise ValidationError(
            f"missing center-of-mass factor {cm_label!r} in {psi1.space.labels}"
        )
    f = psi1.space.factor(cm_label)
    if not f.is_coordinate:
        raise ValidationError(f"factor {cm_label!r} is not a coordinate factor")
    axis = psi1.space.axis(cm_label)
    shape = [1] * len(psi1.space.dims)
    shape[axis] = f.dim
    t_k = (hbar * f.grid.wavenumbers().reshape(shape)) ** 2 / (2.0 * mass)
    amps = np.fft.ifft(t_k * np.fft.fft(psi1.amplitudes, axis=axis), axis=axis)
    total = np.sum(np.abs(amps) ** 2) * psi1.space.volume_element
    return float(math.sqrt(total))


def fidelity_deficit(a: StateVector, b: StateVector) -> float:
    """1 - |<a, b>| for states on the same space."""
    return 1.0 - abs(inner_product(a, b))


def apply_hamiltonian(state: StateVector, h: HamiltonianSpec) -> StateVector:
    """H |psi> evaluated term by term (unnormalized result)."""
    space = state.space
    ndim = len(space.dims)
    out = np.zeros(space.dims, dtype=np.complex128)
    for label, mass in h.kinetic.items():
        axis = space.axis(label)
        shape = [1] * ndim
        shape[axis] = space.dims[axis]
        t_k = (h.hbar * space.factor(label).grid.wavenumbers().reshape(shape)) ** 2
        t_k = t_k / (2.0 * mass)
        out += np.fft.ifft(t_k * np.fft.fft(state.amplitudes, axis=axis), axis=axis)
    for label, spec in h.potentials.items():
        f = space.factor(label)
        shape = [1] * ndim
        shape[space.axis(label)] = f.dim
        out += _sampled_potential(spec, f.grid).reshape(shape) * state.amplitudes
    if h.interaction is not None:
        out += interaction_term(state, h).amplitudes
    if h.internal is not None:
        lab, matrix = h.internal
        axis = space.axis(lab)
        moved = np.moveaxis(state.amplitudes, axis, -1)
        moved = np.einsum("ij,...j->...i", _check_hermitian(matrix, "internal"), moved)
        out += np.moveaxis(moved, -1, axis)
    return StateVector(space, out)


def interaction_term(state: StateVector, h: HamiltonianSpec) -> StateVector:
    """H_coupling |psi> alone (zero state if the Hamiltonian has no coupling)."""
    space = state.space
    ndim = len(space.dims)
    if h.interaction is None:
        return StateVector(space, np.zeros(space.dims, dtype=np.complex128))
    ia = h.interaction
    subject = space.factor(ia.subject)
    shape = [1] * ndim
    shape[space.axis(ia.subject)] = subject.dim
    xs = subject.grid.positions().reshape(shape)
    if ia.anchor is None:
        delta = xs - ia.anchor_position
    else:
        anchor = space.factor(ia.anchor)
        a_shape = [1] * ndim
        a_shape[space.axis(ia.anchor)] = anchor.dim
        delta = xs - anchor.grid.positions().reshape(a_shape)
    profile = np.asarray(ia.profile(delta), dtype=float)
    matrix = _check_hermitian(ia.coupling, "interaction coupling")
    axis = space.axis(ia.level)
    # profile carries a singleton along the level axis, so it broadcasts as-is
    moved = np.moveaxis(profile * state.amplitudes, axis, -1)
    moved = np.einsum("ij,...j->...i", matrix, moved)
    return StateVector(space, np.moveaxis(moved, -1, axis))


def total_energy(state: StateVector, h: HamiltonianSpec) -> float:
    return float(inner_product(state, apply_hamiltonian(state, h)).real)


def interaction_energy(state: StateVector, h: HamiltonianSpec) -> float:
    """Expectation of the coupling term alone."""
    if h.interaction is None:
        return 0.0
    return float(inner_product(state, interaction_term(state, h)).real)


def gaussian_profile(strength: float, width: float) -> Callable[[np.ndarray], np.ndarray]:
    """Collision-type coupling profile g * exp(-delta^2 / 2 width^2)."""
    if width <= 0.0:
        raise ValidationError("coupling width must be positive")

    def profile(delta: np.ndarray) -> np.ndarray:
        return strength * np.exp(-(delta**2) / (2.0 * width**2))

    return profile
