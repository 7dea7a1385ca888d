"""Hamiltonians and unitary propagation on labeled tensor-product spaces.

One private operator holds the grid Hamiltonian H = T + W of a
HamiltonianSpec on a space: the kinetic term T(k), diagonal in the momentum
representation of each coordinate factor, and the position-local part
W(x) = potentials + g(x) K + H_int, kept as its parts and applied along the
level axis as d^2 multiply-adds on level slabs.  The propagator, <H>,
<H_coupling> and the center-of-mass residual are all derived from it, so
the operator that is checked is the one that propagates.

The propagator is a second-order Strang splitting,

    exp(-i W dt / 2 hbar) exp(-i T dt / hbar) exp(-i W dt / 2 hbar).

Each factor is exactly unitary, so the norm is preserved to rounding over
arbitrarily long runs and evolving with dt -> -dt inverts a step exactly.

Between checkpoints the closing half-potential of one step and the opening
half-potential of the next are merged into one full-step factor (Feit,
Fleck & Steiger, J. Comput. Phys. 47 (1982) 412), so `steps` steps apply
W/2 T W T ... W T and one position-local factor per step.  Each stored
state gets its own closing W/2: it is a whole Strang step, and the running
product does not depend on where the checkpoints fall.  After the loop,
evolve_exact records <H> and <H_coupling> of every stored checkpoint.

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


def _along(space: Space, label: str, values: np.ndarray) -> np.ndarray:
    """Values over one factor, shaped to broadcast along its axis."""
    shape = [1] * len(space.dims)
    shape[space.axis(label)] = values.size
    return values.reshape(shape)


def _coordinate(space: Space, label: str, what: str) -> Factor:
    f = space.factor(label)
    if not f.is_coordinate:
        raise ValidationError(f"{what} on non-coordinate factor {label!r}")
    return f


class _GridHamiltonian:
    """H = T + W of one HamiltonianSpec on one space, built once.

    T(k) is diagonal in the momentum representation of the kinetic axes and
    is kept as one term per axis.  W(x) = V(x) + g(x) K + H_int is kept as
    its parts: the summed potentials and the coupling profile g(x), both
    broadcast over positions, and the level matrices K and H_int.  The
    propagator factors, <H>, <H_coupling> and the center-of-mass residual
    are all derived from these arrays.
    """

    def __init__(self, space: Space, h: HamiltonianSpec):
        self.space = space
        self.hbar = h.hbar
        self.kinetic_axes = sorted(space.axis(label) for label in h.kinetic)
        self.kinetic_terms = []
        for label, mass in h.kinetic.items():
            grid = _coordinate(space, label, "kinetic term").grid
            if mass <= 0.0:
                raise ValidationError(f"kinetic mass for {label!r} must be positive")
            k = _along(space, label, grid.wavenumbers())
            self.kinetic_terms.append((h.hbar * k) ** 2 / (2.0 * mass))

        self.potential = np.zeros((1,) * len(space.dims))
        for label, spec in h.potentials.items():
            values = _sampled_potential(spec, _coordinate(space, label, "potential").grid)
            self.potential = self.potential + _along(space, label, values)

        self.profile = self.coupling = self.internal = self.level_axis = None
        ia = h.interaction
        if ia is not None:
            subject = _coordinate(space, ia.subject, "interaction subject").grid
            delta = _along(space, ia.subject, subject.positions())
            if ia.anchor is None:
                delta = delta - ia.anchor_position
            else:
                anchor = _coordinate(space, ia.anchor, "interaction anchor").grid
                delta = delta - _along(space, ia.anchor, anchor.positions())
            self.profile = np.asarray(ia.profile(delta), dtype=float)
            self.coupling = _check_hermitian(ia.coupling, "interaction coupling")
        if h.internal is not None:
            if ia is not None and h.internal[0] != ia.level:
                raise ValidationError(
                    "internal Hamiltonian and interaction act on different level factors"
                )
            self.internal = _check_hermitian(h.internal[1], "internal Hamiltonian")
        level_label = ia.level if ia is not None else h.internal[0] if h.internal else None
        if level_label is not None:
            level = space.factor(level_label)
            if level.is_coordinate:
                raise ValidationError(f"factor {level_label!r} is not a level factor")
            if any(m is not None and m.shape[0] != level.dim
                   for m in (self.coupling, self.internal)):
                raise ValidationError(
                    f"level matrices do not match the dimension of {level_label!r}"
                )
            self.level_axis = space.axis(level_label)

    def kinetic(self) -> np.ndarray:
        """T(k) over the kinetic axes, summed from its per-axis terms on each
        use, so that no full-size copy stays alive while a run propagates."""
        return sum(self.kinetic_terms, np.zeros((1,) * len(self.space.dims)))

    def check_time_step(self, dt: float) -> None:
        if dt == 0.0:
            raise ValidationError("time step must be nonzero")
        ceiling = sum(float(t.max()) for t in self.kinetic_terms)
        if abs(dt) * ceiling / self.hbar > math.pi + 1e-12:
            raise ValidationError(
                f"time step {dt:g} violates the anti-aliasing bound "
                f"dt * T_max / hbar <= pi (T_max = {ceiling:g})"
            )

    def propagators(self, dt: float):
        """exp(-i T dt / hbar) (None without kinetic terms), then the
        position-local factors exp(-i W dt / 2 hbar) and exp(-i W dt / hbar).

        With a level factor, W is assembled per position only to feed eigh,
        and each factor is returned level indices first, every entry a
        contiguous array over positions, for `levels`.
        """
        self.check_time_step(dt)
        phase = None
        if self.kinetic_axes:
            phase = np.exp(-1j * dt * (self.kinetic() / self.hbar))
        if self.level_axis is None:
            half = np.exp(-0.5j * dt * self.potential / self.hbar)
            return phase, half, half**2
        block = self.potential[..., None, None] * np.eye(self.space.dims[self.level_axis])
        if self.profile is not None:
            block = block + self.profile[..., None, None] * self.coupling
        if self.internal is not None:
            block = block + self.internal
        evals, evecs = np.linalg.eigh(np.squeeze(block, axis=self.level_axis))
        del block
        half = np.exp(-0.5j * dt * evals / self.hbar)
        return phase, *(
            np.einsum("...ij,...j,...kj->ik...", evecs, p, evecs.conj(), order="C")
            for p in (half, half**2)
        )

    def levels(self, matrix, amps: np.ndarray) -> np.ndarray:
        """sum_j matrix[i, j] amps[..., j, ...] along the level axis.

        Entries are numbers (K, H_int) or arrays over positions that broadcast
        against one level slab (the Strang factors): d^2 multiply-adds on
        slabs, not a matrix product per position.
        """
        head = (slice(None),) * self.level_axis
        d = amps.shape[self.level_axis]
        out = np.empty_like(amps)
        for i in range(d):
            row = out[head + (i, ...)]
            np.multiply(matrix[i, 0], amps[head + (0, ...)], out=row)
            for j in range(1, d):
                row += matrix[i, j] * amps[head + (j, ...)]
        return out

    def local(self, factor, amps: np.ndarray) -> np.ndarray:
        """Apply a position-local factor from `propagators`."""
        return factor * amps if self.level_axis is None else self.levels(factor, amps)

    def spectral(self, multiplier: np.ndarray, amps: np.ndarray) -> np.ndarray:
        """Multiply by a function of k (T or its phase) over the kinetic axes."""
        out = np.fft.fftn(amps, axes=self.kinetic_axes)
        out *= multiplier
        return np.fft.ifftn(out, axes=self.kinetic_axes)

    def coupling_energy(self, amps: np.ndarray) -> float:
        """<g(x) K>, or 0.0 without a coupling."""
        if self.profile is None:
            return 0.0
        k_psi = self.levels(self.coupling, amps)
        k_psi *= self.profile
        return float(np.vdot(amps, k_psi).real) * self.space.volume_element

    def uncoupled_energy(self, amps: np.ndarray) -> float:
        """<T + V + H_int>, with <T> = sum_k T(k) |psi(k)|^2 / N from one FFT."""
        total = np.sum(self.potential * np.abs(amps) ** 2)
        if self.internal is not None:
            total += np.vdot(amps, self.levels(self.internal, amps)).real
        if self.kinetic_axes:
            psi_k = np.fft.fftn(amps, axes=self.kinetic_axes)
            n = math.prod(self.space.dims[axis] for axis in self.kinetic_axes)
            total += np.sum(self.kinetic() * np.abs(psi_k) ** 2) / n
        return float(total * self.space.volume_element)


def check_time_step(space: Space, h: HamiltonianSpec, dt: float) -> None:
    """Reject a zero step, or one whose fastest kinetic phase aliases."""
    _GridHamiltonian(space, h).check_time_step(dt)


@dataclass(eq=False)
class PropagationResult:
    """Checkpointed trajectory of one propagation run, with <H> and
    <H_coupling> of each stored checkpoint (aligned with `trajectory`)."""

    trajectory: list[tuple[float, StateVector]]
    final: StateVector
    norm_drift: float
    energies: list[float]
    couplings: list[float]


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
    checkpoint norm from 1.  <H> and <H_coupling> are taken from the same
    operator that propagates, after the loop has released its arrays.
    """
    if steps < 0:
        raise ValidationError("steps must be >= 0")
    if checkpoint_every < 1:
        raise ValidationError("checkpoint_every must be >= 1")
    op = _GridHamiltonian(psi0.space, h)
    phase, half, full = op.propagators(dt)
    amps = psi0.amplitudes
    trajectory: list[tuple[float, StateVector]] = [(0.0, psi0)]
    norm_drift = abs(psi0.norm - 1.0)
    # The first step opens with W/2; every later one opens with W, its own
    # W/2 merged with the closing W/2 of the step before.
    opening = half
    for n in range(1, steps + 1):
        amps = op.local(opening, amps)
        if phase is not None:
            amps = op.spectral(phase, amps)
        opening = full
        if n % checkpoint_every == 0 or n == steps:
            state = StateVector(psi0.space, op.local(half, amps))
            trajectory.append((n * dt, state))
            norm_drift = max(norm_drift, abs(state.norm - 1.0))
    del amps, opening, half, full, phase
    couplings = [op.coupling_energy(s.amplitudes) for _, s in trajectory]
    energies = [op.uncoupled_energy(s.amplitudes) + c
                for (_, s), c in zip(trajectory, couplings)]
    return PropagationResult(trajectory, trajectory[-1][1], norm_drift, energies, couplings)


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
    op = _GridHamiltonian(psi1.space, HamiltonianSpec(kinetic={cm_label: mass}, hbar=hbar))
    amps = op.spectral(op.kinetic(), psi1.amplitudes)
    return float(math.sqrt(np.sum(np.abs(amps) ** 2) * psi1.space.volume_element))


def fidelity_deficit(a: StateVector, b: StateVector) -> float:
    """1 - |<a, b>| for states on the same space."""
    return 1.0 - abs(inner_product(a, b))


def total_energy(state: StateVector, h: HamiltonianSpec) -> float:
    """<H> of one state."""
    op = _GridHamiltonian(state.space, h)
    return op.uncoupled_energy(state.amplitudes) + op.coupling_energy(state.amplitudes)


def interaction_energy(state: StateVector, h: HamiltonianSpec) -> float:
    """Expectation of the coupling term alone."""
    return _GridHamiltonian(state.space, h).coupling_energy(state.amplitudes)


def gaussian_profile(strength: float, width: float) -> Callable[[np.ndarray], np.ndarray]:
    """Collision-type coupling profile g * exp(-delta^2 / 2 width^2)."""
    if width <= 0.0:
        raise ValidationError("coupling width must be positive")

    def profile(delta: np.ndarray) -> np.ndarray:
        return strength * np.exp(-(delta**2) / (2.0 * width**2))

    return profile
