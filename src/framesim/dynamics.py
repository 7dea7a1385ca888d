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
product does not depend on where the checkpoints fall.  A run can hand its
checkpoints to a callback as they are closed (Checkpoints) instead of
storing them.  <H> and
<H_coupling> of the stored checkpoints are the 1 x 1 case of the
operator's one matrix-element pass, taken together when first read; the
same pass gives the L x L matrices <psi_l|H|psi_m> of a list of states.  It
streams every state in blocks of at most DIAGNOSTIC_CHUNK amplitudes, so
its temporaries do not grow with the state.  The position-local parts are
summed over blocks of whole rows of the first non-level axis.  T is summed
one kinetic axis at a time, from 1-D FFTs along that axis alone: by
Parseval the other axes need no transform.  The center-of-mass residual
||P^2/2M psi||^2 is the same per-axis sum with the multiplier T^2.

A step runs level row by level row between two buffers that hold the
state level factor first, so each level slab is contiguous.  psi0 is copied
into that order once, and when that copies, the copy is one of the two
buffers; each checkpoint is closed straight into its own array in the
caller's order, allocated as it is closed, and the final one after the
spare buffer is freed.  The kinetic factor is diagonal in the level index,
so row i of a step is row i of the position-local factor (d multiply-adds
on level slabs) followed by the kinetic phase between in-place FFTs of that
one slab.  The stacked factor is the first non-level axis when no kinetic
term acts on it: the index k of a stack of states, or an anchor coordinate
that nothing moves.  Its rows never mix, so a state is cut into contiguous
blocks of them, and every operand that varies along it (the position-local
factors, and the kinetic phase when each row has its own mass) is cut with
it.  When the blocks hold THREADED_SLAB amplitudes or more, the calling
thread and up to min(rows, usable CPUs) - 1 helper threads of a pool that
lives for one call each carry one block from one checkpoint to the next,
so the threads join only at checkpoints; smaller states, and states
without a stacked factor, run as one block on the calling thread.  Each
amplitude goes through the same numpy calls in the same order either way
(the 1-D transforms last axis first, as fftn does), so the result is
bit-identical whatever the number of threads or the caller's factor order.
A kinetic mass is one number, or one per index of the stacked factor
LABEL_K, so that stacked rows can be systems of different masses.

The heavy subsystem machinery lives here as well.  evolve_factorized
returns the final relative state of the product approximation: the
coupling's anchor is frozen at the heavy packet's centre, and no term
depends on the heavy mass.  The collision takes that state, bit for bit
the same, from the last row of its residual window's stacked run, so
evolve_factorized is library API.  factorization_residual measures the
norm of the neglected center-of-mass kinetic term acting on a relative
state that still carries explicit anchor-coordinate dependence.  The
collision's exact run needs nothing more: in Jacobi coordinates its
coupling is a profile of the relative coordinate alone (an anchor frozen at
0), and its stacked Schmidt terms are one more factor that no term acts on,
which every operator part broadcasts over.  The residual's anchor-resolved state comes the same way,
from one stacked relative run of plane waves; only its cross-check
evaluates a coupling anchored to the window's positions.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .errors import ValidationError
from .hilbert import Factor, Space, StateVector, inner_product

HERMITICITY_TOL = 1e-12
# The heavy system's center-of-mass factor, and the index of stacked states.
LABEL_CM = "A_cm"
LABEL_K = "k"
# Amplitudes per block of the stacked factor from which blocks run on threads.
THREADED_SLAB = 1 << 14
# Positions per eigh block when the Strang factors are built.
FACTOR_CHUNK = 1 << 13
# Amplitudes per block when <H> and <H_coupling> are summed.
DIAGNOSTIC_CHUNK = 1 << 16


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

    kinetic maps coordinate labels to masses, each one number or a 1-D array
    with one mass per index of the stacked factor LABEL_K; potentials maps
    coordinate labels to either a callable sampled on the grid or a
    pre-sampled array; internal is an optional (level label, Hermitian
    matrix) pair.
    """

    kinetic: Mapping[str, float | np.ndarray]
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


def _kinetic_mass(space: Space, label: str, mass):
    """A kinetic mass as given, or one mass per index of the stacked factor
    LABEL_K, shaped to broadcast along it."""
    masses = np.asarray(mass, dtype=float)
    if masses.ndim:
        rows = space.factor(LABEL_K).dim if space.has(LABEL_K) else None
        if masses.shape != (rows,):
            raise ValidationError(
                f"kinetic masses for {label!r} must be one per index of {LABEL_K!r} "
                f"({rows} in {space.labels}), got shape {masses.shape}"
            )
    if not np.all(np.isfinite(masses) & (masses > 0.0)):
        raise ValidationError(f"kinetic mass for {label!r} must be positive and finite")
    return _along(space, LABEL_K, masses) if masses.ndim else mass


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
        # T(k) per kinetic axis, in the order of h.kinetic.
        self.kinetic_terms = {}
        for label, mass in h.kinetic.items():
            grid = _coordinate(space, label, "kinetic term").grid
            k = _along(space, label, grid.wavenumbers())
            self.kinetic_terms[space.axis(label)] = (
                (h.hbar * k) ** 2 / (2.0 * _kinetic_mass(space, label, mass)))

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
        return sum(self.kinetic_terms.values(), np.zeros((1,) * len(self.space.dims)))

    def check_time_step(self, dt: float) -> None:
        if dt == 0.0:
            raise ValidationError("time step must be nonzero")
        ceiling = sum(float(t.max()) for t in self.kinetic_terms.values())
        if abs(dt) * ceiling / self.hbar > math.pi + 1e-12:
            raise ValidationError(
                f"time step {dt:g} violates the anti-aliasing bound "
                f"dt * T_max / hbar <= pi (T_max = {ceiling:g})"
            )

    def propagators(self, dt: float):
        """exp(-i T dt / hbar) (None without kinetic terms), then the
        position-local factors exp(-i W dt / 2 hbar) and exp(-i W dt / hbar).

        With a level factor, each factor is returned level indices first,
        every entry a contiguous array over positions, for `levels`.  W is
        assembled per position only to feed eigh, FACTOR_CHUNK positions at
        a time, and each chunk's factors are written straight into the
        outputs; eigh works matrix by matrix, so the chunking does not change
        a bit.
        """
        phase = None
        if self.kinetic_axes:
            phase = np.exp(-1j * dt * (self.kinetic() / self.hbar))
        if self.level_axis is None:
            half = np.exp(-0.5j * dt * self.potential / self.hbar)
            return phase, half, half**2
        d = self.space.dims[self.level_axis]
        parts = [np.squeeze(p, axis=self.level_axis)
                 for p in (self.potential, self.profile) if p is not None]
        shape = np.broadcast_shapes(*(p.shape for p in parts))
        # Flat iterators over the broadcast parts: a chunk is read without
        # materialising the whole position grid.
        potential, *profile = (np.broadcast_to(p, shape).flat for p in parts)
        half, full = (np.empty((d, d, *shape), dtype=np.complex128) for _ in range(2))
        outputs = half.reshape(d, d, -1), full.reshape(d, d, -1)
        for start in range(0, math.prod(shape), FACTOR_CHUNK):
            chunk = slice(start, start + FACTOR_CHUNK)
            block = potential[chunk][:, None, None] * np.eye(d)
            if profile:
                block = block + profile[0][chunk][:, None, None] * self.coupling
            if self.internal is not None:
                block = block + self.internal
            evals, evecs = np.linalg.eigh(block)
            p = np.exp(-0.5j * dt * evals / self.hbar)
            for out, q in zip(outputs, (p, p**2)):
                np.einsum("...ij,...j,...kj->ik...", evecs, q, evecs.conj(),
                          out=out[:, :, chunk])
        return phase, half, full

    def levels(self, matrix, amps: np.ndarray, out: np.ndarray | None = None,
               scratch: np.ndarray | None = None) -> np.ndarray:
        """sum_j matrix[i, j] amps[..., j, ...] along the level axis.

        Entries are numbers (K, H_int) or arrays over positions that broadcast
        against one level slab (the Strang factors): d^2 multiply-adds on
        slabs, not a matrix product per position.  `matrix` may be some rows
        of the operator, e.g. matrix[i:i + 1], with `out` holding as many
        level slabs; `scratch` is one slab of work space.
        """
        head = (slice(None),) * self.level_axis
        d = amps.shape[self.level_axis]
        if out is None:
            out = np.empty_like(amps)
        if scratch is None and d > 1:
            scratch = np.empty_like(amps[head + (0, ...)])
        for i in range(len(matrix)):
            row = out[head + (i, ...)]
            np.multiply(matrix[i, 0], amps[head + (0, ...)], out=row)
            for j in range(1, d):
                np.multiply(matrix[i, j], amps[head + (j, ...)], out=scratch)
                row += scratch
        return out

    def spectral(self, multiplier: np.ndarray, amps: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Multiply by a function of k (T or its phase) over the kinetic axes.

        The 1-D transforms run last kinetic axis first, as numpy's fftn and
        ifftn do, and in place in `out` (which may be `amps`).
        """
        for axis in reversed(self.kinetic_axes):
            out = np.fft.fft(amps, axis=axis, out=out)
            amps = out
        out *= multiplier
        for axis in reversed(self.kinetic_axes):
            np.fft.ifft(out, axis=axis, out=out)
        return out

    def step_row(self, factor, phase, amps: np.ndarray, out: np.ndarray, i: int,
                 scratch: np.ndarray | None) -> None:
        """Level row i of one split step, into out: that row of the
        position-local factor, then the kinetic phase on it in place.

        The kinetic factor is diagonal in the level index, so row i reads
        every level slab of amps but writes only slab i of out, and rows can
        run concurrently.  The level axis is 0; without one the row is the state.
        """
        if self.level_axis is None:
            target = np.multiply(factor, amps, out=out)
        else:
            target = out[i:i + 1]
            self.levels(factor[i:i + 1], amps, target, scratch)
        if phase is not None:
            self.spectral(phase, target, target)

    def blocks(self) -> tuple[int, list[slice]]:
        """The first non-level axis and its cut into blocks of whole rows,
        each of at most DIAGNOSTIC_CHUNK amplitudes (or one row, if a row
        holds more).  A state of at most DIAGNOSTIC_CHUNK amplitudes is one
        block."""
        dims = self.space.dims
        cut = next((axis for axis in range(len(dims)) if axis != self.level_axis), 0)
        rows = max(1, DIAGNOSTIC_CHUNK * dims[cut] // math.prod(dims))
        return cut, [slice(start, start + rows) for start in range(0, dims[cut], rows)]

    def elements(self, states: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """<psi_l| T + V + H_int |psi_m> and <psi_l| g(x) K |psi_m> for every
        pair of the states, two L x L matrices.  The position-local parts are
        summed over `blocks`, T one kinetic axis at a time (`_spectral_sum`).
        A zero V adds nothing and is skipped; without a coupling the second
        matrix is zeros."""
        uncoupled, coupling = (np.zeros((len(states), len(states)), dtype=np.complex128)
                               for _ in range(2))
        cut, blocks = self.blocks()
        potential = self.potential.any()
        for rows in blocks:
            index = (slice(None),) * cut + (rows,)
            chunk = [_block_of(psi, index) for psi in states]
            if self.profile is not None:
                profile = _block_of(self.profile, index)
                kets = (self.levels(self.coupling, psi) for psi in chunk)
                coupling += _overlaps(chunk, [np.multiply(k, profile, out=k) for k in kets])
            if potential:
                v = _block_of(self.potential, index)
                uncoupled += _overlaps(chunk, [v * psi for psi in chunk])
            if self.internal is not None:
                uncoupled += _overlaps(chunk, [self.levels(self.internal, psi) for psi in chunk])
        for axis, t in self.kinetic_terms.items():
            uncoupled += _spectral_sum(states, axis, t)
        dv = self.space.volume_element
        return uncoupled * dv, coupling * dv

    def expectations(self, amps: np.ndarray) -> tuple[float, float]:
        """<H> and <H_coupling> of one state, from one `elements` pass."""
        uncoupled, coupling = (float(m[0, 0].real) for m in self.elements([amps]))
        return uncoupled + coupling, coupling


def _block_of(values: np.ndarray, index: tuple) -> np.ndarray:
    """values[index], with every axis of length 1 (one that only
    broadcasts) taken whole."""
    return values[tuple(i if n > 1 else slice(None) for i, n in zip(index, values.shape))]


def _overlaps(bras: list[np.ndarray], kets: list[np.ndarray]) -> np.ndarray:
    """sum conj(bra_l) ket_m over all entries, for every pair: L x M."""
    return np.array([[np.vdot(bra, ket) for ket in kets] for bra in bras])


def _spectral_sum(states: list[np.ndarray], axis: int, multiplier: np.ndarray) -> np.ndarray:
    """sum_k multiplier(k) conj(psi_l(k)) psi_m(k) / N over the 1-D FFTs of
    the states along one axis of N points, for every pair: L x L.  By
    Parseval this is <psi_l| m(k) |psi_m> summed over the other indices,
    which need no transform.  Each state, viewed as (before, N, after), is
    cut into blocks of at most DIAGNOSTIC_CHUNK amplitudes: whole (N, after)
    slabs grouped while they fit, otherwise columns of one slab.  A
    multiplier that also varies along another axis (a mass per row of a
    stack) is summed one index of that axis at a time."""
    dims = states[0].shape
    other = [a for a, n in enumerate(multiplier.shape) if n > 1 and a != axis]
    if other:
        head = (slice(None),) * other[0]
        return sum(_spectral_sum([psi[head + (j,)] for psi in states],
                                 axis - (other[0] < axis), multiplier[head + (j,)])
                   for j in range(dims[other[0]]))
    n, after = dims[axis], math.prod(dims[axis + 1:])
    shape = (math.prod(dims[:axis]), n, after)
    slabs = max(1, DIAGNOSTIC_CHUNK // (n * after))
    width = min(after, max(1, DIAGNOSTIC_CHUNK // n))
    m = multiplier.reshape(n, 1)
    views = [psi.reshape(shape) for psi in states]
    total = np.zeros((len(states), len(states)), dtype=np.complex128)
    for start in range(0, shape[0], slabs):
        for column in range(0, after, width):
            block = (slice(start, start + slabs), slice(None), slice(column, column + width))
            spectra = [np.fft.fft(psi[block], axis=1) for psi in views]
            total += _overlaps(spectra, [m * psi_k for psi_k in spectra])
    return total / n


def check_time_step(space: Space, h: HamiltonianSpec, dt: float) -> None:
    """Reject a zero step, or one whose fastest kinetic phase aliases."""
    _GridHamiltonian(space, h).check_time_step(dt)


@dataclass(eq=False)
class PropagationResult:
    """Checkpointed trajectory of one propagation run.  <H> and
    <H_coupling> of each stored checkpoint (aligned with `trajectory`) are
    taken from the run's H in the caller's factor order, on first access."""

    trajectory: list[tuple[float, StateVector]]
    final: StateVector
    norm_drift: float
    operator: _GridHamiltonian = field(repr=False)

    @cached_property
    def _diagnostics(self) -> list[tuple[float, float]]:
        """(<H>, <H_coupling>) of each checkpoint, from one pass each."""
        return [self.operator.expectations(s.amplitudes) for _, s in self.trajectory]

    @property
    def energies(self) -> list[float]:
        return [energy for energy, _ in self._diagnostics]

    @property
    def couplings(self) -> list[float]:
        return [coupling for _, coupling in self._diagnostics]


@dataclass(frozen=True)
class Checkpoints:
    """A checkpoint stride whose states go to `receive(t, state)`, on the
    calling thread, as each is closed (t = 0 and the final state included),
    instead of being stored.  evolve_exact takes it in place of
    `checkpoint_every`, so a call keeps the (psi0, h, dt, steps,
    checkpoint_every) form that wrappers of evolve_exact forward."""

    every: int
    receive: Callable[[float, StateVector], None]


def _usable_cpus() -> int:
    """The CPUs this process may run on; all of them where the platform has
    no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stacked_blocks(stepper: _GridHamiltonian) -> list[tuple]:
    """Index tuples of the blocks a run's workers carry, one per worker.

    The stacked factor is the stepper's first non-level axis when no kinetic
    term acts on it.  Its rows never mix, so each worker takes a contiguous
    block of them: as many workers as there are rows and usable CPUs, while
    each block holds THREADED_SLAB amplitudes or more.  Without a stacked
    factor the whole state is one block.
    """
    dims = stepper.space.dims
    axis = 0 if stepper.level_axis is None else 1
    if axis == len(dims) or axis in stepper.kinetic_axes:
        return [(Ellipsis,)]
    workers = min(dims[axis], max(1, math.prod(dims) // THREADED_SLAB))
    if workers > 1:
        workers = min(workers, _usable_cpus())
    bounds = [dims[axis] * w // workers for w in range(workers + 1)]
    return [(slice(None),) * axis + (slice(a, b),) for a, b in zip(bounds, bounds[1:])]


def evolve_exact(
    psi0: StateVector,
    h: HamiltonianSpec,
    dt: float,
    steps: int,
    checkpoint_every: int | Checkpoints = 100,
) -> PropagationResult:
    """Split-step propagation of psi0 under h for `steps` steps of size dt.

    Checkpoints (including t=0 and the final state) are stored every
    `checkpoint_every` steps; each is a whole Strang step, closed by its own
    half-potential.  Norm drift is the largest deviation of any
    checkpoint norm from 1.  <H> and <H_coupling> of each checkpoint are
    taken from the H that propagates, in the caller's order, when first read.
    With a Checkpoints in place of the stride, each checkpoint goes to its
    callback instead, and `trajectory` keeps only psi0 and the final state.
    """
    stream = checkpoint_every if isinstance(checkpoint_every, Checkpoints) else None
    every = stream.every if stream else checkpoint_every
    if steps < 0:
        raise ValidationError("steps must be >= 0")
    if every < 1:
        raise ValidationError("checkpoint_every must be >= 1")
    op = _GridHamiltonian(psi0.space, h)
    op.check_time_step(dt)
    trajectory: list[tuple[float, StateVector]] = [(0.0, psi0)]
    norm_drift = abs(psi0.norm - 1.0)
    if stream:
        stream.receive(0.0, psi0)
    # A zero-step call only takes the diagnostics, so it builds no factors
    # and allocates no buffers.
    if steps:
        factors = psi0.space.factors
        order = sorted(range(len(factors)), key=lambda axis: axis != op.level_axis)
        stepper = _GridHamiltonian(Space(tuple(factors[axis] for axis in order)), h)
        phase, half, full = stepper.propagators(dt)
        start = np.ascontiguousarray(psi0.amplitudes.transpose(order))
        rows = 1 if stepper.level_axis is None else start.shape[0]
        blocks = _stacked_blocks(stepper)
        # The transposed copy of the start, when there is one, is the first
        # of the two step buffers; step n writes buffers[n % 2].
        fresh = np.may_share_memory(start, psi0.amplitudes)
        buffers = [np.empty_like(start) if fresh else start, np.empty_like(start)]
        # A level factor's position-local factors lead with its matrix axes.
        lead = (slice(None),) * (stepper.level_axis is not None)

        def rows_into(factor, kinetic, src, dst, scratch) -> None:
            """Every level row of one block of a step, or of a closing W/2
            (no kinetic phase), from src into dst."""
            for i in range(rows):
                stepper.step_row(factor, kinetic, src, dst, i, scratch)

        def advance(index, first: int, stop: int, src: np.ndarray) -> None:
            """Steps first to stop of one block, with each operand that
            varies along the stacked axis cut to it.  The first step opens
            with W/2; every later one with W, its own W/2 merged with the
            closing W/2 of the step before."""
            opening, merged = (_block_of(f, lead + index) for f in (half, full))
            kinetic = None if phase is None else _block_of(phase, index)
            scratch = np.empty_like(src[index][0]) if rows > 1 else None
            for n in range(first, stop + 1):
                rows_into(opening if n == 1 else merged, kinetic, src[index],
                          buffers[n % 2][index], scratch)
                src = buffers[n % 2]

        def close(index, src: np.ndarray, dst: np.ndarray) -> None:
            """The closing W/2 of one block, from src into dst."""
            rows_into(_block_of(half, lead + index), None, src[index], dst[index],
                      np.empty_like(src[index][0]) if rows > 1 else None)

        helpers = None
        if len(blocks) > 1:
            from concurrent.futures import ThreadPoolExecutor
            helpers = ThreadPoolExecutor(len(blocks) - 1)

        def each_block(task, *args) -> None:
            """task for every block: the calling thread takes the first."""
            shares = [helpers.submit(task, index, *args) for index in blocks[1:]]
            try:
                task(blocks[0], *args)
            finally:
                for share in shares:
                    share.result()

        try:
            done, src = 0, start
            del start
            while done < steps:
                stop = min((done // every + 1) * every, steps)
                each_block(advance, done + 1, stop, src)
                done, src = stop, buffers[stop % 2]
                if done == steps:
                    buffers[(done + 1) % 2] = None  # not alive beside the final state
                # The state is closed straight into its own array, in the
                # caller's factor order.
                stored = np.empty(psi0.space.dims, dtype=np.complex128)
                each_block(close, src, stored.transpose(order))
                state = StateVector(psi0.space, stored)
                norm_drift = max(norm_drift, abs(state.norm - 1.0))
                if stream:
                    stream.receive(done * dt, state)
                if stream is None or done == steps:
                    trajectory.append((done * dt, state))
        finally:
            if helpers is not None:
                helpers.shutdown()
    return PropagationResult(trajectory, trajectory[-1][1], norm_drift, op)


def evolve_factorized(
    psi1_0: StateVector, h: HamiltonianSpec, dt: float, steps: int
) -> StateVector:
    """The relative state of the product approximation at the final time.

    psi1_0 evolves under h, which must hold no term of the heavy packet's
    coordinate; a coupling anchored to that coordinate is frozen at 0, the
    packet's centre (the narrow-packet limit).  No term depends on the heavy
    mass, so one run serves every mass of a sweep.  The final state does not
    depend on the checkpoint stride, so none but it is stored.
    """
    ia = h.interaction
    if ia is not None and ia.anchor is not None:
        h = replace(h, interaction=ia.frozen_at(0.0))
    return evolve_exact(psi1_0, h, dt, steps, max(steps, 1)).final


def factorization_residual(psi1: StateVector, mass: float, hbar: float = 1.0) -> float:
    """Norm of the neglected center-of-mass kinetic term P^2/(2 mass) psi1.

    psi1 must carry the center-of-mass coordinate explicitly; its dependence
    on that coordinate is differentiated spectrally.  States with no such
    dependence give 0.
    """
    if not psi1.space.has(LABEL_CM):
        raise ValidationError(
            f"missing center-of-mass factor {LABEL_CM!r} in {psi1.space.labels}"
        )
    op = _GridHamiltonian(psi1.space, HamiltonianSpec(kinetic={LABEL_CM: mass}, hbar=hbar))
    # ||P^2/2M psi||^2 = sum_k T(k)^2 |psi(k)|^2 / N by Parseval.
    axis = psi1.space.axis(LABEL_CM)
    square = _spectral_sum([psi1.amplitudes], axis, op.kinetic_terms[axis] ** 2)[0, 0].real
    return float(math.sqrt(square * psi1.space.volume_element))


def fidelity_deficit(a: StateVector, b: StateVector) -> float:
    """1 - |<a, b>| for states on the same space."""
    return 1.0 - abs(inner_product(a, b))


def matrix_elements(
    states: list[StateVector], h: HamiltonianSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """<psi_l|psi_m>, <psi_l|H|psi_m> and <psi_l|H_coupling|psi_m> for every
    pair of states on one space, each an L x L matrix."""
    op = _GridHamiltonian(states[0].space, h)
    amps = [s.amplitudes for s in states]
    uncoupled, coupling = op.elements(amps)
    return _overlaps(amps, amps) * op.space.volume_element, uncoupled + coupling, coupling


def expectations(state: StateVector, h: HamiltonianSpec) -> tuple[float, float]:
    """<H> and <H_coupling> of one state, from one matrix-element pass."""
    return _GridHamiltonian(state.space, h).expectations(state.amplitudes)


def total_energy(state: StateVector, h: HamiltonianSpec) -> float:
    """<H> of one state."""
    return expectations(state, h)[0]


def interaction_energy(state: StateVector, h: HamiltonianSpec) -> float:
    """Expectation of the coupling term alone."""
    return expectations(state, h)[1]


def gaussian_profile(strength: float, width: float) -> Callable[[np.ndarray], np.ndarray]:
    """Collision-type coupling profile g * exp(-delta^2 / 2 width^2)."""
    if width <= 0.0:
        raise ValidationError("coupling width must be positive")

    def profile(delta: np.ndarray) -> np.ndarray:
        return strength * np.exp(-(delta**2) / (2.0 * width**2))

    return profile
