"""End-to-end experiments: collision runs and a position-measurement model.

Both scenarios follow a three-period structure: the coupling is negligible
while the packets are separated, active during passage, and negligible again
once the light system has left.  run_collision checks this contract on the
checkpointed trajectory; the measurement scenario keeps its outgoing probe
particle uncoupled throughout, so the contract holds for it structurally.

The collision couples a single particle to the heavy system through a
Gaussian collision profile paired with a Hermitian matrix on the internal
levels.  Level transitions exchange energy with the particle, so the
outgoing packet is entangled with the internal state while the momentum
transferred to the heavy center of mass stays small; the product
approximation then improves as 1/mass along a sweep.

The collision's heavy subsystem is propagated in its intrinsic frame, the
center-of-mass frame.  In Jacobi coordinates its free motion separates from
the relative motion that the coupling acts on, so each mass's exact run is
one small stacked relative run from its start's split (_jacobi_split),
mapped to the heavy and light grids only at t_final (_collision_exact).
The residual window is a relative run too: its anchors share one H_rel, so
the particle packet's plane waves run once as one stacked state, in an
orthonormal basis of the anchors' phases, and are mapped to each anchor at
t_final (_collision_residual).  The product approximation's relative state
runs under that H_rel as well, as the same stack's last row, so one
mass-free run serves the whole sweep.  The measurement runs its compounds
as one stacked state and its probe packets as another.

Absorption in the measurement scenario is modeled by static trapping wells
that hold the absorbed particle near the heavy system; this is a simulator
construction (no microscopic absorption mechanism is prescribed), and the
reports label it as such.  Absorption is declared when the particle's
probability mass inside the near region exceeds 1 - eps at the final time.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from itertools import combinations
from typing import Any, get_args, get_origin, get_type_hints

import numpy as np

from .dynamics import (
    HamiltonianSpec,
    Interaction,
    LABEL_CM,
    PropagationResult,
    check_time_step,
    evolve_exact,
    evolve_factorized,  # unused here; perfbench/spans.py wraps it by this name
    factorization_residual,
    fidelity_deficit,
    gaussian_profile,
    interaction_energy,
    matrix_elements,
    total_energy,  # unused here; perfbench/spans.py wraps it by this name
)
from .errors import PropagationError, ValidationError
from .frames import (
    extract_relative_state,
    lift_to_auxiliary,
    mixed_density_matrix,
    reduced_density_matrix,
    trace_distance,
    transform_to_intrinsic,
)
from .hilbert import (
    Factor,
    GaussianParams,
    Grid,
    Space,
    StateVector,
    inner_product,
    level_state,
    make_gaussian,
    position_marginal,
    superpose,
    tensor_product,
)
from .schmidt import (
    Bipartition,
    BranchSampler,
    DEFAULT_TRUNC_TOL,
    SchmidtResult,
    coefficient_matrix,
    entanglement_entropy,
    schmidt_decompose,
)

LABEL_INT = "A_int"
LABEL_S = "S"
LABEL_A = "a"
LABEL_B = "b"
# The Jacobi center of mass, and the index of the stacked relative states.
LABEL_R = "R"
LABEL_K = "k"

INTERACTION_TOL = 1e-8
SEPARATION_TOL = 1e-6
GRAM_TOL = 1e-12
# The collision's mapped state against its relative run: measured 5e-15 on
# the shipped grids, 5e-10 where the packet crosses the particle window.
JACOBI_TOL = 1e-8
# The residual window's mapped state against its anchor stack.  Its anchors
# are not multiples of the particle spacing, so the spectral shift meets g
# at other points than the relative run did: measured 1.1e-15 on the shipped
# grids, 4.9e-8 on <H_coupling> where a 256-point particle grid barely
# resolves g |psi|^2.
WINDOW_TOL = 1e-7
COEFF_NORM_TOL = 1e-10
# r columns per block of the collision's map-back: its (kappa, r) factors
# are that wide, not the whole r grid.
MAP_COLUMNS = 128
# Branch draws per chunk when the measurement counts its outcomes.
TRIAL_CHUNK = 1 << 20


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    points: int
    x_min: float
    x_max: float

    def to_grid(self) -> Grid:
        return Grid(self.points, self.x_min, self.x_max)


@dataclass(frozen=True)
class PacketSpec:
    r0: float
    p0: float
    sigma: float

    def params(self, mass: float, hbar: float, mass_unit: float) -> GaussianParams:
        return GaussianParams(
            r0=self.r0, p0=self.p0, sigma=self.sigma, mass=mass,
            hbar=hbar, mass_unit=mass_unit,
        )


@dataclass(frozen=True)
class ScheduleSpec:
    t_initial: float
    t_interaction: float
    t_final: float


@dataclass(frozen=True)
class CenterOfMassSpec:
    masses: tuple[float, ...]
    sigma_ref: float
    points: int
    half_width_sigmas: float
    residual_points: int = 256
    residual_half_width: float = 16.0


@dataclass(eq=False)
class InternalSpec:
    dim: int
    state: np.ndarray
    hamiltonian: np.ndarray


@dataclass(eq=False)
class CouplingSpec:
    strength: float
    width: float
    matrix: np.ndarray


@dataclass(eq=False)
class ParticleSpec:
    grid: GridSpec
    mass: float
    packet: PacketSpec


@dataclass(frozen=True)
class TrapSpec:
    depth: float
    width: float
    centers: tuple[float, ...]

    def potential(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x, dtype=float)
        for c in self.centers:
            out -= self.depth * np.exp(-((x - c) ** 2) / (2.0 * self.width**2))
        return out


@dataclass(eq=False)
class AbsorbedParticleSpec:
    grid: GridSpec
    mass: float
    packets: tuple[PacketSpec, PacketSpec]
    trap: TrapSpec


@dataclass(eq=False)
class FreeParticleSpec:
    grid: GridSpec
    mass: float
    packets: tuple[PacketSpec, PacketSpec]


@dataclass(eq=False)
class MeasurementSpec:
    """Entangled pair: `a` is absorbed near the heavy system, `b` flies free."""

    coefficients: np.ndarray
    a: AbsorbedParticleSpec
    b: FreeParticleSpec


@dataclass(frozen=True)
class PartitionGeometry:
    near_lo: float
    near_hi: float
    eps: float


@dataclass(frozen=True)
class SeedsSpec:
    branch: int
    trials: int


@dataclass(eq=False)
class ScenarioConfig:
    """Scenario parameters.  Each field name is its JSON key (SCHEMA.md), and
    the field types and defaults are the whole config schema."""

    scenario: str
    dt: float
    schedule: ScheduleSpec
    center_of_mass: CenterOfMassSpec
    internal: InternalSpec
    coupling: CouplingSpec
    partition: PartitionGeometry
    seeds: SeedsSpec
    hbar: float = 1.0
    mass_unit: float = 1.0
    checkpoint_every: int = 100
    particle: ParticleSpec | None = None
    measurement: MeasurementSpec | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        cfg = _decode(cls, raw, "")
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.scenario not in ("collision", "position_measurement"):
            raise ValidationError(
                f"unknown scenario {self.scenario!r}: expected 'collision' or "
                "'position_measurement'"
            )
        s = self.schedule
        if not (0.0 <= s.t_initial < s.t_interaction < s.t_final):
            raise ValidationError(
                "schedule must be strictly increasing: "
                f"0 <= t_initial < t_interaction < t_final, got "
                f"({s.t_initial}, {s.t_interaction}, {s.t_final})"
            )
        if self.dt <= 0.0:
            raise ValidationError("dt must be positive")
        ratio = s.t_final / self.dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValidationError("t_final must be an integer multiple of dt")
        if self.checkpoint_every < 1:
            raise ValidationError("checkpoint_every must be >= 1")
        if any(m <= 0.0 for m in self.center_of_mass.masses):
            raise ValidationError("all masses must be positive")
        if not self.center_of_mass.masses:
            raise ValidationError("center_of_mass.masses must be non-empty")
        if self.internal.state.shape != (self.internal.dim,):
            raise ValidationError("internal state must be a vector of length dim")
        if self.partition.eps <= 0.0 or self.partition.near_lo >= self.partition.near_hi:
            raise ValidationError("partition needs near_lo < near_hi and eps > 0")
        if self.seeds.branch < 0:
            raise ValidationError("seeds.branch must be >= 0")
        if self.seeds.trials < 1:
            raise ValidationError("seeds.trials must be >= 1")
        if self.scenario == "collision":
            if self.particle is None:
                raise ValidationError("collision scenario needs a 'particle' section")
        else:
            m = self.measurement
            if m is None:
                raise ValidationError(
                    "position_measurement scenario needs a 'measurement' section"
                )
            if len(self.center_of_mass.masses) != 1:
                raise ValidationError("position_measurement needs exactly one mass")
            if m.a.trap.width <= 0.0:
                raise ValidationError("measurement.a.trap.width must be positive")
            total = float(np.sum(np.abs(m.coefficients) ** 2))
            if abs(total - 1.0) > COEFF_NORM_TOL:
                raise ValidationError(
                    "measurement coefficients must satisfy sum |c_l|^2 = 1 "
                    f"within {COEFF_NORM_TOL:g} (got {total!r})"
                )
            if m.coefficients.shape != (2,):
                raise ValidationError("measurement needs exactly two coefficients")
        self._check_discretization()

    def _check_discretization(self) -> None:
        """Dry run of the setup: build every grid, the packets and level
        state, and at each mass the run's space and Hamiltonian (and the
        collision's relative H), and test dt against them, so that a bad
        packet, level state or matrix, coupling width or time step fails
        before a run propagates anything."""
        if self.scenario == "collision":
            with _at("center_of_mass residual window"):
                _residual_window(self)
        # Packets come first: GaussianParams rejects hbar <= 0 and
        # mass_unit <= 0 before _cm_setup divides by them.
        packets = _initial_packets(self)
        if self.scenario == "position_measurement":
            overlap = abs(inner_product(*packets[LABEL_A]))
            if overlap > SEPARATION_TOL:
                raise ValidationError(
                    "measurement.a.packets: absorbed-particle components are not "
                    f"separated: overlap {overlap:.3e} exceeds {SEPARATION_TOL:g}"
                )
        with _at("internal.state"):
            level_state(LABEL_INT, self.internal.state)
        factors = (Factor.level(LABEL_INT, self.internal.dim),
                   *(states[0].space.factors[0] for states in packets.values()))
        for mass in self.center_of_mass.masses:
            with _at(f"center_of_mass (mass {mass:g})"):
                grid_cm, params = _cm_setup(self, mass)
                make_gaussian(grid_cm, params, LABEL_CM)
            with _at(f"mass {mass:g}"):
                h = (_collision_hamiltonian(self, mass) if self.scenario == "collision"
                     else _measurement_hamiltonians(self, mass)[2])
                check_time_step(Space((Factor.coordinate(LABEL_CM, grid_cm), *factors)),
                                h, self.dt)
                if self.scenario == "collision":
                    # The relative run's kinetic mass is mu < m, so its bound
                    # on dt can be the tighter one.
                    check_time_step(Space(factors), _relative_hamiltonian(self, mass), self.dt)


@contextmanager
def _at(path: str):
    """Prefix a ValidationError raised in the block with the config path."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _decode(tp, raw: Any, path: str):
    """Decode the JSON value `raw` as type `tp`, naming `path` in errors.

    Dataclasses are objects keyed by field name (fields with a default may
    be absent; a key that names no field is an error), `X | None` is an
    optional section, tuples are lists of their length, np.ndarray is a
    {"real", "imag"} pair, and numbers are finite and never bools; an int
    must be integral (500.0 is 500).
    """
    if is_dataclass(tp):
        if not isinstance(raw, dict):
            raise ValidationError(f"{path or 'config'} must be an object")
        hints = get_type_hints(tp)
        _reject_unknown(raw, hints, path)
        kwargs = {}
        for f in fields(tp):
            key = f"{path}.{f.name}" if path else f.name
            if f.name in raw:
                kwargs[f.name] = _decode(hints[f.name], raw[f.name], key)
            elif f.default is MISSING:
                raise ValidationError(f"config is missing {key!r}")
        return tp(**kwargs)
    args = get_args(tp)
    if type(None) in args:
        return None if raw is None else _decode(args[0], raw, path)
    if get_origin(tp) is tuple:
        if not isinstance(raw, list):
            raise ValidationError(f"{path} must be a list")
        types = args[:1] * len(raw) if args[-1] is Ellipsis else args
        if len(types) != len(raw):
            raise ValidationError(f"{path} must be a list of {len(types)}")
        return tuple(_decode(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(types, raw)))
    if tp is np.ndarray:
        if not isinstance(raw, dict) or "real" not in raw:
            raise ValidationError(f"{path} must be an object with 'real' (and optional 'imag')")
        _reject_unknown(raw, ("real", "imag"), path)
        real = _decode_real_array(raw["real"], f"{path}.real")
        imag = (_decode_real_array(raw["imag"], f"{path}.imag") if "imag" in raw
                else np.zeros_like(real))
        if real.shape != imag.shape:
            raise ValidationError(f"{path}: real and imag parts differ in shape")
        return real + 1j * imag
    if tp is str:
        if not isinstance(raw, str):
            raise ValidationError(f"{path} must be a string, got {raw!r}")
        return raw
    # abs(raw) <= max is False for nan and inf, and exact for big ints.
    if (isinstance(raw, bool) or not isinstance(raw, (int, float))
            or not abs(raw) <= sys.float_info.max
            or tp is int and isinstance(raw, float) and not raw.is_integer()):
        kind = "an integer" if tp is int else "a finite number"
        raise ValidationError(f"{path} must be {kind}, got {raw!r}")
    return tp(raw)


def _reject_unknown(raw: dict, known, path: str) -> None:
    for key in raw:
        if key not in known:
            where = f"{path}.{key}" if path else key
            raise ValidationError(f"config has unknown key {where!r}")


def _decode_real_array(raw: Any, path: str) -> np.ndarray:
    """A number or a rectangular nested list of numbers, as a float array."""
    cells = np.array(raw, dtype=object)
    for cell in cells.flat:  # a ragged row shows up here as a list
        _decode(float, cell, path)
    return cells.astype(float)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _steps_for(cfg: ScenarioConfig) -> int:
    return int(round(cfg.schedule.t_final / cfg.dt))


def _cm_setup(cfg: ScenarioConfig, mass: float) -> tuple[Grid, GaussianParams]:
    params = GaussianParams.scaled(
        mass, cfg.center_of_mass.sigma_ref, hbar=cfg.hbar, mass_unit=cfg.mass_unit
    )
    half = cfg.center_of_mass.half_width_sigmas * params.sigma
    return Grid(cfg.center_of_mass.points, -half, half), params


def _initial_packets(cfg: ScenarioConfig) -> dict[str, list[StateVector]]:
    """Each light particle's initial packets on its grid, keyed by factor
    label; a bad grid or packet fails under its config path."""
    if cfg.scenario == "collision":
        subjects = [(LABEL_S, "particle", cfg.particle, {"packet": cfg.particle.packet})]
    else:
        m = cfg.measurement
        subjects = [(label, f"measurement.{label}", spec,
                     {f"packets[{i}]": q for i, q in enumerate(spec.packets)})
                    for label, spec in ((LABEL_A, m.a), (LABEL_B, m.b))]
    packets = {}
    for label, path, spec, specs in subjects:
        with _at(f"{path}.grid"):
            grid = spec.grid.to_grid()
        packets[label] = []
        for where, q in specs.items():
            with _at(f"{path}.{where}"):
                params = q.params(spec.mass, cfg.hbar, cfg.mass_unit)
                packets[label].append(make_gaussian(grid, params, label))
    return packets


def _coupling(cfg: ScenarioConfig, subject: str) -> Interaction:
    return Interaction(
        subject=subject,
        anchor=LABEL_CM,
        profile=gaussian_profile(cfg.coupling.strength, cfg.coupling.width),
        level=LABEL_INT,
        coupling=cfg.coupling.matrix,
    )


def _record(kind: str, report, skip: str | None = None) -> dict:
    """Report record: the `record` tag and one key per dataclass field."""
    body = {f.name: getattr(report, f.name) for f in fields(report) if f.name != skip}
    return {"record": kind, **body}


def _free_packet(cfg: ScenarioConfig, mass: float) -> StateVector:
    """The heavy packet at t_final, evolved under its kinetic term alone."""
    grid_cm, params = _cm_setup(cfg, mass)
    steps = _steps_for(cfg)
    h_cm = HamiltonianSpec(kinetic={LABEL_CM: mass}, hbar=cfg.hbar)
    return evolve_exact(make_gaussian(grid_cm, params, LABEL_CM), h_cm, cfg.dt, steps,
                        max(steps, 1)).final


def _residual_window(cfg: ScenarioConfig) -> StateVector:
    """Uniform weight over the residual window's anchor positions."""
    cm = cfg.center_of_mass
    grid = Grid(cm.residual_points, -cm.residual_half_width, cm.residual_half_width)
    amps = np.full(grid.n_points, 1.0 / math.sqrt(grid.x_max - grid.x_min))
    return StateVector(Space((Factor.coordinate(LABEL_CM, grid),)), amps)


def _check_three_periods(cfg, result) -> tuple[float, float]:
    """Largest |coupling expectation| over initial-period and final-period checkpoints."""
    s = cfg.schedule
    worst_initial = worst_final = 0.0
    for (t, _), coupling in zip(result.trajectory, result.couplings):
        if t <= s.t_initial + 1e-12:
            worst_initial = max(worst_initial, abs(coupling))
        if t >= s.t_interaction - 1e-12:
            worst_final = max(worst_final, abs(coupling))
    if worst_initial > INTERACTION_TOL:
        raise PropagationError(
            f"interaction is not negligible at the start: |<H_coupling>| = "
            f"{worst_initial:.3e} exceeds {INTERACTION_TOL:g} in the initial period"
        )
    if worst_final > INTERACTION_TOL:
        raise PropagationError(
            f"interaction is not negligible at the end: |<H_coupling>| = "
            f"{worst_final:.3e} exceeds {INTERACTION_TOL:g} in the final period"
        )
    return worst_initial, worst_final


def _energy_drift(energies: list[float]) -> float:
    ref = energies[0]
    scale = max(abs(ref), 1e-30)
    return max(abs(e - ref) for e in energies) / scale


def _on_grid(check: PropagationResult) -> tuple[float, float, float]:
    """The norm, <H> and <H_coupling> of a zero-step run's state."""
    return check.final.norm, check.energies[0], check.couplings[0]


def _check_mapping(on_grid: tuple[float, float, float], norm: float, energy: float,
                   coupling: float, source: str, tol: float) -> None:
    """The norm, <H> and <H_coupling> of a state on the grid (`_on_grid` of
    a zero-step run under the grid H) against the values of its `source`:
    the relative run it was mapped from, or the Gram sums of the terms it
    was assembled from; within tol * max(1, |value|)."""
    for what, full, value in zip(("norm", "<H>", "<H_coupling>"), on_grid,
                                 (norm, energy, coupling)):
        if abs(full - value) > tol * max(1.0, abs(full)):
            raise PropagationError(
                f"final {what} on the grid ({full!r}) differs from its {source} "
                f"({value!r}) by more than {tol:g} relative"
            )


# ---------------------------------------------------------------------------
# Collision scenario
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CollisionPoint:
    mass: float
    sigma_cm: float
    fidelity_deficit: float
    residual_norm: float
    overlap_weight: float
    branch_probabilities: list[float]
    branch_entropy: float
    degenerate_groups: list[list[int]]
    schmidt_identity_distance: float
    trace_distance: float
    rho_eigenvalues: list[float]
    rho_trace: float
    rho_hermiticity_error: float
    interaction_initial: float
    interaction_final: float
    norm_drift: float
    energy_drift: float


@dataclass(eq=False)
class CollisionReport:
    points: list[CollisionPoint]

    @property
    def masses(self) -> list[float]:
        return [p.mass for p in self.points]

    @property
    def fidelity_deficits(self) -> list[float]:
        return [p.fidelity_deficit for p in self.points]

    @property
    def residual_norms(self) -> list[float]:
        return [p.residual_norm for p in self.points]

    @property
    def trace_distances(self) -> list[float]:
        return [p.trace_distance for p in self.points]

    @property
    def fidelity_strictly_decreasing(self) -> bool:
        d = self.fidelity_deficits
        return all(b < a for a, b in zip(d, d[1:]))

    @property
    def residual_strictly_decreasing(self) -> bool:
        d = self.residual_norms
        return all(b < a for a, b in zip(d, d[1:]))

    @property
    def trace_distance_non_increasing(self) -> bool:
        d = self.trace_distances
        return all(b <= a for a, b in zip(d, d[1:]))

    def to_records(self) -> list[dict]:
        records = [_record("collision_point", p) for p in self.points]
        records.append({
            "record": "collision_summary",
            "masses": self.masses,
            "fidelity_deficits": self.fidelity_deficits,
            "residual_norms": self.residual_norms,
            "trace_distances": self.trace_distances,
            "fidelity_strictly_decreasing": self.fidelity_strictly_decreasing,
            "residual_strictly_decreasing": self.residual_strictly_decreasing,
            "trace_distance_non_increasing": self.trace_distance_non_increasing,
        })
        return records


def _collision_hamiltonian(cfg: ScenarioConfig, mass: float | None) -> HamiltonianSpec:
    """The collision H; with no mass it has no center-of-mass kinetic term."""
    cm = {} if mass is None else {LABEL_CM: mass}
    return HamiltonianSpec(
        kinetic={**cm, LABEL_S: cfg.particle.mass},
        internal=(LABEL_INT, cfg.internal.hamiltonian),
        interaction=_coupling(cfg, LABEL_S),
        hbar=cfg.hbar,
    )


def _collision_residual(cfg: ScenarioConfig, phi_int, psi_s) -> tuple[list[float], StateVector]:
    """Residual of the dropped center-of-mass kinetic term, per configured
    mass, and the product approximation's relative state at t_final.

    The relative state is resolved over anchor positions X_j (uniform
    weight, no center-of-mass kinetic term): anchor X_j holds the particle
    under H_rel = T_r + g(r) K + H_int in r = x - X_j, on the particle's own
    periodic grid.  That start is psi_s(r + X_j) = sum_n exp(i k_n X_j)
    chi_n(r), with chi_n the plane wave of psi_s's Fourier coefficient c_n
    and |c_n| above the truncation tolerance.  With the window weight and
    sqrt(dX) folded in, the anchors x modes phase matrix is Q R with Q's
    columns orthonormal, so the stack runs the min(anchors, modes) rows of
    R times the plane waves, and anchor j's state is row j of Q times the
    run's final.  The product approximation's relative state evolves under
    the same H_rel (the coupling's anchor frozen at the heavy packet's
    centre), so psi_s (x) phi_int runs as the stack's last row and is copied
    out at t_final.  No term depends on the mass, so the run is made once
    per sweep; each mass enters only through P^2 / 2 mass on the anchor
    states, shifted in place to r = x - X_j.

    The mapped state's norm, <H> and <H_coupling> under the grid H must
    match the anchor stack's under H_rel, which are those of the run's rows,
    since Q's columns are orthonormal.  H_rel carries g(r) round the
    particle grid, so the check's grid H takes g at the nearest periodic
    image of x - X_j.  Evaluated without images, g(x - X_j) is cut at the
    particle window's seam, and the anchors within the coupling's reach of
    it hold other states: on the shipped grids they differ by up to 4.2e-6
    for X_j < -22, and residual_norm by 2.6e-10 relative.
    """
    window = _residual_window(cfg)
    anchors = window.space.factors[0].grid.positions()
    grid_x = psi_s.space.factors[0].grid
    k = grid_x.wavenumbers()
    spectrum = np.fft.fft(psi_s.amplitudes)
    keep = np.abs(spectrum) >= DEFAULT_TRUNC_TOL * np.abs(spectrum).max()
    waves = spectrum[keep, None] * np.exp(
        1j * np.outer(k[keep], grid_x.positions() - grid_x.x_min)) / grid_x.n_points
    sqrt_dx = math.sqrt(window.space.volume_element)
    q, r = np.linalg.qr(window.amplitudes[:, None] * sqrt_dx
                        * np.exp(1j * np.outer(anchors, k[keep])))
    rows = np.concatenate([r @ waves, psi_s.amplitudes[None]])
    stacked = StateVector(
        Space((Factor.level(LABEL_K, len(rows)), *phi_int.space.factors, *psi_s.space.factors)),
        rows[:, None, :] * phi_int.amplitudes[:, None],
    )
    del waves, r, rows
    h_rel = _relative_hamiltonian(cfg, None)
    steps = _steps_for(cfg)
    final = evolve_exact(stacked, h_rel, cfg.dt, steps, max(steps, 1)).final.amplitudes
    # A copy, so that the stack's final is freed before the grid-H check.
    relative = StateVector(Space(stacked.space.factors[1:]), final[-1].copy())
    final = final[:-1]
    # The anchor stack's norm, <H_rel> and <H_coupling> are the rows'.
    in_rows = _on_grid(evolve_exact(
        StateVector(Space((Factor.level(LABEL_K, len(final)), *relative.space.factors)), final),
        h_rel, cfg.dt, 0))
    space = Space((*window.space.factors, *relative.space.factors))
    mapped = ((q / sqrt_dx) @ final.reshape(len(final), -1)).reshape(space.dims)
    del stacked, final
    mapped = StateVector(space, _shift_to_x(mapped, anchors, grid_x))

    # The check's grid H takes g at the nearest periodic image of x - X_j,
    # as H_rel does on the particle's periodic grid.  It is the first
    # propagation of this shape, which the benchmark's kernel probe times.
    h = _collision_hamiltonian(cfg, None)
    period, g = grid_x.x_max - grid_x.x_min, h.interaction.profile
    ring = replace(h.interaction, profile=lambda d: g(d - period * np.round(d / period)))
    on_grid = _on_grid(evolve_exact(mapped, replace(h, interaction=ring), cfg.dt, 0))
    _check_mapping(on_grid, *in_rows, "value in the relative anchor stack", WINDOW_TOL)
    # ||P^2 / 2M psi|| is ||P^2 / 2 psi|| / M.
    unit = factorization_residual(mapped, 1.0, cfg.hbar)
    return [unit / m for m in cfg.center_of_mass.masses], relative


def _shift_to_x(amps: np.ndarray, anchors: np.ndarray, grid: Grid) -> np.ndarray:
    """Shift the (anchors, levels, r) rows of amps in place from r to
    x = X_j + r, by one FFT pair on grid's periodic window."""
    np.fft.fft(amps, axis=-1, out=amps)
    amps *= np.exp(-1j * np.outer(anchors, grid.wavenumbers()))[:, None, :]
    return np.fft.ifft(amps, axis=-1, out=amps)


def _relative_hamiltonian(cfg: ScenarioConfig, mass: float | None) -> HamiltonianSpec:
    """H_rel = p_r^2 / 2 mu + g(r) K + H_int on the relative coordinate r,
    which the particle's label carries; the coupling's anchor is 0.  With no
    mass the anchor is infinitely heavy, and mu is the particle's mass."""
    h, m = _collision_hamiltonian(cfg, None), cfg.particle.mass
    mu = m if mass is None else m * mass / (m + mass)
    return replace(h, kinetic={LABEL_S: mu}, interaction=h.interaction.frozen_at(0.0))


def _wide_grid(cfg: ScenarioConfig) -> Grid:
    """The relative run's r grid: the particle grid's spacing over twice its
    window, centred on it, so that what leaves it does not wrap round."""
    grid_x = cfg.particle.grid.to_grid()
    half = 0.5 * (grid_x.x_max - grid_x.x_min)
    return Grid(2 * grid_x.n_points, grid_x.x_min - half, grid_x.x_max + half)


def _jacobi_split(cfg: ScenarioConfig, mass: float, phi_int: StateVector) -> SchmidtResult:
    """psi0 = packet(X) (x) phi_int (x) psi_s(x) on the (R, A_int, r) grid,
    checked uncoupled under H_rel and split across R | (A_int, r).  phi_int
    is a factor of psi0, so the split is that of its level-free (R, r)
    plane, with right states phi_int (x) g_k, and psi0 itself is never
    built.

    R = (1 - w) X + w x with w = m / (M + m), and r = x - X, so X = R - w r
    and x = R + (1 - w) r.  psi0 is sampled with r on the particle grid.
    The R grid spans (1 - w) X + w x over the center-of-mass grid and the
    relative run's wider r window, with a spacing of at most (1 - w) times
    the center-of-mass spacing.
    """
    grid_cm, cm_params = _cm_setup(cfg, mass)
    grid_x = cfg.particle.grid.to_grid()
    grid_r = _wide_grid(cfg)
    w = cfg.particle.mass / (mass + cfg.particle.mass)
    lo = (1.0 - w) * grid_cm.x_min + w * grid_r.x_min
    hi = (1.0 - w) * grid_cm.x_max + w * grid_r.x_max
    points = 1 << math.ceil(math.log2((hi - lo) / ((1.0 - w) * grid_cm.dx)))
    grid_big_r = Grid(points, lo, hi)
    big_r = grid_big_r.positions()[:, None]
    r = grid_x.positions()[None, :]
    psi_s = cfg.particle.packet.params(cfg.particle.mass, cfg.hbar, cfg.mass_unit)
    samples = cm_params.amplitudes(big_r - w * r) * psi_s.amplitudes(big_r + (1.0 - w) * r)
    factors = (Factor.coordinate(LABEL_R, grid_big_r), Factor.coordinate(LABEL_S, grid_x))
    plane = StateVector(Space(factors), samples).normalized()
    # H_coupling acts on r alone, so psi0's <H_coupling> is that of its
    # r-marginal amplitude sqrt(sum_R |plane|^2 dR) (x) phi_int.
    marginal = np.sqrt(np.sum(np.abs(plane.amplitudes) ** 2, axis=0) * grid_big_r.dx)
    start = StateVector(Space((*phi_int.space.factors, factors[1])),
                        phi_int.amplitudes[:, None] * marginal)
    initial_coupling = abs(interaction_energy(start, _relative_hamiltonian(cfg, mass)))
    if initial_coupling > INTERACTION_TOL:
        raise PropagationError(
            f"interaction is not negligible at the start: |<H_coupling>| = "
            f"{initial_coupling:.3e} exceeds {INTERACTION_TOL:g} at t = 0"
        )
    split = schmidt_decompose(plane, Bipartition([LABEL_R], [LABEL_S]))
    return replace(split, right_states=[tensor_product([phi_int, g]) for g in split.right_states],
                   cut=Bipartition([LABEL_R], [LABEL_INT, LABEL_S]))


def _collision_exact(
    cfg: ScenarioConfig, mass: float, split: SchmidtResult
) -> tuple[StateVector, PropagationResult, float]:
    """The exact state at one mass, mapped to the (A_cm, A_int, S) grid at
    t_final; the stacked relative run its diagnostics come from; and the
    constant <T_R> that completes that run's <H_rel> to <H>.

    In Jacobi coordinates H = T_R + H_rel, and T_R commutes with every other
    term, so a Strang step is exp(-i T_R dt / hbar) times the Strang step of
    H_rel.  `split` is the initial state's split across R | (A_int, r)
    (_jacobi_split) into orthonormal F_k(R) and weighted G_k; the G_k,
    padded with zeros to the wider r grid, run as one stacked (k, A_int, r)
    state under H_rel, and each F_k takes the free phase of the whole run
    at once.  The F_k stay orthonormal and the G_k orthogonal, so the norm,
    <H_rel> and <H_coupling> of the stacked state are those of the whole,
    and <T_R> = sum_k s_k^2 <F_k|T_R|F_k> is constant.

    At t_final the terms are summed once per level in R's Fourier series,
    with the free phase, at R = X_j + w r (x = X_j + r) by (X, kappa) by
    (kappa, r) products, MAP_COLUMNS r columns at a time; _shift_to_x moves
    each row by X_j from r to x, and what lies beyond the periodic particle
    window is folded back into it.  The mapped state's own norm, <H> and
    <H_coupling> under the grid H must match the stacked run's.
    """
    grid_r = _wide_grid(cfg)
    weights = split.coefficients
    pad = grid_r.n_points // 4
    level, particle = split.right_states[0].space.factors
    stacked = StateVector(
        Space((Factor.level(LABEL_K, split.rank), level, Factor.coordinate(LABEL_S, grid_r))),
        np.pad([c * g.amplitudes for c, g in zip(weights, split.right_states)],
               ((0, 0), (0, 0), (pad, pad))),
    )
    run = evolve_exact(stacked, _relative_hamiltonian(cfg, mass), cfg.dt, _steps_for(cfg),
                       cfg.checkpoint_every)
    h_big_r = HamiltonianSpec(kinetic={LABEL_R: mass + cfg.particle.mass}, hbar=cfg.hbar)
    _, t_big_r, _ = matrix_elements(split.left_states, h_big_r)
    kinetic_big_r = float(weights**2 @ t_big_r.diagonal().real)

    grid_cm, _ = _cm_setup(cfg, mass)
    grid_big_r = split.left_states[0].space.factors[0].grid
    w = cfg.particle.mass / (mass + cfg.particle.mass)
    kappa = grid_big_r.wavenumbers()
    t_final = run.trajectory[-1][0]
    free = np.exp(-1j * cfg.hbar * kappa**2 * t_final / (2.0 * (mass + cfg.particle.mass)))
    spectra = np.fft.fft([f.amplitudes for f in split.left_states], axis=1)
    spectra *= free / grid_big_r.n_points
    # R - R_min = (X_j - X_min) + (X_min - R_min) + w r.
    from_cm = np.exp(1j * np.outer(grid_cm.positions() - grid_cm.x_min, kappa))
    offsets = grid_cm.x_min - grid_big_r.x_min + w * grid_r.positions()
    wide = np.empty((grid_cm.n_points, *run.final.space.dims[1:]), dtype=np.complex128)
    for start in range(0, grid_r.n_points, MAP_COLUMNS):
        cols = slice(start, start + MAP_COLUMNS)
        from_r = np.exp(1j * np.outer(kappa, offsets[cols]))
        for lvl in range(wide.shape[1]):
            terms = spectra.T @ run.final.amplitudes[:, lvl, cols]
            terms *= from_r
            wide[:, lvl, cols] = from_cm @ terms
    _shift_to_x(wide, grid_cm.positions(), grid_r)
    # Point i of the particle window is point pad + i of the wider one, and
    # its image one particle window away is point pad + i + 2 pad, modulo
    # the wider window's 4 pad points.
    folded = wide[..., pad:3 * pad].copy()
    folded[..., :pad] += wide[..., 3 * pad:]
    folded[..., pad:] += wide[..., :pad]
    final = StateVector(Space((Factor.coordinate(LABEL_CM, grid_cm), level, particle)), folded)
    del wide  # not alive through the check: it would raise its peak

    # The mapped state's diagnostics under the grid H; this zero-step call
    # also checks dt against that H.
    check = evolve_exact(final, _collision_hamiltonian(cfg, mass), cfg.dt, 0)
    _check_mapping(_on_grid(check), run.final.norm,
                   run.energies[-1] + kinetic_big_r, run.couplings[-1],
                   "value in the stacked relative run", JACOBI_TOL)
    return final, run, kinetic_big_r


def _collision_point(
    cfg: ScenarioConfig, mass: float, split: SchmidtResult,
    residual_norm: float, relative: StateVector,
) -> CollisionPoint:
    """One mass of the sweep from its start's Jacobi split; `relative` is
    the sweep's factorized relative state at t_final, which does not depend
    on the mass."""
    final, run, kinetic_big_r = _collision_exact(cfg, mass, split)
    worst_initial, worst_final = _check_three_periods(cfg, run)
    energy_drift = _energy_drift([e + kinetic_big_r for e in run.energies])
    norm_drift = run.norm_drift

    phi_free = _free_packet(cfg, mass)
    deficit = fidelity_deficit(final, tensor_product([phi_free, relative]))

    extraction = extract_relative_state(final, phi_free)
    branches = transform_to_intrinsic(
        extraction.state, Bipartition([LABEL_S], [LABEL_INT])
    )
    rho_mixed = mixed_density_matrix(branches, [LABEL_S])
    rho_psi1 = reduced_density_matrix(extraction.state, [LABEL_S])
    identity_distance = trace_distance(rho_mixed, rho_psi1)
    rho_full = reduced_density_matrix(final, [LABEL_S])
    distance = trace_distance(rho_mixed, rho_full)

    return CollisionPoint(
        mass=mass,
        sigma_cm=_cm_setup(cfg, mass)[1].sigma,
        fidelity_deficit=float(deficit),
        residual_norm=residual_norm,
        overlap_weight=extraction.overlap_weight,
        branch_probabilities=[float(p) for p in branches.probabilities()],
        branch_entropy=entanglement_entropy(branches),
        degenerate_groups=[list(g) for g in branches.degenerate_groups],
        schmidt_identity_distance=float(identity_distance),
        trace_distance=float(distance),
        rho_eigenvalues=[float(v) for v in rho_mixed.eigenvalues()],
        rho_trace=rho_mixed.trace,
        rho_hermiticity_error=0.0,  # F F^H is Hermitian by construction
        interaction_initial=float(worst_initial),
        interaction_final=float(worst_final),
        norm_drift=float(norm_drift),
        energy_drift=float(energy_drift),
    )


def run_collision(cfg: ScenarioConfig) -> CollisionReport:
    """Collision experiment over the configured mass sweep: one Jacobi run
    per mass, and one mass-free relative run per sweep that gives the
    residual window and the product approximation's relative state."""
    if cfg.scenario != "collision":
        raise ValidationError(f"config is for scenario {cfg.scenario!r}, not collision")
    (psi_s,) = _initial_packets(cfg)[LABEL_S]
    phi_int = level_state(LABEL_INT, cfg.internal.state)
    masses = cfg.center_of_mass.masses
    # Every start is checked uncoupled before anything propagates; only its
    # Schmidt split is kept.
    splits = [_jacobi_split(cfg, mass, phi_int) for mass in masses]
    residuals, relative = _collision_residual(cfg, phi_int, psi_s)
    return CollisionReport([
        _collision_point(cfg, m, split, r, relative)
        for m, split, r in zip(masses, splits, residuals)
    ])


# ---------------------------------------------------------------------------
# Partition detection
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PartitionReport:
    """Outcome of searching for an (absorbed | free) coordinate split."""

    absorbed: tuple[str, ...] | None
    free: tuple[str, ...] | None
    leakage: float
    c_coefficients: list[float]
    d_coefficients: list[float]
    weight_check: float
    candidates: list[dict]

    @property
    def found(self) -> bool:
        return self.absorbed is not None

    def to_record(self) -> dict:
        return {**_record("partition", self), "found": self.found}


def _inside_mask(grid: Grid, geometry: PartitionGeometry) -> np.ndarray:
    x = grid.positions()
    return (x >= geometry.near_lo) & (x <= geometry.near_hi)


def detect_partition(psi1: StateVector, geometry: PartitionGeometry) -> PartitionReport:
    """Search coordinate splits for one with the absorbed part localized near
    the heavy system and the free part away from it.

    Candidate splits are tried smallest absorbed set first, in label order;
    the first split whose violating probability mass (absorbed outside the
    near region, or free inside it) stays below eps is reported, together
    with the two-block expansion: d-coefficients from the support-compatible
    component across the (free | rest) cut, c-coefficients from the violating
    remainder across the (coordinates | levels) cut.  Squared coefficients of
    the two lists sum to 1.  Finding no split is a report, not an error.
    """
    space = psi1.space
    coords = [f.label for f in space.factors if f.is_coordinate]
    levels = [f.label for f in space.factors if not f.is_coordinate]
    if len(coords) < 2:
        raise ValidationError("partition detection needs at least two coordinate factors")
    prob = np.abs(psi1.amplitudes) ** 2 * space.volume_element

    ndim = len(space.dims)
    inside = {}
    for lab in coords:
        axis = space.axis(lab)
        shape = [1] * ndim
        shape[axis] = space.dims[axis]
        inside[lab] = _inside_mask(space.factor(lab).grid, geometry).reshape(shape)

    candidates: list[dict] = []
    chosen: tuple[tuple[str, ...], tuple[str, ...], np.ndarray, float] | None = None
    for size in range(1, len(coords)):
        for absorbed in combinations(sorted(coords), size):
            free = tuple(lab for lab in sorted(coords) if lab not in absorbed)
            ok = np.ones(space.dims, dtype=bool)
            for lab in absorbed:
                ok = ok & inside[lab]
            for lab in free:
                ok = ok & ~inside[lab]
            leakage = float(1.0 - np.sum(prob[ok]))
            candidates.append(
                {"absorbed": list(absorbed), "free": list(free), "leakage": leakage}
            )
            if chosen is None and leakage < geometry.eps:
                chosen = (absorbed, free, ok, leakage)
        if chosen is not None:
            break

    if chosen is None:
        best = min(candidates, key=lambda c: c["leakage"])
        return PartitionReport(
            absorbed=None, free=None, leakage=best["leakage"],
            c_coefficients=[], d_coefficients=[], weight_check=0.0,
            candidates=candidates,
        )

    absorbed, free, ok, leakage = chosen
    ok_state = StateVector(space, np.where(ok, psi1.amplitudes, 0.0))
    bad_state = StateVector(space, np.where(ok, 0.0, psi1.amplitudes))
    rest = tuple(lab for lab in space.labels if lab not in free)
    d_coeffs = np.linalg.svd(
        coefficient_matrix(ok_state, Bipartition(free, rest)), compute_uv=False
    )
    if levels and float(np.sum(np.abs(bad_state.amplitudes) ** 2)) > 0.0:
        c_coeffs = np.linalg.svd(
            coefficient_matrix(bad_state, Bipartition(coords, levels)), compute_uv=False
        )
    else:
        norm_bad = math.sqrt(
            float(np.sum(np.abs(bad_state.amplitudes) ** 2)) * space.volume_element
        )
        c_coeffs = np.array([norm_bad]) if norm_bad > 0.0 else np.array([])
    weight_check = float(np.sum(c_coeffs**2) + np.sum(d_coeffs**2))
    return PartitionReport(
        absorbed=absorbed,
        free=free,
        leakage=leakage,
        c_coefficients=[float(c) for c in c_coeffs],
        d_coefficients=[float(d) for d in d_coeffs],
        weight_check=weight_check,
        candidates=candidates,
    )


# ---------------------------------------------------------------------------
# Position-measurement scenario
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class MeasurementReport:
    mass: float
    schmidt_coefficients: list[float]
    expected_coefficients: list[float]
    coefficient_error: float
    compound_overlap: float
    overlap_weight: float
    outcome_probabilities: list[float]
    empirical_frequencies: list[float]
    outcome_counts: list[int]
    trials: int
    branch_b_fidelity_deficits: list[float]
    a_component_overlap: float
    b_component_overlap: float
    absorbed_mass: float
    absorption_declared: bool
    free_particle_coupling: float
    partition: PartitionReport
    norm_drift: float
    energy_drift: float
    interaction_initial: float
    interaction_final: float
    absorption_model: str = (
        "static trapping wells for the absorbed particle (simulator "
        "construction); absorbed when its mass inside the near region "
        "exceeds 1 - eps at t_final"
    )

    def to_records(self) -> list[dict]:
        return [_record("measurement", self, skip="partition"), self.partition.to_record()]


def _measurement_hamiltonians(
    cfg: ScenarioConfig, mass: float
) -> tuple[HamiltonianSpec, HamiltonianSpec, HamiltonianSpec]:
    """The compound H on (cm, int, a), b's kinetic term, and the full H that
    is their sum."""
    m = cfg.measurement
    h_compound = HamiltonianSpec(
        kinetic={LABEL_CM: mass, LABEL_A: m.a.mass},
        potentials={LABEL_A: m.a.trap.potential},
        internal=(LABEL_INT, cfg.internal.hamiltonian),
        interaction=_coupling(cfg, LABEL_A),
        hbar=cfg.hbar,
    )
    h_b = HamiltonianSpec(kinetic={LABEL_B: m.b.mass}, hbar=cfg.hbar)
    return h_compound, h_b, replace(h_compound, kinetic={**h_compound.kinetic, **h_b.kinetic})


def _stack(states: list[StateVector]) -> StateVector:
    """States of one space as one state whose first factor k indexes them."""
    return StateVector(Space((Factor.level(LABEL_K, len(states)), *states[0].space.factors)),
                       np.stack([s.amplitudes for s in states]))


def _rows(stack: StateVector) -> list[StateVector]:
    """The states of a stack, each on the space without k."""
    space = Space(stack.space.factors[1:])
    return [StateVector(space, amps) for amps in stack.amplitudes]


def _assemble(weights, compounds: StateVector, probes: StateVector) -> StateVector:
    """sum_l w_l compound_l (x) b_l from the two stacks, contracted over k
    in one product so that the result is the only full-size array."""
    space = Space(compounds.space.factors[1:] + probes.space.factors[1:])
    weighted = weights[:, None] * probes.amplitudes
    return StateVector(space, np.tensordot(compounds.amplitudes, weighted, axes=(0, 0)))


def _gram_diagnostics(
    weights, compound_run, b_states, h_compound: HamiltonianSpec, h_b: HamiltonianSpec
) -> list[tuple[float, float, float]]:
    """Norm, <H> and <H_coupling> of sum_l w_l C_l(t) (x) B_l(t) at every
    checkpoint, from L x L matrix elements of the rows of the compound
    stack's checkpoints and of the b states.  b never couples, so its
    overlaps and <T_b> are invariants of its free motion, taken once at t = 0.

    With H = H_c (x) 1 + 1 (x) T_b, overlaps G and matrix elements E of H_c
    and T_b, K those of the coupling, and * the entrywise product:
    norm^2 = w^H (G_c * G_b) w, <H> = w^H (E_c * G_b + G_c * E_b) w and
    <H_coupling> = w^H (K_c * G_b) w.
    """
    def sandwich(matrix: np.ndarray) -> float:
        return float((weights.conj() @ matrix @ weights).real)

    g_b, e_b, _ = matrix_elements(b_states, h_b)
    rows = []
    for _, compounds in compound_run.trajectory:
        g_c, e_c, k_c = matrix_elements(_rows(compounds), h_compound)
        rows.append((math.sqrt(sandwich(g_c * g_b)), sandwich(e_c * g_b + g_c * e_b),
                     sandwich(k_c * g_b)))
    return rows


def _branch_counts(sampler: BranchSampler, result, trials: int) -> np.ndarray:
    """Draws per branch over `trials` draws, TRIAL_CHUNK at a time, so that
    memory does not grow with the trials.  Each draw takes one double of
    the sampler's stream, so the counts do not depend on the chunk size."""
    counts = np.zeros(result.rank, dtype=np.int64)
    for start in range(0, trials, TRIAL_CHUNK):
        draws = sampler.draw_many(result, min(TRIAL_CHUNK, trials - start))
        counts += np.bincount(draws, minlength=result.rank)
    return counts


def run_position_measurement(cfg: ScenarioConfig) -> MeasurementReport:
    """Two-particle measurement model: particle a is trapped near the heavy
    system while entangled partner b never couples to anything.

    The probe particle b evolves under its kinetic term alone, so the
    three-period contract holds for it identically; sampling the Schmidt
    branches of the final relative state reproduces the initial entanglement
    weights as outcome statistics, and each branch leaves b in the
    corresponding freely evolved component.

    The full state is never propagated.  H is the compound Hamiltonian on
    (cm, int, a) plus b's kinetic term, and every factor of its Strang step
    acts on b as the free step or the identity, so the step is the compound
    step times the b step.  The state at each checkpoint is therefore
    exactly s * sum_l c_l compound_l(t) (x) b_l(t), with s the t = 0
    normalization.  The L compounds, each lifted to the auxiliary frame,
    run as one state stacked over an index k that no term acts on, and so
    do the L b packets: two propagations, each row bit-identical to a run
    of its own.  The norm, <H> and <H_coupling> at every checkpoint are
    sums over L x L matrix elements of the compound stack's rows and of the
    b states, whose free motion leaves theirs unchanged (_gram_diagnostics),
    so the b run keeps only its final state.  Only the final sum is
    assembled; its own norm, <H> and <H_coupling>, from the grid operator a
    full propagation would use, must match the Gram values, and it is the
    state the report is extracted from.
    """
    if cfg.scenario != "position_measurement":
        raise ValidationError(
            f"config is for scenario {cfg.scenario!r}, not position_measurement"
        )
    m = cfg.measurement
    mass = cfg.center_of_mass.masses[0]
    grid_cm, cm_params = _cm_setup(cfg, mass)
    packets = _initial_packets(cfg)
    a_states, b_states = packets[LABEL_A], packets[LABEL_B]
    a_overlap = abs(inner_product(a_states[0], a_states[1]))
    b_overlap = abs(inner_product(b_states[0], b_states[1]))

    coeffs = m.coefficients
    pair_norm = superpose(
        [(c, tensor_product([a, b])) for c, a, b in zip(coeffs, a_states, b_states)]
    ).norm
    weights = coeffs / pair_norm
    phi_int = level_state(LABEL_INT, cfg.internal.state)
    compounds = _stack([lift_to_auxiliary(phi_int, a, cm_params, grid_cm)
                        for a in a_states])

    h_compound, h_b, h = _measurement_hamiltonians(cfg, mass)
    steps = _steps_for(cfg)
    compound_run = evolve_exact(compounds, h_compound, cfg.dt, steps, cfg.checkpoint_every)
    b_run = evolve_exact(_stack(b_states), h_b, cfg.dt, steps, max(steps, 1))

    norms, energies, couplings = zip(
        *_gram_diagnostics(weights, compound_run, b_states, h_compound, h_b)
    )
    norm_drift = max(abs(n - 1.0) for n in norms)
    energy_drift = _energy_drift(energies)
    # The coupling to the absorbed compound stays on; the contract concerns
    # the outgoing particle b, which has no coupling terms at all.
    free_particle_coupling = 0.0
    interaction_initial = abs(couplings[0])
    interaction_final = abs(couplings[-1])

    # The final state is assembled once; a zero-step propagation under the
    # full H checks the Gram identities on the state the report comes from.
    check = evolve_exact(_assemble(weights, compound_run.final, b_run.final), h, cfg.dt, 0)
    _check_mapping(_on_grid(check), norms[-1], energies[-1], couplings[-1], "Gram value",
                   GRAM_TOL)

    phi_free = _free_packet(cfg, mass)
    extraction = extract_relative_state(check.final, phi_free)
    del check  # the assembled state is not alive through the Schmidt sampling
    psi1 = extraction.state

    cut = Bipartition([LABEL_INT, LABEL_A], [LABEL_B])
    result = schmidt_decompose(psi1, cut)
    expected = sorted((abs(c) for c in coeffs), reverse=True)

    # Freely evolved b components identify which branch realizes which outcome.
    b_evolved = _rows(b_run.final)
    outcome_of_branch = []
    branch_deficits = []
    for j in range(result.rank):
        fids = [abs(inner_product(result.right_states[j], bt)) for bt in b_evolved]
        outcome = int(np.argmax(fids))
        outcome_of_branch.append(outcome)
        branch_deficits.append(1.0 - fids[outcome])

    # Independently evolved absorbed compounds, for the orthogonality report.
    absorbed = [extract_relative_state(c, phi_free).state for c in _rows(compound_run.final)]
    compound_overlap = abs(inner_product(absorbed[0], absorbed[1]))

    counts = [0] * len(coeffs)
    for j, n in enumerate(_branch_counts(BranchSampler(cfg.seeds.branch), result,
                                         cfg.seeds.trials)):
        counts[outcome_of_branch[j]] += int(n)
    freqs = [c / cfg.seeds.trials for c in counts]

    a_marginal = position_marginal(psi1, LABEL_A)
    inside = _inside_mask(a_states[0].space.factor(LABEL_A).grid, cfg.partition)
    absorbed_mass = float(np.sum(a_marginal[inside]))
    partition = detect_partition(psi1, cfg.partition)

    n_report = min(result.rank, len(coeffs))
    return MeasurementReport(
        mass=mass,
        schmidt_coefficients=[float(c) for c in result.coefficients],
        expected_coefficients=[float(c) for c in expected],
        coefficient_error=float(
            max(
                abs(result.coefficients[j] - expected[j]) for j in range(n_report)
            )
        ),
        compound_overlap=float(compound_overlap),
        overlap_weight=extraction.overlap_weight,
        outcome_probabilities=[float(abs(c) ** 2) for c in coeffs],
        empirical_frequencies=[float(f) for f in freqs],
        outcome_counts=counts,
        trials=cfg.seeds.trials,
        branch_b_fidelity_deficits=[float(d) for d in branch_deficits],
        a_component_overlap=float(a_overlap),
        b_component_overlap=float(b_overlap),
        absorbed_mass=absorbed_mass,
        absorption_declared=bool(absorbed_mass >= 1.0 - cfg.partition.eps),
        free_particle_coupling=free_particle_coupling,
        partition=partition,
        norm_drift=float(norm_drift),
        energy_drift=float(energy_drift),
        interaction_initial=float(interaction_initial),
        interaction_final=float(interaction_final),
    )


def run_scenario(cfg: ScenarioConfig):
    """Dispatch to the configured scenario."""
    if cfg.scenario == "collision":
        return run_collision(cfg)
    return run_position_measurement(cfg)
