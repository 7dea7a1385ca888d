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
from dataclasses import MISSING, dataclass, fields, is_dataclass
from itertools import combinations
from typing import Any, get_args, get_origin, get_type_hints

import numpy as np

from .dynamics import (
    HamiltonianSpec,
    Interaction,
    check_time_step,
    evolve_exact,
    evolve_factorized,
    factorization_residual,
    fidelity_deficit,
    gaussian_profile,
    interaction_energy,
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
    coefficient_matrix,
    entanglement_entropy,
    schmidt_decompose,
)

LABEL_CM = "A_cm"
LABEL_INT = "A_int"
LABEL_S = "S"
LABEL_A = "a"
LABEL_B = "b"

INTERACTION_TOL = 1e-8
SEPARATION_TOL = 1e-6
COEFF_NORM_TOL = 1e-10


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

    def to_dict(self) -> dict:
        return _encode(self)

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
        if self.internal.hamiltonian.shape != (self.internal.dim,) * 2:
            raise ValidationError("internal Hamiltonian must be dim x dim")
        if self.coupling.matrix.shape != (self.internal.dim,) * 2:
            raise ValidationError("coupling matrix must be dim x dim")
        if self.coupling.width <= 0.0:
            raise ValidationError("coupling width must be positive")
        if self.partition.eps <= 0.0 or self.partition.near_lo >= self.partition.near_hi:
            raise ValidationError("partition needs near_lo < near_hi and eps > 0")
        if self.seeds.branch < 0:
            raise ValidationError("seeds.branch must be >= 0")
        if self.seeds.trials < 1:
            raise ValidationError("seeds.trials must be >= 1")
        if self.scenario == "collision":
            p = self.particle
            if p is None:
                raise ValidationError("collision scenario needs a 'particle' section")
            if p.mass <= 0.0:
                raise ValidationError("all masses must be positive")
        else:
            m = self.measurement
            if m is None:
                raise ValidationError(
                    "position_measurement scenario needs a 'measurement' section"
                )
            if len(self.center_of_mass.masses) != 1:
                raise ValidationError("position_measurement needs exactly one mass")
            if m.a.mass <= 0.0 or m.b.mass <= 0.0:
                raise ValidationError("all masses must be positive")
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
        """Build every grid and initial packet, and test dt against each mass
        point's fastest kinetic phase, so that a run fails on them before it
        propagates anything."""
        cm = self.center_of_mass
        with _at("center_of_mass residual window"):
            Grid(cm.residual_points, -cm.residual_half_width, cm.residual_half_width)
        if self.scenario == "collision":
            p = self.particle
            subjects = [(LABEL_S, "particle", p, {"particle.packet": p.packet})]
        else:
            m = self.measurement
            subjects = [
                (label, f"measurement.{label}", spec, {
                    f"measurement.{label}.packets[{i}]": q
                    for i, q in enumerate(spec.packets)
                })
                for label, spec in ((LABEL_A, m.a), (LABEL_B, m.b))
            ]
        factors = []
        kinetic = {}
        # Subject packets come first: GaussianParams rejects hbar <= 0 and
        # mass_unit <= 0 before _cm_setup divides by them.
        for label, path, spec, packets in subjects:
            with _at(f"{path}.grid"):
                grid = spec.grid.to_grid()
            for where, packet in packets.items():
                with _at(where):
                    make_gaussian(
                        grid, packet.params(spec.mass, self.hbar, self.mass_unit), label
                    )
            factors.append(Factor.coordinate(label, grid))
            kinetic[label] = spec.mass
        for mass in cm.masses:
            with _at(f"center_of_mass (mass {mass:g})"):
                grid_cm, params = _cm_setup(self, mass)
                make_gaussian(grid_cm, params, LABEL_CM)
            h = HamiltonianSpec(kinetic={LABEL_CM: mass, **kinetic}, hbar=self.hbar)
            with _at(f"dt (mass {mass:g})"):
                check_time_step(Space((Factor.coordinate(LABEL_CM, grid_cm), *factors)),
                                h, self.dt)


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


def _encode(value):
    """Inverse of _decode; sections that are None are left out."""
    if is_dataclass(value):
        return {
            f.name: _encode(getattr(value, f.name))
            for f in fields(value) if getattr(value, f.name) is not None
        }
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, np.ndarray):
        return {"real": value.real.tolist(), "imag": value.imag.tolist()}
    return value


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


def _uniform_state(grid: Grid, label: str) -> StateVector:
    amps = np.full(grid.n_points, 1.0 / math.sqrt(grid.x_max - grid.x_min))
    return StateVector(Space((Factor.coordinate(label, grid),)), amps)


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


def _collision_hamiltonian(cfg: ScenarioConfig, mass: float) -> HamiltonianSpec:
    return HamiltonianSpec(
        kinetic={LABEL_CM: mass, LABEL_S: cfg.particle.mass},
        internal=(LABEL_INT, cfg.internal.hamiltonian),
        interaction=_coupling(cfg, LABEL_S),
        hbar=cfg.hbar,
    )


def _collision_start(
    cfg: ScenarioConfig, mass: float, phi_int: StateVector, psi_s: StateVector
) -> tuple[StateVector, HamiltonianSpec]:
    """Initial state and Hamiltonian at one mass, checked uncoupled at t = 0.

    This takes milliseconds, so run_collision calls it for every mass before
    anything propagates and again in each point, rather than holding every
    initial state through the sweep.
    """
    grid_cm, cm_params = _cm_setup(cfg, mass)
    psi0 = lift_to_auxiliary(phi_int, psi_s, cm_params, grid_cm, LABEL_CM)
    h = _collision_hamiltonian(cfg, mass)
    initial_coupling = abs(interaction_energy(psi0, h))
    if initial_coupling > INTERACTION_TOL:
        raise PropagationError(
            f"interaction is not negligible at the start: |<H_coupling>| = "
            f"{initial_coupling:.3e} exceeds {INTERACTION_TOL:g} at t = 0"
        )
    return psi0, h


def _collision_residual(cfg: ScenarioConfig, phi_int, psi_s) -> list[float]:
    """Residual of the dropped center-of-mass kinetic term, per configured mass.

    The relative state is evolved with the anchor coordinate as an explicit
    parameter (uniform weight, no center-of-mass kinetic term) on a window
    wide enough that the collision misses the particle entirely at the window
    edges, keeping the state periodic-smooth for the spectral derivative.
    That propagation does not depend on the mass, so it runs once per sweep;
    each mass enters only through P^2 / 2 mass on its final state.
    """
    cm = cfg.center_of_mass
    grid_w = Grid(cm.residual_points, -cm.residual_half_width, cm.residual_half_width)
    flat = _uniform_state(grid_w, LABEL_CM)
    psi0 = tensor_product([flat, phi_int, psi_s])
    h_par = HamiltonianSpec(
        kinetic={LABEL_S: cfg.particle.mass},
        internal=(LABEL_INT, cfg.internal.hamiltonian),
        interaction=_coupling(cfg, LABEL_S),
        hbar=cfg.hbar,
    )
    steps = _steps_for(cfg)
    final = evolve_exact(psi0, h_par, cfg.dt, steps, checkpoint_every=max(steps, 1)).final
    return [factorization_residual(final, m, cfg.hbar, LABEL_CM) for m in cm.masses]


def _collision_point(
    cfg: ScenarioConfig, mass: float, phi_int: StateVector, psi_s: StateVector,
    residual_norm: float,
) -> CollisionPoint:
    psi0, h = _collision_start(cfg, mass, phi_int, psi_s)
    grid_cm, cm_params = _cm_setup(cfg, mass)
    steps = _steps_for(cfg)

    exact = evolve_exact(psi0, h, cfg.dt, steps, cfg.checkpoint_every)
    worst_initial, worst_final = _check_three_periods(cfg, exact)
    energy_drift = _energy_drift(exact.energies)

    phi_cm = make_gaussian(grid_cm, cm_params, LABEL_CM)
    fact = evolve_factorized(
        phi_cm, tensor_product([phi_int, psi_s]), h, cfg.dt, steps,
        cfg.checkpoint_every, freeze_at=cm_params.r0,
    )
    deficit = fidelity_deficit(exact.final, fact.final)

    extraction = extract_relative_state(exact.final, fact.cm.final)
    branches = transform_to_intrinsic(
        extraction.state, Bipartition([LABEL_S], [LABEL_INT])
    )
    rho_mixed = mixed_density_matrix(branches, [LABEL_S])
    rho_psi1 = reduced_density_matrix(extraction.state, [LABEL_S])
    identity_distance = trace_distance(rho_mixed, rho_psi1)
    rho_full = reduced_density_matrix(exact.final, [LABEL_S])
    distance = trace_distance(rho_mixed, rho_full)

    eigs = rho_mixed.eigenvalues()

    return CollisionPoint(
        mass=mass,
        sigma_cm=cm_params.sigma,
        fidelity_deficit=float(deficit),
        residual_norm=residual_norm,
        overlap_weight=extraction.overlap_weight,
        branch_probabilities=[float(p) for p in branches.probabilities()],
        branch_entropy=entanglement_entropy(branches),
        degenerate_groups=[list(g) for g in branches.degenerate_groups],
        schmidt_identity_distance=float(identity_distance),
        trace_distance=float(distance),
        rho_eigenvalues=[float(v) for v in eigs],
        rho_trace=rho_mixed.trace,
        rho_hermiticity_error=rho_mixed.hermiticity_error,
        interaction_initial=float(worst_initial),
        interaction_final=float(worst_final),
        norm_drift=float(exact.norm_drift),
        energy_drift=float(energy_drift),
    )


def run_collision(cfg: ScenarioConfig) -> CollisionReport:
    """Collision experiment over the configured mass sweep."""
    if cfg.scenario != "collision":
        raise ValidationError(f"config is for scenario {cfg.scenario!r}, not collision")
    psi_s = make_gaussian(
        cfg.particle.grid.to_grid(),
        cfg.particle.packet.params(cfg.particle.mass, cfg.hbar, cfg.mass_unit),
        LABEL_S,
    )
    phi_int = level_state(LABEL_INT, cfg.internal.state)
    masses = cfg.center_of_mass.masses
    for mass in masses:
        _collision_start(cfg, mass, phi_int, psi_s)
    residuals = _collision_residual(cfg, phi_int, psi_s)
    return CollisionReport([
        _collision_point(cfg, m, phi_int, psi_s, r) for m, r in zip(masses, residuals)
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
    chosen: tuple[tuple[str, ...], tuple[str, ...], np.ndarray] | None = None
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
                chosen = (absorbed, free, ok)
        if chosen is not None:
            break

    if chosen is None:
        best = min(candidates, key=lambda c: c["leakage"])
        return PartitionReport(
            absorbed=None, free=None, leakage=best["leakage"],
            c_coefficients=[], d_coefficients=[], weight_check=0.0,
            candidates=candidates,
        )

    absorbed, free, ok = chosen
    leakage = next(
        c["leakage"] for c in candidates
        if tuple(c["absorbed"]) == absorbed and tuple(c["free"]) == free
    )
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


def run_position_measurement(cfg: ScenarioConfig) -> MeasurementReport:
    """Two-particle measurement model: particle a is trapped near the heavy
    system while entangled partner b never couples to anything.

    The probe particle b evolves under its kinetic term alone, so the
    three-period contract holds for it identically; sampling the Schmidt
    branches of the final relative state reproduces the initial entanglement
    weights as outcome statistics, and each branch leaves b in the
    corresponding freely evolved component.
    """
    if cfg.scenario != "position_measurement":
        raise ValidationError(
            f"config is for scenario {cfg.scenario!r}, not position_measurement"
        )
    m = cfg.measurement
    mass = cfg.center_of_mass.masses[0]
    grid_cm, cm_params = _cm_setup(cfg, mass)
    grid_a = m.a.grid.to_grid()
    grid_b = m.b.grid.to_grid()

    a_states = [
        make_gaussian(grid_a, p.params(m.a.mass, cfg.hbar, cfg.mass_unit), LABEL_A)
        for p in m.a.packets
    ]
    b_states = [
        make_gaussian(grid_b, p.params(m.b.mass, cfg.hbar, cfg.mass_unit), LABEL_B)
        for p in m.b.packets
    ]
    a_overlap = abs(inner_product(a_states[0], a_states[1]))
    b_overlap = abs(inner_product(b_states[0], b_states[1]))
    if a_overlap > SEPARATION_TOL:
        raise PropagationError(
            f"absorbed-particle components are not separated: overlap "
            f"{a_overlap:.3e} exceeds {SEPARATION_TOL:g}"
        )

    coeffs = m.coefficients
    psi_s = superpose(
        [
            (coeffs[l], tensor_product([a_states[l], b_states[l]]))
            for l in range(len(coeffs))
        ],
        normalize=True,
    )
    phi_int = level_state(LABEL_INT, cfg.internal.state)
    psi0 = lift_to_auxiliary(phi_int, psi_s, cm_params, grid_cm, LABEL_CM)

    trap = m.a.trap
    h = HamiltonianSpec(
        kinetic={LABEL_CM: mass, LABEL_A: m.a.mass, LABEL_B: m.b.mass},
        potentials={LABEL_A: trap.potential},
        internal=(LABEL_INT, cfg.internal.hamiltonian),
        interaction=_coupling(cfg, LABEL_A),
        hbar=cfg.hbar,
    )
    steps = _steps_for(cfg)
    exact = evolve_exact(psi0, h, cfg.dt, steps, cfg.checkpoint_every)
    energy_drift = _energy_drift(exact.energies)
    # The coupling to the absorbed compound stays on; the contract concerns
    # the outgoing particle b, which has no coupling terms at all.
    free_particle_coupling = 0.0
    interaction_initial = abs(exact.couplings[0])
    interaction_final = abs(exact.couplings[-1])

    h_cm = HamiltonianSpec(kinetic={LABEL_CM: mass}, hbar=cfg.hbar)
    phi_cm = make_gaussian(grid_cm, cm_params, LABEL_CM)
    phi_free = evolve_exact(phi_cm, h_cm, cfg.dt, steps, max(steps, 1)).final
    extraction = extract_relative_state(exact.final, phi_free)
    psi1 = extraction.state

    cut = Bipartition([LABEL_INT, LABEL_A], [LABEL_B])
    result = schmidt_decompose(psi1, cut)
    expected = sorted((abs(c) for c in coeffs), reverse=True)

    # Freely evolved b components identify which branch realizes which outcome.
    h_b = HamiltonianSpec(kinetic={LABEL_B: m.b.mass}, hbar=cfg.hbar)
    b_evolved = [
        evolve_exact(b, h_b, cfg.dt, steps, max(steps, 1)).final for b in b_states
    ]
    outcome_of_branch = []
    branch_deficits = []
    for j in range(result.rank):
        fids = [abs(inner_product(result.right_states[j], bt)) for bt in b_evolved]
        outcome = int(np.argmax(fids))
        outcome_of_branch.append(outcome)
        branch_deficits.append(1.0 - fids[outcome])

    # Independently evolved absorbed compounds, for the orthogonality report.
    h_compound = HamiltonianSpec(
        kinetic={LABEL_CM: mass, LABEL_A: m.a.mass},
        potentials={LABEL_A: trap.potential},
        internal=(LABEL_INT, cfg.internal.hamiltonian),
        interaction=_coupling(cfg, LABEL_A),
        hbar=cfg.hbar,
    )
    compounds = []
    for a_l in a_states:
        comp0 = tensor_product([phi_cm, phi_int, a_l])
        comp = evolve_exact(comp0, h_compound, cfg.dt, steps, max(steps, 1)).final
        compounds.append(extract_relative_state(comp, phi_free).state)
    compound_overlap = abs(inner_product(compounds[0], compounds[1]))

    sampler = BranchSampler(cfg.seeds.branch)
    draws = sampler.draw_many(result, cfg.seeds.trials)
    counts = [0] * len(coeffs)
    for j in draws:
        counts[outcome_of_branch[int(j)]] += 1
    freqs = [c / cfg.seeds.trials for c in counts]

    a_marginal = position_marginal(psi1, LABEL_A)
    inside = _inside_mask(grid_a, cfg.partition)
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
        norm_drift=float(exact.norm_drift),
        energy_drift=float(energy_drift),
        interaction_initial=float(interaction_initial),
        interaction_final=float(interaction_final),
    )


def run_scenario(cfg: ScenarioConfig):
    """Dispatch to the configured scenario."""
    if cfg.scenario == "collision":
        return run_collision(cfg)
    return run_position_measurement(cfg)
