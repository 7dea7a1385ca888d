from __future__ import annotations

import concurrent.futures
import json
import math
import os
import re
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import framesim as fs
from framesim.cli import EXIT_RUNTIME, main
from framesim.errors import PropagationError, ValidationError
from framesim.hilbert import Factor, Grid, Space, StateVector, make_gaussian, tensor_product
from framesim.scenarios import (
    PartitionGeometry,
    ScenarioConfig,
    _branch_counts,
    detect_partition,
    run_collision,
    run_position_measurement,
)

from conftest import fast_collision_dict, fast_measurement_dict
from oracles import (
    binomial_3sigma,
    dense,
    dense_trace_distance,
    grid_collision_exact,
    grid_collision_residual,
    jacobi_map_back,
    jacobi_start,
)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_residual_window_is_checked_for_the_collision_only():
    # 100 points is no power of two; only the collision builds that window.
    raw = fast_measurement_dict()
    raw["center_of_mass"]["residual_points"] = 100
    ScenarioConfig.from_dict(raw)
    raw = fast_collision_dict()
    raw["center_of_mass"]["residual_points"] = 100
    with pytest.raises(ValidationError, match="center_of_mass residual window: "):
        ScenarioConfig.from_dict(raw)


def test_config_rejects_unnormalized_coefficients():
    raw = fast_measurement_dict()
    raw["measurement"]["coefficients"] = {"real": [0.9, 0.9], "imag": [0.0, 0.0]}
    with pytest.raises(ValidationError, match=r"sum \|c_l\|\^2 = 1"):
        ScenarioConfig.from_dict(raw)


def test_config_rejects_bad_schedule():
    raw = fast_collision_dict()
    raw["schedule"] = {"t_initial": 2.0, "t_interaction": 1.0, "t_final": 6.0}
    with pytest.raises(ValidationError, match="strictly increasing"):
        ScenarioConfig.from_dict(raw)


def test_config_rejects_nonpositive_mass():
    raw = fast_collision_dict()
    raw["center_of_mass"]["masses"] = [100.0, -5.0]
    with pytest.raises(ValidationError, match="positive"):
        ScenarioConfig.from_dict(raw)


def test_config_rejects_unknown_scenario():
    raw = fast_collision_dict()
    raw["scenario"] = "teleportation"
    with pytest.raises(ValidationError, match="unknown scenario"):
        ScenarioConfig.from_dict(raw)


def test_config_rejects_mismatched_dt():
    raw = fast_collision_dict()
    raw["dt"] = 0.0131
    with pytest.raises(ValidationError, match="integer multiple"):
        ScenarioConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# collision scenario
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def zero_coupling_report():
    raw = fast_collision_dict()
    raw["coupling"]["strength"] = 0.0
    return run_collision(ScenarioConfig.from_dict(raw))


def test_zero_coupling_single_branch(zero_coupling_report):
    point = zero_coupling_report.points[0]
    assert len(point.branch_probabilities) == 1
    assert point.branch_probabilities[0] == pytest.approx(1.0, abs=1e-10)
    assert point.trace_distance <= 1e-10
    assert point.branch_entropy == pytest.approx(0.0, abs=1e-12)


def test_zero_coupling_contracts(zero_coupling_report):
    point = zero_coupling_report.points[0]
    assert point.interaction_initial == 0.0
    assert point.interaction_final == 0.0
    assert point.residual_norm <= 1e-12
    assert point.fidelity_deficit <= 1e-10
    assert point.overlap_weight == pytest.approx(1.0, abs=1e-9)


@pytest.fixture(scope="module")
def fast_collision_run():
    """The fast collision's report, and the density matrices whose
    eigenvalues it took."""
    spectra, eigenvalues = [], fs.DensityMatrix.eigenvalues

    def recorded(rho):
        spectra.append(rho)
        return eigenvalues(rho)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fs.DensityMatrix, "eigenvalues", recorded)
        report = run_collision(ScenarioConfig.from_dict(fast_collision_dict()))
    return report, spectra


@pytest.fixture(scope="module")
def fast_collision_report(fast_collision_run):
    return fast_collision_run[0]


def test_rho_eigenvalues_from_the_compression_match_dense(fast_collision_run):
    report, spectra = fast_collision_run
    (rho,) = spectra
    assert rho.factor.shape == (rho.dim, 2)
    eigs = rho.eigenvalues()
    assert report.points[0].rho_eigenvalues == eigs.tolist()
    assert np.max(np.abs(eigs - np.linalg.eigvalsh(dense(rho))[::-1])) <= 1e-14


def test_collision_point_invariants(fast_collision_report):
    point = fast_collision_report.points[0]
    assert abs(sum(point.branch_probabilities) - 1.0) <= 1e-10
    assert point.schmidt_identity_distance <= 1e-10
    assert abs(point.rho_trace - 1.0) <= 1e-10
    assert point.rho_hermiticity_error <= 1e-10
    assert min(point.rho_eigenvalues) >= -1e-10
    assert point.interaction_initial < 1e-8
    assert point.interaction_final < 1e-8
    assert point.norm_drift <= 1e-9
    assert len(point.branch_probabilities) == 2


SCHEMA = Path(__file__).resolve().parent.parent / "SCHEMA.md"


def schema_keys(record: str) -> set[str]:
    """The keys SCHEMA.md lists for a report record: the backticked names in
    the first paragraph under its heading, plus the `record` tag."""
    section = SCHEMA.read_text().split(f"### `{record}`", 1)[1].split("\n", 1)[1]
    return set(re.findall(r"`(\w+)`", section.strip().split("\n\n", 1)[0])) | {"record"}


def test_collision_records_are_serializable(fast_collision_report):
    records = fast_collision_report.to_records()
    text = json.dumps(records)
    assert "collision_summary" in text
    for rec in records:
        assert set(rec) == schema_keys(rec["record"])


def test_measurement_records_are_serializable(fast_measurement_report):
    records = fast_measurement_report.to_records()
    json.dumps(records)
    assert [rec["record"] for rec in records] == ["measurement", "partition"]
    for rec in records:
        assert set(rec) == schema_keys(rec["record"])


def test_collision_rejects_overlapping_start(no_propagation):
    raw = fast_collision_dict()
    raw["particle"]["packet"]["r0"] = 0.0
    cfg = ScenarioConfig.from_dict(raw)
    with pytest.raises(PropagationError, match="not negligible at the start"):
        run_collision(cfg)


def test_collision_checks_every_start_before_propagating(no_propagation):
    # At r0 = -8 the narrow packet of mass 1e4 starts uncoupled (|<H_c>| ~ 1e-15),
    # while the wide packet of mass 1 already overlaps the particle (~ 4e-6).
    # dt = 0.004 keeps mass 1 inside the relative run's dt bound, which
    # validate() checks.
    raw = fast_collision_dict()
    raw["particle"]["packet"]["r0"] = -8.0
    raw["center_of_mass"]["masses"] = [1e4, 1.0]
    raw["dt"] = 0.004
    cfg = ScenarioConfig.from_dict(raw)
    with pytest.raises(PropagationError, match="not negligible at the start"):
        run_collision(cfg)


def test_collision_propagates_residual_once(monkeypatch):
    # Every propagation is cut to two steps: enough for the residual window,
    # whose anchor positions already overlap the particle, to pick up
    # anchor dependence.
    calls = Counter()
    original = fs.dynamics.evolve_exact

    def short(psi0, h, dt, steps, checkpoint_every=100):
        kinetic = tuple(sorted(h.kinetic.items()))
        calls[psi0.space.dims, kinetic, steps > 0] += 1
        return original(psi0, h, dt, min(steps, 2), checkpoint_every)

    # Each start is checked uncoupled once, under H_rel with its reduced mass.
    starts, interaction_energy = Counter(), fs.scenarios.interaction_energy

    def checked(state, h):
        starts[h.kinetic["S"]] += 1
        return interaction_energy(state, h)

    monkeypatch.setattr("framesim.scenarios.evolve_exact", short)
    monkeypatch.setattr("framesim.dynamics.evolve_exact", short)
    monkeypatch.setattr("framesim.scenarios.interaction_energy", checked)
    raw = fast_collision_dict()
    raw["center_of_mass"]["masses"] = [100.0, 1000.0, 10000.0]
    cfg = ScenarioConfig.from_dict(raw)
    report = run_collision(cfg)
    cm = cfg.center_of_mass
    m = cfg.particle.mass
    # The residual window and the factorized relative state do not depend on
    # the mass: both are one stacked run per sweep, under the particle's own
    # kinetic mass, of the packet's K = min(anchors, plane waves) rows in an
    # orthonormal anchor basis (fewer than the anchors here) and, as its last
    # row, the relative state's start.  The window's state mapped to the
    # anchors is checked by one zero-step evaluation under the grid H, and
    # the rows by one under H_rel.
    (waves,) = [dims for dims, kinetic, steps in calls
                if kinetic == (("S", m),) and steps]
    rows = (waves[0] - 1, *waves[1:])
    assert 16 < rows[0] < cm.residual_points and waves[1:] == (2, 512)
    assert calls[waves, (("S", m),), True] == 1
    assert calls[(cm.residual_points, 2, 512), (("S", m),), False] == 1
    assert calls[rows, (("S", m),), False] == 1
    assert starts == Counter(m * mass / (m + mass) for mass in cm.masses)
    for mass in cm.masses:
        # One stacked relative run with the reduced mass, over the Schmidt
        # terms of the start; one zero-step check of the state mapped back
        # to the grid; the free center-of-mass packet.
        mu = (("S", m * mass / (m + mass)),)
        (stacked,) = [dims for dims, kinetic, steps in calls if kinetic == mu]
        assert len(stacked) == 3 and 1 < stacked[0] < 16 and calls[stacked, mu, True] == 1
        assert calls[(cm.points, 2, 512), (("A_cm", mass), ("S", m)), False] == 1
        assert calls[(cm.points,), (("A_cm", mass),), True] == 1
    assert sum(calls.values()) == 3 * len(cm.masses) + 3
    scaled = [p.residual_norm * p.mass for p in report.points]
    assert scaled[0] > 0.0
    assert scaled == pytest.approx([scaled[0]] * 3, rel=1e-12)


@pytest.mark.parametrize("phi", [None, [0.6, 0.8j]], ids=["shipped", "complex"])
def test_jacobi_split_is_the_split_of_the_full_start(monkeypatch, collision_config, phi):
    """The split of the level-free (R, r) plane, with right states
    phi_int (x) g_k, is the Schmidt decomposition of the full start psi0
    (oracles.jacobi_start): the same rank, coefficients within 1e-13,
    truncation residuals within 1e-28, and right states equal up to a
    phase, |<G_k|G'_k>| >= 1 - 1e-12.  An SVD fixes the vector of
    coefficient c_k only to an angle of about 1e-16 / c_k, so the last
    bound widens to (1e-15 / c_k)^2 for the terms just above the truncation
    tolerance (measured at c_k = 2.4e-12 with phi = (0.6, 0.8i): 3.7e-10).
    The t = 0 coupling check reads psi0's r-marginal amplitude times
    phi_int, whose <H_coupling> under the same H is psi0's within 1e-13
    relative (measured: at most 1.3e-15).  The shipped masses keep K = 9,
    7 and 5 terms."""
    cfg = collision_config
    phi_int = fs.level_state("A_int", cfg.internal.state if phi is None else phi)
    checked, interaction_energy = [], fs.scenarios.interaction_energy

    def spy(state, h):
        checked.append((state, h))
        return interaction_energy(state, h)

    monkeypatch.setattr("framesim.scenarios.interaction_energy", spy)
    ranks = []
    for mass in cfg.center_of_mass.masses:
        split = fs.scenarios._jacobi_split(cfg, mass, phi_int)
        psi0 = jacobi_start(cfg, mass, phi_int, split.left_states[0].space.factors[0].grid)
        state, h = checked[-1]
        assert state.space.labels == ("A_int", "S")
        want = interaction_energy(psi0, h)
        assert abs(interaction_energy(state, h) - want) <= 1e-13 * abs(want)
        full = fs.schmidt_decompose(psi0, split.cut)
        assert split.rank == full.rank
        assert np.max(np.abs(split.coefficients - full.coefficients)) <= 1e-13
        assert abs(split.truncation_residual - full.truncation_residual) <= 1e-28
        for c, g, g_full in zip(split.coefficients, split.right_states, full.right_states,
                                strict=True):
            assert 1.0 - abs(fs.inner_product(g, g_full)) <= max(1e-12, (1e-15 / c) ** 2)
        ranks.append(split.rank)
    assert ranks == [9, 7, 5]


@pytest.fixture(scope="module")
def three_mass_collision():
    """The fast collision over masses 1e2, 1e3 and 1e4: its config, its
    records, and per mass the final state with its Schmidt split across
    (A_cm, A_int) | S, and the two density matrices of trace_distance."""
    raw = fast_collision_dict()
    raw["center_of_mass"]["masses"] = [100.0, 1000.0, 10000.0]
    cfg = ScenarioConfig.from_dict(raw)
    splits, pairs = [], []
    decompose, distance = fs.scenarios.schmidt_decompose, fs.scenarios.trace_distance

    def split_spy(psi, cut, *args):
        result = decompose(psi, cut, *args)
        if cut == fs.Bipartition(["A_cm", "A_int"], ["S"]):
            splits.append((psi, result))
        return result

    def distance_spy(a, b):
        pairs.append((a, b))
        return distance(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("framesim.scenarios.schmidt_decompose", split_spy)
        mp.setattr("framesim.scenarios.trace_distance", distance_spy)
        records = run_collision(cfg).to_records()
    # Each mass takes schmidt_identity_distance first, then trace_distance.
    return cfg, records, splits, pairs[1::2]


def test_rho_full_from_the_split_matches_the_dense_partial_trace(three_mass_collision):
    """trace_distance, with rho_full the certified Schmidt factor of the
    final state across (A_cm, A_int) | S, equals the distance to the dense
    partial trace within 1e-12 absolute at every mass (measured: 2.8e-14
    to 3.3e-14, at ranks 13, 9 and 8), and the factor leaves out at most
    1e-20 of the weight (measured: 1.9e-25 to 4.5e-25)."""
    _, records, splits, pairs = three_mass_collision
    points = [r for r in records if r["record"] == "collision_point"]
    assert len(points) == len(splits) == len(pairs) == 3
    for point, (final, split), (rho_mixed, rho_full) in zip(points, splits, pairs):
        assert split.truncation_residual <= 1e-20
        assert rho_full.factor.shape == (512, split.rank)
        rho_dense = dense(fs.reduced_density_matrix(final, ["S"]))
        want = dense_trace_distance(dense(rho_mixed), rho_dense)
        assert abs(point["trace_distance"] - want) <= 1e-12, point["mass"]


@pytest.fixture(scope="module")
def jacobi_and_grid_records(three_mass_collision):
    """Records of the fast collision over three masses, from the shipped
    Jacobi and plane-wave runs and with the grid oracles in their place."""
    cfg, jacobi, _, _ = three_mass_collision
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("framesim.scenarios._collision_exact", grid_collision_exact)
        mp.setattr("framesim.scenarios._collision_residual", grid_collision_residual)
        grid = run_collision(cfg).to_records()
    return jacobi, grid


def numbers(record: dict) -> dict:
    """Every number of a record by field (list entries indexed)."""
    out = {}
    for key, value in record.items():
        items = enumerate(np.ravel(value)) if isinstance(value, list) else [(None, value)]
        for i, v in items:
            if isinstance(v, (int, float, np.number)) and not isinstance(v, bool):
                out[key if i is None else f"{key}[{i}]"] = float(v)
    return out


def test_collision_matches_grid_oracle(jacobi_and_grid_records):
    """Every collision_point field of the Jacobi run equals the grid run's
    within 1e-7 relative (measured: 2.2e-8 for energy_drift, <= 1.5e-9 for
    the rest); fields at rounding level, such as norm_drift, within 1e-13
    absolute (measured: 2.8e-14)."""
    jacobi, grid = jacobi_and_grid_records
    assert [r["record"] for r in jacobi] == [r["record"] for r in grid]
    points = [(j, g) for j, g in zip(jacobi, grid) if j["record"] == "collision_point"]
    assert len(points) == 3
    for j, g in points:
        assert j["degenerate_groups"] == g["degenerate_groups"]
        got, want = numbers(j), numbers(g)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-7, abs=1e-13), (j["mass"], key)


def test_collision_residual_matches_grid_oracle(jacobi_and_grid_records):
    """The plane-wave residual equals the anchor-resolved grid run's within
    5e-10 relative at every mass (measured: 2.6e-10, from the window's seam,
    where the grid H cuts g(x - X) and H_rel carries it round)."""
    jacobi, grid = jacobi_and_grid_records
    residuals = [r["residual_norms"] for r in (jacobi[-1], grid[-1])]
    assert residuals[0] == pytest.approx(residuals[1], rel=5e-10, abs=0.0)


@pytest.mark.parametrize("anchors, bound", [(64, 5e-11), (256, 5e-10)], ids=["64", "256"])
def test_residual_at_any_anchor_count_matches_the_grid_run(monkeypatch, anchors, bound):
    """With fewer anchors than kept plane waves (64) and with more (256),
    the stacked run holds min(anchors, plane waves) rows and the relative
    state, and its residual equals the grid run's within `bound` relative
    (measured: 5.2e-12 at 64 anchors; 2.6e-10 at 256, from the window's
    seam, where the grid H cuts g(x - X) and H_rel carries it round)."""
    raw = fast_collision_dict()
    raw["center_of_mass"]["residual_points"] = anchors
    cfg = ScenarioConfig.from_dict(raw)
    (psi_s,) = fs.scenarios._initial_packets(cfg)["S"]
    phi_int = fs.level_state("A_int", cfg.internal.state)
    spectrum = np.abs(np.fft.fft(psi_s.amplitudes))
    modes = int(np.sum(spectrum >= fs.schmidt.DEFAULT_TRUNC_TOL * spectrum.max()))
    stacks, original = [], fs.dynamics.evolve_exact

    def spy(psi0, h, dt, steps, checkpoint_every=100):
        if psi0.space.has("k") and steps:
            stacks.append(psi0.space.dims)
        return original(psi0, h, dt, steps, checkpoint_every)

    monkeypatch.setattr("framesim.scenarios.evolve_exact", spy)
    got, _ = fs.scenarios._collision_residual(cfg, phi_int, psi_s)
    assert stacks == [(min(anchors, modes) + 1, 2, 512)]
    want, _ = grid_collision_residual(cfg, phi_int, psi_s)
    assert got == pytest.approx(want, rel=bound, abs=0.0)


@pytest.mark.parametrize("threaded", [False, True], ids=["inline", "threaded"])
@pytest.mark.parametrize("anchors", [256, 64], ids=["256", "64"])
def test_residual_stack_carries_the_factorized_relative_state(monkeypatch, anchors, threaded):
    """The stack's last row, psi_s (x) phi_int, is bit-equal to
    evolve_factorized's run of that state alone, with the rows run inline
    or on threads, with more anchors than kept plane waves and with fewer."""
    raw = fast_collision_dict()
    raw["center_of_mass"]["residual_points"] = anchors
    cfg = ScenarioConfig.from_dict(raw)
    (psi_s,) = fs.scenarios._initial_packets(cfg)["S"]
    phi_int = fs.level_state("A_int", cfg.internal.state)
    want = fs.evolve_factorized(tensor_product([phi_int, psi_s]),
                                fs.scenarios._collision_hamiltonian(cfg, None), cfg.dt,
                                fs.scenarios._steps_for(cfg))
    pools = []

    class Spy(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    monkeypatch.setattr(fs.dynamics, "THREADED_SLAB", 1 if threaded else 1 << 62)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _, relative = fs.scenarios._collision_residual(cfg, phi_int, psi_s)
    assert relative.space == want.space
    assert np.array_equal(relative.amplitudes, want.amplitudes)
    assert relative.amplitudes.flags.owndata
    # The stacked run; the zero-step checks take no steps, and make no pool.
    assert pools == ([1] if threaded else [])


def test_collision_rejects_a_mismatched_residual_mapping(monkeypatch, tmp_path, capsys):
    """A mapped residual window that differs from its relative anchor stack
    fails the cross-check: a simulation error, exit code 4 on the command
    line."""
    original = fs.dynamics.evolve_exact

    def corrupt(psi0, h, dt, steps, checkpoint_every=100):
        # The mapped state alone is evaluated under the grid H with no
        # center-of-mass kinetic term.
        ia = h.interaction
        if ia is not None and ia.anchor == "A_cm" and "A_cm" not in h.kinetic:
            psi0 = StateVector(psi0.space, psi0.amplitudes * (1.0 + 1e-6))
        return original(psi0, h, dt, steps, checkpoint_every)

    monkeypatch.setattr("framesim.scenarios.evolve_exact", corrupt)
    raw = fast_collision_dict()
    with pytest.raises(PropagationError, match="relative anchor stack"):
        run_collision(ScenarioConfig.from_dict(raw))
    path = tmp_path / "collision.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "relative anchor stack" in err and "Traceback" not in err


def test_collision_rejects_a_mismatched_mapping(monkeypatch):
    """A stacked relative state that differs from the one whose diagnostics
    the run reports fails the mapped state's cross-check."""
    original = fs.dynamics.evolve_exact

    def corrupt(psi0, h, dt, steps, checkpoint_every=100):
        result = original(psi0, h, dt, steps, checkpoint_every)
        if psi0.space.has("k"):
            amps = result.final.amplitudes.copy()
            amps[0] *= 1.0 + 1e-6
            result.final = StateVector(result.final.space, amps)
        return result

    monkeypatch.setattr("framesim.scenarios.evolve_exact", corrupt)
    cfg = ScenarioConfig.from_dict(fast_collision_dict())
    with pytest.raises(PropagationError, match="stacked relative run"):
        run_collision(cfg)


def fast_split(mass: float, p0: float | None = None):
    raw = fast_collision_dict()
    if p0 is not None:
        raw["particle"]["packet"]["p0"] = p0
    cfg = ScenarioConfig.from_dict(raw)
    return cfg, fs.scenarios._jacobi_split(cfg, mass, fs.level_state("A_int", cfg.internal.state))


@pytest.mark.parametrize("mass, p0", [(1e2, None), (1e3, None), (1e4, None), (1e2, 24.0)],
                         ids=["1e2", "1e3", "1e4", "1e2-wrapped"])
def test_jacobi_map_back_matches_the_per_term_oracle(mass, p0):
    """The exact state mapped back with one shear of the summed terms equals
    the sum of its Schmidt terms mapped one at a time within 1e-12 relative
    in norm (measured: 2.1e-15 to 1.5e-14).  With p0 = 24 the packet runs
    round the particle window's seam (30% of the final weight lies in its
    first 16 points), so the fold is checked too.  The oracle maps the
    stacked run that _collision_exact made, which it does not return."""
    cfg, split = fast_split(mass, p0)
    runs, original = [], fs.dynamics.evolve_exact

    def spy(psi0, h, dt, steps, checkpoint_every=100):
        result = original(psi0, h, dt, steps, checkpoint_every)
        if psi0.space.has("k"):
            runs.append(result)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("framesim.scenarios.evolve_exact", spy)
        final, times, *_ = fs.scenarios._collision_exact(cfg, mass, split)
    (run,) = runs
    assert times == [t for t, _ in run.trajectory]
    want = jacobi_map_back(cfg, mass, split, run)
    assert final.space.labels == want.space.labels and final.space.dims == want.space.dims
    gap = np.linalg.norm(final.amplitudes - want.amplitudes)
    assert gap <= 1e-12 * np.linalg.norm(want.amplitudes)


@pytest.mark.parametrize("where", ["residual", "map-back"])
def test_shift_to_x_by_rows_equals_the_outer_product_form(where):
    """Shifting one anchor's row at a time is bit-equal to applying the
    whole anchors x points phase table at once, on the residual window's
    (anchors, levels, r) shape and on the map-back's wider one."""
    cfg = ScenarioConfig.from_dict(fast_collision_dict())
    if where == "residual":
        anchors = fs.scenarios._residual_window(cfg).space.factors[0].grid.positions()
        grid = cfg.particle.grid.to_grid()
    else:
        anchors = fs.scenarios._cm_setup(cfg, 100.0)[0].positions()
        grid = fs.scenarios._wide_grid(cfg)
    rng = np.random.default_rng(5)
    shape = (len(anchors), 2, grid.n_points)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = np.fft.ifft(np.fft.fft(amps, axis=-1)
                       * np.exp(-1j * np.outer(anchors, grid.wavenumbers()))[:, None, :],
                       axis=-1)
    got = amps.copy()
    assert fs.scenarios._shift_to_x(got, anchors, grid) is got
    assert np.array_equal(got, want)


def traced_peak(fn, *args) -> int:
    """tracemalloc's peak in bytes while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_jacobi_split_memory_peak():
    """tracemalloc's peak during one mass's Jacobi split stays at or below
    6.25 MiB (measured: 6.01 MiB; 7.80 MiB while the Gaussian samples were
    built from whole-array temporaries and the start plane was normalized
    into a copy)."""
    cfg = ScenarioConfig.from_dict(fast_collision_dict())
    phi_int = fs.level_state("A_int", cfg.internal.state)
    assert traced_peak(fs.scenarios._jacobi_split, cfg, 100.0, phi_int) <= 6.25 * 2**20


def test_collision_exact_memory_peak():
    """tracemalloc's peak during one mass's exact run stays at or below
    8.5 MiB (measured: 8.21 MiB; 11.26 MiB while the stacked run's
    checkpoint states stayed alive through the map-back and the shift to x
    built anchors x points phase tables, 18.3 MiB with the map-back's
    (kappa, r) factors over the whole r grid, and 22.7 MiB with the
    per-term map-back before that)."""
    cfg, split = fast_split(100.0)
    assert traced_peak(fs.scenarios._collision_exact, cfg, 100.0, split) <= 8.5 * 2**20


def test_collision_residual_memory_peak():
    """tracemalloc's peak during the residual window stays at or below
    9.0 MiB (measured: 8.66 MiB, set by the grid-H check of the mapped
    state, so freeing the start stack before the map left it as it was;
    10.1 MiB while the anchor stack was summed a
    second time for its own check; 12.1 MiB while factorization_residual
    held a full-size spectral copy of the mapped state and its |.|^2, 15.2
    MiB while <T> of the grid-H check held the mapped state's whole spectrum
    and T times it, and 21.4 MiB while the stacked start, the anchor stack
    and its mapped copy were alive together)."""
    cfg = ScenarioConfig.from_dict(fast_collision_dict())
    (psi_s,) = fs.scenarios._initial_packets(cfg)["S"]
    phi_int = fs.level_state("A_int", cfg.internal.state)
    peak = traced_peak(fs.scenarios._collision_residual, cfg, phi_int, psi_s)
    assert peak <= 9.0 * 2**20


def test_run_collision_memory_peak():
    """tracemalloc's peak over the whole fast collision stays at or below
    9.0 MiB (measured: 8.69 MiB, the residual window's; 11.48 MiB, a mass
    point's, while the Jacobi run's checkpoints outlived the map-back and
    the shift to x built anchors x points phase tables; 12.1 MiB, the
    residual window's, while factorization_residual held a full-size
    spectral copy; 15.2 MiB while <T> summed whole states; 21.5 MiB before
    the residual and the map-back held one full-size array at a time)."""
    cfg = ScenarioConfig.from_dict(fast_collision_dict())
    assert traced_peak(run_collision, cfg) <= 9.0 * 2**20


def test_collision_requires_collision_config():
    cfg = ScenarioConfig.from_dict(fast_measurement_dict())
    with pytest.raises(ValidationError, match="scenario"):
        run_collision(cfg)


# ---------------------------------------------------------------------------
# partition detection
# ---------------------------------------------------------------------------

def grid_pair_state(a_center: float, b_center: float) -> StateVector:
    grid_a = Grid(32, -8.0, 8.0)
    grid_b = Grid(64, -24.0, 24.0)
    a = make_gaussian(grid_a, fs.GaussianParams(r0=a_center, p0=0.0, sigma=1.5, mass=1.0), "a")
    b = make_gaussian(grid_b, fs.GaussianParams(r0=b_center, p0=0.0, sigma=2.25, mass=1.0), "b")
    q = fs.level_state("A_int", [0.6, 0.8])
    return tensor_product([q, a, b])


def test_partition_found_for_separated_supports():
    psi = grid_pair_state(0.0, 12.0)
    report = detect_partition(psi, PartitionGeometry(-5.0, 5.0, 1e-4))
    assert report.found
    assert report.absorbed == ("a",)
    assert report.free == ("b",)
    assert report.leakage < 1e-4
    assert report.weight_check == pytest.approx(1.0, abs=1e-8)


def test_partition_none_for_delocalized_state():
    psi = grid_pair_state(0.0, 0.0)  # both particles near the heavy system
    report = detect_partition(psi, PartitionGeometry(-5.0, 5.0, 1e-4))
    assert not report.found
    assert report.leakage > 1e-4
    assert report.c_coefficients == []


def test_partition_leakage_matches_quadrature_loop():
    rng = np.random.default_rng(13)
    grid_a = Grid(8, -4.0, 4.0)
    grid_b = Grid(8, -8.0, 8.0)
    space = Space(
        (Factor.level("A_int", 2), Factor.coordinate("a", grid_a), Factor.coordinate("b", grid_b))
    )
    psi = StateVector(
        space, rng.standard_normal(space.dims) + 1j * rng.standard_normal(space.dims)
    ).normalized()
    geometry = PartitionGeometry(-2.0, 2.0, 2.0)  # eps > 1 accepts the first split
    report = detect_partition(psi, geometry)
    assert report.absorbed == ("a",)
    xa, xb = grid_a.positions(), grid_b.positions()
    vol = space.volume_element
    leak = 0.0
    for q in range(2):
        for i in range(8):
            for j in range(8):
                a_in = -2.0 <= xa[i] <= 2.0
                b_in = -2.0 <= xb[j] <= 2.0
                if not (a_in and not b_in):
                    leak += abs(psi.amplitudes[q, i, j]) ** 2 * vol
    assert report.leakage == pytest.approx(leak, abs=1e-10)
    assert report.weight_check == pytest.approx(1.0, abs=1e-8)


def test_partition_requires_two_coordinates():
    grid = Grid(32, -8.0, 8.0)
    psi = tensor_product(
        [
            fs.level_state("A_int", [1.0, 0.0]),
            make_gaussian(grid, fs.GaussianParams(r0=0, p0=0, sigma=1.5, mass=1.0), "a"),
        ]
    )
    with pytest.raises(ValidationError, match="two coordinate"):
        detect_partition(psi, PartitionGeometry(-2.0, 2.0, 1e-4))


# ---------------------------------------------------------------------------
# position measurement
# ---------------------------------------------------------------------------

def test_measurement_schmidt_structure(fast_measurement_report):
    rep = fast_measurement_report
    # coefficients across the (compound | probe) cut equal the initial weights
    assert rep.coefficient_error <= 1e-6
    assert rep.compound_overlap <= 1e-3
    assert rep.overlap_weight >= 0.999


def test_measurement_outcome_statistics(fast_measurement_report):
    rep = fast_measurement_report
    assert abs(sum(rep.empirical_frequencies) - 1.0) <= 1e-12
    for prob, freq in zip(rep.outcome_probabilities, rep.empirical_frequencies):
        assert abs(freq - prob) <= binomial_3sigma(prob, rep.trials)


def test_branch_counts_are_drawn_in_chunks(monkeypatch):
    up, down = [1.0, 0.0], [0.0, 1.0]
    state = fs.superpose([
        (math.sqrt(0.3), tensor_product([fs.level_state("p", up), fs.level_state("q", up)])),
        (math.sqrt(0.7), tensor_product([fs.level_state("p", down),
                                         fs.level_state("q", down)])),
    ])
    result = fs.schmidt_decompose(state, fs.Bipartition(["p"], ["q"]))
    sizes, draw_many = [], fs.BranchSampler.draw_many

    def spy(sampler, result, n):
        sizes.append(n)
        return draw_many(sampler, result, n)

    monkeypatch.setattr("framesim.scenarios.TRIAL_CHUNK", 7)
    monkeypatch.setattr(fs.BranchSampler, "draw_many", spy)
    chunked = _branch_counts(fs.BranchSampler(11), result, 1000)
    assert sizes == [7] * 142 + [6]
    whole = np.bincount(draw_many(fs.BranchSampler(11), result, 1000), minlength=2)
    assert chunked.tolist() == whole.tolist()
    assert sum(chunked) == 1000 and min(chunked) > 0


def test_measurement_branch_probe_states(fast_measurement_report):
    rep = fast_measurement_report
    assert max(rep.branch_b_fidelity_deficits[:2]) <= 1e-6


def test_measurement_absorption_and_partition(fast_measurement_report):
    rep = fast_measurement_report
    assert rep.absorption_declared
    assert rep.absorbed_mass >= 1.0 - 1e-4
    assert rep.partition.found
    assert rep.partition.absorbed == ("a",)
    assert rep.partition.free == ("b",)
    assert rep.partition.leakage < 1e-4
    assert rep.free_particle_coupling == 0.0


def test_measurement_memory_peak():
    """tracemalloc's peak over the fast measurement stays at or below
    10.85 MiB (measured: 10.44 MiB; 11.72 MiB while the compound run's
    checkpoints stayed alive through the assembly, 13.6 MiB when a 14.0
    MiB bound was set; 27.7 MiB while <H> and <H_coupling> of the assembled state summed it
    whole and the state stayed alive through the sampling)."""
    cfg = ScenarioConfig.from_dict(fast_measurement_dict())
    assert traced_peak(run_position_measurement, cfg) <= 10.85 * 2**20


def test_measurement_releases_the_assembled_state(monkeypatch):
    """No reference to the assembled final state is left when the Schmidt
    branches are sampled."""
    assembled, alive = [], []
    assemble, sampler = fs.scenarios._assemble, fs.scenarios.BranchSampler

    def keep(*args):
        state = assemble(*args)
        assembled.append(weakref.ref(state))
        return state

    def spy(seed):
        alive.append(assembled[0]() is not None)
        return sampler(seed)

    monkeypatch.setattr(fs.scenarios, "_assemble", keep)
    monkeypatch.setattr(fs.scenarios, "BranchSampler", spy)
    run_position_measurement(ScenarioConfig.from_dict(fast_measurement_dict()))
    assert alive == [False]


def test_measurement_is_deterministic(fast_measurement_report):
    again = run_position_measurement(ScenarioConfig.from_dict(fast_measurement_dict()))
    assert again.to_records() == fast_measurement_report.to_records()


def test_measurement_single_component_is_certain():
    raw = fast_measurement_dict()
    raw["measurement"]["coefficients"] = {"real": [1.0, 0.0], "imag": [0.0, 0.0]}
    raw["seeds"]["trials"] = 500
    rep = run_position_measurement(ScenarioConfig.from_dict(raw))
    assert rep.outcome_counts[0] == 500
    assert rep.outcome_counts[1] == 0
    assert rep.branch_b_fidelity_deficits[0] <= 1e-6


def test_measurement_rejects_overlapping_components():
    raw = fast_measurement_dict()
    for packet in raw["measurement"]["a"]["packets"]:
        packet["r0"] = 0.8
    raw["measurement"]["a"]["trap"]["centers"] = [0.8, 0.8]
    with pytest.raises(ValidationError, match="measurement.a.packets: .*not separated"):
        ScenarioConfig.from_dict(raw)


def oracle_measurement_dict() -> dict:
    """A short measurement on a small center-of-mass grid, chosen so that each
    term of the assembled sum shows in the report: the coefficients are
    normalized only to 3.8e-11 (inside validation's 1e-10), so the t = 0
    normalization moves `norm_drift`; and the near region reaches the tail of
    b's second packet but not its first, so pairing b_l with the wrong
    compound moves the partition leakage."""
    raw = fast_measurement_dict()
    raw["center_of_mass"]["points"] = 32
    raw["center_of_mass"]["half_width_sigmas"] = 5.2
    raw["checkpoint_every"] = 10
    raw["schedule"] = {"t_initial": 0.08, "t_interaction": 0.16, "t_final": 0.24}
    raw["measurement"]["coefficients"] = {"real": [0.6, 0.8 + 2.4e-11], "imag": [0.0, 0.0]}
    raw["partition"]["near_hi"] = 12.0
    return raw


def dense_measurement(cfg: ScenarioConfig) -> dict:
    """The report fields of `cfg` from the full 4-factor state, propagated
    as one array under the full Hamiltonian."""
    m = cfg.measurement
    mass = cfg.center_of_mass.masses[0]
    params = fs.GaussianParams.scaled(
        mass, cfg.center_of_mass.sigma_ref, hbar=cfg.hbar, mass_unit=cfg.mass_unit
    )
    half = cfg.center_of_mass.half_width_sigmas * params.sigma
    grid_cm = Grid(cfg.center_of_mass.points, -half, half)

    def packets(spec, label):
        grid = spec.grid.to_grid()
        return [
            make_gaussian(grid, fs.GaussianParams(
                r0=p.r0, p0=p.p0, sigma=p.sigma, mass=spec.mass, hbar=cfg.hbar,
                mass_unit=cfg.mass_unit,
            ), label)
            for p in spec.packets
        ]

    psi_s = fs.superpose(
        [
            (c, tensor_product([a, b]))
            for c, a, b in zip(m.coefficients, packets(m.a, "a"), packets(m.b, "b"))
        ]
    ).normalized()
    phi_int = fs.level_state("A_int", cfg.internal.state)
    psi0 = fs.lift_to_auxiliary(phi_int, psi_s, params, grid_cm)
    h = fs.HamiltonianSpec(
        kinetic={"A_cm": mass, "a": m.a.mass, "b": m.b.mass},
        potentials={"a": m.a.trap.potential},
        internal=("A_int", cfg.internal.hamiltonian),
        interaction=fs.Interaction(
            subject="a",
            anchor="A_cm",
            profile=fs.gaussian_profile(cfg.coupling.strength, cfg.coupling.width),
            level="A_int",
            coupling=cfg.coupling.matrix,
        ),
        hbar=cfg.hbar,
    )
    steps = int(round(cfg.schedule.t_final / cfg.dt))
    exact = fs.evolve_exact(psi0, h, cfg.dt, steps, cfg.checkpoint_every)
    phi_free = fs.evolve_exact(
        make_gaussian(grid_cm, params, "A_cm"),
        fs.HamiltonianSpec(kinetic={"A_cm": mass}, hbar=cfg.hbar),
        cfg.dt, steps, steps,
    ).final
    extraction = fs.extract_relative_state(exact.final, phi_free)
    psi1 = extraction.state
    schmidt = fs.schmidt_decompose(psi1, fs.Bipartition(["A_int", "a"], ["b"]))
    expected = sorted(abs(c) for c in m.coefficients)[::-1]
    x_a = psi1.space.factor("a").grid.positions()
    inside = (x_a >= cfg.partition.near_lo) & (x_a <= cfg.partition.near_hi)
    e0 = exact.energies[0]
    return {
        "overlap_weight": extraction.overlap_weight,
        "schmidt_coefficients": list(schmidt.coefficients),
        "coefficient_error": max(abs(s - e) for s, e in zip(schmidt.coefficients, expected)),
        "norm_drift": exact.norm_drift,
        "energy_drift": max(abs(e - e0) for e in exact.energies) / abs(e0),
        "interaction_initial": abs(exact.couplings[0]),
        "interaction_final": abs(exact.couplings[-1]),
        "absorbed_mass": float(np.sum(fs.hilbert.position_marginal(psi1, "a")[inside])),
        "leakage": detect_partition(psi1, cfg.partition).leakage,
    }


def test_measurement_matches_dense_propagation():
    cfg = ScenarioConfig.from_dict(oracle_measurement_dict())
    rep = run_position_measurement(cfg)
    oracle = dense_measurement(cfg)
    got = {key: getattr(rep, key) for key in oracle if key != "leakage"}
    got["leakage"] = rep.partition.leakage
    assert got["leakage"] > 1e-3  # b's second packet reaches into the near region
    for key, want in oracle.items():
        assert got[key] == pytest.approx(want, rel=0.0, abs=1e-12), key


def test_measurement_never_propagates_the_full_state(monkeypatch):
    calls = []
    original = fs.dynamics.evolve_exact

    def record(psi0, h, dt, steps, checkpoint_every=100):
        calls.append((psi0.space.dims, steps))
        return original(psi0, h, dt, steps, checkpoint_every)

    monkeypatch.setattr("framesim.scenarios.evolve_exact", record)
    cfg = ScenarioConfig.from_dict(fast_measurement_dict())
    run_position_measurement(cfg)
    m = cfg.measurement
    full = (cfg.center_of_mass.points, cfg.internal.dim, m.a.grid.points, m.b.grid.points)
    propagations = [dims for dims, n in calls if n > 0]
    # the two compounds as one stack, the two b packets as one stack, and
    # the free center-of-mass packet
    assert sorted(propagations) == sorted([
        (2, cfg.center_of_mass.points, cfg.internal.dim, m.a.grid.points),
        (2, m.b.grid.points),
        (cfg.center_of_mass.points,),
    ])
    # one zero-step check of the final state, which the report is extracted from
    assert [dims for dims, n in calls if n == 0] == [full]


def assembled(weights, compound_run, b_run, k: int) -> StateVector:
    """Checkpoint k of sum_l w_l compound_l(t) (x) b_l(t), term by term from
    the rows of the two stacks."""
    def rows(run):
        stack = run.trajectory[k][1]
        space = Space(stack.space.factors[1:])
        return [StateVector(space, amps) for amps in stack.amplitudes]

    return fs.superpose([
        (w, tensor_product([c, b]))
        for w, c, b in zip(weights, rows(compound_run), rows(b_run))
    ])


def test_gram_diagnostics_match_assembled_state(monkeypatch):
    """At every checkpoint, the norm, <H> and <H_coupling> taken from the
    L x L matrix elements equal those of the assembled 4-factor state, with
    the b stack evolved to each checkpoint here."""
    seen = []
    original = fs.scenarios._gram_diagnostics

    def record(*args):
        seen.append((args, original(*args)))
        return seen[-1][1]

    monkeypatch.setattr("framesim.scenarios._gram_diagnostics", record)
    cfg = ScenarioConfig.from_dict(oracle_measurement_dict())
    run_position_measurement(cfg)
    ((weights, compound_run, b_states, _, _), rows), = seen
    _, h_b, h = fs.scenarios._measurement_hamiltonians(cfg, cfg.center_of_mass.masses[0])
    b_run = fs.evolve_exact(fs.scenarios._stack(b_states), h_b, cfg.dt,
                            fs.scenarios._steps_for(cfg), cfg.checkpoint_every)
    assert [t for t, _ in b_run.trajectory] == [t for t, _ in compound_run.trajectory]
    assert len(rows) == len(b_run.trajectory) > 2
    for k, (norm, energy, coupling) in enumerate(rows):
        psi = assembled(weights, compound_run, b_run, k)
        assert norm == pytest.approx(psi.norm, rel=0.0, abs=1e-12)
        assert energy == pytest.approx(fs.total_energy(psi, h), rel=1e-12, abs=1e-12)
        assert coupling == pytest.approx(fs.interaction_energy(psi, h), rel=0.0, abs=1e-12)


def test_measurement_rejects_gram_mismatch(monkeypatch):
    """A compound checkpoint that differs from the state the final check
    assembles fails the run's cross-check with a simulation error."""
    original = fs.dynamics.evolve_exact
    corrupted = []

    def corrupt(psi0, h, dt, steps, checkpoint_every=100):
        result = original(psi0, h, dt, steps, checkpoint_every)
        if steps > 0 and psi0.space.has("A_int") and not corrupted:
            t, state = result.trajectory[-1]
            result.trajectory[-1] = (t, StateVector(state.space, state.amplitudes * (1 + 1e-9)))
            corrupted.append(t)
        return result

    monkeypatch.setattr("framesim.scenarios.evolve_exact", corrupt)
    cfg = ScenarioConfig.from_dict(oracle_measurement_dict())
    with pytest.raises(PropagationError, match="Gram value"):
        run_position_measurement(cfg)
