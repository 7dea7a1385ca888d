from __future__ import annotations

import concurrent.futures
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framesim as fs
from framesim.errors import SpaceMismatchError, ValidationError
from framesim.hilbert import (
    Factor,
    Space,
    StateVector,
    level_state,
    make_gaussian,
    tensor_product,
)

from conftest import COUPLING_K, INTERNAL_H
from oracles import (
    dense_evolve,
    dense_hamiltonian,
    free_gaussian_width,
    position_std,
    whole_array_elements,
    whole_array_residual,
)


def random_state(space: Space, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(space.dims) + 1j * rng.standard_normal(space.dims)
    return StateVector(space, amps).normalized()


def random_hermitian(rng, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2


def small_coupled_system(seed: int):
    rng = np.random.default_rng(seed)
    grid = fs.Grid(8, -4.0, 4.0)
    space = Space((Factor.coordinate("S", grid), Factor.level("q", 2)))
    h = fs.HamiltonianSpec(
        kinetic={"S": 1.3},
        potentials={"S": rng.standard_normal(8)},
        internal=("q", random_hermitian(rng, 2)),
        interaction=fs.Interaction(
            subject="S",
            profile=fs.gaussian_profile(0.9, 1.1),
            level="q",
            coupling=random_hermitian(rng, 2),
            anchor=None,
            anchor_position=0.3,
        ),
        hbar=1.0,
    )
    return random_state(space, seed + 1), h


def anchored_coupled_system(seed: int):
    """8x8x2: the coupling profile depends on S - A_cm, with a potential on S."""
    rng = np.random.default_rng(seed)
    space = Space((
        Factor.coordinate("A_cm", fs.Grid(8, -2.0, 2.0)),
        Factor.coordinate("S", fs.Grid(8, -4.0, 4.0)),
        Factor.level("q", 2),
    ))
    h = fs.HamiltonianSpec(
        kinetic={"A_cm": 7.0, "S": 1.3},
        potentials={"S": rng.standard_normal(8)},
        internal=("q", random_hermitian(rng, 2)),
        interaction=fs.Interaction(
            subject="S",
            profile=fs.gaussian_profile(0.9, 1.1),
            level="q",
            coupling=random_hermitian(rng, 2),
            anchor="A_cm",
        ),
    )
    return random_state(space, seed + 1), h


def test_free_gaussian_spreading_matches_analytic():
    grid = fs.Grid(256, -16.0, 16.0)
    sigma, mass, t = 1.0, 1.0, 1.0
    psi = make_gaussian(grid, fs.GaussianParams(r0=0.0, p0=0.0, sigma=sigma, mass=mass), "S")
    h = fs.HamiltonianSpec(kinetic={"S": mass})
    res = fs.evolve_exact(psi, h, 1e-3, 1000, 250)
    measured = position_std(res.final, "S") * math.sqrt(2)
    assert measured == pytest.approx(free_gaussian_width(sigma, mass, 1.0, t), rel=1e-6)


def test_unitarity_over_long_run():
    psi, h = small_coupled_system(0)
    res = fs.evolve_exact(psi, h, 1e-3, 2000, 100)
    assert res.norm_drift <= 1e-9


@pytest.mark.parametrize("seed", [1, 2])
def test_matches_dense_oracle_on_small_space(seed):
    psi, h = small_coupled_system(seed)
    res = fs.evolve_exact(psi, h, 1e-3, 500, 500)
    ref = dense_evolve(psi, h, 0.5)
    assert fs.fidelity_deficit(res.final, ref) <= 1e-6


def test_matches_dense_oracle_two_grids():
    rng = np.random.default_rng(9)
    g1 = fs.Grid(8, -3.0, 3.0)
    g2 = fs.Grid(8, -5.0, 5.0)
    space = Space((Factor.coordinate("x", g1), Factor.coordinate("y", g2)))
    psi = random_state(space, 10)
    h = fs.HamiltonianSpec(
        kinetic={"x": 1.0, "y": 2.5},
        potentials={"x": rng.standard_normal(8), "y": rng.standard_normal(8)},
    )
    res = fs.evolve_exact(psi, h, 1e-3, 1000, 1000)
    ref = dense_evolve(psi, h, 1.0)
    assert fs.fidelity_deficit(res.final, ref) <= 1e-6


def test_time_reversal_recovers_initial_state():
    psi, h = small_coupled_system(3)
    forward = fs.evolve_exact(psi, h, 1e-3, 800, 800)
    back = fs.evolve_exact(forward.final, h, -1e-3, 800, 800)
    assert fs.fidelity_deficit(back.final, psi) <= 1e-8


def test_energy_is_conserved():
    psi, h = small_coupled_system(4)
    res = fs.evolve_exact(psi, h, 1e-3, 1000, 100)
    e0 = fs.total_energy(psi, h)
    drifts = [abs(fs.total_energy(s, h) - e0) for _, s in res.trajectory]
    assert max(drifts) / abs(e0) <= 1e-6


def layout_system(order: str, kinetic: str, seed: int):
    """The level factor q and coordinates x, y (and z) of 8 points each in
    the factor order `order`, kinetic terms on the coordinates named in
    `kinetic`, a potential on y and a coupling of y anchored to x."""
    rng = np.random.default_rng(seed)
    grids = {"x": fs.Grid(8, -2.0, 2.0), "y": fs.Grid(8, -4.0, 4.0), "z": fs.Grid(8, -3.0, 3.0)}
    masses = {"x": 7.0, "y": 1.3, "z": 2.1}
    space = Space(tuple(Factor.level("q", 2) if label == "q"
                        else Factor.coordinate(label, grids[label]) for label in order))
    h = fs.HamiltonianSpec(
        kinetic={label: masses[label] for label in kinetic},
        potentials={"y": rng.standard_normal(8)},
        internal=("q", random_hermitian(rng, 2)),
        interaction=fs.Interaction(
            subject="y",
            profile=fs.gaussian_profile(0.9, 1.1),
            level="q",
            coupling=random_hermitian(rng, 2),
            anchor="x",
        ),
    )
    return random_state(space, seed + 1), h


# Systems small enough for the dense oracle, and 8 x 8 x 8 x 2 ones with two
# or three kinetic axes; the level factor first, in the middle and last.
DENSE_SYSTEMS = {
    "small": small_coupled_system,
    "anchored": anchored_coupled_system,
    **{order: partial(layout_system, order, "xy") for order in ("qxy", "xqy", "xyq")},
}
WIDE_SYSTEMS = {
    f"{order}-T{kinetic}": partial(layout_system, order, kinetic)
    for order in ("qxyz", "xqyz", "xyzq") for kinetic in ("xyz", "yz")
}
SYSTEMS = {**DENSE_SYSTEMS, **WIDE_SYSTEMS}


def check_against_dense_oracle(psi, h):
    """<H> and <H_coupling> of psi, and the L x L overlaps, <psi_l|H|psi_m>
    and <psi_l|H_coupling|psi_m> of psi and two more states, against the
    dense Hamiltonian within 1e-10."""
    v = psi.amplitudes.ravel()
    dv = psi.space.volume_element
    full = dense_hamiltonian(psi.space, h)
    coupling = full - dense_hamiltonian(psi.space, replace(h, interaction=None))
    energy = np.vdot(v, full @ v).real * dv
    assert fs.total_energy(psi, h) == pytest.approx(energy, rel=1e-10)
    coupling_energy = np.vdot(v, coupling @ v).real * dv
    assert fs.interaction_energy(psi, h) == pytest.approx(coupling_energy, rel=1e-10)

    states = [psi, random_state(psi.space, 14), random_state(psi.space, 15)]
    vs = np.array([s.amplitudes.ravel() for s in states])
    matrices = fs.dynamics.matrix_elements(states, h)
    for got, operator in zip(matrices, (np.eye(len(full)), full, coupling)):
        want = vs.conj() @ operator @ vs.T * dv
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("system", [small_coupled_system, anchored_coupled_system])
def test_diagnostic_hamiltonian_matches_dense_oracle(system):
    """<H> and <H_coupling> of one state, and the L x L overlaps,
    <psi_l|H|psi_m> and <psi_l|H_coupling|psi_m> of three."""
    check_against_dense_oracle(*system(11))


def diagnostics(psi, h):
    """total_energy, interaction_energy, and matrix_elements of psi and two
    more states."""
    states = [psi, random_state(psi.space, 14), random_state(psi.space, 15)]
    return (fs.total_energy(psi, h), fs.interaction_energy(psi, h),
            fs.dynamics.matrix_elements(states, h))


@pytest.mark.parametrize("chunk", [8, 64])
@pytest.mark.parametrize("name", SYSTEMS)
def test_diagnostics_in_blocks_match_the_whole_sums(monkeypatch, name, chunk):
    """With blocks of `chunk` amplitudes, <H>, <H_coupling> and the L x L
    matrices still meet the dense oracle's 1e-10 where the space is small
    enough to build it, and agree with the sums over whole states within
    1e-13 relative."""
    psi, h = SYSTEMS[name](11)
    energy, coupling, matrices = diagnostics(psi, h)
    monkeypatch.setattr(fs.dynamics, "DIAGNOSTIC_CHUNK", chunk)
    if psi.amplitudes.size > chunk:
        assert len(fs.dynamics._GridHamiltonian(psi.space, h).blocks()[1]) > 1
    if name in DENSE_SYSTEMS:
        check_against_dense_oracle(psi, h)
    got_energy, got_coupling, got_matrices = diagnostics(psi, h)
    assert got_energy == pytest.approx(energy, rel=1e-13)
    assert got_coupling == pytest.approx(coupling, rel=1e-13)
    for got, want in zip(got_matrices, matrices):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name", SYSTEMS)
def test_one_block_is_the_whole_array_sum(monkeypatch, name):
    """A state of at most DIAGNOSTIC_CHUNK amplitudes is one block of the
    position-local sums, also at a block size of exactly its own size; one
    amplitude less cuts it.  In one block the coupling matrix is bit for
    bit oracles.whole_array_elements's, and so is the uncoupled one where T
    has one axis; with more, T summed axis by axis is within 1e-15 relative
    of the whole-array sum over all of them (measured <= 4.1e-16)."""
    psi, h = SYSTEMS[name](11)
    amps = [psi.amplitudes, *(random_state(psi.space, s).amplitudes for s in (14, 15))]
    op = fs.dynamics._GridHamiltonian(psi.space, h)
    uncoupled, coupling = whole_array_elements(op, amps)
    for chunk in (fs.dynamics.DIAGNOSTIC_CHUNK, psi.amplitudes.size):
        monkeypatch.setattr(fs.dynamics, "DIAGNOSTIC_CHUNK", chunk)
        assert len(op.blocks()[1]) == 1
        got_uncoupled, got_coupling = op.elements(amps)
        assert np.array_equal(got_coupling, coupling)
        if len(h.kinetic) == 1:
            assert np.array_equal(got_uncoupled, uncoupled)
        else:
            error = np.max(np.abs(got_uncoupled - uncoupled))
            assert error <= 1e-15 * np.max(np.abs(uncoupled))
    monkeypatch.setattr(fs.dynamics, "DIAGNOSTIC_CHUNK", psi.amplitudes.size - 1)
    assert len(op.blocks()[1]) > 1


@st.composite
def blocked_systems(draw):
    """A level factor and one or two coordinates of 8 points in a drawn
    order, kinetic terms on a drawn subset of the coordinates (maybe none),
    maybe a potential, an internal Hamiltonian and a coupling whose anchor
    is the other coordinate or a frozen position; and a block size from 1
    amplitude to the whole state."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coordinates = draw(st.permutations(["x", "y"]))[:draw(st.integers(1, 2))]
    order = list(coordinates)
    order.insert(draw(st.integers(0, len(order))), "q")
    d = draw(st.integers(2, 3))
    space = Space(tuple(Factor.level("q", d) if label == "q"
                        else Factor.coordinate(label, fs.Grid(8, -3.0, 3.0)) for label in order))
    kinetic = draw(st.lists(st.sampled_from(coordinates), unique=True))
    potentials = {}
    if draw(st.booleans()):
        potentials[draw(st.sampled_from(coordinates))] = rng.standard_normal(8)
    interaction = None
    if draw(st.booleans()):
        interaction = fs.Interaction(
            subject=coordinates[0], profile=fs.gaussian_profile(0.9, 1.1), level="q",
            coupling=random_hermitian(rng, d),
            anchor=coordinates[1] if len(coordinates) == 2 else None,
            anchor_position=draw(st.floats(-3.0, 3.0)),
        )
    h = fs.HamiltonianSpec(
        kinetic={label: float(rng.uniform(0.5, 5.0)) for label in kinetic},
        potentials=potentials,
        internal=("q", random_hermitian(rng, d)) if draw(st.booleans()) else None,
        interaction=interaction,
    )
    psi = random_state(space, int(rng.integers(1000)))
    return psi, h, draw(st.integers(1, psi.amplitudes.size))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(blocked_systems())
def test_blocked_diagnostics_match_dense_oracle_property(system):
    """Whatever the factor order, the kinetic axes, the level factor's place
    and the block size, <H>, <H_coupling> and the L x L matrices meet the
    dense oracle within 1e-10."""
    psi, h, chunk = system
    with mock.patch.object(fs.dynamics, "DIAGNOSTIC_CHUNK", chunk):
        check_against_dense_oracle(psi, h)


def test_residual_matches_the_whole_array_residual(monkeypatch):
    """factorization_residual, summed axis by axis in blocks, is within
    1e-13 relative of one full-size spectral P^2/2M psi
    (oracles.whole_array_residual) at blocks of 8 and 64 amplitudes and at
    the default, with the center-of-mass factor first, in the middle and
    last, on states of 2^11 and 2^17 amplitudes."""
    cm, q = Factor.coordinate("A_cm", fs.Grid(64, -2.0, 2.0)), Factor.level("q", 2)
    layouts = [
        (cm, q, Factor.coordinate("S", fs.Grid(1024, -8.0, 8.0))),
        (Factor.coordinate("S", fs.Grid(16, -8.0, 8.0)), cm, q),
        (q, Factor.coordinate("S", fs.Grid(8, -8.0, 8.0)), cm),
    ]
    for seed, factors in enumerate(layouts):
        psi = random_state(Space(factors), 30 + seed)
        want = whole_array_residual(psi, 70.0)
        for chunk in (8, 64, fs.dynamics.DIAGNOSTIC_CHUNK):
            monkeypatch.setattr(fs.dynamics, "DIAGNOSTIC_CHUNK", chunk)
            assert fs.factorization_residual(psi, 70.0) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("cm_points", [16, 64])
def test_checkpoint_diagnostics_memory_is_bounded(cm_points):
    """Reading <H> and <H_coupling> of a zero-step run adds at most 2.5 MiB
    to tracemalloc's peak, on a (cm_points, 2, 64, 64) state of 2 MiB and on
    one four times larger (measured: 2.16 and 2.17 MiB; 4.6 and 18.1 MiB
    when every state was summed whole)."""
    rng = np.random.default_rng(21)
    space = Space((
        Factor.coordinate("A_cm", fs.Grid(cm_points, -2.0, 2.0)),
        Factor.level("q", 2),
        Factor.coordinate("a", fs.Grid(64, -8.0, 8.0)),
        Factor.coordinate("b", fs.Grid(64, -16.0, 16.0)),
    ))
    h = fs.HamiltonianSpec(
        kinetic={"A_cm": 50.0, "a": 1.0, "b": 1.0},
        potentials={"a": fs.dynamics.gaussian_profile(-1.0, 2.0)},
        internal=("q", random_hermitian(rng, 2)),
        interaction=fs.Interaction(subject="a", profile=fs.gaussian_profile(0.9, 1.1),
                                   level="q", coupling=random_hermitian(rng, 2),
                                   anchor="A_cm"),
    )
    run = fs.evolve_exact(random_state(space, 22), h, 1e-3, 0)
    tracemalloc.start()
    try:
        run.energies, run.couplings
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


def test_checkpoint_diagnostics_are_taken_when_read(monkeypatch):
    psi, h = small_coupled_system(16)
    calls = []
    original = fs.dynamics._GridHamiltonian.elements

    def count(self, states):
        calls.append(len(states))
        return original(self, states)

    monkeypatch.setattr(fs.dynamics._GridHamiltonian, "elements", count)
    res = fs.evolve_exact(psi, h, 1e-3, 300, 100)
    assert calls == []
    assert len(res.energies) == 4
    assert calls == [1] * 4
    assert len(res.couplings) == 4
    assert calls == [1] * 4


@pytest.mark.parametrize("system", [small_coupled_system, anchored_coupled_system])
def test_checkpoint_diagnostics_match_recomputation(system):
    psi, h = system(12)
    res = fs.evolve_exact(psi, h, 1e-3, 300, 100)
    assert len(res.energies) == len(res.couplings) == len(res.trajectory) == 4
    for (_, state), energy, coupling in zip(res.trajectory, res.energies, res.couplings):
        assert energy == pytest.approx(fs.total_energy(state, h), rel=1e-12, abs=1e-12)
        assert coupling == pytest.approx(fs.interaction_energy(state, h), rel=1e-12, abs=1e-12)


def criterion_2_system():
    """The coupled collision Hamiltonian of acceptance criterion 2, on small grids."""
    grid_s = fs.Grid(64, -10.0, 10.0)
    grid_cm = fs.Grid(64, -1.6, 1.6)
    psi_s = make_gaussian(grid_s, fs.GaussianParams(r0=-2.0, p0=4.0, sigma=1.0, mass=4.0), "S")
    phi_cm = make_gaussian(grid_cm, fs.GaussianParams(r0=0.0, p0=0.0, sigma=0.2, mass=100.0), "A_cm")
    psi0 = tensor_product([psi_s, phi_cm, level_state("A_int", [1.0, 0.0])])
    h = fs.HamiltonianSpec(
        kinetic={"S": 4.0, "A_cm": 100.0},
        internal=("A_int", INTERNAL_H),
        interaction=fs.Interaction(
            subject="S",
            anchor="A_cm",
            profile=fs.gaussian_profile(2.0, 0.5),
            level="A_int",
            coupling=COUPLING_K,
        ),
    )
    return psi0, h


def test_checkpoints_do_not_change_merged_propagation():
    psi0, h = criterion_2_system()
    dt, steps = 1e-3, 300
    every = fs.evolve_exact(psi0, h, dt, steps, checkpoint_every=1)
    once = fs.evolve_exact(psi0, h, dt, steps, checkpoint_every=steps)
    assert fs.fidelity_deficit(every.final, once.final) <= 1e-12
    assert [t for t, _ in every.trajectory] == [n * dt for n in range(steps + 1)]
    assert [t for t, _ in once.trajectory] == [0.0, steps * dt]
    # A stored state is a whole step: restarting from it matches running on.
    sparse = fs.evolve_exact(psi0, h, dt, steps, checkpoint_every=steps // 3)
    assert [t for t, _ in sparse.trajectory] == [n * dt for n in (0, 100, 200, 300)]
    _, mid = sparse.trajectory[2]
    rest = fs.evolve_exact(mid, h, dt, steps - 200, checkpoint_every=steps)
    assert fs.fidelity_deficit(rest.final, once.final) <= 1e-12
    assert fs.fidelity_deficit(mid, every.trajectory[200][1]) <= 1e-12


def threaded_system(levels: int = 2):
    """A coupling anchored to a coordinate that no kinetic term moves, the
    stacked factor of the run, as in the residual window's grid check:
    256 anchors x levels x 128 points, so that blocks of one or two CPUs
    hold THREADED_SLAB amplitudes or more."""
    rng = np.random.default_rng(21)
    space = Space((
        Factor.coordinate("A_cm", fs.Grid(256, -2.0, 2.0)),
        Factor.level("q", levels),
        Factor.coordinate("S", fs.Grid(128, -8.0, 8.0)),
    ))
    h = fs.HamiltonianSpec(
        kinetic={"S": 1.3},
        internal=("q", random_hermitian(rng, levels)),
        interaction=fs.Interaction(
            subject="S",
            profile=fs.gaussian_profile(0.9, 1.1),
            level="q",
            coupling=random_hermitian(rng, levels),
            anchor="A_cm",
        ),
    )
    psi = random_state(space, 22)
    assert psi.amplitudes.size // 2 >= fs.dynamics.THREADED_SLAB
    return psi, h


def mass_stack_system(levels: int = 2, masses=(1.3, 1.3, 1.3, 4.2, 4.2)):
    """A stack of rows k, each with its own kinetic mass (here three rows of
    one mass and two of another), on levels x 64 points, with a potential
    and a coupling frozen at 0.3."""
    rng = np.random.default_rng(23)
    space = Space((
        Factor.level("k", len(masses)),
        Factor.level("q", levels),
        Factor.coordinate("S", fs.Grid(64, -8.0, 8.0)),
    ))
    h = fs.HamiltonianSpec(
        kinetic={"S": np.array(masses)},
        potentials={"S": rng.standard_normal(64)},
        internal=("q", random_hermitian(rng, levels)),
        interaction=fs.Interaction(
            subject="S",
            profile=fs.gaussian_profile(0.9, 1.1),
            level="q",
            coupling=random_hermitian(rng, levels),
            anchor_position=0.3,
        ),
    )
    return random_state(space, 24), h


def usable_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def thread_pools(monkeypatch):
    """The worker count of every ThreadPoolExecutor created while it is active."""
    sizes = []

    class Spy(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    return sizes


def level_first_blocks(psi, h) -> list[slice]:
    """The stacked factor's blocks of psi's run under h, rows of axis 1 of
    the level-first order."""
    factors = sorted(psi.space.factors, key=lambda f: f.label != "q")
    stepper = fs.dynamics._GridHamiltonian(Space(tuple(factors)), h)
    return [index[1] for index in fs.dynamics._stacked_blocks(stepper)]


@pytest.mark.parametrize("levels", [2, 4])
def test_threaded_rows_equal_inline_rows(monkeypatch, thread_pools, levels):
    """Blocks of the stacked factor carried on threads give every
    checkpoint, <H> and <H_coupling> bit for bit as one block on the calling
    thread, at 1, 2 and 64 usable CPUs: a stack of two masses' rows, which
    two CPUs cut inside the first mass's rows, and a coupling anchored to a
    coordinate that no kinetic term moves."""
    interval = sys.getswitchinterval()
    for system, slab in ((mass_stack_system, 1), (threaded_system, fs.dynamics.THREADED_SLAB)):
        monkeypatch.setattr(fs.dynamics, "THREADED_SLAB", slab)
        psi, h = system(levels)
        runs = {}
        sys.setswitchinterval(1e-5)  # workers interleave often; each writes its own block
        try:
            for cpus in (1, 2, 64):
                usable_cpus(monkeypatch, cpus)
                runs[cpus] = fs.evolve_exact(psi, h, 1e-3, 6, 2)
        finally:
            sys.setswitchinterval(interval)
        if system is mass_stack_system:
            usable_cpus(monkeypatch, 2)
            assert level_first_blocks(psi, h) == [slice(0, 2), slice(2, 5)]
        inline = runs[1]
        assert len(inline.trajectory) == 4
        for threaded in (runs[2], runs[64]):
            for (t1, a), (t2, b) in zip(inline.trajectory, threaded.trajectory, strict=True):
                assert t1 == t2
                assert np.array_equal(a.amplitudes, b.amplitudes)
            assert np.array_equal(inline.energies, threaded.energies)
            assert np.array_equal(inline.couplings, threaded.couplings)
    # One helper fewer than the blocks, none at one CPU: five rows at 64
    # CPUs make five blocks; the anchors, as many blocks as hold
    # THREADED_SLAB amplitudes.
    assert thread_pools == [1, 4, 1, 2 * levels - 1]


def stacked(states: list[StateVector]) -> StateVector:
    """The states as one state whose first factor, k, indexes them."""
    space = Space((Factor.level("k", len(states)), *states[0].space.factors))
    return StateVector(space, np.stack([s.amplitudes for s in states]))


def free_system(seed: int):
    """A particle under its kinetic term and a potential: no level factor."""
    rng = np.random.default_rng(seed)
    space = Space((Factor.coordinate("S", fs.Grid(64, -8.0, 8.0)),))
    h = fs.HamiltonianSpec(kinetic={"S": 1.3}, potentials={"S": rng.standard_normal(64)})
    return random_state(space, seed + 1), h


@pytest.mark.parametrize("system, cpus", [
    (lambda: anchored_coupled_system(3), 2),
    (lambda: free_system(5), 2),
    (threaded_system, 1),
    (threaded_system, 2),
], ids=["levels", "no-levels", "slabs-inline", "slabs-threaded"])
def test_stacked_rows_equal_their_own_runs(monkeypatch, thread_pools, system, cpus):
    """A stack over an index factor that no term acts on propagates each row
    bit for bit as that row's own run does, at every checkpoint: the
    collision's Schmidt terms and plane waves, and the measurement's
    compounds and b packets, rely on it."""
    usable_cpus(monkeypatch, cpus)
    psi, h = system()
    rows = [psi, random_state(psi.space, 99)]
    stack = fs.evolve_exact(stacked(rows), h, 1e-3, 5, 2)
    assert len(stack.trajectory) == 4
    for n, row in enumerate(rows):
        own = fs.evolve_exact(row, h, 1e-3, 5, 2)
        for (t1, a), (t2, b) in zip(stack.trajectory, own.trajectory, strict=True):
            assert t1 == t2
            assert np.array_equal(a.amplitudes[n], b.amplitudes)
    # Only the large blocks on two CPUs share the rows with a helper thread.
    threaded = system is threaded_system and cpus == 2
    assert thread_pools == ([1] * 3 if threaded else [])


@pytest.mark.parametrize("cpus", [1, 2])
def test_rows_with_their_own_masses_equal_their_own_runs(monkeypatch, cpus):
    """Each mass's rows of a stack with one kinetic mass per row are, at
    every checkpoint, bit for bit that mass's own run under its one mass,
    as one block and in blocks cut inside the first mass's rows."""
    monkeypatch.setattr(fs.dynamics, "THREADED_SLAB", 1)
    usable_cpus(monkeypatch, cpus)
    psi, h = mass_stack_system()
    stack = fs.evolve_exact(psi, h, 1e-3, 5, 2)
    assert len(stack.trajectory) == 4
    masses = h.kinetic["S"]
    for rows in (slice(0, 3), slice(3, 5)):
        part = Space((Factor.level("k", rows.stop - rows.start), *psi.space.factors[1:]))
        own = fs.evolve_exact(StateVector(part, psi.amplitudes[rows]),
                              replace(h, kinetic={"S": float(masses[rows.start])}), 1e-3, 5, 2)
        for (t1, a), (t2, b) in zip(stack.trajectory, own.trajectory, strict=True):
            assert t1 == t2
            assert np.array_equal(a.amplitudes[rows], b.amplitudes)


@pytest.mark.parametrize("order", ["kSq", "Sqk"])
def test_per_row_masses_match_dense_oracle(monkeypatch, order):
    """<H> and <H_coupling> of a stack with one kinetic mass per row k, and
    the L x L matrices, meet the dense oracle within 1e-10, with k first and
    last, summed whole and in blocks of 8 amplitudes."""
    rng = np.random.default_rng(41)
    factors = {"k": Factor.level("k", 3), "S": Factor.coordinate("S", fs.Grid(8, -4.0, 4.0)),
               "q": Factor.level("q", 2)}
    psi = random_state(Space(tuple(factors[label] for label in order)), 42)
    h = fs.HamiltonianSpec(
        kinetic={"S": np.array([1.3, 2.0, 7.5])},
        potentials={"S": rng.standard_normal(8)},
        internal=("q", random_hermitian(rng, 2)),
        interaction=fs.Interaction(subject="S", profile=fs.gaussian_profile(0.9, 1.1),
                                   level="q", coupling=random_hermitian(rng, 2)),
    )
    check_against_dense_oracle(psi, h)
    monkeypatch.setattr(fs.dynamics, "DIAGNOSTIC_CHUNK", 8)
    check_against_dense_oracle(psi, h)


@pytest.mark.parametrize("masses, labels", [
    ([1.0, -2.0, 3.0], "kS"),
    ([1.0, 0.0, 3.0], "kS"),
    ([1.0, np.inf, 3.0], "kS"),
    ([1.0, np.nan, 3.0], "kS"),
    ([1.0, 2.0], "kS"),
    ([[1.0, 2.0, 3.0]], "kS"),
    ([1.0, 2.0, 3.0], "S"),
    (np.nan, "S"),
    (np.inf, "S"),
    (-1.0, "S"),
], ids=["negative", "zero", "infinite", "nan", "short", "2-d", "no-stack",
        "one-nan", "one-infinite", "one-negative"])
def test_kinetic_masses_are_checked(masses, labels):
    """A kinetic mass, one or one per row, must be positive and finite, and
    a mass per row needs one per index of the stack factor k; anything else
    is a validation error before a step (a NaN mass used to propagate NaN)."""
    factors = {"k": Factor.level("k", 3), "S": Factor.coordinate("S", fs.Grid(8, -4.0, 4.0))}
    psi = random_state(Space(tuple(factors[label] for label in labels)), 43)
    h = fs.HamiltonianSpec(kinetic={"S": np.array(masses) if np.ndim(masses) else masses})
    with pytest.raises(ValidationError, match="kinetic mass"):
        fs.evolve_exact(psi, h, 1e-3, 1)


def stepping_layout_system(cm_kinetic: bool = False):
    """A coordinate anchor, a level factor and a kinetic axis S; with
    cm_kinetic the anchor moves too, and the level factor lies between two
    kinetic axes."""
    rng = np.random.default_rng(31)
    space = Space((
        Factor.coordinate("A_cm", fs.Grid(16, -2.0, 2.0)),
        Factor.level("q", 3),
        Factor.coordinate("S", fs.Grid(32, -8.0, 8.0)),
    ))
    h = fs.HamiltonianSpec(
        kinetic={"A_cm": 50.0, "S": 1.3} if cm_kinetic else {"S": 1.3},
        potentials={"S": rng.standard_normal(32)},
        internal=("q", random_hermitian(rng, 3)),
        interaction=fs.Interaction(subject="S", profile=fs.gaussian_profile(0.9, 1.1),
                                   level="q", coupling=random_hermitian(rng, 3),
                                   anchor="A_cm"),
    )
    return random_state(space, 32), h


def checkpoints_in(run, labels) -> list[np.ndarray]:
    """Every stored checkpoint, C-contiguous, its axes permuted to `labels`."""
    out = []
    for _, state in run.trajectory[1:]:
        assert state.amplitudes.flags.c_contiguous
        out.append(np.transpose(state.amplitudes, [state.space.axis(a) for a in labels]))
    return out


@pytest.mark.parametrize("system, layouts, pools", [
    (stepping_layout_system, [(0, 1, 2), (1, 0, 2), (0, 2, 1)], [1] * 3),
    (partial(stepping_layout_system, True), [(0, 1, 2), (1, 0, 2), (0, 2, 1)], []),
    (lambda: free_system(5), [(0,)], []),
], ids=["levels", "levels-two-kinetic-axes", "no-levels"])
def test_steps_do_not_depend_on_the_layout(monkeypatch, thread_pools, system, layouts, pools):
    """The level factor first, in the middle or last, blocks of the anchor
    on threads or the whole state inline, and a state with no level factor:
    every checkpoint is bit-equal once its axes are permuted back.  Each
    stored checkpoint is a C-contiguous array in the caller's factor order,
    and equals the final state of a run that stops there, so later steps
    leave it unchanged."""
    monkeypatch.setattr(fs.dynamics, "THREADED_SLAB", 1)
    psi, h = system()
    labels = psi.space.labels
    runs = []
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        for layout in layouts:
            moved = StateVector(Space(tuple(psi.space.factors[a] for a in layout)),
                                np.transpose(psi.amplitudes, layout))
            run = fs.evolve_exact(moved, h, 1e-3, 5, 1)
            assert all(s.space == moved.space for _, s in run.trajectory)
            runs.append(checkpoints_in(run, labels))
    # Two CPUs cut the anchor into two blocks; where a kinetic term moves
    # the first non-level axis, or there is no other, the state is one block.
    assert thread_pools == pools
    for other in runs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(runs[0], other, strict=True))
    for n, stored in enumerate(runs[0], start=1):
        alone = fs.evolve_exact(psi, h, 1e-3, n, n).final.amplitudes
        assert np.array_equal(stored, alone)


def jacobi_like_stack(rows: int):
    """rows x 2 x 1024 Schmidt-term rows under a relative H, the shape of a
    collision's stacked Jacobi run."""
    psi, h = criterion_2_system()
    space = Space((Factor.level("k", rows), Factor.level("A_int", 2),
                   Factor.coordinate("S", fs.Grid(1024, -48.0, 48.0))))
    return random_state(space, 5), replace(h, kinetic={"S": 4.0},
                                           interaction=h.interaction.frozen_at(0.0))


def test_small_slabs_run_inline(monkeypatch, thread_pools):
    """The whole state runs on the calling thread where no stacked factor is
    free of kinetic terms (criterion 2's two moving coordinates), and where
    two blocks would hold fewer than THREADED_SLAB amplitudes each, as one
    mass's 9-row Jacobi stack would (9,216); the three shipped masses' 21
    rows make two blocks."""
    usable_cpus(monkeypatch, 2)
    psi, h = criterion_2_system()
    fs.evolve_exact(psi, h, 1e-3, 3, 3)
    fs.evolve_exact(*jacobi_like_stack(9), 1e-3, 3, 3)
    assert thread_pools == []
    fs.evolve_exact(*jacobi_like_stack(21), 1e-3, 3, 3)
    assert thread_pools == [1]


def test_no_thread_outlives_a_propagation(monkeypatch):
    psi, h = threaded_system()
    usable_cpus(monkeypatch, 2)
    before = threading.active_count()
    helpers, ifft = set(), np.fft.ifft

    def watched(*args, fail=False, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            helpers.add(threading.current_thread())
            if fail:
                raise RuntimeError("ifft failed in a helper block")
        return ifft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", watched)
    for _ in range(20):
        fs.evolve_exact(psi, h, 1e-3, 2, 2)
        # The calling thread takes one of the two blocks, one helper the other.
        assert len(helpers) == 1
        assert not any(t.is_alive() for t in helpers)
        assert threading.active_count() == before
        helpers.clear()

    monkeypatch.setattr(np.fft, "ifft",
                        lambda *args, **kwargs: watched(*args, fail=True, **kwargs))
    with pytest.raises(RuntimeError, match="helper block"):
        fs.evolve_exact(psi, h, 1e-3, 2, 2)
    assert helpers and not any(t.is_alive() for t in helpers)
    assert threading.active_count() == before


@pytest.mark.parametrize("levels", [2, 4])
def test_calling_thread_runs_the_first_block(monkeypatch, thread_pools, levels):
    """A 3-row stack at 64 usable CPUs gets a pool of min(rows, CPUs) - 1 = 2
    helper threads.  The calling thread steps every level row of the first
    block, and a helper every level row of each other block (the pool may
    hand both to one thread that is already idle)."""
    monkeypatch.setattr(fs.dynamics, "THREADED_SLAB", 1)
    usable_cpus(monkeypatch, 64)
    psi, h = mass_stack_system(levels, masses=(1.3, 1.3, 4.2))
    caller, blocks = threading.current_thread(), {}
    step_row = fs.dynamics._GridHamiltonian.step_row

    def watched(self, factor, phase, amps, out, i, scratch):
        if phase is not None:  # a step, not a closing W/2
            # amps is one block of a (levels, k, S) buffer: its first row.
            first = (amps.ctypes.data - amps.base.ctypes.data) // amps.strides[1]
            blocks.setdefault(first, {}).setdefault(threading.current_thread(), set()).add(i)
        step_row(self, factor, phase, amps, out, i, scratch)

    monkeypatch.setattr(fs.dynamics._GridHamiltonian, "step_row", watched)
    fs.evolve_exact(psi, h, 1e-3, 2, 2)
    assert thread_pools == [2]
    assert sorted(blocks) == [0, 1, 2]
    assert blocks[0] == {caller: set(range(levels))}
    helpers = [blocks[b] for b in (1, 2)]
    assert all(len(threads) == 1 and caller not in threads for threads in helpers)
    assert all(rows == set(range(levels)) for threads in helpers for rows in threads.values())
    assert 1 <= len(set().union(*helpers)) <= 2


FORKED_PROPAGATION = """
import os
from concurrent.futures import ProcessPoolExecutor
import numpy as np
import framesim as fs
from test_dynamics import threaded_system

os.sched_getaffinity = lambda pid: {0, 1}

def final():
    psi, h = threaded_system()
    return fs.evolve_exact(psi, h, 1e-3, 2, 2).final.amplitudes

here = final()
with ProcessPoolExecutor(1) as pool:
    there = pool.submit(final).result()
print(np.array_equal(here, there))
"""


def test_process_pool_after_threaded_propagation():
    # A session of its own, so that a hung child is killed with its workers.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-c", FORKED_PROPAGATION], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a pool worker hung after a threaded propagation")
    assert proc.returncode == 0, err
    assert out == "True\n"


def test_cfl_violation_is_rejected():
    psi, h = small_coupled_system(5)
    with pytest.raises(ValidationError, match="anti-aliasing"):
        fs.evolve_exact(psi, h, 10.0, 1, 1)


def test_space_mismatch_between_state_and_hamiltonian():
    psi = level_state("q", [1.0, 0.0])
    h = fs.HamiltonianSpec(kinetic={"S": 1.0})
    with pytest.raises(ValidationError):
        fs.evolve_exact(psi, h, 1e-3, 1, 1)


def test_non_hermitian_coupling_is_rejected():
    grid = fs.Grid(8, -4.0, 4.0)
    space = Space((Factor.coordinate("S", grid), Factor.level("q", 2)))
    psi = random_state(space, 6)
    h = fs.HamiltonianSpec(
        kinetic={"S": 1.0},
        interaction=fs.Interaction(
            subject="S",
            profile=fs.gaussian_profile(1.0, 1.0),
            level="q",
            coupling=np.array([[0.0, 1.0], [0.5, 0.0]]),
        ),
    )
    with pytest.raises(ValidationError, match="Hermitian"):
        fs.evolve_exact(psi, h, 1e-3, 1, 1)


def test_factorized_equals_exact_without_coupling():
    grid_cm = fs.Grid(64, -2.0, 2.0)
    grid_s = fs.Grid(64, -8.0, 8.0)
    params = fs.GaussianParams(r0=0.0, p0=0.0, sigma=0.2, mass=100.0)
    phi_cm = make_gaussian(grid_cm, params, "A_cm")
    phi_int = level_state("A_int", [1.0, 0.5j])
    psi_s = make_gaussian(grid_s, fs.GaussianParams(r0=-2.0, p0=3.0, sigma=0.8, mass=1.0), "S")
    h = fs.HamiltonianSpec(
        kinetic={"A_cm": 100.0, "S": 1.0},
        internal=("A_int", INTERNAL_H),
        hbar=1.0,
    )
    psi0 = tensor_product([phi_cm, phi_int, psi_s])
    exact = fs.evolve_exact(psi0, h, 2e-3, 500, 500)
    h_cm = fs.HamiltonianSpec(kinetic={"A_cm": 100.0})
    free_cm = fs.evolve_exact(phi_cm, h_cm, 2e-3, 500, 500).final
    h_rel = replace(h, kinetic={"S": 1.0})
    relative = fs.evolve_factorized(tensor_product([phi_int, psi_s]), h_rel, 2e-3, 500)
    assert fs.fidelity_deficit(exact.final, tensor_product([free_cm, relative])) <= 1e-12


def collision_relative_hamiltonian(anchor: str | None) -> fs.HamiltonianSpec:
    return fs.HamiltonianSpec(
        kinetic={"S": 1.0},
        internal=("A_int", INTERNAL_H),
        interaction=fs.Interaction(subject="S", anchor=anchor, level="A_int",
                                   profile=fs.gaussian_profile(2.0, 0.5),
                                   coupling=COUPLING_K),
    )


def relative_start() -> StateVector:
    psi_s = make_gaussian(fs.Grid(64, -8.0, 8.0),
                          fs.GaussianParams(r0=-2.0, p0=3.0, sigma=0.8, mass=1.0), "S")
    return tensor_product([level_state("A_int", [0.8, 0.6]), psi_s])


def test_factorized_initial_condition_is_exact_product():
    psi1 = relative_start()
    relative = fs.evolve_factorized(psi1, collision_relative_hamiltonian("A_cm"), 1e-3, 0)
    assert fs.fidelity_deficit(relative, psi1) <= 1e-14


def test_factorized_freezes_the_anchor_at_the_packet_centre():
    psi1 = relative_start()
    relative = fs.evolve_factorized(psi1, collision_relative_hamiltonian("A_cm"), 1e-3, 50)
    frozen = fs.evolve_exact(psi1, collision_relative_hamiltonian(None), 1e-3, 50, 7)
    assert np.array_equal(relative.amplitudes, frozen.final.amplitudes)


def test_factorized_deficit_shrinks_with_mass(mini_collision):
    deficits = []
    for mass in mini_collision.masses:
        run = mini_collision.runs[mass]
        deficits.append(fs.fidelity_deficit(run["exact"].final, run["factorized"]))
    assert deficits[0] > deficits[1] > deficits[2]
    # deficit ~ c / mass: the log-log slope should be close to -1
    slope = np.polyfit(np.log(mini_collision.masses), np.log(deficits), 1)[0]
    assert slope <= -0.8
    c = max(d * m for d, m in zip(deficits, mini_collision.masses))
    for d, m in zip(deficits, mini_collision.masses):
        assert d <= c / m * 1.0000001


def test_deficit_small_at_heavy_mass(mini_collision):
    run = mini_collision.runs[1e4]
    deficit = fs.fidelity_deficit(run["exact"].final, run["factorized"])
    assert deficit < 1e-3


def test_residual_zero_for_cm_independent_state():
    grid = fs.Grid(64, -2.0, 2.0)
    flat = StateVector(
        Space((Factor.coordinate("A_cm", grid), Factor.level("q", 2))),
        np.ones((64, 2)),
    ).normalized()
    assert fs.factorization_residual(flat, 100.0) <= 1e-12


def test_residual_zero_without_coupling():
    grid_cm = fs.Grid(64, -2.0, 2.0)
    grid_s = fs.Grid(64, -8.0, 8.0)
    flat = StateVector(
        Space((Factor.coordinate("A_cm", grid_cm),)), np.ones(64)
    ).normalized()
    psi_s = make_gaussian(grid_s, fs.GaussianParams(r0=-2.0, p0=3.0, sigma=0.8, mass=1.0), "S")
    psi0 = tensor_product([flat, psi_s])
    h = fs.HamiltonianSpec(kinetic={"S": 1.0})
    res = fs.evolve_exact(psi0, h, 2e-3, 400, 100)
    for _, state in res.trajectory:
        assert fs.factorization_residual(state, 100.0) <= 1e-12


def test_residual_halves_when_mass_doubles(mini_collision):
    psi1 = mini_collision.parametric_relative()
    r1 = fs.factorization_residual(psi1, 1e3)
    r2 = fs.factorization_residual(psi1, 2e3)
    assert r2 == pytest.approx(r1 / 2, rel=0.1)
    assert r1 > 0.0


def test_residual_requires_cm_factor():
    psi = level_state("q", [1.0, 0.0])
    with pytest.raises(ValidationError, match="center-of-mass"):
        fs.factorization_residual(psi, 100.0)


def test_fidelity_deficit_basics():
    a = level_state("q", [1.0, 0.0])
    b = level_state("q", [0.0, 1.0])
    assert fs.fidelity_deficit(a, a) == pytest.approx(0.0, abs=1e-12)
    assert fs.fidelity_deficit(a, b) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(SpaceMismatchError):
        fs.fidelity_deficit(a, level_state("r", [1.0, 0.0]))
