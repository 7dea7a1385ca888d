"""Independent reference implementations used to cross-check the package.

Almost everything here is deliberately naive: dense matrices built element
by element from explicit DFT kinetic blocks, partial traces as raw index
loops, inner products as plain accumulation.  None of it shares code paths
with the package under test.  The exceptions are the collision's oracles
at the end: the grid runs use the package's propagator, on a different
discretization (the heavy and light coordinates on their own grids) from
the Jacobi-coordinate run the collision ships, and the per-term map-back
reads the package's grids; the whole-array sums of <H>, <H_coupling> and
the center-of-mass residual, which read the grid operator's arrays; and the test-side helpers at the very end
(moments, dense density matrices and their purity, a swapped cut, a
factor permutation), which only the
tests use.
"""

from __future__ import annotations

import math

import numpy as np


def dft_matrix(n: int) -> np.ndarray:
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n)


def kinetic_matrix(grid, mass: float, hbar: float) -> np.ndarray:
    """Spectral kinetic operator as a dense matrix on one grid."""
    n = grid.n_points
    f = dft_matrix(n)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dx)
    t = (hbar * k) ** 2 / (2.0 * mass)
    return (f.conj().T @ np.diag(t) @ f) / n


def dense_hamiltonian(space, h) -> np.ndarray:
    """Full Hamiltonian matrix assembled entry by entry (small spaces only)."""
    dims = space.dims
    total = int(np.prod(dims))
    kin = {}
    for lab, mass in h.kinetic.items():
        kin[space.axis(lab)] = kinetic_matrix(space.factor(lab).grid, mass, h.hbar)
    pots = {}
    for lab, spec in h.potentials.items():
        grid = space.factor(lab).grid
        values = spec(grid.positions()) if callable(spec) else np.asarray(spec, float)
        pots[space.axis(lab)] = values
    internal = None
    if h.internal is not None:
        internal = (space.axis(h.internal[0]), np.asarray(h.internal[1], complex))
    inter = None
    if h.interaction is not None:
        ia = h.interaction
        xs = space.factor(ia.subject).grid.positions()
        s_axis = space.axis(ia.subject)
        lvl_axis = space.axis(ia.level)
        if ia.anchor is None:
            a_axis = None
            anchor_x = np.array([ia.anchor_position])
        else:
            a_axis = space.axis(ia.anchor)
            anchor_x = space.factor(ia.anchor).grid.positions()
        inter = (s_axis, a_axis, lvl_axis, xs, anchor_x, ia.profile,
                 np.asarray(ia.coupling, complex))

    matrix = np.zeros((total, total), dtype=complex)
    for r in range(total):
        ri = np.unravel_index(r, dims)
        for c in range(total):
            ci = np.unravel_index(c, dims)
            value = 0.0 + 0.0j
            for axis, t_mat in kin.items():
                if all(ri[a] == ci[a] for a in range(len(dims)) if a != axis):
                    value += t_mat[ri[axis], ci[axis]]
            if ri == ci:
                for axis, v in pots.items():
                    value += v[ri[axis]]
            if internal is not None:
                axis, mat = internal
                if all(ri[a] == ci[a] for a in range(len(dims)) if a != axis):
                    value += mat[ri[axis], ci[axis]]
            if inter is not None:
                s_axis, a_axis, lvl_axis, xs, anchor_x, profile, k_mat = inter
                skip = {lvl_axis}
                if all(ri[a] == ci[a] for a in range(len(dims)) if a not in skip):
                    delta = xs[ri[s_axis]] - (
                        anchor_x[ri[a_axis]] if a_axis is not None else anchor_x[0]
                    )
                    value += float(profile(np.array([delta]))[0]) * k_mat[
                        ri[lvl_axis], ci[lvl_axis]
                    ]
            matrix[r, c] = value
    return matrix


def dense_evolve(psi0, h, t: float):
    """Exact propagation by eigendecomposition of the dense Hamiltonian."""
    from framesim.hilbert import StateVector

    matrix = dense_hamiltonian(psi0.space, h)
    evals, evecs = np.linalg.eigh(matrix)
    phases = np.exp(-1j * evals * t / h.hbar)
    amps = evecs @ (phases * (evecs.conj().T @ psi0.amplitudes.ravel()))
    return StateVector(psi0.space, amps.reshape(psi0.space.dims))


def naive_inner(a, b) -> complex:
    """Plain accumulation loop over flattened amplitudes."""
    total = 0.0 + 0.0j
    for x, y in zip(a.amplitudes.ravel(), b.amplitudes.ravel()):
        total += x.conjugate() * y
    return total * a.space.volume_element


def brute_reduced_density(psi, keep) -> np.ndarray:
    """Partial trace by explicit double loop over complement indices."""
    space = psi.space
    keep_set = set(keep)
    keep_axes = [i for i, f in enumerate(space.factors) if f.label in keep_set]
    rest_axes = [i for i in range(len(space.factors)) if i not in keep_axes]
    keep_dims = tuple(space.dims[i] for i in keep_axes)
    rest_dims = tuple(space.dims[i] for i in rest_axes)
    k_dim = int(np.prod(keep_dims, initial=1))
    amps = psi.amplitudes * math.sqrt(space.volume_element)

    def assemble(k_idx, r_idx):
        full = [0] * len(space.dims)
        for pos, axis in enumerate(keep_axes):
            full[axis] = k_idx[pos]
        for pos, axis in enumerate(rest_axes):
            full[axis] = r_idx[pos]
        return tuple(full)

    rho = np.zeros((k_dim, k_dim), dtype=complex)
    keep_indices = list(np.ndindex(*keep_dims)) if keep_dims else [()]
    rest_indices = list(np.ndindex(*rest_dims)) if rest_dims else [()]
    for i, ki in enumerate(keep_indices):
        for j, kj in enumerate(keep_indices):
            acc = 0.0 + 0.0j
            for ri in rest_indices:
                acc += amps[assemble(ki, ri)] * amps[assemble(kj, ri)].conjugate()
            rho[i, j] = acc
    return rho


def dense_trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) sum |eigenvalues| of the full difference of two density matrices."""
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def whole_array_elements(op, states) -> tuple[np.ndarray, np.ndarray]:
    """<psi_l|T + V + H_int|psi_m> and <psi_l|g K|psi_m> of a grid operator
    (`dynamics._GridHamiltonian`), each summed over whole arrays: one FFT
    over every kinetic axis per state, the whole T and one vdot per pair.
    It reads the operator's arrays, so it checks how the kernels sum them,
    not the arrays themselves (the dense oracle above does that)."""
    def overlaps(bras, kets):
        return np.array([[np.vdot(bra, ket) for ket in kets] for bra in bras])

    dv = op.space.volume_element
    coupling = np.zeros((len(states), len(states)), dtype=np.complex128)
    if op.profile is not None:
        kets = []
        for psi in states:
            k_psi = op.levels(op.coupling, psi)
            k_psi *= op.profile
            kets.append(k_psi)
        coupling = overlaps(states, kets) * dv
    total = np.zeros((len(states), len(states)), dtype=np.complex128)
    if op.potential.any():
        total += overlaps(states, [op.potential * psi for psi in states])
    if op.internal is not None:
        total += overlaps(states, [op.levels(op.internal, psi) for psi in states])
    if op.kinetic_axes:
        spectra = [np.fft.fftn(psi, axes=op.kinetic_axes) for psi in states]
        t = op.kinetic()
        n = math.prod(op.space.dims[axis] for axis in op.kinetic_axes)
        total += overlaps(spectra, [t * psi_k for psi_k in spectra]) / n
    return total * dv, coupling


def whole_array_residual(psi1, mass: float, hbar: float = 1.0) -> float:
    """||P^2/2M psi1|| from one full-size spectral P^2/2M psi1 and the sum
    of its |.|^2, the form `dynamics.factorization_residual` had before it
    summed T^2 |psi(k)|^2 axis by axis in blocks.  It reads the grid
    operator's T, so it checks how the residual sums, not T itself."""
    from framesim.dynamics import LABEL_CM, HamiltonianSpec, _GridHamiltonian

    op = _GridHamiltonian(psi1.space, HamiltonianSpec(kinetic={LABEL_CM: mass}, hbar=hbar))
    amps = op.spectral(op.kinetic(), psi1.amplitudes)
    return float(math.sqrt(np.sum(np.abs(amps) ** 2) * psi1.space.volume_element))


def free_gaussian_width(sigma: float, mass: float, hbar: float, t: float) -> float:
    """Analytic amplitude-dispersion of a freely spreading Gaussian."""
    return sigma * math.sqrt(1.0 + (hbar * t / (mass * sigma**2)) ** 2)


def binomial_3sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def grid_collision_exact(cfg, mass: float, split):
    """The collision's exact run at one mass on the (A_cm, A_int, S) grid,
    in the form of `scenarios._collision_exact`: the final state, and the
    run's checkpoint times, <H> and <H_coupling> at each, and norm drift
    (the whole H propagates, so <H> lacks nothing).  The Jacobi split is
    not used.

    The product of the heavy packet, the level state and the particle packet
    is lifted to the auxiliary frame and propagated as one array under the
    full grid H, with the coupling anchored to the heavy coordinate.
    """
    from framesim import scenarios
    from framesim.dynamics import evolve_exact
    from framesim.frames import lift_to_auxiliary
    from framesim.hilbert import level_state

    (psi_s,) = scenarios._initial_packets(cfg)["S"]
    phi_int = level_state("A_int", cfg.internal.state)
    grid_cm, cm_params = scenarios._cm_setup(cfg, mass)
    psi0 = lift_to_auxiliary(phi_int, psi_s, cm_params, grid_cm)
    run = evolve_exact(psi0, scenarios._collision_hamiltonian(cfg, mass), cfg.dt,
                       scenarios._steps_for(cfg), cfg.checkpoint_every)
    times = [t for t, _ in run.trajectory]
    return run.final, times, run.energies, run.couplings, run.norm_drift


def grid_collision_residual(cfg, phi_int, psi_s):
    """The collision's residual per configured mass and the product
    approximation's relative state, in the form of
    `scenarios._collision_residual`, from an anchor-resolved lab-frame run
    and a separate factorized run.

    The window of anchor positions X, each with the particle packet at its
    start, is propagated as one (A_cm, A_int, S) array under the collision
    H with no center-of-mass kinetic term: the coupling g(x - X) is
    evaluated at each anchor without periodic images, and nothing moves X.
    Each mass then enters through P^2 / 2 mass on the final state.  The
    relative state is phi_int (x) psi_s under the same H with the anchor
    frozen at 0 (`evolve_factorized`).
    """
    from framesim import scenarios
    from framesim.dynamics import evolve_exact, evolve_factorized, factorization_residual
    from framesim.hilbert import tensor_product

    psi0 = tensor_product([scenarios._residual_window(cfg), phi_int, psi_s])
    h = scenarios._collision_hamiltonian(cfg, None)
    steps = scenarios._steps_for(cfg)
    final = evolve_exact(psi0, h, cfg.dt, steps, max(steps, 1)).final
    relative = evolve_factorized(tensor_product([phi_int, psi_s]), h, cfg.dt, steps)
    return [factorization_residual(final, m, cfg.hbar)
            for m in cfg.center_of_mass.masses], relative


def jacobi_start(cfg, mass: float, phi_int, grid_big_r):
    """The collision's start psi0 = packet(X) (x) phi_int (x) psi_s(x) on the
    (R, A_int, r) grid, R on grid_big_r and r on the particle grid, at
    X = R - w r and x = R + (1 - w) r: the state whose split and t = 0
    coupling `scenarios._jacobi_split` takes without building it."""
    from framesim import scenarios
    from framesim.hilbert import Factor, Space, StateVector

    grid_x = cfg.particle.grid.to_grid()
    _, cm_params = scenarios._cm_setup(cfg, mass)
    w = cfg.particle.mass / (mass + cfg.particle.mass)
    big_r = grid_big_r.positions()[:, None]
    r = grid_x.positions()[None, :]
    psi_s = cfg.particle.packet.params(cfg.particle.mass, cfg.hbar, cfg.mass_unit)
    factors = (Factor.coordinate("R", grid_big_r), Factor.coordinate("S", grid_x))
    plane = StateVector(Space(factors), cm_params.amplitudes(big_r - w * r)
                        * psi_s.amplitudes(big_r + (1.0 - w) * r)).normalized()
    return StateVector(Space((factors[0], *phi_int.space.factors, factors[1])),
                       plane.amplitudes[:, None, :] * phi_int.amplitudes[:, None])


def jacobi_map_back(cfg, mass: float, split, run):
    """The final state of `scenarios._collision_exact` on the (A_cm, A_int, S)
    grid, mapped back one Schmidt term at a time from the stacked relative
    run `run` of `split`.

    Term k is F_k((1 - w) X_j + w x_i), summed from its Fourier series with
    the free phase of the whole run, times G_k(x_i - X_j), shifted
    spectrally on the wider r window; the sum over k is folded from that
    window into the particle window with np.roll.
    """
    from framesim import scenarios
    from framesim.hilbert import Factor, Space, StateVector

    grid_r = scenarios._wide_grid(cfg)
    grid_cm, _ = scenarios._cm_setup(cfg, mass)
    grid_big_r = split.left_states[0].space.factors[0].grid
    level, particle = split.right_states[0].space.factors
    pad = grid_r.n_points // 4
    w = cfg.particle.mass / (mass + cfg.particle.mass)
    kappa = grid_big_r.wavenumbers()
    t_final = run.trajectory[-1][0]
    free = np.exp(-1j * cfg.hbar * kappa**2 * t_final / (2.0 * (mass + cfg.particle.mass)))
    spectra = np.fft.fft([f.amplitudes for f in split.left_states], axis=1)
    spectra *= free / grid_big_r.n_points
    # exp(i kappa (R_ij - R_min)) = exp(i kappa (1 - w) (X_j - X_min)) exp(i kappa w (x_i - x_min))
    from_cm = np.exp(1j * np.outer((1.0 - w) * (grid_cm.positions() - grid_cm.x_min), kappa))
    from_r = np.exp(1j * np.outer(kappa, w * (grid_r.positions() - grid_r.x_min)))
    shift = np.exp(-1j * np.outer(grid_cm.positions(), grid_r.wavenumbers()))[:, None, :]
    g_spectra = np.fft.fft(run.final.amplitudes, axis=-1)
    wide = np.zeros((grid_cm.n_points, *run.final.space.dims[1:]), dtype=np.complex128)
    for f_spectrum, g_spectrum in zip(spectra, g_spectra):
        wide += ((from_cm * f_spectrum) @ from_r)[:, None, :] * np.fft.ifft(shift * g_spectrum)
    # Point i of the particle window is point pad + i of the wider one, and
    # its image one particle window away is point pad + i + 2 pad, modulo
    # the wider window's 4 pad points.
    folded = np.roll(wide, -pad, axis=-1).reshape(*wide.shape[:-1], 2, -1).sum(axis=-2)
    return StateVector(Space((Factor.coordinate("A_cm", grid_cm), level, particle)), folded)


# ---------------------------------------------------------------------------
# Test-side helpers: the moments of a state, the purity of a density matrix,
# a cut with its blocks swapped and a permutation of a state's factors.  The
# package has no use for them; they read its public names.
# ---------------------------------------------------------------------------

def reorder_factors(state, labels):
    """Permute the factor order; amplitudes are transposed to match."""
    from framesim.errors import ValidationError
    from framesim.hilbert import Space, StateVector

    if sorted(labels) != sorted(state.space.labels):
        raise ValidationError(
            f"reorder needs a permutation of {state.space.labels}, got {tuple(labels)}"
        )
    perm = [state.space.axis(lab) for lab in labels]
    space = Space(tuple(state.space.factors[i] for i in perm))
    return StateVector(space, np.transpose(state.amplitudes, perm))


def swapped(cut):
    """The bipartition with its two blocks exchanged."""
    from framesim.schmidt import Bipartition

    return Bipartition(cut.right, cut.left)


def dense(rho) -> np.ndarray:
    """The n x n matrix F F^H of a DensityMatrix."""
    return rho.factor @ rho.factor.conj().T


def purity(rho) -> float:
    """tr rho^2 of a DensityMatrix."""
    return float(np.trace(dense(rho) @ dense(rho)).real)


def expect_position(state, label: str) -> float:
    from framesim.hilbert import position_marginal

    grid = state.space.factor(label).grid
    return float(np.dot(position_marginal(state, label), grid.positions()))


def position_std(state, label: str) -> float:
    """Standard deviation of |psi|^2 along one coordinate factor."""
    from framesim.hilbert import position_marginal

    p = position_marginal(state, label)
    x = state.space.factor(label).grid.positions()
    mean = float(np.dot(p, x))
    return float(math.sqrt(max(0.0, np.dot(p, (x - mean) ** 2))))


def apply_momentum(state, label: str, hbar: float = 1.0, power: int = 1):
    """Apply (hbar k)^power spectrally along one coordinate factor (unnormalized)."""
    from framesim.hilbert import StateVector

    axis = state.space.axis(label)
    k = state.space.factors[axis].grid.wavenumbers()
    shape = [1] * state.amplitudes.ndim
    shape[axis] = k.size
    phase = (hbar * k.reshape(shape)) ** power
    amps = np.fft.ifft(phase * np.fft.fft(state.amplitudes, axis=axis), axis=axis)
    return StateVector(state.space, amps)


def expect_momentum(state, label: str, hbar: float = 1.0) -> float:
    from framesim.hilbert import inner_product

    return float(inner_product(state, apply_momentum(state, label, hbar)).real)


def momentum_std(state, label: str, hbar: float = 1.0) -> float:
    """Standard deviation of the momentum distribution along one factor."""
    from framesim.hilbert import inner_product

    mean = expect_momentum(state, label, hbar)
    second = inner_product(state, apply_momentum(state, label, hbar, power=2)).real
    return float(math.sqrt(max(0.0, second - mean**2)))
