"""Bipartite Schmidt decomposition, branch sampling, and entanglement diagnostics.

The decomposition works on the quadrature-weighted coefficient matrix: the
amplitudes are scaled by sqrt(prod dx), reshaped to (left dim, right dim),
and factored by singular value decomposition, so the returned factor states
are orthonormal under the same weighted inner product the rest of the
package uses.  A large low-rank matrix is factored on a certified Gaussian
sketch of its range (Halko, Martinsson & Tropp, SIAM Rev. 53 (2011) 217).
Coefficients are non-negative and descending; near-equal coefficients are
flagged as degenerate groups rather than resolved, since any rotation
inside such a group is an equally valid decomposition.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError
from .hilbert import Space, StateVector

DEGENERACY_TOL = 1e-8
DEFAULT_TRUNC_TOL = 1e-12
# A range sketch's first width, and its accepted remainder over trunc_tol.
SKETCH_COLUMNS = 32
SKETCH_TOL = 1e-2


@dataclass(frozen=True)
class Bipartition:
    """A two-block cut of a factor space, by label."""

    left: frozenset[str]
    right: frozenset[str]

    def __init__(self, left: Iterable[str], right: Iterable[str]):
        object.__setattr__(self, "left", frozenset(left))
        object.__setattr__(self, "right", frozenset(right))

    def validate(self, space: Space) -> None:
        labels = set(space.labels)
        if not self.left or not self.right:
            raise ValidationError("bipartition needs two non-empty blocks")
        if self.left & self.right:
            raise ValidationError(
                f"bipartition blocks overlap: {sorted(self.left & self.right)}"
            )
        if self.left | self.right != labels:
            raise ValidationError(
                f"bipartition {sorted(self.left)} | {sorted(self.right)} does not "
                f"cover the space {space.labels} exactly"
            )


@dataclass(eq=False)
class SchmidtResult:
    """Coefficients with paired orthonormal factor states: the branch ensemble.

    Branch j is the product left_states[j] x right_states[j] with Born
    weight probabilities()[j].  coefficients are descending and >= trunc_tol;
    the squared coefficients of a normalized input sum to
    1 - truncation_residual.  degenerate_groups lists index sets whose
    coefficients agree within the degeneracy tolerance (only groups of two
    or more).
    """

    coefficients: np.ndarray
    left_states: list[StateVector]
    right_states: list[StateVector]
    truncation_residual: float
    degenerate_groups: list[list[int]]
    cut: Bipartition

    @property
    def rank(self) -> int:
        return len(self.coefficients)

    def probabilities(self) -> np.ndarray:
        """Born weights C_j^2 renormalized over the kept coefficients."""
        p = self.coefficients**2
        total = p.sum()
        if total <= 0.0:
            raise ValidationError("decomposition has no weight left")
        return p / total


def _split_axes(space: Space, cut: Bipartition) -> tuple[list[int], list[int]]:
    left_axes = [i for i, f in enumerate(space.factors) if f.label in cut.left]
    right_axes = [i for i, f in enumerate(space.factors) if f.label in cut.right]
    return left_axes, right_axes


def coefficient_matrix(psi: StateVector, cut: Bipartition) -> np.ndarray:
    """Weighted amplitudes reshaped to (left dim, right dim) in space order."""
    cut.validate(psi.space)
    left_axes, right_axes = _split_axes(psi.space, cut)
    amps = np.transpose(psi.amplitudes, left_axes + right_axes)
    l_dim = int(np.prod([psi.space.dims[i] for i in left_axes], initial=1))
    weighted = amps * math.sqrt(psi.space.volume_element)
    return weighted.reshape(l_dim, -1)


def _sketched_range(matrix: np.ndarray,
                    tol: float) -> tuple[np.ndarray | None, np.ndarray, float]:
    """(Q, Q^H A, ||A - Q Q^H A||_F^2) from the first Gaussian sketch A Omega
    whose range holds A's within tol, the norm taken 64 rows at a time; or
    (None, A, 0) if no sketch of at most min(shape) / 4 columns does.  Omega
    is Box-Muller on the standard library's Mersenne Twister (seed 0), since
    importing numpy.random raises a collision run's peak RSS by 2 MB."""
    rng, p = random.Random(0), SKETCH_COLUMNS
    while 4 * p <= min(matrix.shape):
        u = (np.frombuffer(rng.randbytes(16 * matrix.shape[1] * p), "<u8") >> 11) * 2.0**-53
        omega = np.sqrt(-2.0 * np.log1p(-u[::2])) * np.cos(2.0 * np.pi * u[1::2])
        q, _ = np.linalg.qr(matrix @ omega.reshape(-1, p))
        b = q.conj().T @ matrix
        left_out = sum(float(np.linalg.norm(matrix[i:i + 64] - q[i:i + 64] @ b)) ** 2
                       for i in range(0, len(matrix), 64))
        if left_out <= tol**2:
            return q, b, left_out
        p *= 2
    return None, matrix, 0.0


def schmidt_decompose(
    psi: StateVector,
    cut: Bipartition,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
    degeneracy_tol: float = DEGENERACY_TOL,
) -> SchmidtResult:
    """Schmidt decomposition of a normalized state across a bipartition.

    Singular values below trunc_tol are dropped and their summed square is
    reported as the truncation residual; a matrix factored on a sketch Q of
    its range (_sketched_range) adds the certified ||A - Q Q^H A||_F^2.  The
    phase of each left vector is fixed by rotating its largest-magnitude
    amplitude to the positive real axis (the inverse phase goes to the right
    vector), which makes the output deterministic for regression tests.
    """
    cut.validate(psi.space)
    if abs(psi.norm - 1.0) > 1e-8:
        raise ValidationError(f"input state is not normalized (norm {psi.norm:.12g})")
    left_axes, right_axes = _split_axes(psi.space, cut)
    matrix = coefficient_matrix(psi, cut)
    q, b, left_out = _sketched_range(matrix, SKETCH_TOL * trunc_tol)
    u, s, vh = np.linalg.svd(b, full_matrices=False)
    u = u if q is None else q @ u
    keep = s >= trunc_tol
    truncation_residual = float(np.sum(s[~keep] ** 2)) + left_out
    s = s[keep]
    u = u[:, keep]
    vh = vh[keep, :]

    left_factors = tuple(psi.space.factors[i] for i in left_axes)
    right_factors = tuple(psi.space.factors[i] for i in right_axes)
    left_space = Space(left_factors)
    right_space = Space(right_factors)
    left_scale = 1.0 / math.sqrt(left_space.volume_element)
    right_scale = 1.0 / math.sqrt(right_space.volume_element)

    left_states: list[StateVector] = []
    right_states: list[StateVector] = []
    for j in range(s.size):
        col = u[:, j]
        pivot = col[np.argmax(np.abs(col))]
        phase = pivot / abs(pivot) if abs(pivot) > 0 else 1.0
        left = (col / phase) * left_scale
        right = (vh[j, :] * phase) * right_scale
        left_states.append(StateVector(left_space, left.reshape(left_space.dims)))
        right_states.append(StateVector(right_space, right.reshape(right_space.dims)))

    groups: list[list[int]] = []
    if s.size:
        tol = degeneracy_tol * float(s[0]) if s[0] > 0 else degeneracy_tol
        current = [0]
        for j in range(1, s.size):
            if abs(float(s[j - 1] - s[j])) < tol:
                current.append(j)
            else:
                if len(current) > 1:
                    groups.append(current)
                current = [j]
        if len(current) > 1:
            groups.append(current)

    return SchmidtResult(
        coefficients=s.astype(float),
        left_states=left_states,
        right_states=right_states,
        truncation_residual=truncation_residual,
        degenerate_groups=groups,
        cut=cut,
    )


class BranchSampler:
    """Born-rule sampler over the coefficients of a decomposition.

    Uses the PCG64 bit generator seeded through numpy's SeedSequence; each
    draw consumes exactly one uniform double in [0, 1) and selects the branch
    by inverse CDF over the cumulative squared coefficients.  Identical seeds
    reproduce identical draw sequences; one sampler per thread of use.
    """

    def __init__(self, seed: int):
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def draw(self, result: SchmidtResult) -> int:
        return int(self._draw_indices(result, 1)[0])

    def draw_many(self, result: SchmidtResult, n: int) -> np.ndarray:
        return self._draw_indices(result, n)

    def _draw_indices(self, result: SchmidtResult, n: int) -> np.ndarray:
        if result.rank == 0:
            raise ValidationError("cannot sample from an empty decomposition")
        cdf = np.cumsum(result.probabilities())
        u = self._rng.random(n)
        return np.minimum(np.searchsorted(cdf, u, side="right"), result.rank - 1)


def entanglement_entropy(result: SchmidtResult) -> float:
    """Von Neumann entropy -sum p ln p of the branch weights; 0 iff rank 1."""
    p = result.probabilities()
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))
