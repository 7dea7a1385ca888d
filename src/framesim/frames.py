"""Frame transformations, Schmidt branches, and density matrices.

Two directions are implemented.  Lifting composes the heavy system's
center-of-mass packet, its internal state, and the light system's state into
one product on the auxiliary frame's space.  The reverse transformation
first contracts the freely evolved center-of-mass packet out of the evolved
composite (a partial projection whose renormalization constant,
overlap_weight, is close to 1 exactly when the product approximation holds),
then expands what remains over Schmidt branches, which carry weights
C_j^2; drawing a single branch is the discontinuous, generally irreversible
reduction of the state.

Density matrices are stored in the discrete convention: amplitudes carry a
sqrt(dx) quadrature weight per coordinate factor, so the matrix trace is a
plain sum, eigenvalues are mixing probabilities, and matrices built from
Schmidt branches and from partial traces are directly comparable.  Each is
kept as one factor F with rho = F F^H (the Schmidt states scaled by the
square roots of their weights, or a coefficient matrix), so its trace is
||F||^2, its spectrum comes from the smaller of F^H F and F F^H,
trace_distance needs no eigensolve of a full difference, and no n x n
matrix is formed unless F is at least as wide as it is tall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import LABEL_CM
from .errors import PropagationError, SpaceMismatchError, ValidationError
from .hilbert import (
    Grid,
    GaussianParams,
    Space,
    StateVector,
    make_gaussian,
    tensor_product,
)
from .schmidt import (
    Bipartition,
    SchmidtResult,
    coefficient_matrix,
    schmidt_decompose,
)

MIN_OVERLAP_WEIGHT = 1e-6


@dataclass(eq=False)
class DensityMatrix:
    """Hermitian unit-trace matrix rho = F F^H on a chosen set of factors;
    the columns of the factor F span its range."""

    labels: tuple[str, ...]
    factor: np.ndarray

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    @property
    def trace(self) -> float:
        """tr F F^H, the squared Frobenius norm of F."""
        return float(np.vdot(self.factor, self.factor).real)

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues in descending order.

        The nonzero eigenvalues of F F^H are those of F^H F, so a factor
        with fewer columns than rows is solved on its Gram side and padded
        with zeros; a wide one never forms its Gram matrix.
        """
        n, r = self.factor.shape
        if r >= n:
            return np.linalg.eigvalsh(self.factor @ self.factor.conj().T)[::-1]
        small = np.linalg.eigvalsh(self.factor.conj().T @ self.factor)
        return np.sort(np.concatenate([small, np.zeros(n - r)]))[::-1]


@dataclass(eq=False)
class ExtractionResult:
    """Relative state left after contracting out the center-of-mass packet."""

    state: StateVector
    overlap_weight: float


def lift_to_auxiliary(
    phi_internal: StateVector,
    psi_s: StateVector,
    cm_params: GaussianParams,
    grid_cm: Grid,
) -> StateVector:
    """Product state packet(cm) x internal x light-system, normalized.

    The shipped scenarios choose cm_params centered at zero position and
    momentum, so the auxiliary frame is co-moving with the heavy system and
    the later coordinate relabeling back is the identity.
    """
    phi_cm = make_gaussian(grid_cm, cm_params, LABEL_CM)
    return tensor_product([phi_cm, phi_internal, psi_s]).normalized()


def extract_relative_state(
    psi_composite: StateVector, phi_cm_t: StateVector
) -> ExtractionResult:
    """Contract the center-of-mass packet out of the composite and renormalize.

    Computes the partial inner product <phi_cm_t | psi_composite> over the
    packet's factor.  The norm of the contraction is returned as
    overlap_weight; it approaches 1 when the composite is close to the
    product packet x relative-state.  A weight below 1e-6 means the product
    form has broken down and raises instead of returning garbage.
    """
    if len(phi_cm_t.space.factors) != 1:
        raise ValidationError("phi_cm_t must live on a single factor")
    cm_factor = phi_cm_t.space.factors[0]
    if not psi_composite.space.has(cm_factor.label):
        raise ValidationError(
            f"composite has no factor {cm_factor.label!r}; cannot extract"
        )
    if psi_composite.space.factor(cm_factor.label) != cm_factor:
        raise SpaceMismatchError(
            f"factor {cm_factor.label!r} differs between composite and packet"
        )
    axis = psi_composite.space.axis(cm_factor.label)
    weight = cm_factor.grid.dx if cm_factor.is_coordinate else 1.0
    amps = np.tensordot(
        phi_cm_t.amplitudes.conj(), psi_composite.amplitudes, axes=([0], [axis])
    )
    amps = amps * weight
    rest = Space(
        tuple(f for f in psi_composite.space.factors if f.label != cm_factor.label)
    )
    raw = StateVector(rest, amps)
    overlap_weight = raw.norm
    if overlap_weight < MIN_OVERLAP_WEIGHT:
        raise PropagationError(
            f"overlap weight {overlap_weight:.3e} vanished; the product "
            "approximation has broken down"
        )
    return ExtractionResult(raw.normalized(), float(overlap_weight))


def transform_to_intrinsic(psi1: StateVector, cut: Bipartition) -> SchmidtResult:
    """Expand a relative state over Schmidt branches across the given cut.

    Branch j is the product of the paired factor states j, weighted by its
    squared coefficient.  Drawing one branch by its Born weight,
    BranchSampler(seed).draw(result), is the discontinuous and generally
    irreversible reduction of the state.
    """
    return schmidt_decompose(psi1, cut)


def mixed_density_matrix(result: SchmidtResult, keep: Sequence[str]) -> DensityMatrix:
    """rho = sum_j p_j |u_j><u_j| over the Schmidt states u_j of the kept
    block: its factor has columns sqrt(p_j) u_j in the discrete convention
    (amplitudes times sqrt of the volume element).

    keep must be exactly one block of the decomposition's cut.
    """
    keep = frozenset(keep)
    if keep == result.cut.left:
        states = result.left_states
    elif keep == result.cut.right:
        states = result.right_states
    else:
        raise ValidationError(
            f"keep {sorted(keep)} is not a block of the cut "
            f"{sorted(result.cut.left)} | {sorted(result.cut.right)}"
        )
    space = states[0].space
    vectors = np.stack([u.amplitudes.ravel() for u in states], axis=1)
    vectors = vectors * math.sqrt(space.volume_element)
    return DensityMatrix(space.labels, vectors * np.sqrt(result.probabilities()))


def reduced_density_matrix(psi: StateVector, keep: Sequence[str]) -> DensityMatrix:
    """Partial trace of |psi><psi| over the complement of the kept factors."""
    keep = set(keep)
    kept = tuple(lab for lab in psi.space.labels if lab in keep)
    rest = tuple(lab for lab in psi.space.labels if lab not in keep)
    return DensityMatrix(kept, coefficient_matrix(psi, Bipartition(keep, rest)))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) sum |eigenvalues of (a - b)|.  a - b is M J M^H for the stacked
    factors M = [F_a F_b] = Q R and J = diag(+1, ..., -1, ...), so its
    nonzero eigenvalues are those of R J R^H, at most rank_a + rank_b wide."""
    if a.labels != b.labels or a.dim != b.dim:
        raise ValidationError(
            f"density matrices are not comparable: {a.labels}/{a.dim} "
            f"vs {b.labels}/{b.dim}"
        )
    r = np.linalg.qr(np.hstack([a.factor, b.factor]), mode="r")
    signs = np.repeat([1.0, -1.0], [a.factor.shape[1], b.factor.shape[1]])
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh((r * signs) @ r.conj().T))))
