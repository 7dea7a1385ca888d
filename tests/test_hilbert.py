from __future__ import annotations

import math

import numpy as np
import pytest

import framesim as fs
from framesim.errors import SpaceMismatchError, ValidationError
from framesim.hilbert import (
    Factor,
    Space,
    StateVector,
    level_state,
    make_gaussian,
)

from oracles import (
    expect_momentum,
    expect_position,
    momentum_std,
    naive_inner,
    position_std,
    reorder_factors,
)


def test_grid_requires_power_of_two():
    with pytest.raises(ValidationError):
        fs.Grid(12, -1.0, 1.0)
    with pytest.raises(ValidationError):
        fs.Grid(4, -1.0, 1.0)
    g = fs.Grid(8, -1.0, 1.0)
    assert g.dx == pytest.approx(0.25)
    assert g.positions()[0] == -1.0
    assert g.positions()[-1] == pytest.approx(1.0 - g.dx)


def test_gaussian_norm_is_one():
    g = fs.Grid(256, -16.0, 16.0)
    psi = make_gaussian(g, fs.GaussianParams(r0=0.0, p0=0.0, sigma=1.0, mass=1.0), "S")
    assert abs(psi.norm - 1.0) < 1e-12


def test_gaussian_centers_match_requested():
    g = fs.Grid(256, -16.0, 16.0)
    psi = make_gaussian(g, fs.GaussianParams(r0=2.5, p0=1.0, sigma=1.0, mass=1.0), "S")
    # quadrature oracle, written out directly
    x = g.positions()
    prob = np.abs(psi.amplitudes) ** 2 * g.dx
    assert abs(float(np.dot(prob, x)) - 2.5) < 1e-8
    assert abs(expect_position(psi, "S") - 2.5) < 1e-8
    assert abs(expect_momentum(psi, "S") - 1.0) < 1e-8


@pytest.mark.parametrize("r0, p0, sigma, hbar", [
    (0.0, 0.0, 1.0, 1.0), (2.5, -3.0, 0.4, 1.0), (-1.0, 1.7, 2.0, 0.7), (1.0, -3.0, 0.8, 1.47),
    (0.5, -0.0, 0.9, 2.7),
])
def test_gaussian_samples_are_bit_equal_to_the_one_expression_form(r0, p0, sigma, hbar):
    """The in-place fill of GaussianParams.amplitudes rounds as the whole
    complex expression (pi sigma^2)^(-1/4) exp(i p0 x / hbar - (x - r0)^2
    / 2 sigma^2) does, sign of zero included, on a 2-D array of positions."""
    params = fs.GaussianParams(r0=r0, p0=p0, sigma=sigma, mass=1.0, hbar=hbar)
    x = np.linspace(-12.0, 12.0, 257)[:, None] + np.array([0.0, 0.125, -3.3])
    want = (np.pi * sigma**2) ** -0.25 * np.exp(
        1j * p0 * x / hbar - (x - r0) ** 2 / (2.0 * sigma**2))
    got = params.amplitudes(x)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_velocity_dispersion_formula():
    p = fs.GaussianParams(r0=0.0, p0=0.0, sigma=0.5, mass=10.0, hbar=1.0)
    assert p.xi == pytest.approx(0.2, abs=1e-15)


def test_gaussian_measured_dispersions():
    g = fs.Grid(256, -16.0, 16.0)
    sigma = 1.25
    psi = make_gaussian(g, fs.GaussianParams(r0=0.0, p0=2.0, sigma=sigma, mass=3.0), "S")
    assert position_std(psi, "S") == pytest.approx(sigma / math.sqrt(2), rel=1e-10)
    assert momentum_std(psi, "S") == pytest.approx(1.0 / (sigma * math.sqrt(2)), rel=1e-10)


@pytest.mark.parametrize("sigma", [0.7, 1.0, 2.0])
def test_momentum_profile_is_gaussian(sigma):
    g = fs.Grid(512, -24.0, 24.0)
    assert sigma >= 5 * g.dx
    p0 = 1.5
    psi = make_gaussian(g, fs.GaussianParams(r0=0.0, p0=p0, sigma=sigma, mass=1.0), "S")
    assert expect_momentum(psi, "S") == pytest.approx(p0, abs=1e-8)
    assert momentum_std(psi, "S") == pytest.approx(1.0 / (sigma * math.sqrt(2)), rel=1e-6)


def test_gaussian_grid_too_coarse():
    g = fs.Grid(16, -16.0, 16.0)
    with pytest.raises(ValidationError, match="too coarse"):
        make_gaussian(g, fs.GaussianParams(r0=0.0, p0=0.0, sigma=1.0, mass=1.0), "S")


def test_gaussian_support_clipped():
    g = fs.Grid(256, -16.0, 16.0)
    with pytest.raises(ValidationError, match="clipped"):
        make_gaussian(g, fs.GaussianParams(r0=14.0, p0=0.0, sigma=1.0, mass=1.0), "S")


def test_gaussian_params_validation():
    with pytest.raises(ValidationError):
        fs.GaussianParams(r0=0.0, p0=0.0, sigma=-1.0, mass=1.0)
    with pytest.raises(ValidationError):
        fs.GaussianParams(r0=0.0, p0=0.0, sigma=1.0, mass=0.0)


def test_scaled_params_narrow_with_mass():
    a = fs.GaussianParams.scaled(100.0, 2.0)
    b = fs.GaussianParams.scaled(10000.0, 2.0)
    assert a.sigma == pytest.approx(0.2)
    assert b.sigma == pytest.approx(0.02)
    assert b.xi < a.xi


def test_constructors_are_normalized():
    g = fs.Grid(256, -12.0, 12.0)
    for sigma, r0, p0 in [(0.5, 0.0, 0.0), (1.0, 2.0, -3.0), (2.0, -1.0, 1.0)]:
        psi = make_gaussian(g, fs.GaussianParams(r0=r0, p0=p0, sigma=sigma, mass=1.0), "S")
        assert abs(psi.norm - 1.0) < 1e-10
    phi = level_state("q", [1.0, 1.0j, -0.5])
    assert abs(phi.norm - 1.0) < 1e-10


def test_tensor_product_norm_and_dims():
    g = fs.Grid(8, -4.0, 4.0)
    rng = np.random.default_rng(3)
    a = StateVector(
        Space((Factor.coordinate("x", g),)),
        rng.standard_normal(8) + 1j * rng.standard_normal(8),
    ).normalized()
    b = StateVector(
        Space((Factor.coordinate("y", g),)),
        rng.standard_normal(8) + 1j * rng.standard_normal(8),
    ).normalized()
    c = level_state("q", [1.0, 2.0])
    prod = fs.tensor_product([a, b, c])
    assert prod.amplitudes.size == 128
    assert abs(prod.norm - 1.0) < 1e-12


def test_tensor_product_of_product_is_rank_one():
    a = level_state("L", [0.6, 0.8])
    b = level_state("R", [1.0, 1.0j])
    prod = fs.tensor_product([a, b])
    res = fs.schmidt_decompose(prod, fs.Bipartition(["L"], ["R"]))
    assert res.rank == 1
    assert res.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    overlap = abs(fs.inner_product(res.left_states[0], a))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_tensor_product_rejects_duplicate_labels():
    a = level_state("q", [1.0, 0.0])
    b = level_state("q", [0.0, 1.0])
    with pytest.raises(ValidationError, match="duplicate"):
        fs.tensor_product([a, b])


def test_tensor_product_regrouping_is_permutation():
    rng = np.random.default_rng(11)
    states = [
        level_state("a", rng.standard_normal(3) + 1j * rng.standard_normal(3)),
        level_state("b", rng.standard_normal(2) + 1j * rng.standard_normal(2)),
        level_state("c", rng.standard_normal(4) + 1j * rng.standard_normal(4)),
    ]
    abc = fs.tensor_product(states)
    cab = fs.tensor_product([states[2], states[0], states[1]])
    assert np.allclose(
        reorder_factors(cab, ["a", "b", "c"]).amplitudes, abc.amplitudes
    )


def test_inner_product_self_and_separated():
    g = fs.Grid(512, -32.0, 32.0)
    psi = make_gaussian(g, fs.GaussianParams(r0=0.0, p0=0.0, sigma=1.0, mass=1.0), "S")
    far = make_gaussian(g, fs.GaussianParams(r0=20.0, p0=0.0, sigma=1.0, mass=1.0), "S")
    assert fs.inner_product(psi, psi).real == pytest.approx(1.0, abs=1e-12)
    assert abs(fs.inner_product(psi, far)) < 1e-10


def test_inner_product_matches_naive_loop():
    rng = np.random.default_rng(5)
    g = fs.Grid(16, -4.0, 4.0)
    space = Space((Factor.coordinate("x", g), Factor.level("q", 2)))
    a = StateVector(space, rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2)))
    b = StateVector(space, rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2)))
    assert fs.inner_product(a, b) == pytest.approx(naive_inner(a, b), abs=1e-12)


def test_inner_product_conjugate_linear_in_first_slot():
    a = level_state("q", [0.3, 0.4j])
    b = level_state("q", [1.0, -0.2])
    scaled = StateVector(a.space, (0.5 + 0.25j) * a.amplitudes)
    lhs = fs.inner_product(scaled, b)
    rhs = complex(0.5 + 0.25j).conjugate() * fs.inner_product(a, b)
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_inner_product_space_mismatch():
    a = level_state("q", [1.0, 0.0])
    b = level_state("r", [1.0, 0.0])
    with pytest.raises(SpaceMismatchError):
        fs.inner_product(a, b)


def test_statevector_amplitudes_are_read_only():
    psi = level_state("q", [1.0, 0.0])
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0
