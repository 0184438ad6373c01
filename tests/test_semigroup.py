"""Heisenberg evolution of fibred observables and the coefficient rotations."""

import math

import numpy as np
import pytest

from coinwalk import (
    DegenerateCoinError,
    MomentumGrid,
    ValidationError,
    conjugate_evolve,
    cross_generator,
    hadamard_switched,
    hamiltonian,
    heisenberg_evolve,
    normalize_phase,
    pauli_compose,
    pauli_decompose,
    pauli_flow,
    positivity_check,
)
from coinwalk.semigroup import (
    DirectIntegralObservable,
    random_hermitian_observable,
    random_psd_observable,
    rotation_via_eigenbasis,
)
from coinwalk.spectral import dispersion

from conftest import seeded_coins


def rodrigues(axis, angle):
    """Independent rotation oracle used to pin the flow orientation."""
    K = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


# --------------------------------------------------------------------------
# single-fibre conjugation
# --------------------------------------------------------------------------


def test_identity_is_fixed(hadamard):
    for k in (-2.0, 0.5):
        for t in (0.0, 1.0, 9.2):
            out = conjugate_evolve(k, t, np.eye(2), hadamard)
            assert np.abs(out - np.eye(2)).max() < 1e-14


def test_zero_time_is_identity_map(hadamard):
    rng = np.random.default_rng(5)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.abs(conjugate_evolve(0.7, 0.0, A, hadamard) - A).max() < 1e-15


def test_generator_is_fixed_point(hadamard):
    H, _, _ = hamiltonian(0.9, hadamard)
    out = conjugate_evolve(0.9, 3.3, H, hadamard)
    assert np.abs(out - H).max() < 1e-13


# --------------------------------------------------------------------------
# cross generator
# --------------------------------------------------------------------------


def test_cross_generator_structure():
    nodes = MomentumGrid(64).nodes[::8]
    for coin in [hadamard_switched()] + seeded_coins(2, seed=6):
        # one batched call over the nodes
        for k, G in zip(nodes, cross_generator(nodes, coin)):
            assert np.abs(G + G.T).max() == 0.0
            g, h = dispersion(k, coin)
            eigs = np.sort(np.linalg.eigvals(G).imag)
            assert np.abs(eigs - np.array([-2 * g, 0.0, 2 * g])).max() < 1e-11
            assert np.abs(G @ h).max() < 1e-12


def test_cross_generator_degenerate_coin():
    with pytest.raises(DegenerateCoinError):
        cross_generator(0.3, normalize_phase(np.eye(2)))


# --------------------------------------------------------------------------
# Pauli flow
# --------------------------------------------------------------------------


def test_flow_at_zero_time(hadamard):
    assert np.abs(pauli_flow(1.2, 0.0, hadamard) - np.eye(3)).max() < 1e-15


def test_flow_rotation_properties(hadamard):
    for k in (-2.2, 0.1, 1.9):
        g, h = dispersion(k, hadamard)
        for t in (0.4, 1.0, 6.6):
            R = pauli_flow(k, t, hadamard)
            assert np.abs(R.T @ R - np.eye(3)).max() < 1e-12
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
            assert np.abs(R @ h - h).max() < 1e-12
            assert np.trace(R) == pytest.approx(1.0 + 2.0 * math.cos(2 * g * t), abs=1e-12)
        full_turn = pauli_flow(k, math.pi / g, hadamard)
        assert np.abs(full_turn - np.eye(3)).max() < 1e-10


def test_flow_matches_rodrigues_oracle(hadamard):
    # coefficients rotate about the axis by -2*gamma*t
    for k in (-1.4, 0.8):
        g, h = dispersion(k, hadamard)
        for t in (0.5, 2.2):
            R = pauli_flow(k, t, hadamard)
            assert np.abs(R - rodrigues(h, -2.0 * g * t)).max() < 1e-13


def test_eigenbasis_route_agrees(hadamard):
    for k in (-2.8, 0.05, 2.1):
        G = cross_generator(k, hadamard)
        g, _ = dispersion(k, hadamard)
        for t in (0.1, 1.0, 7.3):
            via_eig, W = rotation_via_eigenbasis(G, t)
            assert np.abs(pauli_flow(k, t, hadamard) - via_eig).max() < 1e-11
            # eigenbasis columns are unit eigenvectors of the generator
            lams = np.array([0.0, 2j * g, -2j * g])
            for col, lam in zip(W.T, lams):
                assert np.abs(G @ col - lam * col).max() < 1e-11


def test_flow_reproduces_conjugation(hadamard):
    rng = np.random.default_rng(4)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    A = A + A.conj().T
    coeff = pauli_decompose(A)
    for k in (-0.9, 1.7):
        for t in (0.1, 1.0, 7.3):
            vec_t = pauli_flow(k, t, hadamard) @ coeff[1:].real
            rebuilt = pauli_compose([coeff[0], *vec_t])
            direct = conjugate_evolve(k, t, A, hadamard)
            assert np.abs(rebuilt - direct).max() < 1e-11


# --------------------------------------------------------------------------
# fibred observables
# --------------------------------------------------------------------------


def test_observable_round_trip():
    grid = MomentumGrid(32)
    rng = np.random.default_rng(9)
    mats = rng.normal(size=(32, 2, 2)) + 1j * rng.normal(size=(32, 2, 2))
    obs = DirectIntegralObservable.from_matrices(grid, mats)
    assert np.abs(obs.matrices() - mats).max() < 1e-13


def test_observable_validation():
    grid = MomentumGrid(8)
    with pytest.raises(ValidationError):
        DirectIntegralObservable(grid, np.zeros((4, 4)))
    with pytest.raises(ValidationError):
        DirectIntegralObservable.from_matrices(grid, np.zeros((8, 3, 3)))


def test_observable_sup_norm():
    grid = MomentumGrid(4)
    obs = DirectIntegralObservable.constant(grid, np.diag([3.0, -1.0]))
    assert obs.sup_norm() == pytest.approx(3.0)
    assert obs.is_hermitian


def test_heisenberg_preserves_identity_exactly(hadamard):
    grid = MomentumGrid(64)
    ident = DirectIntegralObservable.constant(grid, np.eye(2))
    out = heisenberg_evolve(ident, 11.3, hadamard)
    assert np.array_equal(out.coefficients[:, 0], ident.coefficients[:, 0])
    assert np.abs(out.coefficients[:, 1:]).max() == 0.0


def test_constant_sigma3_traces_circles(hadamard):
    grid = MomentumGrid(48)
    obs = DirectIntegralObservable.constant(grid, np.diag([1.0, -1.0]))
    t = 1.3
    evolved = heisenberg_evolve(obs, t, hadamard)
    g, h = dispersion(grid.nodes, hadamard)
    for i in range(0, grid.size, 7):
        expected = rodrigues(h[i], -2.0 * g[i] * t) @ np.array([0.0, 0.0, 1.0])
        assert np.abs(evolved.coefficients[i, 1:].real - expected).max() < 1e-12


def test_spectrum_invariance(hadamard):
    grid = MomentumGrid(96)
    rng = np.random.default_rng(13)
    obs = random_hermitian_observable(grid, rng)
    before = np.sort(np.linalg.eigvalsh(obs.matrices()), axis=1)
    after = np.sort(np.linalg.eigvalsh(heisenberg_evolve(obs, 2.6, hadamard).matrices()), axis=1)
    assert np.abs(before - after).max() < 1e-11


def test_positivity_of_psd_and_projectors(hadamard):
    grid = MomentumGrid(128)
    rng = np.random.default_rng(0)
    psd = random_psd_observable(grid, rng)
    report = positivity_check(psd, 2.3, hadamard)
    assert report["passed"]
    assert report["worst_before"] >= -1e-12
    assert report["worst_after"] >= -1e-10

    # rank-one projectors keep spectrum {0, 1}
    vecs = rng.normal(size=(grid.size, 2)) + 1j * rng.normal(size=(grid.size, 2))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    projectors = np.einsum("mi,mj->mij", vecs, vecs.conj())
    proj_obs = DirectIntegralObservable.from_matrices(grid, projectors)
    evolved = heisenberg_evolve(proj_obs, 4.4, hadamard)
    eigs = np.sort(np.linalg.eigvalsh(evolved.matrices()), axis=1)
    assert np.abs(eigs[:, 0]).max() < 1e-11
    assert np.abs(eigs[:, 1] - 1.0).max() < 1e-11


def test_positivity_check_validation(hadamard):
    grid = MomentumGrid(64)
    bad = DirectIntegralObservable.constant(grid, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        positivity_check(bad, 1.0, hadamard)
