"""Momentum-space diagonalisation, the generator, and the stationary inverses."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coinwalk import (
    DegenerateCoinError,
    DomainError,
    MomentumGrid,
    build_U_of_k,
    gamma,
    hadamard_switched,
    normalize_phase,
    s_inverse_closed_form,
    unitary_S,
)
from coinwalk.spectral import (
    eigenvector_matrix,
    pauli_axis,
    propagator_bank,
    stationary_angle,
)

from conftest import seeded_coins


def test_gamma_reference_values():
    half = hadamard_switched()  # |l1| = 1/sqrt(2)
    assert gamma(0.0, half) == pytest.approx(math.pi / 4)
    flat = normalize_phase(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # |l1| = 0
    for k in (-2.0, 0.0, 1.3):
        assert gamma(k, flat) == pytest.approx(math.pi / 2)
    ballistic = normalize_phase(np.eye(2))  # |l1| = 1
    for k in (-2.0, -0.4, 0.0, 3.0):
        assert gamma(k, ballistic) == pytest.approx(abs(k) if abs(k) <= math.pi else 2 * math.pi - abs(k))


def test_gamma_symmetric_and_periodic(hadamard):
    ks = np.linspace(-math.pi, math.pi, 101)
    assert np.allclose(gamma(ks, hadamard), gamma(-ks, hadamard), atol=1e-15)
    assert np.allclose(gamma(ks, hadamard), gamma(ks + 2 * math.pi, hadamard), atol=1e-12)


def test_U_of_k_at_zero_is_the_coin(hadamard):
    assert np.allclose(build_U_of_k(0.0, hadamard), hadamard.matrix, atol=1e-15)


def test_U_of_k_hadamard_at_half_pi(hadamard):
    s = 1.0 / math.sqrt(2.0)
    expected = np.array([[-1j * s, 1j * s], [1j * s, 1j * s]])
    assert np.allclose(build_U_of_k(math.pi / 2, hadamard), expected, atol=1e-15)


def test_U_of_k_unitary_with_unit_determinant():
    for coin in seeded_coins(5, seed=2):
        for k in (-3.0, -0.2, 1.7):
            U = build_U_of_k(k, coin)
            assert np.abs(U @ U.conj().T - np.eye(2)).max() < 1e-13
            assert abs(np.linalg.det(U) - 1.0) < 1e-13


def test_eigensystem_relation_and_characteristic_equation():
    for coin in [hadamard_switched()] + seeded_coins(3, seed=5):
        for k in (-2.5, 0.0, 0.9):
            kappa = k - coin.theta1
            lambda_plus = cmath.exp(1j * gamma(kappa, coin))
            lambda_minus = cmath.exp(-1j * gamma(kappa, coin))
            U = build_U_of_k(k, coin)
            for col, lam in ((0, lambda_plus), (1, lambda_minus)):
                for S in (eigenvector_matrix(kappa, coin), unitary_S(kappa, coin)):
                    vec = S[:, col]
                    assert np.abs(U @ vec - lam * vec).max() < 1e-12
            assert lambda_plus * lambda_minus == pytest.approx(1.0, abs=1e-13)
            assert lambda_plus + lambda_minus == pytest.approx(
                2.0 * coin.abs_l1 * math.cos(kappa), abs=1e-13
            )


def test_diagonalization_reconstructs_U_on_grid(hadamard):
    nodes = MomentumGrid(1024).nodes
    worst = 0.0
    for k in nodes[::8]:
        kappa = k - hadamard.theta1
        g = gamma(kappa, hadamard)
        lam = np.diag([cmath.exp(1j * g), cmath.exp(-1j * g)])
        S = eigenvector_matrix(kappa, hadamard)
        rebuilt = S @ lam @ np.linalg.inv(S)
        worst = max(worst, np.abs(rebuilt - build_U_of_k(k, hadamard)).max())
    assert worst < 1e-11


def test_eigenvalues_at_theta1():
    for coin in seeded_coins(3, seed=9):
        # at k = theta1 the eigenvalue argument k - theta1 is zero
        lambda_plus = cmath.exp(1j * gamma(0.0, coin))
        expected = cmath.exp(1j * math.acos(coin.abs_l1))
        assert lambda_plus == pytest.approx(expected, abs=1e-13)


def test_unitary_S_is_unitary_with_orthogonal_columns(hadamard):
    kappas = MomentumGrid(256).nodes
    S = unitary_S(kappas, hadamard)
    gram = np.einsum("mji,mjl->mil", S.conj(), S)
    assert np.abs(gram - np.eye(2)).max() < 1e-12


def test_unitary_S_alpha_at_zero():
    for coin in [hadamard_switched()] + seeded_coins(2, seed=4):
        S = unitary_S(0.0, coin)
        alpha_ratio = S[1, 0] / S[0, 0]
        expected = 1j * cmath.exp(1j * (coin.theta1 - coin.theta2))
        assert alpha_ratio == pytest.approx(expected, abs=1e-13)
        assert S[1, 1] / S[0, 1] == pytest.approx(-expected, abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    kappa=st.floats(-math.pi, math.pi, allow_nan=False),
    mix=st.floats(0.0, math.pi / 2 - 0.06),
    phase1=st.floats(-3.0, 3.0),
    phase2=st.floats(-3.0, 3.0),
)
@example(kappa=0.0, mix=0.0, phase1=0.4, phase2=1.3)
@example(kappa=-2.0, mix=1e-200, phase1=-1.1, phase2=2.5)
def test_axis_unit_norm_property(kappa, mix, phase1, phase2):
    coin = normalize_phase(
        np.array(
            [
                [math.cos(mix) * cmath.exp(1j * phase1), math.sin(mix) * cmath.exp(1j * phase2)],
                [-math.sin(mix) * cmath.exp(-1j * phase2), math.cos(mix) * cmath.exp(-1j * phase1)],
            ]
        )
    )
    h = pauli_axis(kappa, coin)
    assert abs(np.linalg.norm(h) - 1.0) < 1e-12


def test_degenerate_coin_routing():
    coin = normalize_phase(np.diag([np.exp(0.4j), np.exp(-0.4j)]))
    with pytest.raises(DegenerateCoinError):
        eigenvector_matrix(0.3, coin)
    with pytest.raises(DegenerateCoinError):
        unitary_S(0.3, coin)
    # the propagator needs no eigenvectors: at l2 = 0 its generator is
    # diag(-w, w) with w = k - theta1 wrapped into (-pi, pi], the principal
    # log, not the unwrapped k - theta1 that reaches pi + |theta1|
    k = MomentumGrid(257).nodes
    w = np.angle(np.exp(1j * (k - 0.4)))
    for t in (0.5, 2.25):
        expected = np.zeros((k.size, 2, 2), dtype=np.complex128)
        expected[:, 0, 0] = np.exp(-1j * t * w)
        expected[:, 1, 1] = np.exp(1j * t * w)
        assert np.abs(propagator_bank(k, t, coin) - expected).max() < 1e-12


def test_s_inverse_matches_numerical_inversion():
    # the inverse itself is the registry check s_inverse_closed_form
    for coin in [hadamard_switched()] + seeded_coins(2, seed=21):
        a1 = coin.abs_l1
        for frac in (0.0, 0.5, -0.5, 0.9, -0.31):
            y = frac * a1
            closed = s_inverse_closed_form(y, coin)
            c1 = stationary_angle(y, a1)
            c2 = math.pi - c1
            pairs = (
                (closed.at_c1, c1),
                (closed.at_c2, c2),
                (closed.at_neg_c1, -c1),
                (closed.at_neg_c2, -c2),
            )
            for M, arg in pairs:
                assert np.linalg.det(M @ eigenvector_matrix(arg, coin)) == pytest.approx(
                    1.0, abs=1e-12
                )


def test_s_inverse_y_zero_prefactors(hadamard):
    # at y = 0 the (1 +/- y) entries collapse to 1/w up to the row prefactor
    closed = s_inverse_closed_form(0.0, hadamard)
    w = hadamard.l2 * cmath.exp(-1j * hadamard.theta1)
    pref = hadamard.l2 * cmath.exp(1j * (0.0 - hadamard.theta1)) / 2.0
    assert closed.at_c1[0, 0] == pytest.approx(pref / w, abs=1e-14)
    assert closed.at_c1[1, 0] == pytest.approx(pref / w, abs=1e-14)


def test_s_inverse_domain_errors(hadamard):
    with pytest.raises(DomainError):
        s_inverse_closed_form(hadamard.abs_l1, hadamard)
    with pytest.raises(DomainError):
        s_inverse_closed_form(1.5, hadamard)
    degenerate = normalize_phase(np.eye(2))
    with pytest.raises(DegenerateCoinError):
        s_inverse_closed_form(0.1, degenerate)
    # l1 = 0: stationary_angle refuses |l1| = 0
    with pytest.raises(DomainError, match="0 < \\|l1\\| < 1"):
        s_inverse_closed_form(0.0, normalize_phase(np.array([[0.0, 1.0], [-1.0, 0.0]])))


def test_stationary_angle_domain():
    with pytest.raises(DomainError):
        stationary_angle(0.5, 0.5)
    with pytest.raises(DomainError):
        stationary_angle(0.0, 1.0)
    assert stationary_angle(0.0, 0.7) == 0.0
