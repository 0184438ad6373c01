"""
Momentum-space spectral analysis of the one-step walk operator.

For each momentum ``k`` the walk acts as the 2x2 unitary

    U(k) = [[e^{-ik} l1, e^{-ik} l2], [e^{ik} r1, e^{ik} r2]].

Its eigenvalues are ``exp(+/- i*gamma(k - theta1))`` where the dispersion
phase ``gamma`` satisfies ``cos(gamma(k)) = |l1| cos(k)``, and ``theta1`` is
the phase of ``l1``.  Diagonalising ``U(k)`` yields a Hermitian generator
``H(k)`` with ``U(k) = exp(i H(k))``; ``H(k)`` equals ``gamma`` times a unit
Pauli vector, which makes all matrix exponentials closed-form.

This module also provides the stationary momenta of ``gamma(k) - y*k``
(:func:`stationary_angle`), which drive the long-time scaling limit of the
walk, and the closed-form inverses of the eigenvector matrix there.

Everything is pure and stateless; array arguments broadcast where noted.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .core import Coin, DegenerateCoinError, DomainError, pauli_compose

__all__ = [
    "StationaryInverses",
    "build_U_of_k",
    "dispersion",
    "eigenvector_matrix",
    "gamma",
    "hamiltonian",
    "pauli_axis",
    "propagator_bank",
    "s_inverse_closed_form",
    "stationary_angle",
    "unitary_S",
]


def _require_spectral(coin: Coin) -> None:
    if coin.is_degenerate:
        raise DegenerateCoinError(
            "coin has |l2| below the degeneracy threshold and the eigenvector formulas divide by l2"
        )


def gamma(k, coin: Coin):
    """Dispersion phase ``gamma(k) = arccos(|l1| cos k)``, principal branch [0, pi].

    Symmetric in ``k`` and 2*pi-periodic; broadcasts over array input.
    Note the argument is *not* shifted by ``theta1``: callers working with the
    physical momentum evaluate ``gamma(k - coin.theta1, coin)``.
    """
    k_arr = np.asarray(k, dtype=np.float64)
    out = np.arccos(np.clip(coin.abs_l1 * np.cos(k_arr), -1.0, 1.0))
    return float(out) if out.ndim == 0 else out


def build_U_of_k(k: float, coin: Coin) -> np.ndarray:
    """The one-step momentum-space unitary ``U(k)`` at a single momentum."""
    down, up = cmath.exp(-1j * k), cmath.exp(1j * k)
    return np.array(
        [[down * coin.l1, down * coin.l2], [up * coin.r1, up * coin.r2]],
        dtype=np.complex128,
    )


def eigenvector_matrix(kappa, coin: Coin) -> np.ndarray:
    """Unnormalised eigenvector matrix at its own argument ``kappa``.

    Columns are the eigenvectors paired with ``exp(+i*gamma(kappa))`` and
    ``exp(-i*gamma(kappa))`` in that order;  ``U(k)`` is diagonalised by this
    matrix evaluated at ``kappa = k - theta1``.  Broadcasts: array ``kappa``
    of shape S yields shape ``S + (2, 2)``.
    """
    _require_spectral(coin)
    kap = np.asarray(kappa, dtype=np.float64)
    g = gamma(kap, coin)
    u = np.exp(-1j * kap)
    scale = -cmath.exp(1j * coin.theta1) / coin.l2
    v_plus = scale * (coin.abs_l1 * np.exp(-1j * kap) - np.exp(1j * g))
    v_minus = scale * (coin.abs_l1 * np.exp(-1j * kap) - np.exp(-1j * g))
    out = np.empty(kap.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = u
    out[..., 0, 1] = u
    out[..., 1, 0] = v_plus
    out[..., 1, 1] = v_minus
    return out


def unitary_S(k, coin: Coin) -> np.ndarray:
    """Unitary eigenvector matrix at its own argument ``k``.

    Columns are the normalised eigenvectors ``(1, alpha_pm(k))`` with

        alpha_pm(k) = i e^{i(k + theta1 - theta2)} (rho sin k +/- sqrt(1 + rho^2 sin^2 k)),

    ``rho = |l1| / |l2|``.  The first column pairs with the eigenvalue
    ``exp(+i*gamma(k))`` (checked by the eigen relation in the test suite).
    Broadcasts like :func:`eigenvector_matrix`.
    """
    _require_spectral(coin)
    kap = np.asarray(k, dtype=np.float64)
    rho = coin.abs_l1 / coin.abs_l2
    rs = rho * np.sin(kap)
    root = np.sqrt(1.0 + rs * rs)
    swing = 1j * np.exp(1j * (kap + coin.theta1 - coin.theta2))
    alpha_plus = swing * (rs + root)
    alpha_minus = swing * (rs - root)
    norm_plus = np.sqrt(1.0 + np.abs(alpha_plus) ** 2)
    norm_minus = np.sqrt(1.0 + np.abs(alpha_minus) ** 2)
    out = np.empty(kap.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = 1.0 / norm_plus
    out[..., 0, 1] = 1.0 / norm_minus
    out[..., 1, 0] = alpha_plus / norm_plus
    out[..., 1, 1] = alpha_minus / norm_minus
    return out


def pauli_axis(kappa, coin: Coin) -> np.ndarray:
    """Unit Pauli vector ``h(kappa)`` of the generator, at its own argument.

    With ``rho = |l1|/|l2|`` and ``phi = kappa + theta1 - theta2``:

        h1 = -sin(phi) / sqrt(1 + rho^2 sin^2 kappa)
        h2 =  cos(phi) / sqrt(1 + rho^2 sin^2 kappa)
        h3 = -rho sin(kappa) / sqrt(1 + rho^2 sin^2 kappa)

    so that ``h1^2 + h2^2 + h3^2 = 1`` identically.  Where ``rho^2`` overflows
    (``l2 = 0``, or ``|l2|`` below ~1e-154), ``h`` is the ``l2 -> 0`` limit
    ``(0, 0, -sign sin kappa)``, or ``(-sin phi, cos phi, 0)`` at ``sin kappa = 0``.
    Broadcasts: shape S input yields shape ``S + (3,)``.
    """
    kap = np.asarray(kappa, dtype=np.float64)
    rho = coin.abs_l1 / coin.abs_l2 if coin.l2 != 0 else math.inf
    phi = kap + coin.theta1 - coin.theta2
    out = np.empty(kap.shape + (3,), dtype=np.float64)
    if not math.isfinite(rho * rho):
        # not only l2 == 0: an infinite (rho sin kappa)^2 below would zero h
        side = np.sign(np.sin(kap))
        out[..., 0] = np.where(side == 0, -np.sin(phi), 0.0)
        out[..., 1] = np.where(side == 0, np.cos(phi), 0.0)
        out[..., 2] = -side
        return out
    den = np.sqrt(1.0 + (rho * np.sin(kap)) ** 2)
    out[..., 0] = -np.sin(phi) / den
    out[..., 1] = np.cos(phi) / den
    out[..., 2] = -rho * np.sin(kap) / den
    return out


def dispersion(k, coin: Coin) -> tuple[np.ndarray, np.ndarray]:
    """``(gamma, h)`` of the generator at *physical* momentum ``k`` (shift applied).

    ``H(k) = gamma * (h . sigma)`` with both factors evaluated at
    ``k - theta1``.  Vectorised: shape S input yields ``(S, S + (3,))``.
    """
    kap = np.asarray(k, dtype=np.float64) - coin.theta1
    return gamma(kap, coin), pauli_axis(kap, coin)


def hamiltonian(k, coin: Coin) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """Hermitian generator at physical momentum ``k``: returns ``(H, h, gamma)``.

    ``H = gamma * (h . sigma)`` satisfies ``exp(i H) = U(k)`` exactly; the
    operator norm of ``H`` equals ``gamma(k - theta1)`` and is therefore
    bounded by ``pi - arccos|l1|``.  Broadcasts like :func:`dispersion`;
    ``H`` has shape ``S + (2, 2)``.
    """
    g, h = dispersion(k, coin)
    coefficients = np.zeros(h.shape[:-1] + (4,))
    coefficients[..., 1:] = np.asarray(g)[..., None] * h
    return pauli_compose(coefficients), h, g


def propagator_bank(k, t: float, coin: Coin) -> np.ndarray:
    """``exp(i t H(k))`` for every momentum in ``k`` (shape ``S + (2, 2)``).

    Since ``H = gamma (h . sigma)`` with a unit vector ``h``, the exponential
    is ``cos(t*gamma) I + i sin(t*gamma) (h . sigma)`` -- no general matrix
    exponential is needed and the result is exactly unitary up to rounding.
    One formula serves every coin: at ``l2 = 0`` it is the pair of phases
    ``exp(-/+ i t wrap(k - theta1))``, the principal log of the diagonal ``U(k)``.
    """
    k_arr = np.asarray(k, dtype=np.float64)
    out = np.zeros(k_arr.shape + (2, 2), dtype=np.complex128)
    g, h = dispersion(k_arr, coin)
    angle = t * g
    rot = 1j * np.sin(angle)
    out[..., 0, 0] = np.cos(angle) + rot * h[..., 2]
    out[..., 1, 1] = np.cos(angle) - rot * h[..., 2]
    out[..., 0, 1] = rot * (h[..., 0] - 1j * h[..., 1])
    out[..., 1, 0] = rot * (h[..., 0] + 1j * h[..., 1])
    return out


class StationaryInverses(NamedTuple):
    """Closed-form ``S(k)^{-1}`` at the four stationary momenta of the scaling limit."""

    at_c1: np.ndarray
    at_c2: np.ndarray
    at_neg_c1: np.ndarray
    at_neg_c2: np.ndarray


def stationary_angle(y: float, abs_l1: float) -> float:
    """The stationary momentum ``c1(y)`` with ``gamma'(c1) = y``, in (-pi/2, pi/2).

    ``c1 = arcsin( y sqrt(1 - |l1|^2) / (|l1| sqrt(1 - y^2)) )`` has the sign
    of ``y``; the second stationary point of ``gamma(k) - y*k`` is
    ``c2 = pi - c1``.  At the solution,

        |l1| sin(c1) = y sin(gamma(c1)),
        sin^2(gamma(c1)) = (1-|l1|^2)/(1-y^2),
        cos^2(gamma(c1)) = (|l1|^2-y^2)/(1-y^2).

    The package's one scalar formula for the stationary momenta; the limit
    density's amplitude table keeps a vectorised copy on purpose (see
    ``limitlaw._amplitude_table``).  Requires ``0 < |l1| < 1`` and
    ``|y| < |l1|``, else raises :class:`DomainError`.
    """
    if abs_l1 <= 0.0 or abs_l1 >= 1.0:
        raise DomainError("stationary points require 0 < |l1| < 1")
    if abs(y) >= abs_l1:
        raise DomainError(f"y={y!r} lies outside the open interval (-|l1|, |l1|)")
    return math.asin(y * math.sqrt(1.0 - abs_l1**2) / (abs_l1 * math.sqrt(1.0 - y * y)))


def s_inverse_closed_form(y: float, coin: Coin) -> StationaryInverses:
    """Closed-form inverses of :func:`eigenvector_matrix` at ``+/- c1(y), +/- c2(y)``.

    With ``s = sqrt((|l1|^2 - y^2) / (1 - |l1|^2))`` and ``w = l2 e^{-i theta1}``::

        S(c)^{-1}  = (l2 e^{ i(c - theta1)} / 2) [[(1-y)/w, -q/|l1|], [(1+y)/w, +q/|l1|]]
        S(-c)^{-1} = (l2 e^{-i(c + theta1)} / 2) [[(1+y)/w, +q/|l1|], [(1-y)/w, -q/|l1|]]

    where ``q = y + i*s`` at ``c1`` and ``q = y - i*s`` at ``c2``, while the
    mirrored points take the *conjugate* factor (``y - i*s`` at ``-c1``,
    ``y + i*s`` at ``-c2``).  The conjugation at negative momenta follows
    from the identity ``e^{2 i c1} (y + i s) = -(y - i s)`` and is pinned by
    agreement with direct numerical inversion.

    Requires ``l1 l2 != 0`` and ``|y| < |l1|``; :func:`stationary_angle`
    raises the :class:`DomainError` of ``l1 = 0``.
    """
    _require_spectral(coin)
    a1 = coin.abs_l1
    c1 = stationary_angle(float(y), a1)
    c2 = math.pi - c1
    s = math.sqrt((a1 * a1 - y * y) / (1.0 - a1 * a1))
    w = coin.l2 * cmath.exp(-1j * coin.theta1)
    q_plus, q_minus = y + 1j * s, y - 1j * s

    def positive_point(c: float, q: complex) -> np.ndarray:
        pref = coin.l2 * cmath.exp(1j * (c - coin.theta1)) / 2.0
        return pref * np.array(
            [[(1.0 - y) / w, -q / a1], [(1.0 + y) / w, q / a1]], dtype=np.complex128
        )

    def negative_point(c: float, q: complex) -> np.ndarray:
        pref = coin.l2 * cmath.exp(-1j * (c + coin.theta1)) / 2.0
        return pref * np.array(
            [[(1.0 + y) / w, q / a1], [(1.0 - y) / w, -q / a1]], dtype=np.complex128
        )

    return StationaryInverses(
        at_c1=positive_point(c1, q_plus),
        at_c2=positive_point(c2, q_minus),
        at_neg_c1=negative_point(c1, q_minus),
        at_neg_c2=negative_point(c2, q_plus),
    )
