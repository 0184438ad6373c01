"""
Heisenberg-picture evolution of momentum-fibred observables.

An observable here is a family ``A(k)`` of 2x2 matrices with uniformly
bounded norm, one per momentum node, stored as an ``(M, 4)`` array of Pauli
coefficients.  The walk generator acts fibrewise, so the unital,
positivity-preserving semigroup

    V_t(A)(k) = exp(i t H(k)) A(k) exp(-i t H(k))

never mixes momenta.  On the Pauli expansion ``A(k) = a0 I + a . sigma`` the
identity component is frozen and the vector part rotates about the generator
axis ``h(k - theta1)`` by the angle ``-2 t gamma(k - theta1)``:

    a(t) = exp(t * cross_generator(k)) a(0) = pauli_flow(k, t) a(0).

Both functions broadcast over momenta.  The grid-wide routines below run
them on blocks of ``core.BLOCK`` fibres (:func:`~coinwalk.core.blocks`), so
their working memory is O(block) beside the ``(M, 4)`` coefficient arrays;
every fibre's bits are those of one whole-grid call.  The generator acts on
*coefficient* vectors; the Pauli basis operators themselves transform by its
transpose.  Correctness of the orientation is pinned by the
direct-conjugation oracle, not by convention.  Two independent
routes compute the rotation: the closed Rodrigues form (default) and the
complex eigenbasis of the generator (cross-check).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .core import (
    Coin,
    MomentumGrid,
    ValidationError,
    blocks,
    pauli_compose,
    pauli_decompose,
)

__all__ = [
    "DirectIntegralObservable",
    "conjugate_evolve",
    "cross_generator",
    "flow_vs_conjugation_residual",
    "heisenberg_evolve",
    "pauli_flow",
    "positivity_check",
    "random_hermitian_observable",
    "random_psd_observable",
    "rotation_via_eigenbasis",
]

def _frozen(coeffs: np.ndarray) -> np.ndarray:
    """A fresh coefficient array made read-only, so an observable adopts it uncopied."""
    coeffs.setflags(write=False)
    return coeffs


@dataclass(frozen=True, eq=False)
class DirectIntegralObservable:
    """A momentum-indexed family of 2x2 operators stored as Pauli coefficients.

    The coefficients are a read-only complex128 array.  One that is already
    read-only, complex128 and owns its memory is kept as it is (the builders
    below hand over such arrays); anything else is copied, so later writes
    to the caller's array change nothing here.
    """

    grid: MomentumGrid
    coefficients: np.ndarray  # shape (grid.size, 4), complex

    def __post_init__(self) -> None:
        coeffs = self.coefficients
        if not (
            isinstance(coeffs, np.ndarray)
            and coeffs.dtype == np.complex128
            and coeffs.flags.owndata
            and not coeffs.flags.writeable
        ):
            coeffs = _frozen(np.array(coeffs, dtype=np.complex128))
        if coeffs.shape != (self.grid.size, 4):
            raise ValidationError(
                f"coefficients must have shape ({self.grid.size}, 4), got {coeffs.shape}"
            )
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_matrices(cls, grid: MomentumGrid, matrices) -> "DirectIntegralObservable":
        """Fibres of shape ``(grid.size, 2, 2)``, stored by :func:`pauli_decompose`."""
        return cls(grid, _frozen(pauli_decompose(matrices)))

    @classmethod
    def constant(cls, grid: MomentumGrid, matrix) -> "DirectIntegralObservable":
        """The same 2x2 operator on every fibre."""
        return cls(grid, _frozen(np.repeat(pauli_decompose(matrix)[None], grid.size, axis=0)))

    def matrices(self) -> np.ndarray:
        return pauli_compose(self.coefficients)

    @property
    def is_hermitian(self) -> bool:
        return bool(np.max(np.abs(self.coefficients.imag)) < 1e-12)

    def sup_norm(self) -> float:
        """Largest operator norm over the fibres."""
        return float(np.linalg.svd(self.matrices(), compute_uv=False).max())


def conjugate_evolve(k: float, t: float, matrix, coin: Coin) -> np.ndarray:
    """Direct Heisenberg conjugation ``exp(itH(k)) A exp(-itH(k))`` on one fibre.

    Exactly unital (the identity maps to itself) and spectrum-preserving,
    since the propagator is unitary.  This is the oracle the Pauli-flow route
    is checked against.
    """
    A = np.asarray(matrix, dtype=np.complex128)
    if A.shape != (2, 2):
        raise ValidationError(f"expected a 2x2 matrix, got shape {A.shape}")
    P = spectral.propagator_bank(float(k), float(t), coin)
    return P @ A @ P.conj().T


def _axis_cross_matrices(h: np.ndarray) -> np.ndarray:
    """Batched cross-product matrices ``[h]_x`` for axes of shape (..., 3)."""
    K = np.zeros(h.shape[:-1] + (3, 3))
    K[..., 0, 1] = -h[..., 2]
    K[..., 0, 2] = h[..., 1]
    K[..., 1, 0] = h[..., 2]
    K[..., 1, 2] = -h[..., 0]
    K[..., 2, 0] = -h[..., 1]
    K[..., 2, 1] = h[..., 0]
    return K


def cross_generator(k, coin: Coin) -> np.ndarray:
    """Generator of the coefficient rotation at every momentum in ``k``.

    The real antisymmetric 3x3 matrices ``G = -2 [gamma*h]_x`` (cross-product
    matrix of the scaled axis), shape ``k.shape + (3, 3)``, so that Pauli
    coefficient vectors evolve as ``a(t) = exp(t G) a(0)``; the basis
    operators evolve by the transpose.  Eigenvalues are
    ``{0, +/- 2i*gamma(k - theta1)}`` and the kernel is spanned by the axis ``h``.
    """
    g, h = spectral.dispersion(k, coin)
    return _axis_cross_matrices(-2.0 * np.asarray(g)[..., None] * h)


def rotation_via_eigenbasis(generator: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """``exp(t * generator)`` through the complex eigendecomposition.

    Returns ``(rotation, eigenbasis)`` where the eigenbasis columns are
    ordered (0, +2i*gamma, -2i*gamma).  Serves as the independent cross-check
    of the Rodrigues route; the imaginary residue of the reassembled rotation
    is rounding-level.
    """
    eigvals, eigvecs = np.linalg.eig(generator)
    order = np.argsort(eigvals.imag)  # (-2g, 0, +2g)
    perm = [order[1], order[2], order[0]]
    W = eigvecs[:, perm]
    lam = eigvals[perm]
    rotation = (W * np.exp(t * lam)) @ np.linalg.inv(W)
    return rotation.real, W


def pauli_flow(k, t: float, coin: Coin) -> np.ndarray:
    """``exp(t * cross_generator(k))`` at every momentum in ``k``, shape ``k.shape + (3, 3)``.

    The Rodrigues form of the rotation by ``-2*gamma*t`` about ``h`` (no
    complex intermediates); the eigenbasis route of
    :func:`rotation_via_eigenbasis` agrees to 1e-12 (verify check ``rotation_properties``).
    """
    g, h = spectral.dispersion(k, coin)
    angle = -2.0 * float(t) * g
    K = _axis_cross_matrices(h)
    eye = np.broadcast_to(np.eye(3), K.shape)
    sin_term = np.sin(angle)[..., None, None] * K
    cos_term = (1.0 - np.cos(angle))[..., None, None] * (K @ K)
    return eye + sin_term + cos_term


def _evolve_coefficients(k, t: float, coeffs: np.ndarray, coin: Coin) -> np.ndarray:
    """Pauli coefficients ``coeffs`` (shape ``(m, 4)``) at momenta ``k``, evolved by ``t``."""
    out = np.empty_like(coeffs)
    out[:, 0] = coeffs[:, 0]
    out[:, 1:] = np.einsum("mij,mj->mi", pauli_flow(k, t, coin), coeffs[:, 1:])
    return out


def heisenberg_evolve(
    obs: DirectIntegralObservable, t: float, coin: Coin
) -> DirectIntegralObservable:
    """Apply the semigroup to every fibre: freeze ``a0``, rotate the vector part.

    Agrees node by node with :func:`conjugate_evolve`; the identity is a
    fixed point exactly at the coefficient level.  The rotations are built
    one block of fibres at a time, so only the coefficient arrays span the
    grid; the result's array is new, never shared with ``obs``.  It draws no
    random numbers.
    """
    coeffs = obs.coefficients
    nodes = obs.grid.nodes
    out = np.empty_like(coeffs)
    for block in blocks(obs.grid.size):
        out[block] = _evolve_coefficients(nodes[block], t, coeffs[block], coin)
    return DirectIntegralObservable(obs.grid, _frozen(out))


def flow_vs_conjugation_residual(
    obs: DirectIntegralObservable, t: float, coin: Coin, stride: int
) -> float:
    """Largest entry gap between the Pauli flow and :func:`conjugate_evolve`.

    Compared on every ``stride``-th fibre of ``obs`` after time ``t``; only
    those fibres are evolved.
    """
    picked = np.arange(0, obs.grid.size, stride)
    nodes = obs.grid.nodes[picked]
    coeffs = obs.coefficients[picked]
    mats = pauli_compose(coeffs)
    evolved = pauli_compose(_evolve_coefficients(nodes, t, coeffs, coin))
    residual = 0.0
    for k, A, flowed in zip(nodes, mats, evolved):
        residual = max(residual, float(np.abs(conjugate_evolve(k, t, A, coin) - flowed).max()))
    return residual


def random_hermitian_observable(
    grid: MomentumGrid, rng: np.random.Generator
) -> DirectIntegralObservable:
    """Independent Hermitian fibres: real Gaussian Pauli coefficients."""
    return DirectIntegralObservable(
        grid, _frozen(rng.normal(size=(grid.size, 4)).astype(np.complex128))
    )


def random_psd_observable(
    grid: MomentumGrid, rng: np.random.Generator
) -> DirectIntegralObservable:
    """Independent positive-semidefinite fibres ``B B*`` from complex Gaussian B.

    Both normal arrays are drawn for the whole grid first, real part then
    imaginary part, so the draw order from ``rng`` does not depend on the
    block size; ``B B*`` and its Pauli coefficients are formed per block.
    """
    real = rng.normal(size=(grid.size, 2, 2))
    imag = rng.normal(size=(grid.size, 2, 2))
    coeffs = np.empty((grid.size, 4), dtype=np.complex128)
    for block in blocks(grid.size):
        B = real[block] + 1j * imag[block]
        coeffs[block] = pauli_decompose(B @ np.conj(np.swapaxes(B, 1, 2)))
    return DirectIntegralObservable(grid, _frozen(coeffs))


def positivity_check(obs: DirectIntegralObservable, t: float, coin: Coin) -> dict:
    """Verify that positive fibres stay positive under the semigroup.

    Checks the smallest eigenvalue of every fibre before and after evolution
    by time ``t``.  Input fibres must be Hermitian; they count as positive
    when all eigenvalues are >= -1e-12 and the evolved fibres must stay above
    -1e-10.  Each block of fibres is evolved as :func:`heisenberg_evolve`
    evolves it (the same bits), rebuilt as matrices and diagonalised, so no
    evolved array spans the grid; no random numbers are drawn.

    Returns a report dict with the node indices (an int64 array), the
    min-eigenvalue arrays before and after (float64 arrays), their worst
    values, and the overall verdict.
    """
    if not obs.is_hermitian:
        raise ValidationError("positivity check requires Hermitian fibres")
    coeffs = obs.coefficients
    nodes = obs.grid.nodes
    before = np.empty(obs.grid.size)
    after = np.empty(obs.grid.size)
    for block in blocks(obs.grid.size):
        evolved = _evolve_coefficients(nodes[block], t, coeffs[block], coin)
        fibres = np.stack([pauli_compose(coeffs[block]), pauli_compose(evolved)])
        before[block], after[block] = np.linalg.eigvalsh(fibres).min(axis=-1)
    input_psd = bool(before.min() >= -1e-12)
    return {
        "nodes": np.arange(obs.grid.size),
        "time": float(t),
        "min_eigenvalue_before": before,
        "min_eigenvalue_after": after,
        "worst_before": float(before.min()),
        "worst_after": float(after.min()),
        "input_psd": input_psd,
        "passed": input_psd and bool(after.min() >= -1e-10),
    }
