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
every fibre's bits are those of one whole-grid call.  The random fibres are
drawn per block too, in the order of one whole-grid draw, so
:func:`random_psd_positivity` and :func:`random_hermitian_sample` use them
without building the observable.  The generator acts on *coefficient*
vectors; the Pauli basis operators themselves transform by its transpose.
Correctness of the orientation is pinned by the direct-conjugation oracle,
not by convention.  Two independent routes compute the rotation: the
closed Rodrigues form (default) and the complex eigenbasis of the generator
(cross-check).
"""

from __future__ import annotations

import copy
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
    "random_hermitian_sample",
    "random_psd_observable",
    "random_psd_positivity",
    "rotation_via_eigenbasis",
]

def _hermitian(coeffs: np.ndarray) -> bool:
    """Whether Pauli coefficients describe Hermitian fibres (imaginary parts below 1e-12)."""
    return bool(np.max(np.abs(coeffs.imag)) < 1e-12)


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
        return _hermitian(self.coefficients)

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


def flow_vs_conjugation_residual(k: np.ndarray, coeffs: np.ndarray, t: float, coin: Coin) -> float:
    """Largest entry gap between the Pauli flow and :func:`conjugate_evolve`.

    Compared on the fibres with Pauli coefficients ``coeffs`` (shape
    ``(m, 4)``) at momenta ``k`` after time ``t``, e.g. the sample drawn by
    :func:`random_hermitian_sample`.
    """
    mats = pauli_compose(coeffs)
    evolved = pauli_compose(_evolve_coefficients(k, t, coeffs, coin))
    residual = 0.0
    for node, A, flowed in zip(k, mats, evolved):
        residual = max(residual, float(np.abs(conjugate_evolve(node, t, A, coin) - flowed).max()))
    return residual


def _sized_blocks(size: int):
    """``(block, rows)`` for each slice of :func:`~coinwalk.core.blocks` over ``range(size)``."""
    return ((block, len(range(size)[block])) for block in blocks(size))


def _hermitian_draws(grid: MomentumGrid, rng: np.random.Generator):
    """``(block, normals)``: the real Pauli coefficients of Hermitian fibres, drawn per block."""
    for block, rows in _sized_blocks(grid.size):
        yield block, rng.normal(size=(rows, 4))


def random_hermitian_observable(
    grid: MomentumGrid, rng: np.random.Generator
) -> DirectIntegralObservable:
    """Independent Hermitian fibres: real Gaussian Pauli coefficients, drawn per block."""
    coeffs = np.empty((grid.size, 4), dtype=np.complex128)
    for block, normals in _hermitian_draws(grid, rng):
        coeffs[block] = normals
    return DirectIntegralObservable(grid, _frozen(coeffs))


def random_hermitian_sample(
    grid: MomentumGrid, rng: np.random.Generator, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Momenta and coefficients of every ``stride``-th fibre of :func:`random_hermitian_observable`.

    Draws from ``rng`` exactly as that builder does and keeps only the picked rows.
    """
    picked = [
        normals[-block.start % stride :: stride].astype(np.complex128)
        for block, normals in _hermitian_draws(grid, rng)
    ]
    # a copy, so that the whole-grid nodes array is freed
    return grid.nodes[::stride].copy(), np.concatenate(picked)


def _psd_fibres(grid: MomentumGrid, rng: np.random.Generator):
    """``(block, coefficients)`` of the fibres ``B B*`` of :func:`random_psd_observable`, per block.

    One whole-grid draw takes every real part of ``B``, then every imaginary
    part.  A copy of ``rng`` replays the real parts while ``rng``, advanced
    past them, draws the imaginary parts; chunked normal draws equal one
    whole-grid draw bit for bit, so each fibre and the final state of ``rng``
    are those of the whole-grid draw.
    """
    replay = copy.deepcopy(rng)
    for _, rows in _sized_blocks(grid.size):
        rng.normal(size=(rows, 2, 2))
    for block, rows in _sized_blocks(grid.size):
        B = replay.normal(size=(rows, 2, 2)) + 1j * rng.normal(size=(rows, 2, 2))
        yield block, pauli_decompose(B @ np.conj(np.swapaxes(B, 1, 2)))


def random_psd_observable(
    grid: MomentumGrid, rng: np.random.Generator
) -> DirectIntegralObservable:
    """Independent positive-semidefinite fibres ``B B*`` from complex Gaussian B.

    ``rng`` draws the real parts of every ``B``, then the imaginary parts,
    whatever the block size; the fibres are formed per block.
    """
    coeffs = np.empty((grid.size, 4), dtype=np.complex128)
    for block, fibres in _psd_fibres(grid, rng):
        coeffs[block] = fibres
    return DirectIntegralObservable(grid, _frozen(coeffs))


def _positivity(grid: MomentumGrid, t: float, coin: Coin, fibres) -> dict:
    """The report of :func:`positivity_check` on ``(block, coefficients)`` pairs covering the grid."""
    nodes = grid.nodes
    before = np.empty(grid.size)
    after = np.empty(grid.size)
    for block, coeffs in fibres:
        if not _hermitian(coeffs):
            raise ValidationError("positivity check requires Hermitian fibres")
        evolved = _evolve_coefficients(nodes[block], t, coeffs, coin)
        matrices = np.stack([pauli_compose(coeffs), pauli_compose(evolved)])
        before[block], after[block] = np.linalg.eigvalsh(matrices).min(axis=-1)
    input_psd = bool(before.min() >= -1e-12)
    return {
        "nodes": np.arange(grid.size),
        "time": float(t),
        "min_eigenvalue_before": before,
        "min_eigenvalue_after": after,
        "worst_before": float(before.min()),
        "worst_after": float(after.min()),
        "input_psd": input_psd,
        "passed": input_psd and bool(after.min() >= -1e-10),
    }


def positivity_check(obs: DirectIntegralObservable, t: float, coin: Coin) -> dict:
    """Verify that positive fibres stay positive under the semigroup.

    Checks the smallest eigenvalue of every fibre before and after evolution
    by time ``t``.  Input fibres must be Hermitian; they count as positive
    when all eigenvalues are >= -1e-12 and the evolved fibres must stay above
    -1e-10.  Each block of fibres is checked for Hermiticity, evolved as
    :func:`heisenberg_evolve` evolves it (the same bits), rebuilt as matrices
    and diagonalised, so no evolved array spans the grid; no random numbers
    are drawn.

    Returns a report dict with the node indices (an int64 array), the
    min-eigenvalue arrays before and after (float64 arrays), their worst
    values, and the overall verdict.
    """
    coeffs = obs.coefficients
    return _positivity(obs.grid, t, coin, ((block, coeffs[block]) for block in blocks(obs.grid.size)))


def random_psd_positivity(grid: MomentumGrid, t: float, coin: Coin, rng: np.random.Generator) -> dict:
    """:func:`positivity_check` of :func:`random_psd_observable` ``(grid, rng)``, bit for bit.

    The fibres are drawn, checked and dropped per block, so only the report's
    arrays span the grid; ``rng`` ends where the builder leaves it.
    """
    return _positivity(grid, t, coin, _psd_fibres(grid, rng))
