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

Both functions broadcast over momenta.  The grid-wide routines take and
give fibres as one kind of stream: ``(rows, 4)`` coefficient blocks that fill
the grid in order, the first block from node 0, each next one where the last
ended.  Their working memory is O(block) beside the arrays that span the
grid, and every fibre's bits are those of one whole-grid call.

The generator acts on *coefficient* vectors; the Pauli basis operators
themselves transform by its transpose.  Correctness of the orientation is
pinned by the direct-conjugation oracle, not by convention.  Two independent
routes compute the rotation: the closed Rodrigues form (default) and the
complex eigenbasis of the generator (cross-check).
"""

from __future__ import annotations

import copy
import math
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
    "random_hermitian_fibres",
    "random_hermitian_sample",
    "random_psd_fibres",
    "rotation_via_eigenbasis",
]

def _filling(grid: MomentumGrid, fibres):
    """``(block, coefficients)``: each block of ``fibres`` with the slice of ``grid`` it fills.

    Each block must be a numeric ``(rows, 4)`` array, or convert to one, with
    at least one row and no more than the grid has left; the blocks must end
    on the grid's last row.  Anything else raises :class:`ValidationError`.
    """
    end = 0
    for coeffs in fibres:
        try:
            coeffs = np.asarray(coeffs)
        except ValueError as error:
            raise ValidationError(f"the fibres from row {end} are ragged") from error
        rows = len(coeffs) if coeffs.shape[1:] == (4,) else 0
        if not 0 < rows <= grid.size - end or not np.issubdtype(coeffs.dtype, np.number):
            raise ValidationError(f"fibres from row {end} of {grid.size} are not a numeric (rows, 4) array")
        yield slice(end, end + rows), coeffs
        end += rows
    if end != grid.size:
        raise ValidationError(f"fibre blocks stop at row {end} of {grid.size}")


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
    def constant(cls, grid: MomentumGrid, matrix) -> "DirectIntegralObservable":
        """The same 2x2 operator on every fibre."""
        return cls(grid, _frozen(np.repeat(pauli_decompose(matrix)[None], grid.size, axis=0)))

    @classmethod
    def from_fibres(cls, grid: MomentumGrid, fibres) -> "DirectIntegralObservable":
        """Collect a fibre stream, as :func:`positivity_check` takes it, into a new array."""
        coeffs = np.empty((grid.size, 4), dtype=np.complex128)
        for block, fibre in _filling(grid, fibres):
            coeffs[block] = fibre
        return cls(grid, _frozen(coeffs))

    def matrices(self) -> np.ndarray:
        return pauli_compose(self.coefficients)


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
    ``K @ K`` is a stacked BLAS ``dgemm``, so its bits follow OpenBLAS's
    runtime core: on 20,000 random axes the elementwise sum
    ``((0 + a*b) + a*b) + a*b`` matches it under ``OPENBLAS_CORETYPE=Sandybridge``
    only, while the SkylakeX and Haswell cores agree with each other and fuse
    the multiply and add.
    """
    g, h = spectral.dispersion(k, coin)
    angle = -2.0 * float(t) * g
    K = _axis_cross_matrices(h)
    eye = np.broadcast_to(np.eye(3), K.shape)
    sin_term = np.sin(angle)[..., None, None] * K
    cos_term = (1.0 - np.cos(angle))[..., None, None] * (K @ K)
    return eye + sin_term + cos_term


def _evolve_coefficients(k, t: float, coeffs: np.ndarray, coin: Coin) -> np.ndarray:
    """Pauli coefficients ``coeffs`` (shape ``(m, 4)``) at momenta ``k``, evolved by a finite ``t``, as complex128."""
    if not math.isfinite(t):
        raise ValidationError(f"time must be finite, got {t!r}")
    coeffs = np.asarray(coeffs, dtype=np.complex128)  # as _min_eigenvalues takes them
    out = np.empty_like(coeffs)
    out[:, 0] = coeffs[:, 0]
    out[:, 1:] = np.einsum("mij,mj->mi", pauli_flow(k, t, coin), coeffs[:, 1:])
    return out


def heisenberg_evolve(obs: DirectIntegralObservable, t: float, coin: Coin) -> DirectIntegralObservable:
    """Apply the semigroup to every fibre: freeze ``a0``, rotate the vector part.

    Agrees node by node with :func:`conjugate_evolve`; the identity is a
    fixed point exactly at the coefficient level.  The coefficients are
    evolved one block of :func:`~coinwalk.core.blocks` at a time and
    collected by ``from_fibres``, so only the coefficient arrays span the
    grid and none is shared with ``obs``.  A NaN or infinite ``t`` raises
    :class:`ValidationError`.
    """
    grid = obs.grid
    evolved = (
        _evolve_coefficients(grid.nodes_in(block), t, obs.coefficients[block], coin)
        for block in blocks(grid.size)
    )
    return DirectIntegralObservable.from_fibres(grid, evolved)


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


def random_hermitian_fibres(grid: MomentumGrid, rng: np.random.Generator):
    """Real Gaussian Pauli coefficients of independent Hermitian fibres, a block of normals at a time."""
    for block in blocks(grid.size):
        yield rng.normal(size=(block.stop - block.start, 4))


def random_hermitian_sample(
    grid: MomentumGrid, rng: np.random.Generator, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Momenta and coefficients of every ``stride``-th fibre of :func:`random_hermitian_fibres`.

    Draws from ``rng`` as that stream does and keeps complex copies of the
    picked rows; the momenta are ``grid.nodes_in(slice(None, None, stride))``.
    """
    picked = [
        normals[-block.start % stride :: stride].astype(np.complex128)
        for block, normals in _filling(grid, random_hermitian_fibres(grid, rng))
    ]
    return grid.nodes_in(slice(None, None, stride)), np.concatenate(picked)


def random_psd_fibres(grid: MomentumGrid, rng: np.random.Generator):
    """Pauli coefficients of independent positive fibres ``B B*``, B complex Gaussian, per block.

    One whole-grid draw takes every real part of ``B``, then every imaginary
    part.  A copy of ``rng`` replays the real parts while ``rng``, advanced
    past them, draws the imaginary parts; chunked normal draws equal one
    whole-grid draw bit for bit, so the fibres and the state ``rng`` ends in
    are those of the whole-grid draw.
    """
    replay = copy.deepcopy(rng)
    for block in blocks(grid.size):
        rng.normal(size=(block.stop - block.start, 2, 2))
    for block in blocks(grid.size):
        shape = (block.stop - block.start, 2, 2)
        B = replay.normal(size=shape) + 1j * rng.normal(size=shape)
        yield pauli_decompose(B @ np.conj(np.swapaxes(B, 1, 2)))


# Where LAPACK's float64 path for a 2x2 matrix is plain (dlamch: eps 2**-53,
# safmin 2**-1022).  An off-diagonal of magnitude at least 2**-405, dsterf's
# ssfmin, is above zheevd's rmin 2**-485 and zlarfg's 2**-969; entries of at
# most 2**484 are below half of zheevd's rmax 2**485 and far below dsterf's
# ssfmax 2**511 / 3.  Both bounds are inside LAPACK's own, since the rows
# outside them go to eigvalsh.
_PLAIN_LOW = 2.0**-405
_PLAIN_HIGH = 2.0**484
# four times dsterf's eps**2: one test covers both of its split tests
_SPLIT = 4 * 2.0**-106


def _min_eigenvalues(coeffs: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(pauli_compose(coeffs)).min(axis=-1)``, bit for bit, per ``(..., 4)`` row.

    numpy's ``eigvalsh`` runs LAPACK's ``zheevd('N', 'L')``; for n = 2 that
    is ``zhetd2`` (``zlarfg`` with ``dlapy3``, then the 1x1 ``zhemv``,
    ``zdotc``, ``zaxpy`` and ``zher2`` update of the second diagonal entry),
    ``dsterf`` (the square of the off-diagonal and its root) and ``dlae2``.
    These are those float64 operations, in their order, as ufuncs over the
    rows.  The BLAS steps are those of OpenBLAS, which numpy's wheels bundle:
    ``zhemv`` reads only the real part of the diagonal, and ``zher2``
    subtracts ``Re w`` in two updates.  A real off-diagonal, for which
    ``zlarfg`` sets tau = 0, takes the same path: tau = 2 reflects the 1x1
    block exactly, so the bits agree.  A row off that path goes to
    ``eigvalsh`` itself: a non-finite entry, an off-diagonal below
    ``_PLAIN_LOW`` (a zero one too) or an entry above ``_PLAIN_HIGH``
    (zheevd's, zlarfg's and dsterf's rescaling), a pair ``dsterf`` could
    split, or a zero trace.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)  # as pauli_compose takes them
    re, im = coeffs.real, coeffs.imag
    with np.errstate(all="ignore"):
        # the matrix pauli_compose builds: diagonal d1, d2, lower entry ar + i ai
        d1 = re[..., 0] + re[..., 3]
        d2 = re[..., 0] - re[..., 3]
        ar = re[..., 1] - im[..., 2]
        ai = im[..., 1] + re[..., 2]
        # zlarfg: beta = -sign(dlapy3(ar, ai, 0), ar), tau = (beta - ar) / beta - i ai / beta
        big = np.maximum(np.abs(ar), np.abs(ai))
        ratio = np.minimum(np.abs(ar), np.abs(ai)) / big
        beta = np.copysign(big * np.sqrt(1.0 + ratio * ratio), -ar)
        tr = (beta - ar) / beta
        ti = ai / beta  # tau's imaginary part, negated; it enters only squared
        plain = (big >= _PLAIN_LOW) & (np.maximum(np.maximum(np.abs(d1), np.abs(d2)), big) <= _PLAIN_HIGH)
        # zhemv y = tau d2; zdotc, zaxpy: w = y - (tau / 2) conj(y); zher2 takes Re w twice
        y = tr * d2
        w = y - ((0.5 * tr) * y + (0.5 * ti) * (ti * d2))
        d2 = (d2 - w) - w
        # dsterf: e**2 and its root; dlae2 on (d1, sqrt(e**2), d2)
        e2 = beta * beta
        rte = np.sqrt(e2)
        sm = d1 + d2
        plain &= (e2 > np.abs(d1 * d2) * _SPLIT) & (sm != 0)
        adf = np.abs(d1 - d2)
        ab = rte + rte
        top = np.maximum(adf, ab)
        ratio = np.minimum(adf, ab) / top
        rt1 = 0.5 * (sm + np.copysign(top * np.sqrt(1.0 + ratio * ratio), sm))
        # dlae2's acmx is the entry of larger magnitude, d2 on a tie
        swap = np.abs(d2) < np.abs(d1)
        rt2 = (np.where(swap, d1, d2) / rt1) * np.where(swap, d2, d1) - (rte / rt1) * rte
        lowest = np.minimum(rt1, rt2)
    if not plain.all():
        other = ~plain
        lowest[other] = np.linalg.eigvalsh(pauli_compose(coeffs[other])).min(axis=-1)
    return lowest


def positivity_check(grid: MomentumGrid, t: float, coin: Coin, fibres) -> dict:
    """Verify that positive fibres stay positive under the semigroup.

    ``fibres`` is a stream of ``(rows, 4)`` coefficient blocks that fill
    ``grid`` in order, such as :func:`random_psd_fibres`; a block that is not a numeric
    ``(rows, 4)`` array or runs past the grid, or a stream that stops short,
    raises :class:`ValidationError`, and so does a block with an imaginary
    part of 1e-12 or more: the fibres must be Hermitian.  They count as
    positive when all eigenvalues are >= -1e-12, and the evolved fibres must
    stay above -1e-10.  Each block is evolved as
    :func:`heisenberg_evolve` evolves it (the same bits, and the same
    :class:`ValidationError` for a NaN or infinite ``t``), and dropped once
    the minimum eigenvalues before and after are taken: LAPACK's 2x2
    arithmetic as ufuncs, with the bits of ``np.linalg.eigvalsh``.

    Returns a report dict: the node indices (int64), the min-eigenvalue arrays
    before and after (float64), their worst values and the overall verdict.
    """
    before = np.empty(grid.size)
    after = np.empty(grid.size)
    for block, coeffs in _filling(grid, fibres):
        if not np.max(np.abs(coeffs.imag)) < 1e-12:
            raise ValidationError("positivity check requires Hermitian fibres")
        before[block] = _min_eigenvalues(coeffs)
        after[block] = _min_eigenvalues(_evolve_coefficients(grid.nodes_in(block), t, coeffs, coin))
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
