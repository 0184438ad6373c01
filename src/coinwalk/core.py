"""
Core data types for one-dimensional coined quantum walks.

A walker on the integer lattice carries a two-level internal ("chirality")
state.  Each time step a fixed 2x2 unitary coin rotates the chirality and the
walker moves one site left or right according to the outcome.  This module
provides the shared vocabulary for everything else in the package:

- ``Coin``: a 2x2 unitary with determinant one (phase-normalised),
- ``WaveFunction``: a finitely supported lattice state with two complex
  amplitudes per site,
- ``MomentumGrid``: the uniform discretisation of momentum space (-pi, pi],

together with the basic operations: phase normalisation of raw unitaries, the
position distribution, the lattice Fourier transform and its inverse (by FFT),
and the Pauli decomposition of 2x2 matrices into plain ``(..., 4)``
coefficient arrays over {sigma_0, sigma_1, sigma_2, sigma_3}.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to use from multiple threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "AliasingError",
    "Coin",
    "CoinWalkError",
    "DegenerateCoinError",
    "DomainError",
    "MomentumGrid",
    "PAULI",
    "ValidationError",
    "WaveFunction",
    "fourier_transform",
    "hadamard_switched",
    "inverse_fourier",
    "momentum_state",
    "normalize_phase",
    "pauli_compose",
    "pauli_decompose",
    "position_distribution",
    "random_coin",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Input validation tolerance; internal invariants are held to 1e-10 .. 1e-12.
VALIDATE_TOL = 1e-8
# Coins with |l2| below this get the point-mass limit law and are refused by the
# eigenvector formulas, which divide by l2; the generator needs no threshold.
DEGENERATE_TOL = 1e-8
# site_weight threshold below which fringe sites are trimmed.
TRIM_TOL = 1e-30
# Sites added on each side of the light cone by MomentumGrid.for_walk: the
# continuous-time light cone is not sharp, so fractional t leaks past it.
GRID_MARGIN = 8
# random_coin's smallest mixing angle: |l1|, |l2| >= sin(0.05), far from DEGENERATE_TOL
_MIN_MIX = 0.05
# Items per block of every blocked pass (fibres, quadrature nodes, CSV rows,
# JSON array items); items never mix, so it moves memory and speed, no bit.
BLOCK = 2048

PAULI = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=np.complex128,
)
PAULI.setflags(write=False)


class CoinWalkError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CoinWalkError):
    """An input failed validation (non-unitary coin, unnormalised state, bad config)."""


class AliasingError(CoinWalkError):
    """A momentum grid is too small to resolve the requested lattice support."""


class DegenerateCoinError(CoinWalkError):
    """An operation requiring l2 != 0 was called with a (near-)diagonal coin."""


class DomainError(CoinWalkError):
    """An argument lies outside the mathematical domain of the operation."""


@dataclass(frozen=True)
class Coin:
    """A 2x2 unitary coin with determinant one.

    The top row ``(l1, l2)`` feeds the left-moving amplitude, the bottom row
    ``(r1, r2)`` the right-moving amplitude.  With determinant one the rows
    are tied together: ``r1 == -conj(l2)`` and ``r2 == conj(l1)``.

    Construct coins through :func:`normalize_phase` (or the provided presets)
    rather than directly: the constructor refuses only a NaN or infinite
    entry (:class:`ValidationError`); unitarity is ``normalize_phase``'s check.
    """

    l1: complex
    l2: complex
    r1: complex
    r2: complex

    def __post_init__(self) -> None:
        if not all(map(cmath.isfinite, (self.l1, self.l2, self.r1, self.r2))):
            raise ValidationError(f"coin entries must be finite, got {self}")

    @property
    def theta1(self) -> float:
        """Phase of ``l1`` in (-pi, pi]; 0 by convention when ``l1 == 0``."""
        return float(np.angle(self.l1)) if self.l1 != 0 else 0.0

    @property
    def theta2(self) -> float:
        """Phase of ``l2`` in (-pi, pi]; 0 by convention when ``l2 == 0``."""
        return float(np.angle(self.l2)) if self.l2 != 0 else 0.0

    @property
    def abs_l1(self) -> float:
        return abs(self.l1)

    @property
    def abs_l2(self) -> float:
        return abs(self.l2)

    @property
    def is_degenerate(self) -> bool:
        """True when ``|l2|`` is too small for the eigenvector formulas and the density law."""
        return abs(self.l2) < DEGENERATE_TOL

    @property
    def has_density_limit(self) -> bool:
        """True when ``l1*l2 != 0`` so the scaled walk has an absolutely continuous limit."""
        return self.l1 != 0 and not self.is_degenerate

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.l1, self.l2], [self.r1, self.r2]], dtype=np.complex128)


def normalize_phase(matrix) -> Coin:
    """Validate a raw 2x2 unitary and rescale its determinant to one.

    The determinant is made exactly 1 by multiplying with
    ``exp(-i*arg(det)/2)`` (principal branch).  A global phase never changes
    the walk's position distribution, so this is a pure normalisation.  The
    residual sign ambiguity of the half-angle is likewise harmless and fixed
    by the principal branch.

    Parameters
    ----------
    matrix : array_like
        2x2 complex matrix, unitary to within ``1e-8``.

    Returns
    -------
    Coin

    Raises
    ------
    ValidationError
        If the matrix is not 2x2 or not unitary (a NaN or infinite entry
        counts as not unitary); the message names the worst row relation.
    """
    U = np.asarray(matrix, dtype=np.complex128)
    if U.shape != (2, 2):
        raise ValidationError(f"coin must be a 2x2 matrix, got shape {U.shape}")

    row0, row1 = U[0], U[1]
    checks = [
        ("row 1 is not unit norm", abs(np.vdot(row0, row0).real - 1.0)),
        ("row 2 is not unit norm", abs(np.vdot(row1, row1).real - 1.0)),
        ("rows 1 and 2 are not orthogonal", abs(np.vdot(row0, row1))),
    ]
    # a NaN defect (from a NaN or infinite entry) counts as the worst
    name, defect = max(checks, key=lambda item: math.inf if math.isnan(item[1]) else item[1])
    if not defect <= VALIDATE_TOL:
        raise ValidationError(f"matrix is not unitary: {name} (defect {defect:.3e})")

    det = U[0, 0] * U[1, 1] - U[0, 1] * U[1, 0]
    V = U * cmath.exp(-0.5j * cmath.phase(det))
    return Coin(complex(V[0, 0]), complex(V[0, 1]), complex(V[1, 0]), complex(V[1, 1]))


def hadamard_switched() -> Coin:
    """The row-exchanged Hadamard coin (1/sqrt(2)) [[1, -1], [1, 1]].

    Exchanging the rows of the usual Hadamard matrix makes the determinant
    one while merely swapping the roles of left and right movement.
    """
    s = 1.0 / math.sqrt(2.0)
    return Coin(s, -s, s, s)


def random_coin(rng: np.random.Generator) -> Coin:
    """Draw a determinant-one coin with both ``|l1|`` and ``|l2|`` bounded away from 0.

    The mixing angle lies in ``[_MIN_MIX, pi/2 - _MIN_MIX)``, safely outside
    the degenerate routing threshold.
    """
    theta = rng.uniform(_MIN_MIX, math.pi / 2 - _MIN_MIX)
    phi1, phi2 = rng.uniform(-math.pi, math.pi, size=2)
    l1 = math.cos(theta) * cmath.exp(1j * phi1)
    l2 = math.sin(theta) * cmath.exp(1j * phi2)
    return Coin(l1, l2, -l2.conjugate(), l1.conjugate())


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """A lattice state with contiguous support ``[x_min, x_min + N - 1]``.

    ``amplitudes`` has shape ``(N, 2)``: row ``i`` holds the (left, right)
    chirality amplitudes at site ``x_min + i``.  Amplitudes outside the
    support are identically zero by construction.  They are held as a
    row-major copy of the input, whatever its layout, so that sums over them
    (the norm) add in one order.
    """

    x_min: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True, order="C")
        if amps.ndim != 2 or amps.shape[1] != 2 or amps.shape[0] < 1:
            raise ValidationError(f"amplitudes must have shape (N, 2), got {amps.shape}")
        if not np.isfinite(amps.view(np.float64)).all():
            raise ValidationError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "x_min", _whole(self.x_min, "x_min"))

    @classmethod
    def qubit(cls, a: complex, b: complex, site: int = 0) -> "WaveFunction":
        """A single-site state with chirality vector ``(a, b)``."""
        return cls(site, np.array([[a, b]]))

    @classmethod
    def from_sites(cls, sites: Iterable[tuple[int, Sequence[complex]]]) -> "WaveFunction":
        """Build a state from ``(x, (a, b))`` pairs, each ``x`` once; gaps are filled with zeros."""
        entries = {}
        for x, v in sites:
            if int(x) in entries:
                raise ValidationError(f"site {int(x)} is given twice")
            entries[int(x)] = (complex(v[0]), complex(v[1]))
        if not entries:
            raise ValidationError("at least one site is required")
        lo, hi = min(entries), max(entries)
        amps = np.zeros((hi - lo + 1, 2), dtype=np.complex128)
        for x, (a, b) in entries.items():
            amps[x - lo] = (a, b)
        return cls(lo, amps)

    @property
    def width(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def x_max(self) -> int:
        return self.x_min + self.width - 1

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.x_min, self.x_min + self.width)

    @property
    def support_radius(self) -> int:
        return max(abs(self.x_min), abs(self.x_max))

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def trimmed(self) -> "WaveFunction":
        """Drop leading/trailing sites whose :func:`site_weight` is below the trim threshold."""
        alive = np.nonzero(site_weight(self.amplitudes[:, 0], self.amplitudes[:, 1]) >= TRIM_TOL)[0]
        if alive.size == 0:
            # keep a single (numerically zero) site rather than an empty state
            return WaveFunction(self.x_min, self.amplitudes[:1])
        lo, hi = int(alive[0]), int(alive[-1])
        if lo == 0 and hi == self.width - 1:
            return self
        return WaveFunction(self.x_min + lo, self.amplitudes[lo : hi + 1])


def site_weight(left, right):
    """The squared modulus ``|left|^2 + |right|^2`` of a site's two chiralities.

    Written as ``re*re + im*im`` per chirality, which rounds alike for Python
    complexes and for numpy arrays; ``abs(z) ** 2`` does not (numpy's array
    ``abs`` and ``**`` need not round as the scalar ``hypot`` and ``pow`` do).
    So the step loop's edge test and :meth:`WaveFunction.trimmed` agree on
    every weight, also one ulp from ``TRIM_TOL``.
    """
    return (left.real * left.real + left.imag * left.imag) + (
        right.real * right.real + right.imag * right.imag
    )


def blocks(size: int, per: int = 1) -> Iterator[slice]:
    """Slices covering ``range(size)`` of ``max(1, BLOCK // per)`` items, ``per`` values each.

    Each slice stops at ``size`` at the latest, so ``stop - start`` is its length.
    """
    step = max(1, BLOCK // per)
    return (slice(i, min(i + step, size)) for i in range(0, size, step))


def _whole(value, what: str) -> int:
    """``int(value)``; a NaN or an infinity raises :class:`ValidationError`."""
    try:
        return int(value)
    except (ValueError, OverflowError):
        raise ValidationError(f"{what} must be finite, got {value!r}") from None


def require_normalized(psi: WaveFunction, what: str = "state") -> None:
    """Raise :class:`ValidationError` unless ``psi`` has unit norm to input tolerance; NaN fails."""
    nrm = psi.norm()
    if not abs(nrm - 1.0) <= VALIDATE_TOL:
        raise ValidationError(f"{what} must be normalised, got norm {nrm!r}")


def position_distribution(psi: WaveFunction) -> np.ndarray:
    """Probability of finding the walker at each support site.

    Returns ``p`` aligned with ``psi.sites``; ``p(x) = |psi(1;x)|^2 + |psi(2;x)|^2``.
    """
    return np.sum(np.abs(psi.amplitudes) ** 2, axis=1)


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform grid ``k_j = -pi + 2*pi*j/size`` over one momentum period."""

    size: int

    def __post_init__(self) -> None:
        size = _whole(self.size, "grid size")
        if size < 1:
            raise ValidationError(f"grid size must be positive, got {self.size}")
        object.__setattr__(self, "size", size)

    @property
    def nodes(self) -> np.ndarray:
        return self.nodes_in(slice(None))

    def nodes_in(self, block: slice) -> np.ndarray:
        """``nodes[block]``, computed for the sliced nodes only, with the same bits."""
        return -math.pi + self.spacing * np.arange(*block.indices(self.size))

    @property
    def spacing(self) -> float:
        return 2.0 * math.pi / self.size

    @classmethod
    def for_walk(cls, psi0: WaveFunction, steps: int) -> "MomentumGrid":
        """Grid large enough that a walk of the given duration cannot wrap around.

        The walker moves at most one site per unit time, so a state of support
        radius R reaches at most ``R + steps`` from the origin; the grid size
        ``2*(steps + GRID_MARGIN + R) + 3`` resolves that window with margin.
        Callers may round up (e.g. to a power of two); exactness never
        requires it.
        """
        steps = _whole(steps, "steps")
        if steps < 0:
            raise ValidationError("steps must be nonnegative")
        return cls(2 * (steps + GRID_MARGIN + psi0.support_radius) + 3)


def fourier_transform(psi: WaveFunction, grid: MomentumGrid) -> np.ndarray:
    """Evaluate ``psi_hat(i;k) = sum_x psi(i;x) e^{ixk} / sqrt(2*pi)`` at the grid nodes.

    Returns an array of shape ``(grid.size, 2)``.  Requires
    ``grid.size >= psi.width`` so the finite support is resolved without
    aliasing; then the transform is exactly invertible.  By FFT: site ``x``
    fills slot ``x mod grid.size``, times ``e^{-i pi x} = (-1)^x`` from the
    first node ``-pi``.
    """
    if grid.size < psi.width:
        raise AliasingError(
            f"grid of size {grid.size} cannot resolve support width {psi.width}"
        )
    slots = np.zeros((grid.size, 2), dtype=np.complex128)
    slots[psi.sites % grid.size] = (1 - 2 * (psi.sites % 2))[:, None] * psi.amplitudes
    return np.fft.ifft(slots, axis=0, norm="forward") / SQRT_2PI


def inverse_fourier(
    psi_hat: np.ndarray, grid: MomentumGrid, support: tuple[int, int]
) -> WaveFunction:
    """Quadrature of ``psi(x) = int e^{-ixk} psi_hat(k) dk / sqrt(2*pi)`` on the grid.

    ``support`` is the inclusive site window ``(x_min, x_max)`` on which to
    reconstruct; the result is trimmed of zero fringes.  Exact for states
    band-limited to at most ``grid.size`` contiguous sites.  By FFT, like
    :func:`fourier_transform`.
    """
    x_min, x_max = int(support[0]), int(support[1])
    width = x_max - x_min + 1
    if width < 1:
        raise ValidationError("empty reconstruction window")
    if grid.size < width:
        raise AliasingError(
            f"grid of size {grid.size} cannot reconstruct {width} sites without aliasing"
        )
    psi_hat = np.asarray(psi_hat, dtype=np.complex128)
    if psi_hat.shape != (grid.size, 2):
        raise ValidationError(
            f"momentum data must have shape ({grid.size}, 2), got {psi_hat.shape}"
        )
    sites = np.arange(x_min, x_max + 1)
    slots = np.fft.fft(psi_hat, axis=0)[sites % grid.size]
    amps = (1 - 2 * (sites % 2))[:, None] * slots * (SQRT_2PI / grid.size)
    return WaveFunction(x_min, amps).trimmed()


def momentum_state(psi: WaveFunction) -> Callable[[np.ndarray], np.ndarray]:
    """The exact momentum-space evaluator of a finitely supported state.

    Returns a callable mapping momenta of any shape to amplitudes of shape
    ``(..., 2)``; no grid or interpolation is involved, so the values are
    exact at arbitrary momenta (as needed at stationary points).  The phases
    ``exp(i k x)`` are one zeroed complex buffer whose imaginary part takes
    ``k x`` and which ``exp`` overwrites in place; the sum over sites is one
    matmul, scaled through its real view by ``1/SQRT_2PI``.  That product
    has the bits of dividing by ``SQRT_2PI``: numpy divides a complex number
    by a real one as a product with the rounded reciprocal.
    """
    sites = psi.sites.astype(np.float64)
    amps = psi.amplitudes

    def evaluate(k) -> np.ndarray:
        k_arr = np.asarray(k, dtype=np.float64)
        phases = np.zeros(k_arr.shape + sites.shape, dtype=np.complex128)
        np.multiply.outer(k_arr, sites, out=phases.imag)
        np.exp(phases, out=phases)
        values = phases @ amps
        parts = values.view(np.float64)
        parts *= 1.0 / SQRT_2PI
        return values

    return evaluate


def pauli_decompose(matrix) -> np.ndarray:
    """Expand 2x2 matrices as ``A = sum_l a_l sigma_l`` with ``a_l = tr(sigma_l A) / 2``.

    Broadcasts over leading axes: matrices of shape ``(..., 2, 2)`` give
    coefficients of shape ``(..., 4)``.
    """
    A = np.asarray(matrix, dtype=np.complex128)
    if A.shape[-2:] != (2, 2):
        raise ValidationError(f"expected 2x2 matrices, got shape {A.shape}")
    return np.einsum("lij,...ji->...l", PAULI, A) / 2.0


def pauli_compose(coefficients) -> np.ndarray:
    """Rebuild 2x2 matrices from Pauli coefficients (inverse of :func:`pauli_decompose`)."""
    coeffs = np.asarray(coefficients, dtype=np.complex128)
    if coeffs.shape[-1:] != (4,):
        raise ValidationError(f"expected 4 Pauli coefficients, got shape {coeffs.shape}")
    return np.einsum("...l,lij->...ij", coeffs, PAULI)
