"""
Continuous-time extension of the coined walk.

The discrete walk is ``psi_hat_n(k) = U(k)^n psi_hat_0(k)`` in momentum
space and ``U(k) = exp(i H(k))`` for a bounded Hermitian generator, so
replacing the integer power by ``exp(i t H(k))`` extends the evolution to
arbitrary real times while agreeing with the discrete walk at every integer.
The walker keeps its chirality degree of freedom; this is *not* the
graph-Laplacian continuous walk.

The momentum-space states satisfy ``d psi_hat_t / dt = i H psi_hat_t``;
:func:`schrodinger_residual` measures how well a sampled trajectory obeys
that equation through a centred finite difference.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import spectral
from .core import (
    GRID_MARGIN,
    Coin,
    MomentumGrid,
    ValidationError,
    WaveFunction,
    fourier_transform,
    inverse_fourier,
    require_normalized,
)

__all__ = [
    "evolve_continuous",
    "schrodinger_residual",
    "snapshots",
]


def evolve_continuous(
    psi0: WaveFunction, t: float, coin: Coin, grid: MomentumGrid | None = None
) -> WaveFunction:
    """State at real time ``t``: inverse transform of the nodewise propagator.

    The default grid is :meth:`MomentumGrid.for_walk` for duration
    ``ceil(|t|)``.  Norm is preserved and
    ``evolve_continuous(s) o evolve_continuous(t) = evolve_continuous(s+t)``.
    At integer ``t = n`` this is the momentum route of the discrete walk.
    A NaN or infinite ``t`` raises :class:`~coinwalk.core.ValidationError`.
    """
    require_normalized(psi0, "initial state")
    t = float(t)
    if not math.isfinite(t):
        raise ValidationError(f"time must be finite, got {t!r}")
    reach = int(math.ceil(abs(t)))
    if grid is None:
        grid = MomentumGrid.for_walk(psi0, reach)
    psi_hat = fourier_transform(psi0, grid)
    bank = spectral.propagator_bank(grid.nodes, t, coin)
    evolved = np.einsum("mij,mj->mi", bank, psi_hat)
    # Reconstruct the complete ring (exactly grid.size sites centred on the
    # support): the continuous-time tails are not compactly supported, and
    # keeping all resolvable sites makes composing evolutions exact up to the
    # trim threshold.  The ring is exact only if the state vanishes beyond
    # GRID_MARGIN sites past the light cone, as at integer t; at fractional t
    # the tails wrap around (Hadamard coin from qubit (1, 0), default grid vs
    # a 4001-node grid: 1.5e-5 at t=0.5, 1.4e-8 at t=10.5).
    reach += GRID_MARGIN
    lo, hi = psi0.x_min - reach, psi0.x_max + reach
    deficit = grid.size - (hi - lo + 1)
    lo -= (deficit + 1) // 2
    hi += deficit // 2
    return inverse_fourier(evolved, grid, (lo, hi))


def snapshots(
    psi0: WaveFunction, coin: Coin, times: Sequence[float]
) -> list[tuple[float, WaveFunction]]:
    """Evolve ``psi0`` to every time in ``times``, each one independently.

    All times share the one grid sized for the latest, so the snapshots are
    samples of a single evolution.
    """
    grid = MomentumGrid.for_walk(psi0, int(math.ceil(max(times))))
    return [(t, evolve_continuous(psi0, t, coin, grid)) for t in times]


def schrodinger_residual(
    series: Sequence[tuple[float, WaveFunction]], coin: Coin, grid: MomentumGrid
) -> float:
    """Largest defect of the momentum-space evolution equation on a trajectory.

    ``series`` is a uniformly spaced list of ``(time, state)`` pairs with
    spacing ``delta <= 1e-3``; any other series raises
    :class:`~coinwalk.core.ValidationError`.  Returns the maximum over
    interior snapshots and grid nodes of

        || (psi_hat_{t+d} - psi_hat_{t-d}) / (2d) - i H(k) psi_hat_t ||

    which is O(delta^2) for the exact evolution.
    """
    if len(series) < 3:
        raise ValidationError("need at least 3 snapshots for a centred difference")
    times = np.array([t for t, _ in series], dtype=np.float64)
    deltas = np.diff(times)
    delta = float(deltas[0])
    if delta <= 0 or np.max(np.abs(deltas - delta)) > 1e-12 * max(1.0, abs(times[-1])):
        raise ValidationError("snapshot times must be uniformly spaced")
    if delta > 1e-3 + 1e-15:
        raise ValidationError(f"snapshot spacing {delta} exceeds the 1e-3 bound")

    hats = np.stack([fourier_transform(psi, grid) for _, psi in series])
    h_psi = np.einsum("mij,tmj->tmi", spectral.hamiltonian(grid.nodes, coin)[0], hats)

    derivative = (hats[2:] - hats[:-2]) / (2.0 * delta)
    defect = derivative - 1j * h_psi[1:-1]
    return float(np.max(np.linalg.norm(defect, axis=-1)))
