"""Real-time evolution: integer-time agreement, group law, evolution equation."""

import inspect
import itertools
import math

import numpy as np
import pytest

from coinwalk import (
    MomentumGrid,
    ValidationError,
    WalkRun,
    WaveFunction,
    build_U_of_k,
    evolve,
    evolve_continuous,
    normalize_phase,
    schrodinger_residual,
)
from coinwalk import continuous
from coinwalk.cli import PRESETS, parse_config
from coinwalk.continuous import snapshots
from coinwalk.core import GRID_MARGIN, fourier_transform, inverse_fourier
from coinwalk.spectral import propagator_bank
from coinwalk.walk import fourier_evolve, sup_norm_difference

from conftest import seeded_coins

# the two-site interference state of the fig3.3 and fig3.5 presets
INTERFERENCE = parse_config(PRESETS["fig3.3"]).initial_state()


def test_propagator_limits(hadamard):
    for k in (-2.0, 0.0, 1.3):
        assert np.allclose(propagator_bank(k, 0.0, hadamard), np.eye(2), atol=1e-15)
        U = build_U_of_k(k, hadamard)
        assert np.abs(propagator_bank(k, 2.0, hadamard) - U @ U).max() < 1e-13


def test_propagator_unitary():
    for coin in seeded_coins(3, seed=14):
        for k in (-1.1, 0.4):
            for t in (0.3, 2.7, 15.9):
                P = propagator_bank(k, t, coin)
                assert np.abs(P @ P.conj().T - np.eye(2)).max() < 1e-12


def test_zero_time_is_identity(hadamard):
    psi0 = INTERFERENCE
    assert sup_norm_difference(evolve_continuous(psi0, 0.0, hadamard), psi0) < 1e-12


def test_norm_preserved(hadamard):
    psi0 = parse_config(PRESETS["fig3.4"]).initial_state()
    for t in (0.5, 33.25, 120.0):
        assert abs(evolve_continuous(psi0, t, hadamard).norm() - 1.0) < 1e-9


def test_snapshot_series(hadamard):
    psi0 = INTERFERENCE
    series = list(snapshots(psi0, hadamard, (99.25, 99.5, 99.75, 100.0)))
    assert [t for t, _ in series] == [99.25, 99.5, 99.75, 100.0]
    for _, psi in series:
        assert abs(psi.norm() - 1.0) < 1e-9
    final = series[-1][1]
    assert sup_norm_difference(final, evolve(WalkRun(hadamard, psi0, 100))) < 1e-9


def test_the_ring_is_centred_as_the_margin_arithmetic_had_it(monkeypatch, hadamard):
    # the window once grew by ceil|t| + GRID_MARGIN each way and then by the
    # grid's deficit; the two cancel, for grids narrower than that reach too
    seen = []
    monkeypatch.setattr(continuous, "inverse_fourier", lambda psi_hat, grid, support: seen.append(support))
    for x_min, width, t in itertools.product((-7, 0, 4), (1, 2, 5), (0.0, 0.5, -2.5, 12.25)):
        psi0 = WaveFunction(x_min, np.full((width, 2), (2 * width) ** -0.5, complex))
        reach = math.ceil(abs(t)) + GRID_MARGIN
        for size in range(width, width + 2 * reach + 4):
            evolve_continuous(psi0, t, hadamard, MomentumGrid(size))
            lo, hi = x_min - reach, x_min + width - 1 + reach
            deficit = size - (hi - lo + 1)
            assert seen.pop() == (lo - (deficit + 1) // 2, hi + deficit // 2), (x_min, width, t, size)


def test_momentum_form_of_reference_initial_state():
    # the two-site interference state has hat(psi)_0(k) = (e^{-10ik}, e^{10ik}) / (2 sqrt(pi))
    from coinwalk import momentum_state

    psi0 = INTERFERENCE
    ks = np.linspace(-3.0, 3.0, 11)
    hat = momentum_state(psi0)(ks)
    expected = np.stack(
        [np.exp(-10j * ks), np.exp(10j * ks)], axis=-1
    ) / (2.0 * math.sqrt(math.pi))
    assert np.abs(hat - expected).max() < 1e-14


def test_schrodinger_residual_flat_band_coin():
    # |l1| = 0 gives constant gamma = pi/2; the defect law is unchanged
    coin = normalize_phase(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    psi0 = WaveFunction.qubit(1.0, 0.0)
    grid = MomentumGrid.for_walk(psi0, 2)
    delta = 1e-3
    series = [
        (t, evolve_continuous(psi0, t, coin, grid))
        for t in (1.0 - delta, 1.0, 1.0 + delta)
    ]
    assert schrodinger_residual(series, coin, grid) < 1e-5


def test_schrodinger_residual_argument_errors(hadamard):
    psi0 = WaveFunction.qubit(1.0, 0.0)
    grid = MomentumGrid.for_walk(psi0, 2)
    two = [(t, evolve_continuous(psi0, t, hadamard, grid)) for t in (0.0, 1e-3)]
    with pytest.raises(ValidationError):
        schrodinger_residual(two, hadamard, grid)
    uneven = [
        (t, evolve_continuous(psi0, t, hadamard, grid)) for t in (0.0, 1e-3, 3e-3)
    ]
    with pytest.raises(ValidationError):
        schrodinger_residual(uneven, hadamard, grid)
    coarse = [(t, evolve_continuous(psi0, t, hadamard, grid)) for t in (0.0, 0.1, 0.2)]
    with pytest.raises(ValidationError):
        schrodinger_residual(coarse, hadamard, grid)


def test_momentum_route_signatures():
    # perfbench's tracer reads these arguments by name; its output check
    # calls fourier_evolve(psi0, coin, n)
    for fn, names in (
        (fourier_transform, "psi grid"),
        (inverse_fourier, "psi_hat grid support"),
        (evolve_continuous, "psi0 t coin grid"),
        (fourier_evolve, "psi0 coin n"),
    ):
        assert " ".join(inspect.signature(fn).parameters) == names, fn.__name__
