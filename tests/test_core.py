"""Coins, lattice states, Fourier transforms, and the Pauli algebra."""

import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coinwalk
from coinwalk import (
    AliasingError,
    Coin,
    MomentumGrid,
    ValidationError,
    WalkRun,
    WaveFunction,
    evolve_continuous,
    fourier_evolve,
    fourier_transform,
    hadamard_switched,
    heisenberg_evolve,
    inverse_fourier,
    momentum_state,
    normalize_phase,
    pauli_compose,
    pauli_decompose,
    position_distribution,
    positivity_check,
    step,
    weak_limit_law,
)
from coinwalk.core import GRID_MARGIN, SQRT_2PI
from coinwalk.semigroup import DirectIntegralObservable, random_psd_fibres

from conftest import seeded_coins

complex_entries = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=5.0, allow_nan=False, allow_infinity=False
)


# --------------------------------------------------------------------------
# coins
# --------------------------------------------------------------------------


def test_hadamard_switched_is_already_normalized(hadamard):
    again = normalize_phase(hadamard.matrix)
    assert np.allclose(again.matrix, hadamard.matrix, atol=1e-15)
    det = hadamard.l1 * hadamard.r2 - hadamard.l2 * hadamard.r1
    assert abs(det - 1.0) < 1e-15


def test_identity_coin_unchanged():
    coin = normalize_phase(np.eye(2))
    assert np.allclose(coin.matrix, np.eye(2), atol=1e-15)


def test_usual_hadamard_gets_phase_minus_i():
    usual = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    coin = normalize_phase(usual)
    # arg(det) = pi, so the matrix is multiplied by exp(-i*pi/2) = -i
    assert np.allclose(coin.matrix, -1j * usual, atol=1e-15)
    det = coin.l1 * coin.r2 - coin.l2 * coin.r1
    assert abs(det - 1.0) < 1e-14


def test_row_relations_hold_for_normalized_coins():
    for coin in seeded_coins(20, seed=7):
        assert abs(coin.r1 + coin.l2.conjugate()) < 1e-15
        assert abs(coin.r2 - coin.l1.conjugate()) < 1e-15


def test_non_unitary_matrix_rejected_with_named_relation():
    with pytest.raises(ValidationError, match="row 1"):
        normalize_phase(np.array([[2.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError, match="orthogonal"):
        normalize_phase(np.array([[1.0, 0.0], [1.0, 0.0]]) * math.sqrt(0.5) * np.sqrt(2))
    with pytest.raises(ValidationError, match="2x2"):
        normalize_phase(np.eye(3))
    # a NaN or infinite entry makes a defect NaN, which no gate may read as small
    nan, inf = math.nan, math.inf
    for bad in ([[nan, 0], [0, 1]], [[inf, 0], [0, 1]], np.full((2, 2), nan), [[1, 0], [0, nan]]):
        with pytest.raises(ValidationError, match="not unitary"):
            normalize_phase(bad)


def test_theta_conventions():
    coin = hadamard_switched()
    assert coin.theta1 == 0.0
    assert coin.theta2 == pytest.approx(math.pi)  # l2 = -1/sqrt(2)
    ballistic = normalize_phase(np.diag([np.exp(0.25j), np.exp(-0.25j)]))
    assert ballistic.is_degenerate
    assert ballistic.theta2 == 0.0  # convention for l2 = 0


@settings(max_examples=25, deadline=None)
@given(phi=st.floats(-math.pi, math.pi, allow_nan=False))
def test_phase_invariance_of_distributions(phi):
    base = hadamard_switched()
    rotated = normalize_phase(np.exp(1j * phi) * base.matrix)
    psi = WaveFunction.qubit(0.6, 0.8j)
    for _ in range(12):
        psi = step(psi, base)
    psi_rot = WaveFunction.qubit(0.6, 0.8j)
    for _ in range(12):
        psi_rot = step(psi_rot, rotated)
    assert np.max(np.abs(position_distribution(psi) - position_distribution(psi_rot))) < 1e-12


# --------------------------------------------------------------------------
# wavefunctions and distributions
# --------------------------------------------------------------------------


def test_position_distribution_of_origin_qubit():
    psi = WaveFunction.qubit(0.0, 1.0)
    assert position_distribution(psi) == pytest.approx([1.0])


def test_position_distribution_two_peaks():
    s = 1.0 / math.sqrt(2.0)
    psi = WaveFunction.from_sites([(-10, (s, 0.0)), (10, (0.0, s))])
    p = position_distribution(psi)
    assert p[0] == pytest.approx(0.5)
    assert p[-1] == pytest.approx(0.5)
    assert p[1:-1] == pytest.approx(np.zeros(19))


def test_one_step_from_origin(hadamard):
    psi = step(WaveFunction.qubit(0.0, 1.0), hadamard)
    p = position_distribution(psi)
    assert psi.x_min == -1 and psi.x_max == 1
    assert p == pytest.approx([0.5, 0.0, 0.5])


def test_wavefunction_validation_and_trim():
    with pytest.raises(ValidationError):
        WaveFunction(0, np.zeros((3, 3)))
    amps = np.zeros((5, 2), dtype=complex)
    amps[2] = (1.0, 0.0)
    trimmed = WaveFunction(-2, amps).trimmed()
    assert trimmed.x_min == trimmed.x_max == 0
    assert not trimmed.amplitudes.flags.writeable


def test_wavefunction_holds_row_major_amplitudes():
    # a transposed view is copied row-major, so its norm adds in the row-major order
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 4099)) + 1j * rng.normal(size=(2, 4099))
    psi = WaveFunction(0, a.T)
    assert psi.amplitudes.flags.c_contiguous
    assert psi.norm() == WaveFunction(0, np.ascontiguousarray(a.T)).norm()


NON_FINITE_ENTRIES = {
    "evolve_continuous": lambda x, coin, psi: evolve_continuous(psi, x, coin),
    "fourier_evolve": lambda x, coin, psi: fourier_evolve(psi, coin, x),
    "heisenberg_evolve": lambda x, coin, psi: heisenberg_evolve(
        DirectIntegralObservable.constant(MomentumGrid(8), np.diag([1.0, -1.0])), x, coin
    ),
    "Coin": lambda x, coin, psi: Coin(x, 0.0, 0.0, 1.0),
    "MomentumGrid": lambda x, coin, psi: MomentumGrid(x),
    "MomentumGrid.for_walk": lambda x, coin, psi: MomentumGrid.for_walk(psi, x),
    "WaveFunction x_min": lambda x, coin, psi: WaveFunction(x, [[1.0, 0.0]]),
    "WaveFunction.qubit": lambda x, coin, psi: WaveFunction.qubit(x, 0.0),
    "WalkRun": lambda x, coin, psi: WalkRun(coin, psi, x),
    "positivity_check": lambda x, coin, psi: positivity_check(
        MomentumGrid(8), x, coin, random_psd_fibres(MomentumGrid(8), np.random.default_rng(0))
    ),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", NON_FINITE_ENTRIES.values(), ids=NON_FINITE_ENTRIES.keys())
def test_non_finite_times_and_coins_raise_validation_error(hadamard, origin_right, entry, x):
    with pytest.raises(ValidationError):
        entry(x, hadamard, origin_right)


def test_normalization_gate_refuses_a_nan_state(hadamard):
    # a state cannot hold a NaN; one whose norm overflows to inf stands in
    for route in (weak_limit_law, lambda coin, psi0: evolve_continuous(psi0, 1.0, coin)):
        with pytest.raises(ValidationError, match="normalised"):
            route(hadamard, WaveFunction.qubit(1e200, 0.0))


def test_from_sites_fills_gaps():
    psi = WaveFunction.from_sites([(3, (0.0, 1.0)), (-1, (1.0, 0.0))])
    assert psi.x_min == -1 and psi.x_max == 3
    assert np.allclose(psi.amplitudes[1 - psi.x_min], 0.0)
    assert psi.amplitudes[3 - psi.x_min, 1] == 1.0


def test_from_sites_rejects_a_repeated_site():
    with pytest.raises(ValidationError, match="site -1 is given twice"):
        WaveFunction.from_sites([(-1, (1.0, 0.0)), (3, (0.0, 0.0)), (-1, (0.0, 1.0))])


# --------------------------------------------------------------------------
# Fourier transform
# --------------------------------------------------------------------------


def test_transform_of_origin_qubit_is_constant():
    psi = WaveFunction.qubit(0.6, 0.8j)
    grid = MomentumGrid(17)
    hat = fourier_transform(psi, grid)
    expected = np.array([0.6, 0.8j]) / SQRT_2PI
    assert np.allclose(hat, np.tile(expected, (17, 1)), atol=1e-15)


def test_transform_of_shifted_qubit_carries_phase():
    psi = WaveFunction.qubit(0.0, 1.0, site=10)
    grid = MomentumGrid(64)
    hat = fourier_transform(psi, grid)
    expected = np.stack(
        [np.zeros(64), np.exp(10j * grid.nodes)], axis=1
    ) / SQRT_2PI
    assert np.allclose(hat, expected, atol=1e-14)


def test_aliasing_guard():
    psi = WaveFunction(0, np.ones((21, 2)) / math.sqrt(42.0))
    with pytest.raises(AliasingError):
        fourier_transform(psi, MomentumGrid(10))
    with pytest.raises(AliasingError):
        inverse_fourier(np.zeros((10, 2)), MomentumGrid(10), (0, 20))


def test_momentum_state_matches_grid_transform():
    psi = WaveFunction.from_sites([(-3, (0.5, 0.2j)), (2, (0.1, math.sqrt(0.7)))])
    grid = MomentumGrid(31)
    hat = momentum_state(psi)(grid.nodes)
    assert np.allclose(hat, fourier_transform(psi, grid), atol=1e-14)


def test_momentum_grid_nodes():
    grid = MomentumGrid(8)
    nodes = grid.nodes
    assert nodes[0] == pytest.approx(-math.pi)
    assert np.all(np.diff(nodes) > 0)
    assert np.allclose(np.diff(nodes), grid.spacing)
    with pytest.raises(ValidationError):
        MomentumGrid(0)


def test_grid_sizing_rule():
    psi = WaveFunction.qubit(1.0, 0.0, site=-4)
    grid = MomentumGrid.for_walk(psi, 10)
    assert grid.size == 2 * (10 + GRID_MARGIN + 4) + 3


# --------------------------------------------------------------------------
# Pauli algebra
# --------------------------------------------------------------------------


def test_pauli_decompose_identity_and_sigma2():
    ident = pauli_decompose(np.eye(2))
    assert ident == pytest.approx([1.0, 0.0, 0.0, 0.0])
    sigma2 = pauli_decompose(np.array([[0.0, -1j], [1j, 0.0]]))
    assert sigma2 == pytest.approx([0.0, 0.0, 1.0, 0.0])


def test_pauli_decompose_general_matrix():
    # trace formulas by hand: a2 = tr(sigma_2 A)/2 = (-3i + 2i)/2 = -i/2
    a0, a1, a2, a3 = pauli_decompose(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert a0 == pytest.approx(2.5)
    assert a1 == pytest.approx(2.5)
    assert a2 == pytest.approx(-0.5j)
    assert a3 == pytest.approx(-1.5)


@settings(max_examples=50, deadline=None)
@given(entries=st.lists(complex_entries, min_size=4, max_size=4))
def test_pauli_round_trip(entries):
    A = np.array(entries, dtype=complex).reshape(2, 2)
    assert np.abs(pauli_compose(pauli_decompose(A)) - A).max() < 1e-13


def test_pauli_hermitian_flag(hadamard):
    # positivity_check takes Hermitian fibres, those with real Pauli coefficients, only
    grid = MomentumGrid(1)
    hermitian, skew = pauli_decompose([[[1.0, 2j], [-2j, -1.0]], [[1.0, 1.0], [0.0, 1.0]]])
    assert not positivity_check(grid, 0.5, hadamard, [hermitian[None]])["input_psd"]
    with pytest.raises(ValidationError, match="Hermitian"):
        positivity_check(grid, 0.5, hadamard, [skew[None]])


def test_package_raises_only_its_own_errors():
    # CoinWalkError is the base of every error the package raises
    for path in Path(coinwalk.__file__).parent.glob("*.py"):
        raised = [n.exc for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Raise) and n.exc]
        assert "ValueError" not in {ast.unparse(getattr(e, "func", e)) for e in raised}, path.name


def test_tolerance_gates_fail_closed():
    # `defect > TOL` lets a NaN defect pass; a gate reads `not defect <= TOL`
    for path in Path(coinwalk.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            for op, right in zip(node.ops, node.comparators) if isinstance(node, ast.Compare) else ():
                name = getattr(right, "id", None) or getattr(right, "attr", "")
                assert not (isinstance(op, ast.Gt) and name.endswith("TOL")), f"{path.name}:{node.lineno}"


def test_every_listed_name_resolves():
    # a stale __all__ entry breaks `from ... import *` and any tool that reads the list
    package = Path(coinwalk.__file__).parent
    modules = [coinwalk] + [importlib.import_module(f"coinwalk.{p.stem}") for p in package.glob("[!_]*.py")]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
