"""Discrete-time evolution: both routes, conservation laws, scaled laws."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coinwalk.cli as cli
from coinwalk import (
    Coin,
    DiscreteLaw,
    DomainError,
    ValidationError,
    WalkRun,
    WaveFunction,
    empirical_scaled_law,
    evolve,
    fourier_evolve,
    hadamard_switched,
    ks_distance,
    normalize_phase,
    position_distribution,
    step,
    weak_limit_law,
)
from coinwalk import _csvtext
from coinwalk.core import TRIM_TOL, site_weight
from coinwalk.verify import _coin_with_l2
from coinwalk.walk import KS_PROBE_POINTS, iter_evolution, sup_norm_difference

from conftest import seeded_coins


def test_one_step_amplitudes(hadamard, origin_right):
    psi = step(origin_right, hadamard)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(psi.amplitudes[-1 - psi.x_min], [-s, 0.0], atol=1e-15)
    assert np.allclose(psi.amplitudes[1 - psi.x_min], [0.0, s], atol=1e-15)


def test_two_step_amplitudes_and_distribution(hadamard, origin_right):
    # hand evaluation: psi_2(-2) = (-1/2, 0), psi_2(0) = (-1/2, -1/2), psi_2(2) = (0, 1/2)
    psi = evolve(WalkRun(hadamard, origin_right, 2))
    assert np.allclose(psi.amplitudes[-2 - psi.x_min], [-0.5, 0.0], atol=1e-15)
    assert np.allclose(psi.amplitudes[-psi.x_min], [-0.5, -0.5], atol=1e-15)
    assert np.allclose(psi.amplitudes[2 - psi.x_min], [0.0, 0.5], atol=1e-15)
    p = position_distribution(psi)
    assert p == pytest.approx([0.25, 0.0, 0.5, 0.0, 0.25])
    # cross-check against the momentum-space route
    assert sup_norm_difference(psi, fourier_evolve(origin_right, hadamard, 2)) < 1e-12


def test_identity_coin_is_a_pure_shift():
    coin = normalize_phase(np.eye(2))
    psi = WaveFunction.from_sites([(0, (0.6, 0.8))])
    out = step(psi, coin)
    assert np.allclose(out.amplitudes[-1 - out.x_min], [0.6, 0.0])
    assert np.allclose(out.amplitudes[1 - out.x_min], [0.0, 0.8])


def test_walkrun_validation(hadamard):
    with pytest.raises(ValidationError):
        WalkRun(hadamard, WaveFunction.qubit(1.0, 1.0), 5)  # not normalised
    with pytest.raises(ValidationError):
        WalkRun(hadamard, WaveFunction.qubit(1.0, 0.0), -1)


def test_norm_conservation(hadamard, origin_right):
    worst = 0.0
    psi = origin_right
    for _, psi in iter_evolution(WalkRun(hadamard, origin_right, 400)):
        worst = max(worst, abs(psi.norm() - 1.0))
    assert worst < 1e-12


def test_ballistic_coin_exact_shift_formula():
    coin = normalize_phase(np.diag([np.exp(0.3j), np.exp(-0.3j)]))
    assert coin.is_degenerate
    psi0 = WaveFunction.from_sites([(-1, (0.6, 0.0)), (2, (0.0, 0.8))])
    n = 9
    out = fourier_evolve(psi0, coin, n)
    expected_left = coin.l1**n * 0.6
    expected_right = coin.r2**n * 0.8
    assert np.allclose(out.amplitudes[-1 - n - out.x_min], [expected_left, 0.0], atol=1e-14)
    assert np.allclose(out.amplitudes[2 + n - out.x_min], [0.0, expected_right], atol=1e-14)
    assert sup_norm_difference(out, evolve(WalkRun(coin, psi0, n))) < 1e-14


def test_empirical_scaled_law_one_step(hadamard, origin_right):
    law = empirical_scaled_law(WalkRun(hadamard, origin_right, 1))
    assert law.atoms == pytest.approx([-1.0, 1.0])
    assert law.weights == pytest.approx([0.5, 0.5])


def test_empirical_scaled_law_ballistic():
    coin = normalize_phase(np.eye(2))
    psi0 = WaveFunction.qubit(0.6, 0.8)
    for n in (1, 7, 40):
        law = empirical_scaled_law(WalkRun(coin, psi0, n))
        assert law.atoms == pytest.approx([-1.0, 1.0])
        assert law.weights == pytest.approx([0.36, 0.64])


def test_empirical_scaled_law_flip_coin_even_steps():
    # l1 = 0: after an even number of steps the walk repeats its start
    coin = normalize_phase(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    law = empirical_scaled_law(WalkRun(coin, WaveFunction.qubit(0.6, 0.8), 10))
    assert law.atoms == pytest.approx([0.0])
    assert law.weights == pytest.approx([1.0])


def test_empirical_law_requires_steps(hadamard, origin_right):
    with pytest.raises(ValidationError):
        empirical_scaled_law(WalkRun(hadamard, origin_right, 0))


def test_ks_distance_basics():
    delta_minus = DiscreteLaw(np.array([-1.0]), np.array([1.0]))
    delta_plus = DiscreteLaw(np.array([1.0]), np.array([1.0]))
    assert ks_distance(delta_minus, delta_minus) == 0.0
    assert ks_distance(delta_minus, delta_plus) == 1.0
    assert ks_distance(delta_minus, delta_plus) == ks_distance(delta_plus, delta_minus)
    half = DiscreteLaw(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    assert ks_distance(delta_minus, half) == pytest.approx(0.5)


def test_discrete_law_fails_closed_on_nan():
    for atoms, weights in (([math.nan, 1.0], [0.3, 0.7]), ([-1.0, 1.0], [math.nan, 1.0]), ([0.0], [-0.5])):
        with pytest.raises(ValidationError):
            DiscreteLaw(np.array(atoms), np.array(weights))
    law = DiscreteLaw(np.array([-1.0, 1.0]), np.array([0.3, 0.7]))
    for call in (law.cdf, law.cdf_left):
        for y in (math.nan, np.array([0.0, math.nan])):
            with pytest.raises(DomainError):
                call(y)
    # the infinities keep their meaning: the cdf's limits
    ends = np.array([-math.inf, math.inf])
    assert law.cdf(ends).tolist() == law.cdf_left(ends).tolist() == [0.0, 1.0]


def test_discrete_law_refuses_infinite_atoms_and_weights():
    # an infinite weight made the mass and the cdf inf, an atom at -inf the mean -inf
    for atoms, weights in (([0.0, 1.0], [math.inf, 1.0]), ([-math.inf, 1.0], [0.5, 0.5]), ([0.0, math.inf], [0.5, 0.5])):
        with pytest.raises(ValidationError, match="finite"):
            DiscreteLaw(np.array(atoms), np.array(weights))


def probe_grid_ks(law_a, law_b):
    """The KS distance by the earlier rule: merged jumps, plus a probe grid when a law has none."""
    points = [law_a.jump_points(), law_b.jump_points()]
    if any(p.size == 0 for p in points):
        lo = min(law_a.support()[0], law_b.support()[0])
        hi = max(law_a.support()[1], law_b.support()[1])
        points.append(np.linspace(lo, hi, KS_PROBE_POINTS))
    ys = np.unique(np.concatenate([p for p in points if p.size]))
    right_a, right_b = np.asarray(law_a.cdf(ys)), np.asarray(law_b.cdf(ys))
    left_a = np.asarray(law_a.cdf_left(ys)) if points[0].size else right_a
    left_b = np.asarray(law_b.cdf_left(ys)) if points[1].size else right_b
    return float(max(np.abs(right_a - right_b).max(), np.abs(left_a - left_b).max()))


def test_ks_at_the_jumps_matches_the_probe_grid():
    # the supremum over the empirical law's jumps is exact, so the denser
    # probe grid finds nothing more; only the cdf's panel split moves the bits
    rng = np.random.default_rng(11)
    for width, coin in enumerate(seeded_coins(3, seed=11), 1):
        amps = rng.normal(size=(width, 2)) + 1j * rng.normal(size=(width, 2))
        psi0 = WaveFunction(int(rng.integers(-2, 3)), amps / np.linalg.norm(amps))
        law = weak_limit_law(coin, psi0)
        for n in (50, 200, 500):
            empirical = empirical_scaled_law(WalkRun(coin, psi0, n))
            reference = probe_grid_ks(empirical, law)
            assert abs(ks_distance(empirical, law) - reference) <= 1e-12
            assert abs(ks_distance(law, empirical) - reference) <= 1e-12


def test_ks_between_two_discrete_or_two_continuous_laws_is_unchanged(hadamard):
    rng = np.random.default_rng(12)
    for size_a, size_b in ((1, 1), (3, 7), (40, 25)):
        law_a = DiscreteLaw(rng.uniform(-1, 1, size_a), rng.dirichlet(np.ones(size_a)))
        law_b = DiscreteLaw(rng.uniform(-1, 1, size_b), rng.dirichlet(np.ones(size_b)))
        assert ks_distance(law_a, law_b) == probe_grid_ks(law_a, law_b)

    probed = []

    class Recorded:
        def __init__(self, law):
            self.law = law

        def __getattr__(self, name):
            return getattr(self.law, name)

        def cdf(self, y):
            probed.append(np.size(y))
            return self.law.cdf(y)

    law_a = Recorded(weak_limit_law(hadamard, WaveFunction.qubit(1.0, 0.0)))
    law_b = Recorded(weak_limit_law(hadamard, WaveFunction.qubit(0.6, 0.8j)))
    assert ks_distance(law_a, law_b) == probe_grid_ks(law_a, law_b)
    assert probed == [KS_PROBE_POINTS] * 4


# --------------------------------------------------------------------------
# the buffer loop of evolve/iter_evolution against the step map (the
# registry check step_loop_equivalence compares them state by state)
# --------------------------------------------------------------------------

def test_zero_steps_returns_the_initial_state(hadamard, origin_right):
    psi0 = origin_right
    assert evolve(WalkRun(hadamard, psi0, 0)) is psi0
    assert [(i, psi) for i, psi in iter_evolution(WalkRun(hadamard, psi0, 0))] == [(0, psi0)]


def test_trajectory_csv_equals_step_loop_table(tmp_path):
    assert cli.main(
        ["walk", "--preset", "fig3.3", "--steps", "300", "--trajectory", "--out", str(tmp_path)]
    ) == 0
    config = cli.parse_config(cli.PRESETS["fig3.3"])
    states = [config.initial_state()]
    for _ in range(300):
        states.append(step(states[-1], config.coin()))
    blocks = (
        (np.full(psi.width, i), psi.sites, position_distribution(psi))
        for i, psi in enumerate(states)
    )
    _csvtext.write_table(tmp_path / "expected.csv", "n,x,p", blocks)
    assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_walk_route_signatures():
    # perfbench's workloads build WalkRun(coin, psi0, n) and call these by name;
    # its tracer wraps step(psi, coin) to count site updates
    for fn, names in (
        (WalkRun, "coin psi0 n"),
        (evolve, "run"),
        (iter_evolution, "run"),
        (empirical_scaled_law, "run"),
        (step, "psi coin"),
    ):
        assert " ".join(inspect.signature(fn).parameters) == names, fn.__name__


# cells whose weight lies within an ulp of TRIM_TOL, and on opposite sides of
# it by numpy's scalar abs(z) ** 2 and its array np.abs(z) ** 2 (numpy 2.4 on
# x86-64 with AVX-512): the first is below by the scalar rule, the second by
# the array rule
STRADDLING = [
    complex(float.fromhex("-0x1.6e74cf359c360p-51"), float.fromhex("0x1.bcfda35b5d13cp-51")),
    complex(float.fromhex("-0x1.203a43f2a71c9p-50"), float.fromhex("-0x1.43e44de5f3b98p-58")),
]


def test_site_weight_rounds_alike_on_arrays_and_complexes():
    rng = np.random.default_rng(23)
    scale = 10.0 ** rng.uniform(-17, -13, size=(2, 4000))
    left, right = (s * np.exp(1j * rng.uniform(-math.pi, math.pi, 4000)) for s in scale)
    left[:2], right[:2] = STRADDLING, 0.0
    on_arrays = site_weight(left, right)
    one_by_one = [site_weight(complex(a), complex(b)) for a, b in zip(left, right)]
    assert on_arrays.tobytes() == np.array(one_by_one).tobytes()
    assert abs(on_arrays[:2] / TRIM_TOL - 1.0).max() < 1e-15


def test_loop_and_trimmed_weigh_an_edge_alike():
    # the identity coin copies every cell exactly, so each straddling cell
    # reaches an edge of the window with its weight unchanged
    shift = Coin(1.0, 0.0, 0.0, 1.0)
    for z in STRADDLING:
        psi0 = WaveFunction.from_sites([(-1, (z, 0.0)), (0, (0.6, 0.8)), (1, (0.0, z))])
        psi = psi0
        for i, fast in iter_evolution(WalkRun(shift, psi0, 3)):
            if i:
                psi = step(psi, shift)
            assert (fast.x_min, fast.amplitudes.tobytes()) == (psi.x_min, psi.amplitudes.tobytes())


phases = st.floats(-math.pi, math.pi)
# random_coin's mixing plus l2 = 0, |l2| where rho^2 underflows, |l2| below
# DEGENERATE_TOL, and l1 = 0
walk_coins = st.builds(
    _coin_with_l2, st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-200, 1e-9, 1.0])), phases, phases
)


@st.composite
def walk_states(draw):
    """1-6 sites, some of them zero, with optional fringes of weight below TRIM_TOL."""
    width = draw(st.integers(1, 6))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=4 * width, max_size=4 * width))
    amps = (np.array(parts[0::2]) + 1j * np.array(parts[1::2])).reshape(width, 2)
    amps[np.array(draw(st.lists(st.booleans(), min_size=width, max_size=width)))] = 0.0
    if np.linalg.norm(amps) < 1e-3:
        amps[0, 0] = 1.0
    amps /= np.linalg.norm(amps)
    fringe = np.array([[1e-17, -3e-16j]])
    if draw(st.booleans()):
        amps = np.vstack([fringe, amps])
    if draw(st.booleans()):
        amps = np.vstack([amps, fringe[:, ::-1]])
    return WaveFunction(draw(st.integers(-5, 5)), amps)


@settings(max_examples=60, deadline=None)
@given(coin=walk_coins, psi0=walk_states(), n=st.integers(0, 150))
def test_iter_evolution_equals_a_step_loop(coin, psi0, n):
    psi = psi0
    for i, fast in iter_evolution(WalkRun(coin, psi0, n)):
        if i:
            psi = step(psi, coin)
        assert (fast.x_min, fast.amplitudes.tobytes()) == (psi.x_min, psi.amplitudes.tobytes()), i


S = 0.5 * (1.0 + 0.0j)
# hadamard_switched's first step cancels the left-moving amplitude from the
# first site of FIRST_SITE_TRIMMED (its R and L amplitudes are equal) and the
# right-moving one from the last site of LAST_SITE_TRIMMED, so the window
# loses exactly one site at that edge while psi0's amplitude of the other
# chirality on that site must not outlive the step after
FIRST_SITE_TRIMMED = [(0, (S, S)), (1, (S, 1j * S))]
LAST_SITE_TRIMMED = [(0, (1j * S, S)), (1, (S, -S))]


@pytest.mark.parametrize("sites", [FIRST_SITE_TRIMMED, LAST_SITE_TRIMMED], ids=["first", "last"])
def test_a_one_site_trim_after_the_first_step_leaves_nothing_behind(sites):
    coin, psi0 = hadamard_switched(), WaveFunction.from_sites(sites)
    first = step(psi0, coin)
    assert first.width == psi0.width + 1  # one site trimmed of the two the step adds
    assert (first.x_min == psi0.x_min) == (sites is FIRST_SITE_TRIMMED)
    psi = psi0
    for i, fast in iter_evolution(WalkRun(coin, psi0, 6)):
        if i:
            psi = step(psi, coin)
        assert (fast.x_min, fast.amplitudes.tobytes()) == (psi.x_min, psi.amplitudes.tobytes()), i
