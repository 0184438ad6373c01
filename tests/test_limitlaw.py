"""The scaling limit: stationary amplitudes, densities, point masses, moments."""

import cmath
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from coinwalk import (
    Coin,
    DegenerateCoinError,
    DiscreteLaw,
    DomainError,
    LimitLaw,
    ValidationError,
    WalkRun,
    WaveFunction,
    asymmetry_coefficient,
    density,
    density_localized,
    empirical_scaled_law,
    g_function,
    gamma,
    hadamard_switched,
    ks_distance,
    lm_values,
    normalize_phase,
    point_mass_law,
    weak_limit_law,
)
from coinwalk import limitlaw
from coinwalk.core import SQRT_2PI, momentum_state
from coinwalk.spectral import stationary_angle

from conftest import seeded_coins

S2 = 1.0 / math.sqrt(2.0)


def spread_state():
    return WaveFunction.from_sites([(-3, (0.5, 0.2j)), (2, (0.1, math.sqrt(0.7)))])


# --------------------------------------------------------------------------
# stationary points
# --------------------------------------------------------------------------


def test_stationary_points_at_zero(hadamard):
    assert stationary_angle(0.0, hadamard.abs_l1) == 0.0


def test_stationary_point_hadamard_half(hadamard):
    c1 = stationary_angle(0.5, hadamard.abs_l1)
    assert c1 == pytest.approx(math.asin(1.0 / math.sqrt(3.0)))
    assert gamma(math.pi - c1, hadamard) == pytest.approx(math.pi - gamma(c1, hadamard))


@settings(max_examples=40, deadline=None)
@given(frac=st.floats(-0.99, 0.99), seed=st.integers(0, 30))
def test_stationary_identities(frac, seed):
    coin = seeded_coins(1, seed=seed)[0]
    y = frac * coin.abs_l1
    a1 = coin.abs_l1
    c1 = stationary_angle(y, a1)
    g1 = gamma(c1, coin)
    assert a1 * math.sin(c1) == pytest.approx(y * math.sin(g1), abs=1e-12)
    assert math.sin(g1) ** 2 == pytest.approx((1 - a1**2) / (1 - y**2), abs=1e-12)
    assert math.cos(g1) ** 2 == pytest.approx((a1**2 - y**2) / (1 - y**2), abs=1e-12)
    # the stationary condition itself: gamma'(c1) = y
    slope = a1 * math.sin(c1) / math.sin(g1)
    assert slope == pytest.approx(y, abs=1e-12)


# --------------------------------------------------------------------------
# the eight stationary amplitudes
# --------------------------------------------------------------------------


def test_lm_coincidences_at_zero_velocity(hadamard):
    # constant momentum data: the mirrored partner of l+(c1) is l-(-c2)
    vals = lm_values(0.0, hadamard, WaveFunction.qubit(0.6, 0.8))
    assert vals.l_plus_c1 == pytest.approx(vals.l_minus_neg_c2, abs=1e-14)
    assert vals.l_plus_c2 == pytest.approx(vals.l_minus_neg_c1, abs=1e-14)


def test_lm_domain_errors(hadamard):
    psi0 = WaveFunction.qubit(1.0, 0.0)
    with pytest.raises(DomainError):
        lm_values(hadamard.abs_l1, hadamard, psi0)
    with pytest.raises(DegenerateCoinError):
        lm_values(0.0, normalize_phase(np.eye(2)), psi0)


def test_g_function_nonnegative(hadamard):
    ys = np.linspace(-0.95, 0.95, 41) * hadamard.abs_l1
    assert np.all(g_function(ys, hadamard, spread_state()) >= 0.0)


@pytest.mark.parametrize("psi0", [WaveFunction.qubit(0.6, 0.8j), spread_state()], ids=["qubit", "two_site"])
def test_g_function_bits_do_not_depend_on_call_length(psi0):
    # the limit-law quadrature evaluates g in blocks, so one long call must
    # give the bits of many short ones; slices stay >= 16 points, because one
    # point sums its eight squared moduli pairwise rather than in sequence
    coin = seeded_coins(1, seed=3)[0]
    ys = np.linspace(-0.999, 0.999, 20480) * coin.abs_l1
    whole = g_function(ys, coin, psi0)
    sliced = np.concatenate([g_function(ys[i : i + 1024], coin, psi0) for i in range(0, ys.size, 1024)])
    assert np.count_nonzero(whole != sliced) == 0


# --------------------------------------------------------------------------
# the integrand against its stacked formulas, bit for bit
# --------------------------------------------------------------------------


def stacked_momentum_state(psi):
    """``momentum_state`` as first written: phases from ``exp(1j * k x)``, then a division."""
    sites = psi.sites.astype(np.float64)

    def evaluate(k):
        phases = np.exp(1j * np.multiply.outer(np.asarray(k, dtype=np.float64), sites))
        return (phases @ psi.amplitudes) / SQRT_2PI

    return evaluate


def stacked_amplitude_table(y, coin, psi0):
    """The eight amplitudes as first written: each from its own factors, stacked."""
    a1 = coin.abs_l1
    s = np.sqrt((a1 * a1 - y * y) / (1.0 - a1 * a1))
    c1 = np.arcsin(y * math.sqrt(1.0 - a1 * a1) / (a1 * np.sqrt(1.0 - y * y)))
    c2 = math.pi - c1
    w = coin.l2 * cmath.exp(-1j * coin.theta1)
    q_plus, q_minus = y + 1j * s, y - 1j * s
    psi_hat = stacked_momentum_state(psi0)
    data = {name: psi_hat(point + coin.theta1) for name, point in (("c1", c1), ("c2", c2), ("nc1", -c1), ("nc2", -c2))}
    big_c = (1.0 - a1 * a1) / (2.0 * a1)
    big_d = a1 / (1.0 - a1 * a1)

    def l_value(name, q):
        v1, v2 = data[name][..., 0], data[name][..., 1]
        return np.multiply(w / 2.0, (1.0 - y) / w * v1 - q / a1 * v2)

    def m_value(name, q):
        v1, v2 = data[name][..., 0], data[name][..., 1]
        return big_c * (-q / w * v1 + big_d * (1.0 + y) * v2)

    return np.stack(
        [
            l_value("c1", q_plus),
            l_value("c2", q_minus),
            l_value("nc1", q_minus),
            l_value("nc2", q_plus),
            m_value("c1", q_minus),
            m_value("c2", q_plus),
            m_value("nc1", q_plus),
            m_value("nc2", q_minus),
        ]
    )


def stacked_g_function(y, coin, psi0):
    y_arr = np.asarray(y, dtype=np.float64)
    limitlaw._check_density_domain(y_arr, coin)
    out = np.sum(np.abs(stacked_amplitude_table(y_arr, coin, psi0)) ** 2, axis=0)
    return float(out) if out.ndim == 0 else out


def integrand_cases():
    """Seeded coins and two with a real ``w = l2 e^{-i theta1}``, with 1-5-site states.

    The states mix complex, real and zero chirality components on sites on
    both sides of 0, so that the signed zeros of the products show.
    """
    rng = np.random.default_rng(22)
    coins = [hadamard_switched(), Coin(S2, S2, -S2, S2), *seeded_coins(3, seed=22)]
    states = [WaveFunction.qubit(1.0, 0.0), WaveFunction.qubit(0.6, -0.8, site=-2), WaveFunction.qubit(S2, 1j * S2, site=3)]
    for width in range(1, 6):
        amps = rng.normal(size=(width, 2)) + 1j * rng.normal(size=(width, 2))
        amps[rng.random((width, 2)) < 0.3] = 0.0
        amps[0, 0] = amps[0, 0] or 1.0
        x_min = int(rng.integers(-4, 2))
        states.append(WaveFunction(x_min, amps / np.linalg.norm(amps)))
    for coin in coins:
        a1 = coin.abs_l1
        inside = math.nextafter(a1, 0.0)
        ys = np.concatenate([[0.0, -0.0, inside, -inside], rng.uniform(-a1, a1, 60)])
        for psi0 in states:
            yield coin, psi0, ys


def test_momentum_state_matches_the_divided_formula_bitwise():
    rng = np.random.default_rng(5)
    ks = np.concatenate([[0.0, -0.0, math.pi, -math.pi], rng.uniform(-7.0, 7.0, 200)])
    for _, psi0, _ in integrand_cases():
        new, old = momentum_state(psi0), stacked_momentum_state(psi0)
        assert new(ks).tobytes() == old(ks).tobytes()
        for k in ks[:12]:
            assert new(k).tobytes() == old(k).tobytes()


def test_integrand_matches_the_stacked_formulas_bitwise(monkeypatch):
    # the limit-law routines as they are, then with the stacked references
    # patched into the module (each routine looks the others up there)
    def routines(coin, psi0, ys):
        law = limitlaw.LimitLaw(coin, psi0)
        values = [
            limitlaw.g_function(ys, coin, psi0),
            limitlaw.density(ys, coin, psi0),
            law.cdf(ys),
            law.mass(),
            law.mean(),
        ]
        for y in ys[:8]:
            values.append(limitlaw.g_function(y, coin, psi0))
            values.append(limitlaw.density(y, coin, psi0))
            values.extend(limitlaw.lm_values(y, coin, psi0))
        return [np.asarray(v).tobytes() for v in values]

    cases = list(integrand_cases())
    new = [routines(*case) for case in cases]
    monkeypatch.setattr(limitlaw, "momentum_state", stacked_momentum_state)
    monkeypatch.setattr(limitlaw, "_amplitude_table", stacked_amplitude_table)
    monkeypatch.setattr(limitlaw, "g_function", stacked_g_function)
    old = [routines(*case) for case in cases]
    assert new == old


# --------------------------------------------------------------------------
# densities
# --------------------------------------------------------------------------


def test_asymmetry_coefficient_reference_values(hadamard):
    assert asymmetry_coefficient(hadamard, WaveFunction.qubit(1.0, 0.0)) == pytest.approx(1.0)
    assert asymmetry_coefficient(hadamard, WaveFunction.qubit(0.0, 1.0, site=4)) == pytest.approx(-1.0)
    # the cross terms are purely imaginary for this qubit and cancel
    assert asymmetry_coefficient(hadamard, WaveFunction.qubit(S2, 1j * S2)) == pytest.approx(0.0, abs=1e-15)


def test_beta_one_density_shape(hadamard):
    # beta = 1 gives rho proportional to (1 - y) over the prefactor
    ys = np.linspace(-0.6, 0.6, 13)
    rho = density_localized(ys, hadamard, WaveFunction.qubit(1.0, 0.0))
    base = math.sqrt(0.5) / (math.pi * (1 - ys**2) * np.sqrt(0.5 - ys**2))
    assert np.allclose(rho, base * (1 - ys), atol=1e-14)


def test_density_zero_outside_support_and_endpoint_guard(hadamard):
    psi0 = WaveFunction.qubit(1.0, 0.0)
    assert density(0.9, hadamard, psi0) == 0.0
    assert density(-0.95, hadamard, psi0) == 0.0
    with pytest.raises(DomainError):
        density(hadamard.abs_l1, hadamard, psi0)
    with pytest.raises(DomainError):
        density_localized(-hadamard.abs_l1, hadamard, psi0)


def test_nan_velocities_fail_closed(hadamard):
    psi0, qubit = spread_state(), WaveFunction.qubit(1.0, 0.0)
    law = weak_limit_law(hadamard, psi0)
    two = np.array([0.1, math.nan])
    for call in (
        lambda: g_function(math.nan, hadamard, psi0),
        lambda: g_function(two, hadamard, psi0),
        lambda: lm_values(math.nan, hadamard, psi0),
        lambda: density(math.nan, hadamard, psi0),
        lambda: density(two, hadamard, psi0),
        lambda: density_localized(math.nan, hadamard, qubit),
        lambda: density_localized(two, hadamard, qubit),
        lambda: law.cdf(np.array([0.0, math.nan])),
        lambda: law.cdf_left(math.nan),
    ):
        with pytest.raises(DomainError):
            call()
    # the infinities keep their meaning: outside the support, at the cdf's limits
    ends = np.array([-math.inf, math.inf])
    assert density(ends, hadamard, psi0).tolist() == [0.0, 0.0]
    assert density_localized(ends, hadamard, qubit).tolist() == [0.0, 0.0]
    assert law.cdf(ends).tolist() == [0.0, law.mass()]


def test_cdf_one_ulp_inside_the_support_edges():
    # such a target splits its panel so finely that a quadrature node rounds
    # onto |l1|, where the substituted integrand is still finite
    for coin, psi0, _ in integrand_cases():
        law = LimitLaw(coin, psi0)
        a1, mass = coin.abs_l1, law.mass()
        inside = math.nextafter(a1, 0.0)
        ys = np.array([-a1, -inside, math.nextafter(-inside, 0.0), -inside + 1e-9, 0.0,
                       inside - 1e-9, math.nextafter(inside, 0.0), inside, a1])
        values = law.cdf(ys)
        assert np.all(np.isfinite(values)), (coin, psi0)
        assert np.all((values >= 0.0) & (values <= mass)), (coin, psi0)
        assert np.all(np.diff(values) >= 0.0), (coin, psi0)
        for target in (-inside, inside):
            assert 0.0 <= law.cdf(target) <= mass


def test_density_localized_validates_qubit(hadamard):
    for psi0 in (WaveFunction.qubit(1.0, 1.0), spread_state()):
        with pytest.raises(ValidationError):
            density_localized(0.0, hadamard, psi0)


def test_density_mass_against_scipy_quad():
    # independent quadrature oracle for the package's Gauss-Legendre panels
    for coin in [hadamard_switched(), seeded_coins(1, seed=31)[0]]:
        a1 = coin.abs_l1
        for psi0 in (WaveFunction.qubit(0.0, 1.0), spread_state()):
            law = weak_limit_law(coin, psi0)
            mass, err = quad(
                lambda u: float(density(a1 * math.sin(u), coin, psi0)) * a1 * math.cos(u),
                -math.pi / 2,
                math.pi / 2,
                limit=200,
            )
            assert mass == pytest.approx(1.0, abs=1e-6)
            assert law.mass() == pytest.approx(mass, abs=1e-9)


def test_cdf_against_scipy_quad(hadamard):
    psi0 = WaveFunction.qubit(1.0, 0.0)
    law = weak_limit_law(hadamard, psi0)
    a1 = hadamard.abs_l1
    for target in (-0.5, -0.1, 0.0, 0.33, 0.64):
        expected, _ = quad(
            lambda u: float(density(a1 * math.sin(u), hadamard, psi0)) * a1 * math.cos(u),
            -math.pi / 2,
            math.asin(target / a1),
            limit=200,
        )
        assert law.cdf(target) == pytest.approx(expected, abs=1e-9)
    assert law.cdf(-1.0) == 0.0
    assert law.cdf(1.0) == pytest.approx(1.0, abs=1e-9)


# --------------------------------------------------------------------------
# point masses and routing
# --------------------------------------------------------------------------


def test_point_mass_ballistic_qubit():
    coin = normalize_phase(np.eye(2))
    law = point_mass_law(coin, WaveFunction.qubit(0.6, 0.8))
    assert law.atoms == pytest.approx([-1.0, 1.0])
    assert law.weights == pytest.approx([0.36, 0.64])


def test_point_mass_rejects_generic_coin(hadamard):
    with pytest.raises(DomainError):
        point_mass_law(hadamard, WaveFunction.qubit(1.0, 0.0))


def test_weak_limit_law_routing(hadamard):
    law = weak_limit_law(hadamard, WaveFunction.qubit(1.0, 0.0))
    assert isinstance(law, LimitLaw) and law.beta == pytest.approx(1.0)
    assert isinstance(
        weak_limit_law(normalize_phase(np.eye(2)), WaveFunction.qubit(1.0, 0.0)), DiscreteLaw
    )
    assert weak_limit_law(hadamard, spread_state()).beta is None


# --------------------------------------------------------------------------
# distribution functions and moments
# --------------------------------------------------------------------------


def test_point_mass_cdf_step():
    coin = normalize_phase(np.eye(2))
    law = point_mass_law(coin, WaveFunction.qubit(math.sqrt(0.3), math.sqrt(0.7)))
    cdf, mean, second = law.cdf, law.mean(), law.moment(2)
    assert cdf(-1.5) == 0.0
    assert cdf(-1.0) == pytest.approx(0.3)
    assert cdf(0.0) == pytest.approx(0.3)
    assert cdf(1.0) == pytest.approx(1.0)
    assert law.cdf_left(-1.0) == 0.0
    assert mean == pytest.approx(0.4)
    assert second == pytest.approx(1.0)


def test_symmetric_law_has_zero_mean(hadamard):
    law = weak_limit_law(hadamard, WaveFunction.qubit(S2, 1j * S2))
    mean, second = law.mean(), law.moment(2)
    assert abs(mean) < 1e-12
    assert second == pytest.approx(1.0 - math.sqrt(1.0 - hadamard.abs_l1**2), abs=1e-10)


def test_mean_matches_empirical_walk(hadamard):
    psi0 = WaveFunction.qubit(1.0, 0.0)
    law = weak_limit_law(hadamard, psi0)
    emp = empirical_scaled_law(WalkRun(hadamard, psi0, 2000))
    assert law.mean() == pytest.approx(emp.mean(), abs=0.01)


def test_empirical_law_converges_for_spread_state(hadamard):
    psi0 = spread_state()
    law = weak_limit_law(hadamard, psi0)
    d_small = ks_distance(empirical_scaled_law(WalkRun(hadamard, psi0, 200)), law)
    d_large = ks_distance(empirical_scaled_law(WalkRun(hadamard, psi0, 800)), law)
    assert d_large < d_small
    assert d_large < 0.05


def test_moments_share_one_integrand_pass(hadamard, monkeypatch):
    points = []
    real = limitlaw.g_function

    def counted(y, coin, psi0):
        points.append(np.size(y))
        return real(y, coin, psi0)

    monkeypatch.setattr(limitlaw, "g_function", counted)
    law = weak_limit_law(hadamard, spread_state())
    first = (law.mass(), law.mean(), law.moment(2))
    assert points == [limitlaw._BASE_PANELS * 16]
    assert (law.mass(), law.mean(), law.moment(2)) == first


def test_cdf_memory_is_flat_in_target_count(hadamard):
    # the cdf integrates its panels in fixed blocks: 20000 targets peak at
    # ~4 MB here, against ~151 MB when every node is evaluated in one call
    law = weak_limit_law(hadamard, spread_state())
    law.mass()
    ys = np.linspace(-1.0, 1.0, 20000) * hadamard.abs_l1
    tracemalloc.start()
    try:
        values = law.cdf(ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.diff(values) >= 0.0) and values[-1] == law.mass()
    assert peak <= 16e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_law_method_signatures():
    # perfbench's tracer patches these methods through cls.__dict__, so each
    # class must define them itself; it reads the cdfs' and g_function's `y`
    # and LimitLaw.mass's `self` by name
    traced = {
        LimitLaw: {
            "cdf": "self y",
            "cdf_left": "self y",
            "mass": "self",
            "pdf": "self y",
            "mean": "self",
            "moment": "self order",
        },
        DiscreteLaw: {"cdf": "self y", "cdf_left": "self y"},
    }
    for cls, methods in traced.items():
        for name, params in methods.items():
            assert name in vars(cls), f"{cls.__name__}.{name}"
            assert " ".join(inspect.signature(vars(cls)[name]).parameters) == params, name
    assert " ".join(inspect.signature(g_function).parameters) == "y coin psi0"
    assert " ".join(inspect.signature(LimitLaw).parameters) == "coin psi0"
