"""
Runnable verification suite: every module invariant at fixed seeds.

The suite is the ordered registry :data:`CHECKS`.  Each :class:`Check` holds
a name, a tolerance, the input sizes of the full and ``--quick`` modes, and
the acceptance criterion it serves, if any.  A check draws its random inputs
from its own generator, derived from ``seed`` and its position in the
registry, so a check run alone sees exactly the inputs ``coinwalk verify``
gives it; the acceptance tests rely on that.  Two checks are deliberate fault
injections (a wrong normaliser inside the generator axis, and an undersized
momentum grid); they pass when the fault is *detected*.  The CLI ``verify``
subcommand runs this suite and exits nonzero on any failure.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import continuous, limitlaw, semigroup, spectral, walk
from .cli import PRESETS, parse_config
from .core import (
    AliasingError,
    Coin,
    MomentumGrid,
    WaveFunction,
    fourier_transform,
    hadamard_switched,
    inverse_fourier,
    momentum_state,
    normalize_phase,
    pauli_compose,
    pauli_decompose,
    position_distribution,
    random_coin,
)

__all__ = ["CHECKS", "Check", "CheckResult", "run_verification"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""
    # raw measurements that the acceptance tests compare with pinned oracle data
    values: dict = field(default_factory=dict)
    # wall time of the measurement; not part of the report
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "detail": self.detail,
        }


@dataclass(frozen=True, eq=False)
class Check:
    """One registry entry.

    ``measure(rng, size)`` returns ``(residual, detail)`` or
    ``(residual, detail, values)``; ``size`` is ``full`` or, in quick mode,
    ``quick`` when that is set.  The check passes when the residual is at most
    the tolerance (above it, for ``larger_is_better``).
    """

    name: str
    measure: Callable
    tolerance: float
    full: Any = None
    quick: Any = None
    criterion: int | None = None
    larger_is_better: bool = False
    quick_tolerance: float | None = None

    def run(self, seed: int = 0, quick: bool = False) -> CheckResult:
        rng = np.random.default_rng([seed, CHECKS.index(self)])
        quick = quick and self.quick is not None
        tolerance = self.tolerance
        if quick and self.quick_tolerance is not None:
            tolerance = self.quick_tolerance
        start = time.perf_counter()
        residual, detail, *values = self.measure(rng, self.quick if quick else self.full)
        seconds = time.perf_counter() - start
        residual = float(residual)
        passed = residual > tolerance if self.larger_is_better else residual <= tolerance
        return CheckResult(
            self.name, passed, residual, float(tolerance), detail, values[0] if values else {}, seconds
        )


def _figure_state(name: str) -> WaveFunction:
    return parse_config(PRESETS[name]).initial_state()


S2 = 1.0 / math.sqrt(2.0)

# --------------------------------------------------------------------------
# core
# --------------------------------------------------------------------------


def _coin_relations(rng, count):
    worst = 0.0
    for _ in range(count):
        c = random_coin(rng)
        det = c.l1 * c.r2 - c.l2 * c.r1
        worst = max(
            worst,
            abs(c.r1 + c.l2.conjugate()),
            abs(c.r2 - c.l1.conjugate()),
            abs(det - 1.0),
        )
    return worst, "r1=-conj(l2), r2=conj(l1), det=1"


def _phase_invariance(rng, count):
    worst = 0.0
    base = hadamard_switched()
    psi0 = WaveFunction.qubit(0.6, 0.8j)
    for _ in range(count):
        phase = np.exp(1j * rng.uniform(-math.pi, math.pi))
        rotated = normalize_phase(phase * base.matrix)
        a, b = walk._union_window(
            [walk.evolve(walk.WalkRun(coin, psi0, 40)) for coin in (base, rotated)]
        )
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst, "distribution unchanged by e^{i phi} U"


def _fourier_round_trip(rng, count):
    worst = 0.0
    for _ in range(count):
        width = int(rng.integers(1, 12))
        amps = rng.normal(size=(width, 2)) + 1j * rng.normal(size=(width, 2))
        amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
        psi = WaveFunction(int(rng.integers(-7, 7)), amps)
        grid = MomentumGrid(width + int(rng.integers(1, 30)))
        hat = fourier_transform(psi, grid)
        back = inverse_fourier(hat, grid, (psi.x_min, psi.x_max))
        worst = max(worst, walk.sup_norm_difference(psi, back))
        parseval = abs(grid.spacing * np.sum(np.abs(hat) ** 2) - psi.norm() ** 2)
        worst = max(worst, parseval)
        # the FFT against the dense evaluator, also on the tightest grid
        exact = momentum_state(psi)
        for g in (grid, MomentumGrid(width)):
            worst = max(worst, np.abs(fourier_transform(psi, g) - exact(g.nodes)).max())
    return worst, "inverse o forward = id; Parseval; FFT = dense evaluator"


def _pauli_round_trip(rng, count):
    worst = 0.0
    for _ in range(count):
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        worst = max(worst, np.abs(pauli_compose(pauli_decompose(A)) - A).max())
    return worst, ""


# --------------------------------------------------------------------------
# discrete walk
# --------------------------------------------------------------------------


def _norm_conservation(rng, n):
    # the production loop, the one `walk --trajectory` writes
    run = walk.WalkRun(hadamard_switched(), WaveFunction.qubit(1.0, 0.0), n)
    worst = max(abs(psi.norm() - 1.0) for _, psi in walk.iter_evolution(run))
    return worst, f"max |norm-1| over n<={n}"


def _coin_with_l2(abs_l2: float, phase1: float, phase2: float) -> Coin:
    l1, l2 = cmath.rect(math.sqrt(1.0 - abs_l2 * abs_l2), phase1), cmath.rect(abs_l2, phase2)
    return Coin(l1, l2, -l2.conjugate(), l1.conjugate())


def _oracle_equivalence(rng, n):
    coins = [hadamard_switched()] + [random_coin(rng) for _ in range(10)]
    # coins random_coin never draws: l2 = 0, |l2| where rho^2 overflows, just
    # below DEGENERATE_TOL, and one log-uniform |l2| per two decades of [1e-16, 1e-2)
    scales = [0.0, 1e-200, 9e-9] + [10.0 ** rng.uniform(e, e + 2) for e in range(-16, -2, 2)]
    coins += [_coin_with_l2(a, *rng.uniform(-math.pi, math.pi, size=2)) for a in scales]
    psi0 = WaveFunction.qubit(0.0, 1.0)
    worst = 0.0
    for coin in coins:
        a = walk.evolve(walk.WalkRun(coin, psi0, n))
        b = walk.fourier_evolve(psi0, coin, n)
        worst = max(worst, walk.sup_norm_difference(a, b))
    return worst, f"position vs momentum route, {len(coins)} coins, n={n}"


def _step_loop_equivalence(rng, n):
    # the buffer loop of evolve/iter_evolution against the defining step map,
    # bit for bit, on the coins and states where trimming does the most:
    # l1 = 0, l2 = 0, |l2| below DEGENERATE_TOL, zero gaps in the state, and
    # fringes below TRIM_TOL that a step loop drops and must never see again
    coins = [random_coin(rng) for _ in range(4)] + [
        normalize_phase(np.array([[0.0, 1.0], [-1.0, 0.0]])),
        Coin(1.0, 0.0, 0.0, 1.0),
        _coin_with_l2(1e-9, 0.4, 1.3),
    ]
    states = [
        WaveFunction.qubit(0.6, -0.8j),
        WaveFunction.from_sites([(-3, (1e-17, 1e-17j)), (0, (0.6, 0.8)), (3, (-1e-17, 1e-17))]),
    ]
    for gaps in ([1], [1, 2, 4]):
        amps = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        amps[gaps] = 0.0
        states.append(WaveFunction(int(rng.integers(-5, 6)), amps / np.linalg.norm(amps)))
    differing = 0
    for coin in coins:
        for psi0 in states:
            run = walk.WalkRun(coin, psi0, n)
            psi = psi0
            for i, fast in walk.iter_evolution(run):
                if i:
                    psi = walk.step(psi, coin)
                differing += not _same_bits(fast, psi)
            differing += not _same_bits(walk.evolve(run), psi)
    cases = len(coins) * len(states)
    return float(differing), f"{cases} runs of n={n}: states differing from a step loop"


def _same_bits(a: WaveFunction, b: WaveFunction) -> bool:
    return (a.x_min, a.width, a.amplitudes.tobytes()) == (b.x_min, b.width, b.amplitudes.tobytes())


def _light_cone_and_parity(rng, n):
    coin = random_coin(rng)
    psi0 = WaveFunction.qubit(0.6, -0.8j, site=3)
    psi = walk.evolve(walk.WalkRun(coin, psi0, n))
    p = position_distribution(psi)
    cone = 0.0 if psi.x_min >= 3 - n and psi.x_max <= 3 + n else 1.0
    wrong_parity = p[(psi.sites + 3 + n) % 2 == 1]
    residual = max(cone, float(wrong_parity.max(initial=0.0)))
    return residual, "support within cone; odd class empty"


def _superposition(rng, n):
    coin = hadamard_switched()
    p1, p2, p3, p4 = walk._union_window(
        [walk.evolve(walk.WalkRun(coin, _figure_state(f"fig3.{i}"), n)) for i in range(1, 5)]
    )
    mixture = 0.5 * (p1 + p2)
    gap_mix = float(np.abs(p3 - mixture).max())
    gap_34 = float(np.abs(p3 - p4).max())
    return (
        min(gap_mix, gap_34),
        f"n={n}: |fig3.3-mean(3.1,3.2)|={gap_mix:.4g}, |fig3.3-fig3.4|={gap_34:.4g}",
        {"n": n, "fig33_vs_mixture": gap_mix, "fig33_vs_fig34": gap_34},
    )


# --------------------------------------------------------------------------
# spectral
# --------------------------------------------------------------------------


def _spectral_identities(rng, size):
    random_coins, node_indices = size
    coins = [hadamard_switched()] + [random_coin(rng) for _ in range(random_coins)]
    grid = MomentumGrid(1024)
    idx = np.asarray(node_indices)
    worst_unit = 0.0
    worst = 0.0
    for coin in coins:
        H_all, h, g = spectral.hamiltonian(grid.nodes, coin)
        worst_unit = max(worst_unit, np.abs(np.linalg.norm(h, axis=-1) - 1.0).max())
        floor = math.acos(coin.abs_l1)
        range_defect = max(0.0, g.max() - (math.pi - floor), floor - g.min())

        k, gk, H = grid.nodes[idx], g[idx], H_all[idx]
        w, V = np.linalg.eigh(H)
        exp_h = np.einsum("mij,mj,mkj->mik", V, np.exp(1j * w), V.conj())
        U = np.stack([spectral.build_U_of_k(x, coin) for x in k])
        bank = spectral.propagator_bank(k, 1.0, coin)
        S = spectral.unitary_S(k - coin.theta1, coin)
        conj_form = np.einsum("mij,mj,mkj->mik", S, np.stack([gk, -gk], axis=-1), S.conj())
        worst = max(
            worst,
            range_defect,
            np.abs(w).max() - (math.pi - floor),
            np.abs(exp_h - U).max(),
            np.abs(bank - U).max(),
            np.abs(H - np.swapaxes(H, 1, 2).conj()).max(),
            np.abs(conj_form - H).max(),
        )
    return (
        max(worst, worst_unit),
        f"{len(coins)} coins x {idx.size} nodes: exp(iH)=U, |h|-1<={worst_unit:.1e}",
    )


def _s_inverse_closed_form(rng, size):
    worst = 0.0
    coins = [hadamard_switched(), random_coin(rng), random_coin(rng)]
    for coin in coins:
        a1 = coin.abs_l1
        for frac in (-0.9, -0.5, 0.0, 0.5, 0.9):
            inv = spectral.s_inverse_closed_form(frac * a1, coin)
            c1 = spectral.stationary_angle(frac * a1, a1)
            c2 = math.pi - c1
            for M, arg in ((inv.at_c1, c1), (inv.at_c2, c2), (inv.at_neg_c1, -c1), (inv.at_neg_c2, -c2)):
                numeric = np.linalg.inv(spectral.eigenvector_matrix(arg, coin))
                worst = max(worst, np.abs(M - numeric).max())
    return worst, "four stationary points, y<0 included"


def _axis_fault_injection(rng, nodes):
    # the generator axis with cos(kappa) substituted for sin(kappa) inside
    # h2's normaliser; the unit-norm identity must expose it
    coin = hadamard_switched()
    kappa = MomentumGrid(nodes).nodes
    rho = coin.abs_l1 / coin.abs_l2
    phi = kappa + coin.theta1 - coin.theta2
    den_sin = np.sqrt(1.0 + (rho * np.sin(kappa)) ** 2)
    den_cos = np.sqrt(1.0 + (rho * np.cos(kappa)) ** 2)
    bad = np.stack(
        [-np.sin(phi) / den_sin, np.cos(phi) / den_cos, -rho * np.sin(kappa) / den_sin], axis=-1
    )
    defect = np.abs(np.linalg.norm(bad, axis=-1) - 1.0).max()
    return defect, "cos-denominator variant must break |h|=1"


def _aliasing_guard(rng, size):
    psi = WaveFunction(0, np.full((21, 2), 0.1 + 0.1j))
    try:
        fourier_transform(psi, MomentumGrid(10))
    except AliasingError:
        return 0.0, "AliasingError raised as required"
    return 1.0, "no error raised"


# --------------------------------------------------------------------------
# continuous time
# --------------------------------------------------------------------------


def _integer_time_consistency(rng, steps):
    coin = hadamard_switched()
    worst = 0.0
    for psi0 in (WaveFunction.qubit(0.0, 1.0), _figure_state("fig3.3")):
        for n in steps:
            a = continuous.evolve_continuous(psi0, float(n), coin)
            b = walk.evolve(walk.WalkRun(coin, psi0, n))
            worst = max(worst, walk.sup_norm_difference(a, b))
    return worst, f"t=n for n in {steps}"


def _group_law(rng, size):
    coin = random_coin(rng)
    psi0 = WaveFunction.qubit(1.0, 0.0)
    grid = MomentumGrid.for_walk(psi0, 6)
    a = continuous.evolve_continuous(
        continuous.evolve_continuous(psi0, 0.7, coin, grid), 1.6, coin, grid
    )
    b = continuous.evolve_continuous(psi0, 2.3, coin, grid)
    return walk.sup_norm_difference(a, b), ""


def _continuous_norm_drift(rng, t):
    psi_t = continuous.evolve_continuous(_figure_state("fig3.4"), t, hadamard_switched())
    return abs(psi_t.norm() - 1.0), f"|norm-1| at t={t:g}"


def _schrodinger_residual(rng, size):
    coin = hadamard_switched()
    psi0 = WaveFunction.qubit(0.6, 0.8j)
    grid = MomentumGrid.for_walk(psi0, 3)

    def residual(delta: float) -> float:
        times = [2.0 - delta, 2.0, 2.0 + delta]
        series = [(t, continuous.evolve_continuous(psi0, t, coin, grid)) for t in times]
        return continuous.schrodinger_residual(series, coin, grid)

    r1, r2 = residual(1e-3), residual(5e-4)
    ratio = r1 / r2 if r2 > 0 else float("inf")
    order_ok = 0.0 if 3.0 < ratio < 5.0 else 1.0
    residual_ok = 0.0 if r1 < 1e-5 else r1
    return (
        max(order_ok, residual_ok),
        f"residual(1e-3)={r1:.3e}, halving ratio={ratio:.2f}",
    )


# --------------------------------------------------------------------------
# limit law
# --------------------------------------------------------------------------


def _limit_test_states() -> list[WaveFunction]:
    return [
        WaveFunction.qubit(1.0, 0.0),
        WaveFunction.qubit(0.0, 1.0),
        WaveFunction.qubit(S2, 1j * S2),
        WaveFunction.from_sites([(-3, (0.5, 0.2j)), (2, (0.1, math.sqrt(0.7)))]),
    ]


def _two_route_agreement(rng, size):
    coins = [hadamard_switched(), random_coin(rng), random_coin(rng)]
    worst = 0.0
    for coin in coins:
        for psi0 in _limit_test_states():
            for frac in (-0.8, -0.3, 0.0, 0.45, 0.9):
                y = frac * coin.abs_l1
                closed = np.asarray(limitlaw.lm_values(y, coin, psi0))
                numeric = np.asarray(limitlaw.lm_values_numeric(y, coin, psi0))
                worst = max(worst, np.abs(closed - numeric).max())
    return worst, "closed forms vs eigenvector route"


def _localized_closed_form(rng, size):
    coins = [hadamard_switched()] + [random_coin(rng) for _ in range(4)]
    qubits = [(1, 0), (0, 1), (S2, 1j * S2), (0.6, 0.8j), (S2, -S2)]
    worst = 0.0
    for coin in coins:
        ys = np.linspace(-0.98, 0.98, 200) * coin.abs_l1
        for a, b in qubits:
            psi0 = WaveFunction.qubit(a, b)
            general = limitlaw.density(ys, coin, psi0)
            closed = limitlaw.density_localized(ys, coin, psi0)
            worst = max(worst, np.abs(general - closed).max())
    return worst, "5 coins x 5 qubits, 200 samples"


def _density_mass(rng, size):
    coins = [hadamard_switched(), random_coin(rng)]
    worst = 0.0
    for coin in coins:
        for psi0 in _limit_test_states():
            law = limitlaw.weak_limit_law(coin, psi0)
            worst = max(worst, abs(law.mass() - 1.0))
    return worst, "every computed density integrates to 1"


def _point_mass_laws(rng, n):
    shift = Coin(1.0, 0.0, 0.0, 1.0)
    psi0 = WaveFunction.from_sites(
        [(-2, (math.sqrt(1 / 3), 0.0)), (5, (0.0, math.sqrt(2 / 3)))]
    )
    law = limitlaw.point_mass_law(shift, psi0)
    final = walk.evolve(walk.WalkRun(shift, psi0, n))
    left_mass = float(position_distribution(final)[final.sites < 0].sum())
    worst = max(
        abs(law.atoms[0] + 1.0),
        abs(law.atoms[1] - 1.0),
        abs(law.weights[0] - 1 / 3),
        abs(law.weights[1] - 2 / 3),
        abs(left_mass - 1 / 3),
    )

    flip = normalize_phase(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    frozen = limitlaw.point_mass_law(flip, WaveFunction.qubit(0.6, 0.8))
    worst = max(worst, abs(frozen.atoms[0]), abs(frozen.weights[0] - 1.0))
    final0 = walk.evolve(walk.WalkRun(flip, WaveFunction.qubit(0.6, 0.8), n))
    spread = float(np.abs(final0.sites[position_distribution(final0) > 1e-30]).max()) / n
    worst = max(worst, 0.0 if spread <= 1.0 / n else spread)
    return worst, f"ballistic atoms at -1, 1 and the frozen law, n={n}"


# the labels key the KS values pinned in the acceptance oracle data
_KS_QUBITS = {"1,0": (1.0, 0.0), "0,1": (0.0, 1.0), "s,is": (S2, 1j * S2)}


def _ks_convergence(rng, ns):
    coin = hadamard_switched()
    values = {}
    for label, (a, b) in _KS_QUBITS.items():
        psi0 = WaveFunction.qubit(a, b)
        law = limitlaw.weak_limit_law(coin, psi0)
        values[label] = {
            str(n): walk.ks_distance(walk.empirical_scaled_law(walk.WalkRun(coin, psi0, n)), law)
            for n in ns
        }
    rows = [list(row.values()) for row in values.values()]
    monotone = all(u > v for row in rows for u, v in zip(row, row[1:]))
    # quick mode stops at n=250, where the distance is naturally larger, so
    # its bound is looser; the 0.05 bound is pinned at n=2000
    residual = max(row[-1] for row in rows) if monotone else 1.0
    detail = "; ".join("->".join(f"{v:.4f}" for v in row) for row in rows)
    return residual, detail, values


def _beta0_symmetry(rng, size):
    coin = hadamard_switched()
    psi0 = WaveFunction.qubit(S2, 1j * S2)
    ys = np.linspace(0.0, 0.95, 50) * coin.abs_l1
    gap = np.abs(limitlaw.density(ys, coin, psi0) - limitlaw.density(-ys, coin, psi0)).max()
    return gap, "rho(y) = rho(-y) when beta = 0"


# --------------------------------------------------------------------------
# semigroup
# --------------------------------------------------------------------------


def _flow_vs_conjugation(rng, stride):
    coin = hadamard_switched()
    grid = MomentumGrid(256)
    k, coeffs = semigroup.random_hermitian_sample(grid, rng, stride)
    worst = max(semigroup.flow_vs_conjugation_residual(k, coeffs, t, coin) for t in (0.1, 1.0, 7.3))
    return worst, f"t in {{0.1, 1, 7.3}}, {len(k)} of 256 nodes"


def _identity_fixed_point(rng, size):
    coin = hadamard_switched()
    grid = MomentumGrid(256)
    ident = semigroup.DirectIntegralObservable.constant(grid, np.eye(2))
    residual = 0.0
    for t in (3.7, 5.5):
        evolved = semigroup.heisenberg_evolve(ident, t, coin)
        residual = max(residual, np.abs(evolved.coefficients - ident.coefficients).max())
    return residual, "V_t(I) = I at coefficient level"


def _semigroup_law(rng, size):
    worst = 0.0
    for coin in (hadamard_switched(), random_coin(rng)):
        for k in MomentumGrid(16).nodes:
            r_s = semigroup.pauli_flow(k, 0.6, coin)
            r_t = semigroup.pauli_flow(k, 1.9, coin)
            r_st = semigroup.pauli_flow(k, 2.5, coin)
            worst = max(worst, np.abs(r_s @ r_t - r_st).max())
    return worst, "R(s)R(t) = R(s+t)"


def _cross_generator(rng, size):
    worst = 0.0
    for coin in (hadamard_switched(), random_coin(rng)):
        for k in MomentumGrid(256).nodes:
            G = semigroup.cross_generator(k, coin)
            g, h = spectral.dispersion(k, coin)
            anti = np.abs(G + G.T).max()
            eigs = np.sort(np.linalg.eigvals(G).imag)
            eig_defect = np.abs(eigs - np.array([-2 * g, 0.0, 2 * g])).max()
            kernel = np.abs(G @ h).max()
            worst = max(worst, anti, eig_defect, kernel)
    return worst, "antisymmetry, eigenvalues 0/±2i*gamma, kernel h"


def _rotation_properties(rng, size):
    coin = hadamard_switched()
    worst = 0.0
    for k in (-2.1, 0.4, 2.9):
        g, h = spectral.dispersion(k, coin)
        G = semigroup.cross_generator(k, coin)
        for t in (0.3, 1.0, 4.2):
            R = semigroup.pauli_flow(k, t, coin)
            worst = max(worst, np.abs(R.T @ R - np.eye(3)).max())
            worst = max(worst, abs(np.linalg.det(R) - 1.0))
            worst = max(worst, np.abs(R @ h - h).max())
            worst = max(worst, abs(np.trace(R) - (1.0 + 2.0 * math.cos(2 * g * t))))
            eig_route, _ = semigroup.rotation_via_eigenbasis(G, t)
            worst = max(worst, np.abs(R - eig_route).max())
        period = semigroup.pauli_flow(k, math.pi / g, coin)
        worst = max(worst, np.abs(period - np.eye(3)).max())
    return worst, "orthogonal, det 1, axis fixed, period pi/gamma"


def _psd_and_spectra(rng, size):
    coin = hadamard_switched()
    grid = MomentumGrid(128)
    report = semigroup.positivity_check(grid, 2.3, coin, semigroup.random_psd_fibres(grid, rng))
    worst = 0.0 if report["passed"] else 1.0

    fibres = semigroup.random_hermitian_fibres(grid, rng)
    herm = semigroup.DirectIntegralObservable.from_fibres(grid, fibres)
    before = np.sort(np.linalg.eigvalsh(herm.matrices()), axis=1)
    after = np.sort(np.linalg.eigvalsh(semigroup.heisenberg_evolve(herm, 1.4, coin).matrices()), axis=1)
    worst = max(worst, float(np.abs(before - after).max()))
    return worst, "PSD preserved; spectra invariant"


# --------------------------------------------------------------------------

CHECKS: tuple[Check, ...] = (
    Check("coin_row_relations", _coin_relations, 1e-12, full=25),
    Check("coin_phase_invariance", _phase_invariance, 1e-12, full=5),
    Check("fourier_round_trip", _fourier_round_trip, 1e-12, full=5),
    Check("pauli_round_trip", _pauli_round_trip, 1e-14, full=25),
    Check("norm_conservation", _norm_conservation, 1e-10, full=10_000, quick=500, criterion=8),
    Check(
        "discrete_oracle_equivalence", _oracle_equivalence, 1e-9,
        full=2000, quick=200, criterion=1,
    ),
    Check("light_cone_and_parity", _light_cone_and_parity, 0.0, full=41),
    Check(
        "superposition_not_mixture", _superposition, 1e-3,
        full=1000, quick=200, criterion=9, larger_is_better=True,
    ),
    Check(
        "spectral_identities", _spectral_identities, 1e-13,
        full=(9, range(1024)), quick=(3, (0, 257, 513, 1023)), criterion=6,
    ),
    Check("s_inverse_closed_form", _s_inverse_closed_form, 1e-10),
    Check(
        "fault_wrong_axis_normaliser", _axis_fault_injection, 1e-3,
        full=256, larger_is_better=True,
    ),
    Check("fault_undersized_grid", _aliasing_guard, 0.5),
    Check(
        "integer_time_consistency", _integer_time_consistency, 1e-9,
        full=(1, 10, 100), quick=(1, 10), criterion=2,
    ),
    Check("continuous_group_law", _group_law, 1e-9),
    Check("continuous_norm_drift", _continuous_norm_drift, 1e-9, full=1000.0, quick=50.0),
    Check("schrodinger_residual", _schrodinger_residual, 1e-5),
    Check("lm_two_route_agreement", _two_route_agreement, 1e-10),
    Check("localized_closed_form", _localized_closed_form, 1e-10, criterion=4),
    Check("density_mass", _density_mass, limitlaw.MASS_TOL, criterion=8),
    Check("point_mass_laws", _point_mass_laws, 1e-14, full=1000, criterion=5),
    Check(
        "ks_convergence", _ks_convergence, 0.05,
        full=(250, 500, 1000, 2000), quick=(100, 250), criterion=3, quick_tolerance=0.15,
    ),
    Check("beta0_symmetry", _beta0_symmetry, 1e-12),
    Check("flow_vs_conjugation", _flow_vs_conjugation, 1e-11, full=1, quick=16, criterion=7),
    Check("identity_fixed_point", _identity_fixed_point, 0.0, criterion=7),
    Check("semigroup_law", _semigroup_law, 1e-11, criterion=7),
    Check("cross_generator", _cross_generator, 1e-12, criterion=7),
    Check("rotation_properties", _rotation_properties, 1e-12),
    Check("positivity_and_spectrum", _psd_and_spectra, 1e-11),
    Check("step_loop_equivalence", _step_loop_equivalence, 0.0, full=300, quick=40),
)


def run_verification(seed: int = 0, quick: bool = False) -> list[CheckResult]:
    """Run every registry check at the given seed; returns one result per check."""
    return [check.run(seed, quick) for check in CHECKS]
