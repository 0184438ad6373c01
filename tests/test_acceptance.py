"""Acceptance suite: the package's exit criteria are ``coinwalk verify`` checks.

The registry runs once, in full mode at seed 0 (the session fixture
``full_verify``, whose report is also a golden output).  Each criterion test
reads the results of the checks that serve that criterion, requires their
summed wall time to be within the criterion's limit, and prints one
``ACCEPTANCE <n> PASS|FAIL`` line (visible with ``pytest -s``).  Criteria 3
and 9 also compare the checks' measurements with thresholds pinned by the
first oracle run in ``tests/data/oracle_values.json``.  The checks that serve
no criterion are read in :func:`test_check_without_criterion`.
"""

import json
from pathlib import Path

import pytest

from coinwalk.verify import CHECKS

ORACLE = json.loads(
    (Path(__file__).resolve().parent / "data" / "oracle_values.json").read_text()
)

# the checks `coinwalk verify` prints, in order, each with its tolerance, and
# (tolerance, quick_tolerance) where a quick-mode tolerance is set; a changed
# tolerance fails test_registry_integrity until this table says so
VERIFY_TOLERANCES = {
    "coin_row_relations": 1e-12,
    "coin_phase_invariance": 1e-12,
    "fourier_round_trip": 1e-12,
    "pauli_round_trip": 1e-14,
    "norm_conservation": 1e-10,
    "discrete_oracle_equivalence": 1e-9,
    "light_cone_and_parity": 0.0,
    "superposition_not_mixture": 1e-3,
    "spectral_identities": 1e-13,
    "s_inverse_closed_form": 1e-10,
    "fault_wrong_axis_normaliser": 1e-3,
    "fault_undersized_grid": 0.5,
    "integer_time_consistency": 1e-9,
    "continuous_group_law": 1e-9,
    "continuous_norm_drift": 1e-9,
    "schrodinger_residual": 1e-5,
    "lm_two_route_agreement": 1e-10,
    "localized_closed_form": 1e-10,
    "density_mass": 1e-6,
    "point_mass_laws": 1e-14,
    "ks_convergence": (0.05, 0.15),
    "beta0_symmetry": 1e-12,
    "flow_vs_conjugation": 1e-11,
    "identity_fixed_point": 0.0,
    "semigroup_law": 1e-11,
    "cross_generator": 1e-12,
    "rotation_properties": 1e-12,
    "positivity_and_spectrum": 1e-11,
    "step_loop_equivalence": 0.0,
}

# criterion -> (title, wall-time limit in seconds or None)
CRITERIA = {
    1: ("discrete oracle equivalence", 10.0),
    2: ("integer-time consistency", 30.0),
    3: ("limit-law convergence", 120.0),
    4: ("localized closed form", 5.0),
    5: ("degenerate point-mass laws", 5.0),
    6: ("generator correctness", 2.0),
    7: ("semigroup characterisation", 5.0),
    8: ("normalization", None),
    9: ("superposition is not mixture", 60.0),
}


def ks_oracle_drift(results):
    (ks,) = results
    drift = [
        abs(value - ORACLE["ks"][label][n])
        for label, row in ks.values.items()
        for n, value in row.items()
    ]
    passed = len(drift) == 12 and max(drift) < 1e-9 and ks.tolerance == ORACLE["ks_bound"]
    return passed, f"drift of {len(drift)} KS values from recorded oracle {max(drift):.1e}"


def superposition_thresholds(results):
    (gaps,) = results
    pinned = ORACLE["superposition"]
    keys = ("fig33_vs_mixture", "fig33_vs_fig34")
    passed = gaps.values["n"] == pinned["n"] and all(
        gaps.values[key] > pinned[key + "_threshold"] for key in keys
    )
    thresholds = ", ".join(f"{key} > {pinned[key + '_threshold']:.4f}" for key in keys)
    return passed, f"pinned thresholds {thresholds}"


ORACLE_COMPARISONS = {3: ks_oracle_drift, 9: superposition_thresholds}


def accept(number, full_verify):
    title, limit = CRITERIA[number]
    results = [r for check, r in zip(CHECKS, full_verify) if check.criterion == number]
    elapsed = sum(r.seconds for r in results)
    passed = all(r.passed for r in results) and (limit is None or elapsed < limit)
    details = [f"{r.name} {r.residual:.3e} (tol {r.tolerance:.1e}) {r.detail}" for r in results]
    if number in ORACLE_COMPARISONS:
        oracle_passed, oracle_detail = ORACLE_COMPARISONS[number](results)
        passed = passed and oracle_passed
        details.append(oracle_detail)
    limit_text = "no limit" if limit is None else f"limit {limit:g}s"
    detail = f"{'; '.join(details)}; {elapsed:.1f}s ({limit_text})"
    print(f"ACCEPTANCE {number:>2} {'PASS' if passed else 'FAIL'} {title}: {detail}")
    assert passed, f"criterion {number} ({title}): {detail}"


def test_criterion_1_discrete_oracle_equivalence(full_verify):
    accept(1, full_verify)


def test_criterion_2_integer_time_consistency(full_verify):
    accept(2, full_verify)


def test_criterion_3_limit_law_convergence(full_verify):
    accept(3, full_verify)


def test_criterion_4_localized_closed_form(full_verify):
    accept(4, full_verify)


def test_criterion_5_degenerate_laws(full_verify):
    accept(5, full_verify)


def test_criterion_6_generator_correctness(full_verify):
    accept(6, full_verify)


def test_criterion_7_semigroup(full_verify):
    accept(7, full_verify)


def test_criterion_8_normalization(full_verify):
    accept(8, full_verify)


def test_criterion_9_superposition_gaps(full_verify):
    accept(9, full_verify)


@pytest.mark.parametrize(
    "check", [c for c in CHECKS if c.criterion is None], ids=lambda c: c.name
)
def test_check_without_criterion(check, full_verify):
    r = full_verify[CHECKS.index(check)]
    assert r.passed, f"residual {r.residual:.3e}, tolerance {r.tolerance:.1e}, {r.detail}"


def test_registry_integrity():
    names = [c.name for c in CHECKS]
    assert len(set(names)) == len(names)
    assert names == list(VERIFY_TOLERANCES)
    tolerances = {
        c.name: c.tolerance if c.quick_tolerance is None else (c.tolerance, c.quick_tolerance)
        for c in CHECKS
    }
    assert tolerances == VERIFY_TOLERANCES
    assert {c.criterion for c in CHECKS} == set(CRITERIA) | {None}
