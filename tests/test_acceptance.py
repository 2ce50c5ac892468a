"""Acceptance suite: one test per exit criterion, one pass/fail line each.

Runs the desk-scale default configuration (24 modes at N_max = 1 for the
sweep checks, 4 modes at N_max = 3 for the property suites, couplings
e in {0, 0.05, 0.1} at gamma = 0.5, m_ph = 0.5, M = 1, Lambda = 1 across an
11-point momentum ladder).  Every tolerance is a constant in code
(``verify``, ``bounds.SANDWICH_TOL``, ``spectral.CLUSTER_TOL``), which no
configuration sets; the same check implementations back ``pffiber verify``.
"""

import sys

import pytest

from pffiber.config import default_config
from pffiber import verify as vf


@pytest.fixture(scope="module")
def ctx():
    return vf.VerifyContext(default_config())


def _run(ctx, check, label):
    result = check(ctx)
    # write through the unbuffered stream so the line shows without -s
    sys.__stdout__.write(f"\nACCEPTANCE {label}: {result.line()}\n")
    assert result.passed, f"{label} failed: {result.detail}"
    return result


def test_criterion_01_free_theory_oracle(ctx):
    _run(ctx, vf.check_free_oracle, "01 free-theory oracle")


def test_criterion_02_clifford_and_pauli_identities(ctx):
    _run(ctx, vf.check_clifford_square, "02 Clifford square")
    _run(ctx, vf.check_pauli_identity, "02 Pauli expansion")


def test_criterion_03_square_root_cross_validation(ctx):
    _run(ctx, vf.check_sqrt_crossval, "03 square-root cross-validation")


def test_criterion_04_kramers_degeneracy(ctx):
    _run(ctx, vf.check_kramers, "04 Kramers degeneracy")


def test_criterion_05_operator_sandwich(ctx):
    _run(ctx, vf.check_sandwich, "05 operator sandwich")


def test_criterion_06_minmax_counting(ctx):
    _run(ctx, vf.check_counting, "06 min-max counting")


def test_criterion_07_gap_uniformity(ctx):
    _run(ctx, vf.check_gap_uniformity, "07 gap uniformity")


def test_criterion_08_gap_function_bounds(ctx):
    _run(ctx, vf.check_delta_bounds, "08 gap function bounds")


def test_criterion_09_corollary_envelope(ctx):
    _run(ctx, vf.check_envelope, "09 corollary envelope")


def test_criterion_10_property_suites(ctx):
    _run(ctx, vf.check_coupling_estimates, "10 coupling estimates")
    _run(ctx, vf.check_monotonicity, "10 operator monotonicity")
    _run(ctx, vf.check_interaction_trend, "10 interaction norm trend")


def test_criterion_11_symmetry_and_negative_controls(ctx):
    _run(ctx, vf.check_parity, "11 parity symmetry")
    _run(ctx, vf.check_negative_controls, "11 negative controls")


def test_supporting_invariants(ctx):
    _run(ctx, vf.check_reality_structure, "inv reality structure")
    _run(ctx, vf.check_spin_difference_bounds, "inv spinless chain")
    _run(ctx, vf.check_quadrature_consistency, "inv quadrature weights")
    _run(ctx, vf.check_delta_monotone, "inv gap monotonicity")
    _run(ctx, vf.check_lipschitz, "inv Lipschitz property")
    _run(ctx, vf.report_cache_identity, "inv cache determinism")
