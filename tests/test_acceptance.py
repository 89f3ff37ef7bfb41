"""Acceptance gate: every analytic identity at its pinned tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them all)
and asserts both the tolerance and the runtime budget.  The heavy suites run
once per session through fixtures; per-check runtimes come from the reports.
"""
import time

import pytest

from halfspace_qed.verification import run_suite

BUDGETS_S = {
    "fresnel_identities": 1.0,
    "mode_matching": 10.0,
    "residue_vs_quadrature": 120.0,
    "generalized_delta": 180.0,
    "gauge_difference": 120.0,
    "true_coulomb": 120.0,
    "poisson_jump": 1.0,
    "curl_annihilation": 60.0,
    "energy_ratio": 180.0,
    "perfect_reflector": 120.0,
}


@pytest.fixture(scope="module")
def fresnel_reports():
    t0 = time.perf_counter()
    reports = run_suite("fresnel")
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def modes_reports():
    t0 = time.perf_counter()
    reports = run_suite("modes")
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def kernels_reports():
    return run_suite("kernels")


@pytest.fixture(scope="module")
def energy_reports():
    t0 = time.perf_counter()
    reports = run_suite("energy")
    return reports, time.perf_counter() - t0


def _named(reports, name):
    picked = [r for r in reports if r.check_name == name]
    assert picked, f"no reports named {name}"
    return picked


def _verdict(criterion, reports, elapsed_s, budget_s):
    ok = all(r.passed for r in reports) and elapsed_s < budget_s
    worst = max((r.abs_err if r.params.get("mode") == "abs" else r.rel_err) for r in reports)
    print(
        f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} "
        f"(worst err {worst:.3e}, {len(reports)} checks, {elapsed_s:.2f}s / budget {budget_s:.0f}s)"
    )
    return ok


def test_criterion_1_fresnel_identities(fresnel_reports):
    reports, elapsed = fresnel_reports
    for r in reports:
        assert r.tol == 1e-12
    assert _verdict("fresnel_identities", reports, elapsed, BUDGETS_S["fresnel_identities"])


def test_criterion_2_mode_matching(modes_reports):
    reports, elapsed = modes_reports
    matching = [r for r in reports if "continuity" in r.check_name]
    fd = [r for r in reports if r.check_name.endswith("_fd")]
    assert all(r.tol == 1e-10 for r in matching)
    assert all(r.tol == 1e-6 for r in fd)
    assert _verdict("mode_matching", reports, elapsed, BUDGETS_S["mode_matching"])


def test_criterion_3_residue_vs_quadrature(kernels_reports):
    quad = _named(kernels_reports, "kz_integral_vs_residue")
    te = _named(kernels_reports, "te_kernel_suppression")
    assert sorted(r.params["n"] for r in quad) == [1.5, 2.0, 4.0]
    assert all(r.params["points"] >= 50 for r in quad)
    assert all(r.tol == 1e-6 for r in quad)
    assert all(r.tol == 1e-8 for r in te)
    elapsed = sum(r.runtime_ms for r in quad + te) / 1e3
    assert _verdict("residue_vs_quadrature", quad + te, elapsed,
                    BUDGETS_S["residue_vs_quadrature"])


def test_criterion_4_generalized_delta(kernels_reports):
    reports = _named(kernels_reports, "generalized_delta_closed_form")
    assert sorted(r.params["n"] for r in reports) == [1.5, 2.0, 4.0]
    assert sum(r.params["pairs"] for r in reports) >= 20
    assert all(r.tol == 1e-4 for r in reports)
    elapsed = sum(r.runtime_ms for r in reports) / 1e3
    assert _verdict("generalized_delta", reports, elapsed, BUDGETS_S["generalized_delta"])


def test_criterion_5_gauge_difference(kernels_reports):
    reports = _named(kernels_reports, "gauge_difference_closed_form")
    assert sorted(r.params["n"] for r in reports) == [1.5, 2.0, 4.0]
    assert all(r.tol == 1e-4 for r in reports)
    elapsed = sum(r.runtime_ms for r in reports) / 1e3
    assert _verdict("gauge_difference", reports, elapsed, BUDGETS_S["gauge_difference"])


def test_criterion_6_true_coulomb(kernels_reports):
    reports = _named(kernels_reports, "true_coulomb_free_space_form")
    reports += _named(kernels_reports, "true_coulomb_n_independence")
    assert all(r.tol == 1e-4 for r in reports)
    elapsed = sum(r.runtime_ms for r in reports) / 1e3
    assert _verdict("true_coulomb", reports, elapsed, BUDGETS_S["true_coulomb"])


def test_criterion_7_poisson_jump(kernels_reports):
    reports = _named(kernels_reports, "poisson_jump_identity")
    assert all(r.tol == 1e-12 for r in reports)
    assert all(r.params["modes"] >= 20 for r in reports)
    elapsed = sum(r.runtime_ms for r in reports) / 1e3
    assert _verdict("poisson_jump", reports, elapsed, BUDGETS_S["poisson_jump"])


def test_criterion_8_curl_annihilation(kernels_reports):
    reports = _named(kernels_reports, "gauge_difference_curl_annihilation")
    reports += _named(kernels_reports, "physical_commutator_gauge_independence")
    assert all(r.tol == 1e-6 for r in reports)
    assert all(r.params["pairs"] >= 10 for r in reports)
    elapsed = sum(r.runtime_ms for r in reports) / 1e3
    assert _verdict("curl_annihilation", reports, elapsed, BUDGETS_S["curl_annihilation"])


def test_criterion_9_energy_ratio(energy_reports):
    reports, elapsed = energy_reports
    ratios = _named(reports, "electrostatic_shift_ratio")
    assert sorted({r.params["n"] for r in ratios}) == [1.5, 2.0, 4.0]
    assert sorted({r.params["z0"] for r in ratios}) == [0.5, 1.0, 2.0]
    assert all(r.tol == 1e-4 for r in ratios)
    reference = _named(reports, "shift_ratio_n2_reference")
    assert all(r.rhs == 0.375 for r in reference)
    _named(reports, "gauge_invariance_energy_sum")
    _named(reports, "double_commutator_cnumber")
    assert _verdict("energy_ratio", reports, elapsed, BUDGETS_S["energy_ratio"])


def test_criterion_10_perfect_reflector(kernels_reports):
    reports = _named(kernels_reports, "perfect_reflector_slope")
    assert all(r.rhs == -2.0 and r.tol == 0.2 for r in reports)
    elapsed = sum(r.runtime_ms for r in reports) / 1e3
    assert _verdict("perfect_reflector", reports, elapsed, BUDGETS_S["perfect_reflector"])


def test_fault_table_names_every_verify_family_once(fresnel_reports, modes_reports,
                                                    kernels_reports, energy_reports):
    from test_fault_injection import FAMILIES  # the families of the fault matrix

    reports = fresnel_reports[0] + modes_reports[0] + kernels_reports + energy_reports[0]
    assert sorted({r.check_name for r in reports}) == FAMILIES
