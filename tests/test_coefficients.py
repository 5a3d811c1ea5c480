import json

import numpy as np
import pytest

from lpwave.coefficients import (builtin_family, check_ellipticity,
                                 check_finite_degeneration, check_levi,
                                 check_order_condition,
                                 check_weak_hyperbolicity,
                                 constant_coefficients, flat_alpha,
                                 run_all_checks)
from lpwave.errors import ConfigurationError, UnknownFamilyError


def zero_field(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def test_package_attribute_is_the_submodule():
    import sys

    import lpwave
    assert lpwave.coefficients is sys.modules["lpwave.coefficients"]


def test_unknown_family():
    with pytest.raises(UnknownFamilyError):
        builtin_family("cubic_spline")


def test_builtin_parameter_validation():
    with pytest.raises(ConfigurationError):
        builtin_family("monomial", k=0)
    with pytest.raises(ConfigurationError):
        builtin_family("interior_zero", k=3)  # needs even k
    with pytest.raises(ConfigurationError):
        builtin_family("monomial", gamma=-0.1)


def test_all_builtins_pass_when_order_condition_holds():
    for name, k, gamma in (("monomial", 2, 0.0), ("monomial", 4, 0.3),
                           ("interior_zero", 2, 0.0),
                           ("nondegenerate", 1, 0.0)):
        cs = builtin_family(name, k=k, gamma=gamma)
        for report in run_all_checks(cs):
            assert report.verdict, (name, report.condition_id, report.margin)


def test_weak_hyperbolicity_monomial():
    cs = builtin_family("monomial", k=2)
    report = check_weak_hyperbolicity(cs)
    assert report.verdict
    assert report.witness.t == 0.0   # minimum of t^2 * beta sits at t = 0
    assert abs(report.margin) < 1e-15


def test_weak_hyperbolicity_sign_change():
    base = builtin_family("monomial", k=2)
    cs = base.with_params(
        alpha=lambda t: np.asarray(t, dtype=float) - 0.5,
        alpha_prime=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        alpha_derivative=None, beta_time_derivative=None)
    report = check_weak_hyperbolicity(cs)
    assert not report.verdict
    assert report.witness.t < 0.5
    assert report.margin < 0


def test_weak_hyperbolicity_odd_power():
    cs = builtin_family("monomial", k=3)
    report = check_weak_hyperbolicity(cs)
    assert report.verdict
    assert report.witness.t == 0.0
    assert abs(report.witness.value) < 1e-15


def test_finite_degeneration_monomial_analytic():
    # with beta >= 1/2 the k-th derivative at t=0 is k! * beta >= k!/2
    cs = builtin_family("monomial", k=2)
    report = check_finite_degeneration(cs)
    assert report.verdict
    assert report.note == "analytic derivatives"
    assert report.witness.value >= 1.0   # 2 * lambda0


def test_finite_degeneration_fd_fallback_agrees():
    cs = builtin_family("monomial", k=2)
    stripped = cs.with_params(alpha_derivative=None,
                              beta_time_derivative=None)
    analytic = check_finite_degeneration(cs)
    fd = check_finite_degeneration(stripped, nt=512)
    assert fd.verdict
    assert fd.note.startswith("finite differences")
    # the two routes agree on the minimum within the FD error scale
    assert abs(fd.witness.value - analytic.witness.value) < 0.05


def test_flat_alpha_derivatives_vanish_at_zero():
    _, _, deriv = flat_alpha()
    for j in range(9):
        assert deriv(j, np.array([0.0]))[0] == 0.0
    # sanity at an interior point: first derivative is exp(-1/t)/t^2
    t = np.array([0.3])
    assert abs(deriv(1, t)[0] - np.exp(-1 / 0.3) / 0.3 ** 2) < 1e-12


def test_finite_degeneration_flat_fails_every_k():
    for k in range(1, 9):
        cs = builtin_family("flat", k=k)
        report = check_finite_degeneration(cs)
        assert not report.verdict, k
        assert report.witness.t == 0.0


def test_finite_degeneration_higher_order_zero_fails():
    # alpha = t^3 checked at order k = 2: all derivatives vanish at t = 0
    cs = builtin_family("monomial", k=3).with_params(k=2)
    report = check_finite_degeneration(cs)
    assert not report.verdict
    assert report.witness.t == 0.0
    assert report.witness.value == 0.0


def test_levi_zero_b():
    cs = builtin_family("monomial", k=2, gamma=0.5).with_params(b=zero_field)
    report = check_levi(cs)
    assert report.verdict
    assert abs(report.margin - cs.C0) < 1e-12


def test_levi_equality_case():
    cs = builtin_family("monomial", k=2, gamma=0.25, C0=2.0)
    report = check_levi(cs)
    assert report.verdict
    assert abs(report.margin) < 1e-9
    assert "limit convention" in report.note  # a = 0 at t = 0 was exercised


def test_levi_tight_constant():
    cs = builtin_family("monomial", k=2, gamma=0.25, C0=2.0)
    shaved = cs.with_params(C0=1.9)   # same b = 2*a^(1/4), smaller budget
    report = check_levi(shaved)
    assert not report.verdict
    assert abs(report.witness.value - 2.0) < 1e-9
    assert report.margin < 0


def test_order_condition_table():
    cases = [
        (2, 0.0, True, 0.0),
        (4, 0.3, True, 0.05),
        (4, 0.1, False, -0.15),
        (10 ** 6, 0.5, True, 1e-6),
    ]
    for k, gamma, verdict, margin in cases:
        report = check_order_condition(k, gamma)
        assert report.verdict is verdict, (k, gamma)
        assert abs(report.margin - margin) < 1e-9


def test_ellipticity_constant_beta():
    cs = constant_coefficients().with_params(lambda0=0.5, Lambda0=2.0)
    report = check_ellipticity(cs)
    assert report.verdict
    assert abs(report.margin - 0.5) < 1e-12


def test_ellipticity_sinusoidal():
    cs = builtin_family("monomial", k=2)
    report = check_ellipticity(cs)
    assert report.verdict
    # on [0,1] the oscillation reaches 0.5*sin(1), leaving this margin
    assert abs(report.margin - (0.5 - 0.5 * np.sin(1.0))) < 1e-6


def test_ellipticity_violated():
    cs = builtin_family("monomial", k=2).with_params(
        beta=lambda t, x: np.sin(np.asarray(x))
        * np.ones_like(np.asarray(t, dtype=float)),
        beta_time_derivative=None)
    report = check_ellipticity(cs)
    assert not report.verdict
    assert report.witness.value <= 0.0


def test_verdicts_monotone_in_constants():
    # enlarging C0 or widening the ellipticity band never flips true->false
    rng = np.random.default_rng(4)
    for _ in range(5):
        k = int(rng.integers(1, 5))
        gamma = float(rng.uniform(0.0, 1.0))
        cs = builtin_family("monomial", k=k, gamma=gamma,
                            C0=float(rng.uniform(0.5, 2.0)))
        wider = cs.with_params(C0=cs.C0 * 2.0, lambda0=cs.lambda0 / 2.0,
                               Lambda0=cs.Lambda0 * 2.0)
        for check in (check_levi, check_ellipticity):
            if check(cs).verdict:
                assert check(wider).verdict


def test_report_serialization():
    report = check_order_condition(2, 0.0)
    payload = json.loads(report.to_json())
    assert payload["condition_id"] == "order"
    assert payload["verdict"] is True
    assert set(payload) == {"condition_id", "verdict", "witness", "margin",
                            "note"}


def test_failing_report_requires_witness():
    from lpwave.coefficients import ConditionReport
    with pytest.raises(ValueError):
        ConditionReport("order", False, None, -1.0)
