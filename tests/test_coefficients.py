import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpwave.coefficients import (BUILTIN_FAMILIES, MAX_ORDER, ConditionReport,
                                 Witness, builtin_family,
                                 check_ellipticity,
                                 check_finite_degeneration, check_levi,
                                 check_order_condition,
                                 check_weak_hyperbolicity,
                                 constant_coefficients, flat_alpha,
                                 run_all_checks, scan_grids, tensor_scan)
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
    def alpha_derivative(j, t):   # alpha = t - 1/2
        t = np.asarray(t, dtype=float)
        return t - 0.5 if j == 0 else np.full_like(t, float(j == 1))

    cs = builtin_family("monomial", k=2).with_params(
        alpha_derivative=alpha_derivative)
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
    assert report.witness.value >= 1.0   # 2 * lambda0


def _every_set():
    """Each built-in family and constant_coefficients at every valid k."""
    for k in range(1, MAX_ORDER + 1):
        yield constant_coefficients(a0=1.5, k=k)
        for name in BUILTIN_FAMILIES:
            if name != "interior_zero" or k % 2 == 0:
                yield builtin_family(name, k=k)


def test_derivative_providers_match_central_differences():
    # order j against the central difference of order j - 1, for j <= k + 1
    # on [0, T] (alpha) and [0, T] x grid (beta); with h = 1e-5 the
    # truncation (h^2/6 times order j + 2) and rounding stay below 3e-6
    # of the sup
    h = 1e-5
    t = np.linspace(0.0, 1.0, 41)
    x = np.arange(16) * (2.0 * np.pi / 16)
    for cs in _every_set():
        for fn, tt, rest in ((cs.alpha_derivative, t, ()),
                             (cs.beta_time_derivative, t[:, None], (x,))):
            for j in range(1, cs.k + 2):
                exact = fn(j, tt, *rest)
                diff = (fn(j - 1, tt + h, *rest)
                        - fn(j - 1, tt - h, *rest)) / (2.0 * h)
                scale = max(1.0, float(np.max(np.abs(exact))))
                assert np.max(np.abs(diff - exact)) <= 1e-5 * scale, \
                    (cs.name, cs.k, fn, j)


def test_alpha_and_beta_are_order_zero_of_their_providers():
    cs = builtin_family("monomial", k=3).with_params(
        alpha_derivative=lambda j, t: np.full_like(
            np.asarray(t, dtype=float), 2.0 if j == 0 else 0.0))
    t, x = np.linspace(0.0, 1.0, 5)[:, None], np.arange(8) * (np.pi / 4)
    assert np.all(cs.alpha(t) == 2.0)
    assert cs.beta(t, x).tobytes() == \
        cs.beta_time_derivative(0, t, x).tobytes()
    assert cs.a(t, x).tobytes() == (2.0 * cs.beta(t, x)).tobytes()


def test_flat_alpha_derivatives_vanish_at_zero():
    deriv = flat_alpha()
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


@pytest.mark.parametrize("k, gamma", [(2, 400.0), (4, 50.0), (12, 50.0)])
def test_levi_holds_where_a_power_gamma_underflows(k, gamma):
    # b = C0 * a**gamma underflows to 0 with a**gamma at small t > 0: the
    # ratio there was 0/0 = NaN, a FAIL verdict with a NaN margin
    report = check_levi(builtin_family("monomial", k=k, gamma=gamma))
    assert report.verdict
    assert abs(report.margin) < 1e-9
    assert "limit convention" in report.note
    json.dumps(report.to_dict(), allow_nan=False)


def test_levi_refuses_a_b_that_is_not_finite():
    # b = 1e300 * a**400 overflows where a = beta > 1
    cs = builtin_family("nondegenerate", gamma=400.0, C0=1e300)
    with pytest.raises(ConfigurationError, match="b is not finite"):
        check_levi(cs)


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
    # beta = sin(x), constant in time
    cs = builtin_family("monomial", k=2).with_params(
        beta_time_derivative=lambda j, t, x: float(j == 0)
        * np.sin(np.asarray(x)) * np.ones_like(np.asarray(t, dtype=float)))
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
    payload = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    assert payload["condition_id"] == "order"
    assert payload["verdict"] is True
    assert set(payload) == {"condition_id", "verdict", "witness", "margin",
                            "note"}


def test_failing_report_requires_witness():
    from lpwave.coefficients import ConditionReport
    with pytest.raises(ValueError):
        ConditionReport("order", False, None, -1.0)


def _per_time_scan(fn, t_grid, x_grid):
    """The reference sampler: fn called once per scalar time."""
    out = np.empty((t_grid.size, x_grid.size))
    for i, t in enumerate(t_grid):
        out[i] = np.real(fn(t, x_grid))
    return out


@st.composite
def scan_cases(draw):
    family = draw(st.sampled_from(BUILTIN_FAMILIES + ("constant",)))
    k = draw(st.integers(1, 12))
    if family == "interior_zero" and k % 2:
        k += 1 if k < 12 else -1
    if family == "constant":
        cs = constant_coefficients(a0=draw(st.floats(0.5, 2.0)), k=k)
    else:
        cs = builtin_family(family, k=k, gamma=draw(st.floats(0.0, 2.0)),
                            C0=draw(st.floats(0.1, 2.0)))
    name = draw(st.sampled_from(("a", "b", "c", "beta", "beta_t")))
    if name == "beta_t":
        j = draw(st.integers(0, k))
        fn = lambda t, x: cs.beta_time_derivative(j, t, x)
    else:
        fn = getattr(cs, name)
    t_grid = np.linspace(0.0, cs.T, draw(st.sampled_from((1, 5, 512))))
    n = draw(st.sampled_from((16, 128, 256, 2048)))
    return fn, t_grid, np.arange(n) * (2.0 * np.pi / n)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(scan_cases())
def test_tensor_scan_matches_per_time_loop(case):
    # nt = 1, 5 and 512 against 8192 // nx rows per call: one-row, whole
    # and partial chunks all occur
    fn, t_grid, x_grid = case
    out = tensor_scan(fn, t_grid, x_grid)
    assert out.flags.writeable and out.flags.owndata
    assert out.shape == (t_grid.size, x_grid.size)
    assert out.tobytes() == _per_time_scan(fn, t_grid, x_grid).tobytes()


# The two bound checks as they were written before they shared one scan,
# kept verbatim as the reference of the merged check.
def reference_weak_hyperbolicity(cs, x=None):
    t_grid, x_grid = scan_grids(cs, x)
    vals = tensor_scan(cs.a, t_grid, x_grid)
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    amin = float(vals[i, j])
    return ConditionReport("weak_hyperbolicity", amin >= -1e-12,
                           Witness(float(t_grid[i]), float(x_grid[j]), amin),
                           margin=amin)


def reference_ellipticity(cs, x=None):
    t_grid, x_grid = scan_grids(cs, x)
    vals = tensor_scan(cs.beta, t_grid, x_grid)
    lo_margin = float(np.min(vals)) - cs.lambda0
    hi_margin = cs.Lambda0 - float(np.max(vals))
    if lo_margin <= hi_margin:
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
    else:
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
    margin = min(lo_margin, hi_margin)
    return ConditionReport("ellipticity", margin >= -1e-12,
                           Witness(float(t_grid[i]), float(x_grid[j]),
                                   float(vals[i, j])),
                           margin=margin)


def assert_bound_checks_match_reference(cs, x):
    # repr tells -0.0 from 0.0, which == does not
    for check, reference in ((check_weak_hyperbolicity,
                              reference_weak_hyperbolicity),
                             (check_ellipticity, reference_ellipticity)):
        assert repr(check(cs, x).to_dict()) \
            == repr(reference(cs, x).to_dict()), (cs.name, check.__name__)


def _bound_check_sets(name):
    """Every k = 1 ... 6 and gamma in {0, 0.3} of one family, each also
    with lambda0 above min beta (ellipticity fails low) and Lambda0
    below max beta (it fails high)."""
    for k in range(1, 7):
        for gamma in (0.0, 0.3):
            if name == "constant":
                cs = constant_coefficients(a0=(-1.0, 0.0, 1.5)[k % 3], k=k)
            elif name != "interior_zero" or k % 2 == 0:
                cs = builtin_family(name, k=k, gamma=gamma)
            else:
                continue
            yield cs
            yield cs.with_params(lambda0=1.1)
            yield cs.with_params(Lambda0=0.95)


@pytest.mark.parametrize("name", BUILTIN_FAMILIES + ("constant",))
def test_bound_checks_match_the_reference_bodies(name):
    verdicts = set()
    for cs in _bound_check_sets(name):
        for x in (None, np.arange(64) * (2.0 * np.pi / 64)):
            assert_bound_checks_match_reference(cs, x)
            verdicts.add((check_weak_hyperbolicity(cs, x).verdict,
                          check_ellipticity(cs, x).verdict))
    # the sets exercise passing and failing ellipticity, and for the
    # constant family (a0 = -1) failing weak hyperbolicity too
    assert {v for _, v in verdicts} == {True, False}
    if name == "constant":
        assert {w for w, _ in verdicts} == {True, False}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.floats(-2.0, 2.0), st.floats(0.0, 2.0), st.floats(0.5, 3.0),
       st.sampled_from([None, 8, 64]))
def test_property_bound_checks_match_the_reference_bodies(a0, lambda0,
                                                          Lambda0, n_x):
    x = None if n_x is None else np.arange(n_x) * (2.0 * np.pi / n_x)
    cs = builtin_family("monomial", k=2, gamma=0.3).with_params(
        lambda0=lambda0, Lambda0=Lambda0)
    assert_bound_checks_match_reference(cs, x)
    assert_bound_checks_match_reference(
        constant_coefficients(a0=a0).with_params(lambda0=lambda0,
                                                 Lambda0=Lambda0), x)
