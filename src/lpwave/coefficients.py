"""Coefficient families for the degenerate wave operator and hypothesis checks.

The second-order coefficient factorizes as a(t,x) = alpha(t)*beta(t,x)
with beta pinched between ellipticity bounds lambda0 <= beta <= Lambda0.
Each factor is given by one callable, its time derivative of any order
(order 0 is the factor), so the degeneration check is exact.  Five
machine checks cover the standing hypotheses:

  weak_hyperbolicity   a >= 0 everywhere
  finite_degeneration  some time derivative of a up to order k is nonzero
  levi                 |b| <= C0 * a**gamma
  order                gamma + 1/k >= 1/2
  ellipticity          lambda0 <= beta <= Lambda0

Checkers scan a dense (t, x) tensor grid and report the tightest point as
a witness, so near-violations are visible even when a check passes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, UnknownFamilyError
from .grid import grid_points, row_chunks

BUILTIN_FAMILIES = ("monomial", "interior_zero", "nondegenerate", "flat")
MAX_ORDER = 12   # highest degeneration order the derivative check accepts
SCAN_TIMES = 512   # time samples of the (t, x) grid the checkers scan
SCAN_POINTS = grid_points(256)   # its x samples when no grid is given
SCAN_POINTS.flags.writeable = False


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of  d_t^2 u - d_x(a d_x u) + b d_x u + c u.

    The factors of a = alpha * beta are given by their time derivatives
    alone: ``alpha_derivative(j, t)`` is d_t^j alpha at a scalar t or an
    array of times, and ``beta_time_derivative(j, t, x)`` is d_t^j beta on
    the array x.  Order 0 is the factor itself, which ``alpha(t)`` and
    ``beta(t, x)`` return, so each factor has one source and the
    degeneration check reads exact derivatives of every order.
    ``beta_time_derivative``, ``b`` and ``c`` take t as a scalar or as an
    (S, 1) column of times, giving one row per time (the solver, the
    hypothesis checks and the sup scans pass columns).
    """

    alpha_derivative: Callable       # (order j, t) -> d_t^j alpha
    beta_time_derivative: Callable   # (order j, t, x) -> d_t^j beta
    b: Callable
    c: Callable
    k: int
    gamma: float
    C0: float
    lambda0: float
    Lambda0: float
    T: float
    name: str = "custom"

    def alpha(self, t):
        return self.alpha_derivative(0, t)

    def beta(self, t, x):
        return self.beta_time_derivative(0, t, x)

    def a(self, t, x):
        return self.alpha(t) * self.beta(t, x)

    def with_params(self, **kw) -> "CoefficientSet":
        return replace(self, **kw)


def _monomial_alpha(k, shift=0.0):
    """d_t^j (t - shift)^k.  float_power is libm pow whatever the shape of
    t, so a column of times gives the bits of scalar calls; numpy's
    vectorised ** may not."""
    def alpha_derivative(j, t):
        t = np.asarray(t, dtype=float)
        if j > k:
            return np.zeros_like(t)
        coef = math.factorial(k) // math.factorial(k - j)
        return coef * np.float_power(t - shift, k - j)

    return alpha_derivative


def _constant_alpha(a0):
    """d_t^j of alpha = a0."""
    def alpha_derivative(j, t):
        t = np.asarray(t, dtype=float)
        return a0 * np.ones_like(t) if j == 0 else np.zeros_like(t)

    return alpha_derivative


def flat_alpha():
    """d_t^j of alpha(t) = exp(-1/t) for t > 0, every derivative 0 at t = 0.

    Derivatives are exp(-1/t) * P_j(1/t) with P_{j+1}(s) = s^2*(P_j - P_j')
    starting from P_0 = 1; that recursion is evaluated exactly on
    polynomial coefficient arrays.
    """
    polys = [np.array([1.0])]  # coefficients of P_j in increasing powers of s

    def poly_at(j):
        while len(polys) <= j:
            p = polys[-1]
            dp = np.arange(1, len(p)) * p[1:]            # P'
            diff = p.copy()
            if dp.size:
                diff[: dp.size] -= dp
            polys.append(np.concatenate([[0.0, 0.0], diff]))  # s^2 * (P - P')
        return polys[j]

    def alpha_derivative(j, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 0.0
        if np.any(pos):
            s = 1.0 / t[pos]
            p = poly_at(j)
            out[pos] = np.exp(-s) * np.polyval(p[::-1], s)
        return out

    return alpha_derivative


def _sinusoidal_beta(j, t, x):
    """d_t^j of beta = 1 + sin(x) sin(t) / 2."""
    if j == 0:
        return 1.0 + 0.5 * np.sin(np.asarray(x)) * np.sin(t)
    return 0.5 * np.sin(np.asarray(x)) * np.sin(t + 0.5 * j * np.pi)


def builtin_family(name, k=2, gamma=0.0, C0=1.0, T=1.0) -> CoefficientSet:
    """Parameterized coefficient sets used throughout the tests and demos.

    monomial       alpha = t**k, degenerate only at t = 0
    interior_zero  alpha = (t - T/2)**k, k even, degenerate inside (0, T)
    nondegenerate  alpha = 1, strictly hyperbolic reference
    flat           alpha = exp(-1/t), infinite-order zero at t = 0 (fails
                   the degeneration check by construction)

    All share beta = 1 + sin(x)sin(t)/2 (so lambda0 = 1/2, Lambda0 = 3/2),
    b = C0 * a**gamma and c = cos(x).
    """
    if k < 1:
        raise ConfigurationError("degeneration order k must be >= 1")
    if gamma < 0:
        raise ConfigurationError("Levi exponent gamma must be >= 0")
    if name == "monomial":
        alpha_derivative = _monomial_alpha(k)
    elif name == "interior_zero":
        if k % 2 != 0:
            raise ConfigurationError("interior_zero needs even k")
        alpha_derivative = _monomial_alpha(k, shift=T / 2.0)
    elif name == "nondegenerate":
        alpha_derivative = _constant_alpha(1.0)
    elif name == "flat":
        alpha_derivative = flat_alpha()
    else:
        raise UnknownFamilyError(f"unknown family {name!r}; "
                                 f"built-ins are {BUILTIN_FAMILIES}")

    def b(t, x):
        a = alpha_derivative(0, t) * _sinusoidal_beta(0, t, x)
        return C0 * np.power(a, gamma) if gamma > 0 else C0 * np.ones_like(a)

    def c(t, x):
        return np.cos(np.asarray(x)) * np.ones_like(np.asarray(t, dtype=float))

    return CoefficientSet(alpha_derivative=alpha_derivative,
                          beta_time_derivative=_sinusoidal_beta,
                          b=b, c=c, k=k, gamma=gamma, C0=C0,
                          lambda0=0.5, Lambda0=1.5, T=T, name=name)


def constant_coefficients(a0=1.0, T=1.0, k=1) -> CoefficientSet:
    """alpha = a0, beta = 1, b = c = 0: the textbook wave equation."""
    zero_field = lambda t, x: np.zeros_like(np.asarray(x, dtype=float))

    def beta_dt(j, t, x):
        x = np.asarray(x, dtype=float)
        return np.ones_like(x) if j == 0 else np.zeros_like(x)

    return CoefficientSet(alpha_derivative=_constant_alpha(a0),
                          beta_time_derivative=beta_dt, b=zero_field,
                          c=zero_field, k=k, gamma=0.0, C0=0.0, lambda0=0.5,
                          Lambda0=2.0, T=T, name="constant")


# ---------------------------------------------------------------------------
# condition reports


@dataclass(frozen=True)
class Witness:
    t: Optional[float]
    x: Optional[float]
    value: float


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str
    verdict: bool
    witness: Optional[Witness]
    margin: float
    note: str = ""

    def __post_init__(self):
        if not self.verdict and self.witness is None:
            raise ValueError("a failing verdict must carry a witness")

    def to_dict(self) -> dict:
        return asdict(self)


def scan_grids(cs, x):
    """The sup scans' (t, x): SCAN_TIMES times on [0, T], x or SCAN_POINTS."""
    if x is None:
        x = SCAN_POINTS
    t = np.linspace(0.0, cs.T, SCAN_TIMES)
    return t, np.asarray(x, dtype=float)


def tensor_scan(fn, t_grid, x_grid):
    """Real part of fn(t, x_grid) for each t in t_grid, a fresh (nt, nx)
    matrix; fn is called on the (S, 1) time column of each row chunk."""
    out = np.empty((t_grid.size, x_grid.size))
    for rows in row_chunks(t_grid.size, x_grid.size):
        out[rows] = np.real(fn(t_grid[rows, None], x_grid))
    return out


def _bounds(condition_id, fn, cs, x, lo, hi) -> ConditionReport:
    """lo <= fn <= hi on [0,T] x grid, tolerance 1e-12; margin and witness
    are those of the extreme nearer its bound (the minimum on a tie)."""
    t_grid, x_grid = scan_grids(cs, x)
    vals = tensor_scan(fn, t_grid, x_grid)
    low, high = np.argmin(vals), np.argmax(vals)
    lo_margin = float(vals.flat[low]) - lo
    hi_margin = hi - float(vals.flat[high])
    i, j = np.unravel_index(high if hi_margin < lo_margin else low,
                            vals.shape)
    margin = min(lo_margin, hi_margin)
    return ConditionReport(condition_id, margin >= -1e-12,
                           Witness(float(t_grid[i]), float(x_grid[j]),
                                   float(vals[i, j])),
                           margin=margin)


def check_weak_hyperbolicity(cs: CoefficientSet, x=None) -> ConditionReport:
    """a(t,x) >= 0 on [0,T] x grid, tolerance 1e-12."""
    return _bounds("weak_hyperbolicity", cs.a, cs, x, 0.0, np.inf)


def check_finite_degeneration(cs: CoefficientSet, x=None) -> ConditionReport:
    """sum_{j<=k} |d_t^j a| > 0 on [0,T] x grid.

    d_t^j a comes from the exact derivatives of both factors by the
    Leibniz rule, so the threshold is exact positivity.
    """
    if cs.k > MAX_ORDER:
        raise ConfigurationError(
            f"degeneration order {cs.k} exceeds the maximum {MAX_ORDER}")
    t_grid, x_grid = scan_grids(cs, x)
    alpha_dt = [np.asarray(cs.alpha_derivative(i, t_grid), dtype=float)
                for i in range(cs.k + 1)]
    beta_dt = [tensor_scan(functools.partial(cs.beta_time_derivative, j),
                           t_grid, x_grid) for j in range(cs.k + 1)]
    total = np.zeros((t_grid.size, x_grid.size))
    for j in range(cs.k + 1):
        dja = np.zeros_like(total)
        for i in range(j + 1):
            dja += math.comb(j, i) * alpha_dt[i][:, None] * beta_dt[j - i]
        total += np.abs(dja)
    i, j = np.unravel_index(np.argmin(total), total.shape)
    smin = float(total[i, j])
    return ConditionReport("finite_degeneration", smin > 0.0,
                           Witness(float(t_grid[i]), float(x_grid[j]), smin),
                           margin=smin)


@np.errstate(over="ignore")      # a b that overflows is refused below
def check_levi(cs: CoefficientSet, x=None) -> ConditionReport:
    """|b| <= C0 * a**gamma, with the a = 0 set handled by convention.

    For gamma > 0 the ratio is undefined where a**gamma is 0: where a
    vanishes, or where a**gamma underflows at a large gamma.  There the
    check requires |b| = 0 (to rounding) and flags the report when that
    branch was exercised.  A b that is not finite on the scan grid is a
    ConfigurationError.
    """
    t_grid, x_grid = scan_grids(cs, x)
    a = tensor_scan(cs.a, t_grid, x_grid)
    bb = np.abs(tensor_scan(cs.b, t_grid, x_grid))
    if not np.all(np.isfinite(bb)):
        raise ConfigurationError(
            f"b is not finite on the scan grid (C0 = {cs.C0!r}, "
            f"gamma = {cs.gamma!r})")
    note = ""
    if cs.gamma == 0:
        ratio = bb
    else:
        ratio = np.zeros_like(bb)
        a_gamma = np.zeros_like(a)       # stays 0 where a**gamma underflows
        a_gamma[a > 0.0] = a[a > 0.0] ** cs.gamma
        pos = a_gamma > 0.0
        ratio[pos] = bb[pos] / a_gamma[pos]
        zero_set = ~pos
        if np.any(zero_set):
            note = "a = 0 set present; limit convention applied"
            btol = 1e-12 * (1.0 + float(np.max(bb)))
            if np.any(bb[zero_set] > btol):
                i, j = np.unravel_index(
                    np.argmax(np.where(zero_set, bb, -np.inf)), bb.shape)
                return ConditionReport(
                    "levi", False,
                    Witness(float(t_grid[i]), float(x_grid[j]), float(bb[i, j])),
                    margin=-float(bb[i, j]),
                    note=note + "; |b| > 0 where a = 0")
    i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
    sup = float(ratio[i, j])
    return ConditionReport("levi", sup <= cs.C0 * (1.0 + 1e-9),
                           Witness(float(t_grid[i]), float(x_grid[j]), sup),
                           margin=cs.C0 - sup, note=note)


def check_order_condition(k, gamma) -> ConditionReport:
    """gamma + 1/k >= 1/2."""
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    if gamma < 0:
        raise ConfigurationError("gamma must be >= 0")
    margin = gamma + 1.0 / k - 0.5
    return ConditionReport("order", margin >= -1e-12,
                           Witness(None, None, gamma + 1.0 / k), margin=margin)


def check_ellipticity(cs: CoefficientSet, x=None) -> ConditionReport:
    """lambda0 <= beta <= Lambda0 on [0,T] x grid, tolerance 1e-12."""
    return _bounds("ellipticity", cs.beta, cs, x, cs.lambda0, cs.Lambda0)


def run_all_checks(cs: CoefficientSet, x=None) -> list:
    return [
        check_weak_hyperbolicity(cs, x),
        check_finite_degeneration(cs, x),
        check_levi(cs, x),
        check_order_condition(cs.k, cs.gamma),
        check_ellipticity(cs, x),
    ]
