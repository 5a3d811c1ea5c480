"""Coefficient families for the degenerate wave operator and hypothesis checks.

The second-order coefficient factorizes as a(t,x) = alpha(t)*beta(t,x)
with beta pinched between ellipticity bounds lambda0 <= beta <= Lambda0.
Five machine checks cover the standing hypotheses:

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
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, UnknownFamilyError

BUILTIN_FAMILIES = ("monomial", "interior_zero", "nondegenerate", "flat")
MAX_ORDER = 12   # highest degeneration order the derivative check accepts


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of  d_t^2 u - d_x(a d_x u) + b d_x u + c u.

    ``alpha`` maps a scalar t (or array of t) to values; ``beta``, ``b``
    and ``c`` map (scalar t, array x) to arrays.  ``alpha_derivative`` and
    ``beta_time_derivative``, when supplied, give exact time derivatives
    of any order and keep the degeneration check free of differencing
    noise; without them the check falls back to finite differences.
    """

    alpha: Callable
    alpha_prime: Callable
    beta: Callable
    b: Callable
    c: Callable
    k: int
    gamma: float
    C0: float
    lambda0: float
    Lambda0: float
    T: float
    alpha_derivative: Optional[Callable] = None   # (order j, t) -> value
    beta_time_derivative: Optional[Callable] = None  # (order j, t, x) -> array
    name: str = "custom"

    def a(self, t, x):
        return self.alpha(t) * self.beta(t, x)

    def with_params(self, **kw) -> "CoefficientSet":
        return replace(self, **kw)


def _monomial_alpha(k, shift=0.0):
    def alpha(t):
        return (np.asarray(t, dtype=float) - shift) ** k

    def alpha_prime(t):
        return k * (np.asarray(t, dtype=float) - shift) ** (k - 1)

    def alpha_derivative(j, t):
        t = np.asarray(t, dtype=float)
        if j > k:
            return np.zeros_like(t)
        coef = math.factorial(k) // math.factorial(k - j)
        return coef * (t - shift) ** (k - j)

    return alpha, alpha_prime, alpha_derivative


def flat_alpha():
    """alpha(t) = exp(-1/t) for t > 0, with every derivative 0 at t = 0.

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

    def value(j, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 0.0
        if np.any(pos):
            s = 1.0 / t[pos]
            p = poly_at(j)
            out[pos] = np.exp(-s) * np.polyval(p[::-1], s)
        return out

    alpha = lambda t: value(0, t)
    alpha_prime = lambda t: value(1, t)
    return alpha, alpha_prime, value


def _sinusoidal_beta():
    def beta(t, x):
        return 1.0 + 0.5 * np.sin(np.asarray(x)) * np.sin(t)

    def beta_time_derivative(j, t, x):
        if j == 0:
            return beta(t, x)
        return 0.5 * np.sin(np.asarray(x)) * np.sin(t + 0.5 * j * np.pi)

    return beta, beta_time_derivative


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
        alpha, alpha_prime, alpha_derivative = _monomial_alpha(k)
    elif name == "interior_zero":
        if k % 2 != 0:
            raise ConfigurationError("interior_zero needs even k")
        alpha, alpha_prime, alpha_derivative = _monomial_alpha(k, shift=T / 2.0)
    elif name == "nondegenerate":
        alpha = lambda t: np.ones_like(np.asarray(t, dtype=float))
        alpha_prime = lambda t: np.zeros_like(np.asarray(t, dtype=float))

        def alpha_derivative(j, t):
            t = np.asarray(t, dtype=float)
            return np.ones_like(t) if j == 0 else np.zeros_like(t)
    elif name == "flat":
        alpha, alpha_prime, alpha_derivative = flat_alpha()
    else:
        raise UnknownFamilyError(f"unknown family {name!r}; "
                                 f"built-ins are {BUILTIN_FAMILIES}")

    beta, beta_dt = _sinusoidal_beta()

    def b(t, x):
        a = alpha(t) * beta(t, x)
        return C0 * np.power(a, gamma) if gamma > 0 else C0 * np.ones_like(a)

    def c(t, x):
        return np.cos(np.asarray(x)) * np.ones_like(np.asarray(t, dtype=float))

    return CoefficientSet(alpha=alpha, alpha_prime=alpha_prime, beta=beta,
                          b=b, c=c, k=k, gamma=gamma, C0=C0,
                          lambda0=0.5, Lambda0=1.5, T=T,
                          alpha_derivative=alpha_derivative,
                          beta_time_derivative=beta_dt, name=name)


def constant_coefficients(a0=1.0, T=1.0, k=1) -> CoefficientSet:
    """alpha = a0, beta = 1, b = c = 0: the textbook wave equation."""
    ones = lambda t: a0 * np.ones_like(np.asarray(t, dtype=float))
    zeros = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    const_beta = lambda t, x: np.ones_like(np.asarray(x, dtype=float))
    zero_field = lambda t, x: np.zeros_like(np.asarray(x, dtype=float))

    def alpha_derivative(j, t):
        t = np.asarray(t, dtype=float)
        return a0 * np.ones_like(t) if j == 0 else np.zeros_like(t)

    def beta_dt(j, t, x):
        x = np.asarray(x, dtype=float)
        return np.ones_like(x) if j == 0 else np.zeros_like(x)

    return CoefficientSet(alpha=ones, alpha_prime=zeros, beta=const_beta,
                          b=zero_field, c=zero_field, k=k, gamma=0.0,
                          C0=0.0, lambda0=0.5, Lambda0=2.0, T=T,
                          alpha_derivative=alpha_derivative,
                          beta_time_derivative=beta_dt, name="constant")


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
        w = None
        if self.witness is not None:
            w = {"t": self.witness.t, "x": self.witness.x,
                 "value": self.witness.value}
        return {"condition_id": self.condition_id, "verdict": self.verdict,
                "witness": w, "margin": self.margin, "note": self.note}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _scan_grids(cs, x, nt):
    if x is None:
        x = np.arange(256) * (2.0 * np.pi / 256)
    t = np.linspace(0.0, cs.T, max(int(nt), 512))
    return t, np.asarray(x, dtype=float)


def tensor_scan(fn, t_grid, x_grid):
    """Real part of fn(t, x_grid) for each t in t_grid: an (nt, nx) matrix."""
    out = np.empty((t_grid.size, x_grid.size))
    for i, t in enumerate(t_grid):
        out[i] = np.real(fn(t, x_grid))
    return out


def check_weak_hyperbolicity(cs: CoefficientSet, x=None, nt=512) -> ConditionReport:
    """a(t,x) >= 0 on [0,T] x grid, tolerance 1e-12."""
    t_grid, x_grid = _scan_grids(cs, x, nt)
    vals = tensor_scan(cs.a, t_grid, x_grid)
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    amin = float(vals[i, j])
    return ConditionReport("weak_hyperbolicity", amin >= -1e-12,
                           Witness(float(t_grid[i]), float(x_grid[j]), amin),
                           margin=amin)


def check_finite_degeneration(cs: CoefficientSet, x=None,
                              nt=512) -> ConditionReport:
    """sum_{j<=k} |d_t^j a| bounded away from zero on [0,T] x grid.

    With analytic derivative providers the threshold is exact positivity;
    the finite-difference fallback uses 10x its own error estimate as the
    threshold and records that estimate in the note.
    """
    if cs.k > MAX_ORDER:
        raise ConfigurationError(
            f"degeneration order {cs.k} exceeds the maximum {MAX_ORDER}")
    t_grid, x_grid = _scan_grids(cs, x, nt)
    analytic = (cs.alpha_derivative is not None
                and cs.beta_time_derivative is not None)
    if analytic:
        beta_dt = [tensor_scan(functools.partial(cs.beta_time_derivative, j),
                               t_grid, x_grid) for j in range(cs.k + 1)]
        total = np.zeros((t_grid.size, x_grid.size))
        for j in range(cs.k + 1):
            dja = np.zeros_like(total)
            for i in range(j + 1):
                av = np.asarray(cs.alpha_derivative(i, t_grid), dtype=float)
                dja += math.comb(j, i) * av[:, None] * beta_dt[j - i]
            total += np.abs(dja)
        threshold = 0.0
        note = "analytic derivatives"
    else:
        total, err = _fd_derivative_sum(cs, t_grid, x_grid)
        threshold = 10.0 * err
        note = f"finite differences, error estimate {err:.3e}"
    i, j = np.unravel_index(np.argmin(total), total.shape)
    smin = float(total[i, j])
    verdict = smin > threshold if analytic else smin >= threshold
    return ConditionReport("finite_degeneration", bool(verdict),
                           Witness(float(t_grid[i]), float(x_grid[j]), smin),
                           margin=smin - threshold, note=note)


def _fd_derivative_sum(cs, t_grid, x_grid):
    """Sum of |d_t^j a| via iterated second-order differences, two steps.

    Runs the stencil at spacing h and h/2; the difference of the two
    results (Richardson style) gives the error estimate.
    """
    def stack(h):
        fine = np.arange(t_grid[0], t_grid[-1] + h / 2, h)
        vals = tensor_scan(cs.a, fine, x_grid)
        total = np.abs(vals)
        d = vals
        for _ in range(cs.k):
            d = np.gradient(d, h, axis=0, edge_order=2)
            total = total + np.abs(d)
        idx = np.clip(np.round((t_grid - t_grid[0]) / h).astype(int),
                      0, fine.size - 1)
        return total[idx]

    h = (t_grid[-1] - t_grid[0]) / (8 * t_grid.size)
    coarse, fine = stack(h), stack(h / 2)
    err = float(np.max(np.abs(coarse - fine)) / 3.0)
    return fine, err


def check_levi(cs: CoefficientSet, x=None, nt=512) -> ConditionReport:
    """|b| <= C0 * a**gamma, with the a = 0 set handled by convention.

    For gamma > 0 the ratio is undefined where a vanishes; there the check
    requires |b| = 0 (to rounding) and flags the report when that branch
    was exercised.
    """
    t_grid, x_grid = _scan_grids(cs, x, nt)
    a = tensor_scan(cs.a, t_grid, x_grid)
    bb = np.abs(tensor_scan(cs.b, t_grid, x_grid))
    note = ""
    if cs.gamma == 0:
        ratio = bb
    else:
        ratio = np.zeros_like(bb)
        pos = a > 0.0
        ratio[pos] = bb[pos] / a[pos] ** cs.gamma
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


def check_ellipticity(cs: CoefficientSet, x=None, nt=512) -> ConditionReport:
    """lambda0 <= beta <= Lambda0 on [0,T] x grid, tolerance 1e-12."""
    t_grid, x_grid = _scan_grids(cs, x, nt)
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


def run_all_checks(cs: CoefficientSet, x=None, nt=512) -> list:
    return [
        check_weak_hyperbolicity(cs, x, nt),
        check_finite_degeneration(cs, x, nt),
        check_levi(cs, x, nt),
        check_order_condition(cs.k, cs.gamma),
        check_ellipticity(cs, x, nt),
    ]
