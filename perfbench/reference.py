"""Reference values for the benchmark's output checks, written without the
package under test.

Direct left-hand sides are plain weighted sums of the Pascal masses
phi_n = C(n+m-2, m-1) q^(n-1) (1-q)^m, computed from log-gamma values (not
from the package's product recurrence) and summed until the remaining terms
are below 1e-20 of the sum.  Every criterion weight is a nonnegative
combination of k = n-1, k^2, 1/n and the R^tau bound, so each left-hand side
is a nonnegative combination of a few moments and no cancellation occurs.

Closed forms (the "paper" and "rederived" variants) are evaluated with mpmath
at 50 digits, so their own rounding cannot decide a sign check.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import gammaln

_TERM_FLOOR = 1e-20
_MAX_TERMS = 50_000_000


def _slope(xi, gamma, rho):
    # weight_S(n) = A*(n-1) + (1-gamma), with A as below
    return (1.0 - rho) / math.cos(xi) + rho * (1.0 - gamma)


def rtau_bound(n, tau, vartheta, delta):
    """Coefficient bound 2|tau|(1-delta)/(1+vartheta(n-1)) of R^tau."""
    return 2.0 * abs(tau) * (1.0 - delta) / (1.0 + vartheta * (n - 1.0))


def pascal_masses(m: float, q: float, n):
    """phi_n for the integer array n >= 2, from log-gamma values."""
    log_phi = (
        gammaln(n + m - 1.0) - gammaln(m) - gammaln(n)
        + (n - 1.0) * math.log(q) + m * math.log1p(-q)
    )
    return np.exp(log_phi)


def moments(m: float, q: float, rtau=None) -> dict:
    """Moments of phi_n over n >= 2 with k = n-1:
    s0, s1, s2 = sum k^j phi_n; u0, u1 = sum k^j phi_n / n; and, when
    rtau = (tau, vartheta, delta) is given, b0, b1, b2 = sum k^j B_n phi_n."""
    mode = 1.0 + (m - 1.0) * q / (1.0 - q)
    acc = dict.fromkeys(("s0", "s1", "s2", "u0", "u1", "b0", "b1", "b2"), 0.0)
    start, length = 2, 512
    while True:
        n = np.arange(start, start + length, dtype=float)
        phi = pascal_masses(m, q, n)
        k = n - 1.0
        acc["s0"] += float(np.sum(phi))
        acc["s1"] += float(np.dot(k, phi))
        acc["s2"] += float(np.dot(k * k, phi))
        acc["u0"] += float(np.sum(phi / n))
        acc["u1"] += float(np.dot(k / n, phi))
        if rtau is not None:
            bphi = rtau_bound(n, *rtau) * phi
            acc["b0"] += float(np.sum(bphi))
            acc["b1"] += float(np.dot(k, bphi))
            acc["b2"] += float(np.dot(k * k, bphi))
        last = n[-1]
        if last > mode and k[-1] ** 2 * phi[-1] <= _TERM_FLOOR * max(acc["s2"], 1e-300):
            return acc
        if last > _MAX_TERMS:
            raise ArithmeticError(f"reference sum did not settle for m={m}, q={q}")
        start += length
        length = min(2 * length, 1 << 20)


def direct_lhs(criterion: str, m, q, xi, gamma, rho, rtau=None, mom=None) -> float:
    """Left-hand side of the direct variant of one criterion (the exact
    infinite weighted sum).  theta-in-s and integral-in-k use the package's
    rescaled form (raw - (1-gamma)(1-t))/t, which by sum phi_n = 1-t equals
    A*s1/t."""
    if mom is None:
        mom = moments(m, q, rtau if criterion.startswith("lambda") else None)
    a, b = _slope(xi, gamma, rho), 1.0 - gamma
    t = (1.0 - q) ** m
    if criterion in ("theta-in-s", "integral-in-k"):
        return a * mom["s1"] / t
    if criterion == "theta-in-k":
        return a * mom["s2"] + (a + b) * mom["s1"] + b * mom["s0"]
    if criterion == "integral-in-s":
        return a * mom["u1"] + b * mom["u0"]
    if criterion == "lambda-in-s":
        return a * mom["b1"] + b * mom["b0"]
    if criterion == "lambda-in-k":
        return a * mom["b2"] + (a + b) * mom["b1"] + b * mom["b0"]
    raise ValueError(criterion)


def closed_lhs(criterion: str, variant: str, m, q, xi, gamma, rho, rtau=None):
    """The published ("paper") or re-derived closed form at 50 digits."""
    with mpmath.workdps(50):
        m, q, g, rho = (mpmath.mpf(v) for v in (m, q, gamma, rho))
        s = mpmath.sec(mpmath.mpf(xi))
        a = (1 - rho) * s + rho * (1 - g)
        t = (1 - q) ** m
        spiral = a * q * m / (1 - q) ** (m + 1)
        printed = (
            ((1 - rho) * s + (1 - g)) * m * (m + 1) * q**2 / (1 - q) ** 2
            + (2 * (1 - rho) * s + (1 - g) * (4 - rho)) * m * q / (1 - q)
            + (1 - g) * (2 - rho) * (1 - t)
        )
        if m == 1:
            s_inv = (-mpmath.log1p(-q) - q) / q
        else:
            s_inv = ((1 - q) - t - q * (m - 1) * t) / (q * (m - 1) * t)
        braces = a * (1 - t) + (1 - rho) * (1 - g - s) * t * s_inv
        pref = 0
        if rtau is not None:
            tau, vartheta, delta = rtau
            pref = 2 * abs(mpmath.mpc(tau)) * (1 - mpmath.mpf(delta)) / mpmath.mpf(vartheta)
        if criterion in ("theta-in-s", "integral-in-k"):
            value = spiral
        elif criterion == "theta-in-k":
            value = printed if variant == "paper" else (
                a * m * (m + 1) * q**2 / (1 - q) ** 2
                + (2 * a + 1 - g) * m * q / (1 - q)
                + (1 - g) * (1 - t)
            )
        elif criterion == "integral-in-s":
            value = braces
        elif criterion == "lambda-in-s":
            value = pref * braces
        elif criterion == "lambda-in-k":
            value = pref * (
                printed if variant == "paper"
                else a * q * m / (1 - q) + (1 - g) * (1 - t)
            )
        else:
            raise ValueError(criterion)
        return float(value)


def margin(criterion, variant, m, q, xi, gamma, rho, rtau=None) -> float:
    """Reference margin (1-gamma) - lhs for any variant."""
    if variant == "direct":
        lhs = direct_lhs(criterion, m, q, xi, gamma, rho, rtau)
    else:
        lhs = closed_lhs(criterion, variant, m, q, xi, gamma, rho, rtau)
    return (1.0 - gamma) - lhs


def series_coefficients(function: str, m, q, order, rtau=None):
    """a_2..a_order of theta, its integral transform, or its convolution
    with the extremal R^tau series."""
    n = np.arange(2, order + 1, dtype=float)
    a = pascal_masses(m, q, n)
    if function == "integral":
        return a / n
    if function == "lambda-rtau":
        return a * rtau_bound(n, *rtau)
    return a


def truncation_order(m, q, threshold, radius, cap=100_000) -> int:
    """The documented truncation rule of verify-disk: the smallest N >= 2
    with phi_N r^N rhat/(1-rhat) < threshold, rhat = r q (N+m-1)/N."""
    start, length = 2, 256
    while start <= cap:
        n = np.arange(start, min(start + length, cap + 1), dtype=float)
        term = pascal_masses(m, q, n) * radius**n
        rhat = radius * q * (n + m - 1.0) / n
        with np.errstate(divide="ignore"):
            done = (rhat < 1.0) & (term * rhat / (1.0 - rhat) < threshold)
        if done.any():
            return int(n[np.argmax(done)])
        start += length
        length *= 2
    raise ArithmeticError(f"no truncation order below {cap} for m={m}, q={q}")


def last_scaled_coefficient(function: str, m, q, rtau, threshold, radius) -> float:
    """|a_N| r^N of the series verify-disk builds, N from its truncation
    rule: the quantity verify_on_disk's tail check compares with 1e-8."""
    order = truncation_order(m, q, threshold, radius)
    return float(abs(series_coefficients(function, m, q, order, rtau)[-1]) * radius**order)


def functional(coeffs, z: complex, xi, gamma, rho, family: str) -> float:
    """Re(e^{i xi} N/D) - gamma cos(xi) for the S or K family, evaluated
    with numpy's power-basis polyval."""
    poly = np.polynomial.polynomial
    f_asc = np.concatenate(([0.0, 1.0], coeffs))
    d1 = poly.polyder(f_asc)
    d2 = poly.polyder(f_asc, 2)
    f, f1, f2 = (complex(poly.polyval(z, c)) for c in (f_asc, d1, d2))
    if family == "S":
        num, den = z * f1, (1.0 - rho) * f + rho * z * f1
    else:
        num, den = z * f2 + f1, f1 + rho * z * f2
    return (complex(math.cos(xi), math.sin(xi)) * num / den).real - gamma * math.cos(xi)
