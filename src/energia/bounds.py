"""Closed-form reference bounds for interval energies of polynomial images.

Exponents are exact rationals; the bound values themselves are floats since
the exponents are generically irrational powers of the inputs.  Inputs too
large for a float (m beyond about 1.8e308) raise DomainError.
"""
from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .ring import DomainError, _whole


def _float_bound(fn):
    """fn, with the OverflowError of an input too large for a float raised as DomainError."""

    @functools.wraps(fn)
    def bound(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise DomainError(f"{fn.__name__}: an input is too large for a float ({exc})") from None

    return bound


@dataclass(frozen=True)
class BoundParams:
    """The two saving exponents alpha = 2/(d^2+d-2), beta = 2/(d+2)."""

    d: int
    alpha: Fraction
    beta: Fraction

    def __post_init__(self) -> None:
        if not (0 < self.alpha < 1 and 0 < self.beta < 1):
            raise DomainError("exponents must lie strictly between 0 and 1")
        if self.alpha > self.beta:
            raise DomainError("alpha must not exceed beta")


@functools.lru_cache(maxsize=16, typed=True)  # typed: a cached 2 never answers for 2.0 or True
def alpha_beta(d: int) -> BoundParams:
    _whole("degree", d, 2)
    return BoundParams(d, Fraction(2, d * d + d - 2), Fraction(2, d + 2))


@dataclass(frozen=True)
class EnergyBound:
    value: float
    exponent_regime: str  # which branch of the min was active


@_float_bound
def interval_energy_bound(d: int, m: int, H: int) -> EnergyBound:
    """H^3 * min((m/H)^-alpha, H^-beta): the two-regime energy saving."""
    if m < 2 or H < 1 or H > m:
        raise DomainError("need 1 <= H <= m and m >= 2")
    params = alpha_beta(d)
    a = (m / H) ** (-float(params.alpha))
    b = H ** (-float(params.beta))
    if a <= b:
        return EnergyBound(H**3 * a, "modulus-limited")
    return EnergyBound(H**3 * b, "interval-limited")


@_float_bound
def fourth_moment_bound(d: int, m: int, H: int) -> float:
    """H^4 / m^(4/(d(d+1))) + H^2: the mean-value bound for the full energy T."""
    if m < 2 or H < 1 or H > m:
        raise DomainError("need 1 <= H <= m and m >= 2")
    _whole("degree", d, 2)
    return H**4 / m ** (4 / (d * (d + 1))) + H**2


@_float_bound
def fourth_moment_crossover(d: int, m: int) -> float:
    """H where the two terms of the fourth-moment bound balance: m^(2/(d(d+1)))."""
    _whole("modulus", m, 2)
    _whole("degree", d, 2)
    return m ** (2 / (d * (d + 1)))


@_float_bound
def hybrid_count_bound(d: int, m: int, H: int, Z: int) -> float:
    """H^2 Z^2 / m^(2/(d(d+1))) + Z (H + Z): solutions weighted by a set of size Z."""
    if m < 2 or H < 1 or Z < 1:
        raise DomainError("need positive H, Z and m >= 2")
    _whole("degree", d, 2)
    return H**2 * Z**2 / m ** (2 / (d * (d + 1))) + Z * (H + Z)


def _slope(points: Sequence[tuple[float, float]]) -> Optional[float]:
    """The least-squares slope of (x, y) points, None unless two x differ."""
    xs = [p[0] for p in points]
    if len(points) < 2 or len(set(xs)) < 2:
        return None
    return statistics.linear_regression(xs, [p[1] for p in points]).slope
