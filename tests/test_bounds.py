"""Tests for the closed-form reference bounds."""
from fractions import Fraction

import pytest

from energia.bounds import (
    BoundParams,
    alpha_beta,
    fourth_moment_bound,
    fourth_moment_crossover,
    hybrid_count_bound,
    interval_energy_bound,
)
from energia.ring import DomainError


def test_alpha_beta_frozen():
    p2 = alpha_beta(2)
    assert (p2.alpha, p2.beta) == (Fraction(1, 2), Fraction(1, 2))
    p3 = alpha_beta(3)
    assert (p3.alpha, p3.beta) == (Fraction(1, 5), Fraction(2, 5))
    p4 = alpha_beta(4)
    assert (p4.alpha, p4.beta) == (Fraction(1, 9), Fraction(1, 3))


def test_alpha_beta_invariants():
    for d in range(2, 12):
        p = alpha_beta(d)
        assert 0 < p.alpha <= p.beta < 1


def test_alpha_beta_is_computed_once_per_degree():
    assert alpha_beta(7) is alpha_beta(7)
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(DomainError):
            alpha_beta(1)


def test_params_validation():
    with pytest.raises(DomainError):
        alpha_beta(1)
    with pytest.raises(DomainError):
        BoundParams(5, Fraction(2, 3), Fraction(1, 3))  # alpha > beta
    with pytest.raises(DomainError):
        BoundParams(2, Fraction(0), Fraction(1, 2))
    with pytest.raises(DomainError):
        BoundParams(2, Fraction(1, 2), Fraction(1))


def test_interval_energy_bound_frozen():
    # powers of two, so the float arithmetic is exact here
    rec = interval_energy_bound(2, 2**20, 2**10)
    assert rec.value == 2**25
    assert rec.exponent_regime == "modulus-limited"

    rec2 = interval_energy_bound(2, 16, 16)
    assert rec2.value == pytest.approx(1024.0, rel=1e-12)
    assert rec2.exponent_regime == "interval-limited"


def test_interval_energy_branch_matches_min():
    params = alpha_beta(3)
    for m, H in [(100, 5), (1000, 30), (50, 50), (10**6, 10)]:
        rec = interval_energy_bound(3, m, H)
        a = (m / H) ** (-float(params.alpha))
        b = H ** (-float(params.beta))
        assert rec.value == pytest.approx(H**3 * min(a, b), rel=1e-12)
        want = "modulus-limited" if a <= b else "interval-limited"
        assert rec.exponent_regime == want


def test_interval_energy_monotone_in_H():
    prev = 0.0
    for H in range(1, 101):
        v = interval_energy_bound(2, 101, H).value
        assert v > prev
        prev = v


def test_fourth_moment_frozen():
    assert fourth_moment_bound(2, 3**6, 9) == pytest.approx(162.0, rel=1e-12)
    # constructed exact-power instances: m = t^3 gives m^(4/6) = t^2
    for t in (2, 3, 5):
        for H in (4, 10):
            m = t**3
            if H > m:
                continue
            want = H**4 / t**2 + H**2
            assert fourth_moment_bound(2, m, H) == pytest.approx(want, rel=1e-9)


def test_fourth_moment_crossover_balances_terms():
    for d, m in [(2, 512), (2, 10**6), (3, 2**24)]:
        Hc = fourth_moment_crossover(d, m)
        t1 = Hc**4 / m ** (4 / (d * (d + 1)))
        assert t1 == pytest.approx(Hc**2, rel=1e-9)
    assert fourth_moment_crossover(2, 8**3) == pytest.approx(8.0, rel=1e-12)


def test_fourth_moment_monotone_in_H():
    prev = 0.0
    for H in range(1, 200):
        v = fourth_moment_bound(3, 10**4, H)
        assert v > prev
        prev = v


def test_hybrid_frozen():
    # 16*16 / 64^(1/3) + 4*(4+4) = 64 + 32
    assert hybrid_count_bound(2, 2**6, 4, 4) == pytest.approx(96.0, rel=1e-9)
    # Z = 1 collapses to H^2/m^(1/3) + H + 1
    m = 27
    want = 25 / 3.0 + 6
    assert hybrid_count_bound(2, m, 5, 1) == pytest.approx(want, rel=1e-9)


def test_hybrid_term_shape():
    for d, m, H, Z in [(2, 100, 7, 3), (3, 10**5, 50, 9)]:
        v = hybrid_count_bound(d, m, H, Z)
        assert v >= Z * (H + Z)
        assert v >= H**2 * Z**2 / m ** (2 / (d * (d + 1)))


def test_bound_validation():
    with pytest.raises(DomainError):
        interval_energy_bound(2, 10, 11)  # H > m
    with pytest.raises(DomainError):
        interval_energy_bound(2, 1, 1)
    with pytest.raises(DomainError):
        interval_energy_bound(1, 10, 2)
    with pytest.raises(DomainError):
        fourth_moment_bound(2, 10, 0)
    with pytest.raises(DomainError):
        fourth_moment_crossover(1, 100)
    with pytest.raises(DomainError):
        hybrid_count_bound(2, 64, 4, 0)


def test_moduli_beyond_float_range_raise_domain_error():
    m = 10**320
    for call in (
        lambda: interval_energy_bound(2, m, 5),
        lambda: fourth_moment_bound(2, m, 5),
        lambda: fourth_moment_crossover(2, m),
        lambda: hybrid_count_bound(2, m, 5, 5),
    ):
        with pytest.raises(DomainError, match="too large for a float"):
            call()
    # a modulus that fits in a float keeps the float arithmetic
    assert fourth_moment_crossover(2, 10**300) == (10**300) ** (1 / 3)
    assert interval_energy_bound(2, 10**300, 5).value == 125 * (10**300 / 5) ** -0.5
