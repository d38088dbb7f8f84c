import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from energia.energy import (
    PAIR_DIFFERENCE,
    EnergyReport,
    energy_cross,
    energy_plus,
    energy_report,
    energy_T,
    energy_times,
    rep_function,
    set_energy_plus,
    set_energy_times,
    sumset_size,
)
from energia.ring import DomainError, Interval, PolyMod, image_set

import oracles


def test_worked_square_example():
    # f = X^2 mod 7 on {1,2,3}: values 1,4,2; image {1,2,4}
    f = PolyMod((0, 0, 1), 7)
    iv = Interval(3)
    assert image_set(f, iv) == {1, 2, 4}
    assert energy_T(f, iv) == 15
    assert energy_plus(f, iv) == 15
    assert sumset_size(f, iv) == 6
    rep = energy_report(f, iv)
    assert (rep.T, rep.sumset_size) == (15, 6)
    assert rep.K * 15 == 27


def test_rep_function_mass_and_lookup():
    f = PolyMod((0, 0, 1), 7)
    rep = rep_function(f, Interval(3))
    assert rep.mass() == 9
    assert rep[5] == 2  # 1+4 and 4+1
    assert rep[5 + 7] == 2
    diff = rep_function(f, Interval(3), PAIR_DIFFERENCE)
    assert diff[0] == 3
    with pytest.raises(DomainError):
        rep_function(f, Interval(3), "pair-product")


def test_report_invariants():
    with pytest.raises(DomainError):
        EnergyReport(7, 3, 15, 16, 1, 6, 1)


def _random_instance(rng):
    m = rng.randrange(2, 51)
    d = rng.randrange(1, 4)
    coeffs = [rng.randrange(m) for _ in range(d)] + [rng.randrange(1, m)]
    H = rng.randrange(1, min(12, m) + 1)
    return PolyMod(tuple(coeffs), m), H


def test_energies_match_quadruple_oracle():
    rng = random.Random(101)
    for _ in range(60):
        f, H = _random_instance(rng)
        iv = Interval(H)
        m = f.modulus
        assert energy_T(f, iv) == oracles.energy_T_quadruple(f.coeffs, m, H)
        img = sorted(image_set(f, iv))
        assert energy_plus(f, iv) == oracles.set_energy_plus_quadruple(img, m)
        assert energy_times(f, iv) == oracles.set_energy_times_quadruple(img, m)
        assert sumset_size(f, iv) == oracles.sumset_size_naive(f.coeffs, m, H)


def test_cross_energy_matches_oracle_and_specializes():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randrange(2, 40)
        A = {rng.randrange(m) for _ in range(rng.randrange(1, 8))}
        B = {rng.randrange(m) for _ in range(rng.randrange(1, 8))}
        assert energy_cross(A, B, m) == oracles.energy_cross_quadruple(sorted(A), sorted(B), m)
    # E(A, A) is the plain additive energy of the set
    A = {1, 3, 4}
    assert energy_cross(A, A, 11) == set_energy_plus(A, 11)


@given(st.integers(2, 40), st.data())
@settings(max_examples=60, deadline=None)
def test_cauchy_schwarz_chain(m, data):
    d = data.draw(st.integers(1, 3))
    coeffs = tuple(data.draw(st.integers(0, m - 1)) for _ in range(d)) + (
        data.draw(st.integers(1, m - 1)),
    )
    H = data.draw(st.integers(1, min(m, 10)))
    f = PolyMod(coeffs, m)
    iv = Interval(H)
    t = energy_T(f, iv)
    ss = sumset_size(f, iv)
    assert H**4 <= ss * t
    # mass identity: sum of R(lambda) is H^2, and T >= H^2 always
    assert t >= H * H


def test_prime_multiplicity_sandwich():
    rng = random.Random(2024)
    primes = [p for p in range(3, 200) if all(p % q for q in range(2, p))]
    for _ in range(50):
        p = rng.choice(primes)
        d = rng.choice((2, 3))
        coeffs = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
        f = PolyMod(tuple(coeffs), p)
        H = rng.randrange(1, p + 1)
        iv = Interval(H)
        t = energy_T(f, iv)
        ep = energy_plus(f, iv)
        assert ep <= t <= d**4 * ep


def test_set_energies_reject_small_modulus():
    with pytest.raises(DomainError):
        energy_cross({1}, {2}, 1)


def test_multiplicative_energy_unit_group():
    # squares of {1..4} mod 5 cover {1,4}; multiplicative energy of {1,4} mod 5
    assert set_energy_times({1, 4}, 5) == oracles.set_energy_times_quadruple([1, 4], 5)


# H = m puts every residue class in the interval; the composite moduli with
# high powers collide heavily
REPORT_CASES = [
    ((0, 0, 1), 7, 7),
    ((3, 1, 0, 1), 11, 11),
    ((0, 0, 1), 12, 12),
    ((0, 0, 0, 0, 1), 16, 16),
    ((1, 0, 2), 18, 13),
    ((0, 0, 0, 1), 9, 9),
    ((5, 0, 1), 1009, 17),
]


@pytest.mark.parametrize("coeffs, m, H", REPORT_CASES)
def test_report_matches_standalone_and_oracles(coeffs, m, H):
    f, iv = PolyMod(coeffs, m), Interval(H)
    img = sorted(image_set(f, iv))
    rep = energy_report(f, iv)
    assert rep.T == energy_T(f, iv) == oracles.energy_T_quadruple(coeffs, m, H)
    assert rep.energy_plus == energy_plus(f, iv) == oracles.set_energy_plus_quadruple(img, m)
    assert rep.energy_times == energy_times(f, iv) == oracles.set_energy_times_quadruple(img, m)
    assert rep.sumset_size == sumset_size(f, iv) == oracles.sumset_size_naive(coeffs, m, H)
    assert rep.K == Fraction(H**3, rep.T)


@pytest.mark.parametrize("coeffs, m, H", REPORT_CASES)
def test_rep_function_difference_matches_pair_count(coeffs, m, H):
    vals = [oracles.poly_mod(coeffs, x, m) for x in range(1, H + 1)]
    rep = rep_function(PolyMod(coeffs, m), Interval(H), PAIR_DIFFERENCE)
    assert rep.counts == dict(Counter((a - b) % m for a in vals for b in vals))
    assert rep.mass() == H * H
