import math
import random
import re
import time

import pytest
from hypothesis import given, strategies as st

from energia import bounds, charsum, energy, eqcount, lattice, sweep, vinogradov
from energia.ring import (
    BudgetExceeded,
    DomainError,
    Factorization,
    Interval,
    PolyMod,
    _strong_lucas,
    centered,
    eval_poly,
    factorize,
    image_set,
    int_poly_eval,
    ints_from_string,
    inv_mod,
    is_probable_prime,
    poly_from_string,
    poly_table,
    poly_values,
    primes_up_to,
    to_fraction,
)
from energia.bounds import fourth_moment_crossover
from energia.charsum import RegimeParams, xi_threshold
from energia.lattice import DualBody, WeightedBox, fractional_measure

from oracles import poly_mod


def test_polymod_reduces_coefficients():
    f = PolyMod((7, -1, 15), 7)
    assert f.coeffs == (0, 6, 1)
    assert f.degree == 2


def test_polymod_rejects_vanishing_lead():
    with pytest.raises(DomainError):
        PolyMod((1, 7), 7)
    with pytest.raises(DomainError):
        PolyMod((3,), 5)
    with pytest.raises(DomainError):
        PolyMod((0, 1), 1)


def test_leading_unit_predicate():
    assert PolyMod((0, 0, 3), 10).leading_is_unit()
    assert not PolyMod((0, 0, 2), 10).leading_is_unit()


@given(st.lists(st.integers(-50, 50), min_size=2, max_size=5),
       st.integers(2, 97), st.integers(-30, 30))
def test_eval_matches_naive(coeffs, m, x):
    if coeffs[-1] % m == 0:
        coeffs[-1] = 1
    f = PolyMod(tuple(coeffs), m)
    assert f(x) == poly_mod(coeffs, x, m)
    assert eval_poly(f, x) == f(x)


def test_poly_table_matches_horner_on_both_sides_of_its_size_rule():
    rng = random.Random(7)
    for m in (2, 4, 6, 1009, 10**30, None):
        for d in range(1, 13):
            ns = {1, d, d + 1, 3 * d + 5, 8 * (d + 1), 8 * (d + 1) + 1, 40 * (d + 1)}
            if m is not None and m <= 1009:
                ns.add(m)
            for start in (0, 1, -7):
                for n in sorted(ns):
                    cs = [rng.randint(-10**40, 10**40) for _ in range(d)] + [rng.randint(1, 10**40)]
                    if m is None:
                        want = [int_poly_eval(cs, x) for x in range(start, start + n)]
                    else:
                        if cs[-1] % m == 0:
                            cs[-1] += 1
                        f = PolyMod(tuple(cs), m)
                        want = [eval_poly(f, x) for x in range(start, start + n)]
                    assert poly_table(cs, start, n, m) == want, (m, d, start, n)


def test_poly_values_of_huge_degree_answers_at_once():
    f = PolyMod((1,) * 3001, 7)
    t0 = time.perf_counter()
    assert poly_values(f, Interval(3)) == [poly_mod(f.coeffs, x, 7) for x in (1, 2, 3)]
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(DomainError):
        poly_values(f, Interval(8))


def test_interval_iteration():
    assert list(Interval(4)) == [1, 2, 3, 4]
    assert len(Interval(7)) == 7
    with pytest.raises(DomainError):
        Interval(0)


def test_image_set_domain_check():
    f = PolyMod((0, 1), 5)
    assert image_set(f, Interval(5)) == {0, 1, 2, 3, 4}
    with pytest.raises(DomainError):
        image_set(f, Interval(6))
    with pytest.raises(DomainError):
        poly_values(f, Interval(6))


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@given(st.integers(-10**6, 10**6).filter(lambda n: n != 0))
def test_factorize_multiplies_back(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.factors:
        assert is_probable_prime(p)
        prod *= p**e
    assert prod == abs(n)


def test_factorization_invariants():
    with pytest.raises(DomainError):
        factorize(0)
    with pytest.raises(DomainError):
        Factorization(12, ((2, 1), (3, 1)))  # 6 != 12
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(-12).factors == ((2, 2), (3, 1))


@given(st.integers(-100, 100), st.integers(2, 50))
def test_centered_representative(x, m):
    r = centered(x, m)
    assert (r - x) % m == 0
    assert -m / 2 < r <= m / 2


def test_inv_mod():
    assert inv_mod(3, 7) == 5
    with pytest.raises(DomainError):
        inv_mod(6, 9)


def test_probable_prime_against_sieve():
    sieve = set(primes_up_to(2000))
    for n in range(2000):
        assert is_probable_prime(n) == (n in sieve)


PSI_13 = 3317044064679887385961981  # least strong pseudoprime to every prime base <= 41


def test_probable_prime_is_baillie_psw_beyond_psi_13():
    assert PSI_13 == 1287836182261 * 2575672364521
    assert not is_probable_prime(PSI_13)
    for e in (89, 107, 127):
        assert is_probable_prime(2**e - 1)
    for e in (67, 101, 103):  # composite Mersenne numbers
        assert not is_probable_prime(2**e - 1)
    assert not is_probable_prime((2**89 - 1) * (2**107 - 1))


def test_probable_prime_against_sieve_below_1e5():
    sieve = primes_up_to(10**5)
    assert [n for n in range(10**5) if is_probable_prime(n)] == sieve


# psi_k (OEIS A014233) for the k where it grows: the least strong pseudoprime
# to each of the first k prime bases
PSI = {1: 2047, 2: 1373653, 3: 25326001, 4: 3215031751, 5: 2152302898747, 6: 3474749660383,
       7: 341550071728321, 9: 3825123056546413051, 12: 318665857834031151167461, 13: PSI_13}
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def test_probable_prime_bases_sized_to_n_match_trial_division():
    # below 2e5 is_probable_prime tests one base up to 2046, two from 2047 on
    n_max = 2 * 10**5
    prime = bytearray([1]) * n_max
    prime[:2] = b"\0\0"
    for p in range(2, math.isqrt(n_max) + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, n_max, p)))
    assert [n for n in range(n_max) if is_probable_prime(n)] == [n for n in range(n_max) if prime[n]]


def test_probable_prime_refuses_every_psi_k():
    # psi_k passes Miller-Rabin to the first k bases (psi_7 and psi_9 to the
    # bases up to the next listed k), so it is refused only if n = psi_k takes
    # the bases of the next listed k (psi_13 the strong Lucas test)
    psis = sorted(PSI.items())
    for (k, psi), (k_next, _) in zip(psis, psis[1:] + [(14, None)]):
        assert all(_strong_probable_prime(psi, a) for a in FIRST_PRIMES[: k_next - 1]), k
        assert not is_probable_prime(psi), k


def test_strong_lucas_test():
    sieve = set(primes_up_to(10**5))
    # the strong Lucas pseudoprimes below 2e4 (OEIS A217255)
    assert [n for n in range(3, 20000, 2) if _strong_lucas(n) and n not in sieve] == [
        5459, 5777, 10877, 16109, 18971,
    ]
    # with Miller-Rabin to base 2 it is the Baillie-PSW test, exact this far
    for n in range(3, 10**5, 2):
        assert (_strong_probable_prime_base_2(n) and _strong_lucas(n)) == (n in sieve), n


def _strong_probable_prime_base_2(n):
    return _strong_probable_prime(n, 2)


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_parsers():
    f = poly_from_string("0, 0, 1", 7)
    assert f.coeffs == (0, 0, 1)
    assert ints_from_string("1, -2,3") == (1, -2, 3)
    with pytest.raises(DomainError):
        poly_from_string("1,x", 7)
    with pytest.raises(DomainError):
        ints_from_string("a,b")


@pytest.mark.parametrize("call", [
    pytest.param(lambda: to_fraction(0.5), id="float"),
    pytest.param(lambda: to_fraction("1/0"), id="zero-denominator"),
    pytest.param(lambda: to_fraction("x"), id="malformed"),
    pytest.param(lambda: to_fraction(None), id="none"),
    pytest.param(lambda: WeightedBox(("1/0",)), id="box-zero-denominator"),
    pytest.param(lambda: DualBody(("1/2", 0.25)), id="cross-float"),
    pytest.param(lambda: fractional_measure([[1]], ["1/0"]), id="eps-zero-denominator"),
    pytest.param(lambda: xi_threshold(2, "1/0"), id="zeta-zero-denominator"),
    pytest.param(lambda: RegimeParams("x", "1/3", 2), id="zeta-malformed"),
    pytest.param(lambda: RegimeParams("1/4", 0.3, 2), id="xi-float"),
])
def test_bad_rationals_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: eqcount.regime_constant(2, 0), "denominator cap must be positive", id="cap-0"),
    pytest.param(lambda: eqcount.regime_constant(2, 1), "denominator cap too small", id="cap-1"),
    pytest.param(lambda: vinogradov.count_I(2, 2, 0, (0, 0)), "H must be >= 1, got 0", id="count-I-H-0"),
    pytest.param(lambda: vinogradov.check_J_bound(2, H_values=(0,)), "H must be >= 1, got 0", id="slope-H-0"),
    pytest.param(lambda: charsum.BilinearInstance((), (), 1, (1,)), "residue set must be nonempty", id="no-residues"),
    pytest.param(lambda: charsum.BilinearInstance((1, 2), (1,), 1, (1,)), "one alpha weight per residue", id="short-alpha"),
    pytest.param(
        lambda: charsum.prime_bilinear_sum(charsum.CharTable.build(7), PolyMod((0, 1), 11), 3, 3),
        "polynomial modulus 11 does not match the table's 7", id="moduli-differ",
    ),
    pytest.param(lambda: RegimeParams("1/4", "1/3", 2, r=0), "r must be a positive integer", id="r-0"),
    pytest.param(lambda: fourth_moment_crossover(2, 1), "modulus must be >= 2", id="crossover-m-1"),
    pytest.param(lambda: Factorization(0, ()), "zero has no factorization", id="factor-0"),
    pytest.param(lambda: Factorization(6, ((3, 1), (2, 1))), "primes must be strictly increasing", id="factor-order"),
    # one rule for every degree, modulus and interval length: an int, not a bool, at its floor
    pytest.param(lambda: bounds.fourth_moment_bound(0, 10, 5), "degree must be >= 2, got 0", id="fourth-d-0"),
    pytest.param(lambda: bounds.hybrid_count_bound(-1, 10, 5, 3), "degree must be >= 2, got -1", id="hybrid-d-neg"),
    pytest.param(lambda: bounds.interval_energy_bound(2.5, 10, 5), "degree must be an integer, got 2.5", id="energy-bound-d-float"),
    pytest.param(lambda: xi_threshold(2.5, 1), "degree must be an integer, got 2.5", id="xi-d-float"),
    pytest.param(lambda: fourth_moment_crossover(2.5, 10), "degree must be an integer, got 2.5", id="crossover-d-float"),
    pytest.param(lambda: eqcount.regime_constant(2.5), "degree must be an integer, got 2.5", id="cap-d-float"),
    pytest.param(lambda: energy.set_energy_plus([1, 2], 7.0), "modulus must be an integer, got 7.0", id="set-plus-m-float"),
    pytest.param(lambda: energy.set_energy_times([1, 2], 7.0), "modulus must be an integer, got 7.0", id="set-times-m-float"),
    pytest.param(lambda: energy.additive_stats([1, 2], 7.0), "modulus must be an integer, got 7.0", id="stats-m-float"),
    pytest.param(lambda: energy.energy_cross([1], [2], 7.0), "modulus must be an integer, got 7.0", id="cross-m-float"),
    pytest.param(lambda: lattice.congruence_lattice([1, 2], 7.5), "modulus must be an integer, got 7.5", id="congruence-m-float"),
    pytest.param(lambda: eqcount.count_eq((0, 0, 1), 3, 2.5), "H must be an integer, got 2.5", id="count-eq-H-float"),
    pytest.param(lambda: vinogradov.count_I(2, 2, 2.5, (0, 0)), "H must be an integer, got 2.5", id="count-I-H-float"),
    pytest.param(lambda: eqcount.brute_congruence(PolyMod((0, 0, 1), 7), 1, 2.5), "H must be an integer, got 2.5", id="brute-H-float"),
    pytest.param(lambda: eqcount.count_symmetric_eq((0, 0, 1), 2.5), "H must be an integer, got 2.5", id="sym-H-float"),
    pytest.param(lambda: vinogradov.check_J_bound(2, H_values=(2.5,)), "H must be an integer, got 2.5", id="slope-H-float"),
    pytest.param(lambda: charsum.BilinearInstance.uniform((1, 2), 2.5), "H must be an integer, got 2.5", id="uniform-H-float"),
    pytest.param(lambda: sweep.run_cell(2, 0, 3, 0), "modulus must be >= 2, got 0", id="cell-m-0"),
    pytest.param(lambda: eqcount.count_eq((0, 0, 1), 3, True), "H must be an integer, got True", id="count-eq-H-bool"),
])
def test_invalid_inputs_raise_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6), st.integers(-9, 9))
def test_int_poly_eval(coeffs, x):
    assert int_poly_eval(coeffs, x) == sum(c * x**j for j, c in enumerate(coeffs))


# --- one refusal format for every budget ---

REFUSAL = re.compile(
    r"[\w -]+: (\d+|at least 2\^\d+) [\w -]+ exceed the budget \(\w+ = (\d+|at least 2\^\d+)\)"
)


@pytest.mark.parametrize("stage, call", [
    ("energy_plus", lambda: energy.energy_plus(PolyMod((0, 0, 1), 10**9 + 7), Interval(300000))),
    ("brute_congruence", lambda: eqcount.brute_congruence(PolyMod((0, 0, 1), 10**9 + 7), 1, 10, budget=9)),
    ("count_eq", lambda: eqcount.count_eq((0, 0, 1), 0, 10**8)),
    ("a bilinear sum", lambda: charsum.BilinearInstance.uniform(range(1, 10**12 + 1), 10**12)),
    ("a discrete-log table", lambda: charsum.CharTable.build(charsum.TABLE_BUDGET + 3)),
    ("count_J", lambda: vinogradov.count_J(1, 10**7, (1, 2, 3))),
    ("count_I", lambda: vinogradov.count_I(10**4, 1, 3, (0,) * 10**4)),
    ("factorize", lambda: factorize((10**6 + 3) * (10**6 + 33))),
    ("lattice enumeration", lambda: lattice.count_lattice_points(
        lattice.IntLattice(((1, 0), (0, 1))), WeightedBox((100, 100)), budget=10)),
    ("regime_constant", lambda: eqcount.regime_constant(10**6)),
])
def test_every_budget_refuses_in_one_format_at_once(stage, call):
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        call()
    assert time.perf_counter() - t0 < 1.0
    msg = str(info.value)
    assert msg.startswith(f"{stage}: ") and REFUSAL.fullmatch(msg), msg
