import cmath
import math
import random
from fractions import Fraction

import pytest

from energia.charsum import (
    AdmissibleRecord,
    BilinearInstance,
    CharTable,
    RegimeParams,
    admissible_exponents,
    bilinear_energy_bound,
    bilinear_W,
    char_eval,
    complete_sum_poly,
    prime_bilinear_sum,
    smallest_primitive_root,
    weil_admissible,
    xi_threshold,
)
from energia import charsum
from energia.ring import BudgetExceeded, DomainError, PolyMod, primes_up_to

from oracles import complete_sum_horner, prime_bilinear_two_pass


def test_primitive_roots():
    assert smallest_primitive_root(5) == 2
    assert smallest_primitive_root(7) == 3
    assert smallest_primitive_root(41) == 6
    with pytest.raises(DomainError):
        smallest_primitive_root(8)


def test_char_table_basics():
    t = CharTable.build(5)
    assert t.order == 2  # Legendre symbol by default
    assert char_eval(t, 0) == 0j
    assert abs(char_eval(t, 4) - 1) < 1e-12  # 4 = 2^2 is a QR
    assert abs(char_eval(t, 2) + 1) < 1e-12
    with pytest.raises(DomainError):
        CharTable.build(5, 0)
    with pytest.raises(DomainError):
        CharTable.build(9)


def test_multiplicativity_exhaustive_small():
    for p in (3, 5, 7, 11, 13):
        for k in (1, 2, (p - 1) // 2):
            if k % (p - 1) == 0:
                continue
            t = CharTable.build(p, k)
            for x in range(1, p):
                for y in range(1, p):
                    lhs = t.exponent(x * y)
                    rhs = (t.exponent(x) + t.exponent(y)) % (p - 1)
                    assert lhs == rhs


def test_orthogonality():
    rng = random.Random(12)
    for _ in range(20):
        p = rng.choice([q for q in primes_up_to(500) if q > 2])
        k = rng.randrange(1, p - 1)
        t = CharTable.build(p, k)
        total = sum(char_eval(t, x) for x in range(1, p))
        assert abs(total) <= 1e-9


def test_weil_frozen():
    t = CharTable.build(7)
    rec = complete_sum_poly(t, PolyMod((0, 1), 7))
    assert rec.magnitude <= 1e-9  # orthogonality through a linear polynomial
    rec2 = complete_sum_poly(t, PolyMod((1, 0, 1), 7))
    assert rec2.admissible is True
    assert rec2.magnitude <= rec2.bound + 1e-6
    # direct 7-term evaluation as an oracle
    direct = sum(char_eval(t, (x * x + 1) % 7) for x in range(7))
    assert abs(rec2.value - direct) < 1e-9


def test_complete_sum_matches_horner_oracle():
    rng = random.Random(13)
    odd = [q for q in primes_up_to(3000) if q > 2]
    cases = [(p, None, None) for p in [3, 5, 7, odd[-1]] + rng.sample(odd, 16)]
    cases += [(3, (0, -1, 0, 1), 0), (5, (0, -1, 0, 0, 0, 1), 0)]  # x^p - x vanishes on all of Z/p
    cases += [(5, (1, 0, 0, 0, -1), 1), (7, (1, 0, 0, 0, 0, 0, -1), 1)]  # 1 - x^(p-1) is 0 but at x = 0
    for p, coeffs, value in cases:
        ks = [(p - 1) // 2, 1] + ([(p - 1) // 3] if (p - 1) % 3 == 0 else [])  # orders 2, p - 1, 3
        for k in ks:
            t = CharTable.build(p, k)
            if coeffs is None:
                d = rng.randint(1, 6)
                f = PolyMod(tuple(rng.randrange(p) for _ in range(d)) + (rng.randrange(1, p),), p)
            else:
                f = PolyMod(coeffs, p)
            rec = complete_sum_poly(t, f)
            assert rec == complete_sum_horner(t, f), (p, k, f.coeffs)
            if value is not None:
                assert rec.value == value


def test_complete_sum_classes_match_horner_oracle_bit_for_bit():
    # orders r = 2, 3, (p - 1)/2 and p - 1, and polynomials with roots (a
    # zero value falls in the extra class r) or without
    rng = random.Random("complete sum classes")
    odd = [q for q in primes_up_to(2000) if q > 3 and (q - 1) % 3 == 0]
    for p in [7, 13, 19] + rng.sample(odd, 6):
        for k in ((p - 1) // 2, (p - 1) // 3, 2, 1):
            t = CharTable.build(p, k)
            assert t.order == {(p - 1) // 2: 2, (p - 1) // 3: 3, 2: (p - 1) // 2, 1: p - 1}[k]
            roots = rng.sample(range(p), rng.randint(0, 3))
            f = [rng.randrange(1, p)]
            for a in roots:  # f (x - a) for each root a
                f = [(lo - a * hi) % p for lo, hi in zip([0] + f, f + [0])]
            f = PolyMod(tuple(f) if roots else (rng.randrange(p), rng.randrange(p), 1), p)
            rec, want = complete_sum_poly(t, f), complete_sum_horner(t, f)
            assert rec == want, (p, k, f.coeffs)
            assert [x.hex() for x in (rec.value.real, rec.value.imag, rec.magnitude)] == [
                x.hex() for x in (want.value.real, want.value.imag, want.magnitude)]


def test_weil_admissibility_detects_squares():
    t = CharTable.build(11)
    # (x+1)^2 = x^2 + 2x + 1 has zero discriminant: not admissible
    assert weil_admissible(t, (1, 2, 1)) is False
    assert weil_admissible(t, (1, 0, 1)) is True
    assert weil_admissible(t, (0, 1)) is True  # degree not divisible by the order
    # chi of a perfect square sums to p - (number of roots), far beyond sqrt(p)
    rec = complete_sum_poly(t, PolyMod((1, 2, 1), 11))
    assert rec.within_bound is None
    assert abs(rec.value - 10) < 1e-9


def test_weil_modulus_mismatch():
    t = CharTable.build(7)
    with pytest.raises(DomainError):
        complete_sum_poly(t, PolyMod((0, 1), 11))


def test_bilinear_instance_validation():
    with pytest.raises(DomainError):
        BilinearInstance((1, 1), (1, 1), 2, (1, 1))
    with pytest.raises(DomainError):
        BilinearInstance((1,), (2,), 1, (1,))  # |alpha| > 1
    with pytest.raises(DomainError):
        BilinearInstance((1,), (1,), 2, (1,))  # beta length mismatch


def test_bilinear_frozen():
    t = CharTable.build(11)
    inst = BilinearInstance.uniform((1, 2), 3)
    rec = bilinear_W(t, inst)
    # chi over QRs {1,3,4,5,9}: chi(2)+chi(3)+chi(4) + chi(3)+chi(4)+chi(5) = 1 + 3
    assert abs(rec.value - 4) < 1e-9
    assert rec.trivial == 6
    zero = BilinearInstance((0,), (1,), 10, (0,) * 10)
    assert bilinear_W(t, zero).magnitude == 0


def test_bilinear_zero_residue_full_interval():
    p = 13
    t = CharTable.build(p)
    inst = BilinearInstance.uniform((0,), p - 1)
    assert bilinear_W(t, inst).magnitude <= 1e-9  # plain orthogonality


def test_prime_bilinear():
    t = CharTable.build(101)
    f = PolyMod((0, 0, 1), 101)
    rec = prime_bilinear_sum(t, f, 10, 10)
    assert rec.primes_q == rec.primes_r == 4
    # oracle: direct 4x4 grid
    qs = rs = [2, 3, 5, 7]
    by_q = sum(abs(sum(char_eval(t, q * q + r) for r in rs)) for q in qs)
    assert abs(rec.by_q - by_q) < 1e-9
    assert rec.ratio_pairs <= 1 + 1e-12
    assert rec.ratio_trivial <= rec.ratio_pairs
    empty = prime_bilinear_sum(t, f, 1, 10)
    assert empty.by_q == empty.by_r == 0.0 and empty.saving is None
    with pytest.raises(DomainError):
        prime_bilinear_sum(t, f, 101, 10)


def test_prime_bilinear_matches_two_pass_oracle():
    # the one pass adds every row and every column in the oracle's order, so
    # whole records, floats included, must be equal
    rng = random.Random(14)
    ps = [11, 13, 101, 1009, 9973] + rng.sample([q for q in primes_up_to(10**4) if q > 13], 6)
    for p in ps:
        ks = [(p - 1) // 2, 1, rng.randrange(1, p - 1)]  # orders 2, p - 1 and a random one
        for k in ks:
            t = CharTable.build(p, k)
            d = rng.randint(1, 4)
            f = PolyMod(tuple(rng.randrange(p) for _ in range(d)) + (rng.randrange(1, p),), p)
            top = min(p - 1, 300)
            sizes = [(1, top), (top, 1), (2, 2), (rng.randint(1, top), rng.randint(1, top)), (top, top)]
            for Q, R in sizes:
                rec = prime_bilinear_sum(t, f, Q, R)
                assert rec == prime_bilinear_two_pass(t, f, Q, R), (p, k, f.coeffs, Q, R)


def _bilinear_per_term(table, inst):
    """W summed term by term with table.value, in bilinear_W's order."""
    total = 0j
    for s, ca in zip(inst.residues, inst.alpha):
        if ca == 0:
            continue
        inner = 0j
        for x, cb in enumerate(inst.beta, start=1):
            if cb == 0:
                continue
            inner += cb * table.value(s + x)
        total += ca * inner
    return total


def test_bilinear_matches_per_term_values():
    # W must equal the per-term table.value sum exactly, floats included
    rng = random.Random(15)
    for p in (11, 13, 101, 1009):
        for k in ((p - 1) // 2, 1, rng.randrange(1, p - 1)):
            t = CharTable.build(p, k)
            rs = tuple(rng.sample(range(p), rng.randint(1, min(p, 40))))
            H = rng.randint(1, 2 * p)
            alpha = tuple(rng.choice((0, 1, -1, 0.5j, cmath.exp(1j * rng.random()))) for _ in rs)
            beta = tuple(rng.choice((0, 1, 1j, cmath.exp(2j * rng.random()))) for _ in range(H))
            inst = BilinearInstance(rs, alpha, H, beta)
            rec = bilinear_W(t, inst)
            assert rec.value == _bilinear_per_term(t, inst), (p, k)
            assert rec.magnitude == abs(rec.value)


def test_energy_driven_bound():
    rec = bilinear_energy_bound(100, 100, 10**4, 10**4, 2)
    expect = 10**4 * 11.01 ** (1 / 8) + 1000
    assert abs(rec.bound - expect) < 1e-9
    assert rec.main_terms == (0.01, 10.0, 1.0)
    assert rec.flags["S^2 H <= p^2"] is True
    assert rec.flags["H^2 < p"] is False  # 10^4 is not < 10^4: reported, not hidden
    # monotone in the energy
    bigger = bilinear_energy_bound(100, 100, 10**4, 10**6, 2)
    assert bigger.bound > rec.bound
    # S = 1 keeps the secondary term H
    tiny = bilinear_energy_bound(1, 50, 10**4, 1, 2)
    assert tiny.bound >= 50
    with pytest.raises(DomainError):
        bilinear_energy_bound(0, 1, 5, 1, 1)


def test_xi_thresholds():
    assert xi_threshold(2, Fraction(1, 4)) == Fraction(3, 10)
    assert xi_threshold(3, Fraction(1, 4)) == Fraction(1, 3)
    with pytest.raises(DomainError):
        xi_threshold(1, Fraction(1, 4))


def test_admissible_region():
    ok = admissible_exponents(RegimeParams(Fraction(1, 4), Fraction(1, 3), 2))
    assert ok.ok
    # just above the threshold is admissible, the threshold itself is not
    at = admissible_exponents(RegimeParams(Fraction(1, 4), Fraction(3, 10), 2))
    assert not at.ok
    bad = admissible_exponents(RegimeParams(Fraction(1, 4), Fraction(29, 100), 2))
    assert not bad.ok
    assert bad.slacks["zeta + 5 xi / 2 > 1"] < 0
    # the weak caps bite at xi > 1/2
    capped = admissible_exponents(RegimeParams(Fraction(1, 2), Fraction(3, 5), 2))
    assert not capped.ok


def test_regime_params_validation():
    with pytest.raises(DomainError):
        RegimeParams(Fraction(0), Fraction(1, 3), 2)
    with pytest.raises(DomainError):
        RegimeParams(Fraction(1, 4), Fraction(1, 3), 1)
    with pytest.raises(DomainError):
        RegimeParams(0.25, Fraction(1, 3), 2)
    with pytest.raises(DomainError):
        RegimeParams(Fraction(1, 4), Fraction(1, 3), 2, delta=Fraction(0))
    params = RegimeParams("1/4", "1/3", 3, r=2, delta="1/100")
    assert params.zeta == Fraction(1, 4)
    assert params.delta == Fraction(1, 100)


def test_table_budget():
    t = CharTable.build(100003)  # the factoring and table budgets leave p ~ 1e5 alone
    assert t.dlog[t.generator] == 1 and sorted(t.dlog[1:]) == list(range(100002))
    with pytest.raises(BudgetExceeded, match="budget"):
        CharTable.build(charsum.TABLE_BUDGET + 3)  # a prime; refused before allocating


def test_sum_budget(monkeypatch):
    t = CharTable.build(101)
    f = PolyMod((0, 0, 1), 101)
    # priced from the sizes alone: neither side of 10^24 terms is ever built
    with pytest.raises(BudgetExceeded, match="SUM_BUDGET"):
        BilinearInstance.uniform(range(1, 10**12 + 1), 10**12)
    with pytest.raises(DomainError, match="nonempty"):
        BilinearInstance.uniform(range(1, 1), 10**12)
    inst = BilinearInstance.uniform((1, 2), 3)
    monkeypatch.setattr(charsum, "SUM_BUDGET", 5)
    with pytest.raises(BudgetExceeded, match="6 character evaluations"):
        bilinear_W(t, inst)
    with pytest.raises(BudgetExceeded):
        BilinearInstance.uniform((1, 2), 3)
    # pi(10) = 4 on each side and two orders: 32 evaluations
    with pytest.raises(BudgetExceeded, match="32 character evaluations"):
        prime_bilinear_sum(t, f, 10, 10)
    monkeypatch.setattr(charsum, "SUM_BUDGET", 32)
    assert prime_bilinear_sum(t, f, 10, 10).primes_q == 4
    assert (bilinear_W(t, inst).rows, bilinear_W(t, inst).cols) == (2, 3)
