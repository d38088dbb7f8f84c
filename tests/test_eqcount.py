import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from energia.eqcount import (
    BRUTE_BUDGET,
    SymmetricCount,
    _eq_by_shifts,
    _eq_by_table,
    _roots_in,
    brute_congruence,
    count_congruence,
    count_eq,
    count_symmetric_eq,
    in_regime,
    integer_roots,
    poly_shift_coeffs,
    regime_constant,
)
from energia.ring import BudgetExceeded, DomainError, PolyMod, is_probable_prime

import energia.eqcount as eqcount_module
import oracles


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=5), st.integers(-6, 6))
def test_poly_shift(coeffs, t):
    shifted = poly_shift_coeffs(coeffs, t)
    for x in range(-4, 5):
        assert oracles.poly_int(shifted, x) == oracles.poly_int(coeffs, x + t)


def test_integer_roots():
    assert integer_roots((-6, 1, 1)) == {2, -3}  # x^2 + x - 6
    assert integer_roots((0, 0, 1)) == {0}
    assert integer_roots((0, -4, 0, 1)) == {0, 2, -2}
    assert integer_roots((1, 0, 1)) == set()
    # (2x + 1)(x - 2): the root 2 exceeds max|a_i| / |a_d| = 3/2, not the Cauchy bound
    assert integer_roots((-2, -3, 2)) == {2}
    with pytest.raises(DomainError):
        integer_roots((0, 0, 0))


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_root_isolation_matches_exhaustive_scan():
    # clustered and repeated integer roots, plus irreducible factors whose
    # real roots fall between neighbouring integers
    rng = random.Random(38)
    for _ in range(3000):
        f = [rng.choice((-3, -2, -1, 1, 2, 3))]
        centre = rng.randrange(-40, 40)
        for _ in range(rng.randrange(6)):
            if rng.random() < 0.7:
                f = _times(f, [-(centre + rng.randrange(-2, 3)), 1])
            else:
                f = _times(f, [rng.randrange(-30, 31), rng.randrange(-4, 5) or 1])
        lo = rng.randrange(-60, 60)
        hi = lo + rng.randrange(-2, 90)
        want = [x for x in range(lo, hi + 1) if oracles.poly_int(f, x) == 0]
        assert _roots_in(f, lo, hi) == want, (f, lo, hi)
    # 2(x-38)(x-39)^2: the double root is an end of a unit piece of f'
    f = _times([2], _times([-38, 1], _times([-39, 1], [-39, 1])))
    assert _roots_in(f, 0, 100) == [38, 39]
    assert _roots_in(f, 39, 39) == [39]
    assert _roots_in(f, 38, 37) == []
    assert _roots_in([-7, 2], -10, 10) == [] and _roots_in([-8, 2], -10, 10) == [4]
    assert _roots_in([5], -10, 10) == [] and _roots_in([5], 3, 3) == []
    assert _roots_in([0, 0, 1], -(10**30), 10**30) == [0]


def test_count_eq_frozen():
    # n^2 - m^2 = 3 on [1,5]: only (2,1)
    assert count_eq((0, 0, 1), 3, 5) == 1
    # diagonal only for target 0 on injective range
    assert count_eq((0, 0, 1), 0, 5) == 5
    # cubic with symmetry: n^3 - n = m^3 - m has off-diagonal pairs in [1,4]? none
    count, sols = count_eq((0, -1, 0, 1), 0, 4, collect=True)
    assert count == len(sols)


def test_count_eq_matches_pair_oracle():
    rng = random.Random(31)
    for _ in range(120):
        d = rng.randrange(2, 5)
        coeffs = [rng.randrange(-8, 9) for _ in range(d)] + [rng.choice((-2, -1, 1, 2, 3))]
        H = rng.randrange(1, 30)
        n0, m0 = rng.randrange(1, H + 1), rng.randrange(1, H + 1)
        w = oracles.poly_int(coeffs, n0) - oracles.poly_int(coeffs, m0)
        want, pairs = oracles.count_eq_pairs(coeffs, w, H)
        got, sols = count_eq(coeffs, w, H, collect=True)
        assert got == want
        assert sorted(sols) == sorted(pairs)
        # off-target value too
        w2 = rng.randrange(-50, 51)
        assert count_eq(coeffs, w2, H) == oracles.count_eq_pairs(coeffs, w2, H)[0]


def test_count_eq_non_injective_shape():
    # f = x^2 - 4x: f(1) = f(3), so target 0 has off-diagonal solutions
    count, sols = count_eq((0, -4, 1), 0, 4, collect=True)
    assert (3, 1) in sols and (1, 3) in sols
    assert count == oracles.count_eq_pairs((0, -4, 1), 0, 4)[0]


def test_count_eq_bulk_branch_uncollected():
    # linear polynomial: f(n) - f(m) = 2(n - m); target 4 has a full shifted diagonal
    assert count_eq((0, 2), 4, 10) == oracles.count_eq_pairs((0, 2), 4, 10)[0]
    count, sols = count_eq((0, 2), 4, 10, collect=True)
    assert count == len(sols) == 8


def test_count_eq_divisor_search_matches_pair_oracle():
    # 720720 = 2^4 3^2 5 7 11 13 has 240 divisors; target 0 takes every shift;
    # negative leading coefficients flip the sign of every quotient
    cases = [
        ((0, 0, 1), 720720, 2000),
        ((0, 1, 1), 720720, 1200),
        ((3, -7, 0, 1), 720720, 300),
        ((3, -7, 0, 1), 9232740, 300),  # f(210) - f(30)
        ((0, 0, -1), -720720, 2000),
        ((5, 0, -2), 720720 * 2, 1500),
        ((0, -4, 1), 0, 300),
        ((1, 6, -1), 0, 200),
        ((0, 0, 0, -1), 0, 150),
        ((2, -3, 0, -1), -720720, 400),
        ((2, -3, 0, -1), 13608540, 400),  # f(60) - f(240)
        ((0, 12, -7, 1), 0, 60),
        # degrees 5 and 6 with large coefficients: the difference polynomial
        # f(m+t) - f(m) - target is not divided by t before its roots are found
        ((7, -10**6, 3 * 10**5, 0, -12345, 999), 131540225250000, 200),  # f(170) - f(20)
        # (x - 50)^2 (x - 120)^2 (x - 180)^2: eight pairs off the diagonal
        ((1166400000000, -79056000000, 2095560000, -27780000, 195700, -700, 1), 0, 200),
        # f(60) - f(110) = f(140) - f(110)
        ((1166400000000, -79056000000, 2095560000, -27780000, 195700, -700, 1), 3420000000, 200),
        ((-4, 2, -10**8, 5, 10**4, -7, 1), -54735645186211, 200),  # f(3) - f(190)
    ]
    for coeffs, target, H in cases:
        want, pairs = oracles.count_eq_pairs(coeffs, target, H)
        got, sols = count_eq(coeffs, target, H, collect=True)
        assert (got, list(sols)) == (want, sorted(pairs)), (coeffs, target, H)
        assert count_eq(coeffs, target, H) == want
    assert count_eq((0, 0, 1), 720720, 2000) > 0


def test_count_eq_routes_agree_with_the_pair_oracle(monkeypatch):
    # the table route and the divisor route, each driven directly, and the
    # plan between them, on seeded inputs: degrees 1-6 with leading
    # coefficients of either sign, small and large coefficients, target 0, a
    # linear f whose one shift holds a bulk diagonal, targets on and off the
    # image, H from 1 to 300
    taken = []

    def spy(route):
        real = getattr(eqcount_module, route)
        return lambda *args: taken.append(route) or real(*args)

    for route in ("_eq_by_table", "_eq_by_shifts"):
        monkeypatch.setattr(eqcount_module, route, spy(route))
    rng = random.Random(1919)
    on_image = off_image = 0
    for k in range(200):
        d = 1 + k % 6
        c = rng.choice((30, 10**8))
        cs = tuple(rng.randint(-c, c) for _ in range(d)) + (rng.choice((-3, -2, -1, 1, 2, 3)),)
        H = rng.choice((rng.randint(1, 12), rng.randint(1, 100), rng.randint(200, 300)))
        kind = k // 6 % 4
        if kind == 0:
            target = 0
        elif kind == 1 and d == 1:  # one shift t, and every m in the box with m + t in it
            target = cs[1] * rng.randint(1 - H, H - 1)
        elif kind == 1:
            target = oracles.poly_int(cs, rng.randint(1, H)) - oracles.poly_int(cs, rng.randint(1, H))
        else:
            target = rng.randint(-(10**kind), 10**kind)
        want, pairs = oracles.count_eq_pairs(cs, target, H)
        on_image += target != 0 and want > 0
        off_image += want == 0
        ts = [t for t in range(1, H) if target % t == 0]
        for collect, expect in ((False, want), (True, (want, tuple(sorted(pairs))))):
            assert _eq_by_table(cs, target, H, collect) == expect, (cs, target, H)
            if target:  # the plan sends target 0 to the table alone
                assert _eq_by_shifts(cs, target, H, collect, ts) == expect, (cs, target, H)
            assert count_eq(cs, target, H, collect) == expect, (cs, target, H)
    # the plan took each route (two calls an input), so the inputs lie on
    # both sides of its threshold
    assert taken.count("_eq_by_table") >= 100 and taken.count("_eq_by_shifts") >= 20, taken
    assert on_image >= 40 and off_image >= 40, (on_image, off_image)
    # the table route charges its values, with target 0's known diagonal,
    # before it tabulates f, and H + count before it collects the pairs
    with pytest.raises(BudgetExceeded, match=f"count_eq: {2 * 750001} steps"):
        _eq_by_table((0, 0, 1), 0, 750001, False)
    with pytest.raises(BudgetExceeded, match=f"count_eq: {750100 + 750097} steps"):
        _eq_by_table((0, 1), 3, 750100, True)


def test_count_congruence_certified_at_large_moduli():
    f_coeffs = (5, 3, 1)
    for m in (10**12, 10**18, 10**30):
        t0 = time.perf_counter()
        res = count_congruence(PolyMod(f_coeffs, m), 3, 2)
        dt = time.perf_counter() - t0
        assert res.method == "pipeline" and res.certificate is not None
        assert res.count == oracles.count_congruence_pairs(f_coeffs, m, 3, 2)[0]
        assert dt < 1.0, (m, dt)


def test_count_eq_prime_target_without_factoring():
    p = _prime_at_least(10**16)
    t0 = time.perf_counter()
    count = count_eq((0, 0, 1), p, 50)
    dt = time.perf_counter() - t0
    assert count == 0  # n^2 - m^2 = p needs n - m = 1, n + m = p
    assert dt < 0.1, dt


def test_integer_roots_of_large_constant_terms_without_factoring():
    # x^2 - p: trial division of p near 1e16 would take seconds
    p = _prime_at_least(10**16)
    q = _prime_at_least(10**8)
    for coeffs, want in (((-p, 0, 1), set()), ((-q * q, 0, 1), {q, -q})):
        t0 = time.perf_counter()
        assert integer_roots(coeffs) == want
        assert time.perf_counter() - t0 < 0.1


def test_count_symmetric():
    rec = count_symmetric_eq((0, 0, 1), 2)
    assert rec.total == 6
    assert rec.collision_pairs == 2
    rng = random.Random(17)
    for _ in range(25):
        d = rng.randrange(2, 4)
        coeffs = [rng.randrange(-5, 6) for _ in range(d)] + [rng.choice((-1, 1, 2))]
        H = rng.randrange(1, 9)
        assert count_symmetric_eq(coeffs, H).total == oracles.count_symmetric_quadruple(coeffs, H)


def test_count_symmetric_fold_budget():
    # refused before f is evaluated: H^2 pairs are the worst case over Z
    for H in (3163, 10**12):
        with pytest.raises(BudgetExceeded, match="count_symmetric_eq"):
            count_symmetric_eq((0, 0, 1), H)


def test_regime_constant_values():
    c2 = regime_constant(2)
    c3 = regime_constant(3)
    assert c2 == Fraction(16214, 554511)
    assert c2.denominator <= 10**6 and c3.denominator <= 10**6
    # maximality under the cap: the exact predicate holds at c and fails just above
    for d, c in ((2, c2), (3, c3)):
        p, q = c.numerator, c.denominator
        assert p ** (d + 1) * (100 * d) ** 2 <= q ** (d + 1)
    assert float(c2) < float(c3)  # the cutoff grows with d
    with pytest.raises(DomainError):
        regime_constant(1)


def test_regime_constant_is_best_at_small_caps():
    # brute force over all fractions with denominator <= 60
    for d in (2, 3):
        best = max(
            Fraction(p, q)
            for q in range(1, 61)
            for p in range(0, q)
            if p ** (d + 1) * (100 * d) ** 2 <= q ** (d + 1)
        )
        assert regime_constant(d, 60) == best


def test_in_regime_boundary():
    c = regime_constant(2)
    for H in (2, 3):
        # least m with H^3 den^3 <= num^3 m
        m_min = -(-(H**3 * c.denominator**3) // c.numerator**3)
        assert in_regime(2, m_min, H)
        assert not in_regime(2, m_min - 1, H)


def test_brute_congruence_matches_oracle():
    rng = random.Random(4)
    for _ in range(40):
        m = rng.randrange(5, 300)
        d = rng.randrange(2, 4)
        coeffs = [rng.randrange(m) for _ in range(d)] + [1]
        H = rng.randrange(1, min(m, 40) + 1)
        shift = rng.randrange(m)
        f = PolyMod(tuple(coeffs), m)
        want, pairs = oracles.count_congruence_pairs(coeffs, m, shift, H)
        got, sols = brute_congruence(f, shift, H)
        assert got == want
        assert sorted(sols) == sorted(pairs)
    with pytest.raises(BudgetExceeded):
        brute_congruence(PolyMod((0, 0, 1), 10**9 + 7), 1, 10**5, budget=10**5 - 1)


def test_brute_congruence_prices_values_then_solutions():
    # H values are refused before f is evaluated
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="brute_congruence"):
        brute_congruence(PolyMod((0, 0, 1), 10**400), 1, BRUTE_BUDGET + 1)
    assert time.perf_counter() - t0 < 0.1
    # 7n = 7m + 7 (mod 49) holds whenever n = m + 1 (mod 7): H + count steps
    f = PolyMod((0, 7), 49)
    want = oracles.count_congruence_pairs((0, 7), 49, 7, 30)[0]
    assert want == 129 and brute_congruence(f, 7, 30, budget=30 + want)[0] == want
    with pytest.raises(BudgetExceeded, match=f"{30 + want} steps"):
        brute_congruence(f, 7, 30, budget=30 + want - 1)


def test_brute_congruence_refuses_an_interval_outside_one_to_m():
    # H < 1 is empty and H > m does not inject into Z/m; both are refused
    # before any step is charged, so even a zero budget sees the DomainError
    f = PolyMod((0, 0, 1), 101)
    for H in (-5, 0):
        with pytest.raises(DomainError, match=f"H must be >= 1, got {H}"):
            brute_congruence(f, 1, H)
        with pytest.raises(DomainError, match="H must be >= 1"):
            brute_congruence(f, 1, H, budget=0)
    with pytest.raises(DomainError, match="interval longer than the modulus"):
        brute_congruence(f, 1, 500)
    with pytest.raises(DomainError, match="interval longer than the modulus"):
        brute_congruence(f, 1, 500, budget=0)
    assert brute_congruence(f, 1, 101)[0] == oracles.count_congruence_pairs((0, 0, 1), 101, 1, 101)[0]


def _prime_at_least(n):
    while not is_probable_prime(n):
        n += 1
    return n


def test_count_congruence_certified_with_the_cross_check_at_H_1e5():
    # the README family at m = 1e30, with a shift attained by the pair (H - 1, 2)
    m, H = 10**30, 10**5
    f = PolyMod((5, 3, 1), m)
    res = count_congruence(f, (f(H - 1) - f(2)) % m, H)
    assert res.method == "pipeline" and res.declined is None
    assert res.certificate.branch == "divisor" and res.certificate.bv.consistent
    assert res.certificate.solutions == ((H - 1, 2),)


def test_count_eq_prices_its_scans_before_building_anything():
    # a linear f's one shift t = 3 holds H - 3 pairs: counted at once, and
    # priced only when they are collected
    H = BRUTE_BUDGET
    assert count_eq((0, 1), 3, H) == H - 3
    with pytest.raises(BudgetExceeded, match="count_eq"):
        count_eq((0, 1), 3, H, collect=True)
    # 39998 root searches would cost about 2.4e6 steps, but the table of
    # 20000 values and its 20000 diagonal pairs cost 4e4: x^2 is injective
    # on [1, H], so the count is the diagonal
    assert count_eq((0, 0, 1), 0, 20000) == 20000
    # over BRUTE_BUDGET on both routes: a scan of 10^8 - 1 or 2e6 - 1 shifts,
    # or a table of 2e8 or 4e6 steps (the CLI tests pin the others)
    for coeffs, target, H in (((0, 1), 0, 10**8), ((0, 0, 1), 0, 2 * 10**6)):
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="count_eq"):
            count_eq(coeffs, target, H)
        assert time.perf_counter() - t0 < 0.1


def test_count_eq_answers_the_many_divisor_and_prime_targets_at_once():
    # x^6 + x with a target of 3372 divisors below H: 6744 root searches at
    # 120 steps and a scan of 981713 candidates, cheaper than the 10^6 table;
    # x^2 with a prime target: a scan of 3162277 candidates, then the shifts
    # +-1 (the table of 10^7 values is over BRUTE_BUDGET)
    for coeffs, target, H in (((0, 1, 0, 0, 0, 0, 1), 963761198400, 10**6), ((0, 0, 1), 10**13 + 37, 10**7)):
        t0 = time.perf_counter()
        assert count_eq(coeffs, target, H) == 0
        assert time.perf_counter() - t0 < 1.0, (coeffs, target, H)


def test_count_eq_charges_a_linear_f_the_pairs_it_collects():
    # x's one shift t = H - 1 holds the single pair (H, 1): the table would
    # charge H + 1 steps, and the divisor route its scan and searches plus 1,
    # not plus H (which would be over BRUTE_BUDGET)
    H = BRUTE_BUDGET - 100
    assert count_eq((0, 1), H - 1, H, collect=True) == (1, ((H, 1),))


def test_count_eq_refuses_only_what_the_table_refuses(monkeypatch):
    # the plan charges the scan and the divisor route only when they cost no
    # more than the table's H values, so count_eq raises BudgetExceeded only
    # where _eq_by_table raises too, and gives its answer elsewhere: seeded
    # degrees 1-6, targets on the image, off it and with many divisors, collect
    # on and off, boxes up to 2 * 10^4, then one large box a degree with the
    # 3372 divisors of 963761198400 below 10^6 (boxes past BRUTE_BUDGET for
    # d <= 3, where the table refuses)
    shifts = []
    real = eqcount_module._eq_by_shifts
    monkeypatch.setattr(eqcount_module, "_eq_by_shifts", lambda *args: shifts.append(args[2]) or real(*args))
    rng = random.Random(2020)
    many = (720720, 3603600, 73513440, 6983776800, 963761198400, 2**20 * 3**5)
    cases = []
    for k in range(120):
        d = 1 + k % 6
        cs = tuple(rng.randint(-30, 30) for _ in range(d)) + (rng.choice((-2, -1, 1, 3)),)
        H = rng.choice((rng.randint(1, 300), rng.randint(300, 20000)))
        kind = k // 6 % 3
        if kind == 0:
            target = oracles.poly_int(cs, rng.randint(1, H)) - oracles.poly_int(cs, rng.randint(1, H))
        elif kind == 1:
            target = rng.choice((-1, 1)) * rng.randint(1, 10**12)
        else:
            target = rng.choice((-1, 1)) * rng.choice(many) * rng.choice((1, 1, 7, 11, 30))
        cases.append((cs, target, H, k % 4 >= 2))
    for d in range(1, 7):
        cs = tuple(rng.randint(-30, 30) for _ in range(d)) + (1,)
        H = rng.randint(5 * 10**5, 10**6) if d >= 4 else rng.randint(15 * 10**5 + 1, 2 * 10**6)
        cases.append((cs, rng.choice((-1, 1)) * 963761198400, H, d % 2 == 0))
    refused = 0
    for cs, target, H, collect in cases:
        try:
            want = _eq_by_table(cs, target, H, collect)
        except BudgetExceeded:
            refused += 1
            continue
        assert count_eq(cs, target, H, collect) == want, (cs, target, H, collect)
    # the divisor route ran, on large boxes too, and the table refused some
    assert len(shifts) >= 20 and max(shifts) >= 10**5 and refused >= 3, (len(shifts), refused)


def test_count_congruence_pipeline_in_regime():
    rng = random.Random(303)
    c2 = regime_constant(2)
    for H in (2, 3, 4):
        m = _prime_at_least(int((H / c2) ** 3) + 1)
        assert in_regime(2, m, H)
        for _ in range(6):
            coeffs = (rng.randrange(m), rng.randrange(m), 1)
            f = PolyMod(coeffs, m)
            n0, m0 = rng.randrange(1, H + 1), rng.randrange(1, H + 1)
            shift = (f(n0) - f(m0)) % m
            if shift == 0:
                shift = rng.randrange(1, m)
            res = count_congruence(f, shift, H)
            want = oracles.count_congruence_pairs(coeffs, m, shift, H)[0]
            assert res.count == want
            assert res.method == "pipeline"
            assert res.declined is None
            cert = res.certificate
            assert cert is not None
            assert cert.branch in ("empty", "divisor")
            assert 2 * cert.reach < m
            if cert.bv is not None:
                assert cert.bv.consistent


def test_count_congruence_declined_out_of_regime():
    f = PolyMod((0, 0, 0, 1), 10007)
    shift = (f(3) - f(2)) % 10007
    res = count_congruence(f, shift, 6)
    assert res.method == "brute"
    assert res.declined is not None
    assert res.count == oracles.count_congruence_pairs((0, 0, 0, 1), 10007, shift, 6)[0]
    assert res.certificate is None


def test_count_congruence_validation():
    f = PolyMod((0, 0, 1), 101)
    with pytest.raises(DomainError):
        count_congruence(f, 0, 5)
    with pytest.raises(DomainError):
        count_congruence(f, 202, 5)  # shift = 0 mod m
    with pytest.raises(DomainError):
        count_congruence(f, 3, 200)  # H > m
    with pytest.raises(DomainError):
        count_congruence(PolyMod((0, 1), 11), 2, 3)  # degree 1
    with pytest.raises(DomainError):
        count_congruence(PolyMod((0, 0, 3), 9), 2, 2)  # leading coeff not a unit


def test_certificate_fields_round_trip():
    c2 = regime_constant(2)
    H = 3
    m = _prime_at_least(int((H / c2) ** 3) + 1)
    f = PolyMod((5, 7, 1), m)
    shift = (f(3) - f(1)) % m
    res = count_congruence(f, shift, H)
    assert res.method == "pipeline"
    cert = res.certificate
    assert cert.monic[-1] == 1
    assert cert.ell == cert.short_vector[-1] % m
    assert all(1 <= a <= H and 1 <= b <= H for a, b in cert.solutions)
    # "divisor" is a pipeline branch, not a method count_congruence returns
    with pytest.raises(DomainError, match="unknown method"):
        type(res)(res.count, "divisor", m, H, shift, 2)


# --- the pipeline's closed-form congruence basis ------------------------------

import dataclasses  # noqa: E402

from energia import eqcount  # noqa: E402
from energia.lattice import IntLattice, WeightedBox, _svp, congruence_lattice, shortest_vector_in  # noqa: E402


def _closed_form_cases():
    """Seeded (f, shift, H) in regime: d = 2..5 over prime, composite and 10^30
    moduli, led by the README family (5, 3, 1) with shift 3 at m = 10^30."""
    rng = random.Random(1807)
    cases = [(PolyMod((5, 3, 1), 10**30), 3, H) for H in (2, 50)]
    for d in (2, 3, 4, 5):
        H = rng.randrange(2, 5)
        m_min = 2
        while not in_regime(d, m_min, H):
            m_min *= 2
        for m in (_prime_at_least(m_min + rng.randrange(m_min)), 6 * m_min + 6, 10**30):
            for k in range(4):
                lead = 1 if k % 2 == 0 else rng.randrange(2, m)
                while math.gcd(lead, m) != 1:
                    lead = rng.randrange(2, m)
                f = PolyMod(tuple(rng.randrange(m) for _ in range(d)) + (lead,), m)
                n0, m0 = rng.randrange(1, H + 1), rng.randrange(1, H + 1)
                shift = (f(n0) - f(m0)) % m if k < 2 else rng.randrange(1, m)
                if shift == 0:
                    shift = 1
                assert in_regime(d, m, H)
                cases.append((f, shift, H))
    return cases


def _fraction_box(d, m, H):
    """The pipeline's box |b_j| <= m / (100 d H^j), built from Fractions."""
    return WeightedBox(tuple(Fraction(m, 100 * d * H**j) for j in range(1, d + 1)))


def _box_weights(d, H):
    """w_j = 100 d H^j: y_j = w_j b_j maps the pipeline's box onto the cube |y_j| <= m."""
    return [100 * d * H**j for j in range(1, d + 1)]


def test_closed_form_basis_matches_the_hnf_lattice(monkeypatch):
    seen = []

    def spy(rows, body, cap):
        seen.append((rows, body, cap))
        return _svp(rows, body, cap)

    monkeypatch.setattr(eqcount, "_svp", spy)
    runs = []
    for f, shift, H in _closed_form_cases():
        seen.clear()
        res = count_congruence(f, shift, H, certify=True)
        assert res.method == "pipeline" and len(seen) == 1
        rows, body, cap = seen[0]
        d, m, w = f.degree, f.modulus, _box_weights(f.degree, H)
        monic = res.certificate.monic
        basis = [monic[1:]] + [tuple(m * (i == j) for j in range(d)) for i in range(d - 1)]
        # the unit cube, cap m, and the closed-form basis with column j times w_j
        assert (body, body._weights, body._scale, cap) == (WeightedBox((1,) * d), (1,) * d, 1, m)
        assert [list(r) for r in rows] == [[x * wj for x, wj in zip(r, w)] for r in basis]
        lat = IntLattice(tuple(basis))
        box = _fraction_box(d, m, H)
        hnf = congruence_lattice(monic[1:], m)
        assert lat.canonical() == hnf.canonical() == hnf
        assert shortest_vector_in(hnf, box) == shortest_vector_in(lat, box) == res.certificate.short_vector
        runs.append(res)
    # a reference run whose SVP is shortest_vector_in on congruence_lattice's
    # HNF and the Fraction box, mapped to the cube's coordinates y_j = w_j b_j
    branches = set()
    for (f, shift, H), res in zip(_closed_form_cases(), runs):
        box, w = _fraction_box(f.degree, f.modulus, H), _box_weights(f.degree, H)

        def reference(rows, body, cap):
            a, m = [x // wj for x, wj in zip(rows[0], w)], rows[1][0] // w[0]
            v = shortest_vector_in(congruence_lattice(a, m), box)
            return None if v is None else tuple(x * wj for x, wj in zip(v, w))

        monkeypatch.setattr(eqcount, "_svp", reference)
        ref = count_congruence(f, shift, H, certify=True)
        for fld in dataclasses.fields(res.certificate):
            assert getattr(res.certificate, fld.name) == getattr(ref.certificate, fld.name), fld.name
        assert res == ref
        branches.add(res.certificate.branch)
    assert branches >= {"divisor", "empty"} and any(res.certificate.bv for res in runs)


# --- pipeline branches that the seeded cases above do not reach ----------------


def _pair_loop(f, shift, H, g=(), target=None):
    """#{(n, m) in [1,H]^2 : f(n) = f(m) + shift (mod m)}, pair by pair; with an
    integer polynomial g, only the pairs with g(n) - g(m) = target count."""
    fv = [f(x) for x in range(1, H + 1)]
    gv = [oracles.poly_int(g, x) for x in range(1, H + 1)] if g else [0] * H
    return sum(
        1
        for i in range(H)
        for j in range(H)
        if (not g or gv[i] - gv[j] == target) and (fv[i] - fv[j] - shift) % f.modulus == 0
    )


@pytest.mark.parametrize("coeffs, m, shift, solutions, vector, pairing", [
    # x^2 at the prime 10^30 + 57: n^2 - m^2 = 105 on the factorizations of 105
    ((0, 0, 1), 10**30 + 57, 105, ((11, 4), (13, 8), (19, 16), (53, 52)), (0, 1), 105),
    # the README family: 3(n - m) + n^2 - m^2 = 108
    ((5, 3, 1), 10**30, 108, ((14, 10), (18, 15), (53, 52)), (3, 1), 108),
])
def test_certify_recounts_a_rank_one_family(coeffs, m, shift, solutions, vector, pairing):
    # the relative power differences of the family span one line, so the
    # recount goes through bv_small_solutions and count_eq on its vector
    H = 1000
    f = PolyMod(coeffs, m)
    res = count_congruence(f, shift, H)
    cert, bv = res.certificate, res.certificate.bv
    assert (res.method, cert.branch, cert.solutions) == ("pipeline", "divisor", solutions)
    assert (bv.rank, bv.vector, bv.pairing, bv.recount, bv.consistent) == (1, vector, pairing, len(solutions), True)
    assert res.count == len(solutions) == _pair_loop(f, shift, H)
    assert bv.recount == _pair_loop(f, shift, H, (0,) + vector, pairing)


def test_pipeline_collision_branch_returns_brute_force():
    # ell * lam = 0 mod 10^12: the relation carries no value information, so
    # the pipeline hands back brute force's solutions, here none
    m, shift, H = 10**12, 5 * 10**11, 50
    f = PolyMod((351763952441, 21606219484, 1), m)
    assert in_regime(2, m, H)
    res = count_congruence(f, shift, H)
    cert = res.certificate
    assert (res.method, cert.branch, cert.offset, cert.bv) == ("pipeline", "collision", 0, None)
    assert cert.solutions == brute_congruence(f, shift, H)[1] == ()
    assert res.count == _pair_loop(f, shift, H) == 0


def test_count_eq_strips_trailing_zero_coefficients():
    # 0 + x + 0 x^2 is the line x: n - m = 1 holds on 4 pairs of [1, 5]
    assert count_eq((0, 1, 0), 1, 5) == 4
    assert count_eq((0, 1, 0), 1, 5, collect=True) == (4, ((2, 1), (3, 2), (4, 3), (5, 4)))
    # and 5 + 0 x is a constant, refused like 5
    for coeffs in ((5,), (5, 0), (5, 0, 0)):
        with pytest.raises(DomainError, match="nonconstant"):
            count_eq(coeffs, 1, 5)


def test_a_disagreeing_pipeline_is_refused(monkeypatch):
    # the pipeline's integer equation loses its last pair, so the certified
    # count (3) no longer matches brute force (4) and the call must raise
    real = eqcount_module.count_eq

    def short(*args, **kwargs):
        count, pairs = real(*args, **kwargs)
        return count - 1, pairs[:-1]

    monkeypatch.setattr(eqcount_module, "count_eq", short)
    f = PolyMod((0, 0, 1), 10**30 + 57)
    with pytest.raises(DomainError, match="^pipeline count 3 disagrees with brute force 4$"):
        count_congruence(f, 105, 1000, certify=False)


def test_symmetric_count_must_add_up():
    with pytest.raises(DomainError, match="^decomposition does not add up$"):
        SymmetricCount(5, 1, 1)


def test_pipeline_runs_at_degree_twelve():
    # in regime at m = 10^450 with H = 2; the call raises if the pipeline and
    # brute force disagree
    f = PolyMod((3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 1), 10**450)
    assert in_regime(12, f.modulus, 2)
    assert count_congruence(f, 5, 2).method == "pipeline"
