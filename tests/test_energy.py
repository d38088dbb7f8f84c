import random
import sys
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from energia import energy
from energia.energy import (
    PAIR_DIFFERENCE,
    EnergyReport,
    additive_stats,
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
from energia.eqcount import count_symmetric_eq
from energia.ring import BudgetExceeded, DomainError, Interval, PolyMod, image_set
from energia.sweep import run_cell
from energia.vinogradov import count_I, count_J, count_Ts

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


def test_report_refuses_a_nonpositive_K():
    with pytest.raises(DomainError, match="^K must be positive$"):
        EnergyReport(7, 3, 15, 15, 1, 6, K=Fraction(0))


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


# --- the dense backend of the fold, and the discrete-log route -------------


def _pair_loop(a, b, m):
    out = Counter()
    for x, cx in a.items():
        for y, cy in b.items():
            out[x + y if m is None else (x + y) % m] += cx * cy
    return out


def _sparse_fold(a, b, m):
    with mock.patch.object(energy, "_dense", lambda pairs, m: False):
        return energy._fold(a, b, m)


def _histogram(data, m, max_weight):
    keys = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    return Counter({k: data.draw(st.integers(1, max_weight)) for k in keys})


@given(st.integers(2, 300), st.sampled_from([1, 7, 2**20, 2**70]), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_dense_fold_matches_sparse_and_pair_loop(m, max_weight, square, data):
    a = _histogram(data, m, max_weight)
    b = a if square else _histogram(data, m, max_weight)
    # sizes from 1 to m on each side put the pair count on both sides of the crossover
    expected = _pair_loop(a, b, m)
    assert energy._fold_dense(a, b, m) == expected
    assert _sparse_fold(a, b, m) == expected
    assert energy._fold(a, b, m) == expected


@pytest.mark.parametrize("m, a, b", [
    (2, {0: 1, 1: 1}, {0: 1, 1: 1}),
    (2, {1: 5}, {1: 3}),
    (12, {x: 1 + x % 5 for x in range(12)}, {x: 1 for x in range(0, 12, 3)}),
    # 3-byte slots, restrided through 4-byte ones
    (16, {x: 300 for x in range(16)}, {x: 200 + x for x in range(16)}),
    # a mass of about 2^90 needs 12-byte slots: the slot-by-slot path
    (30, {x: 2**40 + x for x in range(30)}, {x: 2**45 - x for x in range(0, 30, 2)}),
])
def test_dense_fold_fixed_cases(m, a, b):
    a, b = Counter(a), Counter(b)
    expected = _pair_loop(a, b, m)
    assert energy._fold_dense(a, b, m) == expected
    assert energy._fold_dense(a, a, m) == _pair_loop(a, a, m)
    assert energy._fold(a, b, m) == expected


def test_dense_fold_runs_at_full_interval_and_composite_moduli():
    # H = m: every residue is a point, and the energies go through the dense fold
    for coeffs, m in (((0, 0, 1), 97), ((0, 0, 0, 1), 96), ((3, 1, 0, 1), 60), ((2, 1, 1), 100)):
        f, iv = PolyMod(coeffs, m), Interval(m)
        vals = [oracles.poly_mod(coeffs, x, m) for x in range(1, m + 1)]
        assert energy._dense(len(set(vals)) ** 2, m)
        pairs = Counter((a + b) % m for a in vals for b in vals)
        assert rep_function(f, iv).counts == dict(pairs)
        assert energy_T(f, iv) == sum(c * c for c in pairs.values())
        assert sumset_size(f, iv) == len({(a + b) % m for a in set(vals) for b in set(vals)})


def _route_calls(monkeypatch):
    calls = []
    table = energy._dlog_table

    def spy(p):
        calls.append(p)
        return table(p)

    monkeypatch.setattr(energy, "_dlog_table", spy)
    return calls


@pytest.mark.parametrize("p", [2, 3, 5])
def test_multiplicative_energy_log_route_small_primes(monkeypatch, p):
    calls = _route_calls(monkeypatch)
    routed = set()
    for mask in range(1, 2**p):
        pts = [x for x in range(p) if mask >> x & 1]
        before = len(calls)
        assert set_energy_times(pts, p) == oracles.set_energy_times_quadruple(pts, p)
        assert (len(calls) > before) == energy._dense(len(pts) ** 2, p)
        if len(calls) > before:
            routed.add(0 in pts)
    # mod 2 only {0, 1} is large enough for the route
    assert routed == ({True} if p == 2 else {False, True})


@pytest.mark.parametrize("with_zero", [False, True])
def test_multiplicative_energy_log_route_at_1009(monkeypatch, with_zero):
    calls = _route_calls(monkeypatch)
    rng = random.Random(1009 + with_zero)
    pts = rng.sample(range(1, 1009), 32) + [0] * with_zero
    assert set_energy_times(pts, 1009) == oracles.set_energy_times_quadruple(pts, 1009)
    assert calls == [1009]
    # composite moduli keep the product loop
    assert set_energy_times(pts, 1008) == oracles.set_energy_times_quadruple(pts, 1008)
    assert calls == [1009]


# --- the sparse merge, the one set fold behind additive_stats, the budget ---


@given(
    st.sampled_from([None, 2, 12, 97, 300]),
    st.sampled_from([1, 3, 2**40]),
    st.sampled_from([1, 3, 2**40]),
    st.booleans(),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_fold_matches_pair_loop_over_z_and_mod_m(m, weight_a, weight_b, square, data):
    # weight 1 is a unit histogram; weight 3 mixes rows with cx = 1 and cx != 1
    lo, hi, size = (-400, 400, 80) if m is None else (0, m - 1, m)

    def histogram(max_weight):
        keys = data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=size, unique=True))
        return Counter({k: data.draw(st.integers(1, max_weight)) for k in keys})

    a = histogram(weight_a)
    b = a if square else histogram(weight_b)
    expected = _pair_loop(a, b, m)
    assert energy._fold(a, b, m) == expected
    if m is not None:  # mod m, sizes up to m on each side also run the dense backend
        assert _sparse_fold(a, b, m) == expected


def _naive_stats(vals, m):
    """T and E+ as sums of squared pair counts, and the sumset, by pair loops."""
    img = set(vals)
    pairs = Counter((a + b) % m for a in vals for b in vals)
    set_pairs = Counter((a + b) % m for a in img for b in img)
    return sum(c * c for c in pairs.values()), sum(c * c for c in set_pairs.values()), len(set_pairs)


@given(
    st.sampled_from([16, 32, 64, 96, 100]),
    st.lists(st.integers(0, 99), min_size=2, max_size=4),
    st.integers(1, 14),
)
@settings(max_examples=60, deadline=None)
def test_additive_stats_match_quadruple_oracles(m, coeffs, H):
    coeffs = tuple(coeffs[:-1]) + (coeffs[-1] % (m - 1) + 1,)  # leading coefficient nonzero mod m
    H = min(H, m)
    vals = [oracles.poly_mod(coeffs, x, m) for x in range(1, H + 1)]
    t, ep, ss = additive_stats(vals, m)
    img = sorted(set(vals))
    assert t == oracles.energy_T_quadruple(coeffs, m, H)
    assert ep == oracles.set_energy_plus_quadruple(img, m)
    assert ss == oracles.sumset_size_naive(coeffs, m, H)


@pytest.mark.parametrize("coeffs, m, H, dense_correction", [
    ((0, 0, 1), 64, 64, True),  # X^2 mod 2^6, H = m
    ((0, 0, 1), 96, 96, True),
    ((0, 0, 0, 0, 1), 100, 100, True),
    ((1, 0, 1), 96, 40, True),
    ((0, 0, 1), 1024, 40, False),  # X^2 mod 2^10: one collision
    ((0, 0, 1), 4096, 200, False),
])
def test_additive_stats_with_heavy_collisions(coeffs, m, H, dense_correction):
    vals = [oracles.poly_mod(coeffs, x, m) for x in range(1, H + 1)]
    hist = Counter(vals)
    excess = [v for v, c in hist.items() if c > 1]
    # the correction fold C = D * (h + 1_A) runs on the backend this case names
    assert excess and energy._dense(len(excess) * len(hist), m) == dense_correction
    assert additive_stats(vals, m) == _naive_stats(vals, m)


def test_fold_budget_prices_the_backend_fold_would_pick():
    energy._afford("x", 10**4, 10**3)  # exactly the budget
    with pytest.raises(BudgetExceeded, match="x: .*FOLD_BUDGET = 10000000"):
        energy._afford("x", 10**4 + 1, 10**3)
    # mod m a dense fold costs the pair count it breaks even with
    energy._afford("x", 10**6, 10**6, 100003)
    with pytest.raises(BudgetExceeded):
        energy._afford("x", 10**6, 10**6, 10**6 + 3)


def test_energy_entry_points_refuse_over_budget_before_folding():
    f, iv = PolyMod((0, 0, 1), 1000000007), Interval(300000)
    for fn in (energy_T, energy_plus, energy_times, sumset_size, energy_report, rep_function):
        with pytest.raises(BudgetExceeded, match=fn.__name__):
            fn(f, iv)
    pts = range(1, 5001)  # 2.5e7 pairs mod a composite: no dense fold, no log route
    for fn in (set_energy_plus, set_energy_times):
        with pytest.raises(BudgetExceeded, match=fn.__name__):
            fn(pts, 10**9)
    with pytest.raises(BudgetExceeded, match="energy_cross"):
        energy_cross(pts, pts, 10**9)
    with pytest.raises(BudgetExceeded, match="additive_stats"):
        additive_stats(list(pts), 10**9)


def test_full_interval_at_100003_stays_within_budget():
    # H = m: 50002 squares, folded dense, cost 7e5 pair steps
    f = PolyMod((0, 0, 1), 100003)
    assert energy_plus(f, Interval(100003)) == 62508750400006


# --- the symmetric self-fold: half fold V, diagonal D, S = c V - D ----------


def _self_fold_views(h, m, dense=None):
    """(energy, support, S) of `_fold_self`, on the backend `dense` forces, if any."""
    if dense is None:
        v, d, c = energy._fold_self(h, m)
    else:
        with mock.patch.object(energy, "_dense", lambda pairs, m: dense):
            v, d, c = energy._fold_self(h, m)
    assert set(d) <= set(v)
    return energy._energy(v, d, c), len(v), {k: c * v[k] - d[k] for k in v}


def _full_fold_views(h, m):
    full = energy._fold(h, h, m)
    return energy._squares(full), len(full), dict(full)


def _first_dense_size(m):
    n = 1
    while not energy._dense(n * (n + 1) // 2, m):
        n += 1
    return n


@pytest.mark.parametrize("m", [None, 2, 4, 6, 1000, 1009, 10007])
@pytest.mark.parametrize("weighted", [False, True])
def test_self_fold_matches_full_fold(m, weighted):
    # even m puts 2x and 2x + m on one diagonal key; the sizes straddle the
    # self-fold's crossover, and each case also runs on both backends
    rng = random.Random(f"self-fold:{m}:{weighted}")
    if m is None:
        keys, sizes = range(-500, 500), [1, 2, 3, 17, 60]
    else:
        n0 = _first_dense_size(m)
        keys, sizes = range(m), sorted({min(n, m) for n in (1, 2, 3, n0 // 2, n0 - 1, n0, n0 + 1, 2 * n0)})
    for n in sizes:
        h = Counter({k: rng.choice((1, 2, 3, 2**20)) if weighted else 1 for k in rng.sample(keys, n)})
        expected = _full_fold_views(h, m)
        for dense in (None, False) if m is None else (None, False, True):
            assert _self_fold_views(h, m, dense) == expected, (m, n, dense)


@pytest.mark.parametrize("h, m", [
    ({0: 12, 1: 1, 2: 1, 3: 1}, 7),  # S[0] = 144: one-byte slots, S + D past 2^8
    ({0: 255, 3: 1}, 6),
    ({0: 1, 3: 1}, 6),  # 2 * 0 = 2 * 3 mod 6: one diagonal key of weight 2
    ({x: 1 for x in range(16)}, 16),
])
def test_self_fold_fixed_cases(h, m):
    h = Counter(h)
    expected = _full_fold_views(h, m)
    assert expected[2] == dict(_pair_loop(h, h, m))
    for dense in (None, False, True):
        assert _self_fold_views(h, m, dense) == expected


# --- every fold is charged once, just before it runs, for its backend --------


def _fold_ledger(monkeypatch):
    """The FOLD_BUDGET charges and the backend calls of every fold, in order.

    A charge records whether `_afford` was called from a fold or from a
    guard; a sparse call records the pairs its rows hold, a dense one |a| |b|.
    """
    events = []
    charge, merge, dense = energy._charge, energy._merge, energy._fold_dense

    def spy_charge(stage, units, unit, budget, name):
        caller = sys._getframe(2).f_code.co_name  # spy_charge <- _afford <- caller
        events.append(("charge", stage, units, name, caller in ("_fold", "_fold_self", "_fold_rows")))
        charge(stage, units, unit, budget, name)

    def spy_merge(rows, m, unit):
        rows = list(rows)  # (x, cx, ys, cys): one pair per y of each row
        events.append(("sparse", m, sum(len(ys) for _, _, ys, _ in rows)))
        return merge(rows, m, unit)

    def spy_dense(a, b, m):
        events.append(("dense", m, len(a) * len(b)))
        return dense(a, b, m)

    monkeypatch.setattr(energy, "_charge", spy_charge)
    monkeypatch.setattr(energy, "_merge", spy_merge)
    monkeypatch.setattr(energy, "_fold_dense", spy_dense)
    return events


def _check_ledger(events, stages):
    """The backends that ran; each came right after its own fold's charge of min(pairs, crossover)."""
    kinds = []
    for i, event in enumerate(events):
        if event[0] == "charge":
            continue
        kind, m, pairs = event
        before = events[i - 1] if i else ("none",)
        assert before[0] == "charge" and before[3] == "FOLD_BUDGET" and before[4], (before, event)
        assert before[1] in stages, (before, stages)
        if kind == "sparse":  # the pairs the rows hold are the pairs visited
            assert m is None or pairs <= energy._crossover(m)
            assert before[2] == (pairs if m is None else min(pairs, energy._crossover(m)))
        else:  # dense: more pairs than the crossover, charged the crossover
            assert pairs > energy._crossover(m) and before[2] == energy._crossover(m)
        kinds.append(kind)
    return kinds


def test_every_fold_is_charged_once_for_the_backend_that_runs(monkeypatch):
    events = _fold_ledger(monkeypatch)
    rng = random.Random("fold-ledger")
    seen = set()

    def run(stages, fn, *args):
        events.clear()
        fn(*args)
        seen.update(_check_ledger(events, stages))

    for m in (101, 1009):
        for d in (2, 3):
            f = PolyMod(tuple(rng.randrange(m) for _ in range(d)) + (1,), m)
            # a few values fold sparse; a third of Z/m folds dense
            for H in (4, m // 3):
                iv = Interval(H)
                run({"rep_function"}, rep_function, f, iv)
                run({"rep_function"}, rep_function, f, iv, PAIR_DIFFERENCE)
                run({"energy_T"}, energy_T, f, iv)
                run({"set_energy_plus"}, energy_plus, f, iv)
                run({"set_energy_times"}, energy_times, f, iv)
                run({"sumset_size"}, sumset_size, f, iv)
                run({"additive_stats", "set_energy_times"}, energy_report, f, iv)
                run({"additive_stats"}, additive_stats, [rng.randrange(m) for _ in range(H)], m)
                run({"additive_stats"}, run_cell, d, m, H, rng.randrange(10))
                pts = rng.sample(range(m), H)
                run({"set_energy_plus"}, set_energy_plus, pts, m)
                run({"set_energy_times"}, set_energy_times, pts, m)
                run({"energy_cross"}, energy_cross, pts, rng.sample(range(m), H // 2 + 1), m)
                for s in (1, 2, 3):
                    run({"count_Ts"}, count_Ts, f, Interval(min(H, 30)), s)
    for d, s in ((1, 3), (2, 2), (2, 3), (3, 2)):
        run({"count_J"}, count_J, d, s, rng.sample(range(-40, 40), 9))
        run({"count_I"}, count_I, d, s, 6, (0,) * d)
    for coeffs, H in (((0, 0, 1), 12), ((1, -2, 0, 1), 40)):
        run({"count_symmetric_eq"}, count_symmetric_eq, coeffs, H)
    assert seen == {"sparse", "dense"}


def test_self_fold_is_charged_its_unordered_pairs(monkeypatch):
    # 4471 * 4472 / 2 pairs fit FOLD_BUDGET, 4472 * 4473 / 2 do not; the
    # merge is stubbed so that the admitted fold does not run
    monkeypatch.setattr(energy, "_merge", lambda rows, m, unit: Counter())
    set_energy_plus(range(4471), 10**9)
    with pytest.raises(BudgetExceeded, match="set_energy_plus: 10001628 pair steps"):
        set_energy_plus(range(4472), 10**9)


@pytest.mark.parametrize("n", [4000, 5000, 7000])
def test_multiplicative_energy_refuses_past_the_fold_budget_at_once(n):
    # mod 999983, 4000 points take the product loop; 5000 and 7000 take the
    # log route, whose self-fold is sparse at 5000 and dense at 7000
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="set_energy_times: .*FOLD_BUDGET"):
        set_energy_times(range(1, n + 1), 999983)
    assert time.perf_counter() - t0 < 1.0


def test_merge_is_exact_when_a_row_repeats_a_key():
    # dict.update stores each (key, old + weight) pair before drawing the next,
    # so a key repeated within a row adds up as in a plain loop
    rng = random.Random("repeated keys")
    for m in (None, 7):
        for unit in (False, True):
            rows = [(rng.randrange(-9, 9), rng.choice((1, 3)), [rng.randrange(5) for _ in range(12)],
                     [1 if unit else rng.randrange(1, 9) for _ in range(12)]) for _ in range(6)]
            want = Counter()
            for x, cx, ys, cys in rows:
                for y, cy in zip(ys, cys):
                    want[x + y if m is None else (x + y) % m] += cx * cy
            assert energy._merge(rows, m, unit) == want


@pytest.mark.parametrize("n", [5000, 7000])
def test_multiplicative_energy_prices_the_log_fold_before_the_table(monkeypatch, n):
    def no_table(p):
        raise AssertionError("the discrete-log table was built for a refused fold")

    monkeypatch.setattr(energy, "_dlog_table", no_table)
    with pytest.raises(BudgetExceeded, match="set_energy_times: .*FOLD_BUDGET"):
        set_energy_times(range(1, n + 1), 999983)
    with pytest.raises(AssertionError, match="discrete-log table"):
        set_energy_times(range(200), 10007)  # admitted: the log route builds it
