import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from energia.ring import BudgetExceeded, DomainError, Interval, PolyMod
from energia import energy, vinogradov
from energia.energy import _squares
from energia.vinogradov import (
    PowerSumVector,
    _power_sum_histogram,
    SystemCount,
    check_J_bound,
    count_I,
    count_J,
    count_Ts,
)

import oracles


def test_frozen_examples():
    assert count_J(2, 2, (1, 2)) == 6
    assert count_J(2, 2, range(1, 5)) == 28
    # s = 1: only x = y solves both equations
    assert count_J(2, 1, range(1, 6)) == 5
    f = PolyMod((0, 0, 1), 7)
    assert count_Ts(f, Interval(2), 3) == 20
    assert count_Ts(f, Interval(3), 2) == 15  # s=2 is the additive energy


def test_matches_recursive_oracle_small():
    for d in (1, 2, 3):
        for s in (1, 2):
            for H in (1, 2, 3, 4):
                xs = range(1, H + 1)
                assert count_J(d, s, xs) == oracles.count_J_recursive(d, s, list(xs))


def test_count_I_zero_shift_is_J():
    for d in (1, 2, 3):
        for H in (2, 4, 6):
            assert count_I(d, 2, H, (0,) * d) == count_J(d, 2, range(1, H + 1))


def test_count_I_matches_oracle():
    assert count_I(2, 2, 3, (1, 1)) == oracles.count_I_recursive(2, 2, 3, (1, 1))
    assert count_I(1, 1, 5, (2,)) == 3  # x - y = 2 with x, y in [1,5]


@given(st.integers(1, 3), st.integers(2, 6), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_translation_invariance(d, H, t):
    # J is invariant under shifting the whole set
    base = count_J(d, 2, range(1, H + 1))
    shifted = count_J(d, 2, range(1 + t, H + 1 + t))
    assert base == shifted


def test_diagonal_floor_and_monotonicity():
    for H in (2, 3, 5):
        j = count_J(2, 3, range(1, H + 1))
        assert j >= H**3
    assert count_J(2, 2, (1, 2, 3)) >= count_J(2, 2, (1, 2))


def test_inhomogeneous_at_most_homogeneous():
    # the zero shift maximizes the convolution fiber
    d, s, H = 2, 2, 5
    j = count_I(d, s, H, (0, 0))
    for lam in ((1, 1), (2, 4), (0, 2), (3, 1)):
        assert count_I(d, s, H, lam) <= j


def test_shift_range_validation():
    with pytest.raises(DomainError):
        count_I(2, 2, 3, (100, 0))
    with pytest.raises(DomainError):
        count_I(2, 2, 3, (0,))


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        count_J(2, 3, range(1, 1000), budget=10**6)
    with pytest.raises(BudgetExceeded):
        count_Ts(PolyMod((0, 1), 10007), Interval(10000), 3, budget=10**9)


def test_input_validation():
    with pytest.raises(DomainError):
        count_J(0, 2, (1, 2))
    with pytest.raises(DomainError):
        count_J(2, 0, (1, 2))
    with pytest.raises(DomainError):
        count_J(2, 2, ())


def test_power_sum_vector():
    v = PowerSumVector.of(3, (1, 2))
    assert v.components == (3, 5, 9)
    assert v.in_range(2, 2)
    assert not v.in_range(1, 2)
    with pytest.raises(DomainError):
        PowerSumVector(2, (1,))


def test_system_count_invariants():
    SystemCount("J", 2, 2, 6, set_size=2)
    with pytest.raises(DomainError):
        SystemCount("J", 2, 2, 3, set_size=2)  # below diagonal floor 4
    with pytest.raises(DomainError):
        SystemCount("J", 2, 2, -1)


def test_check_J_bound_set_and_sweep():
    rec = check_J_bound(2, elements=(1, 2))
    assert rec.s == 3
    assert rec.entries[0].J == count_J(2, 3, (1, 2))
    sweep = check_J_bound(1, H_values=(2, 4, 8))
    assert sweep.slope is not None
    # J_{1,1}(H) = H: ratio J/H is identically 1, slope 0
    assert abs(sweep.slope) < 1e-9
    with pytest.raises(DomainError):
        check_J_bound(2)


@pytest.mark.parametrize("xs", [(0,), (0, 1), (-2, 0, 1, 3), (-3, -1, 0), (-5, 0, 5), (-4, -2, -1)])
def test_count_J_cubic_sets_with_zero_and_negatives(xs):
    # packed keys must stay injective when components are zero or negative
    assert count_J(3, 3, xs) == oracles.count_J_recursive(3, 3, list(xs))


@pytest.mark.parametrize("d, s, H", [(1, 2, 4), (2, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_count_I_at_the_shift_boundary(d, s, H):
    # |shift_j| = s * H^j is the largest accepted shift and is never attained
    edge = [s * H**j for j in range(1, d + 1)]
    near = [s * (H**j - 1) for j in range(1, d + 1)]
    for lam in (edge, [-v for v in edge], [(-1) ** j * v for j, v in enumerate(edge)], near,
                [-v for v in near]):
        assert count_I(d, s, H, lam) == oracles.count_I_recursive(d, s, H, lam)


def test_count_J_folds_only_the_first_s_equations():
    # Newton-Girard: power sums 1..s of an s-tuple fix its multiset, so
    # folding all d > s equations counts the same 2s-tuples
    rng = random.Random(20261018)
    for _ in range(60):
        s = rng.randint(1, 3)
        d = rng.randint(s + 1, s + 4)
        xs = sorted(set(rng.sample(range(-12, 13), rng.randint(1, 6))))
        full = _squares(_power_sum_histogram(d, s, xs)[0])
        assert count_J(d, s, xs) == count_J(s, s, xs) == full, (d, s, xs)


# --- the plan: multisets with their orderings, or ordered layers ------------


def _both_paths(monkeypatch, fn, *args):
    """fn(*args) with the histogram summed over multisets, then folded in ordered layers."""
    out = []
    for multisets in (True, False):
        monkeypatch.setattr(vinogradov, "_by_multisets", lambda n, s, spans, m=multisets: m)
        out.append(fn(*args))
    return out


def test_both_paths_match_the_oracles(monkeypatch):
    rng = random.Random(20261019)
    for _ in range(60):
        d, s = rng.randint(1, 4), rng.randint(1, 6)
        n = rng.randint(1, {1: 7, 2: 5, 3: 4, 4: 3}.get(s, 2))
        xs = sorted(rng.sample(range(-6, 7), n))  # negatives and zero
        want = oracles.count_J_recursive(d, s, xs)
        assert _both_paths(monkeypatch, count_J, d, s, xs) == [want, want], (d, s, xs)
        H = n + 1
        lam = [rng.randint(-s * H**j, s * H**j) // 3 for j in range(1, d + 1)]
        want = oracles.count_I_recursive(d, s, H, lam)
        assert _both_paths(monkeypatch, count_I, d, s, H, lam) == [want, want], (d, s, H, lam)


def test_both_paths_give_the_same_histogram(monkeypatch):
    rng = random.Random("multisets")
    for _ in range(40):
        d, s = rng.randint(1, 4), rng.randint(1, 4)
        xs = sorted(rng.sample(range(-30, 31), rng.randint(1, 10)))
        multi, layered = _both_paths(monkeypatch, _power_sum_histogram, d, s, xs)
        assert multi == layered, (d, s, xs)


def test_both_paths_on_a_forced_collision(monkeypatch):
    # 1 + 5 + 6 = 2 + 3 + 7 and 1 + 25 + 36 = 4 + 9 + 49: two multisets share a key
    xs = (1, 2, 3, 5, 6, 7)
    multi, layered = _both_paths(monkeypatch, _power_sum_histogram, 2, 3, xs)
    assert multi == layered and len(multi) < math.comb(8, 3)
    want = oracles.count_J_recursive(2, 3, xs)
    assert _both_paths(monkeypatch, count_J, 2, 3, xs) == [want, want]


@pytest.mark.parametrize("d, s, xs, want", [
    # the sums of d = 1 collide: the plan keeps the ordered layers
    (1, 3, range(1, 201), 176002000040),
    (1, 4, range(1, 101), 47938730314300),
])
def test_colliding_sums_keep_the_layers(d, s, xs, want):
    t0 = time.perf_counter()
    assert count_J(d, s, xs) == want
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("fn, stage, args, pairs", [
    # n C(n + s - 2, s - 1), the ordered fold's last layer: 271 * C(272, 2) and
    # 87 * C(89, 3) fit, one key more does not; a one-element set costs 1
    (count_J, "count_J", (2, 3, range(1, 272)), None),
    (count_J, "count_J", (2, 3, range(1, 273)), 10098816),
    (count_J, "count_J", (4, 4, range(1, 88)), None),
    (count_J, "count_J", (4, 4, range(1, 89)), 10338240),
    (count_I, "count_I", (2, 3, 272, (0, 0)), 10098816),
    (count_J, "count_J", (2, 3, range(1, 401)), 32080000),
    (count_J, "count_J", (2, 2 * 10**7, [5]), None),
])
def test_multisets_are_charged_as_the_last_layer(monkeypatch, fn, stage, args, pairs):
    # the merge is stubbed so that the admitted folds do not run
    monkeypatch.setattr(energy, "_merge", lambda batches: Counter())
    if pairs is None:
        fn(*args)
    else:
        with pytest.raises(BudgetExceeded, match=f"{stage}: {pairs} pair steps .*FOLD_BUDGET"):
            fn(*args)


def test_one_element_set_answers_any_s_at_once():
    t0 = time.perf_counter()
    assert count_J(2, 2 * 10**7, [5]) == count_I(3, 10**6, 1, (0, 0, 0)) == 1
    # at s = 1 a pair x_1 = y_1 is forced: |X| pairs, and no key is built
    assert count_J(2, 1, range(1, 10**6 + 1)) == 10**6
    # T_s = c^(2s) for a histogram of one value taken c times, not s folds
    assert count_Ts(PolyMod((0, 1), 7), Interval(1), 10**9) == 1
    f = PolyMod((0, -1, 1), 2)  # x(x - 1) is 0 mod 2 at x = 1 and 2
    assert [count_Ts(f, Interval(2), s) for s in (1, 2, 3)] == [4, 16, 64]
    assert time.perf_counter() - t0 < 1.0
