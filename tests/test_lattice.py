import gc
import hashlib
import importlib
import itertools
import json
import math
import random
import re
import sys
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from energia.lattice import (
    DualBody,
    IntLattice,
    MinimaProfile,
    UnsupportedSize,
    WeightedBox,
    DEFAULT_NODE_BUDGET,
    _gram_dets,
    _independent,
    _lll,
    _points,
    bv_small_solutions,
    congruence_lattice,
    count_lattice_points,
    det_int,
    dual_lattice,
    fractional_measure,
    hnf_rows,
    hnf_with_transform,
    integer_kernel,
    inv_frac,
    lattice_from_string,
    lattice_points_within,
    lll_reduce,
    mahler_basis,
    minkowski_check,
    point_count_record,
    rational_rank,
    shortest_vector_in,
    successive_minima,
    to_fraction,
    transference_check,
)
from energia.cli import json_ready
from energia.eqcount import in_regime
from energia.ring import BudgetExceeded, DomainError

import oracles


def _det_laplace(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    return sum(
        (-1) ** j * mat[0][j] * _det_laplace([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j in range(n)
    )


def _random_unimodular(n, rng, shears=4):
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
    return mat


def _random_lattice(n, rng):
    diag = [[rng.randrange(1, 4) if i == j else 0 for j in range(n)] for i in range(n)]
    u = _random_unimodular(n, rng)
    rows = [[sum(u[i][k] * diag[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return IntLattice(tuple(tuple(r) for r in rows))


# --- integer linear algebra -------------------------------------------------


def test_hnf_shape_and_row_space():
    rows, rank = hnf_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert rank == 3
    for i in range(rank):
        piv = next(j for j, v in enumerate(rows[i]) if v != 0)
        assert rows[i][piv] > 0
        for k in range(i):
            assert 0 <= rows[k][piv] < rows[i][piv]
        for k in range(i + 1, rank):
            assert all(rows[k][j] == 0 for j in range(piv + 1))
    again, _ = hnf_rows(rows)
    assert again == rows  # idempotent on its own output


def test_hnf_transform_is_unimodular():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 5)
        mat = [[rng.randrange(-9, 10) for _ in range(m)] for _ in range(n)]
        h, u, rank = hnf_with_transform(mat)
        prod = [
            [sum(u[i][k] * mat[k][j] for k in range(n)) for j in range(m)]
            for i in range(n)
        ]
        assert prod == h
        assert abs(_det_laplace(u)) == 1
        assert (h, rank) == hnf_rows(mat)
        # [H | U] is the HNF of [mat | I]: the rows of U past the rank are in HNF
        tail = u[rank:]
        assert hnf_rows(tail) == (tail, len(tail))


def test_det_matches_laplace():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(1, 5)
        mat = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        assert det_int(mat) == _det_laplace(mat)


def test_integer_kernel_is_saturated():
    rng = random.Random(5)
    for _ in range(30):
        d0 = rng.randrange(1, 3)
        d = d0 + rng.randrange(1, 3)
        mat = [[rng.randrange(-4, 5) for _ in range(d)] for _ in range(d0)]
        kern = integer_kernel(mat)
        assert len(kern) == d - rational_rank(mat)
        for w in kern:
            assert all(sum(r[c] * w[c] for c in range(d)) == 0 for r in mat)
        if not kern:
            continue
        assert hnf_rows(kern) == (kern, len(kern))  # the canonical basis
        klat = IntLattice(tuple(tuple(r) for r in kern))
        # saturation: every small integer solution already lies in the kernel lattice
        ranges = [range(-3, 4)] * d

        def scan(i, acc):
            if i == d:
                if any(acc) and all(sum(r[c] * acc[c] for c in range(d)) == 0 for r in mat):
                    assert klat.coefficients_of(acc) is not None
                return
            for v in ranges[i]:
                scan(i + 1, acc + (v,))

        scan(0, ())


def test_inv_frac_roundtrip():
    mat = [[2, 1], [7, 4]]
    inv = inv_frac(mat)
    n = 2
    prod = [[sum(Fraction(mat[i][k]) * inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert prod == [[1, 0], [0, 1]]
    with pytest.raises(DomainError):
        inv_frac([[1, 2], [2, 4]])


_ENTRY = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30))


@st.composite
def _matrices(draw):
    """Up to 5 x 5, with repeated rows and integer combinations of earlier rows."""
    m = draw(st.integers(1, 5))
    n = draw(st.one_of(st.just(m), st.integers(1, 5)))
    rows = []
    for _ in range(m):
        how = draw(st.sampled_from(("new", "new", "copy", "combo"))) if rows else "new"
        if how == "new":
            rows.append([draw(_ENTRY) for _ in range(n)])
        elif how == "copy":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([x * p + y * q for p, q in zip(a, b)])
    return rows


@given(_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_elimination_against_fraction_oracles(mat, data):
    m, n = len(mat), len(mat[0])
    rank = oracles.frac_rank(mat)
    assert rational_rank(mat) == rank
    dens = data.draw(st.lists(st.integers(1, 10**6), min_size=m, max_size=m))
    scaled = [[Fraction(x, q) for x in row] for row, q in zip(mat, dens)]
    assert rational_rank(scaled) == rank
    assert _independent(scaled) == oracles.greedy_independent(scaled)
    limit = data.draw(st.integers(0, m))
    assert _independent(mat, limit) == oracles.greedy_independent(mat, limit)
    if m == n:
        assert det_int(mat) == _det_laplace(mat)
        if rank == n:
            assert inv_frac(mat) == oracles.frac_inverse(mat)
        else:
            with pytest.raises(DomainError):
                inv_frac(mat)

    basis = oracles.greedy_independent(mat)
    if not basis:
        return
    den = data.draw(st.integers(1, 12))
    lat = IntLattice(tuple(tuple(r) for r in basis), den)
    t = data.draw(st.lists(st.fractions(-5, 5, max_denominator=3), min_size=len(basis), max_size=len(basis)))
    vec = [sum(ti * row[c] for ti, row in zip(t, basis)) / den for c in range(n)]
    expect = tuple(int(x) for x in t) if all(x.denominator == 1 for x in t) else None
    assert lat.coefficients_of(vec) == expect
    if lat.is_full_rank:
        assert (expect is not None) == oracles.make_membership_test(basis, den)(vec)
    off = [data.draw(_ENTRY) for _ in range(n)]
    if oracles.frac_rank(basis + [off]) > len(basis):
        assert lat.coefficients_of([v + o for v, o in zip(vec, off)]) is None
    with pytest.raises(DomainError):
        lat.coefficients_of(vec + [0])


def test_to_fraction_rejects_floats():
    assert to_fraction("3/4") == to_fraction(" 3/4 ") == to_fraction(Fraction(3, 4)) == Fraction(3, 4)
    with pytest.raises(DomainError):
        to_fraction(0.5)


# --- bodies ------------------------------------------------------------------


def test_weighted_box():
    box = WeightedBox((Fraction(2), Fraction(1, 2)))
    assert box.norm((1, 1)) == 2
    assert box.norm((2, Fraction(1, 4))) == 1
    assert box.volume() == 4  # (2*2) * (2*1/2)
    assert box.polar().polar() == box
    with pytest.raises(DomainError):
        WeightedBox((Fraction(0), Fraction(1)))


def test_dual_body():
    cross = DualBody((Fraction(1), Fraction(2)))
    assert cross.norm((1, 1)) == 3
    assert cross.volume() == Fraction(4, 2) / (1 * 2)  # 2^n/n! / prod c
    assert cross.polar() == WeightedBox((Fraction(1), Fraction(2)))


_positive = st.fractions(min_value=Fraction(1, 60), max_value=1000, max_denominator=60)
_entry = st.one_of(st.integers(-10**6, 10**6), st.fractions(-1000, 1000, max_denominator=60))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_gauge_matches_per_coordinate_formulas(data):
    cs = tuple(data.draw(st.lists(_positive, min_size=1, max_size=6)))
    n = len(cs)
    ints = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
    mixed = data.draw(st.lists(_entry, min_size=n, max_size=n))
    box, cross = WeightedBox(cs), DualBody(cs)
    for vec in (ints, mixed):
        assert box.norm(vec) == max(abs(Fraction(x)) / c for x, c in zip(vec, cs))
        assert cross.norm(vec) == sum(c * abs(Fraction(x)) for x, c in zip(vec, cs))
    assert box.quad_weights() == tuple(1 / (c * c) for c in cs)
    assert cross.quad_weights() == tuple(c * c for c in cs)
    assert box.dim == cross.dim == n
    assert box == WeightedBox(tuple(str(c) for c in cs)) and repr(box) == f"WeightedBox(half_widths={cs!r})"


# --- lattices ----------------------------------------------------------------


def test_lattice_validation():
    with pytest.raises(DomainError):
        IntLattice(((1, 2), (2, 4)))
    with pytest.raises(DomainError):
        IntLattice(((1, 2), (0, 1), (1, 0)))
    with pytest.raises(DomainError):
        IntLattice(((1, 0),), den=0)
    lat = lattice_from_string("2,2;0,4", den=2)
    assert lat.covolume == 2
    assert lat.canonical() == IntLattice(((1, 1), (0, 2)))


def test_coefficients_of_roundtrip():
    lat = lattice_from_string("1,1;0,5")
    assert lat.coefficients_of((3, 13)) == (3, 2)
    assert lat.coefficients_of((0, 1)) is None


def test_congruence_lattice_shape():
    lat = congruence_lattice((1, 1), 5)
    assert lat.basis == ((1, 1), (0, 5))
    assert lat.covolume == 5
    lat3 = congruence_lattice((3, 4), 7)
    assert lat3.covolume == 7  # one congruence condition: index m in Z^d
    # membership: (3l mod 7 + 7a, 4l mod 7 + 7b)
    assert lat3.coefficients_of((3, 4)) is not None
    assert lat3.coefficients_of((6, 8)) is not None
    assert lat3.coefficients_of((1, 0)) is None


def test_lll_preserves_lattice():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randrange(2, 5)
        lat = _random_lattice(n, rng)
        qw = tuple(Fraction(1) for _ in range(n))
        red = lll_reduce(lat.basis, qw)
        assert IntLattice(tuple(tuple(r) for r in red)).canonical() == lat.canonical()


def _pipeline_box(d, m, H):
    return WeightedBox(tuple(Fraction(m, 100 * d * H**j) for j in range(1, d + 1)))


def test_lll_in_place_matches_recompute_oracle():
    rng = random.Random(2603)
    cases = []
    for k in range(240):
        n = 2 + k % 3
        rows = [[rng.randint(-10**9, 10**9) for _ in range(n)] for _ in range(n)]
        if det_int(rows) == 0:
            continue
        if k % 2:
            qw = WeightedBox(tuple(Fraction(rng.randrange(1, 10**4), rng.randrange(1, 100)) for _ in range(n))).quad_weights()
        else:
            qw = (Fraction(1),) * n
        cases.append((rows, qw))
    for k in range(90):
        d = 2 + k % 3
        m = rng.randrange(2, 10 ** rng.choice((3, 6, 9, 12, 18)))
        lat = congruence_lattice([rng.randrange(m) for _ in range(d)], m)
        cases.append((lat.basis, _pipeline_box(d, m, rng.randrange(1, 5)).quad_weights()))
    assert len(cases) >= 300
    # dimension 5, and the pipeline's weights at m = 10^30
    for k in range(24):
        rows = [[rng.randint(-10**6, 10**6) for _ in range(5)] for _ in range(5)]
        if det_int(rows) != 0:
            qw = (Fraction(1),) * 5 if k % 2 else tuple(Fraction(rng.randrange(1, 99), rng.randrange(1, 99)) for _ in range(5))
            cases.append((rows, qw))
    for k in range(9):
        d = 2 + k % 3
        lat = congruence_lattice([rng.randrange(10**30) for _ in range(d)], 10**30)
        cases.append((lat.basis, _pipeline_box(d, 10**30, rng.randrange(1, 10**4)).quad_weights()))
    # delta = 3/4 on every case; 1/3, 99/100 and 1 in turn on every eighth
    others = (Fraction(1, 3), Fraction(99, 100), Fraction(1))
    runs = [(rows, qw, Fraction(3, 4)) for rows, qw in cases]
    runs += [(rows, qw, others[c % 3]) for c, (rows, qw) in enumerate(cases[::8])]
    for rows, qw, delta in runs:
        red = lll_reduce(rows, qw, delta)
        assert red == oracles.lll_recompute(rows, qw, delta)
        # the form reaches _lll only as integers, so its scale cannot matter
        c = Fraction(rng.randrange(1, 1000), rng.randrange(1, 1000))
        assert lll_reduce(rows, tuple(c * x for x in qw), delta) == red
        # the Gram-Schmidt data kept in integers is that of the result:
        # mu_ij = lam_ij / d_{j+1} and bn_i = d_{i+1} / (d_i S)
        w, scale = _scaled(qw)
        basis, (d, lam) = _lll(rows, w, delta)
        mu = [[Fraction(x, d[j + 1]) for j, x in enumerate(row)] for row in lam]
        bn = [Fraction(d[i + 1], d[i] * scale) for i in range(len(lam))]
        assert (basis, mu, bn) == (red, *oracles.gram_schmidt_plain(red, qw))
    # mu = 5/2 is a tie: round half to even gives (1, 1), half up would give (-1, 1)
    unit = (Fraction(1),) * 2
    assert lll_reduce([[2, 0], [5, 1]], unit) == oracles.lll_recompute([[2, 0], [5, 1]], unit) == [[1, 1], [1, -1]]
    assert _lll([[2, 0], [5, 1]], (1, 1), Fraction(1, 3))[0] == [[2, 0], [1, 1]]
    # the Lovasz test is strict: bn_1 = (delta - mu^2) bn_0 exactly, so no swap
    for rows, qw, delta in (([[2, 0], [1, 1]], (1, 2), Fraction(3, 4)), ([[1, 0], [0, 1]], unit, Fraction(1))):
        assert lll_reduce(rows, qw, delta) == oracles.lll_recompute(rows, qw, delta) == rows
    # one row is returned as it is, even the zero row that has no Gram-Schmidt data
    for rows in ([[0, 0]], [[3, -4]]):
        assert lll_reduce(rows, (Fraction(1),) * 2) == oracles.lll_recompute(rows, (Fraction(1),) * 2) == rows


def _integer_search(rows, gs, den, body, radius, shifted=False):
    """_points at the cap floor(radius den S), its gauges read back as norms."""
    cap = radius.numerator * den * body._scale // radius.denominator
    pts = _points(rows, gs, body, cap, DEFAULT_NODE_BUDGET, shifted)
    return [(Fraction(g, body._scale * den), v) for g, v in pts]


def test_integer_search_matches_fraction_oracle():
    rng = random.Random(2610)
    widths = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2))
    cases = 0
    for k in range(64):
        n = 2 + k % 4
        den = (1, 2, 6)[k % 3]
        basis = _random_lattice(n, rng).basis
        cs = tuple(rng.choice(widths) for _ in range(n))
        body = DualBody(cs) if k % 2 else WeightedBox(cs)
        qw = body.quad_weights()
        rows, gs = _lll(basis, body._form)
        mu, bn = oracles.gram_schmidt_plain(rows, qw)
        norms = sorted(body.norm(r) / den for r in rows)
        # the SVP's radius, one between, and the minima engine's below dimension 5
        radii = {min(norms[0], Fraction(1)), (norms[0] + norms[-1]) / 2}
        for radius in (radii | {norms[-1]}) if n < 5 else radii:
            want = oracles.points_fraction(rows, den, body, radius, mu, bn)
            assert _integer_search(rows, gs, den, body, radius) == [p[:2] for p in want]
            cases += 1
        # the coset search of mahler_basis, out to the shift's norm: rows that
        # LLL did not reduce, the last one the shift rows[-1] +- rows[j]
        if k % 3 == 0:
            e = [0] * (n - 1) + [1]
            e[rng.randrange(n - 1)] = rng.choice((-1, 1))
            coset = rows[:-1] + [[sum(x * r[c] for x, r in zip(e, rows)) for c in range(n)]]
            radius = body.norm(coset[-1]) / den
            want = oracles.points_fraction(coset, den, body, radius, *oracles.gram_schmidt_plain(coset, qw), shifted=True)
            assert want and _integer_search(coset, _gram_dets(coset, body._form), den, body, radius, True) == [p[:2] for p in want]
            cases += 1
    # the congruence pipeline's boxes at m = 10^30
    for k in range(12):
        d = 2 + k % 2
        lat = congruence_lattice([rng.randrange(10**30) for _ in range(d - 1)] + [1], 10**30)
        body = _pipeline_box(d, 10**30, rng.randrange(10**4, 10**6) if d == 2 else rng.randrange(10, 10**3))
        qw = body.quad_weights()
        rows, gs = _lll(lat.basis, body._form)
        radius = min([Fraction(1)] + [body.norm(r) for r in rows])
        want = oracles.points_fraction(rows, 1, body, radius, *oracles.gram_schmidt_plain(rows, qw))
        assert want and _integer_search(rows, gs, 1, body, radius) == [p[:2] for p in want]
        cases += 1
    # and at d = 4..6 in regime, where the scale of the lower levels grows to
    # thousands of bits: out to the SVP's radius and the longest reduced row
    for k in range(12):
        d = 4 + k % 3
        H = rng.randrange(1, {4: 92, 5: 13, 6: 5}[d])
        assert in_regime(d, 10**30, H)
        lat = congruence_lattice([rng.randrange(10**30) for _ in range(d - 1)] + [1], 10**30)
        body = _pipeline_box(d, 10**30, H)
        qw = body.quad_weights()
        rows, gs = _lll(lat.basis, body._form)
        norms = sorted(body.norm(r) for r in rows)
        for radius in (min(Fraction(1), norms[0]), norms[-1]):
            want = oracles.points_fraction(rows, 1, body, radius, *oracles.gram_schmidt_plain(rows, qw))
            assert want and _integer_search(rows, gs, 1, body, radius) == [p[:2] for p in want]
            cases += 1
    assert cases >= 200


def test_lll_reduce_refuses_a_bad_delta_or_form():
    rows, unit = [[1, 0], [0, 1]], (Fraction(1),) * 2
    # delta = 2 made the swap loop run forever; a float was taken silently
    for delta in (Fraction(2), Fraction(1, 4), Fraction(1, 5), -1, 0.75, "x"):
        t0 = time.perf_counter()
        with pytest.raises(DomainError):
            lll_reduce(rows, unit, delta)
        with pytest.raises(DomainError):
            lll_reduce([[3, -4]], unit, delta)
        assert time.perf_counter() - t0 < 1.0
    assert lll_reduce(rows, unit, 1) == lll_reduce(rows, unit, "99/100") == rows
    # a form that is not positive definite on the rows has some d_i <= 0
    for qw in ((1, -1), (0, 1), (-1, -1)):
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="positive definite"):
            lll_reduce([[3, 1], [5, 2]], qw)
        assert time.perf_counter() - t0 < 1.0
    assert lll_reduce([[1, 0, 0], [0, 1, 0]], (1, 1, 0)) == [[1, 0, 0], [0, 1, 0]]
    # a short form or ragged rows were cut to the shortest length by zip
    for rows, qw in (([[1, 0, 100], [5, 1, -7]], (1, 1)), ([[1, 0], [5, 1, -7]], (1, 1, 1))):
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="same length"):
            lll_reduce(rows, qw)
        assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("bad", [(0.1, 1), ("abc", 1), (1, "1/0")])
@pytest.mark.parametrize("entry", [
    lambda vec: lll_reduce([[1, 0], [3, 1]], vec),
    lambda vec: WeightedBox((1, 1)).norm(vec),
    lambda vec: IntLattice(((1, 0), (0, 2))).coefficients_of(vec),
    lambda vec: rational_rank([vec, (1, 1)]),
], ids=["lll_reduce", "norm", "coefficients_of", "rational_rank"])
def test_rational_vectors_refuse_floats_and_malformed_rationals(entry, bad):
    # a float form was reduced silently, and the malformed rationals raised
    # a bare ValueError or ZeroDivisionError
    with pytest.raises(DomainError):
        entry(bad)


def test_shortest_vector_matches_full_radius_oracle():
    rng = random.Random(2604)
    found = 0
    for k in range(220):
        d = 2 + k % 2
        H = rng.randrange(1, 5) if d == 2 else rng.randrange(1, 3)
        m_min = 1
        while not in_regime(d, m_min, H):
            m_min *= 2
        m = rng.randrange(m_min, 4 * m_min)
        assert in_regime(d, m, H)
        lat = congruence_lattice([rng.randrange(m) for _ in range(d - 1)] + [1], m)
        box = _pipeline_box(d, m, H)
        want = oracles.shortest_vector_full_radius(lat, box)
        assert want is not None  # Minkowski guarantees a point in regime
        assert shortest_vector_in(lat, box) == want
        found += 1
    # shrunken boxes, where the least basis row is longer than 1 and None can come back
    for k in range(40):
        lat = _random_lattice(2 + k % 2, rng)
        box = WeightedBox(tuple(Fraction(rng.randrange(1, 9), rng.randrange(1, 9)) for _ in range(lat.dim)))
        assert shortest_vector_in(lat, box) == oracles.shortest_vector_full_radius(lat, box)
    assert found >= 200


from energia.lattice import _canonical_sign, _gauss, _svp  # noqa: E402
from energia.ring import is_probable_prime  # noqa: E402


def _svp_by_enumeration(rows, body, cap):
    """_svp's answer from the general path at any rank: LLL, then Fincke-Pohst."""
    red, gs = _lll(rows, body._form)
    pts = _points(red, gs, body, min([cap] + [body._gauge(r) for r in red]), DEFAULT_NODE_BUDGET)
    return min(((g, _canonical_sign(v)) for g, v in pts), default=(0, None))[1]


def test_gauss_matches_the_general_search():
    rng = random.Random(2101)
    seen = {"cases": 0, "none": 0, "tie": 0, "wide": 0, "prime": 0, "scaled": 0}
    for k in range(3600):
        cap = None
        m = rng.randrange(2, (20, 60, 10**4, 10**9)[k % 4])
        if k % 8 == 3:
            while not is_probable_prime(m):
                m += 1
        H = rng.randrange(1, 12 if m > 1000 else 4)
        if k % 5 < 3:
            # the pipeline's lattice at d = 2, its box (c = 200) or a wider
            # one, or a cross-polytope on the same weights; in every other
            # block of 15, also scaled by the weights onto the unit body
            c = (200, 4, 1)[k // 5 % 3]
            seen["prime"] += is_probable_prime(m)
            rows = [(rng.randrange(m), 1), (m, 0)]
            ws = (c * H, c * H * H)
            weights = tuple(Fraction(w, m) for w in ws)
            body = DualBody(weights) if k % 5 % 2 else WeightedBox(tuple(1 / x for x in weights))
            if k // 15 % 2:
                want = _svp(rows, body, body._scale)
                rows, body, cap = [tuple(x * w for x, w in zip(r, ws)) for r in rows], type(body)((1, 1)), m
                seen["scaled"] += 1
                assert _svp(rows, body, cap) == (None if want is None else tuple(x * w for x, w in zip(want, ws)))
        else:  # a small basis and a body of Fractions, often of equal widths, so ties are common
            rows = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(2)]
            if det_int(rows) == 0:
                continue
            cs = tuple(Fraction(rng.randrange(1, 13), rng.randrange(1, 4)) for _ in range(2))
            cs = cs if k % 3 == 0 else cs[:1] * 2
            body = WeightedBox(cs) if k % 2 else DualBody(tuple(1 / c for c in cs))
        cap = cap or body._scale
        want = _svp_by_enumeration(rows, body, cap)
        assert _svp(rows, body, cap) == want
        # b1, b2 is a basis at the two successive minima, and each least
        # vector is x b1 + y b2 with |x|, |y| <= 2, the candidates of _svp
        (g1, b1), (g2, b2) = _gauss(rows, body)
        det = b1[0] * b2[1] - b1[1] * b2[0]
        assert g1 <= g2 and abs(det) == abs(det_int(rows))
        red, gs = _lll(rows, body._form)
        pts = _points(red, gs, body, g2, DEFAULT_NODE_BUDGET)
        assert min(g for g, _ in pts) == g1
        assert min(g for g, v in pts if v[0] * b1[1] != v[1] * b1[0]) == g2
        for g, v in pts:
            if g == g1:
                x, y = (v[0] * b2[1] - v[1] * b2[0]) // det, (b1[0] * v[1] - b1[1] * v[0]) // det
                assert max(abs(x), abs(y)) <= 2 and (y == 0 or g1 == g2)
                seen["wide"] += max(abs(x), abs(y)) == 2 and y != 0
        seen["cases"] += 1
        seen["none"] += want is None
        seen["tie"] += g1 == g2
    # over 3000 lattices, None and an answer each in over 1000; ties at the
    # minimum, least vectors past b1 +- b2 (wide) and prime moduli
    assert seen["cases"] >= 3000 and seen["cases"] - seen["none"] >= 1000 and seen["none"] >= 1000, seen
    assert seen["tie"] >= 200 and seen["wide"] >= 5 and seen["prime"] >= 400 and seen["scaled"] >= 1000, seen


def test_integer_svp_matches_the_fraction_box():
    """The pipeline's entry: _svp on the closed-form basis with column j
    scaled by w_j = 100 d H^j, under the unit cube out to m, gives
    shortest_vector_in's vector on the IntLattice and the Fraction box once
    divided by w_j, so the skipped rank check and Fraction box change nothing."""
    rng = random.Random(2102)
    nones = 0
    for k in range(120):
        d = 2 + k % 4
        H = rng.randrange(1, 5)
        m_min = 2
        while not in_regime(d, m_min, H):
            m_min *= 2
        m = (_next_prime(m_min + rng.randrange(m_min)), 6 * m_min + 6, 10**30, rng.randrange(2, max(3, m_min // 8)))[k // 4 % 4]
        rows = [tuple(rng.randrange(m) for _ in range(d - 1)) + (1,)] + [tuple(m * (i == j) for j in range(d)) for i in range(d - 1)]
        w, box, cube = [100 * d * H**j for j in range(1, d + 1)], _pipeline_box(d, m, H), WeightedBox((1,) * d)
        want = shortest_vector_in(IntLattice(tuple(rows)), box)
        y = _svp([[x * wj for x, wj in zip(r, w)] for r in rows], cube, m)
        assert (y is None) == (want is None)
        if y is not None:
            assert all(yj % wj == 0 for yj, wj in zip(y, w))
            assert tuple(yj // wj for yj, wj in zip(y, w)) == want
            # the cube's gauge out of m is the box's out of its scale
            assert cube._gauge(y) * box._scale == box._gauge(want) * m
        if m < 8 * m_min:  # few points in the box: the oracle scans them all
            assert want == oracles.shortest_vector_full_radius(IntLattice(tuple(rows)), box)
        nones += want is None
    assert nones >= 10


def test_scaling_onto_the_cube_keeps_the_tie_break():
    """Where several least vectors tie, lexicographic order picks one; scaling
    column j by w_j > 0 onto the cube out to m keeps that pick.  Small bases
    and small weights make ties common, at rank 2 (_gauss) and 3 (LLL and
    Fincke-Pohst), unlike the pipeline's boxes, where none was seen."""
    rng = random.Random(2401)
    ties = {2: 0, 3: 0}
    for k in range(600):
        n = 2 + k % 2
        lat = _random_lattice(n, rng)
        w = [rng.randrange(1, 4) for _ in range(n)]
        m = rng.randrange(2, 12)
        box = WeightedBox(tuple(Fraction(m, wj) for wj in w))
        want = shortest_vector_in(lat, box)
        y = _svp([[x * wj for x, wj in zip(r, w)] for r in lat.basis], WeightedBox((1,) * n), m)
        assert y == (None if want is None else tuple(x * wj for x, wj in zip(want, w)))
        if want is not None:
            least = box.norm(want)
            tied = {_canonical_sign(v) for v in lattice_points_within(lat, box, least)}
            assert {box.norm(v) for v in tied} == {least} and min(tied) == want
            ties[n] += len(tied) > 1
    assert min(ties.values()) >= 30, ties


def _next_prime(n):
    while not is_probable_prime(n):
        n += 1
    return n


# --- minima ------------------------------------------------------------------


def test_minima_frozen_examples():
    z2 = IntLattice(((1, 0), (0, 1)))
    box = WeightedBox((Fraction(2), Fraction(1)))
    prof = successive_minima(z2, box)
    assert prof.minima == (Fraction(1, 2), Fraction(1))
    assert prof.witnesses == ((1, 0), (0, 1))

    cong = congruence_lattice((1, 1), 5)
    unit = WeightedBox((Fraction(1), Fraction(1)))
    prof2 = successive_minima(cong, unit)
    assert prof2.minima == (Fraction(1), Fraction(3))
    assert prof2.witnesses == ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(-3)))


def test_minima_against_scan_oracle():
    rng = random.Random(77)
    for trial in range(14):
        n = 2 if trial < 10 else 3
        lat = _random_lattice(n, rng)
        cs = tuple(Fraction(rng.randrange(1, 5), rng.randrange(1, 3)) for _ in range(n))
        body = WeightedBox(cs)
        prof = successive_minima(lat, body)
        cap = prof.minima[-1]
        box = [int(cap * c) + 1 for c in cs]
        got, qualifying = oracles.minima_by_scan(
            lat.basis, lat.den,
            lambda vec: max(abs(Fraction(v)) / c for v, c in zip(vec, cs)),
            box, cap,
        )
        assert qualifying >= n
        assert list(prof.minima) == got
        # witnesses are genuine lattice vectors achieving the minima
        for w, lam in zip(prof.witnesses, prof.minima):
            assert lat.coefficients_of(w) is not None
            assert body.norm(w) == lam


def test_shortest_vector():
    z2 = IntLattice(((1, 0), (0, 1)))
    assert shortest_vector_in(z2, WeightedBox((Fraction(1, 2), Fraction(1, 2)))) is None
    v = shortest_vector_in(z2, WeightedBox((Fraction(1), Fraction(2))))
    assert v == (0, 1)  # norm 1/2 beats (1,0) at norm 1


def test_lattice_points_within_radius():
    z2 = IntLattice(((1, 0), (0, 1)))
    pts = lattice_points_within(z2, WeightedBox((Fraction(2), Fraction(1))))
    assert len(pts) == 14  # 5 x 3 grid minus origin
    assert count_lattice_points(z2, WeightedBox((Fraction(2), Fraction(1)))) == 15
    # the radius is coerced exactly: a float is refused, not rounded to a binary fraction
    box = WeightedBox((2, 1))
    assert lattice_points_within(z2, box, Fraction(1, 2)) == lattice_points_within(z2, box, "1/2") == [(1, 0), (-1, 0)]
    with pytest.raises(DomainError):
        lattice_points_within(z2, box, 0.5)
    # a negative radius is refused before any enumeration; radius 0 holds no nonzero point
    assert lattice_points_within(z2, box, 0) == []
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="radius"):
        lattice_points_within(z2, WeightedBox((1, 1)), -30)
    assert time.perf_counter() - t0 < 0.05


def test_lattice_points_within_matches_scan_oracle():
    rng = random.Random(2707)
    radii = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    widths = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    for n, den, dual, radius in itertools.product((2, 3), (1, 2, 3), (False, True), radii):
        lat = IntLattice(_random_lattice(n, rng).basis, den)
        cs = tuple(rng.choice(widths) for _ in range(n))
        body = DualBody(cs) if dual else WeightedBox(cs)
        # |x_i| <= radius / c_i in the cross-polytope, radius * c_i in the box
        box = [int(den * radius * (1 / c if dual else c)) for c in cs]
        if dual:
            norm = lambda vec: sum(c * abs(v) for v, c in zip(vec, cs))
        else:
            norm = lambda vec: max(abs(v) / c for v, c in zip(vec, cs))
        want = oracles.points_by_scan(lat.basis, den, norm, box, radius)
        got = lattice_points_within(lat, body, radius)
        assert sorted(got) == sorted(v for _, v in want)
        assert len(set(got)) == len(got) and (0,) * n not in got
        # each v is followed by -v
        assert got[1::2] == [tuple(-x for x in v) for v in got[::2]]
        if radius == 1:
            assert count_lattice_points(lat, body) == len(want) + 1


def test_minkowski_random():
    rng = random.Random(99)
    for _ in range(15):
        n = rng.randrange(2, 4)
        lat = _random_lattice(n, rng)
        body = WeightedBox(tuple(Fraction(rng.randrange(1, 4), rng.randrange(1, 3)) for _ in range(n)))
        rec = minkowski_check(lat, body)
        assert rec.ok
        assert rec.lower <= rec.ratio <= rec.upper


def test_dual_involution_and_pairing():
    rng = random.Random(41)
    for _ in range(15):
        n = rng.randrange(2, 4)
        lat = _random_lattice(n, rng).canonical()
        dual = dual_lattice(lat)
        assert dual_lattice(dual) == lat
        assert dual.covolume * lat.covolume == 1
        for x in lat.vectors():
            for y in dual.vectors():
                assert sum(a * b for a, b in zip(x, y)).denominator == 1


def test_transference():
    rng = random.Random(43)
    for _ in range(10):
        n = rng.randrange(2, 4)
        lat = _random_lattice(n, rng)
        body = WeightedBox(tuple(Fraction(rng.randrange(1, 4)) for _ in range(n)))
        rec = transference_check(lat, body)
        assert rec.ok
        assert all(p >= 1 for p in rec.products)
        assert rec.max_product == max(rec.products)


def test_point_count_record():
    z2 = IntLattice(((1, 0), (0, 1)))
    rec = point_count_record(z2, WeightedBox((Fraction(2), Fraction(1))))
    assert rec.count == 15
    assert rec.reference == 2  # max(1, 1/(1/2)) * max(1, 1/1)
    assert rec.cn == Fraction(15, 2)


def test_mahler_basis():
    cong = congruence_lattice((1, 1), 5)
    unit = WeightedBox((Fraction(1), Fraction(1)))
    rec = mahler_basis(cong, unit, queries=[(2, -3), (5, 0)])
    assert rec.within_factor
    assert rec.norms[0] == rec.minima[0]
    assert rec.norms[1] <= rec.factor * rec.minima[1]
    basis_lat = IntLattice(
        tuple(tuple(int(x) for x in row) for row in rec.basis)
    )
    assert basis_lat.canonical() == cong.canonical()
    for coords, val in rec.expansions:
        assert val <= rec.expansion_constant


def test_mahler_on_random_lattices():
    rng = random.Random(57)
    for _ in range(8):
        n = rng.randrange(2, 4)
        lat = _random_lattice(n, rng)
        body = WeightedBox(tuple(Fraction(rng.randrange(1, 3)) for _ in range(n)))
        rec = mahler_basis(lat, body)
        assert rec.within_factor
        assert all(n1 <= rec.factor * n2 for n1, n2 in zip(rec.norms, rec.minima))


def test_mahler_basis_matches_saturation_oracle():
    # one transform for the whole filtration against a fresh saturation and
    # cofactor completion at every step: the same records, queries included
    rng = random.Random(1212)
    widths = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2))
    for k in range(48):
        n = 2 + k % 3
        lat = IntLattice(_random_lattice(n, rng).basis, 1 + k // 3 % 3)
        cs = tuple(rng.choice(widths) for _ in range(n))
        body = DualBody(cs) if k % 2 else WeightedBox(cs)
        queries = [
            tuple(Fraction(sum(t[i] * lat.basis[i][c] for i in range(n)), lat.den) for c in range(n))
            for t in ([rng.randint(-3, 3) for _ in range(n)] for _ in range(2))
        ]
        assert mahler_basis(lat, body, queries) == oracles.mahler_basis_by_saturation(lat, body, queries)


def test_bv_frozen_examples():
    rec = bv_small_solutions([[1, 1, 1]])
    assert rec.max_norms == (1, 1)
    assert rec.product == 1
    assert rec.product_bound_ok and rec.min_vector_bound_ok
    assert rec.is_basis

    rec2 = bv_small_solutions([[2, 4]])
    assert rec2.solutions == ((2, -1),)
    assert rec2.minor_gcd == 2
    assert rec2.gram_det == 20
    assert rec2.product_bound_ok  # 2^2 * 2^2 = 16 <= 20

    # the instance that breaks the exponent-on-product reading
    rec3 = bv_small_solutions([[3, 5, 7]])
    assert rec3.gram_det == 83
    assert rec3.minor_gcd == 1
    assert rec3.product_bound_ok and rec3.min_vector_bound_ok
    for w in rec3.solutions:
        assert 3 * w[0] + 5 * w[1] + 7 * w[2] == 0


def test_bv_random_certificates():
    rng = random.Random(8)
    for _ in range(20):
        d0 = rng.randrange(1, 3)
        d = d0 + rng.randrange(1, 4)
        while True:
            mat = [[rng.randrange(-9, 10) for _ in range(d)] for _ in range(d0)]
            if rational_rank(mat) == d0:
                break
        rec = bv_small_solutions(mat)
        assert len(rec.solutions) == d - d0
        for w in rec.solutions:
            assert all(sum(r[c] * w[c] for c in range(d)) == 0 for r in mat)
        assert rec.product_bound_ok
        assert rec.min_vector_bound_ok


def test_bv_validation():
    with pytest.raises(DomainError):
        bv_small_solutions([[1, 2], [2, 4]])
    with pytest.raises(DomainError):
        bv_small_solutions([[1, 0], [0, 1]])


def test_fractional_measure_identity():
    rec = fractional_measure([[1, 0], [0, 1]], ["1/4", "1/4"], samples=20000, seed=5)
    assert rec.target == Fraction(1, 16)
    assert abs(rec.estimate - float(rec.target)) <= rec.band3
    again = fractional_measure([[1, 0], [0, 1]], ["1/4", "1/4"], samples=20000, seed=5)
    assert again == rec  # deterministic


_PLANE = IntLattice(((1, 0, 0), (0, 1, 0)))  # rank 2 in Z^3
_CUBE3 = WeightedBox((1, 1, 1))
_ID9 = IntLattice(tuple(tuple(int(i == j) for j in range(9)) for i in range(9)))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: integer_kernel([]), DomainError, "empty matrix", id="kernel-empty"),
    pytest.param(lambda: IntLattice(()), DomainError, "empty basis", id="lattice-empty"),
    pytest.param(lambda: IntLattice(((1, 0), (1,))), DomainError, "ragged basis", id="lattice-ragged"),
    pytest.param(lambda: _PLANE.covolume, DomainError, "covolume needs a full-rank lattice", id="covolume-rank"),
    pytest.param(lambda: dual_lattice(_PLANE), DomainError, "dual needs a full-rank lattice", id="dual-rank"),
    pytest.param(
        lambda: count_lattice_points(_PLANE, _CUBE3), DomainError, "point counting needs a full-rank lattice",
        id="count-rank",
    ),
    pytest.param(
        lambda: mahler_basis(_PLANE, _CUBE3), DomainError, "basis construction needs a full-rank lattice",
        id="mahler-rank",
    ),
    pytest.param(lambda: congruence_lattice([1], 1), DomainError, "modulus must be >= 2, got 1", id="congruence-m-1"),
    pytest.param(lambda: congruence_lattice([], 5), DomainError, "need at least one coefficient", id="congruence-empty"),
    pytest.param(
        lambda: lattice_points_within(_PLANE, WeightedBox((1, 1))), DomainError,
        "body dimension does not match the lattice", id="within-body-dim",
    ),
    pytest.param(
        lambda: successive_minima(_PLANE, WeightedBox((1, 1))), DomainError,
        "body dimension does not match the lattice", id="minima-body-dim",
    ),
    pytest.param(
        lambda: shortest_vector_in(_PLANE, WeightedBox((1, 1))), DomainError,
        "body dimension does not match the lattice", id="svp-body-dim",
    ),
    pytest.param(lambda: MinimaProfile((Fraction(0),), ((1,),)), DomainError, "minima must be positive", id="minima-0"),
    pytest.param(
        lambda: MinimaProfile((Fraction(2), Fraction(1)), ((1, 0), (0, 1))), DomainError,
        "minima must be nondecreasing", id="minima-decreasing",
    ),
    pytest.param(
        lambda: MinimaProfile((Fraction(1), Fraction(2)), ((1, 0),)), DomainError,
        "need one witness per minimum", id="minima-witness",
    ),
    pytest.param(
        lambda: count_lattice_points(_ID9, WeightedBox((1,) * 9)), UnsupportedSize,
        "dimension 9 exceeds the enumeration bound 8", id="count-dim-9",
    ),
    pytest.param(
        lambda: mahler_basis(_ID9, WeightedBox((1,) * 9)), UnsupportedSize,
        "dimension 9 exceeds the enumeration bound 8", id="mahler-dim-9",
    ),
    pytest.param(
        lambda: mahler_basis(IntLattice(((2, 0), (0, 1))), WeightedBox((1, 1)), [(1, 0)]), DomainError,
        "query (1, 0) is not a lattice vector", id="mahler-query",
    ),
    pytest.param(lambda: bv_small_solutions([]), DomainError, "empty matrix", id="bv-empty"),
    pytest.param(lambda: bv_small_solutions([[1, 2, 3], [1, 2]]), DomainError, "ragged matrix", id="bv-ragged"),
    pytest.param(
        lambda: bv_small_solutions([[1, 2, 3], [2, 4, 6]]), DomainError, "matrix must have full row rank",
        id="bv-rank",
    ),
    pytest.param(
        lambda: bv_small_solutions([[1] * 10]), UnsupportedSize,
        "ambient dimension 10 exceeds the enumeration bound 8", id="bv-dim-10",
    ),
    pytest.param(
        lambda: fractional_measure([[1, 0]], ["1/4", "1/4"]), DomainError, "matrix must be square",
        id="measure-square",
    ),
    pytest.param(
        lambda: fractional_measure([[1, 0], [0, 1]], ["1/4"]), DomainError, "need 2 epsilons, got 1",
        id="measure-eps",
    ),
    pytest.param(
        lambda: fractional_measure([[1, 0], [0, 1]], ["1/4", "1/4"], samples=0), DomainError,
        "need at least one sample", id="measure-samples-0",
    ),
])
def test_every_lattice_refusal_names_its_cause(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_fractional_measure_validation():
    with pytest.raises(DomainError):
        fractional_measure([[1, 2], [2, 4]], ["1/4", "1/4"])
    with pytest.raises(DomainError):
        fractional_measure([[1, 0], [0, 1]], ["3/4", "1/4"])
    with pytest.raises(DomainError):
        fractional_measure([[1, 0], [0, 1]], [0.25, 0.25])


@pytest.mark.parametrize("mat, samples", [
    ([[1]], 2 * 10**6 + 1),
    ([[1, 0], [0, 1]], 500_001),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 222_223),  # 9 * 222223 = 2000007 steps
    ([[1, 0], [0, 1]], 10**8),
])
def test_fractional_measure_priced_before_the_first_sample(mat, samples):
    # samples * d^2 steps past _MEASURE_BUDGET = 2e6 are refused at once;
    # criterion 09 (d = 3, 1e5 samples, 9e5 steps) stays inside it
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="fractional_measure: .*_MEASURE_BUDGET"):
        fractional_measure(mat, ["1/4"] * len(mat), samples=samples)
    assert time.perf_counter() - t0 < 1.0


def test_fresh_import_releases_old_classes():
    # a module-level typing.Union caches its arguments, and would keep every
    # earlier import's classes (and through them the module) alive
    saved = {k: v for k, v in sys.modules.items() if k == "energia" or k.startswith("energia.")}

    def fresh():
        for k in [k for k in sys.modules if k == "energia" or k.startswith("energia.")]:
            del sys.modules[k]
        importlib.import_module("energia.cli")
        return sys.modules["energia.lattice"]

    try:
        first = weakref.ref(fresh().WeightedBox)
        second = fresh()
        gc.collect()
        assert first() is None
        assert second.Body.__args__ == (second.WeightedBox, second.DualBody)
    finally:
        for k in [k for k in sys.modules if k == "energia" or k.startswith("energia.")]:
            del sys.modules[k]
        sys.modules.update(saved)


def test_dimension_guard():
    n = 9
    eye = IntLattice(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    with pytest.raises(UnsupportedSize):
        successive_minima(eye, WeightedBox((Fraction(1),) * n))


def _geometry_records():
    rng = random.Random("geometry-digest")
    halfwidths = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
    records = []
    for n in (2, 2, 2, 3, 3, 3):
        lat = _random_lattice(n, rng)
        lat = IntLattice(lat.basis, rng.choice((1, 2, 6)))
        body = WeightedBox(tuple(rng.choice(halfwidths) for _ in range(n)))
        queries = [
            tuple(Fraction(sum(t[i] * lat.basis[i][c] for i in range(n)), lat.den) for c in range(n))
            for t in ([rng.randint(-3, 3) for _ in range(n)] for _ in range(2))
        ]
        records += [
            successive_minima(lat, body),
            successive_minima(lat, body.polar()),
            dual_lattice(lat),
            transference_check(lat, body),
            mahler_basis(lat, body, queries),
            [lat.coefficients_of(q) for q in queries + [(Fraction(1, 7),) * n]],
        ]
        sub = IntLattice(lat.basis[1:], lat.den)
        inside = tuple(Fraction(a + 2 * b, lat.den) for a, b in zip(*lat.basis[-2:]))
        records.append([sub.canonical(), sub.coefficients_of(inside), sub.coefficients_of(queries[0])])
    for _ in range(6):
        d0 = rng.randint(1, 2)
        d = rng.randint(d0 + 1, 4)
        mat = [[rng.randint(-20, 20) for _ in range(d)] for _ in range(d0)]
        records.append(bv_small_solutions(mat) if rational_rank(mat) == d0 else None)
    return records


def test_geometry_digest():
    # successive minima, duals, Mahler bases with query expansions and small
    # nullspace certificates, byte for byte: any change to an exact output shows here
    text = json.dumps(json_ready(_geometry_records()), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9cf9e6356023dc443ee8e29fdc056d8e98b941b2ab0a54e54a8901da44d393d5"
    )


def test_fractional_measure_counts_each_sample_once_more():
    # samples * (d^2 + 1) steps: a sample's own loop costs about as much as d = 1's
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="fractional_measure: 2000002 steps"):
        fractional_measure([[1]], ["1/4"], samples=10**6 + 1)
    assert time.perf_counter() - t0 < 1.0


# --- closed-form weights and the up-front price of a search ------------------

from energia.lattice import _scaled, _tile_bound  # noqa: E402

_weight_entry = st.one_of(_positive, st.integers(1, 10**6), st.just(1), st.just(Fraction(1)))


@given(st.lists(_weight_entry, min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_gauge_weights_match_the_scaled_fractions(cs):
    # the weights come from each c's numerator and denominator; the reference
    # builds w_i = 1/c_i (box) or c_i (cross-polytope) as Fractions and scales them
    box, cross = WeightedBox(cs), DualBody(cs)
    assert (list(box._weights), box._scale) == _scaled([1 / Fraction(c) for c in cs])
    assert (list(cross._weights), cross._scale) == _scaled([Fraction(c) for c in cs])
    for body in (box, cross):
        assert all(type(w) is int and w > 0 for w in body._weights) and type(body._scale) is int


def test_tile_bound_never_exceeds_the_count():
    rng = random.Random(1806)
    positive = 0
    for k in range(60):
        n = 2 + k % 3
        dual = k % 2 == 1
        lat = _random_lattice(n, rng)
        cs = tuple(Fraction(rng.randrange(2, 5), rng.randrange(1, 3)) for _ in range(n))
        body = DualBody(cs) if dual else WeightedBox(cs)
        # |x_i| <= radius / c_i in the cross-polytope, radius * c_i in the box;
        # the numerator scan is kept to at most 7^4 points
        reach = [1 / c if dual else c for c in cs]
        radius = rng.randrange(*{2: (4, 17), 3: (3, 8), 4: (2, 4)}[n]) / max(reach)
        cap = radius.numerator * body._scale // radius.denominator
        if dual:
            norm = lambda vec: sum(c * abs(v) for v, c in zip(vec, cs))
        else:
            norm = lambda vec: max(abs(v) / c for v, c in zip(vec, cs))
        count = len(oracles.points_by_scan(lat.basis, 1, norm, [int(radius * r) for r in reach], radius)) + 1
        # the bound holds for any basis; _points passes the LLL-reduced one
        for rows in (lat.basis, _lll(lat.basis, body._form)[0]):
            bound = _tile_bound(rows, _gram_dets(rows, body._form)[0][-1], body, cap)
            assert 0 <= bound <= count, (k, rows, cs, radius, bound, count)
            positive += bound > 1
    assert positive >= 40
    # a cross-polytope in dimension 4 needs 2 cap > rho = 4 here: Z^4 and sum |x_i| <= 4
    eye = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    count = len(oracles.points_by_scan(eye, 1, lambda vec: sum(map(abs, vec)), [4] * 4, 4)) + 1
    assert _tile_bound(eye, 1, DualBody((1,) * 4), 4) == 11 <= count
    # a sheared basis of Z^2: the box shrinks by 1 and 2 in its coordinates,
    # the cross-polytope by rho = 3, and (20 - 3)^2 / 2! rounds up
    sheared = ((1, 1), (0, 1))
    assert _tile_bound(sheared, 1, WeightedBox((10, 10)), 10) == 19 * 18
    assert _tile_bound(sheared, 1, DualBody((1, 1)), 10) == 145


def test_lattice_search_priced_before_its_first_node():
    # Z^2 in the box of half-width 10^5 holds (2 * 10^5 + 1)^2 points
    box = WeightedBox((100000, 100000))
    square = IntLattice(((1, 0), (0, 1)))
    cross = DualBody((Fraction(1, 100000), Fraction(1, 100000)))
    for lat, body in ((square, box), (IntLattice(((3, 1), (1, 2))), cross)):
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="lattice enumeration: .* nodes exceed the budget"):
            count_lattice_points(lat, body)
        assert time.perf_counter() - t0 < 0.1
    # the bound is (2 * 400 - 1)^2 = 638401 points, so the half tree needs
    # 319200 nodes; the search itself would report budget + 1 = 100001
    small = WeightedBox((400, 400))
    assert _tile_bound(square.basis, 1, small, 400) == 638401
    with pytest.raises(BudgetExceeded, match=r"lattice enumeration: 319200 nodes exceed the budget \(budget = 100000\)"):
        count_lattice_points(square, small, budget=100000)


def test_rank_deficient_search_is_held_by_its_running_node_count():
    # Z^2 x {0} in three dimensions has no full-rank tile to price the box
    # with, so the count of nodes walked is the only guard on the search
    plane = IntLattice(((1, 0, 0), (0, 1, 0)))
    with pytest.raises(BudgetExceeded) as info:
        lattice_points_within(plane, WeightedBox((100, 100, 1)), budget=1000)
    assert str(info.value) == "lattice enumeration: 1001 nodes exceed the budget (budget = 1000)"
    # the 21 x 21 grid of the box, less the origin
    assert len(lattice_points_within(plane, WeightedBox((10, 10, 1)), budget=1000)) == 440
