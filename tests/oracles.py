"""Brute-force reference implementations, deliberately dumb.

Nothing here shares an algorithmic route with the package: energies walk the
full quadruple grid, power-sum systems walk the full 2s-dimensional grid by
recursion, equation counts try every pair, and lattice questions scan a
coordinate box and test membership by rational elimination.  Slow on
purpose; every frozen constant in the test suite was produced by one of
these functions.

The last section keeps the package's earlier lattice routines as references
for the faster ones that replaced them: LLL that recomputes Gram-Schmidt
after every row operation, the Fincke-Pohst search over Fraction
Gram-Schmidt data with a Fraction body norm at every leaf, the shortest
vector taken over every lattice point out to radius 1, and the Mahler basis
built from a fresh saturation and a cofactor completion at every step.  The
complete character sum is kept as it was before the polynomial table: Horner
at every residue, one exponent and one histogram increment per term.  The
prime bilinear sum is kept as it was before its one pass: each order in its
own double loop, every character value computed twice.
"""
from __future__ import annotations

from fractions import Fraction
import math
from typing import Callable, Iterable, Optional, Sequence


def poly_int(coeffs: Sequence[int], x: int) -> int:
    return sum(c * x**j for j, c in enumerate(coeffs))


def poly_mod(coeffs: Sequence[int], x: int, m: int) -> int:
    return poly_int(coeffs, x) % m


def energy_T_quadruple(coeffs: Sequence[int], m: int, H: int) -> int:
    vals = [poly_mod(coeffs, x, m) for x in range(1, H + 1)]
    total = 0
    for a in vals:
        for b in vals:
            for c in vals:
                for d in vals:
                    if (a + b - c - d) % m == 0:
                        total += 1
    return total


def set_energy_plus_quadruple(points: Sequence[int], m: int) -> int:
    pts = sorted({p % m for p in points})
    total = 0
    for a in pts:
        for b in pts:
            for c in pts:
                for d in pts:
                    if (a + b - c - d) % m == 0:
                        total += 1
    return total


def set_energy_times_quadruple(points: Sequence[int], m: int) -> int:
    pts = sorted({p % m for p in points})
    total = 0
    for a in pts:
        for b in pts:
            for c in pts:
                for d in pts:
                    if (a * b - c * d) % m == 0:
                        total += 1
    return total


def energy_cross_quadruple(a_points: Sequence[int], b_points: Sequence[int], m: int) -> int:
    aa = sorted({p % m for p in a_points})
    bb = sorted({p % m for p in b_points})
    total = 0
    for a in aa:
        for a2 in aa:
            for b in bb:
                for b2 in bb:
                    if (a + b - a2 - b2) % m == 0:
                        total += 1
    return total


def sumset_size_naive(coeffs: Sequence[int], m: int, H: int) -> int:
    img = sorted({poly_mod(coeffs, x, m) for x in range(1, H + 1)})
    return len({(a + b) % m for a in img for b in img})


def count_J_recursive(d: int, s: int, elements: Sequence[int]) -> int:
    """Walk the full 2s grid; first s entries add, last s subtract."""
    xs = list(elements)
    depth = 2 * s
    hits = 0

    def walk(level: int, sums: tuple[int, ...]) -> None:
        nonlocal hits
        if level == depth:
            if all(v == 0 for v in sums):
                hits += 1
            return
        sign = 1 if level < s else -1
        for x in xs:
            walk(level + 1, tuple(v + sign * x**j for j, v in enumerate(sums, start=1)))

    walk(0, (0,) * d)
    return hits


def count_I_recursive(d: int, s: int, H: int, shifts: Sequence[int]) -> int:
    xs = list(range(1, H + 1))
    depth = 2 * s
    hits = 0
    target = tuple(shifts)

    def walk(level: int, sums: tuple[int, ...]) -> None:
        nonlocal hits
        if level == depth:
            if sums == target:
                hits += 1
            return
        sign = 1 if level < s else -1
        for x in xs:
            walk(level + 1, tuple(v + sign * x**j for j, v in enumerate(sums, start=1)))

    walk(0, (0,) * d)
    return hits


def count_Ts_recursive(coeffs: Sequence[int], m: int, H: int, s: int) -> int:
    vals = [poly_mod(coeffs, x, m) for x in range(1, H + 1)]
    depth = 2 * s
    hits = 0

    def walk(level: int, acc: int) -> None:
        nonlocal hits
        if level == depth:
            if acc % m == 0:
                hits += 1
            return
        sign = 1 if level < s else -1
        for v in vals:
            walk(level + 1, acc + sign * v)

    walk(0, 0)
    return hits


def count_eq_pairs(coeffs: Sequence[int], target: int, H: int) -> tuple[int, list[tuple[int, int]]]:
    vals = [poly_int(coeffs, x) for x in range(1, H + 1)]
    sols = [
        (n, m)
        for n, fn in enumerate(vals, start=1)
        for m, fm in enumerate(vals, start=1)
        if fn - fm == target
    ]
    return len(sols), sols


def count_congruence_pairs(
    coeffs: Sequence[int], modulus: int, shift: int, H: int
) -> tuple[int, list[tuple[int, int]]]:
    sols = [
        (n, m)
        for n in range(1, H + 1)
        for m in range(1, H + 1)
        if (poly_int(coeffs, n) - poly_int(coeffs, m) - shift) % modulus == 0
    ]
    return len(sols), sols


def count_symmetric_quadruple(coeffs: Sequence[int], H: int) -> int:
    vals = [poly_int(coeffs, x) for x in range(1, H + 1)]
    total = 0
    for a in vals:
        for b in vals:
            for c in vals:
                for d in vals:
                    if a + b == c + d:
                        total += 1
    return total


def complete_sum_horner(table, f):
    """complete_sum_poly by a Horner evaluation, an exponent lookup and a
    Counter increment at each residue; the histogram is then summed in the
    same sorted order, so the WeilRecord must match bit for bit."""
    import cmath
    from collections import Counter

    from energia.charsum import WeilRecord, weil_admissible

    p = table.modulus
    cs = f.coeffs
    d = f.degree
    hist: Counter = Counter()
    for x in range(p):
        acc = 0
        for c in reversed(cs):
            acc = (acc * x + c) % p
        e = table.exponent(acc)
        if e is not None:
            hist[e] += 1
    total = 0j
    for e in sorted(hist):
        total += hist[e] * cmath.exp(2j * cmath.pi * e / (p - 1))
    mag = abs(total)
    bound = (d - 1) * math.sqrt(p)
    adm = weil_admissible(table, cs)
    within = None if adm is not True else bool(mag <= bound + 1e-6)
    return WeilRecord(p, d, table.order, total, mag, bound, adm, within)


def prime_bilinear_two_pass(table, f, Q, R):
    """prime_bilinear_sum with each order summed in its own double loop over
    primes found by trial division; the additions run in the same order, so
    the PrimeBilinearRecord must match bit for bit."""
    from energia.charsum import PrimeBilinearRecord

    def primes(n):
        return [q for q in range(2, n + 1) if all(q % k for k in range(2, math.isqrt(q) + 1))]

    p = table.modulus
    qs, rs = primes(Q), primes(R)
    if not qs or not rs:
        return PrimeBilinearRecord(0.0, 0.0, len(qs), len(rs), 0.0, 0.0, None)
    fq = [f(q) for q in qs]
    by_q = 0.0
    for v in fq:
        inner = 0j
        for r in rs:
            inner += table.value(v + r)
        by_q += abs(inner)
    by_r = 0.0
    for r in rs:
        inner = 0j
        for v in fq:
            inner += table.value(v + r)
        by_r += abs(inner)
    saving = math.log(Q * R / by_q) / math.log(p) if by_q > 0 else None
    return PrimeBilinearRecord(by_q, by_r, len(qs), len(rs), by_q / (Q * R), by_q / (len(qs) * len(rs)), saving)


# --- lattice helpers -------------------------------------------------------


def frac_inverse(rows: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Plain Gauss-Jordan over Fractions; raises on singular input."""
    n = len(rows)
    aug = [[Fraction(rows[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def make_membership_test(
    basis_rows: Sequence[Sequence[int]], den: int = 1
) -> Callable[[Sequence[Fraction]], bool]:
    """x in L iff x * B^{-1} is an integer vector (row convention, x = c B / den)."""
    inv = frac_inverse(basis_rows)
    n = len(basis_rows)

    def member(vec: Sequence[Fraction]) -> bool:
        for j in range(n):
            coeff = sum(Fraction(vec[i]) * den * inv[i][j] for i in range(n))
            if coeff.denominator != 1:
                return False
        return True

    return member


def points_by_scan(
    basis_rows: Sequence[Sequence[int]],
    den: int,
    norm: Callable[[Sequence[Fraction]], Fraction],
    numerator_box: Sequence[int],
    cap: Fraction,
) -> list[tuple[Fraction, tuple[int, ...]]]:
    """(norm, numerator) of every nonzero lattice vector of norm <= cap, by
    scanning a numerator box; sorted by norm, then numerator.

    numerator_box[i] bounds |den * x_i| for every lattice vector of norm <=
    cap; the caller must derive it from the body shape.
    """
    member = make_membership_test(basis_rows, den)
    n = len(basis_rows)
    found: list[tuple[Fraction, tuple[int, ...]]] = []

    def scan(i: int, prefix: tuple[int, ...]) -> None:
        if i == n:
            if any(prefix) and member([Fraction(v, den) for v in prefix]):
                vec = [Fraction(v, den) for v in prefix]
                nv = norm(vec)
                if nv <= cap:
                    found.append((nv, prefix))
            return
        for v in range(-numerator_box[i], numerator_box[i] + 1):
            scan(i + 1, prefix + (v,))

    scan(0, ())
    found.sort()
    return found


def minima_by_scan(
    basis_rows: Sequence[Sequence[int]],
    den: int,
    norm: Callable[[Sequence[Fraction]], Fraction],
    numerator_box: Sequence[int],
    cap: Fraction,
) -> tuple[list[Fraction], int]:
    """Ground-truth successive minima by scanning a numerator box.

    Returns the greedy minima of all points_by_scan finds, plus how many
    points qualified (sanity signal that the box was not empty).
    """
    found = points_by_scan(basis_rows, den, norm, numerator_box, cap)
    by_vec = {vec: nv for nv, vec in found}
    minima = [by_vec[vec] for vec in greedy_independent([vec for _, vec in found], len(basis_rows))]
    return minima, len(found)


def greedy_independent(vectors: Sequence[Sequence[Fraction]], limit: Optional[int] = None) -> list:
    """The vectors, in order, independent of those kept before them, up to limit kept.

    Each candidate is reduced in Fractions against the echelon rows kept so
    far; it is kept when something nonzero is left.
    """
    ech: list[list[Fraction]] = []
    kept = []
    for vec in vectors:
        if limit is not None and len(kept) == limit:
            break
        row = [Fraction(v) for v in vec]
        for lead in ech:
            piv = next(j for j, v in enumerate(lead) if v != 0)
            if row[piv] != 0:
                f = row[piv] / lead[piv]
                row = [a - f * b for a, b in zip(row, lead)]
        if any(v != 0 for v in row):
            ech.append(row)
            kept.append(vec)
    return kept


def frac_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q: the number of rows greedy_independent keeps."""
    return len(greedy_independent(rows))


# --- earlier lattice routines, kept as references --------------------------


def gram_schmidt_plain(rows: Sequence[Sequence[int]], qw: Sequence[Fraction]):
    """mu and squared Gram-Schmidt lengths of the rows under the diagonal form qw."""
    k = len(rows)
    bstar: list[list[Fraction]] = []
    bn: list[Fraction] = []
    mu = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        vec = [Fraction(x) for x in rows[i]]
        for j in range(i):
            mu[i][j] = sum(w * x * y for w, x, y in zip(qw, rows[i], bstar[j])) / bn[j]
            vec = [a - mu[i][j] * b for a, b in zip(vec, bstar[j])]
        bstar.append(vec)
        bn.append(sum(w * x * x for w, x in zip(qw, vec)))
    return mu, bn


def lll_recompute(
    rows: Sequence[Sequence[int]], qw: Sequence[Fraction], delta: Fraction = Fraction(3, 4)
) -> list[list[int]]:
    """Exact LLL that recomputes Gram-Schmidt from scratch after every row operation."""
    b = [list(map(int, r)) for r in rows]
    k = len(b)
    if k <= 1:
        return b
    mu, bn = gram_schmidt_plain(b, qw)
    i = 1
    while i < k:
        for j in range(i - 1, -1, -1):
            q = round(mu[i][j])
            if q:
                b[i] = [x - q * y for x, y in zip(b[i], b[j])]
                mu, bn = gram_schmidt_plain(b, qw)
        if bn[i] < (delta - mu[i][i - 1] ** 2) * bn[i - 1]:
            b[i - 1], b[i] = b[i], b[i - 1]
            mu, bn = gram_schmidt_plain(b, qw)
            i = max(i - 1, 1)
        else:
            i += 1
    return b


def points_fraction(
    rows: Sequence[Sequence[int]],
    den: int,
    body,
    radius: Fraction,
    mu: Sequence[Sequence[Fraction]],
    bn: Sequence[Fraction],
    shifted: bool = False,
) -> list[tuple[Fraction, tuple[int, ...], tuple[int, ...]]]:
    """(norm, v, t) for every v = t . rows with body.norm(v / den) <= radius,
    by Fincke-Pohst over Fraction mu and squared lengths bn.

    Level i tries the integers around -center that an integer square root
    of rem / bn_i brackets and keeps those whose contribution fits in rem;
    every leaf is filtered by its Fraction body norm.  Unless shifted, only
    the one of each +-v whose last nonzero coefficient is positive is
    visited; when shifted, the last row's coefficient is fixed at 1.
    """
    k = len(rows)
    n = len(rows[0])
    out: list[tuple[Fraction, tuple[int, ...], tuple[int, ...]]] = []
    t = [0] * k

    def rec(i: int, rem: Fraction, half: bool) -> None:
        if i < 0:
            if not half:
                v = tuple(sum(x * row[c] for x, row in zip(t, rows)) for c in range(n))
                nrm = body.norm(v) / den
                if nrm <= radius:
                    out.append((nrm, v, tuple(t)))
            return
        center = sum(mu[j][i] * t[j] for j in range(i + 1, k))
        if shifted and i == k - 1:
            tries: Iterable[int] = (1,)
        else:
            x = rem / bn[i]
            r = math.isqrt(x.numerator // x.denominator)
            start = math.floor(-center)
            tries = range(r + 1) if half else range(start - r, start + r + 2)
        for ti in tries:
            diff = ti + center
            contrib = diff * diff * bn[i]
            if contrib <= rem:
                t[i] = ti
                rec(i - 1, rem - contrib, half and ti == 0)
        t[i] = 0

    rec(k - 1, body.ellipsoid_bound(radius) * den * den, not shifted)
    return out


def shortest_vector_full_radius(lat, body) -> Optional[tuple[int, ...]]:
    """Least nonzero vector of body-norm <= 1 among every lattice point out to
    radius 1, by points_fraction over a basis reduced by lll_recompute.

    Ties go to the lexicographically least sign-normalized vector, the
    first nonzero entry made positive.
    """
    qw = body.quad_weights()
    rows = lll_recompute(lat.basis, qw)
    best = None
    for nrm, v, _ in points_fraction(rows, lat.den, body, Fraction(1), *gram_schmidt_plain(rows, qw)):
        lead = next(x for x in v if x)
        key = (nrm, v if lead > 0 else tuple(-x for x in v))
        if best is None or key < best:
            best = key
    return None if best is None else best[1]


def _complete_unimodular(u_rows: list[list[int]], size: int) -> list[int]:
    """A row completing u_rows ((size-1) x size, extendable) to det +-1."""
    from energia.lattice import det_int, hnf_with_transform

    cof: list[int] = []
    for i in range(size):
        minor = [[row[j] for j in range(size) if j != i] for row in u_rows]
        cof.append((-1) ** (size - 1 + i) * det_int(minor))
    # row 0 of the transform of HNF(cof as a column) solves sum x_i cof_i = gcd
    h, u, _ = hnf_with_transform([[c] for c in cof])
    assert h[0][0] == 1, "sublattice is not a direct summand"
    return u[0]


def _saturation(rows: list[list[int]], dim: int) -> list[list[int]]:
    """Basis of span_Q(rows) intersect Z^dim (the saturated subgroup)."""
    from energia.lattice import integer_kernel

    perp = integer_kernel(rows)
    if not perp:
        return [[int(i == j) for j in range(dim)] for i in range(dim)]
    return integer_kernel(perp)


def mahler_basis_by_saturation(lat, body, queries=()):
    """mahler_basis as it was built before one transform gave the whole
    filtration: at every step j, the saturation of span(t_1..t_j) by two
    integer kernels, the chosen rows' coordinates in it, and a unimodular
    completion from cofactors, then the same coset search, by points_fraction
    over Fraction Gram-Schmidt data."""
    from energia.lattice import IntLattice, MahlerBasisRecord, _canonical_sign, successive_minima

    prof = successive_minima(lat, body)
    n = lat.dim

    def lattice_row(t: Sequence[int]) -> list[int]:
        return [sum(x * row[c] for x, row in zip(t, lat.basis)) for c in range(n)]

    wit_coeff = [lat.coefficients_of(w) for w in prof.witnesses]
    chosen: list[list[int]] = []
    vecs: list[list[int]] = []
    for j in range(n):
        sat = _saturation([list(t) for t in wit_coeff[: j + 1]], n)
        assert len(sat) == j + 1
        sat_lat = IntLattice(tuple(tuple(r) for r in sat))
        u_rows = [list(sat_lat.coefficients_of(t)) for t in chosen]
        comp = _complete_unimodular(u_rows, j + 1)
        u_vec = [sum(comp[i] * sat[i][c] for i in range(j + 1)) for c in range(n)]
        if not chosen:
            best = list(_canonical_sign(tuple(u_vec)))
        else:
            coeffs = chosen + [u_vec]
            rows = vecs + [lattice_row(u_vec)]
            radius = body.norm(rows[-1]) / lat.den
            pts = points_fraction(rows, lat.den, body, radius, *gram_schmidt_plain(rows, body.quad_weights()), shifted=True)
            _, vec, t = min(pts, key=lambda p: (p[0], _canonical_sign(p[1])))
            sign = 1 if _canonical_sign(vec) == vec else -1
            best = [sign * sum(x * row[c] for x, row in zip(t, coeffs)) for c in range(n)]
        chosen.append(best)
        vecs.append(lattice_row(best))

    basis_lat = IntLattice(tuple(tuple(v) for v in vecs), lat.den)
    norms = tuple(Fraction(body._gauge(v), body._scale * lat.den) for v in vecs)
    factor = max(Fraction(1), Fraction(n, 2))
    expansions = []
    for q in queries:
        coords = basis_lat.coefficients_of(q)
        expansions.append((coords, max(abs(c) * lam for c, lam in zip(coords, prof.minima))))
    return MahlerBasisRecord(
        prof.minima,
        basis_lat.vectors(),
        norms,
        factor,
        all(nrm <= factor * lam for nrm, lam in zip(norms, prof.minima)),
        tuple(expansions),
        max((val for _, val in expansions), default=None),
    )
