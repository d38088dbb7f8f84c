"""Exact geometry of numbers for integer lattices in dimension <= 8.

Everything is certified in rational arithmetic: successive minima come with
witness vectors, Minkowski's second theorem is checked as an exact sandwich,
duality is an involution on canonical (Hermite normal form) bases, and the
small-nullspace constructor proves its product bound with integer
comparisons.  The integer linear algebra is one Hermite normal form loop
(a unimodular transform is read off the HNF of [M | I], and mahler_basis
takes its whole filtration from one such transform) and one fraction-free
elimination.  Each norm body keeps one integer gauge (integer weights W_i
over one common scale) and the integer form (W_i^2) that LLL and the
enumeration take.  The shortest vector of a rank-2 lattice in the plane is
an exact generalized Gauss reduction, _gauss; every other search for lattice
points (points within a radius, the shortest vector, the minima, the coset
search of mahler_basis) is one Fincke-Pohst enumeration, _points, in
integers: over the data of integral LLL (the coset search's unreduced), it
ranges each level by an integer square root of a bound scaled level by
level, hands each child its partial vector, visits one of each pair +-v and
returns the (gauge, vector) pairs within the gauge cap, which mahler_basis
reads its basis off; a full-rank search is priced first by a tile lower
bound on its points.  Fractions are built only for the norms reported, and
floats only in the Monte Carlo estimate of fractional_measure.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .ring import DomainError, RatLike, _charge, ints_from_string, to_fraction

MAX_ENUM_DIM = 8
DEFAULT_NODE_BUDGET = 5_000_000
_MEASURE_BUDGET = 2 * 10**6  # samples * (d^2 + 1) steps of one fractional_measure (+1: a sample's own loop): 0.9 s at d = 1


class UnsupportedSize(DomainError):
    """Instance too large for exact enumeration."""


# ---------------------------------------------------------------------------
# integer linear algebra


def hnf_rows(mat: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Row-style Hermite normal form; the one HNF loop here.

    Returns (rows, rank): a staircase with positive pivots, entries above
    each pivot reduced into [0, pivot), zero rows at the bottom.
    """
    rows = [list(map(int, r)) for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        while True:
            # reduce the rows below by the pivot row, then move the least
            # nonzero entry left in column c up to row r
            nz = [i for i in range(r + 1, nrows) if rows[i][c] != 0]
            if rows[r][c] != 0:
                for i in nz:
                    q = rows[i][c] // rows[r][c]
                    if q:
                        rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                nz = [i for i in nz if rows[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(rows[i][c]))
            rows[r], rows[i0] = rows[i0], rows[r]
        if rows[r][c] != 0:
            if rows[r][c] < 0:
                rows[r] = [-a for a in rows[r]]
            piv = rows[r][c]
            for i in range(r):
                q = rows[i][c] // piv
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
            r += 1
    return rows, r


def hnf_with_transform(mat: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]], int]:
    """(H, U, rank) with U unimodular and U * mat = H in Hermite normal form.

    [H | U] is the Hermite normal form of [mat | I] and rank counts the
    nonzero rows of H, so the rows of U past the rank are in Hermite normal
    form too: the canonical basis of the saturated left kernel of mat.
    """
    n = len(mat)
    ncols = len(mat[0]) if n else 0
    aug, _ = hnf_rows([list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(mat)])
    rank = sum(1 for r in aug if any(r[:ncols]))
    return [r[:ncols] for r in aug], [r[ncols:] for r in aug], rank


def _eliminate(rows: Sequence[Sequence[int]], ncols: Optional[int] = None) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968).

    Clears each of the first ncols columns (default: all) above and below its
    pivot, dividing exactly by the previous pivot, so every entry stays an
    integer minor.  Returns (rows, pivots, sign): row i < len(pivots) has its
    pivot in column pivots[i], every pivot equals one value d (+-the pivot
    minor), the other rows are zero in the first ncols columns, and sign is
    the parity of the row swaps.
    """
    a = [list(map(int, r)) for r in rows]
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    sign = prev = 1
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        top = a[r]
        piv = top[c]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
        prev = piv
        pivots.append(c)
    return a, pivots, sign


def _scaled(vec: Sequence[RatLike]) -> tuple[list[int], int]:
    """(L * vec as integers, L), L the lcm of the denominators, via to_fraction."""
    fr = [x if isinstance(x, int) else to_fraction(x) for x in vec]
    lcm = math.lcm(*(x.denominator for x in fr))
    return [x.numerator * (lcm // x.denominator) for x in fr], lcm


def det_int(mat: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix."""
    rows, pivots, sign = _eliminate(mat)
    if len(pivots) < len(rows):
        return 0
    return sign * rows[-1][-1] if rows else 1


def integer_kernel(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """The canonical (Hermite normal form) basis of the saturated integer
    kernel {w : mat . w = 0}: the rows of the unimodular transform of
    HNF(mat^T) past its rank (see hnf_with_transform).
    """
    rows = [list(map(int, r)) for r in mat]
    if not rows:
        raise DomainError("empty matrix")
    ncols = len(rows[0])
    transpose = [[rows[i][j] for i in range(len(rows))] for j in range(ncols)]
    _, u, rank = hnf_with_transform(transpose)
    return [u[i] for i in range(rank, ncols)]


def rational_rank(mat: Sequence[Sequence[Union[int, Fraction]]]) -> int:
    return len(_eliminate([_scaled(r)[0] for r in mat])[1])


def _inverse_scaled(mat: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(d, A) with mat^-1 = A / d, from eliminating [mat | I]."""
    n = len(mat)
    rows, pivots, _ = _eliminate([list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(mat)], n)
    if len(pivots) < n:
        raise DomainError("matrix is singular")
    return (rows[0][0] if n else 1), [row[n:] for row in rows]


def inv_frac(mat: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Exact inverse of a square integer matrix."""
    d, adj = _inverse_scaled(mat)
    return [[Fraction(x, d) for x in row] for row in adj]


def _independent(vectors: Iterable[Sequence[Union[int, Fraction]]], limit: Optional[int] = None) -> list:
    """The vectors, in order, that are rationally independent of those kept
    before them; stops once limit are kept.

    v is dependent on the kept rows exactly when d * v = sum_c v_c * row_c
    over the pivot columns c of their reduced form, checked in integers; the
    reduced form is rebuilt only when a vector is kept.
    """
    kept: list = []
    red: list[list[int]] = []
    pivots: list[int] = []
    d = 1
    for v in vectors:
        if limit is not None and len(kept) >= limit:
            break
        w = _scaled(v)[0]
        if all(d * x == sum(w[c] * row[j] for c, row in zip(pivots, red)) for j, x in enumerate(w)):
            continue
        kept.append(v)
        red, pivots, _ = _eliminate([_scaled(u)[0] for u in kept])
        d = red[0][pivots[0]]
    return kept


# ---------------------------------------------------------------------------
# norm bodies


class _Gauge:
    """The integer gauge the two bodies share.  The body's norm is
    agg_i |x_i| w_i, agg max or sum, for positive rationals w_i; it keeps the
    integers W_i = S w_i, S the lcm of the denominators of the w_i, so the
    norm of a numerator vector v is the integer agg_i |v_i| W_i over S, and
    its integer form _form = (W_i^2) is S^2 quad_weights().  Each body names
    its agg and its weight w_i as a function of its one field's c_i."""

    def __post_init__(self) -> None:
        (fld,) = fields(self)
        vals = tuple(to_fraction(c) for c in getattr(self, fld.name))
        if not vals or any(c <= 0 for c in vals):
            raise DomainError(f"{fld.name.replace('_', '-')} must be positive rationals")
        object.__setattr__(self, fld.name, vals)
        weights, scale = _scaled([self._weight(c) for c in vals])
        vars(self).update(_scale=scale, _weights=tuple(weights), _form=tuple([w * w for w in weights]))  # past the frozen guard

    @property
    def dim(self) -> int:
        return len(self._weights)

    def _gauge(self, vec: Sequence[int]) -> int:
        """S times the norm of the integer vector vec."""
        return self._agg(abs(x) * w for x, w in zip(vec, self._weights))

    def norm(self, vec: Sequence[Union[int, Fraction]]) -> Fraction:
        num, lcm = _scaled(vec)
        return Fraction(self._gauge(num), lcm * self._scale)

    def quad_weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(f, self._scale**2) for f in self._form)


@dataclass(frozen=True)
class WeightedBox(_Gauge):
    """{x : |x_i| <= c_i}, rational half-widths c_i > 0; w_i = 1/c_i."""

    half_widths: tuple[Fraction, ...]
    _agg = staticmethod(max)
    _weight = staticmethod(lambda c: 1 / c)

    def volume(self) -> Fraction:
        return math.prod(2 * c for c in self.half_widths)

    def ellipsoid_bound(self, radius: Fraction) -> Fraction:
        # x in R*box implies sum (x_i/c_i)^2 <= dim * R^2
        return self.dim * radius * radius

    def polar(self) -> "DualBody":
        return DualBody(self.half_widths)

    def _tile_volume(self, rows: Sequence[Sequence[int]], cap: int) -> tuple[int, int]:
        # the box of gauge cap has half-widths cap / W_i; it shrinks by the
        # extent sum_j |b_ji| of the parallelepiped in each coordinate
        return math.prod(max(0, 2 * cap - w * sum(abs(r[i]) for r in rows)) for i, w in enumerate(self._weights)), 1


@dataclass(frozen=True)
class DualBody(_Gauge):
    """The weighted cross-polytope {y : sum c_i |y_i| <= 1}; polar of the box;
    w_i = c_i."""

    coefficients: tuple[Fraction, ...]
    _agg = staticmethod(sum)
    _weight = staticmethod(lambda c: c)

    def volume(self) -> Fraction:
        return Fraction(2**self.dim, math.factorial(self.dim)) / math.prod(self.coefficients)

    def ellipsoid_bound(self, radius: Fraction) -> Fraction:
        # sum c_i |x_i| <= R implies sum (c_i x_i)^2 <= R^2
        return radius * radius

    def polar(self) -> WeightedBox:
        return WeightedBox(self.coefficients)

    def _tile_volume(self, rows: Sequence[Sequence[int]], cap: int) -> tuple[int, int]:
        # the body of gauge cap - rho/2 centred at sum_j b_j / 2, rho = sum_j
        # gauge(b_j), since the parallelepiped lies within rho/2 of that centre
        return max(0, 2 * cap - sum(map(self._gauge, rows))) ** self.dim, math.factorial(self.dim)


Body = WeightedBox | DualBody


# ---------------------------------------------------------------------------
# the lattice type


@dataclass(frozen=True)
class IntLattice:
    """Lattice {t . basis / den : t integer row}, basis rows independent."""

    basis: tuple[tuple[int, ...], ...]
    den: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.den, int) or self.den < 1:
            raise DomainError(f"denominator must be a positive integer, got {self.den!r}")
        rows = tuple(tuple(int(x) for x in r) for r in self.basis)
        if not rows:
            raise DomainError("empty basis")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise DomainError("ragged basis")
        if len(rows) > n:
            raise DomainError("more rows than ambient dimension")
        if len(_eliminate(rows)[1]) != len(rows):
            raise DomainError("basis rows are linearly dependent")
        object.__setattr__(self, "basis", rows)

    @property
    def dim(self) -> int:
        return len(self.basis[0])

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def is_full_rank(self) -> bool:
        return self.rank == self.dim

    @property
    def covolume(self) -> Fraction:
        if not self.is_full_rank:
            raise DomainError("covolume needs a full-rank lattice")
        return Fraction(abs(det_int(self.basis)), self.den**self.dim)

    def canonical(self) -> "IntLattice":
        rows, rank = hnf_rows(self.basis)
        rows = rows[:rank]
        g = math.gcd(self.den, *(x for r in rows for x in r))
        return IntLattice(tuple(tuple(x // g for x in r) for r in rows), self.den // g)

    def vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in r) for r in self.basis)

    def coefficients_of(self, vec: Sequence[Union[int, Fraction]]) -> Optional[tuple[int, ...]]:
        """Integer t with t . basis / den = vec, or None when vec is not in L."""
        if len(vec) != self.dim:
            raise DomainError(f"vector of length {len(vec)} in a lattice of dimension {self.dim}")
        w, lcm = _scaled(vec)
        # t . basis = den * w / lcm, solved on [basis^T | den * w]
        k = self.rank
        aug = [[r[j] for r in self.basis] + [self.den * w[j]] for j in range(self.dim)]
        rows, _, _ = _eliminate(aug, k)
        if any(row[-1] for row in rows[k:]):
            return None
        scale = rows[0][0] * lcm
        if any(row[-1] % scale for row in rows[:k]):
            return None
        return tuple(row[-1] // scale for row in rows[:k])


def lattice_from_string(text: str, den: int = 1) -> IntLattice:
    """Parse semicolon-separated rows of comma-separated integers."""
    return IntLattice(tuple(ints_from_string(part) for part in text.split(";")), den)


def congruence_lattice(coeffs: Sequence[int], modulus: int) -> IntLattice:
    """{(n_1..n_d) : exists l with n_j = coeffs[j-1] * l mod m for all j}.

    Generated by (a_1..a_d) and m e_j; returned in canonical HNF form, for
    callers whose answer is that form.  When a_d = 1 the rows a, m e_1, ...,
    m e_{d-1} are already a basis, of determinant +-m^(d-1); the congruence
    pipeline builds that one in closed form, scales its columns so that its
    box becomes the cube, and hands it to _svp, which reduces it.
    """
    if modulus < 2:
        raise DomainError(f"modulus must be >= 2, got {modulus}")
    a = [int(x) % modulus for x in coeffs]
    d = len(a)
    if d < 1:
        raise DomainError("need at least one coefficient")
    gens = [a] + [[modulus * int(i == j) for j in range(d)] for i in range(d)]
    rows, rank = hnf_rows(gens)
    if rank != d:
        raise DomainError("congruence generators failed to span")  # unreachable: m e_j span
    return IntLattice(tuple(tuple(r) for r in rows[:rank]), 1)


# ---------------------------------------------------------------------------
# exact reduction and enumeration


def _gram_dets(rows: Sequence[Sequence[int]], w: Sequence[int]) -> tuple[list[int], list[list[int]]]:
    """(d, lam): integral Gram-Schmidt under the integer diagonal form w
    (Cohen, Alg. 2.6.7, step 2): Gram determinants d_0 = 1,
    d_{i+1} = d_i bn_i, and lam[i][j] = d_{j+1} mu_ij for j < i, else 0."""
    k = len(rows)
    d = [1] + [0] * k
    lam = [[0] * k for _ in range(k)]
    for i, row in enumerate(rows):
        wi = [x * c for x, c in zip(row, w)]
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(wi, rows[j]))
            for h in range(j):
                u = (d[h + 1] * u - lam[i][h] * lam[j][h]) // d[h]
            if j < i:
                lam[i][j] = u
            elif u <= 0:  # Sylvester: the form is positive definite on the rows iff every d_i > 0
                raise DomainError("rows are linearly dependent, or the form is not positive definite on them")
            else:
                d[i + 1] = u
    return d, lam


def _lll(rows: Sequence[Sequence[int]], w: Sequence[int], delta: Fraction = Fraction(3, 4)):
    """(basis, (d, lam)): exact LLL under the integer diagonal form w, with
    the integral Gram-Schmidt data of _gram_dets for the returned basis.

    Integral LLL (de Weger 1987; Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.6.7): the loop keeps only the integers d_i and
    lam_ij of _gram_dets.  Size reduction b_i -= q b_j rounds lam_ij / d_{j+1}
    half to even, as round() does on a Fraction, and updates row i of lam;
    the Lovasz test for delta = a/b is b d_{i+1} d_{i-1} < a d_i^2 - b lam^2
    with lam = lam_{i,i-1}; a swap of b_{i-1}, b_i changes d_i and the lam
    below row i by exact divisions.  So every step is that of LLL over
    Fractions (mu_ij = lam_ij / d_{j+1}, squared lengths d_{i+1} / d_i),
    and no Fraction is built.
    """
    b = [list(map(int, r)) for r in rows]
    k = len(b)
    d, lam = _gram_dets(b, w)
    num, den = delta.numerator, delta.denominator
    i = 1
    while i < k:
        li = lam[i]
        for j in range(i - 1, -1, -1):
            dj = d[j + 1]
            q, r = divmod(2 * li[j] + dj, 2 * dj)
            if r == 0 and q & 1:
                q -= 1  # a tie: round half to even
            if q:
                b[i] = [x - q * y for x, y in zip(b[i], b[j])]
                lj = lam[j]
                for h in range(j):
                    li[h] -= q * lj[h]
                li[j] -= q * dj
        l1 = li[i - 1]
        di = d[i]
        if den * d[i + 1] * d[i - 1] < num * di * di - den * l1 * l1:
            big = (d[i - 1] * d[i + 1] + l1 * l1) // di
            b[i - 1], b[i] = b[i], b[i - 1]
            lam[i - 1][: i - 1], li[: i - 1] = li[: i - 1], lam[i - 1][: i - 1]
            for row in lam[i + 1 :]:
                t = row[i]
                row[i] = (d[i + 1] * row[i - 1] - l1 * t) // di
                row[i - 1] = (big * t + l1 * row[i]) // d[i + 1]
            d[i] = big
            i = max(i - 1, 1)
        else:
            i += 1
    return b, (d, lam)


def lll_reduce(rows: Sequence[Sequence[int]], qw: Sequence[Fraction], delta: RatLike = Fraction(3, 4)) -> list[list[int]]:
    """Exact LLL under the diagonal quadratic form qw, for an exact 1/4 <
    delta <= 1: same lattice, nicer basis.  Integral LLL (see _lll) under qw
    scaled to integers keeps d_i and lam_ij = d_{j+1} mu_ij as integers."""
    delta = to_fraction(delta)
    if not Fraction(1, 4) < delta <= 1:
        raise DomainError(f"LLL needs 1/4 < delta <= 1, got {delta}")
    if any(len(r) != len(qw) for r in rows):
        raise DomainError(f"every row and the form need the same length, got form length {len(qw)}")
    w = _scaled(qw)[0]
    if len(rows) <= 1:
        return [list(map(int, r)) for r in rows]
    return _lll(rows, w, delta)[0]


def _tile_bound(rows: Sequence[Sequence[int]], dk: int, body: Body, cap: int) -> int:
    """A lower bound on #{v in L : body._gauge(v) <= cap}, origin included,
    for L = Z rows of full rank, with dk the last Gram determinant of rows
    under body._form (see _gram_dets).

    The translates v + P of the rows' parallelepiped P tile space, so the
    tiles of the points of the body K cover K' = {x : x - P in K}, and
    #(L cap K) covol >= vol(K').  Each body bounds vol(K') prod_i W_i from
    below by N / F (_tile_volume), and covol^2 = dk / prod_i W_i^2, since
    the body's form is the W_i^2.  So the count is at least N / (F sqrt(dk)),
    returned rounded up, in integers.
    """
    num, f = body._tile_volume(rows, cap)
    den2 = f * f * dk
    c = math.isqrt(num * num // den2)
    return c + (c * c * den2 < num * num)


def _points(
    rows: Sequence[Sequence[int]],
    gs: tuple[Sequence[int], Sequence[Sequence[int]]],
    body: Body,
    cap: int,
    budget: int,
    shifted: bool = False,
) -> list[tuple[int, tuple[int, ...]]]:
    """(g, v) for every lattice point v = t . rows whose integer gauge
    g = body._gauge(v) is at most cap; the one enumeration here.  For the
    lattice rows / den, cap = floor(R den S) keeps the points of body norm
    g / (S den) at most R, S the body's scale.

    Fincke-Pohst (Math. Comp. 44, 1985) in integers, over gs = (d, lam),
    the integral Gram-Schmidt data of rows under body._form (see
    _gram_dets), out to the ellipsoid form(v) <= ellipsoid_bound(cap) that
    circumscribes the gauge ball.  Level i adds y_i^2 / (d_i d_{i+1}),
    y_i = d_{i+1} t_i + sum_{j>i} lam_ji t_j, to the form, and the bound
    left there is rem / scale, handed down with the partial vector
    sum_{j>=i} t_j rows_j: t_i runs over exactly the integers with
    |y_i| <= isqrt(rem d_i d_{i+1} // scale), and the child gets the bound
    (rem d_i d_{i+1} - y_i^2 scale) / (scale d_i d_{i+1}), as (rem, scale)
    unchanged when y_i = 0, and a new vector only when t_i != 0.  Every
    leaf's v is then filtered by its gauge.

    Sign rule (Schnorr-Euchner, Math. Programming 66, 1994): unless shifted,
    t_i starts at 0 while every coefficient above level i is 0, so of each
    pair +-v only the one whose last nonzero coefficient is positive is
    visited, and 0 is never returned.  The node budget counts the nodes of
    this half tree inside the ellipsoid.  Every point of the body is a leaf
    of it, so for rows of full rank the search is priced before its first
    node: at least _tile_bound // 2 nodes, one of each +-v (v != 0).
    When shifted, the last row is a coset shift with its coefficient fixed
    at 1: the points are rows[-1] + Z rows[:-1], all visited.  Each level
    tries its t_i in ascending order.
    """
    d, lam = gs
    k = len(rows)
    if not shifted and k == len(rows[0]):
        _charge("lattice enumeration", _tile_bound(rows, d[k], body, cap) // 2, "nodes", budget, "budget")
    out: list[tuple[int, tuple[int, ...]]] = []
    t = [0] * k
    nodes = 0

    def rec(i: int, rem: int, scale: int, half: bool, v: tuple[int, ...]) -> None:
        nonlocal nodes
        if i < 0:
            if not half:
                g = body._gauge(v)
                if g <= cap:
                    out.append((g, v))
            return
        c = sum(lam[j][i] * t[j] for j in range(i + 1, k))
        di = d[i + 1]
        dd = d[i] * di
        r = math.isqrt(rem * dd // scale)
        tries = range(0 if half else -((r + c) // di), (r - c) // di + 1)
        if shifted and i == k - 1:
            tries = range(1, 2 if 1 in tries else 1)
        for ti in tries:
            nodes += 1
            if nodes > budget:
                _charge("lattice enumeration", nodes, "nodes", budget, "budget")
            y = di * ti + c
            t[i] = ti
            child = tuple(x + ti * e for x, e in zip(v, rows[i])) if ti else v
            if y:
                rec(i - 1, rem * dd - y * y * scale, scale * dd, half and ti == 0, child)
            else:
                rec(i - 1, rem, scale, half and ti == 0, child)
        t[i] = 0

    rec(k - 1, body.ellipsoid_bound(cap), 1, not shifted, (0,) * len(rows[0]))
    return out


def _canonical_sign(vec: tuple[int, ...]) -> tuple[int, ...]:
    for x in vec:
        if x > 0:
            return vec
        if x < 0:
            return tuple(-y for y in vec)
    return vec


def lattice_points_within(
    lat: IntLattice,
    body: Body,
    radius: RatLike = Fraction(1),
    budget: int = DEFAULT_NODE_BUDGET,
) -> list[tuple[int, ...]]:
    """Numerators of all nonzero v in L with body-norm(v) <= radius, each v
    followed by -v."""
    if body.dim != lat.dim:
        raise DomainError("body dimension does not match the lattice")
    radius = to_fraction(radius)
    if radius < 0:
        raise DomainError(f"radius must be >= 0, got {radius}")
    rows, gs = _lll(lat.basis, body._form)
    cap = radius.numerator * lat.den * body._scale // radius.denominator
    return [u for _, v in _points(rows, gs, body, cap, budget) for u in (v, tuple(-x for x in v))]


@dataclass(frozen=True)
class MinimaProfile:
    """Successive minima with witness vectors (exact rationals)."""

    minima: tuple[Fraction, ...]
    witnesses: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        lam = self.minima
        if any(x <= 0 for x in lam):
            raise DomainError("minima must be positive")
        if any(a > b for a, b in zip(lam, lam[1:])):
            raise DomainError("minima must be nondecreasing")
        if len(lam) != len(self.witnesses):
            raise DomainError("need one witness per minimum")


def _minima_engine(
    rows: Sequence[Sequence[int]],
    den: int,
    body: Body,
    budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[list[Fraction], list[tuple[int, ...]]]:
    """Exact successive minima of {t.rows/den} under the body norm.

    Enumerates out to the largest gauge of an LLL-reduced basis vector, which
    always contains rank-many independent vectors, then picks greedily by
    (gauge, lexicographic sign-normalized vector); only the minima it reports
    become Fractions.
    """
    red, gs = _lll(rows, body._form)
    cap = max(body._gauge(r) for r in red)
    gauge_of = {_canonical_sign(v): g for g, v in _points(red, gs, body, cap, budget)}
    wits = _independent(sorted(gauge_of, key=lambda v: (gauge_of[v], v)), len(rows))
    if len(wits) != len(rows):
        raise DomainError("enumeration failed to reach full rank")  # unreachable
    return [Fraction(gauge_of[v], body._scale * den) for v in wits], wits


def successive_minima(lat: IntLattice, body: Body, budget: int = DEFAULT_NODE_BUDGET) -> MinimaProfile:
    """Exact successive minima of L with respect to the given symmetric body."""
    if lat.dim > MAX_ENUM_DIM:
        raise UnsupportedSize(f"dimension {lat.dim} exceeds the enumeration bound {MAX_ENUM_DIM}")
    if body.dim != lat.dim:
        raise DomainError("body dimension does not match the lattice")
    minima, wits = _minima_engine(lat.basis, lat.den, body, budget)
    return MinimaProfile(
        tuple(minima),
        tuple(tuple(Fraction(x, lat.den) for x in w) for w in wits),
    )


def shortest_vector_in(lat: IntLattice, body: Body, budget: int = DEFAULT_NODE_BUDGET) -> Optional[tuple[int, ...]]:
    """Numerator of a nonzero lattice vector of body-norm <= 1, of least norm
    (ties broken lexicographically after sign normalization), or None.

    Rank 2 in the plane takes an exact generalized Gauss reduction, and
    every other rank LLL plus Fincke-Pohst, both on the body's integer gauge
    (see _svp).
    """
    if body.dim != lat.dim:
        raise DomainError("body dimension does not match the lattice")
    return _svp(lat.basis, body, body._scale * lat.den, budget)


def _svp(rows: Sequence[Sequence[int]], body: Body, cap: int, budget: int = DEFAULT_NODE_BUDGET) -> Optional[tuple[int, ...]]:
    """The nonzero v of the lattice Z rows (rows independent) least by
    (gauge, _canonical_sign(v)), sign-normalized, or None past cap: the SVP
    core of shortest_vector_in and of the congruence pipeline.  Scaling
    column j of the rows by w_j > 0 and the body's weight j by 1/w_j scales
    the answer alike: gauges, signs and lexicographic order keep their order,
    and the gauges and the form change only by constant factors.

    Rank 2 in the plane is _gauss, which needs no node budget.  Otherwise LLL
    runs once and Fincke-Pohst goes out to the least gauge of a reduced row
    (or cap), where the shortest vector and every vector tied with it lie;
    not a search over the HNF, whose first coordinate is about m/H wide in
    the pipeline's boxes.
    """
    if len(rows) == len(rows[0]) == 2:
        (g1, b1), (g2, b2) = _gauss(rows, body)
        vs = [b1]
        if g2 == g1:
            # b1, b2 attain the two minima, so a least v = x b1 + y b2 has
            # |x|, |y| <= 2 (Cramer's rule and Minkowski's second theorem);
            # a flat face can hold one that b1 +- b2 misses, such as 2 b1 - b2
            vs += [tuple(x * u + y * w for u, w in zip(b1, b2)) for y in (1, 2) for x in range(-2, 3)]
        pts = [(body._gauge(v), v) for v in vs]
    else:
        red, gs = _lll(rows, body._form)
        cap = min([cap] + [body._gauge(r) for r in red])
        pts = _points(red, gs, body, cap, budget)
    best = min(((g, _canonical_sign(v)) for g, v in pts if g <= cap), default=None)
    return best[1] if best else None


def _gauss(rows: Sequence[Sequence[int]], body: Body) -> list[tuple[int, tuple[int, int]]]:
    """[(gauge(b1), b1), (gauge(b2), b2)] for a basis of the rank-2 lattice
    Z rows in the plane with gauge(b1) <= gauge(b2) <= gauge(b2 - mu b1) for
    every integer mu, so at the two successive minima: the generalized Gauss
    reduction (Kaib and Schnorr, J. Algorithms 21, 1996), exact for any norm.

    Each round takes b2 - mu b1 at a least gauge, then swaps while the gauge
    shrinks.  For b1 = (q, s), b2 = (p, r) and weights A, B that gauge is
    convex and piecewise linear in mu, with breakpoints p/q, r/s and, for
    the box, (pA -+ rB) / (qA -+ sB), so a least mu is the floor or ceiling
    of one of them; a walk in mu would crawl on the pipeline's skewed boxes.
    """
    a, b = body._weights
    agg = body._agg

    def keyed(v: tuple[int, int]) -> tuple[int, tuple[int, int]]:
        return agg((abs(v[0]) * a, abs(v[1]) * b)), v

    low, high = sorted(keyed(tuple(r)) for r in rows)
    while True:
        (q, s), (p, r) = low[1], high[1]
        cuts = ((p, q), (r, s), (p * a - r * b, q * a - s * b), (p * a + r * b, q * a + s * b))
        high = min(keyed((p - mu * q, r - mu * s)) for mu in {n // k + e for n, k in cuts if k for e in (0, 1)})
        if high[0] >= low[0]:
            return [low, high]
        low, high = high, low


# ---------------------------------------------------------------------------
# the certified checks


@dataclass(frozen=True)
class MinkowskiRecord:
    minima: tuple[Fraction, ...]
    ratio: Fraction  # prod(lambda) * vol(body) / covol
    lower: Fraction  # 2^n / n!
    upper: int  # 2^n
    ok: bool


def minkowski_check(lat: IntLattice, body: Body, budget: int = DEFAULT_NODE_BUDGET) -> MinkowskiRecord:
    """Exact second-theorem sandwich: 2^n/n! <= prod(lambda) vol / covol <= 2^n."""
    prof = successive_minima(lat, body, budget)
    n = lat.dim
    ratio = math.prod(prof.minima) * body.volume() / lat.covolume
    lower = Fraction(2**n, math.factorial(n))
    upper = 2**n
    return MinkowskiRecord(prof.minima, ratio, lower, upper, lower <= ratio <= upper)


def dual_lattice(lat: IntLattice) -> IntLattice:
    """{y : <y, x> in Z for all x in L}, in canonical form."""
    if not lat.is_full_rank:
        raise DomainError("dual needs a full-rank lattice")
    d, adj = _inverse_scaled(lat.basis)
    n = lat.dim
    # dual basis rows are den * (B^-1)^T = den * adj^T / d
    numer = tuple(tuple(lat.den * adj[j][i] for j in range(n)) for i in range(n))
    return IntLattice(numer, abs(d)).canonical()


@dataclass(frozen=True)
class TransferenceRecord:
    primal: MinimaProfile
    dual: MinimaProfile
    products: tuple[Fraction, ...]  # lambda_j * lambda*_{n-j+1}
    max_product: Fraction
    ok: bool  # every product >= 1, asserted exactly


def transference_check(lat: IntLattice, body: Body, budget: int = DEFAULT_NODE_BUDGET) -> TransferenceRecord:
    """lambda_j(L, D) * lambda_{n-j+1}(L*, D*) >= 1 for all j, exactly.

    Only the lower bound is asserted; the empirical max is reported so the
    upper constant can be observed rather than trusted.
    """
    primal = successive_minima(lat, body, budget)
    dual = successive_minima(dual_lattice(lat), body.polar(), budget)
    n = lat.dim
    products = tuple(primal.minima[j] * dual.minima[n - 1 - j] for j in range(n))
    return TransferenceRecord(primal, dual, products, max(products), all(p >= 1 for p in products))


def count_lattice_points(lat: IntLattice, body: Body, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """#(L intersect body), origin included; exact."""
    if lat.dim > MAX_ENUM_DIM:
        raise UnsupportedSize(f"dimension {lat.dim} exceeds the enumeration bound {MAX_ENUM_DIM}")
    if not lat.is_full_rank:
        raise DomainError("point counting needs a full-rank lattice")
    return len(lattice_points_within(lat, body, Fraction(1), budget)) + 1


@dataclass(frozen=True)
class PointCountRecord:
    count: int
    minima: tuple[Fraction, ...]
    reference: Fraction  # prod over j of max(1, 1/lambda_j)
    cn: Fraction  # count / reference, the observed dimensional constant


def point_count_record(lat: IntLattice, body: Body, budget: int = DEFAULT_NODE_BUDGET) -> PointCountRecord:
    count = count_lattice_points(lat, body, budget)
    prof = successive_minima(lat, body, budget)
    ref = math.prod(max(Fraction(1), 1 / lam) for lam in prof.minima)
    return PointCountRecord(count, prof.minima, ref, Fraction(count) / ref)


# ---------------------------------------------------------------------------
# basis from minima witnesses with certified expansion constants


@dataclass(frozen=True)
class MahlerBasisRecord:
    minima: tuple[Fraction, ...]
    basis: tuple[tuple[Fraction, ...], ...]
    norms: tuple[Fraction, ...]
    factor: Fraction  # certified multiple of lambda_j: max(1, n/2)
    within_factor: bool
    expansions: tuple[tuple[tuple[int, ...], Fraction], ...]  # (coeffs, max |c_j| lambda_j)
    expansion_constant: Optional[Fraction]


def mahler_basis(
    lat: IntLattice,
    body: Body,
    queries: Sequence[Sequence[Union[int, Fraction]]] = (),
    budget: int = DEFAULT_NODE_BUDGET,
) -> MahlerBasisRecord:
    """A basis w_1..w_n of L with ||w_j|| <= max(1, n/2) * lambda_j.

    Built greedily: w_j is the shortest completion of (w_1..w_{j-1}) to a
    basis of L intersect span(v_1..v_j), found by exact coset enumeration.
    The filtration comes from one transform: for the witnesses' coefficient
    rows T, U T^T = H is upper triangular, so T = H^T C with C = U^-T
    unimodular.  Row c_j of C then completes its rows before it to a basis
    of the saturation of span(t_1..t_j), and the coset searched,
    c_j + Z(w_1..w_{j-1}), is that of every completion, up to sign.  w_j
    is the sign-normalized v of the least (gauge, sign-normalized v) there.
    The expansion certificate reports, for each queried vector b in L,
    integer coefficients b = sum c_j w_j and the value max_j |c_j| lambda_j.
    """
    if lat.dim > MAX_ENUM_DIM:
        raise UnsupportedSize(f"dimension {lat.dim} exceeds the enumeration bound {MAX_ENUM_DIM}")
    if not lat.is_full_rank:
        raise DomainError("basis construction needs a full-rank lattice")
    prof = successive_minima(lat, body, budget)
    n = lat.dim
    den = lat.den

    def lattice_row(t: Sequence[int]) -> list[int]:
        return [sum(x * row[c] for x, row in zip(t, lat.basis)) for c in range(n)]

    wit_coeff: list[tuple[int, ...]] = []
    for w in prof.witnesses:
        t = lat.coefficients_of(w)
        if t is None:
            raise DomainError("witness left the lattice")  # unreachable
        wit_coeff.append(t)
    _, u, rank = hnf_with_transform(list(zip(*wit_coeff)))
    if rank != n:
        raise DomainError("witnesses are not independent")  # unreachable
    d, adj = _inverse_scaled(u)  # U^-1 = adj / d, d = +-1

    vecs: list[Sequence[int]] = []  # numerators of w_1..w_j
    for j in range(n):
        u_vec = [d * row[j] for row in adj]  # row j of U^-T
        if not vecs:
            vecs.append(lattice_row(_canonical_sign(tuple(u_vec))))
        else:
            # minimize over the completion coset u + Z(w_1..w_{j-1}), u the
            # shift row; u itself qualifies, so the search is never empty
            rows = vecs + [lattice_row(u_vec)]
            pts = _points(rows, _gram_dets(rows, body._form), body, body._gauge(rows[-1]), budget, shifted=True)
            vecs.append(min((g, _canonical_sign(v)) for g, v in pts)[1])

    basis_lat = IntLattice(tuple(tuple(v) for v in vecs), den)
    norms = tuple(Fraction(body._gauge(v), body._scale * den) for v in vecs)
    factor = max(Fraction(1), Fraction(n, 2))
    within = all(nrm <= factor * lam for nrm, lam in zip(norms, prof.minima))
    if basis_lat.canonical() != lat.canonical():
        raise DomainError("construction did not return a basis")  # unreachable

    expansions = []
    cmax: Optional[Fraction] = None
    for q in queries:
        coords = basis_lat.coefficients_of(q)
        if coords is None:
            raise DomainError(f"query {q!r} is not a lattice vector")
        val = max(abs(c) * lam for c, lam in zip(coords, prof.minima))
        expansions.append((coords, val))
        cmax = val if cmax is None else max(cmax, val)
    return MahlerBasisRecord(
        prof.minima,
        basis_lat.vectors(),
        norms,
        factor,
        within,
        tuple(expansions),
        cmax,
    )


# ---------------------------------------------------------------------------
# small integer nullspace with exact size certificate


@dataclass(frozen=True)
class NullspaceRecord:
    solutions: tuple[tuple[int, ...], ...]  # independent, sup-norm-minimal
    is_basis: bool
    kernel_basis: tuple[tuple[int, ...], ...]  # HNF basis of the saturated kernel
    max_norms: tuple[int, ...]
    product: int  # prod of max-norms
    minor_gcd: int  # D
    gram_det: int  # det(M M^T)
    product_bound_ok: bool  # product^2 * D^2 <= det(M M^T)
    min_vector_bound_ok: bool  # (min max-norm)^(2k) * D^2 <= det(M M^T)


def bv_small_solutions(mat: Sequence[Sequence[int]], budget: int = DEFAULT_NODE_BUDGET) -> NullspaceRecord:
    """d-d0 independent integer solutions of M w = 0 with certified small size.

    The solutions are the successive-minima witnesses of the saturated kernel
    lattice under the sup norm.  Certificates (exact integer comparisons):
    the product of the max-norms is at most sqrt(det(M M^T))/D, and the
    smallest solution is at most (sqrt(det(M M^T))/D)^(1/(d-d0)), where D is
    the gcd of the maximal minors.
    """
    rows = [list(map(int, r)) for r in mat]
    d0 = len(rows)
    if d0 == 0:
        raise DomainError("empty matrix")
    d = len(rows[0])
    if any(len(r) != d for r in rows):
        raise DomainError("ragged matrix")
    if d0 >= d:
        raise DomainError(f"need more columns than rows, got {d0} x {d}")
    if rational_rank(rows) != d0:
        raise DomainError("matrix must have full row rank")
    if d > MAX_ENUM_DIM:
        raise UnsupportedSize(f"ambient dimension {d} exceeds the enumeration bound {MAX_ENUM_DIM}")

    kernel = integer_kernel(rows)
    k = len(kernel)
    minima, wits = _minima_engine(kernel, 1, WeightedBox((1,) * d), budget)

    for w in wits:
        if any(sum(rows[i][c] * w[c] for c in range(d)) != 0 for i in range(d0)):
            raise DomainError("witness does not solve the system")  # unreachable

    gram_det = _gram_dets(rows, (1,) * d)[0][-1]
    minors = itertools.combinations(range(d), d0)
    minor_gcd = math.gcd(*(det_int([[rows[i][c] for c in cols] for i in range(d0)]) for cols in minors))
    if minor_gcd == 0:
        raise DomainError("matrix must have full row rank")  # unreachable after rank check

    kernel_det = _gram_dets(kernel, (1,) * d)[0][-1]
    if kernel_det * minor_gcd**2 != gram_det:
        raise DomainError("kernel covolume identity failed")  # unreachable

    max_norms = tuple(max(abs(x) for x in w) for w in wits)
    product = math.prod(max_norms)
    product_ok = product**2 * minor_gcd**2 <= gram_det
    min_ok = min(max_norms) ** (2 * k) * minor_gcd**2 <= gram_det

    # every witness solves M w = 0 and the covolume identity certifies that
    # the kernel rows K are saturated, so W = C K for an integer C, and
    # det(W W^T) = det(C)^2 det(K K^T): W is a basis exactly when they agree
    is_basis = _gram_dets(wits, (1,) * d)[0][-1] == kernel_det

    return NullspaceRecord(
        tuple(wits),
        is_basis,
        tuple(tuple(r) for r in kernel),
        max_norms,
        product,
        minor_gcd,
        gram_det,
        product_ok,
        min_ok,
    )


# ---------------------------------------------------------------------------
# Monte Carlo measure of small fractional parts


@dataclass(frozen=True)
class MeasureRecord:
    estimate: float
    hits: int
    samples: int
    seed: int
    target: Fraction  # prod of the epsilons
    sigma: float  # binomial stddev at the target probability
    band3: float  # 3 sigma


def fractional_measure(
    mat: Sequence[Sequence[int]],
    eps: Sequence[RatLike],
    samples: int = 100_000,
    seed: int = 0,
) -> MeasureRecord:
    """Monte Carlo estimate of mu{t in [0,1)^d : {sum_i m_ij t_i} <= eps_j for all j}.

    The form for column j is sum_i mat[i][j] t_i.  Deterministic given the
    seed; the record carries the binomial band so callers can make the
    3-sigma comparison against prod(eps) without re-deriving it.
    """
    d = len(mat)
    if d == 0 or any(len(r) != d for r in mat):
        raise DomainError("matrix must be square")
    if det_int(mat) == 0:
        raise DomainError("matrix must be nonsingular")
    epsf = [to_fraction(e) for e in eps]
    if len(epsf) != d:
        raise DomainError(f"need {d} epsilons, got {len(epsf)}")
    if any(not (0 < e <= Fraction(1, 2)) for e in epsf):
        raise DomainError("each epsilon must lie in (0, 1/2]")
    if samples < 1:
        raise DomainError("need at least one sample")
    _charge("fractional_measure", samples * (d * d + 1), "steps", _MEASURE_BUDGET, "_MEASURE_BUDGET")
    cols = [[float(mat[i][j]) for i in range(d)] for j in range(d)]
    eps_float = [float(e) for e in epsf]
    rng = random.Random(seed)
    hits = 0
    for _ in range(samples):
        t = [rng.random() for _ in range(d)]
        ok = True
        for j in range(d):
            col = cols[j]
            v = 0.0
            for i in range(d):
                v += col[i] * t[i]
            if v - math.floor(v) > eps_float[j]:
                ok = False
                break
        if ok:
            hits += 1
    target = math.prod(epsf)
    p = float(target)
    sigma = math.sqrt(p * (1.0 - p) / samples)
    return MeasureRecord(hits / samples, hits, samples, seed, target, sigma, 3.0 * sigma)
