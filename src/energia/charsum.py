"""Multiplicative character sums modulo a prime, with square-root cancellation
checks and the admissible-exponent region for the energy application.

Characters are stored through a discrete-log table over the smallest
primitive root, so multiplicativity can be tested exactly on exponents; the
complex values only enter when a sum is actually evaluated.  All sums
accumulate in a fixed index order, so repeated runs give identical floats.
The table is built in `ring` (`_dlog_table`); `TABLE_BUDGET` and
`smallest_primitive_root` live there and are re-exported here.
"""
from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Optional, Sequence

from .bounds import _float_bound
from .ring import (
    TABLE_BUDGET,
    DomainError,
    PolyMod,
    RatLike,
    _charge,
    _dlog_table,
    inv_mod,
    is_probable_prime,
    poly_table,
    primes_up_to,
    smallest_primitive_root,
    to_fraction,
)

__all__ = [
    "TABLE_BUDGET", "SUM_BUDGET", "smallest_primitive_root",
    "CharTable", "char_eval", "WeilRecord", "weil_admissible", "complete_sum_poly",
    "BilinearInstance", "BilinearRecord", "bilinear_W", "PrimeBilinearRecord", "prime_bilinear_sum",
    "BilinearBoundRecord", "bilinear_energy_bound", "RegimeParams", "AdmissibleRecord",
    "xi_threshold", "admissible_exponents",
]

# character evaluations of one sum, about 1 s; a complete sum mod p of a
# degree-d polynomial is charged p * (d + 1): p table entries, each standing
# for d + 1 steps of its Horner evaluation (the table itself costs less)
SUM_BUDGET = 10**6


@dataclass(frozen=True)
class CharTable:
    """chi(generator^a) = exp(2 pi i * order_index * a / (p-1)); chi(0) = 0."""

    modulus: int
    order_index: int
    generator: int
    dlog: tuple[int, ...]

    @classmethod
    def build(cls, p: int, order_index: Optional[int] = None) -> "CharTable":
        if p < 3 or not is_probable_prime(p):
            raise DomainError(f"modulus must be an odd prime, got {p}")
        k = (p - 1) // 2 if order_index is None else order_index % (p - 1)
        if k == 0:
            raise DomainError("principal character is not supported")
        g, table = _dlog_table(p)
        return cls(p, k, g, tuple(table))

    @property
    def order(self) -> int:
        return (self.modulus - 1) // math.gcd(self.order_index, self.modulus - 1)

    def exponent(self, x: int) -> Optional[int]:
        """k * dlog(x) mod (p-1), or None at x = 0; exact."""
        r = x % self.modulus
        if r == 0:
            return None
        return self.order_index * self.dlog[r] % (self.modulus - 1)

    def value(self, x: int) -> complex:
        e = self.exponent(x)
        if e is None:
            return 0j
        return cmath.exp(2j * cmath.pi * e / (self.modulus - 1))


def char_eval(table: CharTable, x: int) -> complex:
    """chi(x): unit modulus on nonzero residues, 0 at multiples of p."""
    return table.value(x)


@dataclass(frozen=True)
class WeilRecord:
    modulus: int
    degree: int
    order: int
    value: complex
    magnitude: float
    bound: float  # (d - 1) sqrt(p)
    admissible: Optional[bool]  # None when the shape test is not implemented
    within_bound: Optional[bool]


def weil_admissible(table: CharTable, coeffs: Sequence[int]) -> Optional[bool]:
    """Whether f is provably not (constant * h^r), for the shapes we can test.

    r = order of chi.  Degrees not divisible by r are always admissible; the
    two genuinely reducible shapes at degree <= 3 (a perfect square under a
    quadratic character, a perfect cube under a cubic one) are decided
    exactly.  None means undecided, not inadmissible.
    """
    p = table.modulus
    r = table.order
    d = len(coeffs) - 1
    if d % r != 0:
        return True
    if r == 2 and d == 2:
        a0, a1, a2 = coeffs
        return (a1 * a1 - 4 * a2 * a0) % p != 0
    if r == 3 and d == 3:
        u = inv_mod(coeffs[3], p)
        g0, g1, g2 = (u * coeffs[0] % p, u * coeffs[1] % p, u * coeffs[2] % p)
        a = g2 * inv_mod(3, p) % p
        is_cube = (3 * a * a - g1) % p == 0 and (a * a * a - g0) % p == 0
        return not is_cube
    return None


def complete_sum_poly(table: CharTable, f: PolyMod) -> WeilRecord:
    """Sum of chi(f(x)) over all residues x, with the square-root bound check.

    Tabulates f over 0..p-1 (`poly_table`) and histograms the discrete logs
    of its nonzero values mod the order of chi with C iterators, through one
    periodic list of the classes that also sends a zero value aside; each class
    then maps to one exact character exponent, so the complex rounding
    enters once per exponent class rather than once per term.  Priced at
    p * (d + 1) against SUM_BUDGET before it runs.
    """
    p = table.modulus
    if f.modulus != p:
        raise DomainError(f"polynomial modulus {f.modulus} does not match the table's {p}")
    cs = f.coeffs
    d = f.degree
    _charge("a complete sum", p * (d + 1), "character evaluations", SUM_BUDGET, "SUM_BUDGET")
    r = table.order  # chi(g^a) depends on a mod r only, and r divides p - 1
    # classes[a] = a mod r for a log a; a zero value's log -1 reads the extra class r
    classes = list(range(r)) * ((p - 1) // r) + [r]
    logs = itemgetter(*poly_table(cs, 0, p, p))(table.dlog)  # p >= 3 keys: a tuple
    counts = Counter(itemgetter(*logs)(classes))
    counts.pop(r, None)
    hist = {table.order_index * a % (p - 1): c for a, c in counts.items()}
    total = 0j
    for e in sorted(hist):
        total += hist[e] * cmath.exp(2j * cmath.pi * e / (p - 1))
    mag = abs(total)
    bound = (d - 1) * math.sqrt(p)
    adm = weil_admissible(table, cs)
    within = None if adm is not True else bool(mag <= bound + 1e-6)
    return WeilRecord(p, d, table.order, total, mag, bound, adm, within)


@dataclass(frozen=True)
class BilinearInstance:
    """A weighted set of residues against a weighted initial interval [1, H].

    All weights must have modulus at most 1; zero weights are allowed and
    simply drop terms.
    """

    residues: tuple[int, ...]
    alpha: tuple[complex, ...]
    H: int
    beta: tuple[complex, ...]

    def __post_init__(self) -> None:
        if not self.residues:
            raise DomainError("residue set must be nonempty")
        if len(set(self.residues)) != len(self.residues):
            raise DomainError("residues must be distinct")
        if len(self.alpha) != len(self.residues):
            raise DomainError("one alpha weight per residue")
        if self.H < 1 or len(self.beta) != self.H:
            raise DomainError("beta must carry exactly H weights")
        for name, arr in (("alpha", self.alpha), ("beta", self.beta)):
            if any(abs(c) > 1 + 1e-9 for c in arr):
                raise DomainError(f"{name} entries must have modulus <= 1")

    @classmethod
    def uniform(cls, residues: Sequence[int], H: int) -> "BilinearInstance":
        """Unit weights on both sides; H and |residues| * H are checked before
        any weight is built, so residues may be a range."""
        if not residues:
            raise DomainError("residue set must be nonempty")
        if H < 1:
            raise DomainError(f"H must be >= 1, got {H}")
        _charge("a bilinear sum", len(residues) * H, "character evaluations", SUM_BUDGET, "SUM_BUDGET")
        rs = tuple(residues)
        return cls(rs, (1,) * len(rs), H, (1,) * H)


@dataclass(frozen=True)
class BilinearRecord:
    value: complex
    magnitude: float
    rows: int
    cols: int
    trivial: float  # L1(alpha) * L1(beta)


def bilinear_W(table: CharTable, inst: BilinearInstance) -> BilinearRecord:
    """W = sum over s in the set, x in [1,H] of alpha_s beta_x chi(s + x);
    refused past SUM_BUDGET character evaluations."""
    _charge("a bilinear sum", len(inst.residues) * inst.H, "character evaluations", SUM_BUDGET, "SUM_BUDGET")
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
    trivial = sum(abs(c) for c in inst.alpha) * sum(abs(c) for c in inst.beta)
    return BilinearRecord(total, abs(total), len(inst.residues), inst.H, trivial)


@dataclass(frozen=True)
class PrimeBilinearRecord:
    """Both orders of the prime-supported absolute bilinear sum.

    by_q fixes an outer prime q <= Q and takes |sum over r| inside; by_r is
    the transpose.  The two need not agree: absolute values sit in different
    places.
    """

    by_q: float
    by_r: float
    primes_q: int
    primes_r: int
    ratio_trivial: float  # by_q / (Q * R)
    ratio_pairs: float  # by_q / (pi(Q) * pi(R)), <= 1 by the triangle inequality
    saving: Optional[float]  # log(QR / by_q) / log p, None when the sum vanishes


def prime_bilinear_sum(table: CharTable, f: PolyMod, Q: int, R: int) -> PrimeBilinearRecord:
    """Sums of |inner chi(f(q) + r)| over primes q <= Q, r <= R, both orders.

    One pass over q evaluates f(q) and each chi(f(q) + r) once: row sums
    give by_q, and column sums, run in the same q order, give by_r.  The
    price, 2 pi(Q) pi(R) character evaluations, covers both orders and is
    refused past SUM_BUDGET before f or any character is evaluated.
    """
    p = table.modulus
    if f.modulus != p:
        raise DomainError(f"polynomial modulus {f.modulus} does not match the table's {p}")
    if Q >= p or R >= p:
        raise DomainError("prime ranges must stay below the modulus")
    qs = primes_up_to(Q)
    rs = primes_up_to(R)
    if not qs or not rs:
        return PrimeBilinearRecord(0.0, 0.0, len(qs), len(rs), 0.0, 0.0, None)
    _charge("a prime bilinear sum", 2 * len(qs) * len(rs), "character evaluations", SUM_BUDGET, "SUM_BUDGET")
    # chi takes at most `order` values: when a row has as many terms, compute
    # each value once (g^j has exponent k j) and look the terms up by exponent
    vals = None
    if table.order <= len(rs):
        xs = [0, *(pow(table.generator, j, p) for j in range(table.order))]
        vals = {table.exponent(x): table.value(x) for x in xs}
    by_q = 0.0
    cols = [0j] * len(rs)  # running sums over q, one per r
    for q in qs:
        v = f(q)
        inner = 0j
        for i, r in enumerate(rs):
            x = vals[table.exponent(v + r)] if vals else table.value(v + r)
            inner += x
            cols[i] += x
        by_q += abs(inner)
    by_r = 0.0
    for c in cols:
        by_r += abs(c)
    pairs = len(qs) * len(rs)
    saving = None
    if by_q > 0:
        saving = math.log(Q * R / by_q) / math.log(p)
    return PrimeBilinearRecord(by_q, by_r, len(qs), len(rs), by_q / (Q * R), by_q / pairs, saving)


@dataclass(frozen=True)
class BilinearBoundRecord:
    """Energy-driven numeric bound for the bilinear sum, with range flags.

    The unbounded p^(o(1)) factor is set to 1 and recorded as an assumption
    rather than folded into any assertion.
    """

    bound: float
    main_terms: tuple[float, float, float]
    secondary: float  # the sqrt(S) * H tail
    flags: dict
    assumption: str = field(default="p^(o(1)) factor taken as 1", compare=False)


@_float_bound
def bilinear_energy_bound(S: int, H: int, p: int, energy: int, r: int) -> BilinearBoundRecord:
    """Numeric bilinear-sum bound driven by an additive energy estimate.

    The three bracket terms trade the energy of the weight set against powers
    of p; the flags report the exact range conditions S^2 H <= p^2, H^2 < p
    and H^r >= p under which the shape is meaningful.  Violations are
    reported in the flags, never silently ignored.  An input or a bound too
    large for a float raises DomainError.
    """
    if min(p, S, H, energy) < 1 or r < 1:
        raise DomainError("all parameters must be positive")
    t1 = energy * p ** ((r + 1) / r) / (S**4 * H**2)
    t2 = p ** ((r + 2) / r) / (S * H**2.5)
    t3 = p ** ((r + 2) / r) / (S**2 * H**2)
    bracket = (t1 + t2 + t3) ** (1 / (4 * r))
    secondary = math.sqrt(S) * H
    flags = {
        "S^2 H <= p^2": S * S * H <= p * p,
        "H^2 < p": H * H < p,
        "H^r >= p": H > 1 and r >= p.bit_length() or H**r >= p,  # H^r >= 2^r > p: no power of a huge r
    }
    bound = S * H * bracket + secondary
    if not math.isfinite(bound):
        raise DomainError("bilinear_energy_bound: the bound is too large for a float")
    return BilinearBoundRecord(bound, (t1, t2, t3), secondary, flags)


@dataclass(frozen=True)
class RegimeParams:
    """Exponent pair (zeta, xi) for ranges Q = p^zeta, R = p^xi at degree d.

    r is the auxiliary moment order and delta an optional claimed saving;
    neither enters the region test, which is pure rational arithmetic in
    (d, zeta, xi).
    """

    zeta: Fraction
    xi: Fraction
    d: int
    r: int = 1
    delta: Optional[Fraction] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "zeta", to_fraction(self.zeta))
        object.__setattr__(self, "xi", to_fraction(self.xi))
        if self.delta is not None:
            object.__setattr__(self, "delta", to_fraction(self.delta))
            if self.delta <= 0:
                raise DomainError("delta must be positive when given")
        if self.zeta <= 0 or self.xi <= 0:
            raise DomainError("zeta and xi must be positive")
        if self.d < 2:
            raise DomainError(f"degree must be >= 2, got {self.d}")
        if self.r < 1:
            raise DomainError("r must be a positive integer")


@dataclass(frozen=True)
class AdmissibleRecord:
    ok: bool
    slacks: dict  # constraint label -> Fraction slack (>= 0 means satisfied)
    threshold: Fraction


def xi_threshold(d: int, zeta: RatLike) -> Fraction:
    """Smallest xi (exclusive) compatible with the strict constraints."""
    if d < 2:
        raise DomainError(f"degree must be >= 2, got {d}")
    z = to_fraction(zeta)
    return max(
        Fraction(1, 2) - z,
        Fraction(1, 2) - Fraction(2, d * (d + 1)),
        Fraction(2, 5) * (1 - z),
    )


def admissible_exponents(params: RegimeParams) -> AdmissibleRecord:
    """Exact membership test for the admissible (zeta, xi) exponent region.

    Three strict inequalities and two weak caps; the record carries every
    slack so a caller can see which constraint binds.
    """
    d, z, x = params.d, params.zeta, params.xi
    strict = {
        "zeta + xi > 1/2": z + x - Fraction(1, 2),
        "xi > 1/2 - 2/(d(d+1))": x - (Fraction(1, 2) - Fraction(2, d * (d + 1))),
        "zeta + 5 xi / 2 > 1": z + Fraction(5, 2) * x - 1,
    }
    weak = {
        "xi <= 1/2": Fraction(1, 2) - x,
        "xi <= 2 - 2 zeta": 2 - 2 * z - x,
    }
    ok = all(v > 0 for v in strict.values()) and all(v >= 0 for v in weak.values())
    return AdmissibleRecord(ok, {**strict, **weak}, xi_threshold(d, z))
