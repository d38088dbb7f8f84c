"""Counting solutions of polynomial equations and congruences in boxes.

The central routine turns a congruence f(n) = f(m) + shift (mod m) over a
short interval into a genuine integer equation: a short vector in the lattice
of coefficient relations pins the power differences down to a single integer
value, and the integer equation is then solved exactly inside the box by the
route that count_eq's plan prices cheaper: join f(1..H) with f(1..H) + value
in order, as brute force does mod m, or isolate the roots of one difference
polynomial per shift n - m dividing the value, by differentiation and integer
bisection, nothing factored.  Brute force always recounts; the two totals must
agree or the call fails loudly.  Each piece of work has one price in table
values, compared by the plan and charged against BRUTE_BUDGET first.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Optional, Sequence

from .energy import _afford, _energy, _fold_self, _squares
from .lattice import NullspaceRecord, WeightedBox, _independent, _svp, bv_small_solutions
from .ring import (
    DomainError,
    PolyMod,
    _charge,
    _whole,
    centered,
    int_poly_eval,
    inv_mod,
    poly_table,
)

# steps of one unit, a table value with its index entry (0.3-0.8 µs) or a pair; a scan
# candidate (50-80 ns) is 1/_CANDIDATES step, a root search d * bit_length(H) steps
# (medians: about 10d without a root, d * bit_length(H) + 16 with one); about 1 s in all
BRUTE_BUDGET = 1_500_000
_CANDIDATES = 8
# a regime_constant walk makes about b = max_den.bit_length() comparisons, each
# on (d + 1) b-bit powers; Karatsuba products of n bits grow as n^1.58, so b of
# them cost about as much as one of n sqrt(b) bits, charged here; about 1 s
_POWER_BUDGET = 3 * 10**6


def poly_shift_coeffs(coeffs: Sequence[int], t: int) -> list[int]:
    """Coefficients of f(x + t) for integer f, exactly (Taylor shift by Horner)."""
    out = list(coeffs)
    for i in range(len(out) - 1):
        for k in range(len(out) - 2, i - 1, -1):
            out[k] += t * out[k + 1]
    return out


def _roots_in(cs: Sequence[int], lo: int, hi: int) -> list[int]:
    """Sorted integer roots in [lo, hi] of a nonzero integer polynomial.

    Real-root isolation by differentiation (Collins & Loos, SYMSAC 1976), run
    up the chain of derivatives from the first line to f.  Each g in the chain
    gets integer cuts lo = x_0 < ... < x_k = hi: g is monotone between the
    cuts of g' (on all of [lo, hi] if g is a line), and a piece where g
    changes sign strictly is bisected down to the unit step where it does,
    whose ends become cuts too.  So g keeps one sign on every piece longer
    than one, and a nonzero g vanishes there only at the ends: every root of
    f is a cut.  O(d^2 log(hi - lo)) evaluations, and nothing is factored.
    """
    if lo > hi:
        return []
    chain = [list(cs)]
    while len(chain[-1]) > 2:
        chain.append([k * c for k, c in enumerate(chain[-1])][1:])
    cuts = [(lo, 0), (hi, 0)] if lo < hi else [(lo, 0)]
    for g in reversed(chain):
        out: list[tuple[int, int]] = []  # (x, g(x))
        for b, _ in cuts:
            vb = int_poly_eval(g, b)
            if out and out[-1][1] * vb < 0:
                (x, vx), (y, vy) = out[-1], (b, vb)
                while y - x > 1:
                    mid = (x + y) // 2
                    vm = int_poly_eval(g, mid)
                    if vm * vx > 0:
                        x, vx = mid, vm
                    else:
                        y, vy = mid, vm
                out += [c for c in ((x, vx), (y, vy)) if out[-1][0] < c[0] < b]
            out.append((b, vb))
        cuts = out
    return [x for x, v in cuts if v == 0]


def integer_roots(coeffs: Sequence[int]) -> set[int]:
    """All integer roots of a nonzero integer polynomial, within its Cauchy bound."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise DomainError("zero polynomial has every root")
    bound = 1 + max(map(abs, cs[:-1]), default=0) // abs(cs[-1])
    return set(_roots_in(cs, -bound, bound))


def _clean_coeffs(coeffs: Sequence[int], H: int) -> tuple[int, ...]:
    """f without trailing zeros, checked nonconstant, for a box [1, H] with H >= 1."""
    cs = [int(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    if len(cs) < 2:
        raise DomainError("need a nonconstant polynomial")
    _whole("H", H, 1)
    return tuple(cs)


def count_eq(
    coeffs: Sequence[int],
    target: int,
    H: int,
    collect: bool = False,
):
    """#{(n, m) in [1,H]^2 : f(n) - f(m) = target} over the integers.

    A shift t = n - m != 0 has |t| < H and divides the target.  The divisor
    route scans min(H - 1, sqrt|target|) candidates for the shifts, unfactored,
    and isolates the roots in the box of f(m+t) - f(m) - target for each
    (`_eq_by_shifts`); the table route joins f(1..H) with f(1..H) + target
    (`_eq_by_table`), the one route for target 0.  The plan prices
    both in BRUTE_BUDGET's steps and takes the cheaper: H values, or the scan
    and two root searches a shift (+-t).  It scans only if the scan and the
    shifts +-1 cost no more than the table, and charges that, then the whole
    route, each with a linear f's collected pairs, before the work: so count_eq
    refuses only what the table route refuses.  collect=True adds the sorted pairs.
    """
    cs = _clean_coeffs(coeffs, H)
    d, w = len(cs) - 1, abs(target)
    top = min(H - 1, math.isqrt(w))  # the divisors up to sqrt|w|, then their cofactors
    scan, search = -(-top // _CANDIDATES), 2 * d * H.bit_length()
    # a linear f's pairs all lie on its one shift target / a_1; both routes collect them
    bulk = max(0, H - abs(target // cs[1])) if collect and d == 1 and target % cs[1] == 0 else 0
    if w and (steps := scan + search) <= H:  # the shifts +-1 alone, against the table's H values
        _charge("count_eq", steps + bulk, "steps", BRUTE_BUDGET, "BRUTE_BUDGET")
        ts = {x for t in range(1, top + 1) if w % t == 0 for x in (t, w // t) if x < H}
        if (steps := scan + len(ts) * search) <= H:
            _charge("count_eq", steps + bulk, "steps", BRUTE_BUDGET, "BRUTE_BUDGET")
            return _eq_by_shifts(cs, target, H, collect, ts)
    return _eq_by_table(cs, target, H, collect)


def _eq_by_table(cs: tuple[int, ...], target: int, H: int, collect: bool):
    """count_eq's table route, priced like `brute_congruence`."""
    _charge("count_eq", 2 * H if target == 0 else H, "steps", BRUTE_BUDGET, "BRUTE_BUDGET")
    vals = poly_table(cs, 1, H)
    return _join("count_eq", vals, [v + target for v in vals], BRUTE_BUDGET, "BRUTE_BUDGET", collect)


def _eq_by_shifts(cs: tuple[int, ...], target: int, H: int, collect: bool, ts: Collection[int]):
    """count_eq's divisor route over the shifts +-t, t in ts (t < H, t | target != 0), priced by count_eq."""
    sols, count = [], 0
    for t in (s for u in ts for s in (u, -u)):
        eqn = [a - b for a, b in zip(poly_shift_coeffs(cs, t), cs)]
        eqn[0] -= target
        lo, hi = max(1, 1 - t), min(H, H - t)
        # each m gives one pair of shift t; a linear f's one shift zeroes the difference
        ms = _roots_in(eqn, lo, hi) if any(eqn) else range(lo, hi + 1)
        count += len(ms)
        if collect:
            sols += [(m + t, m) for m in ms]
    return (count, tuple(sorted(sols))) if collect else count


def _join(stage: str, vals: list[int], keys: list[int], budget: int, name: str, collect: bool = True):
    """#{(x, y) : vals[x] = keys[y]}, 1-based; only the keys that some value hits
    keep a list of y, so it is O(H).  With collect, H + count steps are charged
    before any pair is built, and the pairs follow in (x, y) order."""
    where: dict[int, list[int]] = {k: [] for k in set(keys).intersection(vals)}
    for y, k in enumerate(keys, start=1):
        if k in where:
            where[k].append(y)
    count = sum(len(where[v]) for v in vals if v in where)
    if not collect:
        return count
    _charge(stage, len(vals) + count, "steps", budget, name)
    return count, tuple((x, y) for x, v in enumerate(vals, start=1) for y in where.get(v, ()))


@dataclass(frozen=True)
class SymmetricCount:
    """Quadruples in [1,H]^4 with f(a) + f(b) = f(c) + f(d) over the integers."""

    total: int
    collision_pairs: int  # r(0): pairs with f(x) = f(y)
    off_diagonal: int  # sum over w != 0 of r(w)^2

    def __post_init__(self) -> None:
        if self.total != self.collision_pairs**2 + self.off_diagonal:
            raise DomainError("decomposition does not add up")


def count_symmetric_eq(coeffs: Sequence[int], H: int) -> SymmetricCount:
    """Exact additive energy of (f(1)..f(H)) as an integer multiset."""
    cs = _clean_coeffs(coeffs, H)
    _afford("count_symmetric_eq", H, H)
    hist = Counter(poly_table(cs, 1, H))
    total = _energy(*_fold_self(hist, stage="count_symmetric_eq"))
    r0 = _squares(hist)
    return SymmetricCount(total, r0, total - r0 * r0)


@functools.lru_cache(maxsize=None, typed=True)  # typed: a cached 2 never answers for 2.0 or True
def regime_constant(d: int, max_den: int = 10**6) -> Fraction:
    """Largest rational p/q (q <= max_den) whose box is Minkowski-guaranteed.

    The congruence pipeline uses the box with half-widths m/(100 d H^j); a
    nonzero lattice point is guaranteed whenever H <= c * m^(2/d(d+1)) with
    c at most the cutoff (100 d)^(-2/(d+1)).  Stern-Brocot walk with run
    acceleration; comparisons against the irrational cutoff are the exact
    integer test p^(d+1) (100 d)^2 <= q^(d+1), priced in operand bits
    against _POWER_BUDGET before the walk starts.
    """
    _whole("degree", d, 2)
    if max_den < 1:
        raise DomainError("denominator cap must be positive")
    b = max_den.bit_length()
    _charge("regime_constant", (d + 1) * b * math.isqrt(b), "operand bits", _POWER_BUDGET, "_POWER_BUDGET")

    def below(p: int, q: int) -> bool:
        return p ** (d + 1) * (100 * d) ** 2 <= q ** (d + 1)

    def run(ok, cap: int) -> int:
        """Largest j <= cap with ok(j), given ok(1): gallop, then bisect."""
        j = 1
        while j * 2 <= cap and ok(2 * j):
            j *= 2
        lo, hi = j, min(2 * j, cap)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if ok(mid):
                lo = mid
            else:
                hi = mid - 1
        return lo

    a, b = 0, 1  # lo <= cutoff
    x, y = 1, 1  # hi > cutoff
    while b + y <= max_den:
        if below(a + x, b + y):
            # mediants march up toward the cutoff; take the longest run
            j = run(lambda j: below(a + j * x, b + j * y), (max_den - b) // y)
            a, b = a + j * x, b + j * y
        else:
            j = run(lambda j: not below(j * a + x, j * b + y), (max_den - y) // b)
            x, y = j * a + x, j * b + y
    if a == 0:
        raise DomainError("denominator cap too small to approximate the cutoff")
    return Fraction(a, b)


def in_regime(d: int, modulus: int, H: int) -> bool:
    """Exact test of H <= c * modulus^(2/d(d+1)) for the chosen rational c."""
    c = regime_constant(d)
    s = d * (d + 1) // 2
    return H**s * c.denominator**s <= c.numerator**s * modulus


@dataclass(frozen=True)
class BVCertificate:
    """Independent recount of the solution family from its own geometry."""

    anchor: tuple[int, int]
    rank: int  # of the relative power-difference vectors
    vector: tuple[int, ...]  # small nullspace vector used for the recount
    pairing: int  # its value against the anchor's power differences
    family_size: int
    recount: int
    consistent: bool
    nullspace: Optional[NullspaceRecord]


@dataclass(frozen=True)
class PipelineCertificate:
    """Everything the constructive count produced on its way to the total."""

    monic: tuple[int, ...]  # unit-normalized coefficients
    shift_monic: int
    short_vector: tuple[int, ...]
    ell: int
    offset: int  # the single integer value the power differences must take
    reach: int  # largest achievable |sum b_j (n^j - m^j)|
    branch: str  # "empty" | "collision" | "divisor"
    solutions: tuple[tuple[int, int], ...]
    filtered: int  # integer-equation solutions rejected by the congruence
    bv: Optional[BVCertificate]


@dataclass(frozen=True)
class EqCountResult:
    """A counted congruence instance; methods must agree when both run."""

    count: int
    method: str  # "brute" | "pipeline"
    modulus: int
    H: int
    shift: int
    degree: int
    certificate: Optional[PipelineCertificate] = None
    declined: Optional[str] = None  # why the pipeline did not run

    def __post_init__(self) -> None:
        if self.method not in ("brute", "pipeline"):
            raise DomainError(f"unknown method {self.method!r}")


def _pow_diff(pair: tuple[int, int], d: int) -> tuple[int, ...]:
    n, m = pair
    return tuple(n**j - m**j for j in range(1, d + 1))


def _solves(f: PolyMod, shift: int, pair: tuple[int, int]) -> bool:
    """Whether f(n) = f(m) + shift (mod modulus) for the pair (n, m)."""
    n, m = pair
    return (int_poly_eval(f.coeffs, n) - int_poly_eval(f.coeffs, m) - shift) % f.modulus == 0


def _certify(family: list[tuple[int, int]], H: int, f: PolyMod, shift: int) -> BVCertificate:
    """Recount the family through a small vector in its own relation nullspace."""
    d = f.degree
    anchor = min(family)
    base = _pow_diff(anchor, d)
    relatives = [
        [a - b for a, b in zip(_pow_diff(p, d), base)] for p in family if p != anchor
    ]
    rows = _independent(relatives)
    d0 = len(rows)
    if d0 == 0:
        # every solution sits on one power-difference point; read the fiber
        return BVCertificate(anchor, 0, (), 0, len(family), len(family), True, None)
    record = bv_small_solutions(rows)
    vector = None
    pairing = 0
    for w in record.solutions:
        val = sum(c * b for c, b in zip(w, base))
        if val != 0:
            vector, pairing = w, val
            break
    if vector is None:
        raise DomainError("no nullspace vector pairs with the anchor")  # unreachable
    _, pairs = count_eq((0,) + tuple(vector), pairing, H, collect=True)
    kept = [p for p in pairs if _solves(f, shift, p)]
    consistent = kept == family
    return BVCertificate(anchor, d0, vector, pairing, len(family), len(kept), consistent, record)


def brute_congruence(f: PolyMod, shift: int, H: int, budget: int = BRUTE_BUDGET):
    """Reference count with solutions, from the join (`_join`) of f(1..H) with
    f(1..H) + shift mod m that count_eq's table route shares: only the tests'
    oracles are independent.

    H lies in [1, m], so that the interval injects into Z/m.  Priced in
    steps: the H values, refused before f is evaluated, then the solutions,
    which the join counts before it builds them in (x, y) order.
    """
    m = f.modulus
    _whole("H", H, 1)
    if H > m:
        raise DomainError("interval longer than the modulus")
    _charge("brute_congruence", H, "steps", budget, "budget")
    vals, s = poly_table(f.coeffs, 1, H, m), shift % m
    return _join("brute_congruence", vals, [(v + s) % m for v in vals], budget, "budget")


@functools.lru_cache(maxsize=None)
def _cube(d: int) -> WeightedBox:
    return WeightedBox((1,) * d)


def _pipeline(f: PolyMod, shift: int, H: int, certify: bool, brute_sols: tuple) -> PipelineCertificate:
    """The constructive count.  For the monic coefficients a (a_d = 1) the
    congruence lattice {l a + m Z^d} has the basis a, m e_1, ..., m e_{d-1},
    of determinant +-m^(d-1), built here in closed form.  In y_j = w_j b_j,
    w_j = 100 d H^j, the box |b_j| <= m / w_j is the cube |y_j| <= m, so _svp
    takes the basis with column j scaled by w_j, the cube and cap m, all in
    integers, and its least y gives b_j = y_j / w_j exactly: the vector that
    shortest_vector_in returns for the lattice and the box."""
    m = f.modulus
    d = f.degree
    u = inv_mod(f.coeffs[-1], m)
    monic = tuple(u * c % m for c in f.coeffs)
    lam = u * (shift % m) % m

    w = [100 * d * H**j for j in range(1, d + 1)]
    basis = [monic[1:]] + [[m * (i == j) for j in range(d)] for i in range(d - 1)]
    y = _svp([[x * wj for x, wj in zip(r, w)] for r in basis], _cube(d), m)
    if y is None:
        raise DomainError("no short relation found inside a certified box")  # unreachable
    b = tuple(yj // wj for yj, wj in zip(y, w))
    if b[-1] == 0:
        # b_d = ell mod m with |b_d| < m, so b_d = 0 would force b = 0
        raise DomainError("degenerate relation with zero leading entry")  # unreachable
    ell = b[-1] % m
    w0 = centered(ell * lam % m, m)
    reach = sum(abs(bj) * (H**j - 1) for j, bj in enumerate(b, start=1))
    if 2 * reach >= m:
        raise DomainError("relation too long to separate residues")  # unreachable in regime

    if w0 == 0:
        # ell * lam = 0 mod m: the relation carries no value information
        # (composite m only); fall back to the exact histogram count
        return PipelineCertificate(monic, lam, b, ell, 0, reach, "collision", brute_sols, 0, None)

    if abs(w0) > reach:
        return PipelineCertificate(monic, lam, b, ell, w0, reach, "empty", (), 0, None)

    _, pairs = count_eq((0,) + tuple(b), w0, H, collect=True)
    family = [p for p in pairs if _solves(f, shift, p)]
    filtered = len(pairs) - len(family)
    bv = _certify(family, H, f, shift) if certify and family else None
    return PipelineCertificate(monic, lam, b, ell, w0, reach, "divisor", tuple(family), filtered, bv)


def count_congruence(f: PolyMod, shift: int, H: int, certify: bool = True) -> EqCountResult:
    """Exact #{(n, m) in [1,H]^2 : f(n) = f(m) + shift (mod modulus)}.

    Brute force always runs.  Inside the regime H <= c * m^(2/d(d+1)) the
    constructive lattice-and-roots pipeline runs as well and the two counts
    must agree exactly; outside it the pipeline is declined, not faked.
    """
    m = f.modulus
    d = f.degree
    if d < 2:
        raise DomainError("degree must be >= 2 for the lattice step")
    if shift % m == 0:
        raise DomainError("shift must be nonzero mod m")
    if math.gcd(f.coeffs[-1], m) != 1:
        raise DomainError("leading coefficient must be a unit")

    brute_count, brute_sols = brute_congruence(f, shift, H)
    if not in_regime(d, m, H):
        c = regime_constant(d)
        return EqCountResult(
            brute_count, "brute", m, H, shift, d,
            declined=f"H = {H} exceeds {c} * m^(2/{d * (d + 1)}); lattice step not certified",
        )
    cert = _pipeline(f, shift, H, certify, brute_sols)
    if cert.solutions != brute_sols:
        raise DomainError(
            f"pipeline count {len(cert.solutions)} disagrees with brute force {brute_count}"
        )
    return EqCountResult(brute_count, "pipeline", m, H, shift, d, certificate=cert)
