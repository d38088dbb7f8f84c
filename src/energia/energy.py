"""Additive and multiplicative energies of polynomial images over Z/m.

Every count here is read off one primitive, `_fold`: the weighted additive
convolution {x + y: sum a[x] * b[y]} of two integer histograms, over Z/m or
over Z.  A representation function is the fold of the value histogram with
itself (or with its negation), an energy is the sum of its squared fibres
and a sumset size is its number of fibres.  A self-fold (`_fold_self`)
takes each unordered pair once, and `_energy` reads the energy off that
half fold and the diagonal.  `vinogradov` and `eqcount` use the same folds.
`additive_stats` reads T, the image-set energy and the sumset off one
self-fold of the image set plus a small correction fold of the collisions.

The fold has two backends, and one plan, `_afford`, picks one and charges
it before any work; `_fold` and `_fold_self` run it on the pairs they visit.
The sparse backend builds the keys x + y of a block of rows of about
_BATCH pairs in one flat comprehension and adds them, weighted by
a[x] * b[y], into a Counter over Z with one C call a batch, so no fold
holds more than a batch of pairs; mod m each row splits where x + y
reaches m and hands the keys past it as y - m (`_rows`).  The dense
backend, used mod m once the pairs (for a self-fold, the unordered ones)
outnumber `_crossover(m)`, is Kronecker substitution: each histogram
becomes one integer whose w-byte slot x holds the count at x, with w wide
enough for min(sum(a) max(b), max(a) sum(b)); one big-integer product is
the linear convolution, and adding its high half to its low half wraps it
mod m.  No slot can carry into the next, since every fibre of the fold,
wrapped or not, is at most that bound.

For a prime p the multiplicative energy is an additive one: a -> log_g a
maps the nonzero residues onto Z/(p - 1), so the nonzero products ab = cd
are the quadruples of logs with equal sums mod p - 1, and a set holding 0
adds the (2|A| - 1)^2 quadruples with ab = cd = 0.  `set_energy_times`
folds the logs when that beats its product loop, which composite moduli
always keep.

The plan charges sparse pair steps, a dense fold the pair count it breaks
even with, under the caller's stage name against FOLD_BUDGET.  Entry points
given f and an interval price H by H values before evaluating f (`_values`).

Every identity used downstream (mass H^2, the Cauchy-Schwarz
chain H^4 <= sumset*T) is checked in exact integer arithmetic.
Quadruple-loop versions exist only in the test suite as oracles.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from collections import Counter, _count_elements
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .ring import (
    TABLE_BUDGET,
    DomainError,
    Interval,
    PolyMod,
    _charge,
    _dlog_table,
    _whole,
    is_probable_prime,
    poly_values,
)

PAIR_SUM = "pair-sum"
PAIR_DIFFERENCE = "pair-difference"
FOLD_BUDGET = 10**7  # sparse pair steps per fold; a dense fold counts as its break-even pair count
_BATCH = 2**16  # pairs per sparse batch (`_rows`), each counted by one C call


@dataclass
class RepFunction:
    """Counts of pair sums (or differences) of f over {1..H}, by residue."""

    modulus: int
    mode: str
    counts: dict[int, int]

    def mass(self) -> int:
        return sum(self.counts.values())

    def __getitem__(self, residue: int) -> int:
        return self.counts.get(residue % self.modulus, 0)


@dataclass(frozen=True)
class EnergyReport:
    """All interval-energy statistics of one (f, I) instance."""

    modulus: int
    H: int
    T: int
    energy_plus: int
    energy_times: int
    sumset_size: int
    K: Fraction  # H^3 / T, the exact sumset-growth exponent certificate

    def __post_init__(self) -> None:
        if self.K <= 0:
            raise DomainError("K must be positive")
        if self.energy_plus > self.T:
            # the image-set energy only drops quadruples relative to T
            raise DomainError("energy_plus exceeds T")


def _crossover(m: int) -> int:
    """The pair count at which one dense fold mod m costs as much as the sparse one.

    Measured: about m pairs up to m ~ 3000, then m^1.5 / 40, as the
    big-integer product (Karatsuba) outgrows its linear packing.  A self-fold
    of n keys (n(n+1)/2 sparse pairs) breaks even at 0.4-0.8 of this count
    for m from 1e3 to 1e4 and 1-1.5 of it from 3e4 to 1e5 (1- and 2-byte slots).
    """
    return m * max(1, math.isqrt(m) // 40)


def _dense(pairs: int, m: int) -> bool:
    """Whether one dense fold mod m costs less than `pairs` sparse pair steps."""
    return pairs > _crossover(m)


def _afford(stage: str, na: int, nb: int, m: Optional[int] = None) -> bool:
    """The fold plan: charge na * nb pairs (mod m) against FOLD_BUDGET; whether it runs dense.

    The cost is in sparse pair steps on the backend that runs: na * nb
    pairs, or, for a dense fold, the pair count it breaks even with.
    """
    pairs = na * nb
    _charge(stage, pairs if m is None else min(pairs, _crossover(m)), "pair steps", FOLD_BUDGET, "FOLD_BUDGET")
    return m is not None and _dense(pairs, m)


def _values(stage: str, f: PolyMod, interval: Interval) -> list[int]:
    """[f(1), ..., f(H)] mod m, once the worst fold they can feed, H by H values, is affordable."""
    _afford(stage, interval.H, interval.H, f.modulus)
    return poly_values(f, interval)


# memoryview formats of native unsigned slots; widths between them are
# restrided into the next one, wider ones (and all, on a big-endian host,
# where native slots are not little-endian) are read slot by slot
_SLOTS = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}


def _restride(buf: bytes, a: int, b: int) -> bytes:
    """The low min(a, b) bytes of each a-byte slot, in b-byte slots."""
    if a == b:
        return buf
    out = bytearray(len(buf) // a * b)
    for j in range(min(a, b)):
        out[j::b] = buf[j::a]
    return out


def _pack(h: Mapping[int, int], m: int, w: int, wide: Optional[int]) -> int:
    """The integer whose w-byte little-endian slot x holds h[x], x in [0, m)."""
    if wide is None:
        buf = bytearray(m * w)
        for x, c in h.items():
            buf[x * w : x * w + w] = c.to_bytes(w, "little")
        return int.from_bytes(buf, "little")
    buf = bytearray(m * wide)
    slots = memoryview(buf).cast(_SLOTS[wide])
    for x, c in h.items():
        slots[x] = c
    return int.from_bytes(_restride(buf, wide, w), "little")


def _fold_dense(a: Mapping[int, int], b: Mapping[int, int], m: int) -> Counter:
    """`_fold` mod m by one big-integer product (Kronecker substitution)."""
    top = min(sum(a.values()) * max(b.values()), max(a.values()) * sum(b.values()))
    w = (top.bit_length() + 7) // 8  # every fibre, wrapped or not, is at most top
    wide = next((k for k in _SLOTS if k >= w), None)
    pa = _pack(a, m, w, wide)
    prod = pa * pa if a is b else pa * _pack(b, m, w, wide)
    bits = 8 * m * w
    raw = ((prod & ((1 << bits) - 1)) + (prod >> bits)).to_bytes(m * w, "little")
    if wide is None:
        counts = [int.from_bytes(raw[i : i + w], "little") for i in range(0, m * w, w)]
    else:
        counts = memoryview(_restride(raw, w, wide)).cast(_SLOTS[wide])
    return Counter(dict(zip(compress(range(m), counts), filter(None, counts))))


def _rows(a: Mapping[int, int], b: Mapping[int, int], m: Optional[int], half: bool) -> Iterator[tuple]:
    """The `_merge` batches (keys, weights) of `_fold(a, b, m)`; with half (a is b), of each unordered pair once.

    A batch holds the pairs of a block of rows x of a, in order, about
    _BATCH pairs or one row; a row holds b's keys y, sorted once (with half,
    the keys y >= x only).  Mod m the keys lie in [0, m), and a row hands its
    keys from the first y >= m - x on as y - m, so x + y is the residue.  A
    batch's keys come from one flat comprehension; its weights a[x] b[y] are
    None if all are 1, else one flat list.
    """
    ks = sorted(b)
    n = len(ks)
    xs = ks if half else list(a)
    lows = ks if m is None else [k - m for k in ks]
    cs = cxs = None
    if any(c != 1 for c in b.values()) or not half and any(c != 1 for c in a.values()):
        cs = [b[k] for k in ks]
        cxs = cs if half else [a[x] for x in xs]
    ends = list(accumulate(range(n, 0, -1) if half else repeat(n, len(xs))))  # the pairs through each row
    r0 = done = 0
    while r0 < len(xs):
        r1 = max(r0 + 1, bisect_right(ends, done + _BATCH, r0))
        los = range(r0, r1) if half else (0,) * (r1 - r0)
        if m is None:
            keys = [x + y for lo, x in zip(los, xs[r0:r1]) for y in ks[lo:]]
        else:
            keys = [x + y for lo, x in zip(los, xs[r0:r1]) for hi in (bisect_left(ks, m - x, lo),) for y in ks[lo:hi] + lows[hi:]]
        yield keys, None if cs is None else [cx * cy for lo, cx in zip(los, cxs[r0:r1]) for cy in cs[lo:]]
        r0, done = r1, ends[r1 - 1]


def _merge(batches: Iterable[tuple]) -> Counter:
    """The sum over Z of the batches (keys, weights), each {key: weight}; weights None means all 1.

    A batch at a time, at C speed: a unit batch is counted by
    `_count_elements`, the helper Counter.update calls on a non-mapping; else
    one dict.update of (key, old + weight) pairs, exact though a batch
    repeats keys: dict.update stores each pair before it draws the next, and
    with it the next lazy get.
    """
    out: Counter[int] = Counter()
    for keys, weights in batches:
        if weights is None:
            _count_elements(out, keys)
        else:
            dict.update(out, zip(keys, map(add, map(out.get, keys, repeat(0)), weights)))
    return out


def _fold(a: Mapping[int, int], b: Mapping[int, int], m: Optional[int] = None, stage: str = "fold") -> Counter:
    """{x + y: sum of a[x] * b[y]} mod m (over Z if m is None), once `_afford` plans its |a| |b| pairs.

    Mod m the counts must be positive and the keys lie in [0, m): the sparse
    backend (`_rows`) wraps each row once, at m.
    """
    if _afford(stage, len(a), len(b), m):
        return _fold_dense(a, b, m)
    if len(a) > len(b):
        a, b = b, a  # the longer histogram runs in the inner loop
    return _merge(_rows(a, b, m, False))


def _fold_rows(batches: Iterable[tuple], pairs: int, stage: str = "fold") -> Counter:
    """`_merge` of batches over Z that hold `pairs` pairs, once `_afford` charges them."""
    _afford(stage, pairs, 1)
    return _merge(batches)


def _fold_self(h: Mapping[int, int], m: Optional[int] = None, stage: str = "fold") -> tuple[Counter, Counter, int]:
    """S = `_fold(h, h, m)` as (V, D, c), S = c V - D; its n(n+1)/2 pairs are planned and charged.

    The sparse backend takes each unordered pair {x, y} of keys once (`_rows`)
    into V = {x + y: h[x] h[y]}; with the diagonal D = {2x: h[x]^2}, one
    `_merge` batch (2x = 2x' can collide mod an even m, and `_merge` adds
    repeated keys), S = 2V - D, which has V's support.  The dense backend
    returns S itself.  Mod m the keys must lie in [0, m), as for `_fold`.
    """
    n = len(h)
    if _afford(stage, n * (n + 1) // 2, 1, m):
        return _fold_dense(h, h, m), Counter(), 1
    v = _merge(_rows(h, h, m, True))
    cs = h.values()
    keys = [2 * x for x in h] if m is None else [2 * x % m for x in h]
    return v, _merge([(keys, None if set(cs) == {1} else map(mul, cs, cs))]), 2


def _energy(v: Mapping[int, int], d: Mapping[int, int], c: int) -> int:
    """Sum of S[k]^2 for S = c V - D: c^2 sum V^2 - sum_k D[k] (2c V[k] - D[k])."""
    return c * c * _squares(v) - sum(dk * (2 * c * v[k] - dk) for k, dk in d.items())


def _squares(counts: Mapping[int, int]) -> int:
    """Sum of squared fibres of a histogram: the energy of the fold it came from."""
    return sum(c * c for c in counts.values())


def set_energy_plus(points: Iterable[int], modulus: int) -> int:
    """Additive energy of a set of residues: quadruples with a + b = c + d mod m."""
    _whole("modulus", modulus, 2)
    pts = Counter({p % modulus for p in points})
    return _energy(*_fold_self(pts, modulus, "set_energy_plus"))


def set_energy_times(points: Iterable[int], modulus: int) -> int:
    """Multiplicative energy of a set of residues: quadruples with ab = cd mod m.

    For a prime modulus and enough points, folds the discrete logs instead
    of looping over products (see the module docstring).
    """
    _whole("modulus", modulus, 2)
    pts = sorted({p % modulus for p in points})
    if (
        _dense(len(pts) ** 2, modulus)
        and modulus <= TABLE_BUDGET
        and is_probable_prime(modulus)
    ):
        nonzero = len(pts) - (pts[0] == 0)  # their logs are distinct: price the fold before the table
        _afford("set_energy_times", nonzero * (nonzero + 1) // 2, 1, modulus - 1)
        dlog = _dlog_table(modulus)[1]
        logs = Counter(dlog[a] for a in pts if a)
        zero = (2 * len(pts) - 1) ** 2 if pts[0] == 0 else 0
        return _energy(*_fold_self(logs, modulus - 1, "set_energy_times")) + zero
    _afford("set_energy_times", len(pts), len(pts))  # the product loop
    half: Counter[int] = Counter()  # the products ab over unordered pairs a <= b
    for i, a in enumerate(pts):
        half.update([(a * b) % modulus for b in pts[i:]])
    return _energy(half, Counter(a * a % modulus for a in pts), 2)


def rep_function(f: PolyMod, interval: Interval, mode: str = PAIR_SUM) -> RepFunction:
    """R(lambda) = #{(x, y) in I^2 : f(x) +- f(y) = lambda mod m}.

    Total mass is H^2 by construction.
    """
    m = f.modulus
    hist = Counter(_values("rep_function", f, interval))
    if mode == PAIR_SUM:
        other = hist
    elif mode == PAIR_DIFFERENCE:
        other = Counter({(-v) % m: c for v, c in hist.items()})
    else:
        raise DomainError(f"mode must be {PAIR_SUM!r} or {PAIR_DIFFERENCE!r}, got {mode!r}")
    return RepFunction(m, mode, dict(_fold(hist, other, m, "rep_function")))


def energy_T(f: PolyMod, interval: Interval) -> int:
    """T = #{(x,y,z,w) in I^4 : f(x)+f(y) = f(z)+f(w) mod m} = sum_lambda R(lambda)^2."""
    hist = Counter(_values("energy_T", f, interval))
    return _energy(*_fold_self(hist, f.modulus, "energy_T"))


def additive_stats(values: Sequence[int], modulus: int) -> tuple[int, int, int]:
    """(T, energy_plus, sumset_size) of the values f(1), ..., f(H) mod m.

    One self-fold of the image set A does all three.  S = 1_A * 1_A gives the
    set energy (its squared fibres) and the sumset (its support).  The value
    histogram h differs from 1_A by the collision excess X = h - 1_A, so
    h * h = S + C with C = X * (h + 1_A), and T = sum (S + C)^2 =
    E+ + 2 sum_k C[k] S[k] + sum_k C[k]^2, S = c V - D read at the keys of C.
    C costs |X| |A| pairs, and none at all when no two values collide.
    """
    _whole("modulus", modulus, 2)
    hist = Counter(x % modulus for x in values)
    v, d, c = _fold_self(dict.fromkeys(hist, 1), modulus, "additive_stats")
    ep = _energy(v, d, c)
    excess = {x: n - 1 for x, n in hist.items() if n > 1}
    t = ep
    if excess:
        corr = _fold(excess, {x: n + 1 for x, n in hist.items()}, modulus, "additive_stats")
        # sum_k C[k] (2 S[k] + C[k]) by C iterators; C lives on A + A = supp V
        cv = sum(map(mul, corr.values(), map(v.__getitem__, corr)))
        cd = sum(map(mul, d.values(), map(corr.get, d, repeat(0))))
        t += 2 * (c * cv - cd) + _squares(corr)
    return t, ep, len(v)


def energy_plus(f: PolyMod, interval: Interval) -> int:
    """Additive energy of the image SET f({1..H}) (deduplicated)."""
    return set_energy_plus(_values("energy_plus", f, interval), f.modulus)


def energy_times(f: PolyMod, interval: Interval) -> int:
    """Multiplicative energy of the image SET f({1..H}) (deduplicated)."""
    return set_energy_times(_values("energy_times", f, interval), f.modulus)


def energy_cross(a_points: Iterable[int], b_points: Iterable[int], modulus: int) -> int:
    """E(A, B) = #{(a, a', b, b') in A^2 x B^2 : a + b = a' + b' mod m}."""
    _whole("modulus", modulus, 2)
    aa = Counter({p % modulus for p in a_points})
    bb = Counter({p % modulus for p in b_points})
    return _squares(_fold(aa, bb, modulus, "energy_cross"))


def sumset_size(f: PolyMod, interval: Interval) -> int:
    """#(f(I) + f(I)) inside Z/m."""
    pts = dict.fromkeys(_values("sumset_size", f, interval), 1)
    return len(_fold_self(pts, f.modulus, "sumset_size")[0])


def energy_report(f: PolyMod, interval: Interval) -> EnergyReport:
    """Compute every statistic from one evaluation of f; K = H^3/T is exact."""
    vals = _values("energy_report", f, interval)
    t, ep, ss = additive_stats(vals, f.modulus)
    h = interval.H
    return EnergyReport(
        modulus=f.modulus,
        H=h,
        T=t,
        energy_plus=ep,
        energy_times=set_energy_times(vals, f.modulus),
        sumset_size=ss,
        K=Fraction(h**3, t),
    )
