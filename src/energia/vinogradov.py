"""Exact solution counts for systems of power-sum equations.

count_J(d, s, X) counts 2s-tuples (x_1..x_s, y_1..y_s) from X with
sum x_i^j = sum y_i^j for every j = 1..d.  Each power-sum vector
(v_1..v_d) is packed into the single integer sum v_j * radix^(j-1); the
packing is linear and injective on every vector compared.  J is the sum of
the squared fibres of the histogram of s-tuple vectors: each multiset of s
elements once with its orderings or, where that costs more (the sums of
d = 1 collide), s layers of ordered tuples (`_fold`); count_Ts folds the
value histogram mod m in layers, a one-key one c^(2s) in closed form.  The
n^s tuples are charged against `budget` up front, and each fold against
FOLD_BUDGET under the caller's stage name before it runs (the multisets as
the ordered last layer).  The naive 2s-fold loop lives in the test suite.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Iterator, Optional, Sequence

from .bounds import _slope
from .energy import _afford, _fold, _fold_rows, _squares
from .ring import DomainError, Interval, PolyMod, _charge, int_poly_eval, poly_values

DEFAULT_BUDGET = 10**8  # hash insertions, size^s for s folds over size keys
# bits of the H + 1 vectors count_I packs, each d * radix.bit_length(); under
# 1 s, the worst being H = 1, where Horner takes d steps on keys that long
_KEY_BUDGET = 4 * 10**5


@dataclass(frozen=True)
class PowerSumVector:
    """(sum x_i, sum x_i^2, ..., sum x_i^d) for one tuple, as exact integers."""

    d: int
    components: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.d < 1 or len(self.components) != self.d:
            raise DomainError("need one component per power 1..d")

    @classmethod
    def of(cls, d: int, xs: Sequence[int]) -> "PowerSumVector":
        return cls(d, tuple(sum(x**j for x in xs) for j in range(1, d + 1)))

    def in_range(self, s: int, H: int) -> bool:
        """Attainability check: |component_j| <= s * H^j for s summands from [1,H]."""
        return all(abs(c) <= s * H**j for j, c in enumerate(self.components, start=1))


@dataclass(frozen=True)
class SystemCount:
    """One counted instance of a power-sum system, for reports and the CLI."""

    kind: str  # "J" | "I" | "Ts"
    d: int
    s: int
    count: int
    H: Optional[int] = None
    set_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise DomainError("count must be nonnegative")
        if self.kind == "J" and self.set_size is not None and self.count < self.set_size**self.s:
            # diagonal tuples alone contribute (#X)^s
            raise DomainError("count below the diagonal floor")


def _check_ds(d: int, s: int) -> None:
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise DomainError(f"d must be an integer >= 1, got {d!r}")
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
        raise DomainError(f"s must be an integer >= 1, got {s!r}")


def _tuples(size: int, s: int, budget: int) -> int:
    """size^s hash insertions, s capped at max(64, budget bits): over the budget iff size^s is."""
    return size ** min(s, max(64, budget.bit_length()))


def _by_multisets(n: int, s: int, spans: Sequence[int]) -> bool:
    """The plan: whether the C(n + s - 1, s) multisets of s of n keys cost no more than the layers,
    layer k holding min(C(n + k - 1, k), prod_j (k span_j + 1)) keys at most, n pair steps each."""
    multisets = math.comb(n + s - 1, s)
    layers = (n * min(math.comb(n + k - 1, k), math.prod(k * w + 1 for w in spans)) for k in range(s))
    return any(steps >= multisets for steps in accumulate(layers))


def _multiset_rows(s: int, singles: Sequence[int]) -> Iterator[tuple]:
    """Each multiset of s of the singles once, as `_merge` batches (sums, orderings), one a row.

    layers[k] holds the sums of the k-multisets of the singles so far and their k!/prod m_i!
    orderings; m copies of the next single v add m v and multiply the orderings by C(k + m, m).
    Larger layers go first, so none takes v twice.  A batch reads its layer's orderings
    uncopied, even lazily: it is merged before the layer grows, and a layer only grows at its end."""
    layers = {0: ([0], [1])}
    for i, v in enumerate(singles, 1 - len(singles)):  # i = 0 at the last single: only complete
        for k, (keys, counts) in sorted(layers.items(), reverse=True):
            for m in range(s - k if i == 0 else 1, s - k + 1):
                if k + m == s:
                    mv, c = m * v, math.comb(s, m)
                    yield [mv + y for y in keys], counts if c == 1 else map(mul, counts, repeat(c))
                else:
                    ks, cs = layers.setdefault(k + m, ([], []))
                    ks.extend(map((m * v).__add__, keys))
                    cs.extend(map(math.comb(k + m, m).__mul__, counts))


def _power_sum_histogram(d: int, s: int, elements: Sequence[int], stage: str = "count_J") -> tuple[Counter, int]:
    """Histogram of packed power-sum vectors over ordered s-tuples, and the radix.

    Each component of a difference of two such vectors, or of one vector
    minus an attainable shift, is at most spread = 2 s max|x|^d in absolute
    value, so packing with radix 2 * spread + 1 (balanced digits) is
    injective on everything compared.
    """
    radix = 4 * s * max(abs(x) for x in elements) ** d + 1
    powers = [[x**j for j in range(1, d + 1)] for x in elements]
    singles = [int_poly_eval(p, radix) for p in powers]
    if _by_multisets(n := len(singles), s, [max(c) - min(c) for c in zip(*powers)]):
        _afford(stage, n, math.comb(n + s - 2, s - 1))  # the ordered fold's last layer: same refusals
        return _fold_rows(_multiset_rows(s, singles), math.comb(n + s - 1, s), stage), radix
    hist, single = Counter({0: 1}), Counter(singles)
    for _ in range(s):  # ordered tuples, so no symmetry factor
        hist = _fold(hist, single, stage=stage)
    return hist, radix


def count_J(d: int, s: int, elements: Sequence[int], budget: int = DEFAULT_BUDGET) -> int:
    """J_{d,s}(X): diagonal count of the d-equation, 2s-variable power-sum system.

    Only the first min(d, s) equations are folded: by Newton-Girard the power
    sums 1..s of an s-tuple fix its multiset, so they imply every higher one.
    """
    _check_ds(d, s)
    xs = sorted(set(int(x) for x in elements))
    if not xs:
        raise DomainError("X must be nonempty")
    _charge("count_J", _tuples(len(xs), s, budget), "hash insertions", budget, "budget")
    return _squares(_power_sum_histogram(min(d, s), s, xs)[0])


def count_I(
    d: int,
    s: int,
    H: int,
    shifts: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Inhomogeneous count: sum x_i^j - sum y_i^j = shifts[j-1] over {1..H}^{2s}.

    shifts = (0,...,0) reproduces count_J on {1..H} exactly.
    """
    _check_ds(d, s)
    if H < 1:
        raise DomainError(f"H must be >= 1, got {H}")
    lam = tuple(int(v) for v in shifts)
    if len(lam) != d:
        raise DomainError(f"need {d} shift components, got {len(lam)}")
    _charge("count_I", _tuples(H, s, budget), "hash insertions", budget, "budget")
    # radix = 4 s H^d + 1 has at most (4s).bit_length() + d (H - 1).bit_length() bits
    key_bits = d * ((4 * s).bit_length() + d * (H - 1).bit_length())
    _charge("count_I", (H + 1) * key_bits, "key bits", _KEY_BUDGET, "_KEY_BUDGET")
    for j, v in enumerate(lam, start=1):
        if abs(v) > s * H**j:
            raise DomainError(
                f"|shift_{j}| = {abs(v)} exceeds the attainable range s*H^{j} = {s * H**j}"
            )
    hist, radix = _power_sum_histogram(d, s, range(1, H + 1), "count_I")
    shift = int_poly_eval(lam, radix)
    return sum(c * hist.get(k - shift, 0) for k, c in hist.items())


def count_Ts(f: PolyMod, interval: Interval, s: int, budget: int = DEFAULT_BUDGET) -> int:
    """T_s = #{2s-tuples in I^{2s} : sum f(x_i) = sum f(y_i) mod m}; s=2 is energy_T."""
    _check_ds(1, s)
    _charge("count_Ts", _tuples(interval.H, s, budget), "hash insertions", budget, "budget")
    hist = Counter(poly_values(f, interval))
    if len(hist) == 1:  # s folds of one key c times leave one key c^s times
        return next(iter(hist.values())) ** (2 * s)
    layer: Counter[int] = Counter({0: 1})
    for _ in range(s):
        layer = _fold(layer, hist, f.modulus, "count_Ts")
    return _squares(layer)


@dataclass(frozen=True)
class JBoundEntry:
    H: Optional[int]
    set_size: int
    J: int
    ratio: Fraction  # J / (#X)^s


@dataclass(frozen=True)
class JBoundRecord:
    d: int
    s: int
    entries: tuple[JBoundEntry, ...]
    slope: Optional[float]  # fitted log-log slope of the ratio across the H sweep


def check_J_bound(
    d: int,
    elements: Optional[Sequence[int]] = None,
    H_values: Optional[Sequence[int]] = None,
    budget: int = DEFAULT_BUDGET,
) -> JBoundRecord:
    """Ratio record J/(#X)^s at the critical s = d(d+1)/2, optionally over an H sweep."""
    _check_ds(d, 1)
    s = d * (d + 1) // 2
    entries: list[JBoundEntry] = []
    if elements is not None:
        xs = sorted(set(int(x) for x in elements))
        j = count_J(d, s, xs, budget)
        entries.append(JBoundEntry(None, len(xs), j, Fraction(j, len(xs) ** s)))
    sweep: list[JBoundEntry] = []
    if H_values:
        for h in H_values:
            if h < 1:
                raise DomainError(f"H must be >= 1, got {h}")
            j = count_J(d, s, range(1, h + 1), budget)
            sweep.append(JBoundEntry(h, h, j, Fraction(j, h**s)))
        entries.extend(sweep)
    if not entries:
        raise DomainError("need a set X or an H sweep")
    pts = [(math.log(e.H), math.log(e.ratio)) for e in sweep if e.H and e.H > 1]
    return JBoundRecord(d, s, tuple(entries), _slope(pts))
