"""Exact arithmetic over residue rings: polynomials mod m, intervals, primes, factoring.

Everything here runs on plain Python integers, so values like power sums up
to H^d never lose precision.  The polynomial coefficient convention is
ascending: coeffs[j] multiplies X**j, and the string form "0,0,1" is X**2.

One primitive, `poly_table`, tabulates a polynomial over a run of
consecutive integers (Horner on a short run, else forward differences summed
in C); every table of f over an interval goes through it, and `eval_poly`
and `int_poly_eval` stay for single points.

The discrete-log table mod a prime (`_dlog_table`, over
`smallest_primitive_root`, at most TABLE_BUDGET entries) lives here too:
`charsum` builds its characters on it and `energy` folds the logs for a
multiplicative energy, and neither has to import the other for it.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import sub
from typing import Iterator, Optional, Sequence, Union


class DomainError(ValueError):
    """An argument violates an operation's domain contract."""


class BudgetExceeded(RuntimeError):
    """An exact computation would exceed its configured cost budget."""


FACTOR_BUDGET = 10**5  # trial-division steps, each trying two divisors 6k +- 1
TABLE_BUDGET = 10**6  # entries of a discrete-log table


def _charge(stage: str, units: int, unit: str, budget: int, name: str) -> None:
    """BudgetExceeded when a stage needs more units of work than its budget.

    Every budget of the package is charged here, and every refusal reads
    "stage: units unit exceed the budget (name = budget)".  A number past 64
    bits is shown by its bit length, "at least 2^k", so no message writes
    out an integer too long for str().
    """
    if units > budget:
        u, b = (str(n) if n.bit_length() <= 64 else f"at least 2^{n.bit_length() - 1}" for n in (units, budget))
        raise BudgetExceeded(f"{stage}: {u} {unit} exceed the budget ({name} = {b})")


@dataclass(frozen=True)
class PolyMod:
    """A polynomial over Z/m of degree >= 1.

    Coefficients are reduced into [0, m) on construction and the leading
    coefficient must not vanish mod m.  Whether gcd(a_d, m) == 1 is a
    separate predicate (`leading_is_unit`), not an invariant: several
    operations are meaningful without it.
    """

    coeffs: tuple[int, ...]
    modulus: int

    def __post_init__(self) -> None:
        m = self.modulus
        if not isinstance(m, int) or m < 2:
            raise DomainError(f"modulus must be an integer >= 2, got {m!r}")
        cs = tuple(int(c) % m for c in self.coeffs)
        if len(cs) < 2:
            raise DomainError("degree must be >= 1 (need at least two coefficients)")
        if cs[-1] == 0:
            raise DomainError("leading coefficient vanishes mod m")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading_is_unit(self) -> bool:
        return math.gcd(self.coeffs[-1], self.modulus) == 1

    def __call__(self, x: int) -> int:
        return eval_poly(self, x)


@dataclass(frozen=True)
class Interval:
    """The integer range {1, ..., H}."""

    H: int

    def __post_init__(self) -> None:
        if not isinstance(self.H, int) or self.H < 1:
            raise DomainError(f"interval length must be an integer >= 1, got {self.H!r}")

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, self.H + 1))

    def __len__(self) -> int:
        return self.H


@dataclass(frozen=True)
class Factorization:
    """value = sign * prod(p**e), primes strictly increasing."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value == 0:
            raise DomainError("zero has no factorization")
        prod = 1
        for p, e in self.factors:
            prod *= p**e
        if prod != abs(self.value):
            raise DomainError("factor list does not multiply back to |value|")
        primes = [p for p, _ in self.factors]
        if primes != sorted(set(primes)):
            raise DomainError("primes must be strictly increasing")


def eval_poly(f: PolyMod, x: int) -> int:
    """f(x) reduced into [0, m), by one reduction of the exact integer value."""
    return int_poly_eval(f.coeffs, x) % f.modulus


def image_set(f: PolyMod, interval: Interval) -> set[int]:
    """{f(x) mod m : x in {1..H}}; requires H <= m so the domain injects into Z/m."""
    return set(poly_values(f, interval))


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i in range(2, n + 1) if sieve[i]]


def factorize(w: int) -> Factorization:
    """Trial-division factorization of w != 0 (2, 3, then a 6k+-1 wheel).

    Raises BudgetExceeded after FACTOR_BUDGET wheel steps, so every |w| below
    (6 FACTOR_BUDGET)^2 ~ 3.6e11 factors, and so does any w whose cofactor
    after its small primes is prime or 1 by then.
    """
    if w == 0:
        raise DomainError("cannot factor 0")
    n = abs(w)
    factors: list[tuple[int, int]] = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
    p = 5
    while p * p <= n:
        if p > 6 * FACTOR_BUDGET:
            _charge("factorize", p // 6 + 1, "trial-division steps", FACTOR_BUDGET, "FACTOR_BUDGET")
        for q in (p, p + 2):
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            if e:
                factors.append((q, e))
        p += 6
    if n > 1:
        factors.append((n, 1))
    factors.sort()
    return Factorization(w, tuple(factors))


def centered(x: int, m: int) -> int:
    """The representative of x mod m in (-m/2, m/2]."""
    r = x % m
    if 2 * r > m:
        r -= m
    return r


def inv_mod(a: int, m: int) -> int:
    """Inverse of a mod m; DomainError when gcd(a, m) != 1."""
    try:
        return pow(a, -1, m)
    except ValueError as exc:
        raise DomainError(f"{a} is not invertible mod {m}") from exc


# psi_k (OEIS A014233), the least strong pseudoprime to each of the first k
# prime bases, for k = 1..7, 9, 12, 13 (psi_8 = psi_7, psi_10 = psi_11 =
# psi_9): below psi_k Miller-Rabin to those k bases decides primality exactly
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
        3825123056546413051, 318665857834031151167461, 3317044064679887385961981)
_PSI_BASES = (1, 2, 3, 4, 5, 6, 7, 9, 12, 13, 13)  # the k below _PSI[i]; 13 from psi_13 on


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters, n odd > 2.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4; with n + 1 = k 2^s, n passes when U_k = 0 or
    V_{k 2^r} = 0 mod n for some r < s (Baillie and Wagstaff 1980).
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D would ever have (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False  # D shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1

    def half(x: int) -> int:  # x / 2 mod n
        return (x + n if x % 2 else x) // 2 % n

    U, V, Qk = 1, 1, Q % n  # index 1
    for bit in bin(k)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n  # index doubled
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n  # index + 1
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the first k prime bases, exact below psi_k, k <= 13 (psi_13 ~ 3.3e24).

    k is the least of 1..7, 9, 12 with n < psi_k.  From psi_13 on, all 13
    bases up to 41 are tested and a strong Lucas test is added, which makes
    it the Baillie-PSW test: no composite is known to pass it.
    """
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small[: _PSI_BASES[bisect_right(_PSI, n)]]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI[-1] or _strong_lucas(n)


def smallest_primitive_root(p: int) -> int:
    if not is_probable_prime(p):
        raise DomainError(f"{p} is not prime")
    if p == 2:
        return 1
    qs = [q for q, _ in factorize(p - 1).factors]
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
        g += 1


def _dlog_table(p: int) -> tuple[int, list[int]]:
    """(g, table) with table[g^a mod p] = a for the smallest primitive root g.

    table[0] = -1.  Refuses p above TABLE_BUDGET before allocating.
    """
    _charge("a discrete-log table", p, "entries", TABLE_BUDGET, "TABLE_BUDGET")
    g = smallest_primitive_root(p)
    table = [-1] * p
    val = 1
    for a in range(p - 1):
        table[val] = a
        val = val * g % p
    return g, table


def poly_from_string(text: str, modulus: int) -> PolyMod:
    """Parse an ascending comma-separated coefficient list, e.g. "0,0,1" for X^2."""
    return PolyMod(ints_from_string(text), modulus)


def ints_from_string(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer list."""
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"bad integer list {text!r}") from exc


RatLike = Union[int, str, Fraction]


def to_fraction(x: RatLike) -> Fraction:
    """Exact coercion to a Fraction.

    Floats are refused to protect rational certificates; malformed strings
    and zero denominators are refused too, all with DomainError.
    """
    if isinstance(x, float):
        raise DomainError(f"refusing inexact float {x!r}; pass a Fraction or 'p/q' string")
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad rational {x!r}") from exc


def check_interval_fits(f: PolyMod, interval: Interval) -> None:
    if interval.H > f.modulus:
        raise DomainError(
            f"interval length {interval.H} exceeds modulus {f.modulus}; "
            "the domain must inject into Z/m"
        )


def poly_table(coeffs: Sequence[int], start: int, n: int, m: Optional[int] = None) -> list[int]:
    """[f(start), ..., f(start + n - 1)] for integer f (ascending coefficients),
    each reduced into [0, m) unless m is None.

    Size rule: Horner alone (reduced mod m at every step) when n <= 8 (d + 1),
    where the difference table would cost more than it saves.  Otherwise
    Horner gives f at the first d + 1 points; the leading column of their
    difference table (each row reduced mod m) and d nested running sums in C
    rebuild the rest exactly, since the d-th difference is constant, and one
    pass of `% m` reduces them.  The cost stays within n (d + 1) Horner steps
    plus d (d + 1) / 2 subtractions and n d additions in C; with m given, no
    difference is taken of unreduced values, which grow with d log n.
    """
    d = len(coeffs) - 1
    short = n <= 8 * (d + 1)
    head = []
    for x in range(start, start + (n if short else d + 1)):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c if m is None else (acc * x + c) % m
        head.append(acc)
    if short:
        return head
    lead = []
    row = head
    while row:
        lead.append(row[0])
        row = list(map(sub, row[1:], row))
        if m is not None:
            row = list(map(m.__rmod__, row))
    vals = repeat(lead[d], n - d)
    for k in range(d - 1, -1, -1):
        vals = accumulate(vals, initial=lead[k])
    return list(vals) if m is None else list(map(m.__rmod__, vals))


def poly_values(f: PolyMod, interval: Interval) -> list[int]:
    """[f(1), ..., f(H)] reduced mod m, with the H <= m domain check."""
    check_interval_fits(f, interval)
    return poly_table(f.coeffs, 1, interval.H, f.modulus)


def int_poly_eval(coeffs: Sequence[int], x: int) -> int:
    """Horner evaluation of an integer polynomial (ascending coefficients)."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
