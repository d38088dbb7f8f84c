"""The benchmark's workloads: seeded inputs, library calls and checks.

Each workload is a fixed list of instances that one pass runs one after the
other: a closed loop with a single caller.  The inputs come only from the
workload seed.  Every library call goes through a module attribute at call
time (``E.energy.energy_report``), so that the tracer's rebinding sees it.

``make`` builds a workload's inputs, ``run`` executes one timed pass, and
``finish`` checks the outputs and renders the text that the digest hashes;
``finish`` runs outside the timed region.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import time
from fractions import Fraction

DEFAULT_SEED = 0

def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _prime_at_least(E, n: int) -> int:
    q = n | 1
    while not E.ring.is_probable_prime(q):
        q += 2
    return q


def _horner(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _interleave(rng: random.Random, inst: list) -> list:
    """The instances in a seeded order, each CharTable before the sums that use it.

    Instances of one size are then spread over the pass rather than run
    back to back, so one slow spell on shared hardware cannot hold back all
    of them and move a percentile of their best times.
    """
    tables = [x for x in inst if x[0] == "chartable"]
    rest = [x for x in inst if x[0] != "chartable"]
    rng.shuffle(rest)
    return tables + rest


class Failure:
    """The output of an instance that raised."""

    def __init__(self, exc: Exception) -> None:
        self.text = f"{type(exc).__name__}: {exc}"


class ListWorkload:
    """A workload whose instances are (kind, args) pairs run through RUNNERS."""

    def run(self, E, instances, mark):
        """Time each instance; returns (wall, latencies, outputs)."""
        clock = time.perf_counter
        state: dict = {}
        lat: list[float] = []
        outs: list = []
        t_pass = clock()
        for i, (kind, args) in enumerate(instances):
            mark(i)
            t0 = clock()
            try:
                out = RUNNERS[kind](E, args, state)
            except Exception as exc:  # a raising instance is a failed instance
                out = Failure(exc)
            lat.append(clock() - t0)
            outs.append(out)
        mark(None)
        return clock() - t_pass, lat, outs

    def finish(self, instances, outs, canon):
        """Per-instance check results, and the text the digest hashes."""
        oks: list[bool] = []
        lines: list[str] = []
        for (kind, args), out in zip(instances, outs):
            if isinstance(out, Failure):
                oks.append(False)
                lines.append(json.dumps(["error", kind, out.text]))
                continue
            oks.append(bool(CHECKS[kind](args, out)))
            lines.append(json.dumps([kind, canon(out)], sort_keys=True))
        return oks, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sweep-default


class SweepDefault:
    name = "sweep-default"

    def make(self, E, seed: int):
        # seed 0 is `energia verify` with no --seed; seed N is `--seed N`
        if seed == DEFAULT_SEED:
            return E.sweep.SweepConfig()
        return E.sweep.SweepConfig(master=str(seed))

    def run(self, E, cfg, mark):
        clock = time.perf_counter
        lat: list[float] = []
        inner = E.sweep.run_cell

        def timed_cell(*args, **kwargs):
            mark(len(lat))
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                lat.append(clock() - t0)

        E.sweep.run_cell = timed_cell
        try:
            t_pass = clock()
            report = E.sweep.run_sweep(cfg, workers=1)
            text = json.dumps(E.cli.json_ready(report), indent=2) + "\n"
            wall = clock() - t_pass
        finally:
            E.sweep.run_cell = inner
            mark(None)
        return wall, lat, (report, text)

    def finish(self, cfg, raw, canon):
        report, text = raw
        return [report.ok and not c.hard_failure for c in report.cells], text


# ---------------------------------------------------------------------------
# dense-folds


class DenseFolds(ListWorkload):
    name = "dense-folds"
    # H^2 >= m everywhere; the smallest modulus runs up to H = m/2
    # No instance takes much more than 0.2 s, so that a pass is short and a
    # run holds many: each instance's best time then comes from a moment
    # when the shared CPU ran at speed.
    ENERGY = {1000: (32, 64, 128, 256, 500), 2000: (45, 90, 180, 360),
              4000: (64, 128, 256), 10000: (100, 200, 400)}
    TS = {1000: (32, 48, 64), 2000: (45, 67, 90), 4000: (64, 96, 128), 10000: (100,)}
    # d = 2, critical s = 3.  Equal sizes cost about the same, and so many of
    # them that the median instance is one of these: instance_p50_ms then
    # does not hinge on which instances a seed makes a little cheaper.
    J2_SIZES = (30,) * 36
    # d = 3, critical s = 6.  The ten of size 12 are, with the sums and the
    # largest count_Ts, the costliest instances: instance_p90_ms falls among
    # instances of about the same cost.
    J3_SIZES = tuple(range(3, 11)) + (12,) * 10
    CHAR_PRIMES = (100_000, 110_000, 120_000)

    def make(self, E, seed: int):
        rng = _rng(self.name, seed)
        P, Iv = E.ring.PolyMod, E.ring.Interval
        # the moduli, and with them what each instance costs, do not depend on
        # the seed; the seed picks the polynomials and the sets
        moduli = {b: _prime_at_least(E, b) for b in self.ENERGY}

        def poly(d, m):
            return P(tuple(rng.randrange(m) for _ in range(d)) + (1 + rng.randrange(m - 1),), m)

        inst = []
        for b, hs in self.ENERGY.items():
            for H in hs:
                for d in (2, 3):
                    inst.append(("energy", (poly(d, moduli[b]), Iv(H))))
        for b, hs in self.TS.items():
            for k, H in enumerate(hs):
                inst.append(("Ts", (poly(2 + k % 2, moduli[b]), Iv(H), 3)))
        for k in self.J2_SIZES:
            inst.append(("J", (2, 3, tuple(rng.sample(range(1, 400), k)))))
        for k in self.J3_SIZES:
            inst.append(("J", (3, 6, tuple(rng.sample(range(1, 100), k)))))
        for b in self.CHAR_PRIMES:
            p = _prime_at_least(E, b)
            inst.append(("chartable", (p,)))
            inst.append(("charsum", (p, poly(3, p))))
        return _interleave(rng, inst)


def _run_energy(E, args, state):
    return E.energy.energy_report(*args)


def _check_energy(args, r):
    f, iv = args
    H = iv.H
    sandwich = not _is_prime(f.modulus) or r.T <= f.degree**4 * r.energy_plus
    return (H * H <= r.T <= H**3 and H**4 <= r.sumset_size * r.T
            and r.energy_plus <= r.T and r.K == Fraction(H**3, r.T) and sandwich)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


def _run_Ts(E, args, state):
    return E.vinogradov.count_Ts(*args)


def _check_Ts(args, t):
    H, s = args[1].H, args[2]
    return H**s <= t <= H ** (2 * s - 1)


def _run_J(E, args, state):
    return E.vinogradov.count_J(*args)


def _check_J(args, j):
    _, s, xs = args
    k = len(set(xs))
    return k**s <= j <= k ** (2 * s - 1)


def _run_chartable(E, args, state):
    (p,) = args
    table = E.charsum.CharTable.build(p)
    state[p] = table
    return table


def _check_chartable(args, t):
    (p,) = args
    return sorted(t.dlog[1:]) == list(range(p - 1)) and t.dlog[t.generator] == 1


def _run_charsum(E, args, state):
    p, f = args
    return E.charsum.complete_sum_poly(state[p], f)


def _check_charsum(args, r):
    return r.within_bound is not False


# ---------------------------------------------------------------------------
# congruence


class Congruence(ListWorkload):
    name = "congruence"
    D2_BASES = (10**5, 3 * 10**5, 10**6, 3 * 10**6, 10**7, 3 * 10**7)
    D2_PER_BASE = 12
    # The few instances that take most of a pass do not depend on the seed,
    # so that the seed moves only the many small ones and wall_s stays put.
    # None takes much more than 0.2 s: on shared hardware the speed drifts
    # within a second, and a short instance's best time over the passes
    # comes from a moment when the CPU ran at speed.
    README_MODULI = (10**6, 2 * 10**6, 3 * 10**6)  # f = X^2 + 3X + 5, shift 3, H = 2
    D3_COUNT = 40
    EQ_COUNT = 60
    BIG_TARGETS = (10**12, 2 * 10**12, 3 * 10**12)

    def make(self, E, seed: int):
        rng = _rng(self.name, seed)
        P = E.ring.PolyMod
        inst = []
        for base in self.D2_BASES:
            m = _prime_at_least(E, base + rng.randrange(base // 10))
            h_max = 1
            while E.eqcount.in_regime(2, m, h_max + 1):
                h_max += 1
            for k in range(self.D2_PER_BASE):
                f = P((rng.randrange(m), rng.randrange(m), 1 + rng.randrange(m - 1)), m)
                inst.append(("cong", (f, self._shift(rng, f, h_max, k % 3 != 2), h_max)))
        for base in self.README_MODULI:
            inst.append(("cong", (P((5, 3, 1), base), 3, 2)))
        c3 = E.eqcount.regime_constant(3)
        base3 = math.ceil((2 / float(c3)) ** 6) + 1
        for k in range(self.D3_COUNT):
            m = _prime_at_least(E, base3 + rng.randrange(10**6))
            f = P((rng.randrange(m), rng.randrange(m), rng.randrange(m), 1), m)
            inst.append(("cong", (f, self._shift(rng, f, 2, k % 3 != 2), 2)))
        for k in range(self.EQ_COUNT):  # criterion 08's integer equations
            # degree, H and the kind of target follow k; the seed picks the rest
            d = 2 + k % 3
            coeffs = tuple(rng.randint(-50, 50) for _ in range(d)) + (rng.choice((-3, -2, -1, 1, 2, 3)),)
            H = 1 + (k // 3) * 199 // (self.EQ_COUNT // 3 - 1)
            if k % 5 < 3:
                target = _horner(coeffs, rng.randint(1, H)) - _horner(coeffs, rng.randint(1, H))
            else:
                target = rng.randint(-200, 200)
            inst.append(("eq", (coeffs, target, H)))
        for size in self.BIG_TARGETS:
            # n^2 - m^2 = p: count_eq factors p, then p - 1 once per shift +-1.
            # A safe prime p = 2q + 1 fixes what that trial division costs.
            q = _prime_at_least(E, size // 2)
            while not E.ring.is_probable_prime(2 * q + 1):
                q = _prime_at_least(E, q + 2)
            inst.append(("eq", ((0, 0, 1), 2 * q + 1, 50)))
        return _interleave(rng, inst)

    @staticmethod
    def _shift(rng, f, H, attained):
        m = f.modulus
        shift = 0
        if attained:  # a shift that some pair attains
            while shift % m == 0:
                shift = (f(rng.randint(1, H)) - f(rng.randint(1, H)) + rng.choice((0, 1))) % m
        else:
            shift = rng.randint(1, m - 1)
        return shift


def _run_cong(E, args, state):
    return E.eqcount.count_congruence(*args, certify=True)


def _check_cong(args, r):
    f, shift, H = args
    m, cs = f.modulus, f.coeffs
    cert = r.certificate
    if r.method != "pipeline" or cert is None or r.count != len(cert.solutions):
        return False
    if cert.bv is not None and not cert.bv.consistent:
        return False
    return all(1 <= n <= H and 1 <= k <= H and (_horner(cs, n) - _horner(cs, k) - shift) % m == 0
               for n, k in cert.solutions)


def _run_eq(E, args, state):
    return E.eqcount.count_eq(*args, collect=True)


def _check_eq(args, out):
    coeffs, target, H = args
    count, sols = out
    return count == len(sols) and all(
        1 <= n <= H and 1 <= k <= H and _horner(coeffs, n) - _horner(coeffs, k) == target
        for n, k in sols)


RUNNERS = {
    "energy": _run_energy, "Ts": _run_Ts, "J": _run_J,
    "chartable": _run_chartable, "charsum": _run_charsum,
    "cong": _run_cong, "eq": _run_eq,
}
CHECKS = {
    "energy": _check_energy, "Ts": _check_Ts, "J": _check_J,
    "chartable": _check_chartable, "charsum": _check_charsum,
    "cong": _check_cong, "eq": _check_eq,
}

WORKLOADS = {w.name: w for w in (SweepDefault(), DenseFolds(), Congruence())}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
