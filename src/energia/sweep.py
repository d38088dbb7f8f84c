"""Deterministic verification sweep over random monic polynomials.

Every cell recomputes the exact interval energy of a seeded random polynomial
and checks the identities that must hold with no constants attached: the
Cauchy-Schwarz link between energy and sumset size, and (for prime moduli)
the multiplicity sandwich between the multiset and image-set energies.
Growth exponents against the fourth-moment bound are measured as log-log
slopes per (degree, modulus) pair, and the slack constant of each cell
against sqrt(H) times the fourth-moment bound is recorded.  Same config and
master seed, same report, byte for byte.
"""
from __future__ import annotations

import csv
import math
import os
import random
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, TextIO

from .bounds import _slope, fourth_moment_bound, fourth_moment_crossover, interval_energy_bound
from .energy import _values, additive_stats
from .ring import BudgetExceeded, DomainError, Interval, PolyMod, _whole, is_probable_prime

@dataclass(frozen=True)
class SweepConfig:
    degrees: tuple[int, ...] = (2, 3)
    moduli: tuple[int, ...] = (1009, 10007, 100003, 1000003)
    lengths: tuple[int, ...] = (4, 6, 8, 10, 16, 24, 32, 48, 64, 96, 128, 192, 256)
    seeds: tuple[int, ...] = (0, 1, 2)
    master: str = "energia"

    def __post_init__(self) -> None:
        for name in ("degrees", "moduli", "lengths", "seeds"):
            vals = tuple(int(v) for v in getattr(self, name))
            if not vals:
                raise DomainError(f"{name} must be nonempty")
            object.__setattr__(self, name, vals)
        if any(d < 2 for d in self.degrees):
            raise DomainError("degrees must be >= 2")
        if any(m < 2 for m in self.moduli):
            raise DomainError("moduli must be >= 2")
        if any(h < 1 for h in self.lengths):
            raise DomainError("lengths must be >= 1")


_KEY_ALIASES = {
    "d": "degrees", "degrees": "degrees",
    "m": "moduli", "moduli": "moduli",
    "h": "lengths", "lengths": "lengths",
    "seeds": "seeds", "seed": "seeds",
    "master": "master",
}


def parse_config(text: str) -> SweepConfig:
    """key = comma-separated values, one per line, # comments allowed."""
    fields: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"line {lineno}: expected key = values, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key not in _KEY_ALIASES:
            raise DomainError(f"line {lineno}: unknown key {key!r}")
        canon = _KEY_ALIASES[key]
        if canon == "master":
            fields[canon] = val.strip()
        else:
            try:
                fields[canon] = tuple(int(v.strip()) for v in val.split(",") if v.strip())
            except ValueError as exc:
                raise DomainError(f"line {lineno}: {exc}") from None
    return SweepConfig(**fields)


@dataclass(frozen=True)
class CellResult:
    d: int
    m: int
    H: int
    seed: int
    coeffs: tuple[int, ...] = ()
    T: int = 0
    energy_plus: int = 0
    sumset: int = 0
    K: Optional[Fraction] = None
    cs_ok: Optional[bool] = None
    sandwich_ok: Optional[bool] = None  # None when m is composite
    bound_energy: float = 0.0
    bound_fourth: float = 0.0
    ratio_energy: float = 0.0  # T / bound_energy
    ratio_fourth: float = 0.0  # T / bound_fourth
    c_fourth: float = 0.0  # T / (sqrt(H) * bound_fourth), the tracked slack constant
    error: Optional[str] = None

    @property
    def hard_failure(self) -> bool:
        return self.error is not None or self.cs_ok is False or self.sandwich_ok is False


CSV_COLUMNS = [f.name for f in fields(CellResult)]


@dataclass(frozen=True)
class SlopeRecord:
    d: int
    m: int
    slope_all: Optional[float]
    slope_small: Optional[float]  # restricted to H below the crossover
    points_all: int
    points_small: int


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    cells: tuple[CellResult, ...]
    slopes: tuple[SlopeRecord, ...]
    hard_failures: int
    max_c_fourth: float  # empirical constant over the whole grid

    @property
    def ok(self) -> bool:
        return self.hard_failures == 0


def _random_poly(d: int, m: int, rng: random.Random) -> PolyMod:
    # monic so the image genuinely has degree-d spread
    coeffs = [rng.randrange(m) for _ in range(d)] + [1]
    return PolyMod(tuple(coeffs), m)


def run_cell(
    d: int, m: int, H: int, seed: int, master: str = "energia",
    f: Optional[PolyMod] = None,
) -> CellResult:
    """One grid cell: exact energies, exact checks, bound ratios.

    Passing f pins the polynomial instead of drawing it from the cell seed.
    """
    _whole("degree", d, 2)
    _whole("modulus", m, 2)
    if f is None:
        rng = random.Random(f"{master}:{d}:{m}:{H}:{seed}")
        f = _random_poly(d, m, rng)
    elif f.degree != d or f.modulus != m:
        raise DomainError("pinned polynomial does not match the cell's (d, m)")
    t_val, ep, ss = additive_stats(_values("run_cell", f, Interval(H)), m)
    k_val = Fraction(H**3, t_val)
    cs_ok = H**4 <= ss * t_val
    sandwich: Optional[bool] = None
    if is_probable_prime(m):
        sandwich = ep <= t_val <= d**4 * ep
    be = interval_energy_bound(d, m, H).value
    bf = fourth_moment_bound(d, m, H)
    return CellResult(
        d, m, H, seed, f.coeffs, t_val, ep, ss, k_val, cs_ok, sandwich,
        be, bf, t_val / be, t_val / bf, t_val / (math.sqrt(H) * bf),
    )


def _cell_job(args: tuple[int, int, int, int, str]) -> CellResult:
    # containment lives here so failures travel back as rows, not exceptions;
    # an input the library refuses refuses the whole sweep
    d, m, H, seed, master = args
    try:
        return run_cell(d, m, H, seed, master)
    except (DomainError, BudgetExceeded):
        raise
    except Exception as exc:
        return CellResult(d, m, H, seed, error=f"{type(exc).__name__}: {exc}")


def run_sweep(config: Optional[SweepConfig] = None, workers: int = 1) -> SweepReport:
    """Run the whole grid in at most min(workers, cells, CPUs) processes; rows come in grid order."""
    cfg = config or SweepConfig()
    jobs = [
        (d, m, H, seed, cfg.master)
        for d in cfg.degrees
        for m in cfg.moduli
        for H in cfg.lengths
        if H <= m
        for seed in cfg.seeds
    ]
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_cell_job, jobs, chunksize=4))
    else:
        cells = [_cell_job(j) for j in jobs]
    slopes: list[SlopeRecord] = []
    for d in cfg.degrees:
        for m in cfg.moduli:
            group = [c for c in cells if c.d == d and c.m == m and c.error is None]
            by_h: dict[int, list[int]] = {}
            for c in group:
                by_h.setdefault(c.H, []).append(c.T)
            pts = {
                H: (math.log(H), math.log(statistics.fmean(ts)))
                for H, ts in sorted(by_h.items())
                if H > 1
            }
            cross = fourth_moment_crossover(d, m)
            small = [pt for H, pt in pts.items() if H <= cross]
            slopes.append(SlopeRecord(d, m, _slope(list(pts.values())), _slope(small), len(pts), len(small)))
    failures = sum(1 for c in cells if c.hard_failure)
    max_c = max((c.c_fourth for c in cells if c.error is None), default=0.0)
    return SweepReport(cfg, tuple(cells), tuple(slopes), failures, max_c)


def _csv_field(v: object) -> object:
    """A tuple space-joined, a Fraction as p/q, a float to 6 digits, None empty."""
    if isinstance(v, tuple):
        return " ".join(map(str, v))
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return f"{v:.6g}"
    return "" if v is None else v


def write_csv(report: SweepReport, stream: TextIO) -> None:
    """One row per cell, one column per CellResult field."""
    writer = csv.writer(stream)
    writer.writerow(CSV_COLUMNS)
    for c in report.cells:
        writer.writerow([_csv_field(getattr(c, k)) for k in CSV_COLUMNS])
