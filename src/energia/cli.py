"""Command line front end.

Subcommands mirror the library: energy, vinogradov, lattice, eqcount,
charsum, verify.  Output is JSON on stdout (CSV for the sweep on request);
exact rationals are rendered as "p/q" strings and complex numbers as
{"re": .., "im": ..} objects.

Only `ring` is imported with this module: each handler imports its own
layer, so `energia energy ...` loads `ring` and `energy` and nothing else.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import pathlib
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import ring


_PLAIN = (int, str, float, type(None))


def json_ready(obj):
    # lists and tuples come first, and plain children are returned inline:
    # a large output is mostly long lists of ints
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _PLAIN else json_ready(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): v if type(v) in _PLAIN else json_ready(v) for k, v in obj.items()}
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(json_ready(payload)) + "\n")


def _fractions(text: str) -> tuple[Fraction, ...]:
    return tuple(ring.to_fraction(part) for part in text.split(","))


def _require(args, *names: str) -> None:
    """DomainError naming every flag among names that was not given."""
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise ring.DomainError(f"{args.command} {args.action} needs {' and '.join(missing)}")


def _body_from_args(args):
    """The norm body --box or --cross names, as a `lattice.Body`."""
    from . import lattice

    if getattr(args, "box", None) is not None:
        return lattice.WeightedBox(_fractions(args.box))
    if getattr(args, "cross", None) is not None:
        return lattice.DualBody(_fractions(args.cross))
    raise ring.DomainError("pass --box or --cross to choose the norm body")


def _matrix(text: str) -> list[list[int]]:
    return [list(ring.ints_from_string(row)) for row in text.split(";")]


# ---------------------------------------------------------------------------
# handlers


def _cmd_energy(args) -> int:
    from . import energy

    f = ring.poly_from_string(args.poly, args.modulus)
    iv = ring.Interval(args.H)
    if args.what == "report":
        _emit(energy.energy_report(f, iv))
    elif args.what == "T":
        _emit({"T": energy.energy_T(f, iv)})
    elif args.what == "plus":
        _emit({"energy_plus": energy.energy_plus(f, iv)})
    elif args.what == "times":
        _emit({"energy_times": energy.energy_times(f, iv)})
    else:
        _emit({"sumset": energy.sumset_size(f, iv)})
    return 0


def _cmd_vinogradov(args) -> int:
    from . import vinogradov

    budget = vinogradov.DEFAULT_BUDGET if args.budget is None else args.budget
    if args.slope is not None:
        hs = ring.ints_from_string(args.slope)
        rec = vinogradov.check_J_bound(args.d, H_values=hs, budget=budget)
        _emit(rec)
        return 0
    if args.s is None:
        raise ring.DomainError("--s is required unless --slope is used")
    if args.shifts is not None:
        if args.H is None:
            raise ring.DomainError("--shifts needs --H")
        shifts = ring.ints_from_string(args.shifts)
        n = vinogradov.count_I(args.d, args.s, args.H, shifts, budget=budget)
        _emit(vinogradov.SystemCount("I", args.d, args.s, n, H=args.H))
        return 0
    if args.poly is not None:
        if args.modulus is None or args.H is None:
            raise ring.DomainError("--poly needs --modulus and --H")
        f = ring.poly_from_string(args.poly, args.modulus)
        n = vinogradov.count_Ts(f, ring.Interval(args.H), args.s, budget=budget)
        _emit(vinogradov.SystemCount("Ts", args.d, args.s, n, H=args.H))
        return 0
    if args.set is not None:
        elements = ring.ints_from_string(args.set)
    elif args.H is not None:
        elements = tuple(range(1, args.H + 1))
    else:
        raise ring.DomainError("pass --H or --set")
    n = vinogradov.count_J(args.d, args.s, elements, budget=budget)
    _emit(vinogradov.SystemCount("J", args.d, args.s, n, set_size=len(set(elements))))
    return 0


def _cmd_lattice(args) -> int:
    from . import lattice

    if args.action == "bv":
        _require(args, "matrix")
        _emit(lattice.bv_small_solutions(_matrix(args.matrix)))
        return 0
    if args.action == "measure":
        _require(args, "matrix", "eps")
        _emit(lattice.fractional_measure(
            _matrix(args.matrix), _fractions(args.eps), samples=args.samples, seed=args.seed,
        ))
        return 0
    _require(args, "basis")
    lat = lattice.lattice_from_string(args.basis, args.den)
    if args.action == "dual":
        dual = lattice.dual_lattice(lat)
        _emit({"basis": [list(r) for r in dual.basis], "den": dual.den})
        return 0
    body = _body_from_args(args)
    if args.action == "minima":
        _emit(lattice.successive_minima(lat, body))
    elif args.action == "minkowski":
        _emit(lattice.minkowski_check(lat, body))
    elif args.action == "count":
        _emit(lattice.point_count_record(lat, body))
    elif args.action == "transfer":
        _emit(lattice.transference_check(lat, body))
    else:  # mahler; argparse's choices admit no other action
        queries = [_fractions(q) for q in args.query or []]
        _emit(lattice.mahler_basis(lat, body, queries))
    return 0


def _cmd_eqcount(args) -> int:
    from . import eqcount

    if args.action in ("eq", "sym"):
        _require(args, "coeffs", "H")
    elif args.action == "constant":
        _require(args, "d")
    elif args.action == "cong":
        _require(args, "poly", "modulus", "H")
    if args.action == "eq":
        count, sols = eqcount.count_eq(ring.ints_from_string(args.coeffs), args.target, args.H, collect=True)
        _emit({"count": count, "solutions": [list(s) for s in sols]})
    elif args.action == "sym":
        _emit(eqcount.count_symmetric_eq(ring.ints_from_string(args.coeffs), args.H))
    elif args.action == "constant":
        _emit({"d": args.d, "constant": eqcount.regime_constant(args.d, args.max_den)})
    else:  # cong
        f = ring.poly_from_string(args.poly, args.modulus)
        _emit(eqcount.count_congruence(f, args.shift, args.H, certify=not args.no_certify))
    return 0


def _cmd_charsum(args) -> int:
    from . import charsum

    if args.action == "region":
        _require(args, "zeta", "xi", "d")
        params = charsum.RegimeParams(args.zeta, args.xi, args.d, 1 if args.r is None else args.r)
        _emit(charsum.admissible_exponents(params))
        return 0
    if args.action == "bound":
        _require(args, "S", "H", "p", "E", "r")
        _emit(charsum.bilinear_energy_bound(args.S, args.H, args.p, args.E, args.r))
        return 0
    needs = {"weil": ("coeffs",), "bilinear": ("H",), "primes": ("poly", "Q", "R")}
    _require(args, "p", *needs.get(args.action, ()))
    table = charsum.CharTable.build(args.p, args.k)
    if args.action == "weil":
        _emit(charsum.complete_sum_poly(table, ring.poly_from_string(args.coeffs, args.p)))
    elif args.action == "bilinear":
        if args.set is not None:
            residues = ring.ints_from_string(args.set)
        elif args.S is not None:
            # uniform prices the range before building it; len() of a range
            # stops at sys.maxsize, so a larger S is cut there, still refused
            residues = range(1, min(args.S, sys.maxsize - 1) + 1)
        else:
            raise ring.DomainError("pass --set or --S for the residue side")
        inst = charsum.BilinearInstance.uniform(residues, args.H)
        _emit(charsum.bilinear_W(table, inst))
    else:  # primes
        f = ring.poly_from_string(args.poly, args.p)
        _emit(charsum.prime_bilinear_sum(table, f, args.Q, args.R))
    return 0


def _cmd_verify(args) -> int:
    from . import sweep

    try:
        cfg = sweep.SweepConfig() if args.config is None else sweep.parse_config(pathlib.Path(args.config).read_text("utf-8"))
        # opened before the sweep, so a bad path is refused before any work
        out = contextlib.nullcontext(sys.stdout) if args.out is None else open(args.out, "w", encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ring.DomainError(f"cannot use a verify file: {exc}") from exc
    if args.seed is not None:
        # one knob feeds every cell RNG
        cfg = dataclasses.replace(cfg, master=str(args.seed))
    with out as stream:
        report = sweep.run_sweep(cfg, workers=args.workers)
        if args.emit == "csv":
            sweep.write_csv(report, stream)
        else:
            json.dump(json_ready(report), stream, indent=2)
            stream.write("\n")
    summary = {
        "cells": len(report.cells),
        "hard_failures": report.hard_failures,
        "max_c_fourth": report.max_c_fourth,
        "ok": report.ok,
    }
    print(json.dumps(summary), file=sys.stderr)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# the parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="energia",
        description="Exact additive-energy computations for polynomial images over residue rings.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("energy", help="interval energies, rep functions, sumsets")
    pe.add_argument("--modulus", type=int, required=True)
    pe.add_argument("--poly", required=True, help="coefficients a_0,a_1,..., e.g. '0,0,1' for X^2")
    pe.add_argument("--H", type=int, required=True)
    pe.add_argument("--what", choices=["report", "T", "plus", "times", "sumset"], default="report")
    pe.set_defaults(func=_cmd_energy)

    pv = sub.add_parser("vinogradov", help="power-sum system counts")
    pv.add_argument("--d", type=int, required=True)
    pv.add_argument("--s", type=int)
    pv.add_argument("--H", type=int)
    pv.add_argument("--set", help="explicit elements, comma separated")
    pv.add_argument("--shifts", help="inhomogeneous shift vector, comma separated")
    pv.add_argument("--poly", help="with --modulus: s-fold energy of the reduced image")
    pv.add_argument("--modulus", type=int)
    pv.add_argument("--slope", help="H list for the critical-exponent ratio record")
    pv.add_argument("--budget", type=int, help="hash insertions allowed; default vinogradov.DEFAULT_BUDGET")
    pv.set_defaults(func=_cmd_vinogradov)

    pl = sub.add_parser("lattice", help="exact geometry of numbers")
    pl.add_argument("action", choices=["minima", "minkowski", "dual", "mahler", "count", "transfer", "bv", "measure"])
    pl.add_argument("--basis", help="rows '1,1;0,5'")
    pl.add_argument("--den", type=int, default=1)
    pl.add_argument("--box", help="half-widths, e.g. '1,1/2'")
    pl.add_argument("--cross", help="cross-polytope coefficients")
    pl.add_argument("--matrix", help="for bv/measure: rows '1,2;3,4'")
    pl.add_argument("--eps", help="for measure: bounds '1/4,1/4'")
    pl.add_argument("--samples", type=int, default=100_000)
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--query", action="append", help="mahler: expand this lattice vector")
    pl.set_defaults(func=_cmd_lattice)

    pq = sub.add_parser("eqcount", help="exact equation and congruence counts over boxes")
    pq.add_argument("action", choices=["eq", "sym", "cong", "constant"])
    pq.add_argument("--coeffs", help="integer coefficients a_0,a_1,...")
    pq.add_argument("--target", type=int, default=0)
    pq.add_argument("--H", type=int)
    pq.add_argument("--d", type=int)
    pq.add_argument("--max-den", type=int, default=10**6)
    pq.add_argument("--modulus", type=int)
    pq.add_argument("--poly")
    pq.add_argument("--shift", type=int, default=0)
    pq.add_argument("--no-certify", action="store_true")
    pq.set_defaults(func=_cmd_eqcount)

    pc = sub.add_parser("charsum", help="multiplicative character sums mod p")
    pc.add_argument("action", choices=["weil", "bilinear", "primes", "bound", "region"])
    pc.add_argument("--p", type=int)
    pc.add_argument("--k", type=int, help="character exponent index; default quadratic")
    pc.add_argument("--coeffs")
    pc.add_argument("--poly", help="for primes: the polynomial applied to the q side")
    pc.add_argument("--set", help="bilinear: explicit residue set, comma separated")
    pc.add_argument("--S", type=int)
    pc.add_argument("--H", type=int)
    pc.add_argument("--Q", type=int)
    pc.add_argument("--R", type=int)
    pc.add_argument("--E", type=int)
    pc.add_argument("--r", type=int)
    pc.add_argument("--d", type=int)
    pc.add_argument("--zeta")
    pc.add_argument("--xi")
    pc.set_defaults(func=_cmd_charsum)

    pw = sub.add_parser("verify", help="run the deterministic identity sweep")
    pw.add_argument("--config", help="key = values file; defaults to the built-in grid")
    pw.add_argument("--emit", choices=["json", "csv"], default="json")
    pw.add_argument("--out", help="write the report here instead of stdout")
    pw.add_argument("--seed", type=int, help="replace the master seed string with this value")
    pw.add_argument("--workers", type=int, default=1, help="cells run concurrently when > 1")
    pw.set_defaults(func=_cmd_verify)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ring.DomainError, ring.BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
