"""Tests for the deterministic verification sweep."""
import hashlib
import io
import json
from fractions import Fraction

import pytest

from energia import cli, sweep
from energia.cli import json_ready
from energia.energy import energy_plus, energy_T, sumset_size
from energia.ring import BudgetExceeded, DomainError, Interval, PolyMod, image_set
from energia.sweep import (
    CSV_COLUMNS,
    CellResult,
    SweepConfig,
    SweepReport,
    parse_config,
    run_cell,
    run_sweep,
    write_csv,
)

import oracles

SMALL = SweepConfig(degrees=(2,), moduli=(7, 101), lengths=(2, 3, 5), seeds=(0, 1), master="t")


def test_parse_config_roundtrip():
    text = """
    # grid for a quick check
    d = 2
    m = 7, 11
    h = 2,3
    seeds = 0
    master = abc
    """
    cfg = parse_config(text)
    assert cfg == SweepConfig((2,), (7, 11), (2, 3), (0,), "abc")


def test_parse_config_aliases():
    cfg = parse_config("degrees=2,3\nmoduli=11\nlengths=4\nseed=1,2")
    assert cfg.degrees == (2, 3)
    assert cfg.moduli == (11,)
    assert cfg.lengths == (4,)
    assert cfg.seeds == (1, 2)
    assert cfg.master == "energia"  # default survives


def test_parse_config_errors():
    with pytest.raises(DomainError):
        parse_config("frobnicate = 3")
    with pytest.raises(DomainError):
        parse_config("just a line without equals")
    with pytest.raises(DomainError):
        parse_config("d = two")
    with pytest.raises(DomainError):
        parse_config("d = ")  # empty value list


def test_config_validation():
    with pytest.raises(DomainError):
        SweepConfig(degrees=(1,))
    with pytest.raises(DomainError):
        SweepConfig(moduli=(1,))
    with pytest.raises(DomainError):
        SweepConfig(lengths=(0,))
    with pytest.raises(DomainError):
        SweepConfig(seeds=())


def test_run_cell_pinned_square():
    cell = run_cell(2, 7, 3, 0, f=PolyMod((0, 0, 1), 7))
    assert cell.T == 15
    assert cell.energy_plus == 15
    assert cell.sumset == 6
    assert cell.K == Fraction(27, 15)
    assert cell.cs_ok is True  # 81 <= 6 * 15
    assert cell.sandwich_ok is True
    assert cell.error is None
    assert not cell.hard_failure


def test_run_cell_pinned_mismatch():
    with pytest.raises(DomainError):
        run_cell(3, 7, 3, 0, f=PolyMod((0, 0, 1), 7))
    with pytest.raises(DomainError):
        run_cell(2, 11, 3, 0, f=PolyMod((0, 0, 1), 7))


def test_run_cell_seeded_shape_and_determinism():
    a = run_cell(2, 101, 5, 1, master="x")
    b = run_cell(2, 101, 5, 1, master="x")
    assert a == b
    assert len(a.coeffs) == 3 and a.coeffs[-1] == 1  # monic
    assert all(0 <= c < 101 for c in a.coeffs)
    assert a.c_fourth == pytest.approx(a.T / (5**0.5 * a.bound_fourth))
    assert a.ratio_fourth == pytest.approx(a.T / a.bound_fourth)


def test_run_sweep_grid_order_and_checks():
    report = run_sweep(SMALL)
    keys = [(c.d, c.m, c.H, c.seed) for c in report.cells]
    want = [
        (2, m, H, s)
        for m in (7, 101)
        for H in (2, 3, 5)
        for s in (0, 1)
    ]
    assert keys == want
    assert report.hard_failures == 0
    assert report.ok
    assert all(c.error is None for c in report.cells)
    # both moduli here are prime, so the sandwich is always evaluated
    assert all(c.sandwich_ok is True for c in report.cells)
    assert report.max_c_fourth == max(c.c_fourth for c in report.cells)
    assert report.max_c_fourth > 0


def test_run_sweep_skips_lengths_beyond_modulus():
    cfg = SweepConfig(degrees=(2,), moduli=(3,), lengths=(2, 5), seeds=(0,))
    report = run_sweep(cfg)
    assert [(c.m, c.H) for c in report.cells] == [(3, 2)]


def test_run_sweep_slopes():
    report = run_sweep(SMALL)
    by_m = {rec.m: rec for rec in report.slopes}
    assert set(by_m) == {7, 101}
    # m = 7: crossover 7^(1/3) < 2, so no small-regime points at all
    assert by_m[7].points_small == 0
    assert by_m[7].slope_small is None
    assert by_m[7].points_all == 3
    assert by_m[7].slope_all is not None
    # m = 101: crossover ~4.65 keeps H in {2, 3}
    assert by_m[101].points_small == 2
    assert by_m[101].slope_small is not None


def test_run_sweep_byte_identical():
    r1 = run_sweep(SMALL)
    r2 = run_sweep(SMALL)
    assert r1 == r2
    assert json.dumps(json_ready(r1)) == json.dumps(json_ready(r2))


def test_default_report_digest():
    # `energia verify | sha256sum`: any change to an exact output shows here
    report = run_sweep(SweepConfig(), workers=1)
    text = json.dumps(json_ready(report), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1717df281af211dc088762eb2e50ef7cd36b83a09cea9c3aec75264aed0de67f"
    )


def test_run_sweep_worker_parity():
    seq = run_sweep(SMALL)
    par = run_sweep(SMALL, workers=2)
    assert seq == par
    assert json.dumps(json_ready(seq)) == json.dumps(json_ready(par))


class _StubPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in this process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


@pytest.mark.parametrize("workers, cpus, pool", [
    (10**9, 8, 8),  # SMALL has 12 cells
    (10**9, 64, 12),
    (3, 64, 3),
    (2, 1, None),  # one CPU: no pool at all
    (10**9, None, None),  # cpu_count() unknown counts as one
    (1, 64, None),
])
def test_run_sweep_caps_its_workers(monkeypatch, workers, cpus, pool):
    sizes = []
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", lambda max_workers: _StubPool(sizes, max_workers))
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
    report = run_sweep(SMALL, workers=workers)
    assert sizes == ([] if pool is None else [pool])
    assert json.dumps(json_ready(report)) == json.dumps(json_ready(run_sweep(SMALL)))


def test_write_csv():
    report = run_sweep(SMALL)
    buf = io.StringIO()
    write_csv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == len(report.cells) + 1
    first = lines[1].split(",")
    assert first[0] == "2" and first[1] == "7"
    assert "/" in first[8]  # K rendered as an exact fraction
    assert first[-1] == ""  # no error


def test_write_csv_bytes_on_the_default_grid_and_an_error_row():
    # the CSV's columns come from CellResult; any change to its bytes shows here
    buf = io.StringIO()
    write_csv(run_sweep(), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "3b6048cef5655fa20e21cc446b1e3124e3ff855d79219a202ae2c5af1460420d"
    )
    buf = io.StringIO()
    write_csv(SweepReport(SMALL, (CellResult(2, 7, 3, 0, error="boom"),), (), 1, 0.0), buf)
    assert buf.getvalue() == (
        "d,m,H,seed,coeffs,T,energy_plus,sumset,K,cs_ok,sandwich_ok,bound_energy,"
        "bound_fourth,ratio_energy,ratio_fourth,c_fourth,error\r\n"
        "2,7,3,0,,0,0,0,,,,0,0,0,0,0,boom\r\n"
    )


def test_refused_inputs_refuse_the_sweep():
    # a cell over the fold budget, or a modulus too large for the float bounds,
    # stops the sweep instead of becoming an error row
    with pytest.raises(BudgetExceeded, match="run_cell"):
        run_sweep(SweepConfig(degrees=(2,), moduli=(10**30,), lengths=(300000,), seeds=(0,)))
    with pytest.raises(DomainError, match="float"):
        run_sweep(SweepConfig(degrees=(2,), moduli=(10**320,), lengths=(5,), seeds=(0,)))


def test_hard_failure_property():
    base = dict(d=2, m=7, H=2, seed=0)
    assert CellResult(**base, error="boom").hard_failure
    assert CellResult(**base, cs_ok=False).hard_failure
    assert CellResult(**base, cs_ok=True, sandwich_ok=False).hard_failure
    assert not CellResult(**base, cs_ok=True, sandwich_ok=None).hard_failure


@pytest.mark.parametrize("coeffs, m, H", [
    ((0, 0, 1), 7, 7),
    ((0, 0, 1), 12, 12),
    ((0, 0, 0, 1), 9, 9),
    ((2, 0, 0, 1), 16, 11),
    ((4, 1, 1), 101, 30),
])
def test_run_cell_matches_standalone_and_oracles(coeffs, m, H):
    f, iv = PolyMod(coeffs, m), Interval(H)
    cell = run_cell(f.degree, m, H, 0, f=f)
    img = sorted(image_set(f, iv))
    assert cell.T == energy_T(f, iv) == oracles.energy_T_quadruple(coeffs, m, H)
    assert cell.energy_plus == energy_plus(f, iv) == oracles.set_energy_plus_quadruple(img, m)
    assert cell.sumset == sumset_size(f, iv) == oracles.sumset_size_naive(coeffs, m, H)


def _boom_on(monkeypatch, H, exc):
    """run_cell raises exc on the cells of length H and runs as before elsewhere."""
    real = sweep.run_cell

    def run_cell(d, m, h, seed, master="energia", f=None):
        if h == H:
            raise exc
        return real(d, m, h, seed, master, f)

    monkeypatch.setattr(sweep, "run_cell", run_cell)


def test_a_cell_that_crashes_becomes_an_error_row(monkeypatch, tmp_path, capsys):
    grid = SweepConfig(degrees=(2,), moduli=(101,), lengths=(2, 3, 5), seeds=(0,))
    without = run_sweep(SweepConfig(degrees=(2,), moduli=(101,), lengths=(2, 5), seeds=(0,)))
    _boom_on(monkeypatch, 3, RuntimeError("boom"))
    report = run_sweep(grid, workers=1)
    bad = [c for c in report.cells if c.H == 3]
    assert len(bad) == 1 and bad[0].error == "RuntimeError: boom" and bad[0].hard_failure
    assert report.hard_failures == 1 and not report.ok
    # the slopes are fitted on the other cells alone
    assert report.slopes == without.slopes and report.slopes[0].points_all == 2
    config = tmp_path / "grid.txt"
    config.write_text("d = 2\nm = 101\nh = 2, 3, 5\nseeds = 0\n", "utf-8")
    assert cli.main(["verify", "--config", str(config)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "cells": 3, "hard_failures": 1, "max_c_fourth": report.max_c_fourth, "ok": False,
    }
    # an input the library refuses still refuses the whole sweep
    _boom_on(monkeypatch, 3, DomainError("refused"))
    with pytest.raises(DomainError, match="refused"):
        run_sweep(grid, workers=1)
    assert cli.main(["verify", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: refused\n"
