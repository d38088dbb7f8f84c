"""End-to-end tests of the command line front end."""
import contextlib
import io
import json
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from energia import charsum, cli, energy, lattice, ring, sweep, vinogradov
from energia.sweep import CSV_COLUMNS


def _run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _run_json(capsys, argv):
    rc, out, err = _run(capsys, argv)
    assert rc == 0, err
    return json.loads(out), err


def test_energy_report(capsys):
    payload, _ = _run_json(capsys, ["energy", "--modulus", "7", "--poly", "0,0,1", "--H", "3"])
    assert payload["T"] == 15
    assert payload["sumset_size"] == 6
    assert payload["K"] == "9/5"


def test_energy_single_value(capsys):
    payload, _ = _run_json(
        capsys, ["energy", "--modulus", "7", "--poly", "0,0,1", "--H", "3", "--what", "T"]
    )
    assert payload == {"T": 15}


def test_energy_times_is_the_library_value(capsys):
    f = ring.poly_from_string("1,0,1", 11)
    payload, _ = _run_json(capsys, ["energy", "--modulus", "11", "--poly", "1,0,1", "--H", "7", "--what", "times"])
    assert payload == {"energy_times": energy.energy_times(f, ring.Interval(7))}
    assert payload["energy_times"] == 71  # x^2 + 1 on 1..7 mod 11 is {2, 4, 5, 6, 10}; 71 by quadruple scan


def test_vinogradov_J(capsys):
    payload, _ = _run_json(capsys, ["vinogradov", "--d", "2", "--s", "2", "--set", "1,2"])
    assert payload["kind"] == "J"
    assert payload["count"] == 6


def test_vinogradov_I_matches_J(capsys):
    payload, _ = _run_json(
        capsys, ["vinogradov", "--d", "2", "--s", "2", "--H", "3", "--shifts", "0,0"]
    )
    assert payload["kind"] == "I"
    assert payload["count"] == vinogradov.count_J(2, 2, (1, 2, 3))


def test_vinogradov_Ts(capsys):
    payload, _ = _run_json(
        capsys,
        ["vinogradov", "--d", "2", "--s", "2", "--poly", "0,0,1", "--modulus", "7", "--H", "3"],
    )
    assert payload["kind"] == "Ts"
    assert payload["count"] == 15


def test_vinogradov_slope(capsys):
    payload, _ = _run_json(capsys, ["vinogradov", "--d", "1", "--slope", "2,4,8"])
    assert len(payload["entries"]) == 3
    assert payload["d"] == 1


def test_vinogradov_missing_s(capsys):
    rc, _, err = _run(capsys, ["vinogradov", "--d", "2", "--H", "3"])
    assert rc == 2
    assert "error:" in err


def test_lattice_minima(capsys):
    payload, _ = _run_json(
        capsys, ["lattice", "minima", "--basis", "1,0;0,1", "--box", "2,1"]
    )
    assert payload["minima"] == ["1/2", "1/1"]


def test_lattice_minkowski(capsys):
    payload, _ = _run_json(
        capsys, ["lattice", "minkowski", "--basis", "1,1;0,5", "--box", "1,1"]
    )
    assert payload["ok"] is True


def test_lattice_dual(capsys):
    payload, _ = _run_json(capsys, ["lattice", "dual", "--basis", "1,1;0,5"])
    assert payload["den"] == 5
    assert len(payload["basis"]) == 2


def test_lattice_mahler_query(capsys):
    payload, _ = _run_json(
        capsys,
        ["lattice", "mahler", "--basis", "1,0;0,1", "--box", "1,1", "--query", "3,4"],
    )
    assert payload["within_factor"] is True
    assert len(payload["expansions"]) == 1


def test_lattice_bv(capsys):
    payload, _ = _run_json(capsys, ["lattice", "bv", "--matrix", "1,1,1"])
    assert payload["product_bound_ok"] is True
    assert payload["min_vector_bound_ok"] is True
    assert payload["is_basis"] is True


def test_lattice_measure(capsys):
    payload, _ = _run_json(
        capsys,
        ["lattice", "measure", "--matrix", "1,0;0,1", "--eps", "1/4,1/4",
         "--samples", "2000", "--seed", "3"],
    )
    assert payload["target"] == "1/16"
    assert payload["samples"] == 2000
    assert 0 <= payload["hits"] <= 2000


def test_lattice_needs_body(capsys):
    rc, _, err = _run(capsys, ["lattice", "minima", "--basis", "1,0;0,1"])
    assert rc == 2
    assert "error:" in err



@pytest.mark.parametrize("argv, record", [
    (["lattice", "minima", "--basis", "1,1;0,5", "--cross", "1,2"],
     lambda lat: lattice.successive_minima(lat, lattice.DualBody((1, 2)))),
    (["lattice", "transfer", "--basis", "1,1;0,5", "--box", "1,1"],
     lambda lat: lattice.transference_check(lat, lattice.WeightedBox((1, 1)))),
])
def test_lattice_prints_the_library_record(capsys, argv, record):
    payload, _ = _run_json(capsys, argv)
    assert payload == cli.json_ready(record(lattice.lattice_from_string("1,1;0,5", 1)))


@pytest.mark.parametrize("argv, line", [
    (["vinogradov", "--d", "2", "--s", "2", "--shifts", "0,0"], "--shifts needs --H"),
    (["vinogradov", "--d", "2", "--s", "2", "--poly", "0,0,1", "--H", "3"], "--poly needs --modulus and --H"),
    (["vinogradov", "--d", "2", "--s", "2"], "pass --H or --set"),
    (["charsum", "bilinear", "--p", "7", "--H", "3"], "pass --set or --S for the residue side"),
])
def test_a_missing_input_is_refused_by_name(capsys, argv, line):
    assert _run(capsys, argv) == (2, "", f"error: {line}\n")

@pytest.mark.parametrize("flag", ["--box", "--cross"])
def test_an_empty_body_flag_is_read_not_taken_for_a_missing_one(capsys, flag):
    argv = ["lattice", "minima", "--basis", "1,0;0,1", flag, ""]
    assert _run(capsys, argv) == (2, "", "error: bad rational ''\n")


def test_eqcount_eq(capsys):
    payload, _ = _run_json(
        capsys, ["eqcount", "eq", "--coeffs", "0,0,1", "--target", "3", "--H", "10"]
    )
    assert payload["count"] == 1
    assert payload["solutions"] == [[2, 1]]


def test_eqcount_sym(capsys):
    payload, _ = _run_json(capsys, ["eqcount", "sym", "--coeffs", "0,0,1", "--H", "2"])
    assert payload["total"] == 6
    assert payload["collision_pairs"] == 2


def test_eqcount_constant(capsys):
    payload, _ = _run_json(capsys, ["eqcount", "constant", "--d", "2"])
    assert payload == {"d": 2, "constant": "16214/554511"}


def test_eqcount_cong_pipeline(capsys):
    payload, _ = _run_json(
        capsys,
        ["eqcount", "cong", "--poly", "0,0,1", "--modulus", "340007", "--H", "2",
         "--shift", "3"],
    )
    assert payload["method"] == "pipeline"
    assert payload["count"] == 1
    assert payload["declined"] is None


def test_eqcount_cong_declined(capsys):
    payload, _ = _run_json(
        capsys,
        ["eqcount", "cong", "--poly", "0,0,0,1", "--modulus", "10007", "--H", "6",
         "--shift", "19"],
    )
    assert payload["method"] == "brute"
    assert payload["declined"] is not None


def test_charsum_weil(capsys):
    payload, _ = _run_json(capsys, ["charsum", "weil", "--p", "7", "--coeffs", "1,0,1"])
    assert payload["admissible"] is True
    assert payload["within_bound"] is True
    assert payload["magnitude"] <= payload["bound"]


def test_charsum_bilinear(capsys):
    payload, _ = _run_json(
        capsys, ["charsum", "bilinear", "--p", "11", "--set", "1,2", "--H", "3"]
    )
    assert abs(payload["value"]["re"] - 4.0) < 1e-9
    assert abs(payload["value"]["im"]) < 1e-9
    assert payload["trivial"] == 6.0


def test_charsum_primes(capsys):
    payload, _ = _run_json(
        capsys,
        ["charsum", "primes", "--p", "101", "--poly", "0,0,1", "--Q", "4", "--R", "4"],
    )
    assert payload["primes_q"] == 2  # 2 and 3
    assert payload["primes_r"] == 2
    assert payload["ratio_pairs"] <= 1.0 + 1e-9


def test_charsum_bound(capsys):
    payload, _ = _run_json(
        capsys,
        ["charsum", "bound", "--S", "10", "--H", "100", "--p", "100003",
         "--E", "50", "--r", "1"],
    )
    rec = charsum.bilinear_energy_bound(10, 100, 100003, 50, 1)
    assert payload["bound"] == rec.bound


def test_charsum_region(capsys):
    ok_payload, _ = _run_json(
        capsys, ["charsum", "region", "--zeta", "1/4", "--xi", "1/3", "--d", "2"]
    )
    assert ok_payload["ok"] is True
    bad_payload, _ = _run_json(
        capsys, ["charsum", "region", "--zeta", "1/4", "--xi", "3/10", "--d", "2"]
    )
    assert bad_payload["ok"] is False


def test_verify_csv_to_file(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("d = 2\nm = 7\nh = 2,3\nseeds = 0,1\nmaster = clitest\n")
    out = tmp_path / "report.csv"
    rc, _, err = _run(
        capsys, ["verify", "--config", str(cfg), "--emit", "csv", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5  # header + 2 lengths * 2 seeds
    summary = json.loads(err)
    assert summary["cells"] == 4
    assert summary["ok"] is True


def test_verify_seed_reruns_identically(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("d = 2\nm = 11\nh = 3\nseeds = 0\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        rc, _, _ = _run(
            capsys,
            ["verify", "--config", str(cfg), "--emit", "csv", "--out", str(out),
             "--seed", "7"],
        )
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_json_stdout(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("d = 2\nm = 7\nh = 2\nseeds = 0\n")
    rc, out, err = _run(capsys, ["verify", "--config", str(cfg)])
    assert rc == 0
    payload = json.loads(out)
    assert payload["hard_failures"] == 0
    assert len(payload["cells"]) == 1
    assert payload["cells"][0]["T"] >= 4  # T >= H^2 always


def test_verify_refuses_an_unusable_file_before_the_sweep(tmp_path, capsys, monkeypatch):
    # each of these ended in a traceback; a bad --out only after the whole sweep
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(sweep, "run_sweep", no_sweep)
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("d = 2\nm = 7\nh = 2\nseeds = 0\nmaster = café\n".encode("latin-1"))
    for argv in (
        ["verify", "--config", str(tmp_path / "missing" / "x.cfg")],
        ["verify", "--config", str(latin1)],
        ["verify", "--out", str(tmp_path / "missing" / "r.json")],
    ):
        rc, out, err = _run(capsys, argv)
        assert (rc, out) == (2, "") and err.startswith("error: ") and "Traceback" not in err, argv


def test_vinogradov_budget_flag(capsys):
    payload, _ = _run_json(capsys, ["vinogradov", "--d", "2", "--s", "2", "--H", "3"])
    assert payload["count"] == vinogradov.count_J(2, 2, range(1, 4))
    rc, out, err = _run(capsys, ["vinogradov", "--d", "2", "--s", "2", "--H", "3", "--budget", "0"])
    assert (rc, out) == (2, "") and err.startswith("error: ")


def test_domain_error_exit_code(capsys):
    rc, _, err = _run(capsys, ["energy", "--modulus", "1", "--poly", "0,1", "--H", "2"])
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["lattice", "bv", "--matrix", "1,2,x"],
    ["lattice", "measure", "--matrix", "1,2;3,y", "--eps", "1/4,1/4"],
    ["lattice", "minima", "--basis", "1,0;0,z", "--box", "1,1"],
    ["lattice", "minima", "--basis", "1,0;0,1", "--box", "1/0,1"],
    ["lattice", "minima", "--basis", "1,0;0,1", "--box", "1,half"],
    ["lattice", "measure", "--matrix", "1,2", "--eps", "1/0"],
    ["eqcount", "eq", "--coeffs", "0,0,1", "--target", "3"],
    ["eqcount", "sym", "--coeffs", "0,0,1"],
    ["eqcount", "eq", "--H", "5", "--target", "3"],
    ["lattice", "bv"],
    ["lattice", "minima", "--box", "1,1"],
    ["eqcount", "cong", "--H", "3"],
    ["charsum", "weil"],
    ["eqcount", "constant"],
    ["charsum", "region", "--zeta", "abc", "--xi", "1/3", "--d", "2"],
    ["charsum", "region", "--zeta", "1/0", "--xi", "1/3", "--d", "2"],
    # refused by the table budget before anything is allocated
    ["charsum", "weil", "--p", "1000000007", "--coeffs", "1,0,1"],
    # refused by the fold budget before f is evaluated
    ["eqcount", "sym", "--coeffs", "0,0,1", "--H", "1000000000000"],
    # a query whose length is not the lattice dimension
    ["lattice", "mahler", "--basis", "1,0;0,1", "--box", "1,1", "--query", "1,2,3"],
    ["lattice", "mahler", "--basis", "1,0;0,1", "--box", "1,1", "--query", "1"],
    # a zero or empty value is read, not taken for a missing flag
    ["charsum", "region", "--zeta", "1/3", "--xi", "1/3", "--d", "2", "--r", "0"],
    ["vinogradov", "--d", "2", "--s", "2", "--H", "3", "--shifts", ""],
    ["verify", "--config", ""],
    ["verify", "--out", ""],
    ["lattice", "minima", "--basis", "1,0;0,1", "--box", ""],
])
def test_parse_errors_exit_2_without_traceback(capsys, argv):
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("argv", [
    # the diagonal of target 0 would be an H-element set of pairs
    ["eqcount", "eq", "--coeffs", "0,0,1", "--target", "0", "--H", "100000000"],
    # the shift scan would take H - 1 = 10^8 - 1 steps
    ["eqcount", "eq", "--coeffs", "0,0,1", "--target", str(10**39 + 1), "--H", "100000000"],
])
def test_eqcount_budget_refuses_at_once(capsys, argv):
    t0 = time.perf_counter()
    rc, out, err = _run(capsys, argv)
    assert rc == 2 and out == "" and err.startswith("error: count_eq")
    assert time.perf_counter() - t0 < 1.0


def test_eqcount_eq_reads_a_small_box_off_its_table(capsys):
    # 39998 shifts would need a root search each, over BRUTE_BUDGET; the
    # table of 20000 squares and their diagonal is inside it
    payload, _ = _run_json(capsys, ["eqcount", "eq", "--coeffs", "0,0,1", "--target", "0", "--H", "20000"])
    assert payload["count"] == 20000
    assert payload["solutions"][:2] == [[1, 1], [2, 2]]


@pytest.mark.parametrize("argv", [
    # d < s: the third layer folds 80200 pair vectors with 400 single ones
    ["vinogradov", "--d", "2", "--s", "3", "--H", "400"],
    ["vinogradov", "--d", "3", "--s", "3", "--H", "400"],
    # the second layer folds 5000 by 5000 vectors
    ["vinogradov", "--d", "2", "--s", "2", "--H", "5000"],
])
def test_vinogradov_layer_fold_refuses_at_once(capsys, argv):
    t0 = time.perf_counter()
    rc, out, err = _run(capsys, argv)
    assert rc == 2 and out == "" and err.startswith("error: count_J") and "FOLD_BUDGET" in err
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("argv", [
    # a one-element set has one multiset however large s is
    ["vinogradov", "--d", "2", "--s", "3000000", "--set", "5"],
    ["vinogradov", "--d", "2", "--s", "1000000", "--H", "1", "--shifts", "0,0"],
    # a one-value histogram: T_s = 1^(2s) in closed form, not 10^8 folds
    ["vinogradov", "--d", "1", "--s", "100000000", "--poly", "0,1", "--modulus", "7", "--H", "1"],
])
def test_vinogradov_huge_s_on_one_element_at_once(capsys, argv):
    t0 = time.perf_counter()
    rc, out, err = _run(capsys, argv)
    assert rc == 0 and json.loads(out)["count"] == 1 or rc == 2 and err.startswith("error:")
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("argv", [
    # about 4 * 10^10 points of Z^2 in the box, and 2 * 10^9 or 2 * 10^12 in
    # the enumeration box of each minima search
    ["lattice", "count", "--basis", "1,0;0,1", "--box", "100000,100000"],
    ["lattice", "minima", "--basis", "1,0;0,1", "--box", "1/1000000000,1"],
    ["lattice", "minima", "--basis", "1000000000000,0;0,1", "--box", "1,1"],
])
def test_lattice_search_priced_before_its_first_node(capsys, argv):
    t0 = time.perf_counter()
    rc, out, err = _run(capsys, argv)
    assert rc == 2 and out == "" and err.startswith("error: lattice enumeration") and "nodes" in err
    assert time.perf_counter() - t0 < 1.0


def test_measure_samples_refused_at_once(capsys):
    t0 = time.perf_counter()
    rc, out, err = _run(capsys, [
        "lattice", "measure", "--matrix", "1,0;0,1", "--eps", "1/4,1/4", "--samples", "100000000",
    ])
    assert rc == 2 and out == "" and err.startswith("error: fractional_measure")
    assert time.perf_counter() - t0 < 1.0


PSI_13 = 3317044064679887385961981


def test_fold_budget_refuses_at_once(capsys):
    t0 = time.perf_counter()
    rc, _, err = _run(capsys, [
        "energy", "--modulus", "1000000007", "--poly", "0,0,1", "--H", "300000", "--what", "plus",
    ])
    assert rc == 2 and err.startswith("error: energy_plus") and "FOLD_BUDGET" in err
    assert time.perf_counter() - t0 < 1.0


CHARSUM_OVER_BUDGET = [
    # |S| * H = 10^8 character evaluations
    ["charsum", "bilinear", "--p", "101", "--S", "1000", "--H", "100000"],
    # 2 pi(Q) pi(R) ~ 10^10 character evaluations
    ["charsum", "primes", "--p", "999983", "--poly", "0,0,1", "--Q", "900000", "--R", "900000"],
    # priced before the 10^9-element residue side is built
    ["charsum", "bilinear", "--p", "101", "--S", str(10**9), "--H", "1"],
    # p (d + 1) Horner steps: 3 * 999983 and 10 * 999983
    ["charsum", "weil", "--p", "999983", "--coeffs", "1,0,1"],
    ["charsum", "weil", "--p", "999983", "--coeffs", "1,2,3,4,5,6,7,8,9,10"],
]


@pytest.mark.parametrize("argv", CHARSUM_OVER_BUDGET)
def test_charsum_budget_refuses_at_once(capsys, argv):
    t0 = time.perf_counter()
    rc, out, err = _run(capsys, argv)
    assert rc == 2 and out == "" and err.startswith("error: a ") and "SUM_BUDGET" in err
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("argv", [
    # size^s is priced from bit lengths, never written out whole
    ["vinogradov", "--d", "1", "--s", "10000", "--H", "3"],
    ["vinogradov", "--d", "1", "--s", "10000000", "--H", "3"],
    ["vinogradov", "--d", "2", "--s", "9000", "--set", "1,2,3"],
    # every comparison of the walk raises to the 10^6 + 1-th power
    ["eqcount", "constant", "--d", "1000000"],
    # a 10^5-component key for each of the 4 packed vectors
    ["vinogradov", "--d", "100000", "--s", "1", "--H", "3", "--shifts", ",".join(["0"] * 100000)],
    # H is checked before the 10^9 residues are built
    ["charsum", "bilinear", "--p", "101", "--S", "1000000000", "--H", "0"],
    # S past sys.maxsize: the residue range is priced without len() overflowing
    ["charsum", "bilinear", "--p", "7", "--S", str(10**400), "--H", "1"],
])
def test_huge_inputs_refuse_at_once_with_a_short_error(capsys, argv):
    t0 = time.perf_counter()
    rc, out, err = _run(capsys, argv)
    assert rc == 2 and out == "" and err.startswith("error:") and len(err) < 200, err
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("argv", [
    # p, then S, too large for a float; then a bound of E p^2 past 1.8e308
    ["charsum", "bound", "--S", "10", "--H", "10", "--p", str(10**400), "--E", "1", "--r", "1"],
    ["charsum", "bound", "--S", str(10**200), "--H", "10", "--p", "7", "--E", "1", "--r", "1"],
    ["charsum", "bound", "--S", "1", "--H", "1", "--p", str(10**100), "--E", str(10**300), "--r", "1"],
])
def test_charsum_bound_refuses_what_a_float_cannot_hold(capsys, argv):
    # the first two ended in an OverflowError traceback, the last printed Infinity
    t0 = time.perf_counter()
    rc, out, err = _run(capsys, argv)
    assert rc == 2 and out == "" and err.startswith("error:") and len(err) < 200, err
    assert time.perf_counter() - t0 < 1.0


def test_charsum_bound_flags_a_huge_r_at_once(capsys):
    # H^r >= p holds once 2^r > p, without building 10^(10^30)
    t0 = time.perf_counter()
    payload, _ = _run_json(capsys, ["charsum", "bound", "--S", "1", "--H", "10", "--p", "7", "--E", "1", "--r", str(10**30)])
    assert payload["flags"] == {"S^2 H <= p^2": True, "H^2 < p": False, "H^r >= p": True}
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("argv, count", [
    # the equations j > s follow from the first s (Newton-Girard)
    (["vinogradov", "--d", "3000", "--s", "1", "--set", "1,2"], 2),
    (["vinogradov", "--d", "100000", "--s", "2", "--H", "3"], 15),
])
def test_count_J_of_huge_degree_answers_at_once(capsys, argv, count):
    t0 = time.perf_counter()
    payload, _ = _run_json(capsys, argv)
    assert payload["count"] == count
    assert time.perf_counter() - t0 < 1.0


def test_energy_of_huge_degree_answers_at_once(capsys):
    # the H = 3 table of a degree-3000 f is three Horner passes, never a
    # difference table of 3001 unreduced values
    t0 = time.perf_counter()
    payload, _ = _run_json(capsys, ["energy", "--modulus", "7", "--poly", ",".join(["1"] * 3001), "--H", "3"])
    assert payload["T"] == 33
    assert time.perf_counter() - t0 < 1.0


def test_output_is_one_json_line(capsys):
    rc, out, _ = _run(capsys, ["eqcount", "eq", "--coeffs", "0,1", "--target", "1", "--H", "5"])
    assert rc == 0 and out == '{"count": 4, "solutions": [[2, 1], [3, 2], [4, 3], [5, 4]]}\n'


def test_verify_modulus_beyond_float_range(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("moduli = 1" + "0" * 320 + "\nlengths = 4, 5\n")
    rc, out, err = _run(capsys, ["verify", "--config", str(cfg)])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "too large for a float" in err


def test_verify_at_psi_13_skips_the_prime_only_check(tmp_path, capsys):
    # psi_13 = 1287836182261 * 2575672364521 passes Miller-Rabin to every base <= 41
    cfg = tmp_path / "psi13.cfg"
    cfg.write_text(f"d = 2\nm = {PSI_13}\nh = 5\nseeds = 0\n")
    payload, _ = _run_json(capsys, ["verify", "--config", str(cfg)])
    assert [c["sandwich_ok"] for c in payload["cells"]] == [None]


# --- fuzzing the front end: every argv exits 0, or 2 with an error line -----

FUZZ_MODULI = [-1, 0, 1, 2, 7, 96, 1009, PSI_13, 10**400]
GOOD_POLYS = ["0,0,1", "3,1,1", "0,1", "5,0,0,1", "1,2,3,4,5"]
BAD_POLYS = ["", "x", "1,,2", "0", "7", "1,2,", "0,0,0", " ", "1.5,2", "0,0,1e3", "0;1", "--1"]


@st.composite
def _argvs(draw):
    m = draw(st.sampled_from(FUZZ_MODULI))
    H = draw(st.sampled_from([-1, 0, 1, 5, m, m + 1, 300000]))
    poly = draw(st.sampled_from(GOOD_POLYS * 3 + BAD_POLYS))
    command = draw(st.sampled_from(["energy", "verify", "eq", "cong", "charsum"]))
    if command == "charsum":
        action = draw(st.sampled_from(["weil", "bilinear", "primes"]))
        argv = ["charsum", action, "--p", str(m)]
        k = draw(st.sampled_from([None, 0, 1, -1, 3, m - 1, 10**400]))
        if k is not None:
            argv += ["--k", str(k)]
        sizes = [-1, 0, 1, 5, m, m + 1, 300000, 10**400]
        if action == "weil":
            return argv + ["--coeffs", poly], None
        if action == "primes":
            return argv + ["--poly", poly, "--Q", str(draw(st.sampled_from(sizes))), "--R", str(draw(st.sampled_from(sizes)))], None
        side = draw(st.sampled_from([["--set", s] for s in ("1,2", "0", "", "3,3", "x", f"-5,{10**400}")] + [["--S", str(S)] for S in sizes]))
        return argv + side + ["--H", str(draw(st.sampled_from(sizes)))], None
    if command == "eq":
        target = draw(st.sampled_from([0, 1, -3, 720720, 10**12 + 39, 10**39 + 1, -(10**400)]))
        H = draw(st.sampled_from([-1, 0, 1, 5, 300000, 10**8, 10**400]))
        return ["eqcount", "eq", "--coeffs", poly, "--target", str(target), "--H", str(H)], None
    if command == "cong":
        H = draw(st.sampled_from([-1, 0, 1, 5, m, m + 1, 10**8]))
        shift = draw(st.sampled_from([0, 1, 3, -1, m, 10**400]))
        return ["eqcount", "cong", "--poly", poly, "--modulus", str(m), "--H", str(H), "--shift", str(shift)], None
    if command == "energy":
        what = draw(st.sampled_from(["report", "T", "plus", "times", "sumset"]))
        return ["energy", "--modulus", str(m), "--poly", poly, "--H", str(H), "--what", what], None
    degrees = draw(st.sampled_from(["2", "3", "2, 3", "1", "x"]))
    config = f"d = {degrees}\nmoduli = {m}\nlengths = {H}\nseeds = 0\n"
    return ["verify", "--config", None], config


@given(_argvs())
@example((["energy", "--modulus", "1009", "--poly", "3,1,1", "--H", "1009", "--what", "report"], None))
@example((["energy", "--modulus", str(10**400), "--poly", "0,0,1", "--H", str(10**400)], None))
@example((["verify", "--config", None], f"d = 2, 3\nm = {PSI_13}\nh = 300000\nseeds = 0\n"))
@example((["verify", "--config", None], "d = 2, 3\nm = 1009\nh = 1009\nseeds = 0\n"))
@example((["eqcount", "eq", "--coeffs", "0,1", "--target", "0", "--H", "100000000"], None))
@example((["eqcount", "eq", "--coeffs", "5,0,0,1", "--target", "0", "--H", "300000"], None))
@example((["eqcount", "cong", "--poly", "3,1,1", "--modulus", str(PSI_13), "--H", str(PSI_13), "--shift", "3"], None))
@example((CHARSUM_OVER_BUDGET[0], None))
@example((CHARSUM_OVER_BUDGET[1], None))
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_exits_0_or_2_with_an_error_line(tmp_path_factory, case):
    argv, config = case
    if config is not None:
        path = tmp_path_factory.mktemp("fuzz") / "grid.cfg"
        path.write_text(config)
        argv[-1] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code
    if rc == 0:
        json.loads(out.getvalue())
    else:
        assert rc == 2, (argv, config, err.getvalue())
        assert "error:" in err.getvalue()
