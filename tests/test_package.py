"""The package namespace: every public name resolves to its layer's object,
and a caller loads only the layers it uses."""
import json
import os
import pathlib
import subprocess
import sys

import pytest

import energia

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
LAYERS = sorted(p.stem for p in (SRC / "energia").glob("*.py") if p.stem != "__init__")

FOOTPRINT = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "energia" or m.startswith("energia."))

import energia, energia.cli
steps = [loaded(), sorted(dir(energia))]
energia.cli.main(["energy", "--modulus", "1009", "--poly", "1,2,1", "--H", "10", "--what", "T"])
steps.append(loaded())
energia.count_J
steps.append(loaded())
energia.eqcount.regime_constant(2)
steps.append(loaded())
print(json.dumps(steps))
"""


def test_each_caller_loads_only_the_layers_it_uses():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    first, names, one_shot, count_j, congruence = json.loads(proc.stdout.splitlines()[-1])
    assert first == ["energia", "energia.cli", "energia.ring"]
    assert set(energia.__all__) | set(LAYERS) <= set(names)
    assert one_shot == sorted(first + ["energia.energy"])
    assert count_j == sorted(one_shot + ["energia.bounds", "energia.vinogradov"])
    assert congruence == sorted(count_j + ["energia.eqcount", "energia.lattice"])


@pytest.mark.parametrize("name", energia.__all__)
def test_every_public_name_is_its_layers_object(name):
    obj = getattr(energia, name)
    home = sys.modules[obj.__module__]
    assert home.__name__ in (f"energia.{layer}" for layer in LAYERS)
    assert getattr(home, name) is obj
    assert vars(energia)[name] is obj  # bound on the package once resolved


# the public API, written out: a name dropped from or added to `_HOMES` fails here
PUBLIC = (
    "AdmissibleRecord", "BilinearInstance", "BoundParams", "BudgetExceeded", "CharTable",
    "DomainError", "DualBody", "EnergyReport", "EqCountResult", "IntLattice", "Interval",
    "MinimaProfile", "PipelineCertificate", "PolyMod", "PowerSumVector", "RegimeParams",
    "RepFunction", "SweepConfig", "SystemCount", "UnsupportedSize", "WeightedBox",
    "admissible_exponents", "alpha_beta", "bilinear_W", "bilinear_energy_bound", "brute_congruence",
    "bv_small_solutions", "char_eval", "check_J_bound", "complete_sum_poly", "congruence_lattice",
    "count_I", "count_J", "count_Ts", "count_congruence", "count_eq", "count_lattice_points",
    "count_symmetric_eq", "dual_lattice", "energy_T", "energy_cross", "energy_plus",
    "energy_report", "energy_times", "fourth_moment_bound", "fourth_moment_crossover",
    "fractional_measure", "hybrid_count_bound", "in_regime", "interval_energy_bound",
    "mahler_basis", "minkowski_check", "parse_config", "point_count_record", "prime_bilinear_sum",
    "regime_constant", "rep_function", "run_cell", "run_sweep", "set_energy_plus",
    "set_energy_times", "successive_minima", "sumset_size", "transference_check", "xi_threshold",
)


def test_the_public_names_are_pinned():
    assert tuple(energia.__all__) == PUBLIC


def test_every_layer_is_its_module():
    for layer in LAYERS:
        assert getattr(energia, layer) is sys.modules[f"energia.{layer}"]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        energia.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from energia import no_such_name  # noqa: F401
