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


def test_every_layer_is_its_module():
    for layer in LAYERS:
        assert getattr(energia, layer) is sys.modules[f"energia.{layer}"]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        energia.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from energia import no_such_name  # noqa: F401
