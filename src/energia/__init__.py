"""Exact computation and verification toolkit for additive energies of
polynomial images over residue rings.

Importing the package loads none of its layers.  A public name, or a layer
(``energia.lattice``), is imported on first access through the module-level
``__getattr__`` (PEP 562) and then bound here, so a caller pays only for
the layers it uses: ``energia.count_J`` loads ``vinogradov`` and what it
imports, and never ``lattice`` or ``charsum``.

``_HOMES`` (layer -> the public names it defines) is the one list of public
names: ``__all__``, ``__getattr__`` and ``__dir__`` are all read off it.
"""

import importlib

__version__ = "0.1.0"

# the layer that defines each public name; the only list of them
_HOMES = {
    "bounds": ("BoundParams", "alpha_beta", "fourth_moment_bound", "fourth_moment_crossover",
        "hybrid_count_bound", "interval_energy_bound"),
    "charsum": ("AdmissibleRecord", "BilinearInstance", "CharTable", "RegimeParams",
        "admissible_exponents", "bilinear_W", "bilinear_energy_bound", "char_eval",
        "complete_sum_poly", "prime_bilinear_sum", "xi_threshold"),
    "cli": (),
    "energy": ("EnergyReport", "RepFunction", "energy_T", "energy_cross", "energy_plus",
        "energy_report", "energy_times", "rep_function", "set_energy_plus", "set_energy_times",
        "sumset_size"),
    "eqcount": ("EqCountResult", "PipelineCertificate", "brute_congruence", "count_congruence",
        "count_eq", "count_symmetric_eq", "in_regime", "regime_constant"),
    "lattice": ("DualBody", "IntLattice", "MinimaProfile", "UnsupportedSize", "WeightedBox",
        "bv_small_solutions", "congruence_lattice", "count_lattice_points", "dual_lattice",
        "fractional_measure", "mahler_basis", "minkowski_check", "point_count_record",
        "successive_minima", "transference_check"),
    "ring": ("BudgetExceeded", "DomainError", "Interval", "PolyMod"),
    "sweep": ("SweepConfig", "parse_config", "run_cell", "run_sweep"),
    "vinogradov": ("PowerSumVector", "SystemCount", "check_J_bound", "count_I", "count_J",
        "count_Ts"),
}
__all__ = sorted(name for names in _HOMES.values() for name in names)
_LAYER = {name: layer for layer, names in _HOMES.items() for name in (layer, *names)}


def __getattr__(name: str):
    """Import the layer that defines name (or the layer name itself) and bind the result here."""
    layer = _LAYER.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{layer}")
    value = module if name == layer else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYER})
