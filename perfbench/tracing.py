"""Span tracer that wraps energia's public functions from outside the library.

Every public function, and every public classmethod of a public class,
defined in one of the ``MODULES`` is replaced by a wrapper in every energia
module that binds it: ``eqcount.shortest_vector_in`` is rebound beside
``lattice.shortest_vector_in``, so calls between modules are seen too.  A
wrapper records one span (instance, span id, parent span id, name, start,
end) in memory.  A span's self time is its duration minus the durations of
its direct children.  Counts come from call arguments and return values,
through ``HOOKS``.  Nothing under ``src/`` is edited: ``uninstall`` puts
every original back.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict

MODULES = ("ring", "energy", "vinogradov", "lattice", "eqcount", "charsum", "bounds", "sweep", "cli")

# Functions whose own self time is reported; module totals come on top.
SELF_TIMES = (
    "energy.energy_T", "energy.energy_plus", "energy.energy_times", "energy.sumset_size",
    "energy.set_energy_plus", "energy.set_energy_times",
    "vinogradov.count_Ts", "vinogradov.count_J",
    "charsum.CharTable.build", "charsum.complete_sum_poly",
    "lattice.lll_reduce", "lattice.bv_small_solutions",
    "lattice.shortest_vector_in", "lattice.lattice_points_within",
    "eqcount.count_congruence", "eqcount.brute_congruence", "eqcount.count_eq",
    "eqcount.integer_roots", "ring.factorize", "ring.is_probable_prime", "sweep.run_cell",
)
CALLS = ("ring.poly_values", "ring.image_set", "ring.factorize", "lattice.lll_reduce")
COUNTS = (
    "energy.pair_ops", "vinogradov.tuples", "charsum.table_entries", "lattice.svp.points",
    "eqcount.branch.divisor", "eqcount.branch.empty", "eqcount.branch.collision",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit, in a fixed order."""
    units = {f"{m}.self_s": "s" for m in MODULES}
    units.update({f"{m}.share": "ratio" for m in MODULES})
    units.update({f"{f}.self_s": "s" for f in SELF_TIMES})
    units.update({f"{f}.calls": "count" for f in CALLS})
    units.update({c: "count" for c in COUNTS})
    for name in ("lattice.svp.useful_ratio", "eqcount.count_eq.divisor_useful_ratio", "trace.overhead_frac"):
        units[name] = "ratio"
    return units


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _pair_ops_T(tr, args, kwargs, result, parent):
    tr.counts["energy.pair_ops"] += len(_arg(args, kwargs, 1, "interval")) ** 2


def _pair_ops_set(tr, args, kwargs, result, parent):
    # energy_plus and energy_times pass the image set itself
    tr.counts["energy.pair_ops"] += len(_arg(args, kwargs, 0, "points")) ** 2


def _image_set(tr, args, kwargs, result, parent):
    if parent is not None and parent[0] == "energy.sumset_size":
        tr.counts["energy.pair_ops"] += len(result) ** 2


def _tuples_Ts(tr, args, kwargs, result, parent):
    tr.counts["vinogradov.tuples"] += len(_arg(args, kwargs, 1, "interval")) ** _arg(args, kwargs, 2, "s")


def _tuples_J(tr, args, kwargs, result, parent):
    elements = _arg(args, kwargs, 2, "elements")
    tr.counts["vinogradov.tuples"] += len(set(elements)) ** _arg(args, kwargs, 1, "s")


def _table(tr, args, kwargs, result, parent):
    tr.counts["charsum.table_entries"] += len(result.dlog)


def _svp_points(tr, args, kwargs, result, parent):
    if parent is not None and parent[0] == "lattice.shortest_vector_in":
        tr.counts["lattice.svp.points"] += len(result)


def _branch(tr, args, kwargs, result, parent):
    if result.certificate is not None:
        tr.counts[f"eqcount.branch.{result.certificate.branch}"] += 1


def _divisors(tr, args, kwargs, result, parent):
    if parent is not None and parent[0] == "eqcount.count_eq":
        H = _arg(parent[1], parent[2], 2, "H")
        tr.extra["divisors.returned"] += len(result)
        tr.extra["divisors.useful"] += sum(1 for t in result if t <= H - 1)


HOOKS = {
    "energy.energy_T": _pair_ops_T,
    "energy.set_energy_plus": _pair_ops_set,
    "energy.set_energy_times": _pair_ops_set,
    "ring.image_set": _image_set,
    "vinogradov.count_Ts": _tuples_Ts,
    "vinogradov.count_J": _tuples_J,
    "charsum.CharTable.build": _table,
    "lattice.lattice_points_within": _svp_points,
    "eqcount.count_congruence": _branch,
    "ring.divisors_of": _divisors,
}


class Tracer:
    def __init__(self, E) -> None:
        self.E = E
        self.instance = None
        self._restore: list = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.extra: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._next_id = 0

    def mark(self, instance) -> None:
        self.instance = instance

    def _wrap(self, label: str, fn):
        stack, spans = self._stack, self.spans
        self_time, calls = self.self_time, self.calls
        hook = HOOKS.get(label)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [label, args, kwargs, 0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                own = t1 - t0 - frame[3]
                self_time[label] += own
                calls[label] += 1
                if parent is not None:
                    parent[3] += t1 - t0
                spans.append((tracer.instance, sid, -1 if parent is None else parent[4], label, t0, t1))
            if hook is not None:
                hook(tracer, args, kwargs, result, parent)
            return result

        return traced

    def _targets(self):
        for short in MODULES:
            mod = getattr(self.E, short)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for attr, raw in list(vars(obj).items()):
                        if not attr.startswith("_") and isinstance(raw, classmethod):
                            yield f"{short}.{name}.{attr}", obj, attr, raw
                elif callable(obj):
                    yield f"{short}.{name}", None, name, obj

    def install(self) -> None:
        """Rebind every traced name, starting a fresh set of spans and counts."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.reset()
        modules = [self.E] + [getattr(self.E, short) for short in MODULES]
        for label, owner, attr, obj in self._targets():
            if owner is not None:
                owner_wrapped = classmethod(self._wrap(label, obj.__func__))
                self._restore.append((owner, attr, obj))
                setattr(owner, attr, owner_wrapped)
                continue
            wrapped = self._wrap(label, obj)
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is obj:
                        self._restore.append((mod, name, obj))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore = []

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass just traced, whose wall time was wall_s."""
        out: dict[str, float] = {}
        for m in MODULES:
            own = sum(v for k, v in self.self_time.items() if k.split(".", 1)[0] == m)
            out[f"{m}.self_s"] = own
            out[f"{m}.share"] = own / wall_s
        for f in SELF_TIMES:
            out[f"{f}.self_s"] = self.self_time.get(f, 0.0)
        for f in CALLS:
            out[f"{f}.calls"] = self.calls.get(f, 0)
        for c in COUNTS:
            out[c] = self.counts.get(c, 0)
        points = self.counts.get("lattice.svp.points", 0)
        out["lattice.svp.useful_ratio"] = self.calls.get("lattice.shortest_vector_in", 0) / points if points else 0.0
        returned = self.extra.get("divisors.returned", 0)
        out["eqcount.count_eq.divisor_useful_ratio"] = self.extra.get("divisors.useful", 0) / returned if returned else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("instance\tspan\tparent\tname\tstart_s\tend_s\n")
            for inst, sid, parent, label, t0, t1 in self.spans:
                fh.write(f"{inst}\t{sid}\t{parent}\t{label}\t{t0:.9f}\t{t1:.9f}\n")
