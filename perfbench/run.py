#!/usr/bin/env python3
"""Seeded benchmark for energia.

    python3 perfbench/run.py --workload sweep-default --seed 0 --seconds 40 --trace 0

Run from the root of a checkout: the library is imported from ``src/`` next
to this directory.  The run sets up the workload (import, input generation
from the seed, warm caches), then runs whole passes over the workload's
instance list, one instance after another, as many as fit in ``--seconds``
(at least one).  It sets up again after every pass, and at least
``SETUP_REPEATS`` times in all; ``setup_s`` is the median set-up time.
Each pass's outputs are checked, hashed and compared with the digest frozen
for that seed in ``digests.json`` (and with the first pass).  ``wall_s`` and
the instance percentiles come from each instance's best time over the passes
(see ``best_pass``); the time of every pass is printed on stderr.  Set-ups
and passes take the allowed CPUs in turn (see ``use_cpu``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` passes alternate between untraced and
traced, the per-layer metrics of the traced passes are reported, and the
spans of the last traced pass are written to ``perfbench/out/``.  The exit
code is 1 when any output is wrong or a digest does not match.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 7
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

from tracing import Tracer, metric_units  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, digest  # noqa: E402


def import_energia():
    """A fresh import of the package, and of its CLI module, from this checkout's src/."""
    for name in [n for n in sys.modules if n == "energia" or n.startswith("energia.")]:
        del sys.modules[name]
    energia = importlib.import_module("energia")
    importlib.import_module("energia.cli")  # binds energia.cli; it imports every layer
    if Path(energia.__file__).resolve().parent != SRC / "energia":
        raise SystemExit(f"energia was imported from {energia.__file__}, not from {SRC}")
    return energia


def set_up(workload, seed: int):
    t0 = time.perf_counter()
    E = import_energia()
    inputs = workload.make(E, seed)
    E.eqcount.regime_constant(2)
    E.eqcount.regime_constant(3)
    return time.perf_counter() - t0, E, inputs


def frozen_digest(workload: str, seed: int):
    return json.loads((HERE / "digests.json").read_text()).get(workload, {}).get(str(seed))


def use_cpu(k: int) -> None:
    """Move this process to the k-th of the CPUs it may run on, in turn.

    Slow spells (see best_pass) often strike one CPU at a time, so spreading
    the passes, and the set-ups, over every CPU lets each instance's best
    time and the median set-up time come from a CPU that was running at
    speed.  The run still uses one CPU at a time.
    """
    if CPUS:
        os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def best_pass(passes):
    """Fastest latency of each instance over the passes, and the pass time they make.

    On shared hardware other load slows pure-Python code by 1.5 to 2 times in
    spells that last from seconds to minutes (measured on a 2-vCPU Xeon
    virtual machine).  Short spells hit different instances in different
    passes, so each instance's best time is far steadier than any one pass.
    The pass time is the sum of the best times plus the least time a pass
    spent outside its instances.
    """
    best = [min(x) for x in zip(*(lat for _, lat in passes))]
    outside = min(wall - sum(lat) for wall, lat in passes)
    return best, sum(best) + outside


def run(workload_name: str, seed: int, seconds: float, trace: bool):
    workload = WORKLOADS[workload_name]
    use_cpu(0)
    s, E, inputs = set_up(workload, seed)
    setups = [s]
    canon = E.cli.json_ready  # bound before any tracing, so it records no spans
    tracer = Tracer(E) if trace else None
    no_mark = lambda i: None  # noqa: E731

    expected = frozen_digest(workload_name, seed)
    plain, traced_passes, layer_runs = [], [], []
    attempted = failed = 0
    digests = set()
    t_start = time.perf_counter()
    while True:
        use_cpu(len(plain) + len(traced_passes))
        traced = tracer is not None and len(plain) > len(traced_passes)
        if traced:
            tracer.install()
        try:
            wall, lat, raw = workload.run(E, inputs, tracer.mark if traced else no_mark)
        finally:
            if traced:
                tracer.uninstall()
        oks, text = workload.finish(inputs, raw, canon)
        d = digest(text)
        digests.add(d)
        attempted += len(oks)
        if d != (expected or d) or len(digests) > 1:
            failed += len(oks)  # cannot tell which instance changed: all count
        else:
            failed += oks.count(False)
        if traced:
            traced_passes.append((wall, lat))
            layer_runs.append(tracer.metrics(wall))
        else:
            plain.append((wall, lat))
        # A set-up after every pass, its outputs dropped: the set-ups are
        # spread over the run like the passes, not bunched in one spell.
        setups.append(set_up(workload, seed)[0])
        # stop before a pass that would run past the time allowed
        if time.perf_counter() - t_start + wall + setups[-1] > seconds and (tracer is None or traced_passes):
            break
    while len(setups) < SETUP_REPEATS:  # a short run
        use_cpu(len(setups))
        setups.append(set_up(workload, seed)[0])

    print(f"{workload_name} seed {seed}: {len(oks)} instances a pass; pass times "
          f"{[round(w, 3) for w, _ in plain]} s, traced {[round(w, 3) for w, _ in traced_passes]} s; "
          f"setup times {[round(s, 3) for s in setups]} s; digest {sorted(digests)} "
          f"{'frozen ' + expected if expected else 'not frozen for this seed'}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    best, wall_s = best_pass(plain)
    if tracer is None:
        metrics = {
            "wall_s": (wall_s, "s"),
            "instance_p50_ms": (statistics.median(best) * 1e3, "ms"),
            "instance_p90_ms": (statistics.quantiles(best, n=10)[8] * 1e3, "ms"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{workload_name}-{seed}.tsv")
        metrics = {}
        for name, unit in metric_units().items():
            if name == "trace.overhead_frac":
                value = best_pass(traced_passes)[1] / wall_s - 1
            else:
                value = statistics.median(r[name] for r in layer_runs)
            metrics[name] = (value, unit)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "energia" / "__init__.py").is_file():
        print(f"no energia package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
