#!/usr/bin/env python3
"""Record the output digests that run.py compares against.

    python3 perfbench/freeze.py --workload congruence --seeds 0-99

Runs one untimed pass per seed and stores its digest in digests.json under
the seed.  A failed check stops the run with nothing recorded.  Only freeze
digests from code whose outputs are known to be right: run.py treats them as
the truth.
"""
from __future__ import annotations

import argparse
import json
import sys

import run
from workloads import WORKLOADS, digest


def pass_digest(workload, seed: int) -> str:
    _, E, inputs = run.set_up(workload, seed)
    _, _, raw = workload.run(E, inputs, lambda i: None)
    oks, text = workload.finish(inputs, raw, E.cli.json_ready)
    if not all(oks):
        raise SystemExit(f"{workload.name} seed {seed}: {oks.count(False)} instances failed their checks")
    return digest(text)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-99")
    args = ap.parse_args()
    sys.path.insert(0, str(run.SRC))
    lo, hi = (int(x) for x in args.seeds.split("-"))
    workload = WORKLOADS[args.workload]
    found = {str(s): pass_digest(workload, s) for s in range(lo, hi + 1)}
    path = run.HERE / "digests.json"
    table = json.loads(path.read_text())
    table.setdefault(args.workload, {}).update(found)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{args.workload}: {len(found)} digests recorded", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
