"""Stored reference outputs, and the tool that records them.

``references.json`` holds, per seed, the output digest of every
workload and the exhaustive reference frontier of ``adaptive`` (the
frontier of the full 889-design sweep at the same trace and clocks).
It covers seeds 0-20 (7 is the default) and the held-out seed 1009,
which was recorded once and never used while the benchmark was tuned.  A run on a seed without a
stored entry still checks that every run of the process produces the
same digest and that sweeps reproduce the serial per-job path; the
adaptive reference frontier of such a seed is computed once, in a
child process outside the timed region, and kept under
``.perfbench/frontiers/`` in the checkout.

Record references (from the repository root)::

    python3 perfbench/refs.py --seeds 7 1009

Only the exhaustive frontier of one seed (what a run does for a seed
without a stored entry)::

    python3 perfbench/refs.py --seeds 12 --frontier-only --out FILE
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
HELD_OUT_SEEDS = (1009,)


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)["seeds"]


def write_json(path: Path, payload) -> None:
    """Atomic JSON write: a reader never sees a half-written file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
    with os.fdopen(handle, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, sort_keys=True, separators=(",", ":"))
        stream.write("\n")
    os.replace(temp_name, path)


def record_seed(seed: int, scratch: Path, frontier_only: bool) -> dict:
    from cases import WORKLOADS, make_case
    entry = {}
    adaptive = make_case("adaptive")
    adaptive.set_up(seed, scratch)
    entry["adaptive_reference_frontier"] = adaptive.exhaustive_frontier()
    if frontier_only:
        return entry
    for name in WORKLOADS:
        case = make_case(name)
        case.set_up(seed, scratch)
        if name == "adaptive":
            case.set_reference_frontier(entry["adaptive_reference_frontier"])
        case.prepare_checks()
        case.before_run()
        outcome = case.run()
        case.check(outcome)
        case.guard(outcome)
        case.after_run()
        entry[name] = outcome.digest
        print(f"seed {seed} {name}: {outcome.digest}", file=sys.stderr)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--frontier-only", action="store_true",
                        help="record only the adaptive exhaustive reference frontier")
    parser.add_argument("--out", type=Path, default=REFERENCES)
    arguments = parser.parse_args(argv)
    from run import STATE, enter_checkout
    STATE.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="refs-", dir=STATE))
    enter_checkout(scratch)
    try:
        for seed in arguments.seeds:
            entry = record_seed(seed, scratch, arguments.frontier_only)
            if arguments.frontier_only:
                write_json(arguments.out, entry)
                continue
            stored = (json.loads(arguments.out.read_text(encoding="utf-8"))
                      if arguments.out.exists() else {"seeds": {}})
            stored["seeds"][str(seed)] = entry
            stored["held_out_seeds"] = list(HELD_OUT_SEEDS)
            write_json(arguments.out, stored)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
