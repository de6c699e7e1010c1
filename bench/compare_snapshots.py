#!/usr/bin/env python3
"""Check that each BENCH_*.json snapshot tracked at a git revision parses
to the same JSON value as the working-tree file once the wall-clock
members are dropped from the old one.  Layout and number spelling may
differ; values may not.

    python3 bench/compare_snapshots.py REV

Exits 1 on any difference or missing file.
"""
import fnmatch
import json
import subprocess
import sys

WALL_CLOCK = {
    "wall_ms", "integrate_ms", "baseline_integrate_ms",
    "append_ops_per_sec", "append_mb_per_sec",
    "encode_ops_per_sec", "encode_mb_per_sec", "recover_ms",
    "plain_ms", "annotated_ms", "repair_ms", "live_query_ms", "scratch_ms",
    "mean_repair_ms", "mean_scratch_ms",
}


def strip(v):
    if isinstance(v, dict):
        return {k: strip(x) for k, x in v.items() if k not in WALL_CLOCK}
    if isinstance(v, list):
        return [strip(x) for x in v]
    return v


def main(rev):
    tracked = subprocess.run(
        ["git", "ls-tree", "--name-only", rev],
        check=True, capture_output=True, text=True).stdout.split()
    names = fnmatch.filter(tracked, "BENCH_*.json")
    bad = 0
    for name in names:
        old = json.loads(subprocess.run(
            ["git", "show", f"{rev}:{name}"],
            check=True, capture_output=True, text=True).stdout)
        try:
            with open(name) as f:
                new = json.load(f)
        except OSError as e:
            print(f"{name}: {e}")
            bad += 1
            continue
        same = strip(old) == new
        print(f"{name}: {'same value' if same else 'DIFFERS'}")
        bad += not same
    return 1 if bad or not names else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "HEAD"))
