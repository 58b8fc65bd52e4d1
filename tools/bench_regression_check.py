#!/usr/bin/env python3
"""Compare tracked bench throughput against the committed baseline snapshot.

Reads two ``bench_to_json.py`` outputs and compares ``items_per_second``
for the tracked benches in the embedded ``bench_perf_micro``
google-benchmark JSON: the end-to-end engine benches — names starting
with ``BM_Engine``, ``BM_Dispatch``, or ``BM_Cluster``, whose items are
simulated requests — the cycle-level core benches — names starting
with ``BM_Core``, whose items are simulated cycles or cold operating
points — and the single-service request simulator's benches — names
starting with ``BM_Queueing``, whose items are simulated requests, with
and without the duty-cycle modulator. Exits 1 when any bench fell
below ``(1 - threshold)`` times its baseline, 0 otherwise. Benches at or
above ``(1 + threshold)`` times baseline are flagged IMPROVED — the cue
to refresh BENCH_baseline.json so the new level becomes the floor.

With ``--trajectory PATH --commit SHA`` the current rates are also
appended to a perf-trajectory ledger: a JSON list of
``{"commit", "bench", "items_per_second"}`` entries, one per tracked
bench per commit, so throughput history is machine-readable across the
repo's life. Re-running for the same commit replaces that commit's
entries instead of duplicating them.

Missing inputs are not failures: a baseline that has not been committed
yet, a skipped perf-micro run (google-benchmark absent), or a bench name
present on only one side all produce a note and exit 0. The CI bench job
runs this non-blockingly (``continue-on-error``) on top of that, so the
check informs — perf noise never gates a merge.

Usage:
    tools/bench_regression_check.py --baseline BENCH_baseline.json \
        --current BENCH_results.json [--threshold 0.15] \
        [--trajectory BENCH_trajectory.json --commit $(git rev-parse HEAD)]
"""

import argparse
import json
import sys
from pathlib import Path

TRACKED_PREFIXES = ("BM_Engine", "BM_Dispatch", "BM_Cluster", "BM_Core",
                    "BM_Queueing")


def engine_throughputs(path: Path):
    """Map tracked bench name -> items_per_second, or None with a note."""
    if not path.exists():
        return None, f"{path} does not exist"
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        return None, f"{path}: unreadable ({e})"
    micro = doc.get("benches", {}).get("bench_perf_micro", {})
    if "skipped" in micro:
        return None, f"{path}: bench_perf_micro skipped ({micro['skipped']})"
    if "error" in micro:
        return None, f"{path}: bench_perf_micro errored ({micro['error']})"
    rates = {}
    for b in micro.get("benchmark", {}).get("benchmarks", []):
        name = b.get("name", "")
        if name.startswith(TRACKED_PREFIXES) and "items_per_second" in b:
            rates[name] = float(b["items_per_second"])
    if not rates:
        tracked = "/".join(p + "*" for p in TRACKED_PREFIXES)
        return None, f"{path}: no {tracked} entries"
    return rates, None


def compare(base: dict, cur: dict, threshold: float):
    """Pure comparison of two name->rate maps.

    Returns ``(rows, notes)``. Each row is a dict with ``name``,
    ``baseline``, ``current``, ``floor`` and a ``verdict`` of
    ``REGRESSED`` (current < baseline * (1 - threshold)),
    ``IMPROVED`` (current >= baseline * (1 + threshold)), or ``ok``.
    Names present on only one side become notes, never verdicts.
    """
    rows = []
    notes = []
    for name in sorted(base):
        if name not in cur:
            notes.append(f"{name} only in baseline, skipping")
            continue
        floor = base[name] * (1.0 - threshold)
        if cur[name] < floor:
            verdict = "REGRESSED"
        elif cur[name] >= base[name] * (1.0 + threshold):
            verdict = "IMPROVED"
        else:
            verdict = "ok"
        rows.append({"name": name, "baseline": base[name],
                     "current": cur[name], "floor": floor,
                     "verdict": verdict})
    for name in sorted(set(cur) - set(base)):
        notes.append(f"{name} has no baseline yet")
    return rows, notes


def update_trajectory(entries, commit: str, rates: dict):
    """Merge this commit's rates into the trajectory ledger (pure).

    ``entries`` is the existing list of ``{commit, bench,
    items_per_second}`` dicts. Entries for @p commit are replaced (a
    re-run supersedes, it never duplicates); other commits' history is
    preserved in order, with this commit's benches appended sorted by
    name so the file diffs cleanly.
    """
    kept = [e for e in entries
            if isinstance(e, dict) and e.get("commit") != commit]
    for name in sorted(rates):
        kept.append({"commit": commit, "bench": name,
                     "items_per_second": rates[name]})
    return kept


def append_trajectory(path: Path, commit: str, rates: dict):
    """Load, merge, and write back the trajectory ledger at @p path."""
    entries = []
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, list):
                entries = loaded
        except (OSError, ValueError):
            print(f"note: {path} unreadable, starting a fresh trajectory")
    entries = update_trajectory(entries, commit, rates)
    path.write_text(json.dumps(entries, indent=2) + "\n")
    return len(entries)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default="BENCH_baseline.json", type=Path)
    ap.add_argument("--current", default="BENCH_results.json", type=Path)
    ap.add_argument("--threshold", default=0.15, type=float,
                    help="fractional band vs baseline: below 1-t is a "
                         "regression, at or above 1+t is an improvement "
                         "(default 0.15 = 15%%)")
    ap.add_argument("--trajectory", type=Path, default=None,
                    help="perf-trajectory JSON ledger to append the "
                         "current rates to (requires --commit)")
    ap.add_argument("--commit", default=None,
                    help="commit SHA to key trajectory entries by")
    args = ap.parse_args()

    cur, cur_note = engine_throughputs(args.current)

    if args.trajectory is not None and cur is not None:
        if args.commit:
            n = append_trajectory(args.trajectory, args.commit, cur)
            print(f"trajectory: {args.trajectory} now has {n} entries "
                  f"({len(cur)} for {args.commit[:12]})")
        else:
            print("note: --trajectory given without --commit, not recording")

    base, note = engine_throughputs(args.baseline)
    if base is None:
        print(f"note: no baseline to compare against — {note}")
        return 0
    if cur is None:
        print(f"note: no current results to check — {cur_note}")
        return 0

    rows, notes = compare(base, cur, args.threshold)
    for n in notes:
        print(f"note: {n}")
    regressions = []
    improvements = []
    for r in rows:
        print(f"{r['verdict']:>9}  {r['name']}: {r['current']:.3e} req/s "
              f"(baseline {r['baseline']:.3e}, floor {r['floor']:.3e})")
        if r["verdict"] == "REGRESSED":
            regressions.append(r["name"])
        elif r["verdict"] == "IMPROVED":
            improvements.append(r["name"])

    if improvements:
        print(f"IMPROVED: {len(improvements)} bench(es) gained more than "
              f"{args.threshold:.0%}: {', '.join(improvements)} — consider "
              f"refreshing BENCH_baseline.json to lock in the new floor")
    if regressions:
        print(f"FAIL: {len(regressions)} bench(es) regressed more than "
              f"{args.threshold:.0%}: {', '.join(regressions)}")
        return 1
    print("all tracked benches within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
