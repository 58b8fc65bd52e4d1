#!/usr/bin/env python3
"""Alternating A/B pairs of the repository benchmark between two commits.

Exports BASE and HEAD with ``git archive`` into a work directory, builds
each one's perfbench once (its own ``CARGO_TARGET_DIR``), then runs
``perfbench/run.py`` from each export, unchanged, N times per side. Pair
i runs BASE first when i is odd and HEAD first when i is even, so a
drift of the host over the session lands on both sides.

It prints each pair's ops_per_s and their ratio, each side's median
and quartiles of every metric the runs report, the pairs HEAD won, and
a one-sided sign-test p-value. The verdict, on ops_per_s, is GAIN when
HEAD won at least 9 of every 10 pairs and its median beats BASE's by
more than BASE's interquartile range; otherwise NO GAIN. Quartiles are
type 7 (linear interpolation, as numpy's default). A metric's better
direction comes from BENCHMARK.json. Each run lasts run.py's default
length. A traced run (--trace 1) reports per-layer metrics only, so
traced pairs print the metric table without a verdict.

Usage:
    tools/ab_pairs.py BASE HEAD --workload W --pairs N [--seed S]
        [--trace 0|1] [--workdir DIR]

Exits 0 after printing the report (whatever the verdict), 1 when a
build or run fails.
"""

import argparse
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_WIN_SHARE = 0.9
METRIC = "ops_per_s"  # the metric the verdict judges


def quantile(values, q):
    """Type-7 quantile of a non-empty sequence, q in [0, 1]."""
    s = sorted(values)
    rank = q * (len(s) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def median(values):
    return quantile(values, 0.5)


def iqr(values):
    return quantile(values, 0.75) - quantile(values, 0.25)


def wins(base, head, better):
    """(head wins, ties) over index-matched pairs; `better` is "higher"
    or "lower"."""
    won = tied = 0
    for b, h in zip(base, head):
        if h == b:
            tied += 1
        elif (h > b) == (better == "higher"):
            won += 1
    return won, tied


def sign_test_p(won, trials):
    """One-sided sign-test p-value: the chance of at least `won` wins in
    `trials` fair coin flips (ties are not trials)."""
    if trials == 0:
        return 1.0
    return sum(math.comb(trials, k)
               for k in range(won, trials + 1)) / 2 ** trials


def verdict(base, head, better):
    """The pair statistics of one metric and whether HEAD's gain is
    claimed: at least MIN_WIN_SHARE of the pairs won, and a median gap
    in the better direction larger than BASE's IQR."""
    won, tied = wins(base, head, better)
    gap = median(head) - median(base)
    if better == "lower":
        gap = -gap
    spread = iqr(base)
    gain = (len(base) > 0 and won >= MIN_WIN_SHARE * len(base)
            and gap > spread)
    return {"pairs": len(base), "won": won, "tied": tied,
            "p_one_sided": sign_test_p(won, len(base) - tied),
            "median_gap": gap, "base_iqr": spread, "gain": gain}


def ratios(base, head):
    return [h / b if b else math.inf for b, h in zip(base, head)]


def directions():
    """Metric name -> "higher" | "lower", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


# ------------------------------------------------------------ side effects

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def resolve(rev):
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                        f"{rev}^{{commit}}"], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit(f"ab_pairs: unknown commit {rev!r}: {r.stderr.strip()}")
    return r.stdout.strip()


def export(sha, dest):
    """The commit's files under dest (extracted once)."""
    if (dest / "perfbench" / "run.py").is_file():
        return
    dest.mkdir(parents=True, exist_ok=True)
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                         stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest)


def side_env(target):
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = str(target)
    return env


def build(src, target):
    """Build the export's perfbench once, through its own run.py."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "run.build()")
    r = subprocess.run([sys.executable, "-c", code, str(src / "perfbench")],
                       env=side_env(target))
    if r.returncode != 0:
        sys.exit(f"ab_pairs: building {src} failed")


def run_once(src, target, a):
    cmd = [sys.executable, str(src / "perfbench" / "run.py"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--trace", str(a.trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       env=side_env(target))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"ab_pairs: exit {r.returncode}: {' '.join(cmd)}")
    res = json.loads(lines[-1])
    return {"failed": res["failed"],
            "metrics": {k: m["value"] for k, m in res["metrics"].items()}}


def report(labels, runs, a, better):
    base, head = runs["base"], runs["head"]
    m = METRIC
    judged = m in base[0]["metrics"]
    print(f"ab_pairs: {a.workload}, seed {a.seed}, trace {a.trace}; "
          f"base {labels['base']}, head {labels['head']}")
    if judged:
        bv = [r["metrics"][m] for r in base]
        hv = [r["metrics"][m] for r in head]
        w = len("head " + m)
        print(f"{'pair':>4}  {'first':5}  {'base ' + m:>{w}}  "
              f"{'head ' + m:>{w}}  ratio")
        for i, (b, h, q) in enumerate(zip(bv, hv, ratios(bv, hv)), 1):
            first = "base" if i % 2 else "head"
            print(f"{i:>4}  {first:5}  {b:>{w}.6g}  {h:>{w}.6g}  {q:.3f}")

    def cell(v):
        return (f"{median(v):.6g} [{quantile(v, 0.25):.6g}, "
                f"{quantile(v, 0.75):.6g}]")

    rows = [("metric", "better", "base median [q1, q3]",
             "head median [q1, q3]", "ratio", "wins")]
    for name in sorted(base[0]["metrics"]):
        if name not in better:
            continue
        b = [r["metrics"][name] for r in base]
        h = [r["metrics"][name] for r in head]
        won, _ = wins(b, h, better[name])
        ratio = median(h) / median(b) if median(b) else math.inf
        rows.append((name, better[name], cell(b), cell(h), f"{ratio:.3f}",
                     f"{won}/{len(b)}"))
    widths = [max(len(r[k]) for r in rows) for k in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    print(f"failed ops: base {sum(r['failed'] for r in base)}, head "
          f"{sum(r['failed'] for r in head)} (over {len(base)} runs each)")
    if not judged:
        print(f"no verdict: traced runs report no {m}")
        return
    v = verdict(bv, hv, better[m])
    print(f"verdict on {m}: head won {v['won']}/{v['pairs']} pairs "
          f"({v['tied']} tied), sign test p = {v['p_one_sided']:.4g} "
          f"(one-sided); median gap {v['median_gap']:.6g} vs base IQR "
          f"{v['base_iqr']:.6g} -> {'GAIN' if v['gain'] else 'NO GAIN'}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path,
                   help="exports and builds (default: a new temp dir)")
    a = p.parse_args()
    if a.pairs < 1:
        p.error("--pairs must be >= 1")
    better = directions()

    work = a.workdir or Path(tempfile.mkdtemp(prefix="ab_pairs-"))
    labels = {"base": resolve(a.base), "head": resolve(a.head)}
    dirs = {}
    for side, sha in labels.items():
        src = work / f"src-{sha}"
        target = work / f"target-{sha}"
        export(sha, src)
        log(f"ab_pairs: building {side} {sha} in {target}")
        build(src, target)
        dirs[side] = (src, target)

    runs = {"base": [], "head": []}
    for i in range(1, a.pairs + 1):
        order = ("base", "head") if i % 2 else ("head", "base")
        for side in order:
            log(f"ab_pairs: pair {i}/{a.pairs}: {side}")
            runs[side].append(run_once(*dirs[side], a))
    report(labels, runs, a, better)


if __name__ == "__main__":
    main()
