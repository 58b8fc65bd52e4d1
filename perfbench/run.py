#!/usr/bin/env python3
"""Repository benchmark: builds perfbench, runs one workload, prints metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Each measurement runs in a fresh process of the perfbench binary, so
caches and peak RSS never carry over between workloads. With --trace 0
the result carries the end-to-end metrics; with --trace 1 the per-layer
metrics of a separate traced run. Metric names and units are the ones
BENCHMARK.json lists. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import hashlib
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("core-oppoints", "rack-ingress", "slack-duty")
PINNED_ENV = ("STRETCH_QUICK_FACTOR", "STRETCH_OPPOINT_CACHE")
RUN_TIMEOUT_S = 160
# setup_s is the median of this many cold setups, each in a fresh
# process: the setup-only processes, then the measuring one.
SETUP_PROCESSES = 9
# Workloads whose setup runs on one thread. On a shared virtual machine
# one vCPU can run the same serial work at half the speed of another for
# tens of seconds, and processes started back to back land on the same
# vCPU; so these setups are spread round-robin over the CPUs. The
# rack-ingress setup runs on every worker and spreads by itself.
SERIAL_SETUP = ("core-oppoints", "slack-duty")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(f"perfbench: {msg}")
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configure (once) and build the Release binary; returns its path."""
    if not (ROOT / "src" / "sim" / "runner.h").is_file():
        fail(f"simulator sources not found under {ROOT}/src")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j4"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=850)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return out / "perfbench"


def run_binary(binary, args, cpu=None):
    """Run perfbench once (on CPU @cpu alone when given) and return its
    JSON result line."""
    outdir = build_dir().parent / "perfbench-out"
    outdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--out", str(outdir)] + args
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"exit {r.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def source_fingerprint():
    """sha256 over the simulator and benchmark sources: names the code
    even when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "bench", "perfbench")
                   for p in (ROOT / d).rglob("*")
                   if p.is_file() and p.suffix in (".cc", ".h", ".py", ".txt"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return r.stdout.strip() or "unknown"


def expected_digests():
    return json.loads((HERE / "digests.json").read_text())


def metric_specs():
    """(end-to-end, per-layer) lists of {"name", "unit", ...}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def _spin(seconds):
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        pass


def warm_host(seconds=2.0):
    """Keep every CPU busy briefly before measuring. On a virtual machine
    whose CPUs sat idle, the first second or two of parallel work runs
    at about half speed; that would land in setup_s."""
    procs = [multiprocessing.Process(target=_spin, args=(seconds,))
             for _ in range(min(4, os.cpu_count() or 1))]
    for p in procs:
        p.start()
    for p in procs:
        p.join()


def measure(binary, workload, seed, seconds, trace, extra=()):
    """One benchmark run in a fresh perfbench process; its raw result.
    Untraced runs first time further cold setups in setup-only
    processes, and setup_s becomes the median over all of them."""
    warm_host()
    args = ["--workload", workload, "--seed", str(seed)]
    cpus = sorted(os.sched_getaffinity(0))
    setups = []
    if not trace:
        for k in range(SETUP_PROCESSES - 1):
            cpu = cpus[k % len(cpus)] if workload in SERIAL_SETUP else None
            setups.append(run_binary(binary, args + ["--setup-only"],
                                     cpu)["setup_s"])
    raw = run_binary(binary, args + ["--seconds", str(seconds), "--trace",
                                     str(int(trace))] + list(extra))
    setups.append(raw["setup_s"])
    raw["setup_samples"] = setups
    raw["setup_s"] = statistics.median(setups)
    return raw


def evaluate(raw, expected_digest):
    """The result line: metrics plus the failure count, where a digest
    that differs from the recorded one fails every op of the
    verification pass (none of its outputs were reproduced)."""
    failed = raw["failed"]
    errors = list(raw["errors"])
    if raw["digest"] != expected_digest:
        failed = min(raw["attempted"], failed + raw["verify_ops"])
        errors.append(f"digest {raw['digest']} != recorded {expected_digest}")
    end_to_end, per_layer = metric_specs()
    if "layers" in raw:
        # A layer the workload does not exercise reports 0.
        unknown = set(raw["layers"]) - {m["name"] for m in per_layer}
        if unknown:
            fail(f"per-layer metrics missing from BENCHMARK.json: "
                 f"{sorted(unknown)}")
        metrics = {m["name"]: {"value": raw["layers"].get(m["name"], 0.0),
                               "unit": m["unit"]} for m in per_layer}
    else:
        metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]}
                   for m in end_to_end}
    result = {"correct": failed == 0, "attempted": raw["attempted"],
              "failed": failed, "metrics": metrics}
    return result, errors


def report(result, errors, raw):
    """Human-readable lines (everything before the final JSON line)."""
    print(f"env: workload={raw['workload']} seed={raw['seed']} "
          f"build={raw['build_type']} compiler={raw['compiler']} "
          f"nproc={raw['nproc']} commit={commit()} "
          f"sources={source_fingerprint()}")
    print(f"  error_rate = {result['failed'] / result['attempted']:.6f} ratio "
          f"({result['failed']} of {result['attempted']} ops failed)")
    for e in errors:
        print(f"  error: {e}")
    if "layers" in raw:
        for k, m in result["metrics"].items():
            print(f"  {k} = {m['value']:.6g} {m['unit']}")
        print(f"  largest unaccounted share of a traced op: "
              f"{raw['unaccounted_frac_max']:.4f}")
        print(f"  spans written to {raw['spans']}")
        return
    alias = ("sim_cycles_per_s" if raw["workload"] == "core-oppoints"
             else "sim_requests_per_s")
    for k, m in result["metrics"].items():
        note = ""
        if k == "op_ms_p90":
            note = (f"  (n={raw['ops']} ops, {raw['op_ms_p90_beyond']} "
                    f"beyond p90)")
        elif k == "sim_work_per_s":
            note = f"  (= {alias})"
        elif k == "setup_s":
            note = "  (median of " + ", ".join(
                f"{s:.4f}" for s in raw["setup_samples"]) + ")"
        print(f"  {k} = {m['value']:.6g} {m['unit']}{note}")
    print(f"  timed phase {raw['timed_s']:.3f} s; op-point cache "
          f"{raw['oppoint_hits']} hits / {raw['oppoint_misses']} misses; "
          f"peak RSS {raw['peak_rss_mb']:.1f} MB (per-layer metric)")


def self_test(binary):
    """Show that the checks have teeth: a broken invariant and a perturbed
    digest must both raise error_rate, while a clean run has none; and
    work done outside every child span of a traced op must count as a
    self-time violation."""
    digests = expected_digests()
    ok = True
    for w in WORKLOADS:
        short = ["--min-ops", "1"]
        raw = measure(binary, w, 42, 1, False, short)
        clean, _ = evaluate(raw, digests[w])
        flipped = format(int(digests[w], 16) ^ 1, "016x")
        perturbed, _ = evaluate(raw, flipped)
        broken, _ = evaluate(
            measure(binary, w, 42, 1, False, short + ["--break-invariant"]),
            digests[w])
        checks = {
            "clean run has no failures": clean["correct"],
            "perturbed digest raises error_rate": not perturbed["correct"]
            and perturbed["failed"] >= raw["verify_ops"],
            "broken invariant raises error_rate": not broken["correct"]
            and broken["failed"] >= 1,
        }
        for name, passed in checks.items():
            print(f"{w}: {'ok  ' if passed else 'FAIL'} {name}")
            ok = ok and passed
    # The attribution check is the harness's, the same for every
    # workload; the cheapest one shows it.
    w = "slack-duty"
    clean = measure(binary, w, 42, 1, True)["layers"]
    broken = measure(binary, w, 42, 1, True, ["--break-attribution"])["layers"]
    checks = {
        "clean traced run has no self-time violations":
            clean["trace.self_time_violations"] == 0,
        "unaccounted work raises trace.self_time_violations":
            broken["trace.self_time_violations"] >= 1,
    }
    for name, passed in checks.items():
        print(f"{w}: {'ok  ' if passed else 'FAIL'} {name}")
        ok = ok and passed
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()

    for var in PINNED_ENV:
        if var in os.environ:
            fail(f"refusing to run with {var} set: it changes what is "
                 f"measured", code=2)
    if not a.self_test and a.workload is None:
        p.error("--workload is required")
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if a.self_test:
        sys.exit(0 if self_test(binary) else 1)

    raw = measure(binary, a.workload, a.seed, a.seconds, bool(a.trace))
    result, errors = evaluate(raw, expected_digests()[a.workload])
    report(result, errors, raw)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
