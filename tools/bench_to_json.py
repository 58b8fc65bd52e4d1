#!/usr/bin/env python3
"""Run benches and collect their results into one machine-readable JSON.

Figure benches are run with ``--csv`` (each emits its tables as aligned
ASCII followed by a CSV mirror); this script pairs every ``== title ==``
heading with the CSV block that follows it and stores header + rows.
``bench_perf_micro`` is a google-benchmark binary, so it is asked for
native JSON (``--benchmark_format=json``) and embedded verbatim; when the
binary was not built (google-benchmark absent) the entry records that it
was skipped instead of failing the whole collection.

Usage:
    tools/bench_to_json.py --build-dir build --out BENCH_results.json \
        [--quick] [--bench NAME ...]
"""

import argparse
import csv
import io
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_BENCHES = ["bench_fig15_diurnal_fleet", "bench_cluster"]


def is_heading(line: str) -> bool:
    stripped = line.strip()
    return stripped.startswith("== ") and stripped.endswith(" ==")


def parse_tables(stdout: str):
    """Pair '== title ==' headings with the CSV blocks that follow."""
    lines = stdout.splitlines()
    titles = [ln.strip()[3:-3].strip() for ln in lines if is_heading(ln)]

    # CSV blocks: maximal runs of consecutive CSV lines. The aligned
    # tables can contain commas inside padded cells ("slack, throttle"),
    # so a line only counts as CSV when it has a comma and no run of
    # spaces (printCsv never pads). A heading is never CSV, even when
    # its title has commas.
    blocks, current = [], []
    for ln in lines:
        is_csv = not is_heading(ln) and "," in ln and "  " not in ln
        fields = next(csv.reader(io.StringIO(ln)), []) if is_csv else []
        if len(fields) >= 2:
            current.append(fields)
        elif current:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)

    tables = []
    for i, block in enumerate(blocks):
        tables.append({
            "title": titles[i] if i < len(titles) else f"table_{i}",
            "header": block[0],
            "rows": block[1:],
        })
    return tables


def run_figure_bench(binary: Path, quick: bool):
    cmd = [str(binary), "--csv"] + (["--quick"] if quick else [])
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}",
                "stderr_tail": proc.stderr[-2000:]}
    return {
        "command": " ".join(cmd),
        "elapsed_seconds": round(time.time() - started, 2),
        "tables": parse_tables(proc.stdout),
    }


def run_perf_micro(binary: Path):
    if not binary.exists():
        return {"skipped": "google-benchmark not available at build time"}
    cmd = [str(binary), "--benchmark_format=json"]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}",
                "stderr_tail": proc.stderr[-2000:]}
    return {
        "command": " ".join(cmd),
        "elapsed_seconds": round(time.time() - started, 2),
        "benchmark": json.loads(proc.stdout),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build", type=Path)
    ap.add_argument("--out", default="BENCH_results.json", type=Path)
    ap.add_argument("--quick", action="store_true",
                    help="pass --quick to the figure benches")
    ap.add_argument("--bench", action="append", default=None,
                    metavar="NAME",
                    help="figure bench to run (repeatable; default: "
                         + ", ".join(DEFAULT_BENCHES))
    args = ap.parse_args()

    # Envelope fields shared with the C++ run-report schema (see
    # docs/OBSERVABILITY.md): schemaVersion/kind/generator identify the
    # document, camelCase field names throughout. Version 2 renamed
    # schema -> schemaVersion and generated_utc -> generatedUtc.
    results = {
        "schemaVersion": 2,
        "kind": "bench-results",
        "generator": "stretch",
        "generatedUtc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "platform": platform.platform(),
        "mode": "quick" if args.quick else "full",
        "benches": {},
    }

    failures = 0
    for name in args.bench or DEFAULT_BENCHES:
        binary = args.build_dir / name
        if not binary.exists():
            print(f"error: {binary} not built", file=sys.stderr)
            failures += 1
            continue
        print(f"running {name} ...", file=sys.stderr)
        results["benches"][name] = run_figure_bench(binary, args.quick)
        if "error" in results["benches"][name]:
            failures += 1

    print("running bench_perf_micro ...", file=sys.stderr)
    results["benches"]["bench_perf_micro"] = run_perf_micro(
        args.build_dir / "bench_perf_micro")
    if "error" in results["benches"]["bench_perf_micro"]:
        failures += 1

    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
