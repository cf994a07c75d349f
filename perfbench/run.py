#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --record-references FIRST-LAST[,SEED...]

The first form prints the benchmark's result JSON as the last line of
stdout (build output and diagnostics go to stderr). The benchmark binary
prints the measured values by name; this script checks that they are exactly
the metrics BENCHMARK.json declares for the mode (end_to_end for --trace 0,
per_layer for --trace 1) and attaches the declared units. --selftest builds
and runs the benchmark's self-test. --record-references rewrites
perfbench/reference_digests.txt for the given seeds of every workload.

The build lives in .bench_build/perfbench under the checkout root; traced
runs write their spans to .bench_build/traces/.
"""

import argparse
import json
import re
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
REFERENCES = BENCH_DIR / "reference_digests.txt"
BUILD_JOBS = "4"
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def run(cmd, **kwargs):
    """Runs cmd to completion; a signal to this script stops the child too."""
    child = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = child.communicate()
        return child.returncode, out
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def build(target):
    """Configures (once) and builds `target`; exits 1 on failure."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        code, _ = run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                       "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if code != 0:
            sys.exit("perfbench: cmake configure failed")
    code, _ = run(["cmake", "--build", str(BUILD_DIR), "--target", target,
                   "-j", BUILD_JOBS], stdout=sys.stderr)
    if code != 0:
        sys.exit("perfbench: build failed")
    return BUILD_DIR / target


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def workload_names():
    return [w["name"] for w in benchmark_spec()["workloads"]]


def selftest():
    code, _ = run([str(build("perfbench_selftest"))], stdout=sys.stderr)
    if code != 0:
        sys.exit("perfbench: selftest failed")


def with_units(result, kind):
    """The binary's result with each value paired with its declared unit.

    Exits 1 when the measured names differ from those BENCHMARK.json declares
    under `kind`. Only a run with a failed experiment may leave a declared
    metric unmeasured; it reads 0.
    """
    units = {m["name"]: m["unit"] for m in benchmark_spec()[kind]}
    values = result["values"]
    unknown = sorted(set(values) - set(units))
    missing = sorted(set(units) - set(values))
    bad = [n for n in values if not METRIC_NAME.fullmatch(n)]
    if unknown or bad or (missing and result["correct"]):
        sys.exit(f"perfbench: measured {kind} metrics differ from BENCHMARK.json: "
                 f"undeclared {unknown}, unmeasured {missing}, malformed {bad}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            first, last = part.split("-")
            seeds.extend(range(int(first), int(last) + 1))
        else:
            seeds.append(int(part))
    return seeds


def record_references(spec):
    seeds = parse_seeds(spec)
    binary = build("perfbench")
    lines = ["# Reference result digests: <workload> <seed> <FNV-1a 64 of the",
             "# ResultToJson bytes>. Regenerate with",
             "#   python3 perfbench/run.py --record-references " + spec,
             "# only when a change alters the metric JSON on purpose."]
    for name in workload_names():
        for seed in seeds:
            code, out = run([str(binary), "--digest-only", "--workload", name,
                             "--seed", str(seed)], stdout=subprocess.PIPE, text=True)
            if code != 0:
                sys.exit(f"perfbench: {name} seed {seed} failed its output check")
            lines.append(out.strip())
            print(lines[-1], file=sys.stderr)
    REFERENCES.write_text("\n".join(lines) + "\n")


def main():
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-references", metavar="SEEDS")
    args = parser.parse_args()

    if args.selftest:
        selftest()
        return 0
    if args.record_references:
        record_references(args.record_references)
        return 0
    if not args.workload:
        parser.error("--workload is required")

    binary = build("perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--references", str(REFERENCES)]
    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")]
    code, out = run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.exit(f"perfbench: the benchmark exited with code {code}")
    kind = "per_layer" if args.trace else "end_to_end"
    print(json.dumps(with_units(json.loads(lines[-1]), kind)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
