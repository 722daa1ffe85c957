#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fleet_boot|dns_udp|web_store \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the simulator from ../src) into
.bench_build/perfbench under the repository root, then runs one
workload. The program prints its report and, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones (setup_s and
sim_ops_per_s in reference-host seconds, see perfbench/main.cc), with
--trace 1 the per-layer ones; spans of the traced repetitions go to
.bench_build/perfbench/spans/<workload>-<seed>.json.

Exits non-zero without a result when the build fails, for example when
the simulator sources are missing, or when asked to time a sanitizer
build.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def cached_flags():
    """The optimisation flags the build compiles with, from its cache."""
    flags = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                for key in ("CMAKE_BUILD_TYPE", "CMAKE_CXX_FLAGS",
                            "CMAKE_CXX_FLAGS_RELWITHDEBINFO"):
                    if line.startswith(key + ":"):
                        flags[key] = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return flags


def build():
    for var in ("CXXFLAGS", "LDFLAGS"):
        if "-fsanitize" in os.environ.get(var, ""):
            sys.exit("run.py: refusing to time a sanitizer build "
                     "(%s sets -fsanitize)" % var)
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=log, stderr=log, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=log, stderr=log, check=True)
    flags = cached_flags()
    if "-fsanitize" in " ".join(flags.values()):
        sys.exit("run.py: refusing to time a sanitizer build")
    print("build: nproc=%d type=%s flags=%r" % (
        os.cpu_count() or 0, flags.get("CMAKE_BUILD_TYPE", ""),
        flags.get("CMAKE_CXX_FLAGS_RELWITHDEBINFO", "")), file=log)


def run(workload, seed, seconds, trace, spans=None):
    """Run the built program; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """The trailing JSON result, or None if the program printed none."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys \
        else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["fleet_boot", "dns_udp", "web_store"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("run.py: build failed: %s" % e)
    spans = None
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir,
                             "%s-%d.json" % (args.workload, args.seed))
    code, lines = run(args.workload, args.seed, args.seconds, args.trace,
                      spans)
    if parse_result(lines) is None:
        sys.stderr.write("\n".join(lines) + "\n")
        sys.exit("run.py: the benchmark printed no result (exit %d)" % code)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
