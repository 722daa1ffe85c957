#!/usr/bin/env python3
"""Determinism self-test of the repository benchmark.

    python3 perfbench/selftest.py

For every workload it checks that
  - two runs of one seed report bit-identical virtual metrics,
  - a traced run passes (it fails itself unless its traced repetitions
    reproduce the untraced virtual metrics exactly, the checker stays
    silent and the label map covers at least 95% of charged time),
  - a held-out seed, never used while tuning, produces different inputs
    (different virtual metrics) and still passes validation.
Exits non-zero on the first failure.
"""

import sys

import run

TUNING_SEED = 1
HELD_OUT_SEED = 90017  # not used while tuning the benchmark
VIRTUAL = ("v_ops_per_s", "v_latency_p50_us", "v_latency_p99_us")


def measure(workload, seed, trace):
    code, lines = run.run(workload, seed, 1, trace)
    result = run.parse_result(lines)
    if code != 0 or result is None or not result["correct"] or \
            result["failed"] != 0:
        sys.stderr.write("\n".join(lines) + "\n")
        sys.exit("selftest: %s seed %d trace %d failed (exit %d)" %
                 (workload, seed, trace, code))
    return result["metrics"]


def virtual(metrics):
    return {k: metrics[k]["value"] for k in VIRTUAL}


def main():
    run.build()
    for workload in ("fleet_boot", "dns_udp", "web_store"):
        first = virtual(measure(workload, TUNING_SEED, 0))
        again = virtual(measure(workload, TUNING_SEED, 0))
        if first != again:
            sys.exit("selftest: %s virtual metrics differ across repeats "
                     "of one seed: %r vs %r" % (workload, first, again))
        measure(workload, TUNING_SEED, 1)
        held_out = virtual(measure(workload, HELD_OUT_SEED, 0))
        if held_out == first:
            sys.exit("selftest: %s seed %d gave the same virtual metrics "
                     "as seed %d" % (workload, HELD_OUT_SEED, TUNING_SEED))
        print("selftest: %s ok (seed %d %r; seed %d %r)" %
              (workload, TUNING_SEED, first, HELD_OUT_SEED, held_out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
