#!/usr/bin/env python3
"""Self-test of the benchmark program on short runs of every workload.

    python3 perfbench/test_perfbench.py

Builds the program the way run.py does, then checks for each workload that
  * the same seed gives identical simulated metrics, exact counts and
    end-state digest in two separate processes;
  * another seed gives another digest (the seed reaches the inputs);
  * span timing (--spans) and cluster tracing (--attr) leave the simulated
    metrics, counts and digest unchanged;
  * every run passes the program's correctness checks.
It also checks that run.py prints exactly the metrics BENCHMARK.json
declares, with the same units. Exits nonzero if any check failed.
"""

import json
import sys

import run


def check_declared(failures):
    declared = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    for section, ours in (("end_to_end", run.END_TO_END),
                          ("per_layer", run.PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in declared[section]}
        if theirs != ours:
            failures.append(f"{section}: run.py and BENCHMARK.json differ")


def main():
    binary = run.build()
    if binary is None:
        return 2
    failures = []
    check_declared(failures)
    for workload in run.WORKLOADS:
        def rep(seed, *flags):
            r = run.run_rep(binary, workload, seed, ["--short", *flags])
            if r is None:
                failures.append(f"{workload} seed {seed} {flags}: no report")
                return None
            if not r["correct"] or r["exit_code"] != 0:
                failures.append(f"{workload} seed {seed} {flags}: "
                                f"{r['errors']}")
            return r

        base = rep(1)
        again = rep(1)
        other = rep(2)
        spans = rep(1, "--spans")
        attr = rep(1, "--attr")
        if None in (base, again, other, spans, attr):
            continue
        ref = run.exact_part(base)
        for name, r in (("rerun", again), ("--spans", spans),
                        ("--attr", attr)):
            if run.exact_part(r) != ref:
                failures.append(f"{workload}: {name} changed simulated "
                                "metrics, counts or digest")
        if other["digest"] == base["digest"]:
            failures.append(f"{workload}: seeds 1 and 2 gave one digest")
        print(f"{workload}: digest {base['digest']} "
              f"(seed 2: {other['digest']})")
    for f in failures:
        print("FAIL:", f)
    print("ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
