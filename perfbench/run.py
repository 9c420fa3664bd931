#!/usr/bin/env python3
"""Runs one workload of the dlog benchmark and prints its result.

    python3 perfbench/run.py --workload fleet|lan1987|recovery \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the perfbench program
(perfbench/CMakeLists.txt, Release, against ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, then runs the program repeatedly, one process per repetition, for
at most about S seconds of wall time (at least three repetitions):

  --trace 0  untraced repetitions. Host metrics (setup_s, host_us_per_txn,
             peak_rss_mb) are the median over the repetitions; simulated
             metrics are exact for the seed.
  --trace 1  one repetition with the cluster tracer and profiler on (force
             latency attribution), then untraced and span-timed repetitions
             in turn. Prints the per-layer metrics.

Every repetition of a seed must report identical simulated metrics, exact
counts and end-state digest, and pass the program's own correctness
checks; otherwise the result carries "correct": false and the exit status
is 1. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "host_us_per_txn": "us",
    "peak_rss_mb": "MB",
    "goodput_tps": "1/s",
    "force_mean_ms": "ms",
    "force_p99_ms": "ms",
    "capacity_tps": "1/s",
    "recovery_p50_ms": "ms",
    "recovery_p90_ms": "ms",
    "read_mean_ms": "ms",
    "ack_frac": "frac",
}
HOST_END_TO_END = ("setup_s", "host_us_per_txn", "peak_rss_mb")

# Exact counts (identical on every repetition of a seed).
COUNTS = {
    "sim.events_per_txn": "count",
    "sim.pending_events": "count",
    "tp.log_bytes_per_txn": "B",
    "tp.reads_per_recovery": "count",
    "tp.recover_fail_frac": "frac",
    "client.records_per_batch": "count",
    "client.resends_per_kforce": "count",
    "client.server_switches": "count",
    "client.init_p50_ms": "ms",
    "client.init_p99_ms": "ms",
    "client.read_local_frac": "frac",
    "client.read_p99_ms": "ms",
    "wire.bytes_copied_per_record": "B",
    "net.packets_per_txn": "count",
    "net.bits_per_txn": "bit",
    "net.lan_util": "frac",
    "net.drop_frac": "frac",
    "server.records_per_track": "count",
    "server.records_written_per_txn": "count",
    "server.cpu_util": "frac",
    "server.read_rpcs_per_read": "count",
    "storage.disk_util": "frac",
    "storage.disk_writes_per_force": "count",
    "storage.disk_reads_per_recovery": "count",
    "storage.nvram_max_bytes": "B",
    "flow.shed_frac": "frac",
    "flow.txn_refused_frac": "frac",
}
# Host nanoseconds from the span-timed repetitions (medians).
TIMING = {
    "sim.runfor_self_ns_per_txn": "ns",
    "sim.replay_dispatch_ns": "ns",
    "tp.submit_self_ns_per_txn": "ns",
    "client.submit_ns_per_txn": "ns",
    "harness.arrival_self_ns_per_txn": "ns",
    "wire.encode_ns_per_record": "ns",
    "wire.decode_ns_per_record": "ns",
    "server.track_encode_ns": "ns",
    "server.track_decode_ns": "ns",
    "forest.find_ns": "ns",
}
ATTR = {
    "attr.client_cpu_ms": "ms",
    "attr.net_queue_ms": "ms",
    "attr.net_transmit_ms": "ms",
    "attr.server_cpu_ms": "ms",
    "attr.buffer_wait_ms": "ms",
    "attr.rotation_wait_ms": "ms",
    "attr.media_write_ms": "ms",
    "attr.ack_return_ms": "ms",
}
PER_LAYER = dict(COUNTS, **TIMING, **ATTR)
PER_LAYER["client.rss_kb_per_client"] = "KB"
PER_LAYER["obs.trace_overhead_frac"] = "frac"

WORKLOADS = ("fleet", "lan1987", "recovery")
# Every run ends within this many seconds of the program being built, even
# when a repetition hangs.
RUN_LIMIT_S = 165


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the program; returns its path or None."""
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (base if base.is_absolute() else Path.cwd() / base) / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return build_dir / "perfbench"


def run_rep(binary, workload, seed, flags, timeout=RUN_LIMIT_S):
    """One repetition in its own process; returns its JSON report."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)] + flags
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        log(f"{' '.join(cmd)} timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{' '.join(cmd)} exited {proc.returncode} without a report")
        sys.stderr.write(proc.stderr[-2000:])
        return None
    report = json.loads(lines[-1])
    report["exit_code"] = proc.returncode
    return report


def exact_part(report):
    return (report["sim"], report["counts"], report["digest"],
            report["attempted"], report["failed"])


def median(reports, section, key):
    return statistics.median(r[section][key] for r in reports)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2

    start = time.monotonic()
    plain, spans, attr = [], [], []
    problems = []

    def rep(flags, into):
        r = run_rep(binary, args.workload, args.seed, flags,
                    RUN_LIMIT_S - (time.monotonic() - start))
        if r is None:
            problems.append("a repetition produced no report")
            return False
        if not r["correct"] or r["exit_code"] != 0:
            problems.append(f"{' '.join(flags) or 'untraced'} repetition: "
                            + "; ".join(e["error"] for e in r["errors"]))
        into.append(r)
        return True

    def another(rounds, minimum):
        # One more round of repetitions if it should end within --seconds.
        elapsed = time.monotonic() - start
        return (rounds < minimum or
                elapsed + elapsed / rounds <= args.seconds)

    if args.trace == 0:
        while another(len(plain), 3):
            if not rep([], plain):
                break
    else:
        ok = rep(["--attr"], attr)
        while ok and another(len(spans) + 1, 2):
            ok = rep([], plain) and rep(["--spans"], spans)

    reports = plain + spans + attr
    if not plain:
        log("; ".join(problems) or "no repetition completed")
        return 1
    first = exact_part(plain[0])
    for r in reports[1:]:
        if exact_part(r) != first:
            problems.append("simulated metrics, counts or digest differ "
                            "between repetitions of one seed")
            break

    metrics = {}
    if args.trace == 0:
        for name, unit in END_TO_END.items():
            if name in HOST_END_TO_END:
                value = median(plain, "host", name)
            else:
                value = plain[0]["sim"][name]
            metrics[name] = {"value": value, "unit": unit}
    elif spans and attr:
        for name, unit in COUNTS.items():
            metrics[name] = {"value": plain[0]["counts"][name], "unit": unit}
        for name, unit in TIMING.items():
            metrics[name] = {"value": median(spans, "timing", name),
                             "unit": unit}
        for name, unit in ATTR.items():
            metrics[name] = {"value": attr[0]["attr"][name], "unit": unit}
        metrics["client.rss_kb_per_client"] = {
            "value": median(plain, "host", "client.rss_kb_per_client"),
            "unit": "KB"}
        metrics["obs.trace_overhead_frac"] = {
            "value": median(spans, "host", "host_us_per_txn") /
            median(plain, "host", "host_us_per_txn") - 1.0,
            "unit": "frac"}

    for p in problems:
        log(p)
    print(f"perfbench: workload {args.workload} seed {args.seed} "
          f"repetitions {len(reports)} digest {plain[0]['digest']} "
          f"wall {time.monotonic() - start:.1f}s")
    correct = not problems and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": int(plain[0]["attempted"]),
        "failed": int(plain[0]["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
