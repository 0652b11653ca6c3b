#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh BENCH_*.json against the previous
CI run's artifact and fail on a throughput regression beyond the threshold,
plus a longer-horizon trajectory gate that keeps the last N runs and fails
on cumulative drift -- slow per-run drips the single-step gate cannot see.

Usage:
    check_bench_regression.py --old prev/BENCH_service.json \
        --new build/BENCH_service.json [--threshold 0.25] \
        [--history hist/service.json] [--window 10]

The headline metric is auto-detected from the file shape:
  * BENCH_service.json  -> warm-cache q/s of the widest thread sweep row
    (the 8-thread warm serving number the service optimizes for).
  * BENCH_shard.json    -> uncached Exact q/s at 4 shards.
  * BENCH_kernels.json  -> kernel-path AND q/s on the skewed microbench.
  * BENCH_disk.json     -> modeled NRA-disk q/s at 4 shards, resident
    fraction 0 (the fully disk-resident per-shard-device row).
  * BENCH_workload.json -> sequential-replay q/s of the feedback-placement
    phase on the recorded trace.
  * BENCH_subscribe.json -> end-to-end ingest batches/s with the standing-
    query fan-out active (incremental delta path, re-mine fallback priced
    in).

Latency gate: tail latency is part of the serving contract, so some
percentile columns are gated alongside throughput (lower is better; fail
when the new value exceeds the baseline by more than the threshold AND by
more than a small absolute floor, so micro-run jitter on near-zero values
cannot fail CI):
  * BENCH_workload.json -> replay p50/p95/p99.
  * BENCH_service.json  -> warm p95/p99 of the widest thread sweep row.
p999 and the mixed read/update block stay informational -- too few
samples per run to gate.

A missing or unparsable baseline skips the single-step gate (exit 0) -- the
first run of a repository has nothing to compare against; the freshly
uploaded artifact becomes the next run's baseline.

With --history, the headline value is appended to a rolling JSON artifact
(trimmed to the last --window runs, current run included) and the gate
additionally fails when the current value has drifted more than the
threshold below the best value in the window. The updated history file is
written back in place so CI can re-upload it as the next run's artifact.
"""

import argparse
import json
import sys


LATENCY_FLOOR_MS = 0.05


def headline(data):
    """Returns (metric_name, value) for a parsed bench JSON."""
    if "subscription" in data:
        sub = data["subscription"]
        return ("incremental standing-query batches/s with %d subscriptions"
                % sub.get("subscriptions", 0), sub["batches_per_sec"])
    if "placement" in data and "replay" in data:
        return ("feedback-placement replay q/s on the workload trace",
                data["replay"]["qps"])
    if "warm_sweep" in data:
        rows = data["warm_sweep"]
        if not rows:
            return None
        row = max(rows, key=lambda r: r.get("threads", 0))
        return ("warm-cache q/s at %d threads" % row["threads"], row["qps"])
    if "kernel_and_skewed_qps" in data:
        return ("kernel AND q/s on the skewed microbench",
                data["kernel_and_skewed_qps"])
    if "disk_sweep" in data:
        for row in data["disk_sweep"]:
            if row.get("shards") == 4 and row.get("fraction") == 0:
                return ("modeled NRA-disk q/s at 4 shards (fraction 0)",
                        row["modeled_qps"])
        return None
    if "sweep" in data:
        for row in data["sweep"]:
            if row.get("shards") == 4:
                return ("uncached Exact q/s at 4 shards", row["exact_qps"])
        return None
    return None


def gated_latencies(data):
    """Returns {column_name: value_ms} for the latency columns under the
    regression gate (see the module docstring for which and why)."""
    out = {}
    if "placement" in data and isinstance(data.get("replay"), dict):
        replay = data["replay"]
        for key in ("p50_ms", "p95_ms", "p99_ms"):
            if isinstance(replay.get(key), (int, float)):
                out[f"workload replay {key[:-3]}"] = replay[key]
    rows = data.get("warm_sweep")
    if isinstance(rows, list) and rows:
        row = max(rows, key=lambda r: r.get("threads", 0))
        for key in ("p95_ms", "p99_ms"):
            if isinstance(row.get(key), (int, float)):
                out[f"warm {key[:-3]} at {row.get('threads')} threads"] = \
                    row[key]
    return out


def report_tail_latency(data, label):
    """Prints the non-gated tail-latency columns informationally: warm
    p50/p999 (the gated warm p95/p99 print from check_latency_gates) and
    every percentile of the mixed read/update block -- too few samples
    per run to gate."""
    def fmt(row, keys):
        cols = []
        for key in keys:
            if isinstance(row.get(key), (int, float)):
                cols.append(f"{key[:-3]}={row[key]:.3f}ms")
        return " ".join(cols)

    rows = data.get("warm_sweep")
    if isinstance(rows, list) and rows:
        row = max(rows, key=lambda r: r.get("threads", 0))
        line = fmt(row, ("p50_ms", "p999_ms"))
        if line:
            print(f"tail latency ({label}, warm at {row.get('threads')} "
                  f"threads, informational): {line}")
    mixed = data.get("mixed")
    if isinstance(mixed, dict):
        line = fmt(mixed, ("p50_ms", "p95_ms", "p99_ms", "p999_ms"))
        if line:
            print(f"tail latency ({label}, mixed read/update, "
                  f"informational): {line}")


def report_hit_cpu(data, label):
    """Prints BENCH_service.json's hit_cpu_us informationally: process CPU
    per result-cache hit over every thread, the submitting one included.
    A single run on a shared runner is too noisy to gate."""
    value = data.get("hit_cpu_us")
    if isinstance(value, (int, float)):
        print(f"hot hits ({label}, informational): {value:.2f}us process "
              "CPU per hit")


def report_overload(data, label):
    """Prints BENCH_service.json's overload block informationally: the
    shed rate under 2x-capacity open-loop arrivals and the p99 of the
    queries the admission gate let through. Both depend on the runner's
    momentary capacity measurement, so they are reported for the log and
    artifact diff but never gated."""
    overload = data.get("overload")
    if not isinstance(overload, dict):
        return
    fields = []
    for key, fmt in (("offered_qps", "offered=%.0fq/s"),
                     ("shed_rate", "shed_rate=%.1f%%"),
                     ("deadline_rate", "deadline_rate=%.1f%%"),
                     ("p99_admitted_ms", "p99_admitted=%.3fms")):
        value = overload.get(key)
        if isinstance(value, (int, float)):
            if key.endswith("_rate"):
                value *= 100.0
            fields.append(fmt % value)
    if fields:
        print(f"overload at 2x capacity ({label}, informational): "
              + " ".join(fields))


def report_placement(data, label):
    """Prints BENCH_workload.json's placement differential and paced
    open-loop columns informationally (the bench itself enforces the
    differential under PM_WORKLOAD_ENFORCE; paced sojourns include queue
    delay and vary with runner load, so neither is re-gated here)."""
    placement = data.get("placement")
    if isinstance(placement, dict):
        print(f"placement ({label}, informational): "
              f"static={placement.get('static_blocks')} "
              f"feedback={placement.get('feedback_blocks')} blocks "
              f"(ratio {placement.get('ratio')}, "
              f"refreshes {placement.get('refreshes')}, "
              f"identical_results={placement.get('identical_results')}, "
              f"deterministic_replay={placement.get('deterministic_replay')})")
    paced = data.get("paced")
    if isinstance(paced, dict):
        cols = " ".join(f"{k[:-3]}={paced[k]:.3f}ms"
                        for k in ("p50_ms", "p95_ms", "p99_ms")
                        if isinstance(paced.get(k), (int, float)))
        if cols:
            print(f"paced open-loop sojourn ({label}, informational): {cols}")


def check_latency_gates(old_path, new_data, threshold):
    """Latency counterpart of check_single_step: lower is better, so the
    gate fails when a gated column exceeds the baseline by more than the
    threshold AND by more than LATENCY_FLOOR_MS absolute (sub-floor
    values are pure scheduler jitter at bench scale). Returns 1 on
    regression, else 0."""
    new_latencies = gated_latencies(new_data)
    if not new_latencies:
        return 0
    old_data = load(old_path)
    if old_data is None:
        print("no baseline; skipping latency gate")
        return 0
    old_latencies = gated_latencies(old_data)
    status = 0
    for name, new_value in new_latencies.items():
        old_value = old_latencies.get(name)
        if not isinstance(old_value, (int, float)) or old_value <= 0:
            print(f"{name}: current {new_value:.3f}ms (no baseline column; "
                  "not gated this run)")
            continue
        change = (new_value - old_value) / old_value
        print(f"{name}: previous {old_value:.3f}ms -> current "
              f"{new_value:.3f}ms ({change:+.1%}, gated at +{threshold:.0%} "
              f"and +{LATENCY_FLOOR_MS:.2f}ms)")
        if (new_value > old_value * (1.0 + threshold)
                and new_value - old_value > LATENCY_FLOOR_MS):
            print(f"FAIL: {name} regressed beyond {threshold:.0%}")
            status = 1
    if status == 0:
        print("OK: gated latency columns within budget")
    return status


def report_measured_io(data, label):
    """Prints the measured (mmap-backed) tier fields of BENCH_disk.json
    informationally. Cold-open time and first-touch I/O are real wall
    clock / page faults, so they vary with the runner's cache state and
    are reported for the log and artifact diff but never gated."""
    measured = data.get("measured")
    if not isinstance(measured, dict) or not measured.get("ok"):
        return
    fields = []
    for key, fmt in (("cold_open_ms", "cold_open=%.2fms"),
                     ("file_bytes", "file=%dB"),
                     ("queries", "queries=%d"),
                     ("disk_ms", "io=%.2fms"),
                     ("blocks", "blocks=%d"),
                     ("seeks", "seeks=%d"),
                     ("bytes", "bytes=%d")):
        if isinstance(measured.get(key), (int, float)):
            fields.append(fmt % measured[key])
    if fields:
        print(f"measured mmap tier ({label}, informational): "
              + " ".join(fields))


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"note: cannot read {path}: {e}")
        return None


def check_single_step(old_path, name, new_value, threshold):
    """Previous-artifact gate; returns 1 on regression, else 0."""
    old_data = load(old_path)
    if old_data is None:
        print(f"no baseline at {old_path}; skipping single-step gate "
              "(this run's artifact becomes the baseline)")
        return 0
    old_metric = headline(old_data)
    if old_metric is None:
        print(f"baseline {old_path} has no recognizable metric; "
              "skipping single-step gate")
        return 0
    _, old_value = old_metric
    if old_value <= 0:
        print(f"baseline {name} is {old_value}; skipping single-step gate")
        return 0

    change = (new_value - old_value) / old_value
    floor = old_value * (1.0 - threshold)
    print(f"{name}: previous {old_value:.1f} -> current {new_value:.1f} "
          f"({change:+.1%}, floor {floor:.1f} at -{threshold:.0%})")
    if new_value < floor:
        print(f"FAIL: single-step regression beyond {threshold:.0%}")
        return 1
    print("OK: within single-step regression budget")
    return 0


def check_trajectory(history_path, name, new_value, threshold, window):
    """Rolling-window gate: appends the run, trims to `window`, fails when
    the current value drifted more than `threshold` below the window's
    best. Returns 1 on cumulative regression, else 0."""
    history = load(history_path)
    if not isinstance(history, dict) or "runs" not in history:
        history = {"metric": name, "runs": []}
    runs = [r for r in history.get("runs", [])
            if isinstance(r, dict) and isinstance(r.get("value"), (int, float))]
    prior = runs[-(window - 1):] if window > 1 else []
    runs = prior + [{"value": new_value}]
    history["metric"] = name
    history["runs"] = runs
    try:
        with open(history_path, "w", encoding="utf-8") as f:
            json.dump(history, f, indent=2)
            f.write("\n")
    except OSError as e:
        print(f"note: cannot write history {history_path}: {e}")

    if len(runs) < 2:
        print(f"trajectory: {len(runs)} run(s) recorded; gate needs 2+")
        return 0
    best = max(r["value"] for r in runs)
    if best <= 0:
        print("trajectory: window best is non-positive; skipping gate")
        return 0
    drift = (best - new_value) / best
    print(f"trajectory: current {new_value:.1f} vs window best {best:.1f} "
          f"over last {len(runs)} run(s) ({-drift:+.1%})")
    if drift > threshold:
        print(f"FAIL: cumulative drift beyond {threshold:.0%} "
              f"over the {len(runs)}-run window")
        return 1
    print("OK: within trajectory budget")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--old", required=True, help="previous run's JSON")
    parser.add_argument("--new", required=True, help="this run's JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max allowed fractional drop (default 0.25), "
                        "applied to both gates")
    parser.add_argument("--history", default=None,
                        help="rolling history JSON (appended in place)")
    parser.add_argument("--window", type=int, default=10,
                        help="runs kept in the history window (default 10)")
    args = parser.parse_args()

    new_data = load(args.new)
    if new_data is None:
        print(f"FAIL: {args.new} missing -- the bench did not produce output")
        return 1
    new_metric = headline(new_data)
    if new_metric is None:
        print(f"FAIL: {args.new} has no recognizable headline metric")
        return 1
    name, new_value = new_metric
    report_tail_latency(new_data, "current")
    report_hit_cpu(new_data, "current")
    report_overload(new_data, "current")
    report_measured_io(new_data, "current")
    report_placement(new_data, "current")

    status = check_single_step(args.old, name, new_value, args.threshold)
    status |= check_latency_gates(args.old, new_data, args.threshold)
    if args.history:
        status |= check_trajectory(args.history, name, new_value,
                                   args.threshold, max(args.window, 1))
    return status


if __name__ == "__main__":
    sys.exit(main())
