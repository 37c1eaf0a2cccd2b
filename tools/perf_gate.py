#!/usr/bin/env python3
"""Perf gate: fail CI when a hot path regresses against the baseline.

Compares a freshly produced micro_hotpaths report against the committed
``bench/baselines/BENCH_micro.json`` and exits non-zero when any
benchmark's ``real_ns`` mean is more than ``--threshold`` (default 5%)
slower than the committed mean.

Only ``<bench>:real_ns`` series are gated — ``cpu_ns`` tracks real_ns and
would double-report every finding, and the committed numbers are means
over the bench's own repetitions, which is the stablest signal the
artifact carries. ``--current`` accepts several reports and gates on the
per-benchmark *minimum*: scheduler noise and frequency scaling only ever
inflate a timing, so the best of N runs is the honest estimate of the
code's speed (run the bench 2-3 times in CI). A benchmark present in the
baseline but missing from the current run fails the gate (lost coverage
looks like a speedup to a naive diff); benchmarks new in the current run
are listed but not gated until they are committed.

The scale gate works the same way for macro throughput: it compares a
fresh ``scale_sweep`` report against the committed
``bench/baselines/BENCH_scale.json`` and fails when ``events_per_sec`` at
any gated node count (default: 1e4 and 1e5) drops more than
``--scale-threshold`` (default 10%) below the baseline. Throughput is
higher-is-better, so the best of N runs is the *maximum*. The 1e2/1e3
points are dominated by setup noise and the 1e6 point by memory-bandwidth
variance between CI hosts, so only the middle of the curve is gated.

The mobility grid is not gated here: its report is deterministic, so the
``bench_golden_test`` ctest compares it byte for byte against
``bench/baselines/BENCH_mobility.json`` instead.

Either gate or both can run in one invocation; pass the corresponding
``--baseline``/``--current`` or ``--scale-baseline``/``--scale-current``
pair.

Usage:
    python3 tools/perf_gate.py \
        --baseline bench/baselines/BENCH_micro.json \
        --current  bench/out/BENCH_micro.*.json [--threshold 0.05] \
        --scale-baseline bench/baselines/BENCH_scale.json \
        --scale-current  bench/out/BENCH_scale.*.json \
        [--scale-threshold 0.10] [--scale-points 10000 100000]
"""

from __future__ import annotations

import argparse
import json
import sys

SUFFIX = ":real_ns"


def load_means(path: str) -> dict[str, float]:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    series = report.get("series", {})
    means = {}
    for name, block in series.items():
        if name.endswith(SUFFIX):
            means[name[: -len(SUFFIX)]] = float(block["mean"])
    if not means:
        raise SystemExit(f"perf_gate: no {SUFFIX} series in {path}")
    return means


def load_scale_throughput(path: str, points: list[float]) -> dict[float, float]:
    """Returns {node count -> events_per_sec} at the gated points."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    series = report.get("series", {})
    try:
        nodes = [float(v) for v in series["nodes"]["values"]]
        eps = [float(v) for v in series["events_per_sec"]["values"]]
    except KeyError as err:
        raise SystemExit(
            f"perf_gate: {path} lacks a {err} series; not a scale_sweep "
            "report?")
    if len(nodes) != len(eps):
        raise SystemExit(
            f"perf_gate: {path}: nodes/events_per_sec length mismatch")
    by_nodes = dict(zip(nodes, eps))
    out = {}
    for point in points:
        if point not in by_nodes:
            raise SystemExit(
                f"perf_gate: {path} has no nodes={point:g} point "
                f"(has {sorted(by_nodes)})")
        out[point] = by_nodes[point]
    return out


def gate_scale(args) -> list[str]:
    points = [float(p) for p in args.scale_points]
    baseline = load_scale_throughput(args.scale_baseline, points)
    current: dict[float, float] = {}
    for path in args.scale_current:
        for point, eps in load_scale_throughput(path, points).items():
            current[point] = max(eps, current.get(point, eps))

    failures = []
    print("scale_sweep events/sec (best of "
          f"{len(args.scale_current)} run(s)):")
    for point in points:
        base = baseline[point]
        cur = current[point]
        ratio = cur / base if base > 0 else 0.0
        verdict = "ok"
        if ratio < 1.0 - args.scale_threshold:
            verdict = "REGRESSED"
            failures.append(
                f"nodes={point:g}: {base:,.0f} ev/s -> {cur:,.0f} ev/s "
                f"({(ratio - 1.0) * 100.0:+.1f}%)")
        print(f"  nodes={point:<10g}  {base:>14,.0f}  {cur:>14,.0f}  "
              f"{(ratio - 1.0) * 100.0:+6.1f}%  {verdict}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline",
                        help="committed BENCH_micro.json")
    parser.add_argument("--current", nargs="+",
                        help="freshly produced BENCH_micro.json report(s); "
                             "with several, each benchmark is gated on its "
                             "fastest run")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="allowed fractional slowdown (default 0.05)")
    parser.add_argument("--scale-baseline",
                        help="committed BENCH_scale.json")
    parser.add_argument("--scale-current", nargs="+",
                        help="freshly produced BENCH_scale.json report(s); "
                             "each point is gated on its fastest run")
    parser.add_argument("--scale-threshold", type=float, default=0.10,
                        help="allowed fractional throughput drop "
                             "(default 0.10)")
    parser.add_argument("--scale-points", nargs="+", type=float,
                        default=[10000.0, 100000.0],
                        help="node counts to gate (default: 1e4 1e5)")
    args = parser.parse_args()

    micro = bool(args.baseline or args.current)
    scale = bool(args.scale_baseline or args.scale_current)
    if micro and not (args.baseline and args.current):
        parser.error("--baseline and --current must be given together")
    if scale and not (args.scale_baseline and args.scale_current):
        parser.error("--scale-baseline and --scale-current must be given "
                     "together")
    if not micro and not scale:
        parser.error("nothing to gate: give --baseline/--current and/or "
                     "--scale-baseline/--scale-current")

    scale_failures = gate_scale(args) if scale else []
    if not micro:
        if scale_failures:
            print(f"\nperf_gate: {len(scale_failures)} failure(s):",
                  file=sys.stderr)
            for line in scale_failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"\nperf_gate: scale throughput within "
              f"-{args.scale_threshold * 100.0:.0f}% at all "
              f"{len(args.scale_points)} gated point(s)")
        return 0

    baseline = load_means(args.baseline)
    current: dict[str, float] = {}
    for path in args.current:
        for name, mean in load_means(path).items():
            current[name] = min(mean, current.get(name, mean))

    failures = []
    width = max(len(n) for n in baseline)
    for name in sorted(baseline):
        base = baseline[name]
        if name not in current:
            failures.append(f"{name}: missing from current run")
            continue
        cur = current[name]
        ratio = cur / base if base > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + args.threshold:
            verdict = "REGRESSED"
            failures.append(
                f"{name}: {base:.1f} ns -> {cur:.1f} ns "
                f"(+{(ratio - 1.0) * 100.0:.1f}%)")
        print(f"  {name:<{width}}  {base:>12.1f} ns  {cur:>12.1f} ns  "
              f"{(ratio - 1.0) * 100.0:+6.1f}%  {verdict}")
    for name in sorted(set(current) - set(baseline)):
        print(f"  {name:<{width}}  (new, not gated)")

    failures.extend(scale_failures)
    if failures:
        print(f"\nperf_gate: {len(failures)} failure(s) "
              f"(threshold +{args.threshold * 100.0:.0f}% micro, "
              f"-{args.scale_threshold * 100.0:.0f}% scale):",
              file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    gated = f"all {len(baseline)} benchmarks"
    if scale:
        gated += f" and {len(args.scale_points)} scale point(s)"
    print(f"\nperf_gate: {gated} within threshold of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
