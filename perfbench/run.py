#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the checkout root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and is reused by later runs; build output
goes to stderr. The benchmark's last stdout line is its JSON result. With
--trace 0 the run is made of several benchmark processes (see PARTS); with
--trace 1 it is one, and the recorded spans are written next to the build
as JSON lines.
"""
import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ["paper_suite", "beacon_scale", "dataplane_flows", "checkpoint_roundtrip"]
# An untraced run is measured in parts of --seconds / PARTS, each in a fresh
# process with its own set-up. On a shared host one process's median batch
# time can differ by 20-40% from the next one's with the same inputs. One
# long process samples that difference once; several short ones average it.
PARTS = 4


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    jobs = str(min(os.cpu_count() or 1, 8))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's self-tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    if args.selftest:
        return subprocess.run([str(out / "perfbench_selftest")], cwd=ROOT).returncode

    cmd = [str(out / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--trace", str(args.trace),
           "--repo-root", str(ROOT),
           "--reference", str(BENCH / "reference_digests.txt")]
    if args.trace:
        cmd += ["--seconds", repr(args.seconds),
                "--trace-out", str(out / f"spans-{args.workload}-{args.seed}.jsonl")]
        return subprocess.run(cmd, cwd=ROOT).returncode
    return measure(cmd + ["--seconds", repr(args.seconds / PARTS)], args.seconds)


def measure(part_cmd, seconds):
    """Runs parts until their batches have taken `seconds` in total; a part
    that would end past that by more than half its own window is not
    started. Prints the parts' output, then the run's result: attempted and
    failed summed over the parts, peak_rss_mb their maximum, every other
    metric the median of the parts' values."""
    parts = []
    while not parts or (sum(p["window_s"] for p in parts)
                        + 0.5 * parts[-1]["window_s"] < seconds):
        proc = subprocess.run(part_cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            # A part with a failed operation prints its result and exits 1;
            # that result, with its failures, is the run's.
            sys.stdout.write(proc.stdout)
            print(f"perfbench: part {len(parts) + 1} failed with status {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        parts.append(json.loads(lines[-1]))

    metrics = {}
    for name, first in parts[0]["metrics"].items():
        values = [p["metrics"][name]["value"] for p in parts]
        value = max(values) if name == "peak_rss_mb" else statistics.median(values)
        metrics[name] = {"value": value, "unit": first["unit"]}
    print(f"{len(parts)} parts; " + ", ".join(
        f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()))
    print(json.dumps({"correct": all(p["correct"] for p in parts),
                      "attempted": sum(p["attempted"] for p in parts),
                      "failed": sum(p["failed"] for p in parts),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
