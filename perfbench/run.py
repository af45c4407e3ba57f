#!/usr/bin/env python3
"""Build snapbench from the checkout's sources and run one workload (or all).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout, as do the run's files. One workload prints
its metrics and, as the last line of stdout, one JSON object
{correct, attempted, failed, metrics}. `--workload all` runs every workload,
each in its own process, prints each one's metrics, and ends with one JSON
object whose metric names are prefixed by the workload. The exit code is
nonzero when any replica differs from the base's expected contents (the
failing workload is named on stdout) or when the build or a run fails.

BENCHMARK.json beside perfbench/ is the one list of workloads and metrics:
a run must report exactly its end-to-end metrics (--trace 0) or only its
per-layer metrics (--trace 1), with the units it gives. A per-layer metric
whose mechanism a workload never runs (no delta cache in process, no
outside-in serve on the served path) is reported as 0.
perfbench/metric_map.json must describe the same workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    """BENCHMARK.json, checked against metric_map.json; None if either is
    missing or they disagree."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(HERE, "metric_map.json")) as f:
            described = json.load(f)
    except (OSError, ValueError) as e:
        print("perfbench: cannot read the metric lists: %s" % e,
              file=sys.stderr)
        return None
    pairs = [
        ("workloads", [w["name"] for w in spec["workloads"]],
         list(described["workloads"])),
        ("end_to_end", [m["name"] for m in spec["end_to_end"]],
         list(described["end_to_end"])),
        ("per_layer", [m["name"] for m in spec["per_layer"]],
         [m["name"] for m in described["per_layer"]]),
    ]
    for key, listed, mapped in pairs:
        if sorted(listed) != sorted(mapped):
            print("perfbench: BENCHMARK.json and metric_map.json list "
                  "different %s: %s" % (key, sorted(set(listed) ^ set(mapped))),
                  file=sys.stderr)
            return None
    return spec


def workload_names():
    spec = load_spec()
    return [w["name"] for w in spec["workloads"]] if spec else []


def build(build_root):
    """Configures and builds snapbench; returns its path or None."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: snapdiff sources (src/) not found beside perfbench/",
              file=sys.stderr)
        return None
    build_dir = os.path.join(build_root, "perfbench")
    binary = os.path.join(build_dir, "snapbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "snapbench", "-j4"],
    ]
    if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_root, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return binary


def conform(result, spec, trace, extra):
    """Checks the result's metrics against BENCHMARK.json and zero-fills the
    per-layer metrics a workload does not run; returns an error or None.
    Filled metrics are appended to `extra` as printable lines."""
    listed = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if listed.get(name) != m["unit"]:
            return "metric %s (%s) is not in BENCHMARK.json with that unit" % (
                name, m["unit"])
    for name, unit in listed.items():
        if name in metrics:
            continue
        if not trace:
            return "end-to-end metric %s missing" % name
        metrics[name] = {"value": 0, "unit": unit}
        extra.append("metric %s 0 %s" % (name, unit))
    return None


def run_one(binary, workload, args, out_dir, spec):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = done.stdout.rstrip("\n").split("\n")
    result = None
    rc = done.returncode
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        extra = []
        error = conform(result, spec, args.trace, extra)
        if error is not None:
            print("perfbench: %s: %s" % (workload, error), file=sys.stderr)
            return rc or 2, lines[:-1], None
        lines = lines[:-1] + extra + [json.dumps(result)]
    return rc, lines, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    spec = load_spec()
    if spec is None:
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    names = workloads if args.workload == "all" else [args.workload]
    if any(n not in workloads for n in names):
        print("perfbench: unknown workload " + args.workload, file=sys.stderr)
        return 2

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = build(build_root)
    if binary is None:
        return 2
    out_dir = os.path.join(build_root, "runs")

    if len(names) == 1:
        rc, lines, result = run_one(binary, names[0], args, out_dir, spec)
        print("\n".join(lines))
        if rc != 0:
            print("perfbench: workload %s exited %d" % (names[0], rc),
                  file=sys.stderr)
        return rc

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        rc, lines, result = run_one(binary, name, args, out_dir, spec)
        print("== %s" % name)
        print("\n".join(lines[:-1] if result else lines))
        if result is None or rc != 0:
            print("perfbench: workload %s FAILED (exit %d)" % (name, rc))
            combined["correct"] = False
            worst = worst or rc or 2
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = v
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
