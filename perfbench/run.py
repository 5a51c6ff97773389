#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The harness (perfbench/CMakeLists.txt)
is built from the checkout's sources into $CARGO_TARGET_DIR (default
.bench_build) before each run; a build that is up to date costs a second.
The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; its metric names are checked
against BENCHMARK.json before it is printed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("race-suite", "lanes-open", "http-keepalive")
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        die("no program sources next to the benchmark (expected CMakeLists.txt and src/)")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-40:]))
                die("build failed: " + " ".join(step))
    return out


def commit_id():
    try:
        head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # Not a git checkout: name the program by a digest of its sources.
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, out, workload, seed, seconds, trace, commit):
    command = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
        "--commit", commit, "--out-dir", out,
    ]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        die(f"{workload} exited with code {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("result object has the wrong keys")
    missing = expected_metrics(trace) - set(result["metrics"])
    extra = set(result["metrics"]) - expected_metrics(trace)
    if missing or extra:
        die(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
            f"unexpected {sorted(extra)}")
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        out = build(["perfbench_tests"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_tests")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    out = build(["perfbench"])
    binary = os.path.join(out, "perfbench")
    commit = commit_id()
    if args.workload != "all":
        lines, result = run_one(binary, out, args.workload, args.seed,
                                args.seconds, args.trace, commit)
        print("\n".join(lines))
        print(json.dumps(result))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines, result = run_one(binary, out, workload, args.seed, args.seconds,
                                args.trace, commit)
        print(f"== {workload}")
        print("\n".join(lines))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
