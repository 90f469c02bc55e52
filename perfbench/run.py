#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  [--seed N] [--seconds S] [--trace 0|1]

--seconds defaults to BENCHMARK.json's run_seconds.
Run from the repository root.  The first call configures and builds the
library and the benchmark (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild only what changed.
Build output goes to stderr, so the last line of stdout is the result
line of the perfbench program (see perfbench/README.md).  `--workload all`
runs every workload of BENCHMARK.json, each in its own process, and ends
with one combined line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure once, then build; False when either step fails."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    command = ["cmake", "--build", bdir, "-j", str(nproc())]
    return subprocess.call(command, stdout=sys.stderr, stderr=sys.stderr) == 0


def revision():
    """The git revision when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.check_output(["git", "rev-parse", "--short=12", "HEAD"],
                                          cwd=ROOT, stderr=subprocess.DEVNULL)
            return rev.decode().strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(base) for f in files)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result_line(line, trace, spec):
    """The result line must carry exactly the metrics BENCHMARK.json declares."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if want != got:
        return "metrics %s differ from BENCHMARK.json %s" % (sorted(got), sorted(want))
    return None


def run_one(args, spec):
    binary = os.path.join(build_dir(), "perfbench")
    env = dict(os.environ, PERFBENCH_REV=revision())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    out = proc.stdout.decode()
    lines = out.rstrip("\n").split("\n")
    last = lines[-1] if lines else ""
    if not last.startswith("{"):
        sys.stdout.write(out)
        return proc.returncode or 2
    problem = check_result_line(last, args.trace, spec)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("perfbench: %s\n" % problem)
        return 2
    sys.stdout.write(out)
    return proc.returncode


def run_all(args, spec):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in spec["workloads"]:
        command = [sys.executable, os.path.abspath(__file__), "--workload",
                   workload["name"], "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE)
        out = proc.stdout.decode().rstrip("\n").split("\n")
        sys.stdout.write("\n".join(out[:-1]) + "\n")
        try:
            result = json.loads(out[-1])
        except (ValueError, IndexError):
            sys.stdout.write("%s: no result line\n" % workload["name"])
            return proc.returncode or 2
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload["name"], name)] = m
        status = status or proc.returncode
    print(json.dumps(combined))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 2
    selftest = os.path.join(build_dir(), "perfbench_selftest")
    if subprocess.call([selftest], stdout=sys.stderr, stderr=sys.stderr) != 0:
        sys.stderr.write("perfbench: the benchmark's self-test failed\n")
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
