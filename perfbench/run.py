#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The binary is built with CMake into .bench_build/perfbench (or into
$CARGO_TARGET_DIR/perfbench when that is set) on the first run. Build
output goes to stderr; stdout carries the benchmark's report, whose last
line is the JSON result. The result's metric names and units are checked
against BENCHMARK.json before it is printed. The exit status is the
benchmark's (0 only when every output check passed); a failed build or a
result that does not match BENCHMARK.json exits non-zero without a result.
"""
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    group = bench["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def launcher():
    """Runs the binary with address-space randomisation off when setarch is
    available: with it on, set-up time is bimodal from run to run (layout-
    dependent hashing and cache aliasing), which no in-run median removes."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    probe = subprocess.run([setarch, platform.machine(), "-R", "true"],
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return [setarch, platform.machine(), "-R"] if probe.returncode == 0 else []


def main(argv):
    binary = build()
    prefix = launcher()
    spec = os.path.join(HERE, "spec.json")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    if argv == ["--selftest"]:
        return subprocess.run([*prefix, binary, "--selftest", "--spec", spec,
                               "--out-dir", out_dir]).returncode
    run = subprocess.run([*prefix, binary, *argv, "--spec", spec,
                          "--out-dir", out_dir],
                         stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        trace = "--trace" in argv and argv[argv.index("--trace") + 1] != "0"
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, IndexError, TypeError):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: no result line (exit %d)" % run.returncode,
              file=sys.stderr)
        return run.returncode or 1
    want = expected_metrics(trace)
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, "
              "unexpected or mis-united %s"
              % (sorted(set(want) - set(got)),
                 sorted(k for k in got if want.get(k) != got[k])),
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
