#!/usr/bin/env python3
"""Builds and runs the remap_e2e benchmark.

One workload run (the benchmark command in BENCHMARK.json), from the root of
a source checkout:

    python3 remap_e2e/run.py --workload dive_1t --seed 1 --seconds 25 --trace 0

builds the package under $CARGO_TARGET_DIR (default .bench_build) on first
use, then runs the remap_e2e binary; its last stdout line is the result JSON.

    python3 remap_e2e/run.py --all [--seed N] [--seconds S]

runs every workload untraced and traced and prints every metric by name and
unit.

    python3 remap_e2e/run.py --smoke [--binary PATH]

is the package's smoke test: one spec per workload, one pass, dive_1t
untraced and ls_fleet traced; every row must parse, every metric
BENCHMARK.json names must be present and no remap may fail.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

PKG = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PKG)
WORKLOADS = ["dive_1t", "ls_fleet", "bnb_4t", "portfolio_2t"]


def fail(msg, code=1):
    print(f"remap_e2e: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Content hash of what the build compiles, stamped as the build's
    provenance: the checkout may not be a git repository."""
    paths = [os.path.join(PKG, "CMakeLists.txt"),
             os.path.join(PKG, "remap_e2e.cpp")]
    for d, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(d, f) for f in sorted(files)]
    h = hashlib.sha1()
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as fh:
            h.update(fh.read())
    return "src-" + h.hexdigest()


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no cgraf sources at {os.path.join(ROOT, 'src')}; run from a "
             "full source checkout", 2)
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                         os.path.join(ROOT, ".bench_build")))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PKG, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "remap_e2e",
                  "-j", "4"])
    for cmd in steps:
        p = run_child(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if p.returncode != 0:
            sys.stderr.write(p.stdout + p.stderr)
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "remap_e2e")


def bench_env():
    env = dict(os.environ)
    env.setdefault("CGRAF_GIT_SHA", source_digest())
    return env


def run_child(cmd, **kwargs):
    """subprocess.run that also stops the child when this script is
    terminated, so no benchmark process outlives its launcher."""
    with subprocess.Popen(cmd, env=bench_env(), text=True, **kwargs) as p:
        try:
            out, err = p.communicate()
        except BaseException:
            p.terminate()
            p.wait()
            raise
        return subprocess.CompletedProcess(cmd, p.returncode, out, err)


def run(binary, args):
    """Runs the binary; returns (exit code, stdout lines, result dict)."""
    p = run_child([binary] + args, stdout=subprocess.PIPE,
                  stderr=subprocess.PIPE)
    sys.stderr.write(p.stderr)
    lines = p.stdout.splitlines()
    result = None
    if p.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, lines, result


def benchmark_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ([m["name"] for m in bench["end_to_end"]],
            [m["name"] for m in bench["per_layer"]])


def smoke(binary):
    e2e, per_layer = benchmark_metrics()
    all_ok = True
    for args, names in ((["--workload", "dive_1t", "--smoke"], e2e),
                        (["--workload", "ls_fleet", "--smoke", "--trace", "1"],
                         per_layer)):
        code, lines, result = run(binary, args)
        label = " ".join(args)
        ok = True
        if code != 0 or result is None:
            print(f"FAIL {label}: exit {code}, no result line")
            all_ok = False
            continue
        for line in lines:
            if line.startswith("CGRAF_BENCH_JSON "):
                json.loads(line.split(" ", 1)[1])  # raises on a bad row
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            print(f"FAIL {label}: result keys {sorted(result)}")
            ok = False
        missing = [n for n in names if n not in result["metrics"]]
        if missing:
            print(f"FAIL {label}: missing metrics {missing}")
            ok = False
        if result["failed"] != 0 or not result["correct"]:
            print(f"FAIL {label}: {result['failed']} of "
                  f"{result['attempted']} remaps failed")
            ok = False
        print(f"{'ok' if ok else 'FAIL'} {label}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def run_all(binary, seed, seconds):
    ok = True
    for trace in ("0", "1"):
        for w in WORKLOADS:
            code, _, result = run(binary, ["--workload", w, "--seed", seed,
                                           "--seconds", seconds,
                                           "--trace", trace])
            if result is None:
                print(f"{w} trace={trace}: exit {code}, no result")
                ok = False
                continue
            ok = ok and result["correct"]
            print(f"== {w} ({'per-layer' if trace == '1' else 'end-to-end'})"
                  f": {result['failed']} of {result['attempted']} remaps "
                  "failed")
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="prebuilt remap_e2e (skips the build)")
    a = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (a.all or a.smoke or a.workload):
        ap.error("give --workload, --all or --smoke")
    binary = a.binary or build()
    if a.smoke:
        return smoke(binary)
    if a.all:
        return run_all(binary, a.seed, a.seconds)
    return run_child([binary, "--workload", a.workload, "--seed", a.seed,
                      "--seconds", a.seconds, "--trace", a.trace]).returncode


if __name__ == "__main__":
    sys.exit(main())
