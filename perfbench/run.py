#!/usr/bin/env python3
"""Build and run the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  The OCaml benchmark in this
directory is built from source with dune (release profile, build tree in
.bench_build/) and then run; its output is passed through.  The last line
of output is one JSON object with the keys correct, attempted, failed and
metrics; it lists every end_to_end metric of BENCHMARK.json with
--trace 0 and every per_layer metric with --trace 1.  The exit code is
nonzero when the build fails, a correctness check fails, or the result
does not match BENCHMARK.json.

Seeds: the default workload seed is DEFAULT_SEED.  HELD_OUT_SEED is kept
out of tuning and is the seed on which a claimed gain is confirmed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root):
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            fail("not a source checkout (missing %s); cannot build" % need)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(root, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/perfbench.exe"]
    r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                       stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed (exit %d)" % r.returncode)


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, expected):
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(res, dict) or set(res) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result does not have exactly the keys correct, attempted, " \
               "failed, metrics"
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != expected:
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(expected) - set(got)), sorted(set(got) - set(expected)))
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build(root)
    expected = expected_metrics(root, args.trace)

    cmd = [os.path.join(root, EXE), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            if line.strip():
                last = line.strip()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    sys.stdout.flush()
    if proc.returncode != 0:
        if proc.returncode < 0:
            print("perfbench: benchmark killed (signal %d)" % -proc.returncode)
        return 1
    err = check_result(last, expected)
    if err is not None:
        print("perfbench: " + err)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
