#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/bin/main.exe from source with dune (in the checkout's
own _build, with the shared dune cache disabled so nothing is written
outside the checkout), runs one workload and passes its output through.
The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; its metric names are
checked against BENCHMARK.json (end_to_end for --trace 0, per_layer for
--trace 1). Exits non-zero on a build failure, a failed correctness
check, a metric set that does not match BENCHMARK.json, or a timeout.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def env():
    e = dict(os.environ)
    e["DUNE_CACHE"] = "disabled"
    return e


def build(target):
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no dune project with lib/ at %s: run from a full checkout" % ROOT, 2)
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet", target],
            cwd=ROOT, env=env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found", 2)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace"))
        fail("build of %s failed" % target)
    return os.path.join(ROOT, "_build", "default", target)


def revision():
    """The git revision when there is one, plus a digest of the sources
    the benchmark builds, so records from a plain checkout are stamped."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             timeout=10).stdout.decode().strip() or "nogit"
    except (OSError, subprocess.TimeoutExpired):
        rev = "nogit"
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "%s+src.%s" % (rev, h.hexdigest()[:12])


def run(exe, args, timeout):
    try:
        p = subprocess.run([exe] + args, cwd=ROOT, env=env(),
                           stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % timeout)
    out = p.stdout.decode(errors="replace")
    sys.stdout.write(out)
    sys.stdout.flush()
    return p.returncode, out


def check_result(out, trace):
    lines = out.strip().splitlines()
    if not lines:
        fail("no output")
    try:
        res = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a result object")
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("result object has keys %s" % sorted(res))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    got = list(res["metrics"])
    if sorted(want) != sorted(got):
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(set(got) ^ set(want)), "per_layer" if trace else "end_to_end"))
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's self-test instead")
    a = ap.parse_args()
    if a.selftest:
        exe = build("./perfbench/test/selftest.exe")
        code, _ = run(exe, [], RUN_TIMEOUT_S)
        sys.exit(code)
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    exe = build("./perfbench/bin/main.exe")
    code, out = run(exe, ["--workload", a.workload, "--seed", str(a.seed),
                          "--seconds", str(a.seconds), "--trace", str(a.trace),
                          "--rev", revision()], RUN_TIMEOUT_S)
    if code != 0:
        fail("benchmark exited with code %d" % code)
    res = check_result(out, a.trace == 1)
    if not res["correct"]:
        fail("correctness check failed")


if __name__ == "__main__":
    main()
