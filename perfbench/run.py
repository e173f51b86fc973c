#!/usr/bin/env python3
"""Builds and runs the replicated-object benchmark (perfbench/).

Usage, from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The first form configures and builds perfbench/CMakeLists.txt (which
compiles the library sources under src/) into .bench_build/perfbench, then
runs the dcp_perfbench binary. Build output goes to stderr; the binary's
stdout passes through, so the last stdout line is the JSON result. The exit
code is the binary's: 0 only when the output check passed.

--self-test runs every workload of BENCHMARK.json for one second, untraced
and traced, and checks that each prints every metric BENCHMARK.json names,
with its unit, and that the output check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "dcp_perfbench")
OUT_DIR = os.path.join(HERE, "out")
RUN_TIMEOUT_S = 175


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def configured_for_this_tree():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return os.path.realpath(line.split("=", 1)[1].strip()) == \
                    os.path.realpath(HERE)
    return False


def build():
    """Configures (once per tree) and builds the binary. Returns True on success."""
    if not configured_for_this_tree():
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        os.makedirs(BUILD_DIR, exist_ok=True)
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("configure failed")
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "dcp_perfbench",
           "-j", "3"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("build failed")
        return False
    return os.path.exists(BINARY)


def run(args):
    """Runs the binary with `args`; returns (exit code, stdout text)."""
    proc = subprocess.Popen([BINARY] + args + ["--out", OUT_DIR],
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 124, ""
    return proc.returncode, out


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", trace]
            code, out = run(args)
            where = "%s --trace %s" % (workload, trace)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(where + ": no JSON result line")
                continue
            if code != 0 or result.get("correct") is not True:
                problems.append(where + ": output check failed (exit %d)" % code)
                problems += [where + ": " + l for l in lines if "CHECK FAILED" in l]
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(where + ": result keys %s" % sorted(result))
            metrics = result.get("metrics", {})
            for name, unit in expected[trace].items():
                if name not in metrics:
                    problems.append("%s: metric %s missing" % (where, name))
                elif metrics[name].get("unit") != unit:
                    problems.append("%s: metric %s has unit %r, expected %r" %
                                    (where, name, metrics[name].get("unit"),
                                     unit))
            for name in metrics:
                if name not in expected[trace]:
                    problems.append("%s: unexpected metric %s" % (where, name))
            print("self-test %-32s %s" % (where, "ok" if not [
                p for p in problems if p.startswith(where)] else "FAILED"))
    for p in problems:
        print("self-test problem: " + p)
    return 1 if problems else 0


def main():
    if not build():
        return 3
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    code, out = run(sys.argv[1:])
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
