#!/usr/bin/env python3
"""Bench of record for the QueryER engine: one workload, one seed, one run.

    python3 perfbench/run.py --workload cold_dedup --seed 1 --seconds 40 --trace 0

Run from the root of a source tree. The script

  1. builds perfbench/ (the engine from src/ plus the benchmark binary) with
     CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
  2. prepares the workload's inputs in a separate process, untimed, in a
     fresh directory under the build directory;
  3. runs the workload for --seconds in another process, which checks its
     answers and measures;
  4. prints an environment record, then one JSON result as the last line:
     {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
     end-to-end metrics, --trace 1 the per-layer ones (and writes the span
     file to <build>/traces/).

It exits non-zero when the build, the preparation or any correctness check
fails. See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("cold_dedup", "warm_read")
HERE = os.path.dirname(os.path.abspath(__file__))


def log(message):
    print(message, file=sys.stderr, flush=True)


def call(command, timeout, env, stdout=None):
    """Runs `command` in its own process group, so that on a timeout the
    whole group (cmake's compilers, say) is killed and reaped, not just the
    direct child. Returns (exit code, captured stdout or None)."""
    child = subprocess.Popen(command, stdout=stdout or sys.stderr,
                             stderr=sys.stderr, env=env, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    return child.returncode, out


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(base)


def build(binary_dir, env):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(binary_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", binary_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if call(configure, 300, env)[0] != 0:
            shutil.rmtree(binary_dir, ignore_errors=True)
            return None
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if call(["cmake", "--build", binary_dir, "-j", jobs], 840, env)[0] != 0:
        return None
    binary = os.path.join(binary_dir, "queryer_perfbench")
    return binary if os.path.exists(binary) else None


def commit():
    # Only the checkout itself: git must not search the directories above.
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(".")))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False, env=env)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = build_dir()
    # Compilers and the engine keep their temporary files inside the
    # checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(root, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        binary = build(os.path.join(root, "perfbench"), env)
    except subprocess.TimeoutExpired:
        binary = None
    if binary is None:
        log("perfbench: build failed")
        return 1

    work = os.path.join(root, "runs", "%s-%d-%d" % (args.workload, args.seed,
                                                      os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", work]
        if call([binary, "prepare"] + common, 50, env)[0] != 0:
            log("perfbench: preparation failed")
            return 1
        command = [binary, "run"] + common + [
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(root, "traces")
            os.makedirs(traces, exist_ok=True)
            command += ["--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed))]
        code, stdout = call(command, args.seconds + 90, env,
                            stdout=subprocess.PIPE)
        _, version = call([binary, "version"], 30, env, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        log("perfbench: timed out")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = last_json_line(stdout)
    if record is None:
        log("perfbench: the run printed no result (exit %d)" % code)
        return 1
    environment = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    environment.update(last_json_line(version) or {})
    print(json.dumps({"env": environment, "info": record.get("info", {}),
                      "failures": record.get("failures", [])}))
    correct = bool(record.get("correct")) and code == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(record.get("attempted", 0)),
        "failed": int(record.get("failed", 0)),
        "metrics": record.get("metrics", {}),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
