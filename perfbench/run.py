#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark binary from this checkout and
runs one workload in a fresh scratch directory.

    python3 perfbench/run.py --workload fullchip-10k|service-1k|variation-1k|all
                             [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a checkout. The build goes to .bench_build/perfbench
(configured once, then incremental). Every run gets its own directory under
.bench_build/runs for the daemon socket, snapshots, journals and checkpoints;
it is removed when the run ends, also after a failure. A traced run
(--trace 1) writes its spans as Chrome trace-event JSON to
.bench_build/traces/.

Standard output carries a host and build record (one "host: {...}" line),
the workload's human-readable metric lines, and as its last line the result
object {"correct", "attempted", "failed", "metrics"}. The exit code is 0
when a result was printed.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "tsv_perfbench")
BUILD_TYPE = "Release"
WORKLOADS = ("fullchip-10k", "service-1k", "variation-1k")
CHILD_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; raises on error."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no library sources under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "tsv_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def read(path, default="unknown"):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def cpu_model():
    for line in read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def caches():
    """Data/unified cache sizes of cpu0 by level, e.g. {"L2": "2048K"}."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        if not entry.startswith("index"):
            continue
        kind = read(os.path.join(base, entry, "type"))
        if kind == "Instruction":
            continue
        level = read(os.path.join(base, entry, "level"))
        out[f"L{level}"] = read(os.path.join(base, entry, "size"))
    return out


def filesystem(path):
    """Filesystem type of the mount holding `path` (longest mount prefix)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    for line in read("/proc/mounts", "").splitlines():
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = path == mount or path.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, fields[2]
    return fstype


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def host_record(args, scratch):
    cache = read(os.path.join(BUILD_DIR, "CMakeCache.txt"), "")
    build_type = next((line.split("=", 1)[1] for line in cache.splitlines()
                       if line.startswith("CMAKE_BUILD_TYPE:")), "unknown")
    # Seed 0 selects each workload's default design seed, 90000 + TSV
    # count: the seed of the committed results/*.jsonl rows.
    seed = args.seed if args.seed else "90000 + TSV count"
    llc = caches()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "l2": llc.get("L2", "unknown"),
        "llc": llc[max(llc)] if llc else "unknown",
        "scratch_fs": filesystem(scratch),
        "build_type": build_type,
        "git_commit": git_commit(),
        "seed": seed,
        "workload": args.workload,
        "smoke": args.smoke,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args()
    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.smoke else 15.0)

    try:
        build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    runs = os.path.join(BUILD_ROOT, "runs")
    os.makedirs(runs, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}-"
                             f"{int(time.time())}.json")]

    # A terminated run still stops its child and removes its scratch dir.
    def terminate(signum, _frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, terminate)

    child = None
    try:
        print("host: " + json.dumps(host_record(args, scratch)), flush=True)
        child = subprocess.Popen(cmd, cwd=scratch, stdout=subprocess.PIPE,
                                 text=True)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        last = ""
        try:
            for line in child.stdout:
                # Hold back each line until the next arrives, so that only a
                # validated result object ends the output.
                if last:
                    print(last, end="", flush=True)
                last = line
            code = child.wait()
        finally:
            watchdog.cancel()
        if code != 0:
            if last:
                print(last, end="", file=sys.stderr, flush=True)
            log(f"benchmark exited with code {code}")
            return 1
        result = json.loads(last)
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            log("the last line is not a result object")
            return 1
        print(last, end="", flush=True)
        return 0
    except (OSError, ValueError) as e:
        log(str(e))
        return 1
    finally:
        if child is not None and child.poll() is None:
            child.kill()
        if child is not None:
            child.wait()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
