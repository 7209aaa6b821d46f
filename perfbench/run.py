#!/usr/bin/env python3
"""Host-time benchmark of the riscmp simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a riscmp checkout. Builds perfbench/ (the repository's
src/ libraries, the simd daemon and the C++ benchmark program) into
.bench_build/ on first use, runs one workload, and prints the program's
JSON result as the last line of standard output. Build logs and progress
go to standard error.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grid", "ext_grid", "oracle_campaign", "daemon_mixed")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally (a no-op when up to date)."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr)


def run_program(argv):
    """Run the program in its own process group so that a timeout also ends
    any simd child it started; always wait for the group to finish."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s and was killed")
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        log(f"perfbench exited with {proc.returncode}")
        return None
    return out


def check_result(line, trace):
    """The result must carry exactly the metrics BENCHMARK.json lists."""
    result = json.loads(line)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    listed = spec["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in listed}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != expected:
        raise ValueError(f"metrics {sorted(got)} do not match "
                         f"BENCHMARK.json {sorted(expected)}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no riscmp sources under {ROOT}; run from a full checkout")
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    out = run_program([
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", ROOT, "--simd", os.path.join(build_dir, "perfbench_simd"),
        # Relative, so Unix socket paths stay short in deep checkouts.
        "--work-dir", os.path.relpath(work_dir, ROOT)])
    if out is None:
        return 1
    lines = out.strip().splitlines()
    if not lines:
        log("perfbench printed no result")
        return 1
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, json.JSONDecodeError) as error:
        log(f"bad result: {error}")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
