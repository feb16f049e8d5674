#!/usr/bin/env python3
"""Build and run the cyclick end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
harness (and the cyclick libraries it links) under $CARGO_TARGET_DIR, or
.bench_build when unset; later runs only re-check the build. The harness's
last stdout line is one JSON object, {"correct", "attempted", "failed",
"metrics"}, and this script passes its exit code through.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure (once) and build the harness; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "cyclick", "compiler", "interp.hpp")):
        sys.exit("perfbench: cyclick sources not found next to perfbench/ (need src/cyclick)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "cyclick_perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "cyclick_perfbench")


def bench_env():
    """The harness's environment: no CYCLICK_* overrides (the benchmark
    measures the default path), and a short in-checkout TMPDIR for the proc
    workload's rendezvous sockets and rank result files."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CYCLICK_")}
    tmp = os.path.join(os.path.relpath(os.path.dirname(build_dir())), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def run_harness(binary, args):
    """Run the harness in its own process group, so a timeout also stops the
    rank processes the proc workload spawns."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, env=bench_env(),
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("perfbench: harness exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1, ""
    return proc.returncode, out


def last_json(stdout):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    """The checks catch errors: generated text is seed-deterministic, and a
    corrupted reference fails the run with failed > 0 and a nonzero exit."""
    ok = True
    emit = lambda seed: run_harness(binary, ["--workload", "sections_cold", "--seed", str(seed),
                                            "--emit-program", "200"])[1]
    first, again, other = emit(11), emit(11), emit(12)
    if first != again or first == other or not first:
        print("FAIL: program text is not a function of the seed")
        ok = False
    else:
        print("ok: same seed gives byte-identical program text; another seed differs")
    for workload in ("sections_cold", "stencil1d"):
        code, out = run_harness(binary, ["--workload", workload, "--seed", "5", "--seconds",
                                        "1", "--trace", "0", "--corrupt-reference"])
        result = last_json(out) if out else None
        if code == 0 or result is None or result["failed"] <= 0 or result["correct"]:
            print("FAIL: corrupted reference not caught on %s (exit %d)" % (workload, code))
            ok = False
        else:
            print("ok: corrupted reference on %s -> exit %d, failed %d/%d" %
                  (workload, code, result["failed"], result["attempted"]))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    binary = build()
    if args.self_test:
        return self_test(binary)
    if not args.workload:
        ap.error("--workload is required")
    harness_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(os.path.dirname(build_dir()), "traces")
        os.makedirs(traces, exist_ok=True)
        harness_args += ["--trace-out", os.path.join(
            traces, "%s-seed%d.spans.jsonl" % (args.workload, args.seed))]
    code, out = run_harness(binary, harness_args)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code == 0 and last_json(out) is None:
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
