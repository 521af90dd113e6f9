#!/usr/bin/env python3
"""morselDB end-to-end benchmark runner.

Builds morselDB and the e2ebench binary from this checkout's sources,
runs one workload and prints the result JSON as the last line:

  python3 e2ebench/run.py --workload tpch_power --seed 1 --seconds 10 --trace 0

Other modes:
  --steady N      run the workload N times (seeds --seed .. --seed+N-1) and
                  print each end-to-end metric's median, quartiles and
                  spread against its BENCHMARK.json bound, then one traced
                  run's trace.overhead_frac
  --selftest      the binary's self-tests, plus a check that the metric
                  names it emits are exactly those BENCHMARK.json lists
  --record        rewrite the workload's answer fingerprints, each
                  cross-checked against a single-worker Volcano engine

Build output goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/),
results to <build dir>/results/.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "e2ebench"
WORKLOADS = ["tpch_power", "ssb_streams", "serve_ingest", "shard_tpch"]
RUN_TIMEOUT_S = 175
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def newest_source_mtime():
    newest = 0.0
    for top in (ROOT / "src", BENCH_DIR):
        for p in top.rglob("*"):
            if p.is_file() and (p.suffix in (".cc", ".h")
                                or p.name == "CMakeLists.txt"):
                newest = max(newest, p.stat().st_mtime)
    return newest


def build():
    """Builds the binary unless it is newer than every source file."""
    if not (ROOT / "src" / "engine" / "engine.h").is_file():
        fail(f"morselDB sources not found under {ROOT / 'src'}")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    out = build_dir()
    binary = out / "e2ebench"
    if binary.is_file() and binary.stat().st_mtime > newest_source_mtime():
        return binary
    jobs = str(os.cpu_count() or 2)
    for cmd in (
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs],
    ):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    if not binary.is_file():
        fail("build produced no binary")
    return binary


def source_digest():
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for p in sorted(top.rglob("*")):
            if p.is_file() and p.suffix in (".cc", ".h", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none (not a git checkout)"


def run_binary(binary, args, echo=True):
    """Runs one workload; returns (exit code, context dict, result dict).

    The binary runs in the repository root, where it finds
    e2ebench/fingerprints.txt."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.record:
        cmd.append("--record")
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    context, result = {}, None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    for line in lines:
        if line.startswith("context "):
            context = json.loads(line[len("context "):])
        elif echo:
            print(line)
    if result is None:
        fail(f"{args.workload} exited with {r.returncode} and no result")
    context["git_sha"] = git_sha()
    context["source_digest"] = source_digest()
    return r.returncode, context, result


def save(args, context, result):
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(
        json.dumps({"context": context, "result": result}, indent=1) + "\n")


def load_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def steady(binary, args):
    spec = load_benchmark_json()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    first = args.seed
    for i in range(args.steady):
        args.seed = first + i
        code, _, result = run_binary(binary, args, echo=False)
        if code != 0 or not result["correct"]:
            fail(f"seed {args.seed}: run failed ({result['failed']} failed)")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {args.seed}: " + " ".join(
            f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)
    print(f"\n{args.workload}: {args.steady} runs of {args.seconds}s")
    print(f"{'metric':20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'spread/bound':>12}")
    worst = 0.0
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ratio = spread / bounds[name]
        worst = max(worst, ratio)
        print(f"{name:20} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bounds[name]:6.2f} {ratio:12.3f}")
    print(f"worst spread/bound: {worst:.3f} "
          f"({'steady' if worst < 1 / 3 else 'NOT steady'}: target < 0.333)")
    args.trace, args.seed = 1, first
    _, _, traced = run_binary(binary, args, echo=False)
    overhead = traced["metrics"]["trace.overhead_frac"]["value"]
    print(f"trace.overhead_frac (seed {first}): {overhead:.4f}")


def selftest(binary):
    failures = subprocess.run([str(binary), "--selftest"]).returncode != 0
    r = subprocess.run([str(binary), "--list-metrics"], capture_output=True,
                       text=True, check=True)
    emitted = {"end_to_end": {}, "per_layer": {}}
    for line in r.stdout.splitlines():
        kind, name, unit = line.split()
        emitted[kind][name] = unit
    spec = load_benchmark_json()
    for kind in ("end_to_end", "per_layer"):
        listed = {m["name"]: m["unit"] for m in spec[kind]}
        bad = [n for n in listed if not NAME_RE.fullmatch(n)]
        missing = sorted(set(listed) - set(emitted[kind]))
        extra = sorted(set(emitted[kind]) - set(listed))
        units = sorted(n for n in listed
                       if n in emitted[kind] and emitted[kind][n] != listed[n])
        ok = not (bad or missing or extra or units)
        failures |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json {kind}: "
              f"{len(listed)} names; bad={bad} not emitted={missing} "
              f"not listed={extra} unit mismatch={units}")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", action="store_true")
    p.add_argument("--steady", type=int, default=0, metavar="N")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    binary = build()
    if args.selftest:
        return selftest(binary)
    if args.workload is None:
        p.error("--workload is required")
    if args.steady:
        if args.steady < 2:
            p.error("--steady needs at least 2 runs")
        steady(binary, args)
        return 0
    code, context, result = run_binary(binary, args)
    save(args, context, result)
    print("context " + json.dumps(context))
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
