#!/usr/bin/env python3
"""Repository benchmark: builds perfbench and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any checkout holding src/ and perfbench/).
The first run configures and builds an optimised perfbench, together with
the repository's libraries, under .bench_build/perfbench; later runs only
rebuild what changed. Workloads and metrics are listed in BENCHMARK.json.

--trace 0 prints every end-to-end metric; --trace 1 prints every per-layer
metric, derived from spans the benchmark records around each call into a
layer (layers a workload does not exercise read 0). Human-readable lines
come first; the last line of standard output is the JSON result. Each run
is also recorded, stamped with its host, under --record-dir for
perfbench/compare.py.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"error: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def check_call(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"{' '.join(map(str, cmd))} exited with {proc.returncode}")


def build():
    """Configures (once) and builds perfbench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            check_call(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        check_call(["cmake", "--build", str(BUILD), "-j", jobs])
    return BUILD / "perfbench"


def commit_stamp():
    """The git commit, or a digest of the sources when not in a git clone."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-dir", type=Path, default=BUILD / "results")
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload '{args.workload}' ({', '.join(names)})", 2)
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative", 2)

    binary = build()
    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    workdir = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir),
           "--spans", str(BUILD / "spans" / f"{tag}.json")]
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"perfbench exited with {proc.returncode}")

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench printed no result line")
    host = {}
    notes = []
    for line in lines[:-1]:
        if line.startswith("host "):
            host = json.loads(line[5:])
        else:
            notes.append(line)
    host["commit"] = commit_stamp()

    # BENCHMARK.json is the list of record: every metric it names is
    # printed, and perfbench may print nothing it does not name.
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = result["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in expected})
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {', '.join(unknown)}")
    metrics = {}
    for m in expected:
        value = got.get(m["name"])
        if value is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            value = {"value": 0, "unit": m["unit"]}  # layer not exercised
        if value["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {value['unit']}, expected {m['unit']}")
        if not args.trace and not value["value"] > 0:
            fail(f"end-to-end metric {m['name']} read {value['value']}")
        metrics[m["name"]] = value

    final = {"correct": bool(result["correct"]),
             "attempted": int(result["attempted"]),
             "failed": int(result["failed"]),
             "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "started": started, "wall_s": time.time() - started,
              "notes": notes, **final}
    args.record_dir.mkdir(parents=True, exist_ok=True)
    (args.record_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print("host " + json.dumps(host))
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name:36s} {value['value']:>18.6g} {value['unit']}")
    print(json.dumps(final), flush=True)


if __name__ == "__main__":
    main()
