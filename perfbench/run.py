#!/usr/bin/env python3
"""Runs one workload of the vcdn benchmark and prints its result.

Usage, from the repository root:

    python3 perfbench/run.py --workload world_month [--seed 20140413]
                             [--seconds <run_seconds>] [--trace 0|1]

The script builds the measuring program (`perfbench/`, a cargo package
of its own; target directory `$CARGO_TARGET_DIR`, default `.bench_build`),
writes the workload's trace files when it decodes them, runs the
measurement, checks every replay's output, and prints a table followed by
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of
`BENCHMARK.json`; with `--trace 1` the per-layer ones. The full result,
with the environment and every metric's median and quartiles, goes to
`perfbench/out/results/`. Exit code 0 means every replay was correct.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 20140413
# The measuring program must finish this long after it was built.
RUN_LIMIT_S = 165.0
PREP_LIMIT_S = 90.0
# Paths a run may touch; any other change to the work tree is an error.
OWN_PATHS = ("perfbench/", ".bench_build/")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git(*args):
    """Runs git in the repository; None if it is not a git checkout."""
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def foreign_changes():
    """`git status` lines outside the benchmark's own paths, or None."""
    status = git("status", "--porcelain", "--untracked-files=all")
    if status is None:
        return None
    return sorted(
        line for line in status.splitlines() if not line[3:].startswith(OWN_PATHS)
    )


def source_digest():
    """SHA-256 over the measured sources, for checkouts without git."""
    h = hashlib.sha256()
    for base in ("crates", "perfbench/src"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def tool_version(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or out.stderr.strip()
    except (OSError, subprocess.TimeoutExpired) as e:
        return f"unavailable ({e})"


def summary(values):
    """Median and quartiles as `statistics.quantiles(n=4)` gives them."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log("build failed; the benchmark needs the repository's crates next to perfbench/")
        return None
    return os.path.join(target_dir, "release", "vcdn-perfbench")


def supervise(cmd, limit):
    """Runs the measuring program; returns (document or None, planned, done, timed_out)."""
    timed_out = False
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=limit)
        stdout, stderr = done.stdout, done.stderr
    except subprocess.TimeoutExpired as e:
        timed_out = True
        decode = lambda b: b.decode(errors="replace") if isinstance(b, bytes) else (b or "")
        stdout, stderr = decode(e.stdout), decode(e.stderr)
    planned = finished = 0
    for line in stderr.splitlines():
        if line.startswith("#plan "):
            planned += int(line.split()[1])
        elif line.startswith("#done"):
            finished += 1
        else:
            log(line)
    doc = None
    lines = [l for l in stdout.splitlines() if l.strip()]
    if lines and not timed_out:
        try:
            doc = json.loads(lines[-1])
        except ValueError:
            log(f"unparseable result line: {lines[-1][:200]}")
    return doc, planned, finished, timed_out


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.time()
    with open("/proc/loadavg") as f:
        loadavg = f.read().split()[:3]
    before = foreign_changes()

    target_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    )
    binary = build(target_dir)
    if binary is None:
        return 2
    built = time.time()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    try:
        prep = subprocess.run(
            [binary, "prep", *common], cwd=ROOT, capture_output=True, text=True,
            timeout=PREP_LIMIT_S,
        )
        if prep.returncode != 0:
            log(prep.stderr)
            log("trace preparation failed")
            return 2
        history = []
        for name in ("BENCH_PR2.json", "BENCH_PR7.json"):
            history += ["--history", os.path.join(ROOT, name)]
        cmd = [
            binary, "run", *common,
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--golden", os.path.join(HERE, "golden.json"),
            "--spans", os.path.join(OUT, "spans", f"{tag}.jsonl"),
            *history,
        ]
        limit = max(10.0, RUN_LIMIT_S - (time.time() - built))
        doc, planned, finished, timed_out = supervise(cmd, limit)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if doc is None:
        # A hang or a crash: every operation that did not finish failed.
        attempted = max(planned, 1)
        failed = max(attempted - finished, 1)
        reason = f"killed after {limit:.0f} s" if timed_out else "no result"
        log(f"{args.workload}: {reason}; {failed} of {attempted} replays unfinished")
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    key = "end_to_end" if args.trace == 0 else "per_layer"
    stats = {}
    for m in spec[key]:
        name = m["name"]
        if args.trace == 1:
            values = [doc["layers"][name]] if name in doc["layers"] else []
        else:
            values = doc["samples"].get(name, [])
        if not values:
            log(f"metric {name} missing from the measurement")
            return 2
        stats[name] = dict(summary(values), unit=m["unit"])

    problems = list(doc["failures"])
    after = foreign_changes()
    if before is not None and after != before:
        problems.append(f"files outside {OWN_PATHS} changed: {sorted(set(after) ^ set(before))}")
    attempted, failed = doc["attempted"], doc["failed"]
    correct = not problems

    env = {
        "commit": (git("rev-parse", "HEAD") or "unknown (not a git checkout)").strip(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "available_parallelism": doc["available_parallelism"],
        "engine_workers": doc["engine_workers"],
        "rustc": tool_version(["rustc", "--version"]),
        "loadavg_start": loadavg,
        "reps": doc["passes"],
        "seconds": args.seconds,
        "started_unix": started,
    }
    # The run's other figures: with --trace 0 the per-policy throughput of
    # the untraced passes and the peak RSS (bounded only as per-layer
    # metrics); with --trace 1 the untraced passes' end-to-end figures.
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    extra = {
        n: dict(summary(v), unit=units[n]) for n, v in doc["samples"].items() if n not in stats
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "requests": doc["requests"],
        "correct": correct, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "problems": problems, "notes": doc["notes"],
        "metrics": stats, "unbounded": extra, "samples": doc["samples"],
        "layers": doc["layers"],
    }
    with open(os.path.join(results, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} reps={doc['passes']} "
          f"requests={doc['requests']} nproc={env['nproc']} load={' '.join(loadavg)}")
    print(f"# {env['rustc']}; commit {env['commit'][:12]}")
    for note in doc["notes"]:
        print(f"# {note}")
    print(f"{'metric':<40} {'median':>16} {'q1':>16} {'q3':>16}  unit")
    for name, s in stats.items():
        print(f"{name:<40} {s['median']:>16.6g} {s['q1']:>16.6g} {s['q3']:>16.6g}  {s['unit']}")
    for name, s in extra.items():
        print(f"{name:<40} {s['median']:>16.6g} {s['q1']:>16.6g} {s['q3']:>16.6g}  {s['unit']} (unbounded here)")
    print(f"{'error_rate':<40} {failed / attempted:>16.6g} {'':>16} {'':>16}  ratio "
          f"({failed} of {attempted} replays failed)")
    for p in problems:
        print(f"FAIL {p}")
    metrics = {n: {"value": s["median"], "unit": s["unit"]} for n, s in stats.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed if correct else max(failed, 1), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
