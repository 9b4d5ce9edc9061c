#!/usr/bin/env python3
"""The nscs repository benchmark.

Run one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

from the root of a checkout.  The first run builds the library and the
harness from source into .bench_build/perfbench (or $CARGO_TARGET_DIR/
perfbench when that is set).  The run prints a short summary and, as its
last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  NAME is a workload of
BENCHMARK.json.  Every run also writes its full record, host
fingerprint included, to <build>/records/.

Compare two sets of records (files holding one record or one per line):

    python3 perfbench/run.py --compare BASE.json NEW.json

The comparison refuses to run when the two sets were measured on
different hosts (CPU, cores, SIMD level, compiler, flags or threads).

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS_TIMEOUT_S = 170
# The fingerprint fields that must match for two results to compare.
HOST_KEYS = ("cpu", "nproc", "simd", "compiler", "flags", "threads")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path.name}: {e}")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / base / "perfbench").resolve()


def build(bdir):
    """Configure once, then build the harness; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no nscs sources next to perfbench/ (need CMakeLists.txt "
             "and src/)", 2)
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(bdir)])
    steps.append(["cmake", "--build", str(bdir), "-j", "4", "--target",
                  "perfbench_harness"])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return bdir / "perfbench_harness"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the
    code measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        return p.stdout.strip() if p.returncode == 0 else None
    except OSError:
        return None


def fingerprint(host):
    fp = {"cpu": cpu_model(), "nproc": os.cpu_count()}
    fp.update(host)
    fp["commit"] = commit()
    fp["source_digest"] = source_digest()
    return fp


def check_metrics(spec, metrics, trace):
    group = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[group]}
    got = {k: v["unit"] for k, v in metrics.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"harness metrics do not match BENCHMARK.json {group}: "
             f"missing {missing}, extra {extra}, unit mismatch {units}")


def run(args):
    spec = load_spec()
    bdir = build_dir()
    exe = build(bdir)
    traces = bdir / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(traces)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    if p.returncode != 0:
        fail(f"harness exited with {p.returncode}", max(p.returncode, 1))
    try:
        doc = json.loads(p.stdout)
    except ValueError:
        fail("harness printed no result")
    check_metrics(spec, doc["metrics"], args.trace)

    doc["fingerprint"] = fingerprint(doc.pop("host"))
    doc["correct"] = doc["failed"] == 0 and doc["self_test_ok"]
    doc["failed_frac"] = doc["failed"] / doc["attempted"]
    doc["time"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    records = bdir / "records"
    records.mkdir(exist_ok=True)
    with open(records / "runs.jsonl", "a") as f:
        f.write(json.dumps(doc) + "\n")

    fp = doc["fingerprint"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}  [{fp['cpu']}, {fp['nproc']} cpus, "
          f"{fp['simd']}, {fp['compiler']}, {fp['threads']} threads]")
    for name, m in sorted(doc["metrics"].items()):
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"  failed_frac {doc['failed_frac']:g} "
          f"({doc['failed']}/{doc['attempted']}), self-test "
          f"{'ok' if doc['self_test_ok'] else 'FAILED'}")
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["metrics"],
    }))


def read_records(path):
    text = Path(path).read_text().strip()
    if text.startswith("{") and "\n{" not in text:
        return [json.loads(text)]
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def compare(args):
    spec = load_spec()
    base, new = read_records(args.compare[0]), read_records(args.compare[1])
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    refused = False
    for w in sorted({r["workload"] for r in base + new}):
        sides = {"base": [r for r in base if r["workload"] == w and
                          not r["trace"]],
                 "new": [r for r in new if r["workload"] == w and
                         not r["trace"]]}
        hosts = {tuple(r["fingerprint"][k] for k in HOST_KEYS)
                 for r in sides["base"] + sides["new"]}
        if len(hosts) > 1:
            print(f"{w}: refusing to compare results from different hosts:",
                  file=sys.stderr)
            for h in sorted(hosts, key=str):
                print("  ", dict(zip(HOST_KEYS, h)), file=sys.stderr)
            refused = True
            continue
        if not sides["base"] or not sides["new"]:
            continue
        print(f"{w}:")
        for k in sorted(bounds):
            b = statistics.median(r["metrics"][k]["value"]
                                  for r in sides["base"])
            n = statistics.median(r["metrics"][k]["value"]
                                  for r in sides["new"])
            ratio = n / b if b else float("nan")
            m = bounds[k]
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            flag = "  WORSE beyond bound" if worse > m["bound"] else ""
            print(f"  {k:16s} base {b:14.6g} (n={len(sides['base'])})  "
                  f"new {n:14.6g} (n={len(sides['new'])})  "
                  f"x{ratio:.4f}{flag}")
    if refused:
        sys.exit(3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args()
    if args.compare:
        compare(args)
    elif args.workload:
        run(args)
    else:
        ap.error("--workload or --compare is required")


if __name__ == "__main__":
    main()
