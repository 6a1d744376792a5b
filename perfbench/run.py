#!/usr/bin/env python3
"""End-to-end benchmark: training, Predict and open-loop serving.

Builds the benchmark binary from this checkout's sources (into
.bench_build/perfbench), runs each requested workload in a fresh process
with the workload seed, checks its outputs, prints every metric by name
with unit, sample count and tail percentile, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload train-pubmed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1    # per-layer table, every workload
    python3 perfbench/run.py --smoke                     # self-test at tiny sizes

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 an untraced and a traced run of the same seed are made and the
metrics are its per_layer metrics. See perfbench/README.md.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
EXPECTED = BENCH_DIR / "expected.json"
DEFAULT_SEED = 1


def run_timeout_s(seconds):
    """Set-up, checks and a slower traced run on top of the measured time."""
    return 2 * seconds + 120

# Threads per workload. Two, not nproc: on a shared VM a parallel region
# waits for its slowest thread, so with one thread per vCPU any vCPU the
# hypervisor takes stalls every region (see README.md). serve-tencent's
# workers run their kernels inline, so its process has 2 workers + the
# generator = 3 busy threads. train-cora is not in BENCHMARK.json (too
# unsteady on a shared host) but still runs with the others.
THREADS = {
    "train-cora": 1,
    "train-pubmed": 2,
    "predict-pubmed": 2,
    "serve-tencent": 1,
}

# Contract metric -> the binary's metric for each workload. "a" and "b"
# are the workload's two measured series: the two models (lasagne, gat)
# on train-* and predict-pubmed, the two rates (low, high) on serve.
# The tails are printed in the report but are not contract metrics: on a
# shared VM they follow the host's vCPU wake-up and steal, not the program.
SLOTS = {
    "train": {
        "a.p50_ms": "epoch_ms.lasagne",
        "b.p50_ms": "epoch_ms.gat",
        "goodput_per_s": "goodput_per_s",
    },
    "predict-pubmed": {
        "a.p50_ms": "predict_ms.lasagne.p50",
        "b.p50_ms": "predict_ms.gat.p50",
        "goodput_per_s": "goodput_per_s",
    },
    "serve-tencent": {
        "a.p50_ms": "serve_ms.low.p50",
        "b.p50_ms": "serve_ms.high.p50",
        "goodput_per_s": "goodput_qps.high",
    },
}


def slots_for(workload):
    return SLOTS["train" if workload.startswith("train-") else workload]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---------------------------------------------------------------- build


def build():
    """Configures and builds the binary; exits 2 when that fails."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no library sources (src/) in this checkout")
        sys.exit(2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    build_log = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                log(f"perfbench: build failed, see {build_log}")
                sys.exit(2)


# ------------------------------------------------------------ provenance


def source_digest():
    """sha256 over the library and bench-helper sources of this checkout."""
    h = hashlib.sha256()
    for base in ("src", "bench/common", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_times():
    """(steal, total) jiffies over all CPUs, or None without /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal; guest time is
    # already counted in user and nice.
    return fields[7], sum(fields[:8])


def provenance(workload, seed, seconds, result):
    info = result["info"]
    p = {
        "commit": commit(),
        "source_digest": source_digest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "threads": info.get("threads"),
        "graph": info.get("graph"),
        "loadavg_before": result["loadavg_before"],
        "loadavg_after": result["loadavg_after"],
        "steal_frac": result["steal_frac"],
    }
    for key in ("workers", "rates_per_s", "query_nodes", "epochs_per_run",
                "limit_ms"):
        if key in info:
            p[key] = info[key]
    return p


# ------------------------------------------------------------------ runs


def run_binary(workload, seed, seconds, traced, tiny=False, perturb=False):
    """Runs one workload in a fresh process; returns its RESULT object.
    Failed checks are expected with perturb, so its stderr is dropped."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--threads", str(THREADS[workload])]
    if traced:
        cmd.append("--trace")
    if tiny:
        cmd.append("--tiny")
    if perturb:
        cmd.append("--perturb")
    before = os.getloadavg()
    times_before = cpu_times()
    timeout = run_timeout_s(seconds)
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {timeout} s")
        sys.exit(3)
    if r.stderr and not perturb:
        sys.stderr.write(r.stderr)
    lines = [l for l in r.stdout.splitlines() if l.startswith("RESULT ")]
    if r.returncode != 0 or not lines:
        log(f"perfbench: {workload} exited with {r.returncode}")
        sys.exit(3)
    result = json.loads(lines[-1][len("RESULT "):])
    result["loadavg_before"] = list(before)
    result["loadavg_after"] = list(os.getloadavg())
    # Share of CPU time the hypervisor took during the run: the reference
    # host is a shared VM whose timings slow down when this rises.
    times_after = cpu_times()
    result["steal_frac"] = None
    if times_before and times_after and times_after[1] > times_before[1]:
        result["steal_frac"] = ((times_after[0] - times_before[0])
                                / (times_after[1] - times_before[1]))
    return result


def expected_mismatches(workload, seed, result):
    """Train results of the default seed must equal expected.json."""
    if seed != DEFAULT_SEED or not workload.startswith("train-"):
        return []
    with open(EXPECTED) as f:
        expected = json.load(f).get(workload, {})
    bad = []
    for tag, want in expected.items():
        got = result["info"].get("result." + tag)
        if got != want:
            bad.append(f"expected.{tag}: got {got}, recorded {want}")
    return bad


def end_to_end(workload, result):
    """The contract's end-to-end metrics, from the binary's metrics."""
    m = result["metrics"]
    out = {
        "setup_s": m["setup_s"]["value"],
        "peak_rss_mb": m["peak_rss_mb"]["value"],
        "ok_frac": 1.0 - m["failed_frac"]["value"],
    }
    for slot, name in slots_for(workload).items():
        out[slot] = m[name]["value"]
    return out


def overhead_frac(workload, untraced, traced):
    """Traced over untraced, minus 1, averaged over the two p50 series."""
    names = [slots_for(workload)[s] for s in ("a.p50_ms", "b.p50_ms")]
    fracs = [traced["metrics"][n]["value"] / untraced["metrics"][n]["value"]
             - 1.0 for n in names]
    return statistics.mean(fracs)


def run_workload(workload, seed, seconds, trace, spec):
    """One workload: untraced run, plus a traced run when trace is set."""
    untraced = run_binary(workload, seed, seconds, traced=False)
    traced = run_binary(workload, seed, seconds, traced=True) if trace else None
    problems = [f"{c['name']} {c['detail']}".strip()
                for r in (untraced, traced) if r is not None
                for c in r["checks"] if not c["ok"]]
    problems += expected_mismatches(workload, seed, untraced)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    e2e = end_to_end(workload, untraced)
    if set(e2e) != set(units):
        problems.append(f"end-to-end names {sorted(e2e)} != BENCHMARK.json")
    if trace:
        layers = {k: v["value"] for k, v in traced["layers"].items()}
        layers["obs.trace_overhead_frac"] = overhead_frac(workload, untraced,
                                                          traced)
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if set(layers) != set(layer_units):
            problems.append("per-layer names differ from BENCHMARK.json: "
                            f"{sorted(set(layers) ^ set(layer_units))}")
        metrics = {k: {"value": v, "unit": layer_units.get(k, "")}
                   for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}

    # "failed" counts operations that errored or were rolled back; a
    # request answered after the latency limit is late, not failed, here
    # (it still lowers ok_frac and goodput).
    counts = untraced["phases"]["all"]
    summary = {
        "correct": not problems,
        "attempted": int(counts["attempted"]),
        "failed": int(counts["failed"] - counts["late"]),
        "metrics": metrics,
    }
    detail = {
        "provenance": provenance(workload, seed, seconds, untraced),
        "problems": problems,
        "untraced": untraced,
        "traced": traced,
    }
    return summary, detail


# -------------------------------------------------------------- printing


def fmt(v):
    return f"{v:.6g}" if isinstance(v, (int, float)) else str(v)


def print_report(workload, summary, detail):
    res = detail["untraced"]
    prov = detail["provenance"]
    print(f"== {workload}  seed {prov['seed']}  threads {prov['threads']}  "
          f"graph {prov['graph']}")
    print(f"{'metric':34} {'value':>12} {'unit':>9} {'samples':>8} {'tail':>7}")
    for name, m in sorted(res["metrics"].items()):
        tail = f"p{m['tail_pct']:.1f}" if "tail_pct" in m else ""
        print(f"{name:34} {fmt(m['value']):>12} {m['unit']:>9} "
              f"{int(m['samples']):>8} {tail:>7}")
    print(f"{'phase':16} {'attempted':>9} {'succeeded':>9} {'refused':>8} "
          f"{'expired':>8} {'late':>6} {'failed':>7}")
    for name, c in sorted(res["phases"].items()):
        print(f"{name:16} {int(c['attempted']):>9} {int(c['succeeded']):>9} "
              f"{int(c['refused']):>8} {int(c['expired']):>8} "
              f"{int(c['late']):>6} {int(c['failed']):>7}")
    for warn in ("backlog_grows.low", "backlog_grows.high"):
        if res["info"].get(warn):
            print(f"WARNING: {warn}: latencies at this rate are not steady")
    if detail["traced"] is not None:
        print(f"{'per-layer metric (traced run)':44} {'value':>12} {'unit':>9}")
        for name, m in sorted(summary["metrics"].items()):
            print(f"{name:44} {fmt(m['value']):>12} {m['unit']:>9}")
    verdict = "PASS" if summary["correct"] else "FAIL"
    print(f"correctness: {verdict}"
          + "".join(f"\n  - {p}" for p in detail["problems"]))
    print("provenance: " + json.dumps(prov, sort_keys=True))


def write_detail(workload, seed, trace, detail):
    out_dir = BUILD_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(detail, indent=1, sort_keys=True))
    return path


def write_layer_table(runs):
    """Per-layer metrics of every workload, one column each."""
    names = sorted({n for s in runs.values() for n in s["metrics"]})
    workloads = list(runs)
    lines = ["| metric | unit | " + " | ".join(workloads) + " |",
             "|---|---|" + "---|" * len(workloads)]
    for n in names:
        unit = next(s["metrics"][n]["unit"] for s in runs.values()
                    if n in s["metrics"])
        cells = [fmt(runs[w]["metrics"].get(n, {}).get("value", ""))
                 for w in workloads]
        lines.append(f"| {n} | {unit} | " + " | ".join(cells) + " |")
    table = "\n".join(lines)
    path = BUILD_DIR / "layers.md"
    path.write_text(table + "\n")
    print(table)
    print(f"per-layer table written to {path.relative_to(ROOT)}")


# ----------------------------------------------------------------- modes


def smoke(spec):
    """Tiny runs of every workload: names match BENCHMARK.json, checks
    pass, and a perturbed served logit is caught."""
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    failures = []
    for w in THREADS:
        plain = run_binary(w, DEFAULT_SEED, 1, traced=False, tiny=True)
        traced = run_binary(w, DEFAULT_SEED, 1, traced=True, tiny=True)
        if set(end_to_end(w, plain)) != e2e_names:
            failures.append(f"{w}: end-to-end names differ from BENCHMARK.json")
        layers = set(traced["layers"]) | {"obs.trace_overhead_frac"}
        if layers != layer_names:
            failures.append(f"{w}: per-layer names differ: "
                            f"{sorted(layers ^ layer_names)}")
        for r in (plain, traced):
            if not r["correct"]:
                failures.append(f"{w}: checks failed at tiny size")
        log(f"smoke: {w} done")
    for w in ("predict-pubmed", "serve-tencent"):
        r = run_binary(w, DEFAULT_SEED, 1, traced=False, tiny=True,
                       perturb=True)
        caught = [c["name"] for c in r["checks"] if not c["ok"]]
        if r["correct"] or not all(c.startswith("served_equals_eager")
                                   for c in caught):
            failures.append(f"{w}: perturbed logit not caught (failed: {caught})")
    for f in failures:
        print(f"SMOKE FAIL: {f}")
    print("smoke: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    help="a workload name, a comma list, or 'all' (all four)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    build()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.smoke:
        return smoke(spec)

    names = list(THREADS) if args.workload == "all" else args.workload.split(",")
    for w in names:
        if w not in THREADS:
            log(f"perfbench: unknown workload {w}; known: {', '.join(THREADS)}")
            return 1
    runs = {}
    for w in names:
        started = time.monotonic()
        summary, detail = run_workload(w, args.seed, seconds, args.trace, spec)
        print_report(w, summary, detail)
        path = write_detail(w, args.seed, args.trace, detail)
        print(f"({time.monotonic() - started:.1f} s; detail in "
              f"{path.relative_to(ROOT)})")
        runs[w] = summary
    if args.trace and len(runs) > 1:
        write_layer_table(runs)
    if len(runs) == 1:
        final = next(iter(runs.values()))
    else:
        final = {
            "correct": all(s["correct"] for s in runs.values()),
            "attempted": sum(s["attempted"] for s in runs.values()),
            "failed": sum(s["failed"] for s in runs.values()),
            "metrics": {f"{w}/{k}": v for w, s in runs.items()
                        for k, v in s["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
