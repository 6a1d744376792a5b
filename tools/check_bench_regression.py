#!/usr/bin/env python3
"""Guard against bench perf regressions (kernels and inference serving).

Kernel mode (``--bench-binary`` / ``--bench-json``): runs
``bench_micro_kernels --benchmark_filter=Large`` fresh and compares each
kernel's single-thread ``items_per_second`` against the committed
baseline in BENCH_kernels.json.  Fails (exit 1) if any kernel regresses
by more than --tolerance (default 15%).

Only the 1-thread rows are compared: multi-thread wall-clock is noisy on
shared CI hosts (the committed baseline was itself taken on a 1-core
container), while single-thread throughput of these compute-bound
kernels is stable enough to gate on.

Inference mode (``--inference-binary`` / ``--inference-json``): runs
``bench_inference_qps`` fresh and, against the committed
BENCH_inference.json baseline, enforces per model:
  * the structural invariant that warm-request BufferPool misses stay
    >= 10x below the cold phase's (same request count, pool trimmed
    before each cold request; hardware independent, strict), and
  * steady-state QPS within --inference-tolerance (default 50%; QPS is
    wall-clock and very noisy on shared hosts) of the baseline.

Only eager-mode rows (``mode`` == "eager", or no ``mode`` field in
older baselines) participate in the inference comparison; plan-mode
rows have their own gate below.

Plan mode (``--plan-binary`` / ``--plan-json``): runs
``bench_inference_qps`` fresh and gates the static execution plan on
that run alone (both sides of each comparison come from the same binary
on the same host, so the gates are strict):
  * every plan-mode row compiled a plan (no silent eager fallback) and
    served its warm requests with exactly zero BufferPool misses — the
    pre-reserved-workspace invariant, and
  * on gcn, plan QPS >= eager QPS.

Fusion mode (``--fusion-binary`` / ``--fusion-json``): runs
``bench_inference_qps`` fresh and gates the plan op-chain fusion pass
on that run alone:
  * every plan-mode row fused at least one op chain (``fused_steps``
    > 0 — the coverage invariant: each zoo model in the bench has a
    known-fusible chain), with the step arithmetic self-consistent
    against the plan-nofuse row of the same model
    (``plan_steps == nofuse_steps - ops_fused_away``), and zero warm
    pool misses in both plan modes, strictly, and
  * on gcn, gat, and lasagne-weighted, fused-plan QPS >= the unfused
        plan's
    QPS less --fusion-slack (default 10%; both rows come from the same
    run, but the absolute difference — one fused step — is near the
    wall-clock noise floor on shared hosts).

Serving mode (``--serving-binary`` / ``--serving-json``): runs
``bench_serving_load`` fresh and, against the committed
BENCH_serving.json baseline, enforces per worker-sweep row:
  * the robustness invariants, strictly and hardware independent:
    ``accounting_ok`` (every submitted request got exactly one terminal
    outcome — zero silent drops), ``drained`` (shutdown left an empty
    queue — no deadlocked workers), and zero INTERNAL failures on rows
    without fault injection, and
  * sustained QPS within --serving-tolerance (default 50%) of baseline
    and p99 latency within --serving-p99-factor (default 5x) of
    baseline — generous, because both are wall-clock dependent on
    shared hosts.

Pool mode (``--pool-binary`` / ``--pool-json``): runs
``bench_serving_load`` fresh and gates the buffer pool
(docs/SERVING.md "Buffer pool") on that run alone. Per unfaulted
worker-sweep row, strictly and hardware independent:
  * the pool columns are present (a bench without them cannot certify
    the pool), and
  * steady-phase pool misses stay marginal (<= max(16, 12.5% of
    steady requests)) — the warm-reuse invariant. The budget is not
    zero because the closed-loop burst workload legitimately deepens
    its chunk inventory mid-run: a scheduling-dependent peak in
    in-flight requests can exceed the cached population, growing it
    by a miss. A genuinely broken pool misses on every acquire
    (several times 100% of requests), far above the budget.
The worker-scaling check (4-worker QPS >= 1-worker QPS) only applies
when the recorded ``hw_cores`` >= 4: on fewer cores extra workers
measure scheduling overhead, not parallelism, and the check is
reported as skipped.

Usage:
  tools/check_bench_regression.py --bench-binary build/bench/bench_micro_kernels
  tools/check_bench_regression.py --bench-json fresh.json   # pre-recorded run
  tools/check_bench_regression.py --inference-binary build/bench/bench_inference_qps
  tools/check_bench_regression.py --serving-binary build/bench/bench_serving_load

Kernels present in the fresh run but absent from the baseline (newly
added benchmarks) are reported and skipped; kernels present in the
baseline but missing from the fresh run are an error, since silently
dropping a benchmark would disable its gate.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "BENCH_kernels.json")
DEFAULT_INFERENCE_BASELINE = os.path.join(REPO_ROOT, "BENCH_inference.json")
DEFAULT_SERVING_BASELINE = os.path.join(REPO_ROOT, "BENCH_serving.json")

# Matches plain runs ("BM_Foo/threads:1") and aggregate rows from
# --benchmark_repetitions ("BM_Foo/threads:1_median").
_NAME_RE = re.compile(r"^(BM_\w+?)(?:/threads:(\d+))?(?:_(\w+))?$")


def parse_benchmark_json(doc):
    """Returns {kernel: items_per_second} for 1-thread rows.

    Prefers median aggregates when repetitions were requested; falls
    back to the plain (single-run) rows otherwise.
    """
    plain, medians = {}, {}
    for entry in doc.get("benchmarks", []):
        m = _NAME_RE.match(entry.get("name", ""))
        if not m or "items_per_second" not in entry:
            continue
        kernel, threads, aggregate = m.group(1), int(m.group(2) or 1), m.group(3)
        if threads != 1:
            continue
        if aggregate == "median":
            medians[kernel] = entry["items_per_second"]
        elif aggregate is None:
            plain[kernel] = entry["items_per_second"]
    merged = dict(plain)
    merged.update(medians)
    return merged


def load_baseline(path):
    with open(path) as f:
        doc = json.load(f)
    return {
        r["kernel"]: r["items_per_second"]
        for r in doc["results"]
        if r.get("threads", 1) == 1
    }


def run_fresh(bench_binary):
    cmd = [
        bench_binary,
        "--benchmark_filter=Large",
        "--benchmark_format=json",
        "--benchmark_repetitions=3",
        "--benchmark_report_aggregates_only=true",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark run failed (exit {proc.returncode})")
    return json.loads(proc.stdout)


def run_fresh_inference(bench_binary):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "fresh_inference.json")
        proc = subprocess.run([bench_binary, "--json-out", out],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(
                f"inference bench run failed (exit {proc.returncode})")
        with open(out) as f:
            return json.load(f)


def inference_rows(doc, mode="eager"):
    """Rows of one mode keyed by model. Rows without a ``mode`` field
    predate the execution-plan split and are eager by definition."""
    return {
        r["model"]: r
        for r in doc.get("results", [])
        if r.get("mode", "eager") == mode
    }


def check_inference(fresh_doc, baseline_path, tolerance):
    """Returns a list of failure strings (empty on success)."""
    with open(baseline_path) as f:
        baseline = inference_rows(json.load(f))
    fresh = inference_rows(fresh_doc)
    failures = []
    for model in sorted(set(fresh) | set(baseline)):
        if model not in baseline:
            print(f"  NEW   {model}: {fresh[model]['qps']:.1f} QPS "
                  "(no baseline; add it to BENCH_inference.json)")
            continue
        if model not in fresh:
            failures.append(f"{model}: present in baseline but missing "
                            "from the fresh run")
            continue
        row = fresh[model]
        # Structural invariant: warm requests reuse pooled buffers.
        cold = row["cold_pool_misses"]
        warm = max(row["warm_pool_misses"], 1)
        if cold < 10 * warm:
            failures.append(
                f"{model}: warm pool misses did not collapse "
                f"(cold={cold:.0f}, warm={warm:.0f}, need >= 10x)")
            pool_status = "POOL!"
        else:
            pool_status = "OK"
        ratio = row["qps"] / baseline[model]["qps"]
        qps_status = "OK" if ratio >= 1.0 - tolerance else "SLOW"
        print(f"  {qps_status:<5} {model}: {row['qps']:.1f} vs baseline "
              f"{baseline[model]['qps']:.1f} QPS ({ratio:.2f}x), "
              f"pool {pool_status} (cold={cold:.0f} warm={warm:.0f})")
        if qps_status == "SLOW":
            failures.append(
                f"{model}: {ratio:.2f}x of baseline QPS "
                f"(allowed >= {1.0 - tolerance:.2f}x)")
    return failures


def check_plan(fresh_doc):
    """Returns a list of failure strings (empty on success).

    Plan mode gates on the FRESH run alone — both invariants compare
    rows produced seconds apart by the same binary on the same host, so
    no cross-machine tolerance is needed:
      * every plan-mode row must be served entirely from the plan's
        pre-reserved workspace: warm_pool_misses == 0, strictly, and the
        plan must actually have compiled (no silent eager fallback), and
      * on gcn, plan QPS must be >= eager QPS from the same run.
    """
    eager = inference_rows(fresh_doc, "eager")
    plan = inference_rows(fresh_doc, "plan")
    failures = []
    if not plan:
        return ["no plan-mode rows in the fresh run"]
    for model in sorted(plan):
        row = plan[model]
        problems = []
        if not row.get("plan_compiled"):
            problems.append("plan did not compile (silent eager fallback)")
        if row["warm_pool_misses"] != 0:
            problems.append(
                f"{row['warm_pool_misses']:.0f} warm pool misses (must be 0)")
        status = "OK" if not problems else "PLAN!"
        print(f"  {status:<5} {model} [plan]: {row['qps']:.1f} QPS, "
              f"warm misses {row['warm_pool_misses']:.0f}, workspace "
              f"{row.get('workspace_bytes', 0) / 1024.0:.0f} KiB")
        for problem in problems:
            failures.append(f"{model}: {problem}")
    if "gcn" not in plan or "gcn" not in eager:
        failures.append("gcn missing from plan/eager rows; cannot gate "
                        "plan-vs-eager QPS")
    else:
        ratio = plan["gcn"]["qps"] / eager["gcn"]["qps"]
        status = "OK" if ratio >= 1.0 else "SLOW"
        print(f"  {status:<5} gcn: plan {plan['gcn']['qps']:.1f} vs eager "
              f"{eager['gcn']['qps']:.1f} QPS ({ratio:.2f}x)")
        if ratio < 1.0:
            failures.append(
                f"gcn: plan QPS {ratio:.2f}x of eager (same-run; must be "
                ">= 1.0x)")
    return failures


def check_fusion(fresh_doc, slack):
    """Returns a list of failure strings (empty on success).

    Fusion mode gates on the FRESH run alone, comparing the "plan"
    (fused) and "plan-nofuse" rows the same binary produced seconds
    apart:
      * structure, strictly: every fused row compiled, fused at least
        one chain, kept zero warm pool misses, never grew the
        workspace, and its step count equals the unfused row's minus
        the ops fused away; every plan-nofuse row fused nothing, and
      * wall clock, with --fusion-slack: on gcn, gat, and lasagne-weighted
        the fused plan's QPS must not fall below (1 - slack)x the
        unfused plan's.
    """
    fused = inference_rows(fresh_doc, "plan")
    unfused = inference_rows(fresh_doc, "plan-nofuse")
    failures = []
    if not fused:
        return ["no plan-mode rows in the fresh run"]
    if not unfused:
        return ["no plan-nofuse rows in the fresh run (bench too old?)"]
    for model in sorted(fused):
        row = fused[model]
        problems = []
        if not row.get("plan_compiled"):
            problems.append("fused plan did not compile")
        if row.get("fused_steps", 0) <= 0:
            problems.append("no op chain fused (fused_steps == 0)")
        if row["warm_pool_misses"] != 0:
            problems.append(
                f"{row['warm_pool_misses']:.0f} warm pool misses (must be 0)")
        base = unfused.get(model)
        if base is None:
            problems.append("no plan-nofuse row for this model")
        else:
            if base.get("fused_steps", 0) != 0:
                problems.append("plan-nofuse row reports fused steps")
            if base["warm_pool_misses"] != 0:
                problems.append(
                    f"plan-nofuse: {base['warm_pool_misses']:.0f} warm pool "
                    "misses (must be 0)")
            want = base.get("plan_steps", 0) - row.get("ops_fused_away", 0)
            if row.get("plan_steps", 0) != want:
                problems.append(
                    f"step arithmetic broken: {row.get('plan_steps', 0):.0f} "
                    f"fused steps vs {base.get('plan_steps', 0):.0f} unfused "
                    f"- {row.get('ops_fused_away', 0):.0f} fused away")
            if row.get("workspace_bytes", 0) > base.get("workspace_bytes", 0):
                problems.append(
                    "fused workspace grew: "
                    f"{row.get('workspace_bytes', 0):.0f} vs "
                    f"{base.get('workspace_bytes', 0):.0f} bytes")
        status = "OK" if not problems else "FUSE!"
        print(f"  {status:<5} {model}: {row.get('plan_steps', 0):.0f} steps "
              f"({row.get('fused_steps', 0):.0f} fused, "
              f"{row.get('ops_fused_away', 0):.0f} ops away), "
              f"{row['qps']:.1f} QPS")
        for problem in problems:
            failures.append(f"{model}: {problem}")
    for model in ("gcn", "gat", "lasagne-weighted"):
        if model not in fused or model not in unfused:
            failures.append(f"{model} missing from plan/plan-nofuse rows; "
                            "cannot gate fused-vs-unfused QPS")
            continue
        ratio = fused[model]["qps"] / unfused[model]["qps"]
        status = "OK" if ratio >= 1.0 - slack else "SLOW"
        print(f"  {status:<5} {model}: fused {fused[model]['qps']:.1f} vs "
              f"unfused {unfused[model]['qps']:.1f} QPS ({ratio:.2f}x)")
        if status == "SLOW":
            failures.append(
                f"{model}: fused plan {ratio:.2f}x of unfused QPS "
                f"(allowed >= {1.0 - slack:.2f}x, same run)")
    return failures


def run_fresh_serving(bench_binary):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "fresh_serving.json")
        proc = subprocess.run([bench_binary, "--json-out", out],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(
                f"serving bench run failed (exit {proc.returncode})")
        with open(out) as f:
            return json.load(f)


def serving_rows(doc):
    return {r["config"]: r for r in doc.get("results", [])}


def check_serving(fresh_doc, baseline_path, tolerance, p99_factor):
    """Returns a list of failure strings (empty on success).

    The correctness invariants (accounting, drain, no unfaulted
    failures) gate strictly on the FRESH run alone; the baseline is only
    consulted for the wall-clock comparisons.
    """
    with open(baseline_path) as f:
        baseline = serving_rows(json.load(f))
    fresh = serving_rows(fresh_doc)
    failures = []
    for config in sorted(set(fresh) | set(baseline)):
        if config not in fresh:
            failures.append(f"{config}: present in baseline but missing "
                            "from the fresh run")
            continue
        row = fresh[config]
        # Strict, hardware-independent robustness invariants.
        invariants = []
        if not row.get("accounting_ok"):
            invariants.append("requests dropped (accounting_ok false)")
        if not row.get("drained"):
            invariants.append("shutdown did not drain (drained false)")
        if not row.get("faulted") and row.get("failed", 0) > 0:
            invariants.append(
                f"{row['failed']:.0f} INTERNAL failures without fault "
                "injection")
        if row.get("served_ok", 0) <= 0:
            invariants.append("no request served successfully")
        for problem in invariants:
            failures.append(f"{config}: {problem}")
        inv_status = "OK" if not invariants else "INV!"
        if config not in baseline:
            print(f"  NEW   {config}: {row['qps']:.1f} QPS, "
                  f"p99 {row['p99_ms']:.2f} ms, invariants {inv_status} "
                  "(no baseline; add it to BENCH_serving.json)")
            continue
        # Generous wall-clock comparisons.
        base = baseline[config]
        qps_ratio = row["qps"] / base["qps"] if base["qps"] > 0 else 1.0
        qps_ok = qps_ratio >= 1.0 - tolerance
        p99_ratio = (row["p99_ms"] / base["p99_ms"]
                     if base["p99_ms"] > 0 else 1.0)
        p99_ok = p99_ratio <= p99_factor
        status = "OK" if qps_ok and p99_ok and not invariants else "SLOW" \
            if not invariants else "INV!"
        print(f"  {status:<5} {config}: {row['qps']:.1f} vs baseline "
              f"{base['qps']:.1f} QPS ({qps_ratio:.2f}x), p99 "
              f"{row['p99_ms']:.2f} vs {base['p99_ms']:.2f} ms "
              f"({p99_ratio:.2f}x), invariants {inv_status}")
        if not qps_ok:
            failures.append(
                f"{config}: {qps_ratio:.2f}x of baseline QPS "
                f"(allowed >= {1.0 - tolerance:.2f}x)")
        if not p99_ok:
            failures.append(
                f"{config}: p99 {p99_ratio:.2f}x of baseline "
                f"(allowed <= {p99_factor:.1f}x)")
    return failures


def check_pool(fresh_doc):
    """Returns a list of failure strings (empty on success).

    Pool mode gates on the FRESH run alone: every invariant below is a
    property of the pool's steady-state behavior, measured by counters
    the bench snapshots around its steady phase, so no cross-machine
    tolerance is needed.
    """
    fresh = serving_rows(fresh_doc)
    failures = []
    pool_fields = ("steady_requests", "steady_pool_misses")
    unfaulted = {c: r for c, r in fresh.items() if not r.get("faulted")}
    if not unfaulted:
        return ["no unfaulted rows in the fresh run"]
    for config in sorted(unfaulted):
        row = unfaulted[config]
        missing = [f for f in pool_fields if f not in row]
        if missing:
            failures.append(f"{config}: missing pool fields "
                            f"{', '.join(missing)} (bench too old?)")
            continue
        problems = []
        steady = row["steady_requests"]
        if steady <= 0:
            problems.append("no steady-phase requests served")
        # Nonzero budget: the bursty closed loop legitimately deepens
        # its chunk inventory mid-run (see the module docstring); a
        # broken pool misses on every acquire, far above this.
        miss_budget = max(16.0, 0.125 * steady)
        if row["steady_pool_misses"] > miss_budget:
            problems.append(
                f"{row['steady_pool_misses']:.0f} steady pool misses "
                f"(allowed <= {miss_budget:.0f}; warm reuse broken)")
        status = "OK" if not problems else "POOL!"
        print(f"  {status:<5} {config}: {row['steady_pool_misses']:.0f} "
              f"misses over {steady:.0f} requests")
        for problem in problems:
            failures.append(f"{config}: {problem}")
    # Worker scaling only means parallelism on a multi-core host.
    hw_cores = int(fresh_doc.get("hw_cores", 0))
    if hw_cores >= 4:
        if "4w" not in unfaulted or "1w" not in unfaulted:
            failures.append("1w/4w rows missing; cannot gate worker scaling")
        else:
            ratio = (unfaulted["4w"]["qps"] / unfaulted["1w"]["qps"]
                     if unfaulted["1w"]["qps"] > 0 else 0.0)
            status = "OK" if ratio >= 1.0 else "SLOW"
            print(f"  {status:<5} scaling: 4w {unfaulted['4w']['qps']:.1f} vs "
                  f"1w {unfaulted['1w']['qps']:.1f} QPS ({ratio:.2f}x, "
                  f"{hw_cores} cores)")
            if ratio < 1.0:
                failures.append(
                    f"4-worker QPS {ratio:.2f}x of 1-worker on a "
                    f"{hw_cores}-core host (must be >= 1.0x)")
    else:
        print(f"  SKIP  scaling: hw_cores={hw_cores} < 4 — extra workers "
              "measure scheduling overhead here, not parallel speedup")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench-binary",
                    help="path to the bench_micro_kernels executable")
    ap.add_argument("--bench-json",
                    help="pre-recorded google-benchmark JSON (skips running)")
    ap.add_argument("--baseline", default=DEFAULT_BASELINE,
                    help="committed baseline (default: BENCH_kernels.json)")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="max allowed fractional slowdown (default 0.15)")
    ap.add_argument("--inference-binary",
                    help="path to the bench_inference_qps executable")
    ap.add_argument("--inference-json",
                    help="pre-recorded bench_inference_qps JSON")
    ap.add_argument("--inference-baseline",
                    default=DEFAULT_INFERENCE_BASELINE,
                    help="committed baseline (default: BENCH_inference.json)")
    ap.add_argument("--inference-tolerance", type=float, default=0.5,
                    help="max allowed fractional QPS slowdown (default 0.5)")
    ap.add_argument("--plan-binary",
                    help="path to the bench_inference_qps executable "
                         "(gates plan mode: zero warm misses, "
                         "plan >= eager QPS on gcn, same run)")
    ap.add_argument("--plan-json",
                    help="pre-recorded bench_inference_qps JSON for the "
                         "plan gate")
    ap.add_argument("--fusion-binary",
                    help="path to the bench_inference_qps executable "
                         "(gates the fusion pass: every chain fused, "
                         "fused >= unfused-plan QPS, same run)")
    ap.add_argument("--fusion-json",
                    help="pre-recorded bench_inference_qps JSON for the "
                         "fusion gate")
    ap.add_argument("--fusion-slack", type=float, default=0.10,
                    help="allowed fused-vs-unfused QPS shortfall "
                         "(default 0.10)")
    ap.add_argument("--serving-binary",
                    help="path to the bench_serving_load executable")
    ap.add_argument("--serving-json",
                    help="pre-recorded bench_serving_load JSON")
    ap.add_argument("--serving-baseline", default=DEFAULT_SERVING_BASELINE,
                    help="committed baseline (default: BENCH_serving.json)")
    ap.add_argument("--serving-tolerance", type=float, default=0.5,
                    help="max allowed fractional QPS slowdown (default 0.5)")
    ap.add_argument("--serving-p99-factor", type=float, default=5.0,
                    help="max allowed p99 growth vs baseline (default 5x)")
    ap.add_argument("--pool-binary",
                    help="path to the bench_serving_load executable "
                         "(gates the buffer pool: warm reuse, worker "
                         "scaling)")
    ap.add_argument("--pool-json",
                    help="pre-recorded bench_serving_load JSON for the "
                         "pool gate")
    args = ap.parse_args()

    pool_mode = bool(args.pool_binary) or bool(args.pool_json)
    if pool_mode:
        if bool(args.pool_binary) == bool(args.pool_json):
            ap.error("exactly one of --pool-binary / --pool-json "
                     "is required")
        if args.pool_json:
            with open(args.pool_json) as f:
                fresh_doc = json.load(f)
        else:
            fresh_doc = run_fresh_serving(args.pool_binary)
        failures = check_pool(fresh_doc)
        if failures:
            print("\nFAIL: buffer-pool regression", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print("\nPASS: steady-state serving reuses pooled buffers — "
              "warm misses marginal on every unfaulted row")
        return 0

    serving_mode = bool(args.serving_binary) or bool(args.serving_json)
    if serving_mode:
        if bool(args.serving_binary) == bool(args.serving_json):
            ap.error("exactly one of --serving-binary / --serving-json "
                     "is required")
        if args.serving_json:
            with open(args.serving_json) as f:
                fresh_doc = json.load(f)
        else:
            fresh_doc = run_fresh_serving(args.serving_binary)
        failures = check_serving(fresh_doc, args.serving_baseline,
                                 args.serving_tolerance,
                                 args.serving_p99_factor)
        if failures:
            print("\nFAIL: serving regression", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print("\nPASS: zero drops, deterministic drain, and every config "
              f"within {(1.0 - args.serving_tolerance) * 100:.0f}% QPS / "
              f"{args.serving_p99_factor:.0f}x p99 of baseline")
        return 0

    fusion_mode = bool(args.fusion_binary) or bool(args.fusion_json)
    if fusion_mode:
        if bool(args.fusion_binary) == bool(args.fusion_json):
            ap.error("exactly one of --fusion-binary / --fusion-json "
                     "is required")
        if args.fusion_json:
            with open(args.fusion_json) as f:
                fresh_doc = json.load(f)
        else:
            fresh_doc = run_fresh_inference(args.fusion_binary)
        failures = check_fusion(fresh_doc, args.fusion_slack)
        if failures:
            print("\nFAIL: plan-fusion regression", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print("\nPASS: every expected chain fused, zero warm pool misses, "
              "and fused >= unfused-plan QPS on gcn, gat, and lasagne-weighted")
        return 0

    plan_mode = bool(args.plan_binary) or bool(args.plan_json)
    if plan_mode:
        if bool(args.plan_binary) == bool(args.plan_json):
            ap.error("exactly one of --plan-binary / --plan-json "
                     "is required")
        if args.plan_json:
            with open(args.plan_json) as f:
                fresh_doc = json.load(f)
        else:
            fresh_doc = run_fresh_inference(args.plan_binary)
        failures = check_plan(fresh_doc)
        if failures:
            print("\nFAIL: execution-plan regression", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print("\nPASS: every plan compiled, zero warm pool misses, and "
              "plan >= eager QPS on gcn")
        return 0

    inference_mode = bool(args.inference_binary) or bool(args.inference_json)
    if inference_mode:
        if bool(args.inference_binary) == bool(args.inference_json):
            ap.error("exactly one of --inference-binary / --inference-json "
                     "is required")
        if args.inference_json:
            with open(args.inference_json) as f:
                fresh_doc = json.load(f)
        else:
            fresh_doc = run_fresh_inference(args.inference_binary)
        failures = check_inference(fresh_doc, args.inference_baseline,
                                   args.inference_tolerance)
        if failures:
            print("\nFAIL: inference serving regression", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print("\nPASS: pool-miss collapse holds and no model below "
              f"{(1.0 - args.inference_tolerance) * 100:.0f}% of baseline "
              "QPS")
        return 0

    if bool(args.bench_binary) == bool(args.bench_json):
        ap.error("exactly one of --bench-binary / --bench-json is required")

    if args.bench_json:
        with open(args.bench_json) as f:
            doc = json.load(f)
    else:
        doc = run_fresh(args.bench_binary)

    fresh = parse_benchmark_json(doc)
    baseline = load_baseline(args.baseline)
    if not fresh:
        raise SystemExit("no 1-thread benchmark rows found in fresh run")

    failures = []
    for kernel in sorted(set(fresh) | set(baseline)):
        if kernel not in baseline:
            print(f"  NEW   {kernel}: {fresh[kernel]:.3e} items/s "
                  "(no baseline; add it to BENCH_kernels.json)")
            continue
        if kernel not in fresh:
            failures.append(f"{kernel}: present in baseline but missing "
                            "from the fresh run")
            continue
        ratio = fresh[kernel] / baseline[kernel]
        status = "OK" if ratio >= 1.0 - args.tolerance else "SLOW"
        print(f"  {status:<5} {kernel}: {fresh[kernel]:.3e} vs baseline "
              f"{baseline[kernel]:.3e} items/s ({ratio:.2f}x)")
        if status == "SLOW":
            failures.append(
                f"{kernel}: {ratio:.2f}x of baseline "
                f"(allowed >= {1.0 - args.tolerance:.2f}x)")

    if failures:
        print("\nFAIL: single-thread perf regression", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nPASS: no kernel below "
          f"{(1.0 - args.tolerance) * 100:.0f}% of baseline throughput")
    return 0


if __name__ == "__main__":
    sys.exit(main())
