#!/usr/bin/env python3
"""Request-level benchmark of the drpki five-party signing service.

Run from the repository root:

    python3 perfbench/run.py --workload churn-lan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Workloads (see perfbench/README.md for why each exists):

  churn-lan           consent-gated ISSUE/REVOKE requests replayed from the
                      churn fixture, mal-shamir, LAN, durable, 1 client
  transfer-wan        consent-gated TRANSFERs (CRL delta plus ROA), mascot,
                      WAN-sim latency matrix, durable, 2 clients
  preprocess-durable  restock batches of 100 tuples, mascot, WAN-sim latency
                      matrix, durable, 1 client

A run is split into three service lifetimes.  Each sets up a fresh durable
cluster under .perfbench-run/work (timed; setup_s is the median of the
three), then serves a closed loop for a third of --seconds, and is checked
and closed.  With --trace 0 the last line of output is a JSON object with
the end-to-end metrics; with --trace 1 each lifetime serves half its window
untraced and half with spans recorded at the drpki module boundaries, and
the JSON carries the per-layer metrics.  Results and spans are written to
.perfbench-run/results.  The exit code is 1 when an output check fails and
2 when the drpki sources or the churn fixture are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "data" / "churn_90d"
OUT = ROOT / ".perfbench-run"
WORKLOAD_NAMES = ("churn-lan", "transfer-wan", "preprocess-durable")

# JSON name, unit, name on request workloads, name on preprocess-durable
END_TO_END = [
    ("setup_s", "s", "setup_s", "setup_s"),
    ("op_p50_ms", "ms", "request_p50_ms", "batch_p50_ms"),
    ("units_per_s", "1/s", "signatures_per_s", "tuples_per_s"),
    ("bytes_per_unit", "B", "bytes_per_signature", "bytes_per_tuple"),
    ("peak_rss_mb", "MB", "peak_rss_mb", "peak_rss_mb"),
]
# printed and recorded, not in the JSON line: the tail spreads past any
# bound on a shared host, and the operation rate is units_per_s over a
# fixed number of units per operation
INFO = [
    ("op_tail_ms", "ms", "request_p{q}_ms", "batch_p{q}_ms"),
    ("ops_per_s", "1/s", "requests_per_s", "batches_per_s"),
]


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def tail_percentile(samples: int) -> int:
    """The highest percentile, at most 90 and at least 50, with ten samples beyond it."""
    return max(50, min(90, 100 * (samples - 10) // samples)) if samples else 50


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def guarded(check, *args) -> str | None:
    """Run an output check; an exception it raises is a failed check."""
    try:
        return check(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def check_outputs(wl, svc, records) -> str | None:
    """Check every operation, then the lifetime; a miss marks records failed.

    A lifetime-level miss (digests differ between parties, incomplete audit
    logs) cannot be pinned to one operation, so it fails them all.
    """
    for rec in records:
        if rec.error is None:
            rec.error = guarded(wl.check_op, svc, rec)
    problem = guarded(wl.check_lifetime, svc, records)
    if problem is not None:
        for rec in records:
            rec.error = rec.error or problem
    return problem


def run_window(wl, svc, streams, duration: float, label: str, tracer=None,
               min_ops: int = 0):
    """Closed loop: each client sends its next operation when the last returns.

    A client stops once the deadline has passed and it has served its share
    of `min_ops`, or when its stream is used up.  Returns the records and the
    wall time from start to the last completion.
    """
    from workloads import Record

    start = time.perf_counter()
    deadline = start + duration
    per_client: list[list] = [[] for _ in streams]
    min_each = -(-min_ops // len(streams))

    def client(idx: int) -> None:
        out = per_client[idx]
        while time.perf_counter() < deadline or len(out) < min_each:
            op = next(streams[idx], None)
            if op is None:
                return
            rec = Record(f"{label}.{idx}.{len(out)}", idx, op, traced=tracer is not None)
            began = time.perf_counter()
            try:
                if tracer is None:
                    rec.result, rec.units = wl.execute(svc, op)
                else:
                    with tracer.request(rec.rid, op.member_id):
                        rec.result, rec.units = wl.execute(svc, op)
            except Exception as exc:  # an operation that raises counts as failed
                rec.error = f"{type(exc).__name__}: {exc}"
            rec.finished = time.perf_counter()
            rec.latency_s = rec.finished - began
            out.append(rec)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(streams))]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    records = [rec for out in per_client for rec in out]
    finished = max((rec.finished for rec in records), default=deadline)
    return records, finished - start


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import SETUP_RID, Tracer, install_drpki, layer_metrics
    from workloads import LIFETIMES, WORKLOADS

    wl = WORKLOADS[name]
    window = seconds / LIFETIMES
    lives = wl.lifetimes(seed, window)
    tracer = Tracer() if trace else None
    work = OUT / "work" / f"{name}-s{seed}-p{os.getpid()}"
    setup_s, records, problems, stock_left = [], [], [], []
    window_s = traced_s = 0.0
    sent_bytes = traced_bytes = dropped_frames = 0
    parties = 0
    try:
        for k, life in enumerate(lives):
            streams = wl.ops(life)
            began = time.perf_counter()
            if tracer is None:
                svc = wl.setup(work / f"life{k}", life)
            else:
                install_drpki(tracer)
                try:
                    with tracer.request(SETUP_RID):
                        svc = wl.setup(work / f"life{k}", life)
                finally:
                    tracer.uninstall()
            setup_s.append(time.perf_counter() - began)
            try:
                hub = svc.cluster.hub
                parties = len(svc.cluster.participants)
                sent_before = sum(hub.counters.snapshot().values())
                if tracer is None:
                    recs, elapsed = run_window(wl, svc, streams, window, f"{k}",
                                               min_ops=wl.min_ops)
                else:
                    recs, elapsed = run_window(wl, svc, streams, window / 2, f"{k}.u")
                    dropped_before = hub.dropped_frames
                    traced_before = sum(hub.counters.snapshot().values())
                    install_drpki(tracer)
                    try:
                        traced, traced_elapsed = run_window(
                            wl, svc, streams, window / 2, f"{k}.t", tracer)
                    finally:
                        tracer.uninstall()
                    dropped_frames += hub.dropped_frames - dropped_before
                    traced_bytes += sum(hub.counters.snapshot().values()) - traced_before
                    recs += traced
                    traced_s += traced_elapsed
                    elapsed += traced_elapsed
                window_s += elapsed
                sent_bytes += sum(hub.counters.snapshot().values()) - sent_before
                stock_left.append(wl.stock_left(svc))
                problem = check_outputs(wl, svc, recs)
                if problem is not None:
                    problems.append(f"lifetime {k}: {problem}")
                records += recs
            finally:
                svc.cluster.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in records if r.error is None]
    failed = len(records) - len(ok)
    units = sum(r.units for r in ok)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "lifetimes": LIFETIMES, "environment": environment(), "service": wl.describe(),
        "setup_s_each": setup_s, "window_s": window_s,
        "attempted": len(records), "failed": failed,
        "failed_frac": failed / len(records) if records else 1.0,
        "errors": sorted({r.error for r in records if r.error}) + problems,
        "correct": bool(records) and failed == 0 and not problems,
    }
    if tracer is None:
        lat = [r.latency_s * 1000.0 for r in ok]
        q = tail_percentile(len(lat))
        tail = percentile(lat, q)
        result["samples"] = len(lat)
        result["op_tail_percentile"] = q
        result["samples_beyond_tail"] = sum(1 for x in lat if x > tail)
        result["info"] = {
            "op_tail_ms": tail,
            "ops_per_s": len(ok) / window_s if window_s else 0.0,
        }
        result["metrics"] = {
            "setup_s": statistics.median(setup_s),
            "op_p50_ms": percentile(lat, 50),
            "units_per_s": units / window_s if window_s else 0.0,
            "bytes_per_unit": sent_bytes / parties / units if units else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        traced_ok = [r for r in ok if r.traced]
        untraced_p50 = percentile([r.latency_s * 1000.0 for r in ok if not r.traced], 50)
        traced_p50 = percentile([r.latency_s * 1000.0 for r in traced_ok], 50)
        base = (sum(r.units for r in traced_ok) if wl.unit == "tuple"
                else len(traced_ok))
        result["per_layer_base"] = {"unit": wl.unit if wl.unit == "tuple" else "request",
                                    "count": base, "traced_window_s": traced_s}
        result["trace_overhead"] = {"untraced_p50_ms": untraced_p50,
                                    "traced_p50_ms": traced_p50}
        result["spans"] = len(tracer.spans)
        result["metrics"] = layer_metrics(
            tracer.spans, {r.rid for r in records if r.traced}, base,
            sent_bytes=traced_bytes, dropped_frames=dropped_frames,
            final_stock_left=statistics.fmean(stock_left),
            overhead_ms=traced_p50 - untraced_p50,
        )
        results_dir = OUT / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(results_dir / f"{name}-seed{seed}-spans.jsonl")
    if name == "churn-lan" and not trace:
        result["capacity"] = capacity(result)
    return result


def capacity(result: dict) -> dict:
    """Headroom of the measured signing rate against the 90-day fixture."""
    from drpki.analysis import capacity_report, compute_churn, ingest
    from drpki.bench import BenchRow

    m = result["metrics"]
    row = BenchRow(scheme="mal-shamir", setting="lan-durable", phase="online",
                   runs=result["samples"], unit_count=result["samples"],
                   mean_ms=m["op_p50_ms"], stddev_ms=0.0,
                   per_unit_ms=1000.0 / m["units_per_s"] if m["units_per_s"] else 0.0,
                   throughput_per_s=m["units_per_s"],
                   bytes_per_party=m["bytes_per_unit"])
    report = capacity_report(compute_churn(ingest(str(FIXTURE))), [row])
    entry = report["per_scheme"][0]
    return {
        "signatures_per_s": m["units_per_s"],
        "mean_required_per_day": report["mean_required_per_day"],
        "max_required_per_day": report["max_required_per_day"],
        "headroom_mean": entry["headroom_mean"],
        "headroom_worst_day": entry["headroom_worst_day"],
    }


def report(result: dict, units: dict) -> dict:
    """Print the human-readable lines; return the JSON summary."""
    from workloads import WORKLOADS

    wl = WORKLOADS[result["workload"]]
    print(f"perfbench {result['workload']}: seed {result['seed']}, "
          f"{result['seconds']} s in {result['lifetimes']} lifetimes, "
          f"trace {result['trace']}, {wl.config().scheme.name}, "
          f"{wl.describe()['network']}, {wl.clients} client(s)")
    env = result["environment"]
    print(f"  host {env['host']} ({env['cpu']}, nproc {env['nproc']}), "
          f"Python {env['python']}")
    q = result.get("op_tail_percentile")
    labels = {json_name: (req if wl.op_label == "request" else batch).format(q=q)
              for json_name, _, req, batch in END_TO_END + INFO}
    shown = list(result["metrics"].items()) + list(result.get("info", {}).items())
    for name, value in shown:
        label = labels.get(name, name)
        if label != name:
            label = f"{label} ({name})"
        print(f"  {label:40s} {value:14.4f} {units[name]}")
    print(f"  {'failed_frac':40s} {result['failed_frac']:14.4f} ratio "
          f"({result['failed']} of {result['attempted']} {wl.op_plural})")
    if "samples" in result:
        print(f"  {result['samples']} {wl.op_label} samples; p{result['op_tail_percentile']} "
              f"has {result['samples_beyond_tail']} beyond it; set-ups "
              + ", ".join(f"{s:.3f}" for s in result["setup_s_each"]) + " s")
    if "trace_overhead" in result:
        t = result["trace_overhead"]
        print(f"  tracing overhead: p50 {t['traced_p50_ms']:.2f} ms traced vs "
              f"{t['untraced_p50_ms']:.2f} ms untraced; per-layer base "
              f"{result['per_layer_base']['count']} {result['per_layer_base']['unit']}s")
    if "capacity" in result:
        c = result["capacity"]
        print(f"  capacity at {c['signatures_per_s']:.3f} signatures/s against the "
              f"90-day fixture: headroom {c['headroom_mean']:.1f}x mean day "
              f"({c['mean_required_per_day']:.1f}/day), "
              f"{c['headroom_worst_day']:.1f}x worst day ({c['max_required_per_day']}/day)")
    for err in result["errors"][:5]:
        print(f"  CHECK FAILED: {err}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "drpki" / "__init__.py").is_file() or not FIXTURE.is_dir():
        print("perfbench: run from a drpki checkout; src/drpki and "
              "tests/data/churn_90d are required", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import LAYER_METRICS

    units = {name: unit for name, unit, _, _ in END_TO_END + INFO}
    units.update({name: unit for name, unit, _ in LAYER_METRICS})
    if args.workload == "all":
        # one process per workload, so that peak_rss_mb is each workload's own
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in WORKLOAD_NAMES
        ]
        return max(codes)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")
    summary = report(result, units)
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(summary), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
