"""Self-tests of the benchmark: run with `python3 -m pytest perfbench/tests -q`."""

import json
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from drpki.algebra import FieldElement, Signature  # noqa: E402
from drpki.rpki import SignedObject  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_cli(workload: str, trace: int, seconds: float = 1.5) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_prints_every_metric_with_unit(workload):
    text, result = run_cli(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    wl = workloads.WORKLOADS[workload]
    for json_name, unit, request_name, batch_name in bench_run.END_TO_END + bench_run.INFO:
        label = (request_name if wl.op_label == "request" else batch_name).format(q=r"\d+")
        assert any(re.fullmatch(label, line.split()[0]) and line.endswith(unit)
                   for line in text.splitlines() if line.strip()), label


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_traced_run_prints_every_layer_metric(workload):
    _, result = run_cli(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["trace.unattributed_spans"] == 0
    assert values["node.replenish.calls"] == 0
    assert values["sharing.aborts"] == 0
    if workload == "transfer-wan":
        assert values["session.rounds"] == 12
        assert values["tecdsa.sign_online.calls"] == 2 * 5
    if workload == "churn-lan":
        assert values["algebra.ecdsa_verify.calls"] == 10
    if workload == "preprocess-durable":
        assert values["algebra.scalar_mul_fixed.calls"] == 5
        assert values["preprocessing.dealer.triples"] == 2


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert bench_run.tail_percentile(102) == 90
    assert bench_run.tail_percentile(24) == 58
    assert bench_run.tail_percentile(16) == 50
    for n in (12, 24, 60, 100, 150):
        values = [float(i) for i in range(n)]
        q = bench_run.tail_percentile(n)
        beyond = sum(v > bench_run.percentile(values, q) for v in values)
        assert beyond >= 10 or q == 50


@pytest.mark.parametrize("workload", ["churn-lan", "transfer-wan"])
def test_same_seed_same_request_stream(workload):
    wl = workloads.WORKLOADS[workload]
    first = [life.streams for life in wl.lifetimes(11, 0.5)]
    again = [life.streams for life in wl.lifetimes(11, 0.5)]
    other = [life.streams for life in wl.lifetimes(12, 0.5)]
    assert first == again
    assert first != other


def test_tampered_signature_is_counted_as_failed(tmp_path):
    wl = workloads.WORKLOADS["churn-lan"]
    life = wl.lifetimes(3, 0.1)[0]
    svc = wl.setup(tmp_path, life)
    try:
        records = []
        for i, request in enumerate(life.streams[0]):
            rec = workloads.Record(str(i), 0, request)
            rec.result, rec.units = wl.execute(svc, request)
            records.append(rec)
        obj = records[0].result.objects[0]
        forged = Signature(obj.signature.r_x, obj.signature.s + FieldElement.one())
        records[0].result.objects[0] = SignedObject(
            obj.payload_kind, obj.payload, forged, obj.signer_pk)
        assert bench_run.check_outputs(wl, svc, records) is None
    finally:
        svc.cluster.close()
    assert [rec.error is not None for rec in records] == [True] + [False] * (len(records) - 1)
    assert "does not verify" in records[0].error


def test_nested_self_times_add_up_to_parent_duration():
    tracer = Tracer()
    calls = {}
    calls["leaf"] = tracer.wrap(lambda: time.sleep(0.002), "leaf")
    calls["mid"] = tracer.wrap(
        lambda: (calls["leaf"](), sum(range(20_000)), calls["leaf"]()), "mid")
    root = tracer.wrap(lambda: (calls["mid"](), calls["leaf"]()), "root")
    with tracer.request("r1"):
        root()
    spans = tracer.spans
    assert sorted(s.name for s in spans) == ["leaf", "leaf", "leaf", "mid", "root"]
    top = next(s for s in spans if s.name == "root")
    assert sum(s.self_time for s in spans) == pytest.approx(top.duration, abs=1e-9)
    assert sum(s.self_cpu for s in spans) == pytest.approx(
        top.cpu_end - top.cpu_start, abs=1e-9)
    for span in spans:
        children = [c for c in spans if c.parent == span.sid]
        assert span.self_time + sum(c.duration for c in children) == pytest.approx(
            span.duration, abs=1e-9)
    assert {s.rid for s in spans} == {"r1"}


def test_party_thread_spans_reach_their_request_through_the_member():
    tracer = Tracer()
    early = tracer.wrap(lambda: None, "early")
    phase = tracer.wrap(lambda member: early(), "phase", member=lambda a: a[0])
    entered, release = threading.Event(), threading.Event()

    def other_client():
        with tracer.request("r-other", member="m-other"):
            entered.set()
            release.wait(5)

    def party():
        early()  # before the thread learns its member
        phase("m1")

    blocker = threading.Thread(target=other_client)
    blocker.start()
    assert entered.wait(5)  # two requests in flight: no single-request fallback
    with tracer.request("r1", member="m1"):
        worker = threading.Thread(target=party)
        worker.start()
        worker.join(5)
    release.set()
    blocker.join(5)
    assert not worker.is_alive() and not blocker.is_alive()
    assert [s.rid for s in tracer.spans] == ["r1", "r1", "r1"]
