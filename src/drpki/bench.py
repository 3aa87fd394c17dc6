"""Benchmark harness: per-phase timings, throughput, and communication bytes.

Reports the three protocol phases (key generation, preprocessing, online
signing) across the four schemes under two network settings: LAN (zero
latency, in-process) and WAN-sim (the measured inter-region RTT matrix
injected as per-pair one-way delays of RTT/2).

Offline preprocessing here is dealer-based, so preprocessing rows are NOT
comparable to OT-based offline costs; every row carries an explicit
offline_source=dealer label.  Timing of a phase is the wall time until the
last party completes.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

from .runtime import LocalCluster
from .sharing import SCHEME_NAMES, ProtocolAbort, SchemeId
from .tecdsa import ProtocolConfig

# Inter-region round-trip latencies in milliseconds, measured between the
# five instance regions standing in for the RIR locations:
#   1 Frankfurt (RIPE NCC), 2 N. Virginia (ARIN), 3 Sydney (APNIC),
#   4 Sao Paolo (LACNIC), 5 Mumbai (AFRINIC)
WAN_RTT_MS: dict[tuple[int, int], float] = {
    (1, 2): 85.6,
    (1, 3): 283.2,
    (1, 4): 203.7,
    (1, 5): 114.9,
    (2, 3): 196.7,
    (2, 4): 119.9,
    (2, 5): 180.6,
    (3, 4): 308.7,
    (3, 5): 228.3,
    (4, 5): 301.0,
}

PHASES = ("keygen", "preprocessing", "online")
SETTINGS = ("lan", "wan")

SCHEME_LABELS = {scheme: name for name, scheme in SCHEME_NAMES.items()}


def one_way_delays(rtt_ms: dict[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    """Per-direction delay matrix: half the pair RTT, both directions."""
    out: dict[tuple[int, int], float] = {}
    for (a, b), rtt in rtt_ms.items():
        out[(a, b)] = rtt / 2.0
        out[(b, a)] = rtt / 2.0
    return out


def load_latency_matrix(path: str) -> dict[tuple[int, int], float]:
    """Parse a 5x5 table of RTT milliseconds (CSV; row i column j = RTT i->j)."""
    rows = [line for line in Path(path).read_text().splitlines() if line.strip()]
    cells = [row.split(",") for row in rows]
    n = len(cells)
    out: dict[tuple[int, int], float] = {}
    for i in range(n):
        if len(cells[i]) != n:
            raise ValueError(f"latency matrix row {i + 1} has {len(cells[i])} columns")
        for j in range(n):
            if i == j:
                continue
            value = float(cells[i][j])
            if value:
                out[(min(i, j) + 1, max(i, j) + 1)] = value
    return out


def save_latency_matrix(rtt_ms: dict[tuple[int, int], float], path: str, n: int = 5) -> None:
    lines = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i == j:
                row.append("0")
            else:
                row.append(str(rtt_ms[(min(i, j), max(i, j))]))
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class BenchRow:
    scheme: str
    setting: str
    phase: str
    runs: int
    unit_count: int
    mean_ms: float
    stddev_ms: float
    per_unit_ms: float
    throughput_per_s: float
    bytes_per_party: float
    offline_source: str = "dealer"
    status: str = "ok"


# a report's columns are BenchRow's fields, in order; a column an older
# report lacks reads as its field's default
CSV_FIELDS = [f.name for f in fields(BenchRow)]
_CSV_TYPES = get_type_hints(BenchRow)


def _make_cluster(scheme: SchemeId, setting: str, seed: Optional[int],
                  rtt_ms: Optional[dict] = None) -> LocalCluster:
    cfg = ProtocolConfig.for_scheme(scheme)
    latency = None
    if setting == "wan":
        latency = one_way_delays(rtt_ms or WAN_RTT_MS)
    timeout = 60.0 if setting == "wan" else 10.0
    return LocalCluster(cfg, seed=seed, latency_ms=latency, timeout=timeout)


def _mean_bytes_per_party(cluster: LocalCluster, before: dict) -> float:
    """The mean bytes a party has sent since the `before` snapshot."""
    after = cluster.hub.counters.snapshot()
    return statistics.fmean(after.get(party, 0) - before.get(party, 0)
                            for party in cluster.participants)


def _phase_row(label: str, setting: str, phase: str, durations: Sequence[float],
               units: int, total_bytes: float) -> BenchRow:
    """A phase's row from its run durations in ms, the units those runs
    covered and the bytes each party sent over them."""
    total_ms = sum(durations)
    return BenchRow(
        scheme=label, setting=setting, phase=phase,
        runs=len(durations), unit_count=units,
        mean_ms=statistics.fmean(durations),
        stddev_ms=statistics.stdev(durations) if len(durations) > 1 else 0.0,
        per_unit_ms=total_ms / units,
        throughput_per_s=units * 1000.0 / total_ms,
        bytes_per_party=total_bytes / units,
    )


def bench_phase(
    phase: str,
    scheme: SchemeId,
    setting: str,
    repetitions: int = 10,
    tuples: int = 1000,
    signatures: int = 20,
    seed: Optional[int] = 1,
    rtt_ms: Optional[dict] = None,
) -> BenchRow:
    """Benchmark one phase for one scheme under one network setting.

    keygen runs `repetitions` fresh key generations (mean and stddev);
    preprocessing amortizes both preprocessing stages over `tuples` tuples;
    online signs `signatures` messages one session at a time.
    """
    label = SCHEME_LABELS[scheme]
    cluster = _make_cluster(scheme, setting, seed, rtt_ms)
    try:
        if phase == "keygen":
            durations = []
            for i in range(repetitions):
                before = time.perf_counter()
                cluster.keygen(f"bench-member-{i}")
                durations.append((time.perf_counter() - before) * 1000.0)
            return _phase_row(
                label, setting, phase, durations, repetitions,
                _mean_bytes_per_party(cluster, {}),
            )

        if phase == "preprocessing":
            cluster.keygen("bench-member")
            before_bytes = cluster.hub.counters.snapshot()
            started = time.perf_counter()
            cluster.preprocess_independent(tuples)
            cluster.preprocess_dependent("bench-member", tuples)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            return _phase_row(
                label, setting, phase, [elapsed_ms], tuples,
                _mean_bytes_per_party(cluster, before_bytes),
            )

        if phase == "online":
            cluster.keygen("bench-member")
            cluster.preprocess_independent(signatures)
            cluster.preprocess_dependent("bench-member", signatures)
            before_bytes = cluster.hub.counters.snapshot()
            durations = []
            for i in range(signatures):
                started = time.perf_counter()
                cluster.run_signing("bench-member", b"bench message %d" % i)
                durations.append((time.perf_counter() - started) * 1000.0)
            return _phase_row(
                label, setting, phase, durations, signatures,
                _mean_bytes_per_party(cluster, before_bytes),
            )

        if phase == "online-parallel":
            # saturation mode: several members' sessions signing concurrently
            import threading

            members = [f"bench-member-{i}" for i in range(3)]
            per_member = max(1, signatures // len(members))
            for m in members:
                cluster.keygen(m)
            cluster.preprocess_independent(per_member * len(members))
            for m in members:
                cluster.preprocess_dependent(m, per_member)
            errors: list[BaseException] = []

            def drive(member: str) -> None:
                try:
                    for i in range(per_member):
                        cluster.run_signing(member, b"parallel %d" % i)
                except BaseException as exc:
                    errors.append(exc)

            started = time.perf_counter()
            workers = [threading.Thread(target=drive, args=(m,)) for m in members]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
            elapsed_s = time.perf_counter() - started
            if errors:
                raise errors[0]
            done = per_member * len(members)
            return BenchRow(
                scheme=label, setting=setting, phase=phase,
                runs=done, unit_count=done,
                mean_ms=elapsed_s * 1000.0 / done, stddev_ms=0.0,
                per_unit_ms=elapsed_s * 1000.0 / done,
                throughput_per_s=done / elapsed_s,
                bytes_per_party=0.0,  # phases interleave; see the latency rows
            )

        raise ValueError(f"unknown phase {phase!r}")
    except ProtocolAbort as exc:
        return BenchRow(
            scheme=label, setting=setting, phase=phase,
            runs=0, unit_count=0, mean_ms=0.0, stddev_ms=0.0, per_unit_ms=0.0,
            throughput_per_s=0.0, bytes_per_party=0.0,
            status=f"failed: {exc}",
        )
    finally:
        cluster.close()


def run_benchmarks(
    schemes: Sequence[SchemeId] = tuple(SchemeId),
    settings: Sequence[str] = SETTINGS,
    phases: Sequence[str] = PHASES,
    out_csv: Optional[str] = None,
    repetitions: int = 10,
    tuples: int = 1000,
    signatures: int = 20,
    seed: Optional[int] = 1,
    rtt_ms: Optional[dict] = None,
) -> list[BenchRow]:
    rows = []
    for setting in settings:
        for scheme in schemes:
            for phase in phases:
                rows.append(
                    bench_phase(phase, scheme, setting,
                                repetitions=repetitions, tuples=tuples,
                                signatures=signatures, seed=seed, rtt_ms=rtt_ms)
                )
    if out_csv:
        write_csv(rows, out_csv)
    return rows


def write_csv(rows: Sequence[BenchRow], path: str) -> None:
    with open(path, "w", newline="") as out:
        writer = csv.DictWriter(out, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow(asdict(row))


def read_csv(path: str) -> list[BenchRow]:
    def value(rec: dict, field) -> object:
        if not rec.get(field.name) and field.default is not MISSING:
            return field.default
        return _CSV_TYPES[field.name](rec[field.name])

    with open(path, newline="") as handle:
        return [BenchRow(**{f.name: value(rec, f) for f in fields(BenchRow)})
                for rec in csv.DictReader(handle)]
