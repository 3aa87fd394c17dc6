"""ROA-churn analysis: daily add/remove counts vs. benchmarked signing capacity.

Consumes daily repository listings (one line per ROA: date,rir,asn,prefix,
maxlen,member), diffs consecutive days on stable ROA identity keys, rolls up
monthly means and maxima, and compares the implied signing load - one
threshold signature per change, a re-issue counting as one removal plus one
addition - against per-scheme signing throughput.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import Iterable, Optional, Sequence

SECONDS_PER_DAY = 86400


class AnalysisError(Exception):
    pass


def roa_identity(asn: str, prefix: str, maxlen: str, member: str) -> bytes:
    """Stable digest of what makes a ROA 'the same one' across days."""
    return hashlib.sha256(f"{asn}|{prefix}|{maxlen}|{member}".encode()).digest()


@dataclass
class SnapshotDay:
    day: date
    keys: set[bytes]
    malformed_lines: int = 0
    duplicate_lines: int = 0


@dataclass
class DayChurn:
    day: date
    added: Optional[int]    # None on the first day (no predecessor)
    removed: Optional[int]
    size: int
    after_gap: bool = False
    anomalous_empty: bool = False


@dataclass
class MonthStats:
    mean_added: float
    mean_removed: float
    max_added: int
    max_removed: int
    days: int


@dataclass
class ChurnSeries:
    days: list[DayChurn]
    monthly: dict[str, MonthStats]
    gaps: list[date] = field(default_factory=list)
    malformed_lines: int = 0
    duplicate_lines: int = 0


def _parse_lines(lines: Iterable[str], per_day: dict[date, SnapshotDay]) -> tuple[int, int]:
    malformed = duplicates = 0
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 6:
            malformed += 1
            continue
        date_s, rir, asn, prefix, maxlen, member = parts
        try:
            day = date.fromisoformat(date_s)
        except ValueError:
            malformed += 1
            continue
        snap = per_day.setdefault(day, SnapshotDay(day, set()))
        key = roa_identity(asn, prefix, maxlen, member)
        if key in snap.keys:
            duplicates += 1
            snap.duplicate_lines += 1
        else:
            snap.keys.add(key)
    return malformed, duplicates


def ingest(archive_path: str) -> list[SnapshotDay]:
    """Read an archive: a single listing file, or a directory of per-day files.

    Malformed lines are counted on the days' records, never silently dropped;
    a file whose name carries an ISO date (e.g. 2020-04-01.csv) registers the
    day even when empty, which marks every prior ROA as removed that day.
    """
    path = Path(archive_path)
    per_day: dict[date, SnapshotDay] = {}
    total_malformed = 0
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix in (".csv", ".txt"))
        if not files:
            raise AnalysisError(f"no listing files under {archive_path}")
        for f in files:
            try:
                day = date.fromisoformat(f.stem)
                per_day.setdefault(day, SnapshotDay(day, set()))
            except ValueError:
                pass
            malformed, _ = _parse_lines(f.read_text().splitlines(), per_day)
            total_malformed += malformed
    else:
        malformed, _ = _parse_lines(path.read_text().splitlines(), per_day)
        total_malformed += malformed
    if not per_day:
        raise AnalysisError(f"archive {archive_path} holds no parsable days")
    snapshots = [per_day[d] for d in sorted(per_day)]
    if total_malformed and snapshots:
        snapshots[0].malformed_lines += total_malformed
    return snapshots


def compute_churn(snapshots: Sequence[SnapshotDay]) -> ChurnSeries:
    """Per-day added/removed plus monthly means and maxima.

    added(d) = |S_d minus S_{d-1}|, removed(d) = |S_{d-1} minus S_d|; a
    missing calendar day is recorded as a gap and the whole diff across it is
    attributed (flagged) to the first present day.
    """
    if not snapshots:
        raise AnalysisError("no snapshots")
    ordered = sorted(snapshots, key=lambda s: s.day)
    days: list[DayChurn] = []
    gaps: list[date] = []
    prev: Optional[SnapshotDay] = None
    for snap in ordered:
        if prev is None:
            days.append(DayChurn(snap.day, None, None, len(snap.keys)))
        else:
            expected = prev.day + timedelta(days=1)
            after_gap = snap.day != expected
            if after_gap:
                cursor = expected
                while cursor < snap.day:
                    gaps.append(cursor)
                    cursor += timedelta(days=1)
            added = len(snap.keys - prev.keys)
            removed = len(prev.keys - snap.keys)
            days.append(
                DayChurn(
                    snap.day, added, removed, len(snap.keys),
                    after_gap=after_gap,
                    anomalous_empty=(len(snap.keys) == 0 and len(prev.keys) > 0),
                )
            )
        prev = snap

    monthly: dict[str, MonthStats] = {}
    by_month: dict[str, list[DayChurn]] = {}
    for d in days:
        if d.added is None:
            continue
        by_month.setdefault(f"{d.day.year:04d}-{d.day.month:02d}", []).append(d)
    for month, entries in sorted(by_month.items()):
        monthly[month] = MonthStats(
            mean_added=statistics.fmean(e.added for e in entries),
            mean_removed=statistics.fmean(e.removed for e in entries),
            max_added=max(e.added for e in entries),
            max_removed=max(e.removed for e in entries),
            days=len(entries),
        )
    return ChurnSeries(
        days=days,
        monthly=monthly,
        gaps=gaps,
        malformed_lines=sum(s.malformed_lines for s in snapshots),
        duplicate_lines=sum(s.duplicate_lines for s in snapshots),
    )


def headroom(signatures_per_second: float, required_per_day: float) -> float:
    """How many times over the daily signing requirement a rate provides."""
    if required_per_day == 0:
        return math.inf
    return signatures_per_second * SECONDS_PER_DAY / required_per_day


def capacity_report(churn: ChurnSeries, bench_rows: Sequence) -> dict:
    """Compare required signatures/day (added + removed) against capacity.

    `bench_rows` are benchmark rows; only phase == "online" rows contribute a
    signatures-per-second capacity.  Any day whose requirement exceeds a
    scheme's daily capacity is flagged for that scheme.
    """
    diffed = [d for d in churn.days if d.added is not None]
    if not diffed:
        raise AnalysisError("churn series has no diffable days")
    required = [d.added + d.removed for d in diffed]
    window = {
        "first_day": diffed[0].day.isoformat(),
        "last_day": diffed[-1].day.isoformat(),
        "days": len(diffed),
    }
    report = {
        "window": window,
        "mean_required_per_day": statistics.fmean(required),
        "max_required_per_day": max(required),
        "gap_days": [g.isoformat() for g in churn.gaps],
        "malformed_lines": churn.malformed_lines,
        "duplicate_lines": churn.duplicate_lines,
        "per_scheme": [],
    }
    for row in bench_rows:
        if row.phase != "online" or row.status != "ok":
            continue
        rate = row.throughput_per_s
        per_day_capacity = rate * SECONDS_PER_DAY
        flagged = [
            d.day.isoformat()
            for d, req in zip(diffed, required)
            if 0 < per_day_capacity < req
        ]
        mean_headroom = headroom(rate, report["mean_required_per_day"])
        worst = headroom(rate, max(required))
        report["per_scheme"].append(
            {
                "scheme": row.scheme,
                "setting": row.setting,
                "signatures_per_second": rate,
                "per_day_capacity": per_day_capacity,
                "headroom_mean": mean_headroom if math.isfinite(mean_headroom) else "inf",
                "headroom_worst_day": worst if math.isfinite(worst) else "inf",
                "flagged_days": flagged,
                "offline_source": row.offline_source,
            }
        )
    return report


def write_capacity_json(report: dict, path: str) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def write_plot_csv(churn: ChurnSeries, path: str) -> None:
    """Per-day series in plot-ready form (the evaluation figures are exactly these)."""
    with open(path, "w", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(["date", "added", "removed", "size", "after_gap", "anomalous_empty"])
        for d in churn.days:
            writer.writerow([
                d.day.isoformat(),
                "" if d.added is None else d.added,
                "" if d.removed is None else d.removed,
                d.size,
                int(d.after_gap),
                int(d.anomalous_empty),
            ])
