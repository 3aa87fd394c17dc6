#!/usr/bin/env python3
"""Time the transport layer on its own and print the result as one JSON
object.

Rows: `encode_frame` and `decode_frame` of one frame with a PAYLOAD-byte
payload, one send plus recv of such a frame over the in-process hub, and one
bare broadcast round of five `PartySession`s over the hub with no latency,
each party on its own thread, every party sending its payload to the four
others and reading theirs.  Each row is the median over ROUNDS rounds of the
per-call mean of CALLS calls, in milliseconds, after one warm-up call; a
round of the broadcast row runs CALLS session rounds back to back on the
five threads.  Standard library only; it imports drpki from the `src/`
directory next to this script, so a copy of the script placed in another
checkout times that checkout.  Beside the rows it prints
`frame_overhead_bytes`, the bytes a frame adds around its payload.

    python3 scripts/transport_microbench.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from drpki.runtime.session import PartySession  # noqa: E402
from drpki.runtime.transport import (  # noqa: E402
    FRAME_OVERHEAD,
    LENGTH_PREFIX_BYTES,
    PHASE_CONTROL,
    InProcessHub,
    SessionMessage,
    decode_frame,
    derive_pair_keys,
    encode_frame,
    pair_key,
)
from drpki.sharing import SchemeId  # noqa: E402

N, T = 5, 2
ROUNDS = 7
CALLS = 200
PAYLOAD = 128
SEED = 1


def _row(per_call: list[float], calls: int) -> dict:
    quartiles = statistics.quantiles(per_call, n=4) if len(per_call) > 1 else per_call * 3
    return {
        "median_ms": round(statistics.median(per_call), 5),
        "q1_ms": round(quartiles[0], 5),
        "q3_ms": round(quartiles[2], 5),
        "calls_per_round": calls,
        "rounds": ROUNDS,
    }


def _time_row(fn) -> dict:
    fn()  # warm-up
    per_call = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(CALLS):
            fn()
        per_call.append((time.perf_counter() - start) * 1000.0 / CALLS)
    return _row(per_call, CALLS)


def _broadcast_rounds(keys: dict, session_id: int, rounds: int) -> float:
    """Wall time in ms of `rounds` broadcast rounds of one fresh session."""
    hub = InProcessHub(keys)
    parties = list(range(1, N + 1))
    sessions = [PartySession(p, parties, session_id, PHASE_CONTROL, hub.endpoint(p),
                             SchemeId.SHAMIR, T, timeout=10.0) for p in parties]
    payload = bytes(PAYLOAD)
    start = threading.Barrier(N + 1)

    def run(session: PartySession) -> None:
        start.wait()
        for _ in range(rounds):
            session.run_round(payload)

    threads = [threading.Thread(target=run, args=(s,)) for s in sessions]
    for th in threads:
        th.start()
    start.wait()
    began = time.perf_counter()
    for th in threads:
        th.join()
    return (time.perf_counter() - began) * 1000.0


def run() -> dict:
    keys = derive_pair_keys(SEED.to_bytes(4, "big"), N, bytes(16))
    key = pair_key(keys, 1, 2)
    msg = SessionMessage(0, PHASE_CONTROL, 1, 1, bytes(PAYLOAD))
    body = encode_frame(msg, key)[LENGTH_PREFIX_BYTES:]
    hub = InProcessHub(keys)

    def hub_send_recv() -> None:
        hub.send(1, 2, msg)
        hub.recv(2, msg.session_id, 1.0)

    _broadcast_rounds(keys, 0, 1)  # warm-up
    broadcast = [_broadcast_rounds(keys, i + 1, CALLS) / CALLS for i in range(ROUNDS)]
    rows = {
        "encode_frame": _time_row(lambda: encode_frame(msg, key)),
        "decode_frame": _time_row(lambda: decode_frame(body, key, 1)),
        "hub_send_recv": _time_row(hub_send_recv),
        "broadcast_round_5": _row(broadcast, CALLS),
    }
    return {
        "rows": rows,
        "payload_bytes": PAYLOAD,
        "frame_overhead_bytes": FRAME_OVERHEAD,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
            "release": platform.release(),
            "cpus": os.cpu_count(),
        },
        "seed": SEED,
    }


def main() -> None:
    print(json.dumps(run(), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
