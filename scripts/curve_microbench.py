#!/usr/bin/env python3
"""Time the curve and field layers on their own and print the result as one
JSON object.

Rows: fixed-base multiply (k * G), variable-base multiply (k * P for a point
P other than G), `ecdsa_verify`, `ecdsa_verify` against the known R that
online signing holds (`r_point=`), the checked 5-share point open that
mal-shamir signing does for R (`open_point_shares`, SHAMIR_CHECKED, n=5, t=2),
a 3-term `lincomb` with the full-width Lagrange weights of the
non-consecutive live set {1, 2, 4}, and the field layer's MAC accounting:
100 `open_shares` calls over five `mascot` shares, each recorded into a
`MacCheckAccumulator`, then one `sigma` (one call of that row is all 101),
and one whole `rpki.verify_consent` of a one-ROA ISSUE token, as each node
runs it per request.
Each row is the median over ROUNDS rounds of the per-call mean of CALLS
calls, in milliseconds, after one warm-up call (which also builds any lazily
built table).  Standard library only; it imports drpki from the
`src/` directory next to this script, so a copy of the script placed in
another checkout times that checkout.

    python3 scripts/curve_microbench.py
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from drpki.algebra import (  # noqa: E402
    GENERATOR,
    FieldElement,
    KeyPair,
    ecdsa_sign,
    ecdsa_verify,
    lincomb,
    scalar_mul,
)
from drpki.rpki import (  # noqa: E402
    Action,
    IpPrefix,
    RoaRecord,
    sign_consent,
    verify_consent,
)
from drpki.sharing import (  # noqa: E402
    BareShare,
    MacCheckAccumulator,
    SchemeId,
    deal,
    generate_mac_keys,
    lagrange_coeffs_at,
    open_point_shares,
    open_shares,
)

N, T = 5, 2
ROUNDS = 7
CALLS = 50
MAC_OPENS = 100
SEED = 1


def _time_row(fn, inputs) -> dict:
    fn(inputs[0])  # warm-up: builds lazy tables, fills caches
    per_call = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for item in inputs:
            fn(item)
        per_call.append((time.perf_counter() - start) * 1000.0 / len(inputs))
    quartiles = statistics.quantiles(per_call, n=4) if len(per_call) > 1 else per_call * 3
    return {
        "median_ms": round(statistics.median(per_call), 4),
        "q1_ms": round(quartiles[0], 4),
        "q3_ms": round(quartiles[2], 4),
        "calls_per_round": len(inputs),
        "rounds": ROUNDS,
    }


def run() -> dict:
    rng = random.Random(SEED)
    scalars = [FieldElement.random_nonzero(rng) for _ in range(CALLS)]
    base = scalar_mul(FieldElement.random_nonzero(rng), GENERATOR)

    pairs = [KeyPair.generate(rng) for _ in range(CALLS)]
    signed, signed_r = [], []
    for pair in pairs:
        msg = rng.randbytes(48)
        k = FieldElement.random_nonzero(rng)
        sig = ecdsa_sign(pair.sk, msg, k)
        signed.append((pair.pk, msg, sig))
        signed_r.append((pair.pk, msg, sig, scalar_mul(k, GENERATOR)))

    weights = lagrange_coeffs_at([FieldElement(x) for x in (1, 2, 4)], 0)
    combinations = [
        list(zip(weights, (scalar_mul(FieldElement.random_nonzero(rng), GENERATOR)
                           for _ in weights)))
        for _ in range(CALLS)
    ]

    point_opens = []
    for _ in range(CALLS):
        shares = deal(SchemeId.SHAMIR_CHECKED, FieldElement.random(rng), N, T, rng=rng)
        point_opens.append([
            BareShare(s.scheme, s.owner, scalar_mul(s.value, GENERATOR)) for s in shares
        ])

    mac_keys = generate_mac_keys(N, rng)
    mac_opens = [
        deal(SchemeId.ADDITIVE_MAC, FieldElement.random(rng), N, rng=rng, mac_keys=mac_keys)
        for _ in range(MAC_OPENS)
    ]

    prefixes = (IpPrefix.parse("192.0.2.0/24", 24),)
    consents = []
    for pair in pairs:
        roa = RoaRecord(rng.randrange(1, 2**48), "member", 64512, prefixes, 1, 2, pair.pk)
        token = sign_consent(pair.sk, "member", Action.ISSUE, [roa], expiry=1, rng=rng)
        consents.append((token, [roa], {"member": pair.pk}))

    def open_and_account(sharings):
        acc = MacCheckAccumulator(b"microbench")
        for shares in sharings:
            acc.record(open_shares(shares, N, T), shares[0].mac)
        return acc.sigma(mac_keys[0])

    rows = {
        "g_mul": _time_row(lambda k: scalar_mul(k, GENERATOR), scalars),
        "var_mul": _time_row(lambda k: scalar_mul(k, base), scalars),
        "ecdsa_verify": _time_row(lambda item: ecdsa_verify(*item), signed),
        "ecdsa_verify_known_r": _time_row(
            lambda item: ecdsa_verify(*item[:3], r_point=item[3]), signed_r),
        "checked_point_open_5": _time_row(
            lambda shares: open_point_shares(shares, N, T), point_opens),
        "lagrange_3_full_width": _time_row(lincomb, combinations),
        "mascot_open_mac_100": _time_row(open_and_account, [mac_opens] * CALLS),
        "verify_consent": _time_row(
            lambda item: verify_consent(item[0], Action.ISSUE, item[1], item[2], now=0),
            consents),
    }
    return {
        "rows": rows,
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
