"""Dealer records and masks, their sources, and phase 3's masked product.

Records here come from a trusted dealer, an explicit trust assumption
standing in for OT-based offline generation.  Each dealer record is five
sharings: a triple (a, b, c = a*b) and a mask x with x*a, where x is fresh,
uniform and belongs to this record alone.  One record makes one initial
tuple, with [1/k] = [a], and so one final tuple: phase 3 multiplies [sk]
by [a] in two local steps around one open, d = sk - x and then
[sk*a] = [x*a] + d*[a].  That is Beaver's step with the second operand [a]
itself, so e = a - a is 0 and is neither computed nor opened.  A mask is
one random sharing [r], one share per party; keygen takes it as a member's
[sk].  The dealer draws r, so it knows every member key; OT-based
preprocessing would give [r] with no party knowing it.

A node draws from one `DealerQueue`: `TrustedDealer` fills one per party in
process, and a `FileReplay` is one read from a party's dealer file, as
`drpki deal` wrote it.  A dealer file is a JSON-lines log read through
`durable.py`: a header line naming its kind, the party, scheme, n, t, epoch
and record counts, plus the party's MAC key share under a MAC scheme; then
one line per record and one per mask, each share in hex as the tuple store
keeps it.

Dealer records are strictly single-use, with one guard at each level:
  - a `DealerQueue` hands each record out once;
  - the tuple store refuses a duplicate tuple id, within a batch or against
    its pool, before it writes anything (`TupleReuseError`);
  - across restarts, the `partyK.started` marker beside a dealer file and
    the seeded in-process dealer stream, salted with the boot count.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from .algebra import FieldElement
from .durable import _read_records
from .sharing import (
    MacKeyShare,
    SchemeId,
    Share,
    SharingError,
    deal,
    share_add,
    share_scale,
)


class PreprocessingError(Exception):
    pass


class TupleReuseError(PreprocessingError):
    """A tuple id was presented for storage again."""


@dataclass(slots=True)
class Triple:
    """One party's dealer record: a multiplication triple (a, b, c = ab) and
    the mask pair [x], [x*a]."""

    triple_id: bytes
    a: Share
    b: Share
    c: Share
    x: Share
    xa: Share


def _fresh_id(rng) -> bytes:
    if rng is not None:
        return rng.getrandbits(128).to_bytes(16, "big")
    import secrets

    return secrets.token_bytes(16)


def dealer_generate(
    scheme: SchemeId,
    count: int,
    n: int,
    t: int = 0,
    rng=None,
    mac_keys: Optional[Sequence[MacKeyShare]] = None,
    owners: Optional[Sequence[int]] = None,
) -> list[list[Triple]]:
    """Produce `count` dealer records; result[j][i] is the i-th owner's record
    j: a triple (a, b, c = a*b), then a fresh mask x with x*a.  Each record
    draws its own x: an x shared by two records would open sk1 - sk2 when
    phase 3 binds them to two members."""
    if count < 1:
        raise PreprocessingError("count must be >= 1")
    out = []
    for _ in range(count):
        tid = _fresh_id(rng)
        a = FieldElement.random(rng)
        b = FieldElement.random(rng)
        c = a * b
        a_shares = deal(scheme, a, n, t, rng, mac_keys, owners)
        b_shares = deal(scheme, b, n, t, rng, mac_keys, owners)
        c_shares = deal(scheme, c, n, t, rng, mac_keys, owners)
        x = FieldElement.random(rng)
        x_shares = deal(scheme, x, n, t, rng, mac_keys, owners)
        xa_shares = deal(scheme, x * a, n, t, rng, mac_keys, owners)
        out.append(
            [
                Triple(tid, a_shares[i], b_shares[i], c_shares[i], x_shares[i], xa_shares[i])
                for i in range(n)
            ]
        )
    return out


def dealer_generate_masks(
    scheme: SchemeId,
    n: int,
    t: int = 0,
    rng=None,
    mac_keys: Optional[Sequence[MacKeyShare]] = None,
    owners: Optional[Sequence[int]] = None,
) -> list[Share]:
    """One mask: a random sharing, one share per owner, whose value goes to
    no party."""
    return deal(scheme, FieldElement.random(rng), n, t, rng, mac_keys, owners)


class DealerQueue:
    """One party's dealer records and masks, in the order the dealer dealt
    them, each handed out once.  A dry queue calls `fill(queue, mask)`, mask
    True for a mask and False for a record, which appends to the queue or
    raises."""

    def __init__(self, fill: Callable[["DealerQueue", bool], None]) -> None:
        self.triples: deque[Triple] = deque()
        self.masks: deque[Share] = deque()
        self._fill = fill

    def next_triple(self) -> Triple:
        if not self.triples:
            self._fill(self, False)
        return self.triples.popleft()

    def next_mask(self) -> Share:
        if not self.masks:
            self._fill(self, True)
        return self.masks.popleft()


class TrustedDealer:
    """In-process dealer shared by all parties' sessions: one `DealerQueue`
    per party in `queues`.

    A party that finds its queue dry draws one fresh sharing, which appends
    one record to every owner's queue, so the queues stay aligned while
    every party consumes in protocol lockstep; the lock makes concurrent
    sessions safe.  The dealer transiently sees whole records - that is the
    documented trust assumption.
    """

    def __init__(self, scheme: SchemeId, n: int, t: int, rng=None,
                 mac_keys: Optional[Sequence[MacKeyShare]] = None,
                 owners: Optional[Sequence[int]] = None) -> None:
        self.scheme = scheme
        self.n = n
        self.t = t
        self.owners = list(owners) if owners is not None else list(range(1, n + 1))
        self._rng = rng
        self._mac_keys = mac_keys
        self._lock = threading.Lock()
        self.queues = {owner: DealerQueue(self._fill) for owner in self.owners}

    def _fill(self, queue: DealerQueue, mask: bool) -> None:
        """Append one fresh draw, a mask or a record, one share or record per
        owner, to every owner's queue, unless another party's draw has
        filled `queue` meanwhile."""
        with self._lock:
            if mask:
                if not queue.masks:
                    draw = dealer_generate_masks(self.scheme, self.n, self.t, self._rng,
                                                 self._mac_keys, owners=self.owners)
                    for owner, share in zip(self.owners, draw):
                        self.queues[owner].masks.append(share)
            elif not queue.triples:
                draw = dealer_generate(self.scheme, 1, self.n, self.t, self._rng,
                                       self._mac_keys, owners=self.owners)[0]
                for owner, triple in zip(self.owners, draw):
                    self.queues[owner].triples.append(triple)


# --- FileReplay: dealer output persisted per party ----------------------------

# the header kind of a dealer file whose records carry the mask pair and
# whose masks name no owner; an earlier version's file, "triples" (no mask
# pair) or "masked-triples" (each mask disclosed to an owner), is refused
_DEALER_KIND = "masked-triples-v2"


def encode_replay(
    party: int,
    scheme: SchemeId,
    n: int,
    t: int,
    epoch: bytes,
    triples: Sequence[Triple],
    masks: Sequence[Share] = (),
    mac_key: Optional[MacKeyShare] = None,
) -> str:
    """One party's dealer file, whole, for `FileReplay` to read."""
    header = {"dealer": _DEALER_KIND, "party": party, "scheme": scheme.name, "n": n, "t": t,
              "epoch": epoch.hex(), "triples": len(triples), "masks": len(masks)}
    if mac_key is not None:
        header["mac_key"] = mac_key.alpha_i.to_bytes().hex()
    lines = [header]
    lines += [{"triple": tr.triple_id.hex(), "a": tr.a.to_bytes().hex(),
               "b": tr.b.to_bytes().hex(), "c": tr.c.to_bytes().hex(),
               "x": tr.x.to_bytes().hex(), "xa": tr.xa.to_bytes().hex()} for tr in triples]
    lines += [{"mask": mask.to_bytes().hex()} for mask in masks]
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)


def _depleted(queue: DealerQueue, mask: bool) -> None:
    raise PreprocessingError("mask stock depleted" if mask else "triple stock depleted")


class FileReplay(DealerQueue):
    """One party's dealer file, read whole into its queue.  The open refuses
    a file dealt for another party, scheme, n or t, one with fewer records
    than its header counts, one under a MAC scheme without the MAC key
    share, a file of an earlier version, binary, without the mask pair or
    with owned masks, and one whose last line is torn, each left as it is.
    So does a record line holding a share of another party or scheme than
    its header names, as a line that does not decode.  The queue's filler
    refuses a draw past the end of the file."""

    def __init__(self, path: str, party: int, scheme: SchemeId, n: int, t: int) -> None:
        super().__init__(_depleted)
        # the line reader cuts a file back to its last newline: a file the
        # deal did not write whole, an earlier version's binary file among
        # them, is refused before it is read as lines
        with open(path, "rb") as handle:
            if handle.read(1) != b"{":
                raise PreprocessingError(f"{path} is not a dealer file of this version; "
                                         "run `drpki deal` for a fresh one")
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                raise PreprocessingError(f"{path} ends in a torn line; "
                                         "run `drpki deal` for a fresh one")
        expected = {"party": party, "scheme": scheme.name, "n": n, "t": t}

        def check(head: dict) -> tuple[int, int]:
            """Take the header line; return the record counts it names."""
            if head.get("dealer") != _DEALER_KIND:
                raise PreprocessingError(f"{path} is not a dealer file of this version; "
                                         "run `drpki deal` for a fresh one")
            if {key: head.get(key) for key in expected} != expected:
                raise PreprocessingError(f"{path} is not a dealer file of party {party} "
                                         f"under {scheme.name} with n={n}, t={t}")
            if scheme.has_mac and "mac_key" not in head:
                raise PreprocessingError(f"{path} holds no MAC key share")
            self.epoch = bytes.fromhex(head["epoch"])
            self.mac_key = (MacKeyShare(party, FieldElement.from_bytes(
                bytes.fromhex(head["mac_key"]))) if scheme.has_mac else None)
            return head["triples"], head["masks"]

        def record(rec: dict) -> Triple | Share:
            """The triple or the mask of a line after the header."""
            def share(key: str) -> Share:
                got = Share.from_bytes(bytes.fromhex(rec[key]))
                if got.scheme is not scheme or got.owner != party:
                    raise SharingError(f"{key} is not a share of party {party} "
                                       f"under {scheme.name}")
                return got

            if "triple" in rec:
                return Triple(bytes.fromhex(rec["triple"]), share("a"), share("b"),
                              share("c"), share("x"), share("xa"))
            return share("mask")

        records = _read_records(Path(path), record, header=check)
        if not records:
            raise PreprocessingError(f"{path} has no header line")
        counts = records.pop(0)
        for rec in records:
            (self.triples if isinstance(rec, Triple) else self.masks).append(rec)
        if (len(self.triples), len(self.masks)) != counts:
            raise PreprocessingError(f"{path} does not hold the records its header counts")


# --- phase 3's masked product --------------------------------------------------

def beaver_diffs(sk: Share, x: Share) -> Share:
    """This party's share of d = sk - x, the one value the product opens."""
    return share_add(sk, share_scale(x, FieldElement(-1)))


def beaver_combine(a: Share, xa: Share, d: FieldElement) -> Share:
    """This party's share of sk*a = [x*a] + d*[a], once d is public."""
    return share_add(xa, share_scale(a, d))
