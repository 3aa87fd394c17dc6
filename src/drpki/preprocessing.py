"""Multiplication-triple sources and Beaver multiplication.

Triples here come from a trusted dealer (or a file of dealer output), an
explicit trust assumption standing in for OT-based offline generation.  The
TripleSource interface is shaped so an interactive generator could be slotted
in without touching consumers.

Triples are strictly single-use: a consumed flag is set before any protocol
message references the triple, so a crash cannot lead to reuse.
"""

from __future__ import annotations

import io
import struct
import threading
from dataclasses import dataclass
from typing import BinaryIO, Callable, Optional, Sequence

from .algebra import FieldElement
from .sharing import (
    MacKeyShare,
    SchemeId,
    Share,
    SharingError,
    deal,
    share_add,
    share_scale_add,
)


class PreprocessingError(Exception):
    pass


class TupleReuseError(PreprocessingError):
    """A consumed triple or tuple was presented for use again."""


@dataclass
class Triple:
    """One party's record of a multiplication triple (a, b, c with c = ab)."""

    triple_id: bytes
    epoch: bytes
    a: Share
    b: Share
    c: Share
    consumed: bool = False

    @property
    def scheme(self) -> SchemeId:
        return self.a.scheme

    def mark_consumed(self) -> None:
        if self.consumed:
            raise TupleReuseError("tuple reuse")
        self.consumed = True


@dataclass
class InputMask:
    """Dealer-issued random sharing; the cleartext goes to the input owner only.

    Used to authenticate locally sampled inputs: the owner broadcasts
    x - mask and everyone computes [x] = [mask] + (x - mask).
    """

    mask_id: bytes
    epoch: bytes
    input_owner: int
    share: Share
    cleartext: Optional[FieldElement]  # present only in the owner's record


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
    epoch: bytes = b"\x00" * 16,
    owners: Optional[Sequence[int]] = None,
) -> list[list[Triple]]:
    """Produce `count` triples; result[j][i] is the i-th owner's record of triple j."""
    if count < 1:
        raise PreprocessingError("count must be >= 1")
    out = []
    seen: set[bytes] = set()
    for _ in range(count):
        tid = _fresh_id(rng)
        while tid in seen:
            tid = _fresh_id(rng)
        seen.add(tid)
        a = FieldElement.random(rng)
        b = FieldElement.random(rng)
        c = a * b
        a_shares = deal(scheme, a, n, t, rng, mac_keys, owners)
        b_shares = deal(scheme, b, n, t, rng, mac_keys, owners)
        c_shares = deal(scheme, c, n, t, rng, mac_keys, owners)
        out.append(
            [
                Triple(tid, epoch, a_shares[i], b_shares[i], c_shares[i])
                for i in range(n)
            ]
        )
    return out


def dealer_generate_masks(
    scheme: SchemeId,
    input_owner: int,
    n: int,
    t: int = 0,
    rng=None,
    mac_keys: Optional[Sequence[MacKeyShare]] = None,
    epoch: bytes = b"\x00" * 16,
    owners: Optional[Sequence[int]] = None,
) -> list[InputMask]:
    """One random authenticated sharing whose value is disclosed to `input_owner`."""
    owner_list = list(owners) if owners is not None else list(range(1, n + 1))
    mid = _fresh_id(rng)
    m = FieldElement.random(rng)
    shares = deal(scheme, m, n, t, rng, mac_keys, owner_list)
    return [
        InputMask(mid, epoch, input_owner, shares[i],
                  m if owner_list[i] == input_owner else None)
        for i in range(n)
    ]


class TripleSource:
    """Abstract per-party provider of preprocessing material."""

    def next_triple(self, scheme: SchemeId) -> Triple:
        raise NotImplementedError

    def next_input_mask(self, scheme: SchemeId, input_owner: int) -> InputMask:
        raise NotImplementedError


class TrustedDealer(TripleSource):
    """In-process dealer shared by all parties' sessions.

    Each party has a triple queue and a mask queue.  A party that finds its
    queue empty draws one fresh sharing, which appends one record to every
    owner's queue, so the queues stay aligned while every party consumes in
    protocol lockstep; the lock makes concurrent sessions safe.  The dealer
    transiently sees whole triples - that is the documented trust assumption.
    """

    def __init__(self, n: int, t: int, rng=None,
                 mac_keys: Optional[Sequence[MacKeyShare]] = None,
                 epoch: bytes = b"\x00" * 16,
                 owners: Optional[Sequence[int]] = None) -> None:
        self.n = n
        self.t = t
        self.epoch = epoch
        self.owners = list(owners) if owners is not None else list(range(1, n + 1))
        self._rng = rng
        self._mac_keys = mac_keys
        self._lock = threading.Lock()
        self._triple_queues: dict[int, list[Triple]] = {i: [] for i in self.owners}
        self._mask_queues: dict[int, list[InputMask]] = {i: [] for i in self.owners}

    def view_for(self, party: int) -> "DealerPartyView":
        return DealerPartyView(self, party)

    def _next(self, queues: dict[int, list], party: int, draw: Callable[[], Sequence]):
        """Pop `party`'s next record; an empty queue first appends one fresh
        draw, one record per owner, to every owner's queue."""
        with self._lock:
            if not queues[party]:
                for owner, rec in zip(self.owners, draw()):
                    queues[owner].append(rec)
            return queues[party].pop(0)

    def next_triple_for(self, party: int, scheme: SchemeId) -> Triple:
        triple = self._next(self._triple_queues, party, lambda: dealer_generate(
            scheme, 1, self.n, self.t, self._rng, self._mac_keys, self.epoch,
            owners=self.owners)[0])
        if triple.scheme is not scheme:
            raise PreprocessingError("dealer queue holds a different scheme")
        return triple

    def next_mask_for(self, party: int, scheme: SchemeId, input_owner: int) -> InputMask:
        mask = self._next(self._mask_queues, party, lambda: dealer_generate_masks(
            scheme, input_owner, self.n, self.t, self._rng,
            self._mac_keys, self.epoch, owners=self.owners))
        if mask.input_owner != input_owner:
            raise PreprocessingError("dealer mask queue out of step")
        return mask


class DealerPartyView(TripleSource):
    """A single party's handle onto a shared TrustedDealer."""

    def __init__(self, dealer: TrustedDealer, party: int) -> None:
        self._dealer = dealer
        self.party = party

    def next_triple(self, scheme: SchemeId) -> Triple:
        return self._dealer.next_triple_for(self.party, scheme)

    def next_input_mask(self, scheme: SchemeId, input_owner: int) -> InputMask:
        return self._dealer.next_mask_for(self.party, scheme, input_owner)


# --- FileReplay: dealer output persisted per party ----------------------------
#
# File layout: magic 'DRT1' | scheme u8 | n u8 | t u8 | party u8 | epoch 16B,
# then records:  kind u8 (0 triple, 1 mask) followed by the fixed-width body.
# `encode_replay` builds a whole file's bytes; `drpki deal` writes them with
# the node's whole-file writer, so a file is either old or new, never part.

_FILE_MAGIC = b"DRT1"
_KIND_TRIPLE = 0
_KIND_MASK = 1


def _share_body(share: Share) -> bytes:
    return share.value.to_bytes() + (share.mac.to_bytes() if share.mac is not None
                                     else b"\x00" * 32)


def _read_share_body(buf: BinaryIO, scheme: SchemeId, owner: int) -> Share:
    value = FieldElement.from_bytes(buf.read(32))
    mac_raw = buf.read(32)
    mac = FieldElement.from_bytes(mac_raw) if scheme.has_mac else None
    return Share(scheme, owner, value, mac)


def encode_replay(
    party: int,
    scheme: SchemeId,
    n: int,
    t: int,
    epoch: bytes,
    triples: Sequence[Triple],
    masks: Sequence[InputMask] = (),
) -> bytes:
    """One party's dealer file, whole, for `FileReplay` to read."""
    out = [_FILE_MAGIC, struct.pack("BBBB", scheme.value, n, t, party), epoch]
    for tr in triples:
        out += [bytes([_KIND_TRIPLE]), tr.triple_id,
                _share_body(tr.a), _share_body(tr.b), _share_body(tr.c)]
    for mk in masks:
        clear = mk.cleartext.to_bytes() if mk.cleartext is not None else b"\x00" * 32
        out += [bytes([_KIND_MASK]), mk.mask_id, bytes([mk.input_owner]),
                _share_body(mk.share), clear]
    return b"".join(out)


class FileReplay(TripleSource):
    """Reads one party's pre-generated dealer output from disk."""

    def __init__(self, path: str) -> None:
        self.path = path
        with open(path, "rb") as handle:
            data = handle.read()
        buf = io.BytesIO(data)
        if buf.read(4) != _FILE_MAGIC:
            raise PreprocessingError(f"{path}: not a triple replay file")
        scheme_v, self.n, self.t, self.party = struct.unpack("BBBB", buf.read(4))
        self.scheme = SchemeId(scheme_v)
        self.epoch = buf.read(16)
        self._triples: list[Triple] = []
        self._masks: list[InputMask] = []
        while True:
            kind = buf.read(1)
            if not kind:
                break
            if kind[0] == _KIND_TRIPLE:
                tid = buf.read(16)
                a = _read_share_body(buf, self.scheme, self.party)
                b = _read_share_body(buf, self.scheme, self.party)
                c = _read_share_body(buf, self.scheme, self.party)
                self._triples.append(Triple(tid, self.epoch, a, b, c))
            elif kind[0] == _KIND_MASK:
                mid = buf.read(16)
                owner = buf.read(1)[0]
                share = _read_share_body(buf, self.scheme, self.party)
                clear_raw = buf.read(32)
                clear = (
                    FieldElement.from_bytes(clear_raw)
                    if owner == self.party
                    else None
                )
                self._masks.append(InputMask(mid, self.epoch, owner, share, clear))
            else:
                raise PreprocessingError(f"{path}: unknown record kind {kind[0]}")
        self._lock = threading.Lock()

    def remaining(self) -> int:
        with self._lock:
            return len(self._triples)

    def next_triple(self, scheme: SchemeId) -> Triple:
        with self._lock:
            if scheme is not self.scheme:
                raise PreprocessingError("replay file holds a different scheme")
            if not self._triples:
                raise PreprocessingError("triple stock depleted")
            return self._triples.pop(0)

    def next_input_mask(self, scheme: SchemeId, input_owner: int) -> InputMask:
        with self._lock:
            if not self._masks:
                raise PreprocessingError("input mask stock depleted")
            mask = self._masks.pop(0)
            if mask.input_owner != input_owner:
                raise PreprocessingError("replay mask order does not match protocol")
            return mask


# --- Beaver multiplication ------------------------------------------------------

def beaver_diffs(x: Share, y: Share, triple: Triple) -> tuple[Share, Share]:
    """Local step: shares of d = x - a and e = y - b.

    Marks the triple consumed first, so no message can ever reference a
    reusable triple.
    """
    if triple.consumed:
        raise TupleReuseError("tuple reuse")
    if x.scheme is not triple.scheme or y.scheme is not triple.scheme:
        raise SharingError("scheme mismatch")
    triple.mark_consumed()
    minus_one = FieldElement(-1)
    zero = FieldElement.zero()
    neg_a = share_scale_add(triple.a, minus_one, zero)
    neg_b = share_scale_add(triple.b, minus_one, zero)
    return share_add(x, neg_a), share_add(y, neg_b)


def beaver_combine(
    triple: Triple,
    d: FieldElement,
    e: FieldElement,
    mac_key: Optional[MacKeyShare] = None,
) -> Share:
    """Local step after d and e are public: share of x*y = c + d*b + e*a + d*e."""
    zero = FieldElement.zero()
    term_b = share_scale_add(triple.b, d, zero, mac_key)
    term_a = share_scale_add(triple.a, e, zero, mac_key)
    acc = share_add(share_add(triple.c, term_b), term_a)
    return share_scale_add(acc, FieldElement.one(), d * e, mac_key)

