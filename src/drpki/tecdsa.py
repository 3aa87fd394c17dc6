"""The four phases of the joint signing protocol, and the persistent tuple store.

Phases, each executed by every participating party over a synchronous
session:

  1. keygen                  a member's [sk], one dealer mask, and one open of
                             its public key
  2. preprocess_independent  initial tuples from local dealer records: [1/k],
                             b_i, [c] and the mask pair [x], [x/k]
  3. preprocess_dependent    final tuples binding a member: opens and checks c
                             with d = sk - x, then shares of k*G and
                             sk/k = x/k + d/k
  4. sign_online             field-only assembly of a request's signatures

Each phase runs on a PartyNode and reads its state; it writes only to the
node's tuple store, and keygen returns its key record for the node to store.

Instance-key material is strictly single-use: stores mark a tuple consumed
durably before any share computed from its [1/k] or [sk/k] is sent, so a
crash and restart can never reuse a nonce.  Only a share of its R = k*G,
which is the same on every send, may leave first.  Values derived from
opens a MAC check has not yet passed may be computed while the check is in
flight, but they are neither stored nor sent before it passes.

A store is one JSON-lines log, tuples.jsonl, appended and read through the
line-log helpers of `durable` like every other node record; a consumption
that fails to reach it is cut back off the file and leaves the tuple
unconsumed.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .algebra import (
    GENERATOR,
    FieldElement,
    GroupPoint,
    Signature,
    ecdsa_verify,
    hash_to_scalar,
    scalar_mul,
)
from .durable import _append_line, _read_records
from .preprocessing import TupleReuseError, beaver_diffs, beaver_combine
from .sharing import (
    ProtocolAbort,
    SchemeId,
    Share,
    share_add,
    share_scale,
)

if TYPE_CHECKING:
    from .runtime.node import PartyNode, _RequestGate


class TecdsaError(Exception):
    pass


class StockDepletedError(TecdsaError):
    """A preprocessing resource ran out; the message names which one."""


@dataclass(frozen=True)
class ProtocolConfig:
    """The scheme, the number of parties and two switches.

    The scheme fixes the threshold t and the quorum of live parties a phase
    needs: the Shamir schemes assume an honest majority, t = (n-1)/2, and
    the additive ones a dishonest majority, t = n-1; quorum = t + 1, which
    is all n parties for the additive schemes.
    """

    scheme: SchemeId
    n: int = 5
    test_mode: bool = False
    precompute_r: bool = False

    @classmethod
    def for_scheme(cls, scheme: SchemeId, n: int = 5, *, test_mode: bool = False,
                   precompute_r: bool = False) -> "ProtocolConfig":
        return cls(scheme, n, test_mode, precompute_r)

    @property
    def t(self) -> int:
        """The most parties that may collude without learning a secret."""
        return (self.n - 1) // 2 if self.scheme.is_shamir else self.n - 1

    @property
    def quorum(self) -> int:
        """Parties that must be live for the protocol to complete."""
        return self.t + 1


@dataclass
class KeyShareRecord:
    member_id: str
    sk_share: Share
    pk: GroupPoint
    epoch: bytes


@dataclass(slots=True)
class InitialTuple:
    """Member-independent material for one instance key, from a dealer
    record (a, b, c = a*b, x, x*a): [1/k] = [a] with its MAC, this party's
    bare share b_i, [c] with its MAC, so k = 1/a, and the record's mask
    pair [x] and [x*a] = [x/k] with their MACs.  Phase 3 opens c and checks
    it before it computes this party's share of k*G, (b_i / c) * G, and
    multiplies [sk] by [1/k] through the mask pair: it opens d = sk - x and
    takes [sk/k] = [x/k] + d * [1/k]."""

    tuple_id: bytes
    epoch: bytes
    k_inv_share: Share
    b_share: FieldElement
    c_share: Share
    x_share: Share
    xa_share: Share
    consumed: bool = False


@dataclass(slots=True)
class FinalTuple:
    """Member-bound material; carries the initial tuple's id (same instance key)."""

    tuple_id: bytes
    epoch: bytes
    member_id: str
    k_point_share: GroupPoint
    k_inv_share: Share
    sk_over_k_share: Share
    r_point: Optional[GroupPoint] = None  # present when R was pre-opened
    consumed: bool = False


# --- durable tuple store -----------------------------------------------------
#
# One JSON-lines log per party, tuples.jsonl, written through `_append_line`
# and read through `_read_records` as every other node record is: a header
# line naming the party, then one line per added tuple and one per
# consumption, with bytes, shares and points in hex.  A tuple enters memory,
# and is marked consumed, only once its line is on disk; a failed append is
# cut back off the file.  So a checkout has journaled its tuples before it
# returns, and no s share can come from a tuple that a restart would
# resurrect.

_KIND_INITIAL = 0
_KIND_FINAL = 1


def _initial_line(tup: InitialTuple) -> dict:
    return {"add": "initial", "id": tup.tuple_id.hex(), "epoch": tup.epoch.hex(),
            "k_inv": tup.k_inv_share.to_bytes().hex(), "b": tup.b_share.to_bytes().hex(),
            "c": tup.c_share.to_bytes().hex(), "x": tup.x_share.to_bytes().hex(),
            "xa": tup.xa_share.to_bytes().hex()}


def _final_line(tup: FinalTuple) -> dict:
    return {"add": "final", "id": tup.tuple_id.hex(), "epoch": tup.epoch.hex(),
            "member": tup.member_id, "k_point": tup.k_point_share.to_bytes().hex(),
            "k_inv": tup.k_inv_share.to_bytes().hex(),
            "sk_over_k": tup.sk_over_k_share.to_bytes().hex(),
            "r": None if tup.r_point is None else tup.r_point.to_bytes().hex()}


def _tuple_of(rec: dict):
    """The tuple an add line holds."""
    def raw(key: str) -> bytes:
        return bytes.fromhex(rec[key])

    if rec["add"] == "initial":
        return InitialTuple(raw("id"), raw("epoch"), Share.from_bytes(raw("k_inv")),
                            FieldElement.from_bytes(raw("b")), Share.from_bytes(raw("c")),
                            Share.from_bytes(raw("x")), Share.from_bytes(raw("xa")))
    if rec["add"] == "final":
        return FinalTuple(raw("id"), raw("epoch"), rec["member"],
                          GroupPoint.from_bytes(raw("k_point")),
                          Share.from_bytes(raw("k_inv")), Share.from_bytes(raw("sk_over_k")),
                          None if rec["r"] is None else GroupPoint.from_bytes(raw("r")))
    raise ValueError(f"unknown tuple kind {rec['add']!r}")


class TupleStore:
    """One party's tuple inventory, persisted as tuples.jsonl in a directory.

    Every added tuple and every consumption is appended to the file before
    the call returns and held in memory only after; the per-tuple
    `consumed` flags mirror the consumption lines.  A store serves one
    party and one epoch: a tuple is offered, counted and checked out while
    it is unconsumed, of that epoch and, if final, bound to the asked
    member: `_live` is that rule for every method.  An add refuses an id
    that any line holds, of any epoch.  After close() the store still
    answers reads, but adds and checkouts raise, so a stale store cannot
    write beside a reopened one.

    The open refuses a file whose header names another party, or that holds
    a whole line that does not decode, and leaves it as it is; only a torn
    last line is cut, as every line-log reader cuts it.  So is a file of an
    earlier version whose initial lines hold no mask pair.  Tuple files of
    earlier versions (tuples_*.dat, tuples.journal) are not read: their
    tuples are never offered, and the next refill restocks.
    """

    def __init__(self, directory: str, party: int, epoch: bytes) -> None:
        self._lock = threading.Lock()
        self.party = party
        self.epoch = epoch
        self._initial: dict[bytes, InitialTuple] = {}
        self._final: dict[bytes, FinalTuple] = {}
        self._closed = False
        Path(directory).mkdir(parents=True, exist_ok=True)
        self._path = Path(directory) / "tuples.jsonl"
        self._load()

    # -- persistence ------------------------------------------------------

    def _load(self) -> None:
        header = {"party": self.party, "store": "tuples"}

        def check(rec: dict) -> dict:
            if rec != header:
                raise TecdsaError(f"{self._path} is not a tuple store of party {self.party}")
            return rec

        if not _read_records(self._path, self._replay, header=check):
            _append_line(self._path, header)

    def _replay(self, rec: dict) -> None:
        """Take in one line after the header: an added tuple or a consumption."""
        if "consume" in rec:
            tup = self._kind(rec["consume"]).get(bytes.fromhex(rec["id"]))
            if tup is not None:
                tup.consumed = True
        else:
            tup = _tuple_of(rec)
            self._kind(rec["add"])[tup.tuple_id] = tup

    def _kind(self, name: str) -> dict:
        return {"initial": self._initial, "final": self._final}[name]

    def _writable(self) -> None:
        if self._closed:
            raise TecdsaError(f"tuple store {self._path} is closed")

    # -- inventory ---------------------------------------------------------
    #
    # The add, checkout, offer and stock methods each call one private helper
    # and never each other, so a tracer wrapping them counts each call once.
    # A pool is chosen by member: None for the initial tuples, else the final
    # tuples bound to that member.

    def _pool(self, member_id: Optional[str]) -> dict:
        return self._initial if member_id is None else self._final

    def _live(self, member_id: Optional[str], among=None):
        """The one availability rule: the tuples `among` (default: the whole
        pool) that are unconsumed, of the store's epoch, and bound to `member_id`."""
        if among is None:
            among = self._pool(member_id).values()
        return (t for t in among if not t.consumed and t.epoch == self.epoch
                and (member_id is None or t.member_id == member_id))

    def _append_records(self, records) -> None:
        """Append one line per record, all in one write."""
        _append_line(self._path, "\n".join(json.dumps(r, sort_keys=True) for r in records))

    def _add(self, name: str, tuples: Sequence, line) -> None:
        """Append one line per tuple, all in one write, and hold the tuples
        once it is done: a failed write holds none of them."""
        pool = self._kind(name)
        ids = [t.tuple_id for t in tuples]
        with self._lock:
            self._writable()
            if len(set(ids)) < len(ids) or any(tid in pool for tid in ids):
                raise TupleReuseError(f"duplicate {name} tuple id")
            if tuples:
                self._append_records(map(line, tuples))
            pool.update(zip(ids, tuples))

    def _checkout(self, member_id: Optional[str],
                  tuple_ids: Optional[Sequence[bytes]] = None) -> list:
        """Journal and return the tuples `tuple_ids`, or else the first live
        one: all in one write, and none unless every one is live."""
        pool = self._pool(member_id)
        with self._lock:
            self._writable()
            if tuple_ids is None:
                taken, wanted = list(islice(self._live(member_id), 1)), 1
            else:
                among = [pool[tid] for tid in dict.fromkeys(tuple_ids) if tid in pool]
                taken, wanted = list(self._live(member_id, among)), len(tuple_ids)
            if len(taken) < wanted:
                raise StockDepletedError(
                    "initial preprocessing tuples depleted" if member_id is None
                    else f"final tuples for member {member_id!r} depleted")
            kind = "initial" if member_id is None else "final"
            if taken:
                self._append_records({"consume": kind, "id": t.tuple_id.hex()} for t in taken)
            for tup in taken:
                tup.consumed = True
            return taken

    def _ids(self, member_id: Optional[str], limit: int) -> list[bytes]:
        with self._lock:
            return sorted(t.tuple_id for t in self._live(member_id))[:limit]

    def _count(self, member_id: Optional[str]) -> int:
        with self._lock:
            return sum(1 for _ in self._live(member_id))

    def add_initial(self, tuples: Sequence[InitialTuple]) -> None:
        self._add("initial", tuples, _initial_line)

    def add_final(self, tuples: Sequence[FinalTuple]) -> None:
        self._add("final", tuples, _final_line)

    def checkout_initial(self) -> InitialTuple:
        return self._checkout(None)[0]

    def checkout_final(self, member_id: str) -> FinalTuple:
        return self._checkout(member_id)[0]

    def checkout_initial_by_id(self, tuple_ids: Sequence[bytes]) -> list[InitialTuple]:
        return self._checkout(None, tuple_ids)

    def checkout_final_by_id(self, tuple_ids: Sequence[bytes], member_id: str) -> list[FinalTuple]:
        return self._checkout(member_id, tuple_ids)

    def available_initial_ids(self, limit: int = 64) -> list[bytes]:
        return self._ids(None, limit)

    def available_final_ids(self, member_id: str, limit: int = 16) -> list[bytes]:
        return self._ids(member_id, limit)

    def initial_stock(self) -> int:
        return self._count(None)

    def final_stock(self, member_id: str) -> int:
        return self._count(member_id)

    def consumed_ids(self) -> set[tuple[int, bytes]]:
        with self._lock:
            return ({(_KIND_INITIAL, t.tuple_id) for t in self._initial.values() if t.consumed}
                    | {(_KIND_FINAL, t.tuple_id) for t in self._final.values() if t.consumed})

    def initial_record(self, tuple_id: bytes) -> Optional[InitialTuple]:
        with self._lock:
            return self._initial.get(tuple_id)

    def final_record(self, tuple_id: bytes) -> Optional[FinalTuple]:
        with self._lock:
            return self._final.get(tuple_id)

    def close(self) -> None:
        with self._lock:
            self._closed = True


@dataclass
class SignResult:
    signature: Signature
    tuple_id: bytes


# --- phase 1: key generation ----------------------------------------------------

# a member id is a short handle; every final-tuple line repeats it
_MEMBER_ID_BYTES = 16


def keygen(node: PartyNode, session, member_id: str) -> KeyShareRecord:
    """Take [sk] for a member from the dealer and jointly open pk = sk * G.

    As SPDZ-family engines make any secret, [sk] is one random sharing from
    preprocessing: each party pops one mask from its own dealer queue and
    takes it as its key share.  Then one round opens pk under every scheme,
    checked under `mal-shamir`, and no frame carries a private value.  The
    dealer draws sk, so it knows every member key from keygen on; under
    OT-based preprocessing no party would know it.  Returns this party's
    record; storing it is the node's.

    Under `mascot` the open has a real gap: point opens carry no MAC and the
    additive open has no redundancy, so a rushing party, which reads the
    honest point shares before its own must leave, can send
    Y - (sum of honest point shares) and every honest node stores a key Y
    whose secret it chose; it can then sign for the member alone (a plainly
    corrupted share stores a key no one can sign for).  The fix is a MAC
    check of the opened point against the MACs of [sk] (ROADMAP item 11);
    its commit and reveal rounds would make a `mascot` keygen 3 rounds.  As
    in every last round, a peer that sends a bad payload to some parties
    only makes those abort while the others store the key: security with
    abort, without agreement.
    """
    if len(member_id.encode()) > _MEMBER_ID_BYTES:  # refused before any round
        raise TecdsaError(f"member id longer than {_MEMBER_ID_BYTES} bytes: {member_id!r}")
    sk_share = node.triple_source.next_mask()
    [pk] = session.open_point_batch([scalar_mul(sk_share.value, GENERATOR)])
    if pk.is_identity():
        raise ProtocolAbort("degenerate public key")
    return KeyShareRecord(member_id, sk_share, pk, node.epoch)


# --- phase 2: member-independent preprocessing -----------------------------------

def preprocess_independent(node: PartyNode, session, count: int) -> list[InitialTuple]:
    """Store `count` initial tuples from fresh dealer records; no frame is sent.

    Per record (a, b, c, x, x*a): [1/k] := [a], so k = 1/a, beside the bare
    share b_i, [c] and the mask pair [x], [x*a].  Phase 3 opens c beside
    its d = sk - x, MAC-checks it and aborts on c = 0 before it computes
    any share (b_i / c) * G of k*G.  A record the queue hands out twice is
    refused by the store's duplicate-id check before any tuple is written.
    """
    triples = [node.triple_source.next_triple() for _ in range(count)]
    produced = [InitialTuple(tr.triple_id, node.epoch, tr.a, tr.b.value, tr.c, tr.x, tr.xa)
                for tr in triples]
    node.tuple_store.add_initial(produced)
    return produced


# --- phase 3: member-dependent preprocessing --------------------------------------

def preprocess_dependent(node: PartyNode, session, member_id: str,
                         count: int) -> list[FinalTuple]:
    """Bind `count` initial tuples to a member: [sk/k] = [sk] * [1/k].

    The product takes two local steps around one open, from the tuple's own
    mask pair [x], [x/k]: `beaver_diffs` gives this party's share of
    d = sk - x, and once d is open `beaver_combine` gives
    [sk/k] = [x/k] + d * [1/k].  That is Beaver's step with the second
    operand [1/k] itself, so its e = 1/k - 1/k is 0 and is never formed.
    No dealer record is drawn here.  This is safe because:
      - d is uniform and says nothing of sk, because x is fresh, uniform
        and dies with its single-use tuple;
      - no share of 1/k is sent, so nothing about it leaves the party;
      - the dealer sees only what it dealt: no message reaches it;
      - a shifted d share fails the MAC check under the authenticated
        scheme and the checked open under the checked Shamir scheme, as a
        shifted c share does.
    An x must therefore never serve two tuples: a per-batch or per-file x
    used for two members would open d1 - d2 = sk1 - sk2.  Each dealer
    record deals its own x, and the tuple's journaled consumption keeps
    it to one d.

    Tuple agreement (`_agree`) rides on the open of c and d: every party
    journals its lowest `count` live initial ids and sends each tuple's c
    and d shares behind their tag, so an honest batch agrees without a
    round of its own.  Differing tags end that open before any share is
    decoded or MAC-accounted; after the realign the open runs once more,
    with fresh ids.

    Every initial tuple is journaled before its c and d shares are sent.
    The MAC check covers every opened c and d, and an opened c = 0, a ~2/p
    event and so the sign of a rigged or broken dealer, aborts the
    session.  Each share (b_i / c) * G of k*G and each [sk/k] is computed
    while the check's commit frames are in flight, from the still unchecked
    opens, but none is stored or sent before the check passes; with any
    c = 0 none is computed.  With precompute_r the R point is opened after
    the check so the online phase stays free of curve work, and a
    degenerate R aborts the session before any final tuple is stored.
    """
    cfg = node.config
    record = node.key_records.get(member_id)
    if record is None:
        raise TecdsaError(f"no key shares for member {member_id!r}")
    store = node.tuple_store

    def bind(ids: list[bytes], tag: bytes, check):
        """Journal `ids` and open, behind the tag, each tuple's c share and
        its d = sk - x.  A short party journals and opens nothing."""
        initials = store.checkout_initial_by_id(ids) if len(ids) == count else []
        shares: list[Share] = []
        for init in initials:
            shares += (init.c_share, beaver_diffs(record.sk_share, init.x_share))
        return initials, session.open_field_batch(shares, tag, check)

    initials, opened = _agree(
        session, count, "initial preprocessing tuples depleted",
        store.available_initial_ids, store.checkout_initial_by_id, bind)
    degenerate = any(c.is_zero() for c in opened[0::2])
    finals: list[FinalTuple] = []

    def build() -> None:
        if degenerate:
            return
        for init, c, d in zip(initials, opened[0::2], opened[1::2]):
            finals.append(
                FinalTuple(init.tuple_id, node.epoch, member_id,
                           scalar_mul(init.b_share * c.inv(), GENERATOR), init.k_inv_share,
                           beaver_combine(init.k_inv_share, init.xa_share, d))
            )

    # the final tuples are built while the check's commit frames are in
    # flight, and kept only once it has authenticated every c and d
    session.run_mac_check(build)
    if degenerate:
        session.abort("degenerate preprocessing triple (c = 0)")

    if cfg.precompute_r:
        r_points = session.open_point_batch([f.k_point_share for f in finals])
        for f, r in zip(finals, r_points):
            _r_x(session, r)
            f.r_point = r

    node.tuple_store.add_final(finals)
    return finals


# --- tuple agreement --------------------------------------------------------------
#
# Phase 3 and online signing agree on tuples by one rule: each party sends a
# tag of its lowest `count` live ids in the phase's first round.  Differing
# tags, as a crash that left the stores asymmetric causes, run one realign
# round and then the first round once more; a second mismatch aborts.

# ids a realign list carries beyond the batch: stores up to this many ids
# apart realign in one call
_SPARE_OFFER = 15


class _TagMismatch(Exception):
    """The parties' lowest live ids differ."""


def _id_tag(ids: Sequence[bytes]) -> bytes:
    """A 4-byte id count and the ids' SHA-256 cut to 16 bytes: one id's size."""
    return len(ids).to_bytes(4, "big") + hashlib.sha256(b"".join(ids)).digest()[:16]


def _agree(session, count: int, depleted_message: str, live_ids, burn, first_round):
    """Agree on `count` tuples; returns the result of the agreeing first round.

    `live_ids(limit)` lists this party's lowest live ids and `burn(tids)`
    journals some of them.  `first_round(ids, tag, check)` sends `tag` and passes
    every party's tag, its own included, to `check` before it uses the rest
    of the round; a wrong length or a peer's short count aborts there.
    """
    def attempt():
        ids = live_ids(count)
        mine = _id_tag(ids)

        def check(tags: dict[int, bytes]) -> None:
            if any(len(tag) != len(mine) for tag in tags.values()):
                session.abort("malformed tuple id payload")
            if len(ids) < count:
                raise StockDepletedError(depleted_message)
            if any(int.from_bytes(tag[:4], "big") < count for tag in tags.values()):
                session.abort("short tuple id offer")
            if any(tag != mine for tag in tags.values()):
                raise _TagMismatch

        return first_round(ids, mine, check)

    try:
        return attempt()
    except _TagMismatch:
        _realign(session, live_ids(count + _SPARE_OFFER), count + _SPARE_OFFER, burn)
    try:
        return attempt()
    except _TagMismatch:
        session.abort("tuple ids out of step")


def _realign(session, mine: list[bytes], window: int, burn) -> None:
    """Send `mine`, this party's lowest `window` live ids, and burn each one
    a peer's list shows the peer lacks: missing from that list and below its
    highest id, or missing from a list shorter than the window.  So a peer
    can make this party burn no id beyond `mine`."""
    lacking = set()
    for blob in session.run_round(b"".join(mine)).values():
        if len(blob) % 16 or len(blob) > 16 * window:
            session.abort("malformed tuple id payload")
        theirs = {blob[i:i + 16] for i in range(0, len(blob), 16)}
        top = max(theirs) if len(blob) == 16 * window else None
        lacking.update(t for t in mine if t not in theirs and (top is None or t < top))
    burn(sorted(lacking))


def _r_x(session, r_point: GroupPoint) -> FieldElement:
    """The r_x of an opened instance key R; R the identity or r_x = 0 aborts."""
    r_x = None if r_point.is_identity() else FieldElement(r_point.x)
    if r_x is None or r_x.is_zero():
        session.abort("degenerate instance key")
    return r_x


# --- phase 4: online signing ------------------------------------------------------

# a round-1 note opens with the 20-byte tag and a 16-byte consent target
_NOTE_HEAD = 20 + 16


def sign_online(node: PartyNode, session, member_id: str,
                messages: Sequence[bytes] = (),
                gate: Optional[_RequestGate] = None) -> list[SignResult]:
    """Sign every message of one request in one session of two rounds.

    Round 1 agrees on a final tuple per message by tag (`_agree`) and
    carries, behind the tag, this party's R shares of its lowest live ids,
    read without journaling.  An R share may leave first: a tuple's R share
    is the same on every send, and under precompute_r R was opened in
    preprocessing anyway.  No peer's R share is decoded until the tags
    agree and this party has journaled the agreed ids; then every R not
    opened during preprocessing is reconstructed.  Round 2 opens every s:
    the share step computes [s] = H(M) * [1/k] + r_x * [sk/k] locally,
    field operations only (a share times a public constant scales its MAC
    share with it, so no MAC key is needed), so a tuple is journaled before
    any s share leaves.  Every party verifies each assembled signature against the
    member's public key and the R it holds before returning any; a failure
    aborts rather than emitting bad bytes.  So does a degenerate instance
    key (R the identity, r_x = 0 or s = 0): the request ends there, and
    its tuples stay consumed.

    That verify, not a MAC check, accepts the opened s under the
    authenticated scheme; the values phase 3 opens are used, not output,
    so phase 3 MAC-checks them.  A MAC check over s would add nothing:
      - the adversary receives every honest s share in the open round,
        before any MAC check could run, so such a check would not change
        its view;
      - it would not cover R, since point opens carry no MAC;
      - the check against the held R tests s * R = H(M) * G + r_x * pk,
        which one s passes for a fixed R and pk: a shifted s share fails
        it, and so does a shifted R share, since the s shares still give
        the s that belongs to k * G, not to the held R; both abort with
        "signature invalid";
      - a rushing party that sees every honest share can make the output
        (r, n - s); the plain ECDSA check accepts that, but its point is
        -R, so the check against the held R rejects it;
      - no MAC share or MAC reveal is sent, so nothing about the key
        alpha is revealed;
      - an s share equivocated between honest parties makes some publish
        and others abort, as an equivocated MAC reveal in a last round
        could too: security with abort, without agreement.
    So only phase 3 can fail a MAC check and retire an epoch.

    With a `gate`, the consent step of a `request` op, the messages come
    from its round-1 leads instead, and its votes ride on the s round.  The
    gate's `count` tuples are agreed on, and its 16-byte `target` and its
    `lead` go out after the tag.  `gate.read(leads, targets)` takes every
    party's round-1 lead and target once the tags agree, and returns the
    messages to sign, this party's vote and whether this party's s shares
    go out beside it: a party whose gate withholds sends its vote alone.
    `gate.tally(votes)` takes every party's vote before any s share is
    decoded, and returns the parties whose shares make s or raises to stop
    the signing there.  A consent step thus adds no round of its own, and a
    refused request has journaled its tuples and decoded no s share.
    precompute_r saves no round: it only moves the R open's curve work out
    of the online phase.
    """
    record = node.key_records.get(member_id)
    if record is None:
        raise TecdsaError(f"no key shares for member {member_id!r}")
    store = node.tuple_store
    count = len(messages) if gate is None else gate.count
    head = bytes(16) if gate is None else gate.target + gate.lead
    targets: dict[int, bytes] = {}
    leads: dict[int, bytes] = {}

    def exchange(ids: list[bytes], tag: bytes, check):
        """Round 1: the tag, target and lead as the note, then this party's R
        shares of `ids`; returns the journaled tuples and their R points."""
        held = [store.final_record(tid) for tid in ids]
        tuples: list[FinalTuple] = []

        def read(notes: dict[int, bytes]) -> None:
            if any(len(note) < _NOTE_HEAD for note in notes.values()):
                session.abort("malformed tuple id payload")
            check({p: note[:20] for p, note in notes.items()})
            tuples.extend(store.checkout_final_by_id(ids, member_id))
            for p, note in notes.items():
                targets[p], leads[p] = note[20:_NOTE_HEAD], note[_NOTE_HEAD:]

        opened = iter(session.open_point_batch(
            [t.k_point_share for t in held if t.r_point is None], tag + head, read))
        return tuples, [t.r_point if t.r_point is not None else next(opened)
                        for t in tuples]

    tuples, r_points = _agree(
        session, count, f"final tuples for member {member_id!r} depleted",
        lambda limit: store.available_final_ids(member_id, limit=limit),
        lambda tids: store.checkout_final_by_id(tids, member_id), exchange)
    vote, release = None, True
    if gate is not None:
        messages, vote, release = gate.read(leads, targets)
    r_xs = [_r_x(session, r) for r in r_points]

    s_shares = [
        share_add(share_scale(tup.k_inv_share, hash_to_scalar(m)),
                  share_scale(tup.sk_over_k_share, r_x))
        for tup, m, r_x in zip(tuples, messages, r_xs)
    ] if release else []
    if gate is None:
        s_values = session.open_field_batch(s_shares)
    else:
        s_values = session.open_field_batch(s_shares, vote, gate.tally)
    session.mac_accumulator.clear()  # s is accepted by the verify against R below
    if len(s_values) != len(tuples):
        session.abort("malformed open payload")

    results = []
    for tup, m, r_point, r_x, s in zip(tuples, messages, r_points, r_xs, s_values):
        if s.is_zero():
            session.abort("degenerate instance key (s = 0)")
        signature = Signature(r_x, s)
        if not ecdsa_verify(record.pk, m, signature, r_point=r_point):
            session.abort("signature invalid")
        results.append(SignResult(signature, tup.tuple_id))
    return results
