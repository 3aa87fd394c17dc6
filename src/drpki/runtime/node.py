"""Party nodes and the five-node signing service.

A PartyNode owns one RIR's durable state: tuple store, key-share records,
member consent registry, published-object store (whose CRL objects are its
revocations), intervention tickets, and an append-only audit log.  It is
also the one phase driver: `open_session` builds the party's session for a
phase, and `run` executes one op (keygen, preprocess-independent,
preprocess-dependent, sign, request) over it; the phase functions of
`tecdsa` run on the node itself.
Both transports use it: the LocalCluster runs five nodes over the
in-process hub, one thread per party per op, and `drpki serve` runs one
node over TCP.  A session id is a counter, unique within the epoch, which
the pair keys bind: the cluster counts from boots << 32, and serve from 1,
after its control session 0.
An op whose MAC check fails at this node retires the node's own epoch; a
peer's abort frame, whatever its text, never does.  Only phase 3 runs a
MAC check, so only a restock can retire an epoch.  `run` refuses every op
on a retired or tainted epoch before it sends anything: a `request` op
returns an aborted outcome, and any other op raises.

The `request` op is the one consent-gated signing path, in one session of
two rounds, and its consent step rides on the rounds of `sign_online`.
Round 1 carries every node's 20-byte tag of its lowest live final-tuple
ids, its 16-byte consent target, the initiator's payloads and the node's R
shares; once the tags agree each node journals those ids, one per payload,
and reconstructs R.  Every node checks content and consent itself, audits
its verdict, and votes in round 2; it sends its s shares beside the vote
only if its verdict is ok and no peer's non-zero target differs from its
own, so a dissenter withholds them.  Each node tallies every vote before
it decodes any s share, makes s from the ok voters' shares alone, and
publishes once every signature verifies against the member key and the R
it holds; that verify, not a MAC check, accepts s under `mascot` too.  A
vote without a quorum of ok burns the tuples agreed in round 1 and aborts,
or under the flag policy opens an intervention ticket; differing targets
abort with "consent targets differ".  Completing a ticket is the same op:
each node votes ok only if its own copy is approved, not completed, and
holds the same payloads.

The node that drives a request or a refill decides from its own state
alone, and reaches the other parties only through `dispatch(op)`, which
runs one op at every live party and returns this node's result.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import random
import secrets
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path
from typing import Callable, ClassVar, Optional, Sequence
from urllib.parse import quote

from ..algebra import FieldElement, GroupPoint
from ..durable import (
    RecordError, _append_line, _read_file, _read_lines, _read_records, _read_text, _write_file,
)
from ..preprocessing import TrustedDealer
from ..rpki import (
    Action,
    ConsentToken,
    CrlRecord,
    PayloadKind,
    PayloadRecord,
    SignedObject,
    TrustAnchorLocator,
    ValidationError,
    decode_canonical,
    encode_canonical,
    frame_fields,
    split_fields,
    verify_consent,
)
from ..sharing import MacKeyShare, ProtocolAbort, Share, generate_mac_keys, open_shares
from ..tecdsa import (
    KeyShareRecord,
    ProtocolConfig,
    SignResult,
    StockDepletedError,
    TecdsaError,
    TupleStore,
    keygen,
    preprocess_dependent,
    preprocess_independent,
    sign_online,
)
from .session import PartySession, SessionAbort
from .transport import (
    PHASE_KEYGEN,
    PHASE_ONLINE,
    PHASE_PREPROCESS_DEPENDENT,
    PHASE_PREPROCESS_INDEPENDENT,
    InProcessHub,
    derive_pair_keys,
)


# the phase each op of `PartyNode.run` runs in
OP_PHASES = {
    "keygen": PHASE_KEYGEN,
    "preprocess-independent": PHASE_PREPROCESS_INDEPENDENT,
    "preprocess-dependent": PHASE_PREPROCESS_DEPENDENT,
    "sign": PHASE_ONLINE,
    "request": PHASE_ONLINE,
}


def _derive_seed(seed: int, label: str) -> int:
    """Stable sub-seed derivation (process-independent, unlike hash())."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class ConsentPolicy:
    """A node's abort-vs-flag policy for `flag_eligible` actions, and its
    refill sizes.

    A request refills whenever its driving node holds fewer final tuples
    for the member than it needs.  `low_watermark` is the final-tuple
    threshold of a refill and the spare initial stock it leaves, and
    `batch_size` the final tuples it binds per member; a refill for a larger
    request raises both to its size.  The batch defaults to the 1000-tuple
    amortization unit the benchmarks use; scale it down for interactive demos.
    """

    flag_eligible: ClassVar[tuple[Action, ...]] = (Action.REVOKE, Action.TRANSFER)

    flag_on_failed_consent: bool = False
    low_watermark: int = 100
    batch_size: int = 1000


@dataclass
class InterventionTicket:
    """A flagged request awaiting manual approvals (one copy per party)."""

    ticket_id: str
    member_id: str
    action: Action
    reason: str  # consent-missing | consent-invalid
    created_at: float
    payload_blobs: list[bytes]
    approved: bool = False
    completed: bool = False


@dataclass
class SignRequest:
    """A member's request; `consent`, when set, reaches every node with it."""

    member_id: str
    action: Action
    payloads: list[PayloadRecord]
    consent: Optional[ConsentToken] = None
    transfer_id: Optional[bytes] = None


@dataclass
class SignOutcome:
    status: str  # published | aborted | flagged
    objects: list[SignedObject] = dc_field(default_factory=list)
    ticket_id: Optional[str] = None
    reason: Optional[str] = None
    sign_results: list[SignResult] = dc_field(default_factory=list)


class _Refused(Exception):
    """A request's votes hold no quorum of ok."""


class _RequestGate:
    """The consent step of one node's `request` op, riding on signing.

    In round 1 this node's consent target and the initiator's payloads go
    out behind the tuple tags.  The target is the first 16 bytes of the
    object digest of this node's inbox token, or on the ticket path of the
    digest of its ticket copy's payloads; zeros if it holds neither.  This
    node checks content and consent itself (or its own ticket copy), audits
    its verdict, and votes in round 2.  It sends its s shares beside the
    vote only if its verdict is ok and no peer's non-zero target differs
    from its own, so two honest nodes never send s shares for different
    payloads on one tuple, even when the initiator equivocates and the
    inboxes differ.  `tally` raises `_Refused` without a quorum of ok votes,
    aborts with "consent targets differ" when two non-zero targets differ,
    and otherwise names the ok voters, whose s shares alone make s.  The
    price of the target echo is liveness: differing targets abort a request
    that a quorum of ok votes could have published.
    """

    def __init__(self, node: "PartyNode", op: dict, session: PartySession) -> None:
        self.node, self.op, self.session = node, op, session
        self.ticket_id = op.get("ticket")
        self.count = len(op["payloads"])
        self.lead = (frame_fields(bytes.fromhex(p) for p in op["payloads"])
                     if node.party_id == op["initiator"] else b"")
        if self.ticket_id is None:
            token = node.consent_inbox.get(op["member"])
            digest = token.object_digest if token is not None else None
        else:
            ticket = node.tickets.get(self.ticket_id)
            digest = (hashlib.sha256(frame_fields(ticket.payload_blobs)).digest()
                      if ticket is not None else None)
        self.target = digest[:16] if digest else bytes(16)
        self.blobs: list[bytes] = []
        self.digest = ""
        self.targets: dict[int, bytes] = {}
        self.votes: dict[int, bytes] = {}

    def read(self, leads: dict[int, bytes],
             targets: dict[int, bytes]) -> tuple[list[bytes], bytes, bool]:
        node, member_id = self.node, self.op["member"]
        self.targets = targets
        try:
            self.blobs = split_fields(leads.get(self.op["initiator"], b""))
            if len(self.blobs) != self.count:
                raise ValidationError("request payload count")
            records = [decode_canonical(b) for b in self.blobs]
        except ValidationError:
            self.session.abort("malformed request payload")
        self.digest = hashlib.sha256(b"".join(self.blobs)).hexdigest()
        if self.ticket_id is None:
            action = Action[self.op["action"]]
            verdict = verify_consent(node.consent_inbox.get(member_id), action,
                                     records, node.member_registry, node.clock()).value
            node.audit(
                "consent_verdict", member=member_id, action=action.name,
                digest=self.digest,
                objects=[hashlib.sha256(encode_canonical(r)).hexdigest() for r in records],
                verdict=verdict,
            )
        else:
            ticket = node.tickets.get(self.ticket_id)
            approved = (ticket is not None and ticket.approved and not ticket.completed
                        and ticket.payload_blobs == self.blobs)
            verdict = "ok" if approved else "unapproved"
            node.audit("ticket_verdict", ticket=self.ticket_id, verdict=verdict)
        release = verdict == "ok" and self._nonzero_targets() == {self.target}
        return self.blobs, verdict.encode(), release

    def _nonzero_targets(self) -> set[bytes]:
        """The distinct non-zero consent targets of round 1."""
        return {t for t in self.targets.values() if any(t)}

    def tally(self, votes: dict[int, bytes]) -> list[int]:
        self.votes = votes
        ok = [p for p, vote in votes.items() if vote == b"ok"]
        if len(ok) < self.node.config.quorum:
            raise _Refused()
        if len(self._nonzero_targets()) > 1:
            self.session.abort("consent targets differ")
        return ok


def _key_record(rec: dict) -> KeyShareRecord:
    """A line of keys.jsonl, as `PartyNode.store_key_record` writes it."""
    return KeyShareRecord(rec["member"], Share.from_bytes(bytes.fromhex(rec["share"])),
                          GroupPoint.from_bytes(bytes.fromhex(rec["pk"])),
                          bytes.fromhex(rec["epoch"]))


def _member_entry(rec: dict) -> tuple[str, GroupPoint]:
    """A line of members.jsonl, as `PartyNode.register_member` writes it."""
    return rec["member"], GroupPoint.from_bytes(bytes.fromhex(rec["pk"]))


def _ticket(rec: dict) -> InterventionTicket:
    """A line of tickets.jsonl, as `PartyNode._store_ticket` writes it."""
    return InterventionTicket(rec["ticket_id"], rec["member"], Action[rec["action"]],
                              rec["reason"], rec["created_at"],
                              [bytes.fromhex(b) for b in rec["payloads"]],
                              rec["approved"], rec["completed"])


class PartyNode:
    """One RIR node: stores, registries, audit log, and durable state.

    All state lives under `data_dir`, written through `_write_file` and
    `_append_line`, and is read back on construction.  Revocations have no
    store of their own: `revoked_serials` reads them off the published CRL
    objects.  The node is the only writer of its records: a phase returns a
    key record for `store_key_record`.
    """

    def __init__(self, party_id: int, config: ProtocolConfig,
                 data_dir: str, epoch: bytes,
                 clock: Callable[[], float] = time.time,
                 policy: Optional[ConsentPolicy] = None) -> None:
        self.party_id = party_id
        self.config = config
        self.policy = policy or ConsentPolicy()
        self.epoch = epoch
        self.clock = clock
        self.dir = Path(data_dir)
        (self.dir / "objects").mkdir(parents=True, exist_ok=True)

        self.tuple_store = TupleStore(str(self.dir), party_id, epoch)
        self.key_records: dict[str, KeyShareRecord] = {}
        self.mac_key: Optional[MacKeyShare] = None
        self.member_registry: dict[str, GroupPoint] = {}
        self.consent_inbox: dict[str, ConsentToken] = {}
        self.objects: dict[str, SignedObject] = {}  # filename -> object
        self.tickets: dict[str, InterventionTicket] = {}
        self.retired_epochs: set[bytes] = set()
        self.tainted_epochs: set[bytes] = set()
        self.audit_seq = 0
        self.rng: Optional[random.Random] = None
        self.triple_source = None
        self._lock = threading.Lock()
        self._load()

    # -- persistence --------------------------------------------------------

    def _load(self) -> None:
        # a file or a line that does not decode stops the load, naming it
        _read_file(self.dir / "state.json", self._take_state)
        self.key_records = {rec.member_id: rec for rec in
                            _read_records(self.dir / "keys.jsonl", _key_record)}
        # a later line of a member wins
        self.member_registry = dict(_read_records(self.dir / "members.jsonl", _member_entry))
        self.tickets = {ticket.ticket_id: ticket for ticket in
                        _read_records(self.dir / "tickets.jsonl", _ticket)}
        # a manifest line, "name digest" pairs, is a batch's commit point: an
        # object file no whole line lists belongs to a batch cut off before
        # its line was appended
        listed = dict.fromkeys(
            name for line in _read_text(self.dir / "objects" / "manifest.txt")
            for name in line.split()[::2])
        for name in listed:
            path = self.dir / "objects" / name
            try:
                self.objects[name] = SignedObject.from_bytes(path.read_bytes())
            except ValidationError as exc:
                raise RecordError(f"{path} does not decode: {exc!r}") from exc
        self.audit_seq = len(_read_lines(self.dir / "audit.jsonl"))

    def _take_state(self, blob: dict) -> None:
        """Take in state.json, as `_save_state` writes it."""
        self.retired_epochs = {bytes.fromhex(e) for e in blob.get("retired", [])}
        self.tainted_epochs = {bytes.fromhex(e) for e in blob.get("tainted", [])}
        if blob.get("mac_alpha"):
            self.mac_key = MacKeyShare(self.party_id, FieldElement(int(blob["mac_alpha"], 16)))

    def _save_state(self) -> None:
        blob = {
            "retired": [e.hex() for e in sorted(self.retired_epochs)],
            "tainted": [e.hex() for e in sorted(self.tainted_epochs)],
            "mac_alpha": f"{self.mac_key.alpha_i.value:x}" if self.mac_key else None,
        }
        _write_file(self.dir / "state.json", json.dumps(blob))

    def _store_ticket(self, ticket: InterventionTicket) -> None:
        """The one writer of `tickets`: a new ticket or a new state of one."""
        with self._lock:
            _append_line(self.dir / "tickets.jsonl", {
                "ticket_id": ticket.ticket_id,
                "member": ticket.member_id,
                "action": ticket.action.name,
                "reason": ticket.reason,
                "created_at": ticket.created_at,
                "payloads": [b.hex() for b in ticket.payload_blobs],
                "approved": ticket.approved,
                "completed": ticket.completed,
            })
            self.tickets[ticket.ticket_id] = ticket

    def audit(self, event: str, **fields) -> None:
        """Append one audit entry; logical sequence numbers keep logs replayable."""
        with self._lock:
            _append_line(self.dir / "audit.jsonl",
                         {"seq": self.audit_seq + 1, "event": event, **fields})
            self.audit_seq += 1

    def audit_lines(self) -> list[str]:
        with self._lock:
            return _read_text(self.dir / "audit.jsonl")

    # -- registries ----------------------------------------------------------
    #
    # Each record is appended to its file under the node lock first and
    # enters memory after, so a failed append leaves the live node holding
    # what its disk holds.

    def register_member(self, member_id: str, consent_pk: GroupPoint) -> None:
        if consent_pk.is_identity():
            raise ValidationError("a consent key must not be the identity point")
        with self._lock:
            _append_line(self.dir / "members.jsonl",
                         {"member": member_id, "pk": consent_pk.to_bytes().hex()})
            self.member_registry[member_id] = consent_pk

    def submit_consent(self, token: ConsentToken) -> None:
        self.consent_inbox[token.member_id] = token

    def store_key_record(self, record: KeyShareRecord) -> None:
        """The one writer of `key_records`."""
        with self._lock:
            _append_line(self.dir / "keys.jsonl", {
                "member": record.member_id,
                "share": record.sk_share.to_bytes().hex(),
                "pk": record.pk.to_bytes().hex(),
                "epoch": record.epoch.hex(),
            })
            self.key_records[record.member_id] = record

    def refusal(self) -> Optional[str]:
        """Why this node refuses every phase op on its epoch, or None."""
        if self.epoch in self.retired_epochs:
            return "epoch retired after a failed authentication check"
        if self.epoch in self.tainted_epochs and not self.config.test_mode:
            return "epoch tainted by test-mode reconstruction"
        return None

    # -- protocol phases -------------------------------------------------------

    def open_session(self, session_id: int, phase: int, participants: Sequence[int],
                     endpoint, timeout: float) -> PartySession:
        return PartySession(
            party_id=self.party_id,
            participants=participants,
            session_id=session_id,
            phase=phase,
            endpoint=endpoint,
            scheme=self.config.scheme,
            t=self.config.t,
            timeout=timeout,
            mac_key=self.mac_key,
            rng=self.rng,
            epoch=self.epoch,
        )

    def run(self, op: dict, session: PartySession):
        """Run this party's side of one phase op over an open session.

        `op` is the JSON dict of serve's control frames.  Returns the phase
        result: the key record, the new tuples, one SignResult per message
        of the `sign` op's "messages" list, in order, or the `request` op's
        SignOutcome.  A retired or tainted epoch is refused here, before
        anything is sent: a `request` op returns an audited aborted outcome,
        any other op raises TecdsaError.  Only this node's own failed MAC
        check retires its epoch, never a peer's abort; a `request` op that
        aborts returns an aborted outcome too.
        """
        reason = self.refusal()
        if reason is None:
            try:
                return self._run(op, session)
            except ProtocolAbort as exc:
                if session.mac_failed:
                    self.retired_epochs.add(self.epoch)
                    self._save_state()
                    self.audit("epoch_retired", epoch=self.epoch.hex())
                if op["op"] != "request":
                    raise
                reason = str(exc)
        elif op["op"] != "request":
            raise TecdsaError(reason)
        self.audit("sign_aborted", member=op["member"], reason=reason)
        return SignOutcome("aborted", reason=reason)

    def _run(self, op: dict, session: PartySession):
        name = op["op"]
        if name == "keygen":
            member_id = op["member"]
            if member_id in self.key_records:
                raise TecdsaError(f"member {member_id!r} already has a live key")
            record = keygen(self, session, member_id)
            self.store_key_record(record)
            self.audit("keygen", member=member_id, pk=record.pk.to_bytes().hex())
            return record
        if name == "preprocess-independent":
            return preprocess_independent(self, session, op["count"])
        if name == "preprocess-dependent":
            return preprocess_dependent(self, session, op["member"], op["count"])
        if name == "sign":
            return sign_online(self, session, op["member"],
                               [bytes.fromhex(m) for m in op["messages"]])
        if name == "request":
            return self._request(op, session)
        raise TecdsaError(f"unknown op {name!r}")

    def _request(self, op: dict, session: PartySession) -> SignOutcome:
        member_id, action = op["member"], Action[op["action"]]
        initiator, ticket_id = op["initiator"], op.get("ticket")
        gate = _RequestGate(self, op, session)
        try:
            sign_results = sign_online(self, session, member_id, gate=gate)
        except _Refused:
            # the agreed tuples are journaled already: the refusal burns them
            reason = ("ticket-unapproved" if ticket_id is not None
                      else "consent-missing" if gate.votes.get(initiator) == b"missing"
                      else "consent-invalid")
            if (ticket_id is None and self.policy.flag_on_failed_consent
                    and action in self.policy.flag_eligible):
                ticket_id = hashlib.sha256(
                    gate.digest.encode() + member_id.encode()
                ).hexdigest()[:16]
                self._store_ticket(InterventionTicket(ticket_id, member_id, action, reason,
                                                      self.clock(), gate.blobs))
                self.audit("ticket_created", ticket=ticket_id, reason=reason)
                return SignOutcome("flagged", ticket_id=ticket_id, reason=reason)
            self.audit("sign_aborted", member=member_id, digest=gate.digest, reason=reason)
            return SignOutcome("aborted", reason=reason)

        pk = self.key_records[member_id].pk
        objects = [SignedObject(PayloadKind(blob[0]), blob, result.signature, pk)
                   for blob, result in zip(gate.blobs, sign_results)]
        self.publish_batch(objects, ticket_id=ticket_id)
        if ticket_id is None:
            self.consent_inbox.pop(member_id, None)
        else:
            self._store_ticket(replace(self.tickets[ticket_id], completed=True))
            self.audit("ticket_completed", ticket=ticket_id)
        return SignOutcome("published", objects=objects,
                           ticket_id=ticket_id, sign_results=sign_results)

    # -- driving a request ------------------------------------------------------

    def request(self, dispatch: Callable[[dict], object], member_id: str, action: Action,
                blobs: Sequence[bytes], ticket_id: Optional[str] = None) -> SignOutcome:
        """Drive one `request` op, refilling first if this node's own final
        stock for the member cannot cover it; a peer short of stock shows
        only in its round-1 tag, which ends the op."""
        if not blobs:
            return SignOutcome("aborted", reason="empty request")
        if member_id not in self.key_records:
            return SignOutcome("aborted", reason="no signing key for member")
        # a node that refuses its epoch refuses the op itself, and cannot refill
        if self.refusal() is None and self.tuple_store.final_stock(member_id) < len(blobs):
            self.replenish(dispatch, member_id, len(blobs))
        return dispatch({"op": "request", "member": member_id, "action": action.name,
                         "payloads": [b.hex() for b in blobs], "initiator": self.party_id,
                         "ticket": ticket_id})

    def replenish(self, dispatch: Callable[[dict], object], member_id: Optional[str] = None,
                  need: int = 0) -> dict:
        """Refill preprocessing stock below the low watermark, with backoff.

        The node's policy sets the watermark and the batch, each raised to
        `need` so that a refill covers a request of that many payloads.  The
        watermark is held against this node's own counts, for `member_id` or
        else every member it holds a key for.  Phase 2 sends no frame, so
        only phase 3 is retried, up to 3 attempts, when it aborts or runs
        short of initial tuples.  An aborted phase-3 batch has burned its
        initial tuples, and so may a realign round, so initial stock is
        topped up to a batch before every attempt.
        """
        watermark = max(self.policy.low_watermark, need)
        batch = max(self.policy.batch_size, need)
        made = {"initial": 0, "final": 0}
        short = [m for m in ([member_id] if member_id else sorted(self.key_records))
                 if self.tuple_store.final_stock(m) < watermark]

        def top_up(count: int) -> None:
            if self.tuple_store.initial_stock() < count:
                made["initial"] += len(dispatch({"op": "preprocess-independent", "count": count}))

        top_up(watermark + batch * len(short))
        for m in short:
            for attempt in range(3):
                try:
                    top_up(batch)
                    made["final"] += len(dispatch(
                        {"op": "preprocess-dependent", "member": m, "count": batch}))
                    break
                except (ProtocolAbort, StockDepletedError) as exc:
                    failure = exc
                    time.sleep(0.01 * 2 ** attempt)
            else:
                raise TecdsaError(f"replenishment failed after 3 attempts: {failure}")
        return made

    def pending_ticket(self, ticket_id: str) -> InterventionTicket:
        """This node's copy of a ticket that is still to complete."""
        ticket = self.tickets.get(ticket_id)
        if ticket is None:
            raise TecdsaError(f"unknown ticket {ticket_id}")
        if ticket.completed:
            raise TecdsaError(f"ticket {ticket_id} already completed")
        return ticket

    def approve_ticket(self, ticket_id: str) -> None:
        """Record this party's manual approval of a flagged request."""
        ticket = self.tickets.get(ticket_id)
        if ticket is None:
            raise TecdsaError(f"unknown ticket {ticket_id}")
        if not ticket.approved:
            self._store_ticket(replace(ticket, approved=True))
            self.audit("ticket_approved", ticket=ticket_id)

    # -- publication -----------------------------------------------------------

    def object_filename(self, obj: SignedObject) -> str:
        record = obj.record()
        if isinstance(record, CrlRecord):
            # two CRLs of one issuer may share this_update; the digest keeps
            # both.  The issuer id is free text: percent-encoded, it can hold
            # no space, which splits manifest lines, and no path separator
            issuer = quote(record.issuer_id, safe="")
            return f"crl-{issuer}-{record.this_update}-{obj.digest.hex()[:16]}.obj"
        return f"{obj.payload_kind.name.lower()}-{record.serial}.obj"

    def publish_batch(self, objects: Sequence[SignedObject],
                      ticket_id: Optional[str] = None) -> None:
        """Atomically publish a batch: all files, then the manifest line that
        commits them, then one audit entry.

        The batch's line lists its `name digest` pairs and is appended, so a
        publish costs the same however many objects the node holds; a torn
        line is cut off on load, taking the whole batch with it.  The node
        lock orders concurrent batches."""
        with self._lock:
            batch = {self.object_filename(obj): obj for obj in objects}
            for name, obj in batch.items():
                _write_file(self.dir / "objects" / name, obj.to_bytes())
            _append_line(self.dir / "objects" / "manifest.txt", " ".join(
                f"{name} {obj.digest.hex()}" for name, obj in batch.items()))
            self.objects.update(batch)
        self.audit("published", digests=[obj.digest.hex() for obj in objects], ticket=ticket_id)

    def revoked_serials(self) -> set[int]:
        """The union of the serials the published CRL objects revoke."""
        with self._lock:
            crls = [obj for obj in self.objects.values()
                    if obj.payload_kind is PayloadKind.CRL]
        return {serial for obj in crls for serial in obj.record().revoked_serials}

    def export_tal(self, trust_anchor_member: str = "#ta") -> TrustAnchorLocator:
        record = self.key_records.get(trust_anchor_member)
        if record is None:
            raise TecdsaError(f"no trust anchor key at party {self.party_id}")
        return TrustAnchorLocator(f"rsync://rir{self.party_id}.example/repository/", record.pk)

    def close(self) -> None:
        self.tuple_store.close()


# the ops that draw from the dealer, or offer initial ids: see `_dealer_lock`
_DEALER_OPS = ("keygen", "preprocess-independent", "preprocess-dependent")

# what the parties' results of an op must agree on, and the abort if not
_AGREEMENT = {
    "keygen": (lambda r: r.pk.to_bytes(), "public key disagreement"),
    "sign": (lambda rs: tuple(r.signature.to_bytes() for r in rs), "signature disagreement"),
    "request": (lambda o: (o.status, o.ticket_id, tuple(obj.to_bytes() for obj in o.objects)),
                "outcome disagreement"),
}


class LocalCluster:
    """Five RIR nodes over the in-process transport, as a harness: it builds
    the nodes, runs each op on a thread per node, checks that the nodes'
    results agree, and picks the node that drives each request.

    Node K keeps its state under `data_dir/partyK`, and cluster.json holds the
    pair secret, epoch and boot count.  Without a data_dir the cluster uses a
    throwaway directory, removed by `close()`.

    With a seed, every sampling source is derived deterministically, so two
    runs of the same scenario produce byte-identical audit logs and signed
    objects (zero-latency transport assumed).
    """

    def __init__(
        self,
        config: ProtocolConfig,
        data_dir: Optional[str] = None,
        seed: Optional[int] = None,
        latency_ms: Optional[dict] = None,
        participants: Optional[Sequence[int]] = None,
        policy: Optional[ConsentPolicy] = None,
        timeout: float = 10.0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.config = config
        self.policy = policy or ConsentPolicy()
        self.timeout = timeout
        self.clock = clock
        self._throwaway_dir = (tempfile.TemporaryDirectory(prefix="drpki-")
                               if data_dir is None else None)
        self.data_dir = Path(data_dir if data_dir is not None else self._throwaway_dir.name)
        self.participants = sorted(participants) if participants else list(range(1, config.n + 1))
        self.n_live = len(self.participants)

        pair_secret, epoch, boots = self._load_or_create_cluster_state(seed)
        self.epoch = epoch
        self.pair_keys = derive_pair_keys(pair_secret, config.n, epoch)
        # each boot counts sessions in its own 2^32 block, so a reopened
        # data_dir never reissues an earlier boot's session ids; next() on a
        # count is one C call, so two concurrent ops never share an id
        first_session = (boots << 32) + 1
        self._session_ids = itertools.count(first_session)
        self.hub = InProcessHub(self.pair_keys, latency_ms, first_session=first_session)

        seeded = seed is not None
        # the dealer stream is salted with the boot count so a restart can
        # never replay tuple ids that an earlier boot already persisted
        self._dealer_rng = (
            random.Random(_derive_seed(seed, f"dealer-boot{boots}")) if seeded else None
        )

        self.nodes: dict[int, PartyNode] = {}
        for party in self.participants:
            node = PartyNode(party, config, str(self.data_dir / f"party{party}"),
                             self.epoch, clock, self.policy)
            node.rng = random.Random(_derive_seed(seed, f"party{party}")) if seeded else None
            self.nodes[party] = node

        # MAC key shares are epoch material: restarts reuse the persisted
        # shares, and the dealer must authenticate under exactly those.
        mac_keys = None
        if config.scheme.has_mac:
            mac_rng = random.Random(_derive_seed(seed, "mac")) if seeded else None
            fresh = {mk.owner: mk for mk in generate_mac_keys(config.n, mac_rng)}
            mac_keys = []
            for party in self.participants:
                node = self.nodes[party]
                if node.mac_key is None:
                    node.mac_key = fresh[party]
                    node._save_state()
                mac_keys.append(node.mac_key)

        self.dealer = TrustedDealer(config.scheme, self.n_live, config.t, self._dealer_rng,
                                    mac_keys, owners=self.participants)
        for party in self.participants:
            self.nodes[party].triple_source = self.dealer.queues[party]

        self._member_locks: dict[str, threading.Lock] = {}
        self._member_locks_guard = threading.Lock()
        # Keygen (its mask, under every scheme) and phase 2 pop each party's
        # own dealer queue, so two at once could pair different items at
        # different parties.  Phase 3 draws none, but two unserialised
        # batches (for two members) each offer the lowest live initial ids,
        # which can overlap at different parties and burn in a realign; that
        # is argued from the code, as six seeded LAN-latency trials of two
        # concurrent unlocked `mal-shamir` batches burned nothing.
        self._dealer_lock = threading.Lock()
        # the initiator rotates over the live parties, request by request
        self._rotation = itertools.count()

    # -- setup helpers ----------------------------------------------------------

    def _load_or_create_cluster_state(self, seed) -> tuple[bytes, bytes, int]:
        self.data_dir.mkdir(parents=True, exist_ok=True)
        state = self.data_dir / "cluster.json"
        blob = _read_file(state, dict)
        if blob is None:
            if seed is not None:
                setup_rng = random.Random(_derive_seed(seed, "setup"))
                pair_secret = setup_rng.getrandbits(256).to_bytes(32, "big")
                epoch = setup_rng.getrandbits(128).to_bytes(16, "big")
            else:
                pair_secret, epoch = secrets.token_bytes(32), secrets.token_bytes(16)
            blob = {"pair_secret": pair_secret.hex(), "epoch": epoch.hex(), "boots": 0}
        blob["boots"] = blob.get("boots", 1) + 1
        _write_file(state, json.dumps(blob))
        return bytes.fromhex(blob["pair_secret"]), bytes.fromhex(blob["epoch"]), blob["boots"]

    def _member_lock(self, member_id: str) -> threading.Lock:
        with self._member_locks_guard:
            return self._member_locks.setdefault(member_id, threading.Lock())

    # -- phase runner -------------------------------------------------------------

    def _run_phase(self, phase: int, fn, timeout: Optional[float] = None):
        """Execute fn(node, session) on every live party, one thread per party,
        then drop the session's mailboxes: no frame of it is sent after that."""
        if self.n_live < self.config.quorum:
            raise SessionAbort("party unavailable")
        session_id = next(self._session_ids)
        timeout = timeout if timeout is not None else self.timeout
        results: dict[int, object] = {}
        errors: dict[int, BaseException] = {}

        def runner(party: int) -> None:
            node = self.nodes[party]
            session = node.open_session(session_id, phase, self.participants,
                                        self.hub.endpoint(party), timeout)
            try:
                results[party] = fn(node, session)
            except BaseException as exc:  # collected and re-raised below
                errors[party] = exc

        threads = [threading.Thread(target=runner, args=(p,), daemon=True)
                   for p in self.participants]
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        finally:
            # every issued id is dropped, or the inboxes' watermark stalls
            self.hub.drop(session_id)

        if errors:
            raise self._root_error(errors)
        return results

    def _run_op(self, op: dict) -> dict:
        """Run one `PartyNode.run` op on every live party, in the op's phase."""
        return self._run_phase(OP_PHASES[op["op"]], lambda node, s: node.run(op, s))

    @staticmethod
    def _root_error(errors: dict[int, BaseException]) -> BaseException:
        """A party's own error, before one that only reports a peer's abort."""
        return min(errors.values(),
                   key=lambda e: isinstance(e, SessionAbort) and str(e).startswith("peer "))

    def _dispatch(self, driver: Optional[PartyNode] = None) -> Callable[[dict], object]:
        """The `dispatch` of `driver`, by default the first live party: run
        the op at every live party, check that their results agree, and
        return the driver's."""
        driver = driver or self.nodes[self.participants[0]]

        def dispatch(op: dict):
            with self._dealer_lock if op["op"] in _DEALER_OPS else contextlib.nullcontext():
                results = self._run_op(op)
            if op["op"] in _AGREEMENT:
                fingerprint, disagreement = _AGREEMENT[op["op"]]
                if len({fingerprint(r) for r in results.values()}) != 1:
                    raise ProtocolAbort(disagreement)
            return results[driver.party_id]

        return dispatch

    def _next_driver(self) -> PartyNode:
        return self.nodes[self.participants[next(self._rotation) % self.n_live]]

    # -- protocol phases ------------------------------------------------------------

    def keygen(self, member_id: str) -> GroupPoint:
        return self._dispatch()({"op": "keygen", "member": member_id}).pk

    def preprocess_independent(self, count: int) -> int:
        return len(self._dispatch()({"op": "preprocess-independent", "count": count}))

    def preprocess_dependent(self, member_id: str, count: int) -> int:
        return len(self._dispatch()(
            {"op": "preprocess-dependent", "member": member_id, "count": count}))

    def run_signing(self, member_id: str, message: bytes | Sequence[bytes]):
        """The pure cryptographic online phase (consent checks live upstream).

        `message` is one message, which returns its SignResult, or a list of
        messages, all signed in one session, which returns their SignResults
        in order.
        """
        single = isinstance(message, bytes)
        messages = [message] if single else list(message)
        results = self._dispatch()(
            {"op": "sign", "member": member_id, "messages": [m.hex() for m in messages]})
        return results[0] if single else results

    # -- stock views: the least any node holds, read by no decision -------------

    def initial_stock(self) -> int:
        return min(n.tuple_store.initial_stock() for n in self.nodes.values())

    def final_stock(self, member_id: str) -> int:
        return min(n.tuple_store.final_stock(member_id) for n in self.nodes.values())

    def replenish(self, member_id: Optional[str] = None) -> dict:
        """`PartyNode.replenish`, driven by the first live party."""
        driver = self.nodes[self.participants[0]]
        return driver.replenish(self._dispatch(driver), member_id)

    # -- consent-gated signing workflow --------------------------------------------

    def submit_consent(self, token: ConsentToken) -> None:
        for node in self.nodes.values():
            node.submit_consent(token)

    def register_member(self, member_id: str, consent_pk: GroupPoint) -> None:
        """Register on every node, even past one whose append fails, then
        raise the first failure; a later call converges, as a later line wins."""
        errors: list[OSError] = []
        for node in self.nodes.values():
            try:
                node.register_member(member_id, consent_pk)
            except OSError as exc:
                errors.append(exc)
        if errors:
            raise errors[0]

    def handle_sign_request(self, request: SignRequest) -> SignOutcome:
        with self._member_lock(request.member_id):
            if request.consent is not None:
                self.submit_consent(request.consent)
            return self._request(request.member_id, request.action,
                                 [encode_canonical(rec) for rec in request.payloads])

    def _request(self, member_id: str, action: Action, blobs: list[bytes],
                 ticket_id: Optional[str] = None) -> SignOutcome:
        """`PartyNode.request`, driven by the next node in the rotation."""
        driver = self._next_driver()
        return driver.request(self._dispatch(driver), member_id, action, blobs, ticket_id)

    # -- intervention tickets ----------------------------------------------------

    def approve_ticket(self, ticket_id: str, party: int) -> int:
        if party not in self.nodes:
            raise TecdsaError(f"party {party} is not a live party")
        self.nodes[party].approve_ticket(ticket_id)
        return self.ticket_approvals(ticket_id)

    def ticket_approvals(self, ticket_id: str) -> int:
        return sum(1 for node in self.nodes.values()
                   if ticket_id in node.tickets and node.tickets[ticket_id].approved)

    def complete_ticket(self, ticket_id: str) -> SignOutcome:
        """Finish a flagged request once a quorum of approvals is recorded.

        The approval count is the operator's check; the nodes' votes, each
        on its own ticket copy, decide."""
        approvals = self.ticket_approvals(ticket_id)
        if approvals < self.config.quorum:
            raise TecdsaError(f"ticket {ticket_id} has {approvals} approvals, "
                              f"needs {self.config.quorum}")
        driver = self._next_driver()
        ticket = driver.pending_ticket(ticket_id)
        with self._member_lock(ticket.member_id):
            return driver.request(self._dispatch(driver), ticket.member_id, ticket.action,
                                  ticket.payload_blobs, ticket_id)

    # -- test-mode reconstruction ---------------------------------------------------

    def _require_test_mode(self) -> None:
        if not self.config.test_mode:
            raise TecdsaError("reconstruction requires an explicit test-mode config")
        for node in self.nodes.values():
            node.tainted_epochs.add(self.epoch)
            node._save_state()

    def test_reconstruct_sk(self, member_id: str):
        self._require_test_mode()
        shares = [node.key_records[member_id].sk_share for node in self.nodes.values()]
        return open_shares(shares, self.n_live, self.config.t)

    def test_reconstruct_k(self, tuple_id: bytes):
        self._require_test_mode()
        shares = []
        for node in self.nodes.values():
            record = node.tuple_store.initial_record(tuple_id)
            if record is None:
                raise TecdsaError("unknown tuple id")
            shares.append(record.k_inv_share)
        return open_shares(shares, self.n_live, self.config.t).inv()

    # -- misc -----------------------------------------------------------------------

    def close(self) -> None:
        for node in self.nodes.values():
            node.close()
        if self._throwaway_dir is not None:
            self._throwaway_dir.cleanup()


def verify_audit_completeness(cluster: LocalCluster) -> bool:
    """Replay audit logs: every published object digest must be covered, at a
    quorum of parties, by an ok consent verdict over that exact object or by
    a completed intervention ticket.  Each node's log is parsed once."""
    published: set[str] = set()
    coverage: Counter = Counter()
    for node in cluster.nodes.values():
        published.update(obj.digest.hex() for obj in node.objects.values())
        events = [json.loads(line) for line in node.audit_lines()]
        consented = {d for e in events if e["event"] == "consent_verdict" and e["verdict"] == "ok"
                     for d in e.get("objects", ())}
        completed = {e["ticket"] for e in events if e["event"] == "ticket_completed"}
        # a ticket's batch is covered if the ticket completed, any other
        # object if an ok verdict named it
        coverage.update({d for e in events if e["event"] == "published" for d in e["digests"]
                         if (e["ticket"] in completed if e.get("ticket") else d in consented)})
    return all(coverage[digest] >= cluster.config.quorum for digest in published)
