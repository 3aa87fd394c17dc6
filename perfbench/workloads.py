"""Seeded inputs, set-up, operations and output checks of the three workloads.

The workload seed drives only the generated inputs: the request stream,
member consent keys, EE keys and serials.  Clusters run unseeded (OS
entropy), which is the production path.  A run is split into LIFETIMES
service lifetimes; each sets up a fresh durable cluster (timed as set-up),
serves its share of the timed window, and is then checked and closed.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from datetime import date, datetime, timezone
from itertools import count
from pathlib import Path
from typing import Iterator, Optional

from drpki.algebra import KeyPair, ecdsa_verify
from drpki.bench import WAN_RTT_MS, one_way_delays
from drpki.rpki import (
    Action,
    CrlRecord,
    IpPrefix,
    RoaRecord,
    encode_canonical,
    plan_transfer,
    sign_consent,
)
from drpki.runtime import (
    ConsentPolicy,
    LocalCluster,
    SignRequest,
    verify_audit_completeness,
)
from drpki.sharing import SchemeId
from drpki.tecdsa import ProtocolConfig

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "churn_90d"

LIFETIMES = 3
EXPIRY = 4_102_444_800  # 2100-01-01 UTC: consent tokens outlive any run
DAY_S = 86_400
ROA_VALIDITY_S = 365 * DAY_S


# --- churn fixture -----------------------------------------------------------

@dataclass(frozen=True)
class Change:
    """One day-over-day change of the churn fixture."""

    day: date
    added: bool
    asn: int
    prefix: str
    maxlen: int
    member: str


def load_changes() -> list[Change]:
    """Time-ordered changes between consecutive non-empty daily listings.

    ROA identity is (asn, prefix, maxlen, member), as in
    drpki.analysis.roa_identity.  An empty listing is skipped: the churn
    analyzer flags it as an anomalous archive wipe, not as real churn.
    """
    snapshots = []
    for path in sorted(FIXTURE.glob("*.csv")):
        rows = set()
        for line in path.read_text().splitlines():
            parts = line.strip().split(",")
            if len(parts) == 6:
                _day, _rir, asn, prefix, maxlen, member = parts
                rows.add((int(asn), prefix, int(maxlen), member))
        if rows:
            snapshots.append((date.fromisoformat(path.stem), rows))
    changes = []
    for (_, before), (day, after) in zip(snapshots, snapshots[1:]):
        changes += [Change(day, False, *row) for row in sorted(before - after)]
        changes += [Change(day, True, *row) for row in sorted(after - before)]
    return changes


def _day_ts(day: date) -> int:
    return int(datetime(day.year, day.month, day.day, tzinfo=timezone.utc).timestamp())


class _Members:
    """Seeded consent and EE keys per member, made on first use."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._keys: dict[str, tuple[KeyPair, KeyPair]] = {}

    def keys(self, member: str) -> tuple[KeyPair, KeyPair]:
        if member not in self._keys:
            rng = random.Random(f"{self.seed}:member:{member}")
            self._keys[member] = (KeyPair.generate(rng), KeyPair.generate(rng))
        return self._keys[member]

    def consent(self, member: str) -> KeyPair:
        return self.keys(member)[0]

    def ee_pk(self, member: str):
        return self.keys(member)[1].pk


# --- lifetimes and operations ------------------------------------------------

@dataclass
class Lifetime:
    """Inputs of one service lifetime; `streams` has one list per client."""

    members: list[str]
    streams: list[list]
    consent_keys: dict = field(default_factory=dict)  # member -> public key


@dataclass
class Service:
    cluster: LocalCluster
    member_pks: dict  # member -> threshold public key


@dataclass
class Record:
    """One operation of a timed window."""

    rid: str
    client: int
    op: object
    latency_s: float = 0.0
    units: int = 0
    result: object = None
    error: Optional[str] = None
    traced: bool = False
    finished: float = 0.0  # perf_counter() when the operation returned


class Workload:
    name = ""
    scheme = SchemeId.SHAMIR_CHECKED
    wan = False
    clients = 1
    unit = "signature"
    op_label = "request"
    op_plural = "requests"
    min_ops = 0  # operations a lifetime's window serves even past its deadline

    def config(self) -> ProtocolConfig:
        return ProtocolConfig.for_scheme(self.scheme)

    def latency(self) -> Optional[dict]:
        return one_way_delays(WAN_RTT_MS) if self.wan else None

    def new_cluster(self, data_dir: Path) -> LocalCluster:
        """A fresh durable cluster under the default ConsentPolicy."""
        return LocalCluster(self.config(), data_dir=str(data_dir),
                            latency_ms=self.latency(),
                            timeout=60.0 if self.wan else 10.0)

    def lifetimes(self, seed: int, window_s: float) -> list[Lifetime]:
        raise NotImplementedError

    def setup(self, data_dir: Path, life: Lifetime) -> Service:
        raise NotImplementedError

    def ops(self, life: Lifetime) -> list[Iterator]:
        return [iter(stream) for stream in life.streams]

    def execute(self, svc: Service, op) -> tuple[object, int]:
        """Run one operation; return (result, units completed)."""
        svc.cluster.submit_consent(op.consent)
        outcome = svc.cluster.handle_sign_request(op)
        return outcome, len(outcome.objects) if outcome.status == "published" else 0

    def check_op(self, svc: Service, rec: Record) -> Optional[str]:
        return check_request(svc, rec.op, rec.result)

    def check_lifetime(self, svc: Service, records: list[Record]) -> Optional[str]:
        return check_published_state(svc.cluster)

    def stock_left(self, svc: Service) -> int:
        return sum(svc.cluster.final_stock(m) for m in svc.member_pks)

    def describe(self) -> dict:
        return {"scheme": self.config().scheme.name, "clients": self.clients,
                "network": "wan-sim" if self.wan else "lan", "durable": True,
                "policy": _policy_record(ConsentPolicy()),
                "one_way_delay_ms": ({f"{a}-{b}": v for (a, b), v
                                      in sorted(self.latency().items())}
                                     if self.wan else None)}


def _policy_record(policy: ConsentPolicy) -> dict:
    return {**asdict(policy), "flag_eligible": [a.name for a in policy.flag_eligible]}


def provision_requests(cluster: LocalCluster, members: list[str],
                       consent_keys: dict, need: dict) -> dict:
    """Keygen, consent-key registration and final stock for every member."""
    cluster.preprocess_independent(sum(need.values()))
    pks = {}
    for member in members:
        pks[member] = cluster.keygen(member)
        cluster.register_member(member, consent_keys[member])
        cluster.preprocess_dependent(member, need[member])
    return pks


# --- output checks -------------------------------------------------------------

def check_request(svc: Service, request: SignRequest, outcome) -> Optional[str]:
    """Published, every object verifies under the member key, every party holds it."""
    if outcome.status != "published":
        return f"{outcome.status}: {outcome.reason}"
    if len(outcome.objects) != len(request.payloads):
        return "object count differs from payload count"
    pk = svc.member_pks[request.member_id]
    nodes = list(svc.cluster.nodes.values())
    for obj, record in zip(outcome.objects, request.payloads):
        if obj.payload != encode_canonical(record):
            return "published payload differs from the request"
        if obj.signer_pk != pk or not obj.verify():
            return "signature does not verify under the member key"
        name = nodes[0].object_filename(obj)
        for node in nodes:
            held = node.objects.get(name)
            if held is None or held.digest != obj.digest:
                return f"party {node.party_id} lacks {name}"
    return None


def check_published_state(cluster: LocalCluster) -> Optional[str]:
    """All parties hold identical object digests; audit logs cover every one."""
    views = {
        node.party_id: {name: obj.digest for name, obj in node.objects.items()}
        for node in cluster.nodes.values()
    }
    first = next(iter(views.values()))
    for party, view in views.items():
        if view != first:
            return f"party {party} object digests differ"
    if not verify_audit_completeness(cluster):
        return "audit logs incomplete"
    return None


# --- churn-lan -----------------------------------------------------------------

class ChurnLan(Workload):
    """Replays a seeded, time-ordered sample of the fixture's daily changes."""

    name = "churn-lan"
    scheme = SchemeId.SHAMIR_CHECKED
    # requests provisioned per second of window: a 2-core Xeon under
    # Python 3.11 serves about 5.5/s; a lifetime ends early once its stream
    # is used up, so a faster service only shortens the window
    provision_per_s = 7.5
    # 3 x 34 = 102 pooled requests keep at least ten beyond p90 on a slow host
    min_ops = 34

    def lifetimes(self, seed: int, window_s: float) -> list[Lifetime]:
        changes = load_changes()
        per_life = max(2, math.ceil(window_s * self.provision_per_s))
        rng = random.Random(seed)
        picked = sorted(rng.sample(range(len(changes)), per_life * LIFETIMES))
        keys = _Members(seed)
        serials = _Serials(rng)
        out = []
        for k in range(LIFETIMES):
            stream = [
                self.request(changes[i], i, keys, serials, rng)
                for i in picked[k * per_life:(k + 1) * per_life]
            ]
            members = list(dict.fromkeys(r.member_id for r in stream))
            out.append(Lifetime(members, [stream],
                                {m: keys.consent(m).pk for m in members}))
        return out

    @staticmethod
    def request(change: Change, index: int, keys: _Members, serials: "_Serials",
                rng: random.Random) -> SignRequest:
        ts = _day_ts(change.day)
        if change.added:
            action = Action.ISSUE
            record = RoaRecord(
                serial=serials.next(), member_id=change.member, asn=change.asn,
                prefixes=(IpPrefix.parse(change.prefix, change.maxlen),),
                not_before=ts, not_after=ts + ROA_VALIDITY_S,
                ee_pk=keys.ee_pk(change.member),
            )
        else:
            # the removed ROA was issued before the replay window started
            action = Action.REVOKE
            record = CrlRecord(change.member, ts + index, (serials.next(),))
        token = sign_consent(keys.consent(change.member).sk, change.member,
                             action, [record], EXPIRY, rng=rng)
        return SignRequest(change.member, action, [record], token)

    def setup(self, data_dir: Path, life: Lifetime) -> Service:
        cluster = self.new_cluster(data_dir)
        need: dict[str, int] = {}
        for request in life.streams[0]:
            need[request.member_id] = need.get(request.member_id, 0) + 1
        pks = provision_requests(cluster, life.members, life.consent_keys, need)
        return Service(cluster, pks)


class _Serials:
    """Distinct seeded EE serials."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._used: set[int] = set()

    def next(self) -> int:
        while True:
            serial = self._rng.getrandbits(63)
            if serial and serial not in self._used:
                self._used.add(serial)
                return serial


# --- transfer-wan --------------------------------------------------------------

class TransferWan(Workload):
    """Consent-gated transfers (CRL delta plus replacement ROA) over WAN-sim."""

    name = "transfer-wan"
    scheme = SchemeId.ADDITIVE_MAC
    wan = True
    clients = 2
    # transfers provisioned per client per second of window; one takes
    # about 2 s on the simulated WAN, almost all of it waiting on rounds
    provision_per_s = 0.9

    def lifetimes(self, seed: int, window_s: float) -> list[Lifetime]:
        changes = load_changes()
        rng = random.Random(seed)
        per_client = max(2, math.ceil(window_s * self.provision_per_s))
        pool = sorted({c.member for c in changes})
        chosen = rng.sample(pool, LIFETIMES * self.clients)
        keys = _Members(seed)
        serials = _Serials(rng)
        index = count()
        out = []
        for k in range(LIFETIMES):
            members = chosen[k * self.clients:(k + 1) * self.clients]
            streams = [
                [self.request(member, rng.choice(changes), rng.choice(pool),
                              next(index), keys, serials, rng)
                 for _ in range(per_client)]
                for member in members
            ]
            out.append(Lifetime(members, streams,
                                {m: keys.consent(m).pk for m in members}))
        return out

    @staticmethod
    def request(member: str, row: Change, new_member: str, index: int,
                keys: _Members, serials: _Serials,
                rng: random.Random) -> SignRequest:
        ts = _day_ts(row.day)
        old_roa = RoaRecord(
            serial=serials.next(), member_id=member, asn=row.asn,
            prefixes=(IpPrefix.parse(row.prefix, row.maxlen),),
            not_before=ts, not_after=ts + ROA_VALIDITY_S, ee_pk=keys.ee_pk(member),
        )
        plan = plan_transfer(old_roa, new_member, 64496 + rng.randrange(1040),
                             new_serial=serials.next(),
                             new_ee_pk=keys.ee_pk(new_member),
                             this_update=ts + index, rng=rng)
        payloads = [plan.crl_delta, plan.new_roa]
        token = sign_consent(keys.consent(member).sk, member, Action.TRANSFER,
                             payloads, EXPIRY, rng=rng)
        return SignRequest(member, Action.TRANSFER, payloads, token, plan.transfer_id)

    def setup(self, data_dir: Path, life: Lifetime) -> Service:
        cluster = self.new_cluster(data_dir)
        need = {m: 2 * len(s) for m, s in zip(life.members, life.streams)}
        pks = provision_requests(cluster, life.members, life.consent_keys, need)
        return Service(cluster, pks)


# --- preprocess-durable -----------------------------------------------------------

@dataclass(frozen=True)
class Restock:
    member_id: str
    count: int


class PreprocessDurable(Workload):
    """Restock batches: 100 initial tuples, then 100 finals for one member."""

    name = "preprocess-durable"
    scheme = SchemeId.ADDITIVE_MAC
    # Restocking runs between the five RIRs, as signing does.  A batch is
    # about 1.2 s of interpreter CPU and 0.9 s of waiting on its seven rounds;
    # on LAN the same batch is CPU alone, and its ten-run spread on a shared
    # 2-core host reached 0.26, past any bound the benchmark may set.
    wan = True
    unit = "tuple"
    op_label = "batch"
    op_plural = "batches"
    batch = 100
    members = 3

    def lifetimes(self, seed: int, window_s: float) -> list[Lifetime]:
        rng = random.Random(seed)
        pool = sorted({c.member for c in load_changes()})
        chosen = rng.sample(pool, LIFETIMES * self.members)
        return [Lifetime(chosen[k * self.members:(k + 1) * self.members], [])
                for k in range(LIFETIMES)]

    def ops(self, life: Lifetime) -> list[Iterator]:
        members = life.members
        return [(Restock(members[i % len(members)], self.batch) for i in count())]

    def setup(self, data_dir: Path, life: Lifetime) -> Service:
        """Keygen for the members and an initial stock of one batch of initial tuples."""
        cluster = self.new_cluster(data_dir)
        pks = {m: cluster.keygen(m) for m in life.members}
        cluster.preprocess_independent(self.batch)
        return Service(cluster, pks)

    def execute(self, svc: Service, op: Restock) -> tuple[object, int]:
        made = (svc.cluster.preprocess_independent(op.count),
                svc.cluster.preprocess_dependent(op.member_id, op.count))
        return made, made[1]

    def check_op(self, svc: Service, rec: Record) -> Optional[str]:
        want = (rec.op.count, rec.op.count)
        return None if rec.result == want else f"made {rec.result}, wanted {want}"

    def check_lifetime(self, svc: Service, records: list[Record]) -> Optional[str]:
        """One message per restocked member, signed from the produced stock."""
        stocked = {r.op.member_id for r in records if r.error is None}
        for member in sorted(stocked):
            message = f"perfbench restock check {member}".encode()
            result = svc.cluster.run_signing(member, message)
            if not ecdsa_verify(svc.member_pks[member], message, result.signature):
                return f"signature from {member}'s produced stock does not verify"
        return check_published_state(svc.cluster)


WORKLOADS = {w.name: w for w in (ChurnLan(), TransferWan(), PreprocessDurable())}
