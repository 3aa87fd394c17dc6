"""Simplified RPKI object model: ROAs, EE-cert stand-ins, CRLs, TALs, consent.

Objects use one canonical, injective binary encoding (type tag, version, then
length-prefixed fields in declaration order) instead of DER templates; the
revocation semantics of the real formats are preserved by embedding each
object's end-entity serial and revoking serials through CRLs.

Consent tokens are the member-authorization artifact gating every signing
run: a member signs (member id, action, digest of the exact payloads,
expiry) with their registered single-party key.  An IP-space transfer needs
consent over BOTH the revoking CRL delta and the replacement ROA, so its
token digest covers the pair.
"""

from __future__ import annotations

import base64
import hashlib
import io
import ipaddress
import secrets
import struct
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence, Union

from .algebra import (
    FieldElement,
    GroupPoint,
    Signature,
    ecdsa_sign,
    ecdsa_verify,
)

ENCODING_VERSION = 1

TAG_ROA = 1
TAG_CRL = 2
TAG_CERT = 3
TAG_CONSENT = 4


class ValidationError(Exception):
    """An object violates a structural invariant; the message names the rule."""


class Action(Enum):
    ISSUE = 1
    REVOKE = 2
    TRANSFER = 3


class PayloadKind(Enum):
    ROA = TAG_ROA
    CRL = TAG_CRL
    CERT = TAG_CERT


class DeploymentMode(Enum):
    HIERARCHICAL = "hierarchical"  # two layers under a distributed trust anchor
    FLAT = "flat"                  # EE objects only, no CA certificates


class ConsentVerdict(Enum):
    OK = "ok"
    MISSING = "missing"
    INVALID = "invalid"


class ObjectVerdict(Enum):
    VALID = "valid"
    REVOKED = "revoked"
    BAD_SIGNATURE = "bad-signature"
    FORBIDDEN_KIND = "forbidden-kind"


@dataclass(frozen=True, order=True)
class IpPrefix:
    """(family, 16-byte-padded address, prefix length, max length)."""

    family: int
    address: bytes
    length: int
    max_length: int

    @classmethod
    def parse(cls, text: str, max_length: Optional[int] = None) -> "IpPrefix":
        net = ipaddress.ip_network(text)
        family = 4 if net.version == 4 else 6
        addr = net.network_address.packed
        addr = addr + b"\x00" * (16 - len(addr))
        return cls(family, addr, net.prefixlen,
                   max_length if max_length is not None else net.prefixlen)

    def __str__(self) -> str:
        width = 4 if self.family == 4 else 16
        ip = ipaddress.ip_address(self.address[:width])
        return f"{ip}/{self.length}-{self.max_length}"

    def check(self) -> None:
        width_bits = 32 if self.family == 4 else 128
        if self.family not in (4, 6):
            raise ValidationError(f"unknown address family {self.family}")
        if len(self.address) != 16:
            raise ValidationError("prefix address must be 16 bytes (zero padded)")
        if not (0 < self.length <= width_bits):
            raise ValidationError(f"prefix length {self.length} out of range")
        if not (self.length <= self.max_length <= width_bits):
            raise ValidationError(
                f"max-length {self.max_length} must lie in [{self.length}, {width_bits}]"
            )


@dataclass(frozen=True)
class RoaRecord:
    """Authorization for exactly one AS to originate the listed prefixes."""

    serial: int
    member_id: str
    asn: int
    prefixes: tuple[IpPrefix, ...]
    not_before: int
    not_after: int
    ee_pk: GroupPoint

    def check(self) -> None:
        if not (0 <= self.asn < 2**32):
            raise ValidationError("ASN must fit in 32 bits")
        if not self.prefixes:
            raise ValidationError("ROA needs at least one prefix")
        for p in self.prefixes:
            p.check()
        if list(self.prefixes) != sorted(set(self.prefixes)):
            raise ValidationError("prefixes must be strictly sorted without duplicates")
        if not self.not_before < self.not_after:
            raise ValidationError("not_before must precede not_after")
        if self.serial < 0 or self.serial >= 2**64:
            raise ValidationError("serial must fit in 64 bits")


@dataclass(frozen=True)
class CrlRecord:
    """Revocation delta or full list: strictly increasing EE serials."""

    issuer_id: str
    this_update: int
    revoked_serials: tuple[int, ...]

    def check(self) -> None:
        serials = list(self.revoked_serials)
        if serials != sorted(set(serials)):
            raise ValidationError("revoked serials must be strictly increasing")
        for s in serials:
            if s < 0 or s >= 2**64:
                raise ValidationError("serial must fit in 64 bits")


@dataclass(frozen=True)
class EeCertRecord:
    """Stand-in for an end-entity certificate: (serial, subject key, validity)."""

    serial: int
    member_id: str
    subject_pk: GroupPoint
    not_before: int
    not_after: int

    def check(self) -> None:
        if not self.not_before < self.not_after:
            raise ValidationError("not_before must precede not_after")
        if self.serial < 0 or self.serial >= 2**64:
            raise ValidationError("serial must fit in 64 bits")


PayloadRecord = Union[RoaRecord, CrlRecord, EeCertRecord]


@dataclass(frozen=True)
class ConsentToken:
    member_id: str
    action: Action
    object_digest: bytes  # 32-byte digest over the exact payloads approved
    expiry: int
    member_signature: Signature


@dataclass(frozen=True)
class SignedObject:
    payload_kind: PayloadKind
    payload: bytes
    signature: Signature
    signer_pk: GroupPoint

    @property
    def digest(self) -> bytes:
        return hashlib.sha256(self.payload).digest()

    def verify(self) -> bool:
        return ecdsa_verify(self.signer_pk, self.payload, self.signature)

    def record(self) -> PayloadRecord:
        return decode_canonical(self.payload)

    def to_bytes(self) -> bytes:
        return (
            struct.pack(">I", len(self.payload)) + self.payload
            + self.signature.to_bytes() + self.signer_pk.to_bytes()
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SignedObject":
        (plen,) = struct.unpack(">I", blob[:4])
        payload = blob[4:4 + plen]
        sig = Signature.from_bytes(blob[4 + plen:4 + plen + 64])
        pk = GroupPoint.from_bytes(blob[4 + plen + 64:])
        return cls(PayloadKind(payload[0]), payload, sig, pk)


@dataclass(frozen=True)
class TrustAnchorLocator:
    repository_uri: str
    subject_public_key: GroupPoint

    def to_text(self) -> str:
        key_b64 = base64.b64encode(self.subject_public_key.to_bytes()).decode()
        return f"{self.repository_uri}\n{key_b64}\n"

    @classmethod
    def from_text(cls, text: str) -> "TrustAnchorLocator":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) != 2:
            raise ValidationError("TAL must be a URI line and a base64 key line")
        return cls(lines[0].strip(), GroupPoint.from_bytes(base64.b64decode(lines[1])))


# --- canonical encoding -------------------------------------------------------

def _w_field(out: io.BytesIO, data: bytes) -> None:
    out.write(struct.pack(">I", len(data)))
    out.write(data)


def _r_field(buf: io.BytesIO) -> bytes:
    raw = buf.read(4)
    if len(raw) != 4:
        raise ValidationError("truncated encoding")
    (length,) = struct.unpack(">I", raw)
    data = buf.read(length)
    if len(data) != length:
        raise ValidationError("truncated encoding")
    return data


def _encode_prefixes(prefixes: Sequence[IpPrefix]) -> bytes:
    out = struct.pack(">H", len(prefixes))
    for p in prefixes:
        out += struct.pack("B", p.family) + p.address + struct.pack("BB", p.length, p.max_length)
    return out


def _decode_prefixes(blob: bytes) -> tuple[IpPrefix, ...]:
    (count,) = struct.unpack(">H", blob[:2])
    out, off = [], 2
    for _ in range(count):
        family = blob[off]
        address = blob[off + 1:off + 17]
        length, max_length = blob[off + 17], blob[off + 18]
        out.append(IpPrefix(family, address, length, max_length))
        off += 19
    if off != len(blob):
        raise ValidationError("trailing bytes in prefix list")
    return tuple(out)


def encode_canonical(obj: PayloadRecord) -> bytes:
    """Deterministic, injective byte encoding; validates invariants first."""
    obj.check()
    out = io.BytesIO()
    if isinstance(obj, RoaRecord):
        out.write(bytes([TAG_ROA, ENCODING_VERSION]))
        _w_field(out, struct.pack(">Q", obj.serial))
        _w_field(out, obj.member_id.encode())
        _w_field(out, struct.pack(">I", obj.asn))
        _w_field(out, _encode_prefixes(obj.prefixes))
        _w_field(out, struct.pack(">Q", obj.not_before))
        _w_field(out, struct.pack(">Q", obj.not_after))
        _w_field(out, obj.ee_pk.to_bytes())
    elif isinstance(obj, CrlRecord):
        out.write(bytes([TAG_CRL, ENCODING_VERSION]))
        _w_field(out, obj.issuer_id.encode())
        _w_field(out, struct.pack(">Q", obj.this_update))
        _w_field(out, struct.pack(">I", len(obj.revoked_serials))
                 + b"".join(struct.pack(">Q", s) for s in obj.revoked_serials))
    elif isinstance(obj, EeCertRecord):
        out.write(bytes([TAG_CERT, ENCODING_VERSION]))
        _w_field(out, struct.pack(">Q", obj.serial))
        _w_field(out, obj.member_id.encode())
        _w_field(out, obj.subject_pk.to_bytes())
        _w_field(out, struct.pack(">Q", obj.not_before))
        _w_field(out, struct.pack(">Q", obj.not_after))
    else:
        raise ValidationError(f"unencodable object type {type(obj).__name__}")
    return out.getvalue()


def decode_canonical(blob: bytes) -> PayloadRecord:
    if len(blob) < 2:
        raise ValidationError("truncated encoding")
    tag, version = blob[0], blob[1]
    if version != ENCODING_VERSION:
        raise ValidationError(f"unsupported encoding version {version}")
    buf = io.BytesIO(blob[2:])
    if tag == TAG_ROA:
        serial = struct.unpack(">Q", _r_field(buf))[0]
        member = _r_field(buf).decode()
        asn = struct.unpack(">I", _r_field(buf))[0]
        prefixes = _decode_prefixes(_r_field(buf))
        not_before = struct.unpack(">Q", _r_field(buf))[0]
        not_after = struct.unpack(">Q", _r_field(buf))[0]
        ee_pk = GroupPoint.from_bytes(_r_field(buf))
        obj = RoaRecord(serial, member, asn, prefixes, not_before, not_after, ee_pk)
    elif tag == TAG_CRL:
        issuer = _r_field(buf).decode()
        this_update = struct.unpack(">Q", _r_field(buf))[0]
        body = _r_field(buf)
        (count,) = struct.unpack(">I", body[:4])
        serials = tuple(
            struct.unpack(">Q", body[4 + 8 * i:12 + 8 * i])[0] for i in range(count)
        )
        obj = CrlRecord(issuer, this_update, serials)
    elif tag == TAG_CERT:
        serial = struct.unpack(">Q", _r_field(buf))[0]
        member = _r_field(buf).decode()
        subject_pk = GroupPoint.from_bytes(_r_field(buf))
        not_before = struct.unpack(">Q", _r_field(buf))[0]
        not_after = struct.unpack(">Q", _r_field(buf))[0]
        obj = EeCertRecord(serial, member, subject_pk, not_before, not_after)
    else:
        raise ValidationError(f"unknown object tag {tag}")
    if buf.read(1):
        raise ValidationError("trailing bytes after object")
    obj.check()
    return obj


def object_digest(obj: PayloadRecord) -> bytes:
    return hashlib.sha256(encode_canonical(obj)).digest()


def consent_digest(payloads: Sequence[PayloadRecord]) -> bytes:
    """Digest covering the exact ordered payload set a member approves."""
    acc = hashlib.sha256()
    for obj in payloads:
        acc.update(object_digest(obj))
    return acc.digest()


# --- consent -------------------------------------------------------------------

def _consent_body(member_id: str, action: Action, object_digest_: bytes,
                  expiry: int) -> bytes:
    out = io.BytesIO()
    out.write(bytes([TAG_CONSENT, ENCODING_VERSION]))
    _w_field(out, member_id.encode())
    _w_field(out, bytes([action.value]))
    _w_field(out, object_digest_)
    _w_field(out, struct.pack(">Q", expiry))
    return out.getvalue()


def sign_consent(member_sk: FieldElement, member_id: str, action: Action,
                 payloads: Sequence[PayloadRecord], expiry: int,
                 rng=None) -> ConsentToken:
    digest = consent_digest(payloads)
    body = _consent_body(member_id, action, digest, expiry)
    sig = ecdsa_sign(member_sk, body, rng=rng)
    return ConsentToken(member_id, action, digest, expiry, sig)


def verify_consent(
    token: Optional[ConsentToken],
    action: Action,
    payloads: Sequence[PayloadRecord],
    member_registry: dict[str, GroupPoint],
    now: float,
) -> ConsentVerdict:
    """Three-valued verdict; 'missing' and 'invalid' drive different policies."""
    if token is None:
        return ConsentVerdict.MISSING
    member_pk = member_registry.get(token.member_id)
    if member_pk is None or member_pk.is_identity():
        return ConsentVerdict.INVALID
    if token.action is not action:
        return ConsentVerdict.INVALID
    for record in payloads:
        # a member consents for its own records only; a transfer's new ROA
        # names the transfer's target
        if isinstance(record, CrlRecord):
            owner = record.issuer_id
        elif action is Action.TRANSFER and isinstance(record, RoaRecord):
            continue
        else:
            owner = record.member_id
        if owner != token.member_id:
            return ConsentVerdict.INVALID
    if token.object_digest != consent_digest(payloads):
        return ConsentVerdict.INVALID
    if now >= token.expiry:
        return ConsentVerdict.INVALID
    body = _consent_body(token.member_id, token.action, token.object_digest, token.expiry)
    if not ecdsa_verify(member_pk, body, token.member_signature):
        return ConsentVerdict.INVALID
    return ConsentVerdict.OK


# --- transfers -------------------------------------------------------------------

@dataclass(frozen=True)
class TransferPlan:
    """The all-or-nothing pair of objects realizing one IP-space transfer."""

    transfer_id: bytes
    crl_delta: CrlRecord
    new_roa: RoaRecord


def plan_transfer(
    old_roa: RoaRecord,
    new_member: str,
    new_asn: int,
    *,
    new_serial: int,
    new_ee_pk: GroupPoint,
    revoked_serials: Sequence[int] = (),
    this_update: Optional[int] = None,
    rng=None,
) -> TransferPlan:
    """Revoking CRL delta plus the replacement ROA, bound by one transfer id.

    The delta lists exactly the newly revoked serial; the node's CRL state
    merges deltas at publication.
    """
    if old_roa.serial in revoked_serials:
        raise ValidationError("ROA already revoked")
    if new_serial == old_roa.serial:
        raise ValidationError("replacement ROA must use a fresh serial")
    transfer_id = (rng.getrandbits(128).to_bytes(16, "big")
                   if rng is not None else secrets.token_bytes(16))
    crl_delta = CrlRecord(
        issuer_id=old_roa.member_id,
        this_update=this_update if this_update is not None else old_roa.not_before,
        revoked_serials=(old_roa.serial,),
    )
    new_roa = replace(
        old_roa,
        serial=new_serial,
        member_id=new_member,
        asn=new_asn,
        ee_pk=new_ee_pk,
    )
    new_roa.check()
    return TransferPlan(transfer_id, crl_delta, new_roa)


# --- relying-party validation -----------------------------------------------------

def validate_object(
    obj: SignedObject,
    tal: TrustAnchorLocator,
    crl_state: Sequence[int],
    mode: DeploymentMode,
    issuer_cert: Optional[SignedObject] = None,
) -> ObjectVerdict:
    """Relying-party check of one signed object against a TAL and CRL state.

    Flat mode verifies directly under the TAL key and rejects CA/EE
    certificates as forbidden.  Hierarchical mode walks the two-layer chain:
    TAL key signs the member's certificate, whose subject key signs the
    object.
    """
    revoked = set(crl_state)
    try:
        record = obj.record()
    except ValidationError:
        return ObjectVerdict.BAD_SIGNATURE

    if mode is DeploymentMode.FLAT:
        if obj.payload_kind is PayloadKind.CERT:
            return ObjectVerdict.FORBIDDEN_KIND
        if obj.signer_pk != tal.subject_public_key or not obj.verify():
            return ObjectVerdict.BAD_SIGNATURE
        if isinstance(record, RoaRecord) and record.serial in revoked:
            return ObjectVerdict.REVOKED
        return ObjectVerdict.VALID

    # hierarchical: certificates verify under the trust anchor directly
    if obj.payload_kind is PayloadKind.CERT:
        if obj.signer_pk != tal.subject_public_key or not obj.verify():
            return ObjectVerdict.BAD_SIGNATURE
        if record.serial in revoked:
            return ObjectVerdict.REVOKED
        return ObjectVerdict.VALID

    if issuer_cert is None:
        return ObjectVerdict.BAD_SIGNATURE
    cert_verdict = validate_object(issuer_cert, tal, crl_state, mode)
    if cert_verdict is not ObjectVerdict.VALID:
        return cert_verdict
    cert_record = issuer_cert.record()
    if obj.signer_pk != cert_record.subject_pk or not obj.verify():
        return ObjectVerdict.BAD_SIGNATURE
    if isinstance(record, RoaRecord) and record.serial in revoked:
        return ObjectVerdict.REVOKED
    return ObjectVerdict.VALID
