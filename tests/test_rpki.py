"""Object model, canonical encoding, consent, transfer, and validation tests."""

import random
import time
from dataclasses import replace

import pytest

from drpki.algebra import (
    CURVE_ORDER,
    FIELD_PRIME,
    GENERATOR,
    FieldElement,
    GroupPoint,
    KeyPair,
    Signature,
    ecdsa_sign,
    ecdsa_verify,
    scalar_mul,
)
from drpki.cli import consent_token_from_file, consent_token_to_file
from drpki.rpki import (
    Action,
    ConsentVerdict,
    CrlRecord,
    DeploymentMode,
    EeCertRecord,
    IpPrefix,
    ObjectVerdict,
    PayloadKind,
    RoaRecord,
    SignedObject,
    TrustAnchorLocator,
    ValidationError,
    _consent_body,
    consent_digest,
    decode_canonical,
    encode_canonical,
    frame_fields,
    object_digest,
    plan_transfer,
    sign_consent,
    split_fields,
    validate_object,
    verify_consent,
)

rng = random.Random(0xD21_04)

EE_PK = scalar_mul(FieldElement(0x51), GENERATOR)


def random_prefix():
    if rng.random() < 0.7:
        addr = ".".join(str(rng.randrange(256)) for _ in range(3)) + ".0"
        length = rng.randrange(8, 25)
        return IpPrefix.parse(f"{addr}/{length}" if length >= 24 else f"{addr}/24",
                              max_length=rng.randrange(24, 33))
    return IpPrefix.parse("2001:db8::/32", max_length=rng.randrange(32, 129))


def random_roa(serial=None):
    prefixes = sorted({random_prefix() for _ in range(rng.randrange(1, 4))})
    return RoaRecord(
        serial=serial if serial is not None else rng.randrange(1, 2**48),
        member_id=f"member-{rng.randrange(1000)}",
        asn=rng.randrange(2**32),
        prefixes=tuple(prefixes),
        not_before=rng.randrange(1, 2**31),
        not_after=rng.randrange(2**31, 2**32),
        ee_pk=EE_PK,
    )


def random_crl():
    serials = sorted({rng.randrange(2**32) for _ in range(rng.randrange(0, 6))})
    return CrlRecord(f"issuer-{rng.randrange(50)}", rng.randrange(2**31),
                     tuple(serials))


def random_cert():
    start = rng.randrange(1, 2**31)
    return EeCertRecord(rng.randrange(2**48), f"member-{rng.randrange(1000)}",
                        EE_PK, start, start + rng.randrange(1, 2**20))


def test_encode_decode_roundtrip_500_random():
    makers = [random_roa, random_crl, random_cert]
    for i in range(500):
        obj = makers[i % 3]()
        assert decode_canonical(encode_canonical(obj)) == obj


def test_encoding_differs_on_max_length_only():
    base = RoaRecord(7, "m", 1, (IpPrefix.parse("10.0.0.0/8", 8),), 1, 2, EE_PK)
    other = RoaRecord(7, "m", 1, (IpPrefix.parse("10.0.0.0/8", 16),), 1, 2, EE_PK)
    assert object_digest(base) != object_digest(other)


def test_encoding_injectivity_randomized():
    seen = {}
    for _ in range(10_000):
        obj = random_roa() if rng.random() < 0.5 else random_crl()
        enc = encode_canonical(obj)
        if enc in seen:
            assert seen[enc] == obj
        seen[enc] = obj


GOLDEN_ROA_HEX = (
    "01010000000800000000000000010000000e6578616d706c652d6d656d626572000000040000"
    "fc0000000015000104c0000200000000000000000000000000181800000008000000005e5afb"
    "000000000800000000603c2e8000000041046b17d1f2e12c4247f8bce6e563a440f277037d81"
    "2deb33a0f4a13945d898c2964fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6"
    "406837bf51f5"
)


def test_golden_encoding_vector():
    roa = RoaRecord(serial=1, member_id="example-member", asn=64512,
                    prefixes=(IpPrefix.parse("192.0.2.0/24", 24),),
                    not_before=1583020800, not_after=1614556800, ee_pk=GENERATOR)
    assert encode_canonical(roa).hex() == GOLDEN_ROA_HEX


@pytest.mark.parametrize(
    "build,rule",
    [
        (lambda: RoaRecord(1, "m", 1, (), 1, 2, EE_PK), "at least one prefix"),
        (
            lambda: RoaRecord(
                1, "m", 1,
                (IpPrefix.parse("10.0.0.0/16", 16), IpPrefix.parse("10.0.0.0/8", 8)),
                1, 2, EE_PK,
            ),
            "sorted",
        ),
        (
            lambda: RoaRecord(1, "m", 1, (IpPrefix(4, b"\x0a" + b"\x00" * 15, 24, 16),),
                              1, 2, EE_PK),
            "max-length",
        ),
        (lambda: RoaRecord(1, "m", 1, (IpPrefix.parse("10.0.0.0/8", 8),), 5, 5, EE_PK),
         "not_before"),
        (lambda: RoaRecord(1, "m", 2**32, (IpPrefix.parse("10.0.0.0/8", 8),), 1, 2,
                           EE_PK), "32 bits"),
        (lambda: CrlRecord("i", 1, (5, 5)), "strictly increasing"),
        (lambda: CrlRecord("i", 1, (9, 5)), "strictly increasing"),
        (lambda: RoaRecord(1, "m", 1, (IpPrefix.parse("10.0.0.0/8", 8),), -5, 2, EE_PK),
         "not_before must fit in 64 bits"),
        (lambda: CrlRecord("i", 2**64, ()), "this_update must fit in 64 bits"),
        (lambda: EeCertRecord(3, "m", EE_PK, 1, 2**64), "not_after must fit in 64 bits"),
    ],
)
def test_invariant_violations_name_the_rule(build, rule):
    with pytest.raises(ValidationError, match=rule):
        encode_canonical(build())


def _with_field(blob: bytes, index: int, field: bytes) -> bytes:
    """`blob` with its index-th field replaced by `field`."""
    parts = split_fields(blob[2:])
    parts[index] = field
    return blob[:2] + frame_fields(parts)


def test_decode_rejects_garbage():
    roa = encode_canonical(random_roa())
    crl = encode_canonical(CrlRecord("i", 1, (4, 9)))
    garbage = [
        b"", b"\x09\x01\x00", roa + b"\x00",
        _with_field(roa, 0, bytes(7)),                        # a short serial
        _with_field(roa, 1, b"\xff"),                         # text that is not UTF-8
        _with_field(roa, 6, b"\x04" + bytes(64)),             # a point off the curve
        _with_field(roa, 3, split_fields(roa[2:])[3] + bytes(19)),  # one prefix too many
        _with_field(crl, 2, split_fields(crl[2:])[2] + bytes(8)),   # junk after the serials
        _with_field(crl, 2, split_fields(crl[2:])[2][:-1]),         # a serial cut short
        crl[:2] + frame_fields(split_fields(crl[2:])[:2]),          # a missing field
    ]
    for blob in garbage:
        with pytest.raises(ValidationError):
            decode_canonical(blob)


@pytest.mark.parametrize("record", [
    RoaRecord(7, "member-\u00e4", 64512,
              (IpPrefix.parse("10.0.0.0/8", 16), IpPrefix.parse("2001:db8::/32", 48)),
              100, 200, EE_PK),
    CrlRecord("issuer", 5, (1, 9, 2**40)),
    EeCertRecord(3, "m", EE_PK, 1, 10),
], ids=["roa", "crl", "cert"])
def test_decode_takes_exactly_the_canonical_encoding(record):
    # every truncation and every single-bit flip of an encoding decodes to
    # the record whose encoding it is, or raises ValidationError
    good = encode_canonical(record)
    variants = [good[:cut] for cut in range(len(good))]
    for i in range(len(good)):
        for bit in range(8):
            flipped = bytearray(good)
            flipped[i] ^= 1 << bit
            variants.append(bytes(flipped))
    for blob in variants:
        try:
            decoded = decode_canonical(blob)
        except ValidationError:
            continue
        assert encode_canonical(decoded) == blob


# --- consent ---------------------------------------------------------------------

def _consent_setup():
    member = KeyPair.generate(rng)
    registry = {"memberA": member.pk}
    roa = random_roa()
    roa = RoaRecord(roa.serial, "memberA", roa.asn, roa.prefixes,
                    roa.not_before, roa.not_after, roa.ee_pk)
    return member, registry, roa


def test_consent_ok_for_matching_issue():
    member, registry, roa = _consent_setup()
    token = sign_consent(member.sk, "memberA", Action.ISSUE, [roa], expiry=1000, rng=rng)
    assert verify_consent(token, Action.ISSUE, [roa], registry, now=500) is ConsentVerdict.OK


def test_consent_missing_when_absent():
    _, registry, roa = _consent_setup()
    assert verify_consent(None, Action.ISSUE, [roa], registry, now=0) is ConsentVerdict.MISSING


def test_consent_invalid_for_wrong_signer():
    member, registry, roa = _consent_setup()
    imposter = KeyPair.generate(rng)
    token = sign_consent(imposter.sk, "memberA", Action.ISSUE, [roa], expiry=1000, rng=rng)
    assert verify_consent(token, Action.ISSUE, [roa], registry, now=0) is ConsentVerdict.INVALID


def test_consent_invalid_on_action_digest_or_expiry_mismatch():
    member, registry, roa = _consent_setup()
    token = sign_consent(member.sk, "memberA", Action.ISSUE, [roa], expiry=1000, rng=rng)
    assert verify_consent(token, Action.REVOKE, [roa], registry, now=0) is ConsentVerdict.INVALID
    other = random_roa()
    assert verify_consent(token, Action.ISSUE, [other], registry, now=0) is ConsentVerdict.INVALID
    assert verify_consent(token, Action.ISSUE, [roa], registry, now=2000) is ConsentVerdict.INVALID


def test_transfer_consent_must_cover_both_objects():
    member, registry, roa = _consent_setup()
    crl = CrlRecord("memberA", roa.not_before, (roa.serial,))
    new_roa = RoaRecord(roa.serial + 1, "memberB", 64513, roa.prefixes,
                        roa.not_before, roa.not_after, EE_PK)
    # token digests only the new ROA, not the paired revoking CRL
    token = sign_consent(member.sk, "memberA", Action.TRANSFER, [new_roa],
                         expiry=10**10, rng=rng)
    assert (
        verify_consent(token, Action.TRANSFER, [crl, new_roa], registry, now=0)
        is ConsentVerdict.INVALID
    )
    full = sign_consent(member.sk, "memberA", Action.TRANSFER, [crl, new_roa],
                        expiry=10**10, rng=rng)
    assert (
        verify_consent(full, Action.TRANSFER, [crl, new_roa], registry, now=0)
        is ConsentVerdict.OK
    )


def test_consent_covers_only_the_consenting_members_records():
    member, registry, roa = _consent_setup()
    foreign_crl = CrlRecord("memberB", roa.not_before, (7,))
    foreign_roa = RoaRecord(roa.serial, "memberB", roa.asn, roa.prefixes,
                            roa.not_before, roa.not_after, EE_PK)
    foreign_cert = EeCertRecord(roa.serial, "memberB", EE_PK, 1, 2)
    for action, records in [(Action.REVOKE, [foreign_crl]),
                            (Action.ISSUE, [foreign_roa]),
                            (Action.ISSUE, [foreign_cert]),
                            (Action.TRANSFER, [foreign_crl, foreign_roa])]:
        token = sign_consent(member.sk, "memberA", action, records,
                             expiry=10**10, rng=rng)
        assert verify_consent(token, action, records, registry, now=0) is ConsentVerdict.INVALID
    # a transfer's new ROA names the target; its CRL must be the member's own
    own_crl = CrlRecord("memberA", roa.not_before, (roa.serial,))
    token = sign_consent(member.sk, "memberA", Action.TRANSFER, [own_crl, foreign_roa],
                         expiry=10**10, rng=rng)
    assert (verify_consent(token, Action.TRANSFER, [own_crl, foreign_roa], registry, now=0)
            is ConsentVerdict.OK)


def _consent_signed_body(token):
    return _consent_body(token.member_id, token.action, token.object_digest, token.expiry)


def test_consent_is_checked_against_the_tokens_own_r():
    member, registry, roa = _consent_setup()
    token = sign_consent(member.sk, "memberA", Action.ISSUE, [roa], expiry=1000, rng=rng)
    assert verify_consent(token, Action.ISSUE, [roa], registry, now=0) is ConsentVerdict.OK
    body = _consent_signed_body(token)
    r_point = token.r_point
    # -R has R's x, so plain ECDSA accepts (r, s) with it; the exact equation does not
    negated = replace(token, r_point=GroupPoint(r_point.x, FIELD_PRIME - r_point.y))
    assert ecdsa_verify(member.pk, body, negated.member_signature)
    assert verify_consent(negated, Action.ISSUE, [roa], registry, now=0) is ConsentVerdict.INVALID
    # (r, n - s) passes plain ECDSA, but its point is -R, not the R it comes with
    sig = token.member_signature
    flipped = replace(token, member_signature=Signature(
        sig.r_x, FieldElement(CURVE_ORDER - sig.s.value)))
    assert ecdsa_verify(member.pk, body, flipped.member_signature)
    assert verify_consent(flipped, Action.ISSUE, [roa], registry, now=0) is ConsentVerdict.INVALID
    # an R whose x is not r
    for other in (GENERATOR, r_point + GENERATOR):
        off = replace(token, r_point=other)
        assert verify_consent(off, Action.ISSUE, [roa], registry, now=0) is ConsentVerdict.INVALID


def test_sign_consent_draws_as_plain_ecdsa():
    # so seeded request streams sign the same tokens as before R was carried
    member, _, roa = _consent_setup()
    token = sign_consent(member.sk, "memberA", Action.ISSUE, [roa], expiry=1000,
                         rng=random.Random(7))
    body = _consent_signed_body(token)
    assert token.member_signature == ecdsa_sign(member.sk, body, rng=random.Random(7))


def test_consent_token_file_round_trip_keeps_r(tmp_path):
    member, registry, roa = _consent_setup()
    token = sign_consent(member.sk, "memberA", Action.ISSUE, [roa], expiry=1000, rng=rng)
    path = str(tmp_path / "token.json")
    consent_token_to_file(token, path)
    read = consent_token_from_file(path)
    assert read == token and read.r_point == token.r_point
    assert verify_consent(read, Action.ISSUE, [roa], registry, now=0) is ConsentVerdict.OK


def test_consent_digest_is_order_sensitive_pair_hash():
    _, _, roa = _consent_setup()
    crl = CrlRecord("memberA", 1, (roa.serial,))
    assert consent_digest([crl, roa]) != consent_digest([roa, crl])
    assert len(consent_digest([roa])) == 32


# --- transfers -----------------------------------------------------------------------

def test_plan_transfer_single_prefix():
    old = RoaRecord(10, "memberA", 64512, (IpPrefix.parse("198.51.100.0/24", 24),),
                    100, 200, EE_PK)
    plan = plan_transfer(old, "memberB", 64513, new_serial=11,
                         new_ee_pk=GENERATOR, rng=rng)
    assert plan.crl_delta.revoked_serials == (10,)
    assert plan.new_roa.prefixes == old.prefixes
    assert plan.new_roa.member_id == "memberB"
    assert plan.new_roa.asn == 64513
    assert plan.new_roa.serial == 11
    assert len(plan.transfer_id) == 16


def test_plan_transfer_rejects_already_revoked():
    old = RoaRecord(10, "memberA", 64512, (IpPrefix.parse("198.51.100.0/24", 24),),
                    100, 200, EE_PK)
    with pytest.raises(ValidationError, match="already revoked"):
        plan_transfer(old, "memberB", 64513, new_serial=11, new_ee_pk=GENERATOR,
                      revoked_serials=(10,), rng=rng)


# --- relying-party validation -----------------------------------------------------------

def _signed(record, signer: KeyPair):
    payload = encode_canonical(record)
    kind = {
        RoaRecord: PayloadKind.ROA,
        CrlRecord: PayloadKind.CRL,
        EeCertRecord: PayloadKind.CERT,
    }[type(record)]
    return SignedObject(kind, payload, ecdsa_sign(signer.sk, payload, rng=rng),
                        signer.pk)


def test_flat_mode_validation_and_revocation():
    anchor = KeyPair.generate(rng)
    tal = TrustAnchorLocator("rsync://example/repo", anchor.pk)
    roa = random_roa(serial=42)
    obj = _signed(roa, anchor)
    assert validate_object(obj, tal, [], DeploymentMode.FLAT) is ObjectVerdict.VALID
    assert validate_object(obj, tal, [42], DeploymentMode.FLAT) is ObjectVerdict.REVOKED


def test_flat_mode_rejects_certificates():
    anchor = KeyPair.generate(rng)
    tal = TrustAnchorLocator("rsync://example/repo", anchor.pk)
    cert = _signed(random_cert(), anchor)
    assert validate_object(cert, tal, [], DeploymentMode.FLAT) is ObjectVerdict.FORBIDDEN_KIND


def test_flat_mode_rejects_wrong_signer():
    anchor = KeyPair.generate(rng)
    rogue = KeyPair.generate(rng)
    tal = TrustAnchorLocator("rsync://example/repo", anchor.pk)
    obj = _signed(random_roa(), rogue)
    assert validate_object(obj, tal, [], DeploymentMode.FLAT) is ObjectVerdict.BAD_SIGNATURE


def test_hierarchical_two_layer_chain():
    anchor = KeyPair.generate(rng)
    member = KeyPair.generate(rng)
    tal = TrustAnchorLocator("rsync://example/repo", anchor.pk)
    cert = _signed(EeCertRecord(5, "memberA", member.pk, 1, 10**10), anchor)
    roa = random_roa(serial=77)
    obj = _signed(roa, member)
    assert (
        validate_object(obj, tal, [], DeploymentMode.HIERARCHICAL, issuer_cert=cert)
        is ObjectVerdict.VALID
    )
    # revoking the member cert's serial invalidates the chain
    assert (
        validate_object(obj, tal, [5], DeploymentMode.HIERARCHICAL, issuer_cert=cert)
        is ObjectVerdict.REVOKED
    )
    # revoking the object's own serial
    assert (
        validate_object(obj, tal, [77], DeploymentMode.HIERARCHICAL, issuer_cert=cert)
        is ObjectVerdict.REVOKED
    )
    # missing chain link
    assert (
        validate_object(obj, tal, [], DeploymentMode.HIERARCHICAL)
        is ObjectVerdict.BAD_SIGNATURE
    )


def test_transfer_pipeline_validates_new_and_rejects_old():
    anchor = KeyPair.generate(rng)
    tal = TrustAnchorLocator("rsync://example/repo", anchor.pk)
    old = RoaRecord(10, "memberA", 64512, (IpPrefix.parse("198.51.100.0/24", 24),),
                    100, 200, EE_PK)
    plan = plan_transfer(old, "memberB", 64513, new_serial=11, new_ee_pk=EE_PK, rng=rng)
    old_obj = _signed(old, anchor)
    crl_obj = _signed(plan.crl_delta, anchor)
    new_obj = _signed(plan.new_roa, anchor)
    crl_state = list(plan.crl_delta.revoked_serials)
    assert validate_object(old_obj, tal, crl_state, DeploymentMode.FLAT) is ObjectVerdict.REVOKED
    assert validate_object(new_obj, tal, crl_state, DeploymentMode.FLAT) is ObjectVerdict.VALID
    assert validate_object(crl_obj, tal, crl_state, DeploymentMode.FLAT) is ObjectVerdict.VALID


def test_object_whose_payload_has_a_short_field_is_a_bad_signature():
    # a signature over a payload that does not decode validates nothing
    anchor = KeyPair.generate(rng)
    tal = TrustAnchorLocator("rsync://example/repo", anchor.pk)
    payload = _with_field(encode_canonical(random_roa()), 0, bytes(7))
    obj = SignedObject(PayloadKind.ROA, payload, ecdsa_sign(anchor.sk, payload, rng=rng),
                       anchor.pk)
    cert = _signed(EeCertRecord(5, "memberA", anchor.pk, 1, 10**10), anchor)
    assert validate_object(obj, tal, [], DeploymentMode.FLAT) is ObjectVerdict.BAD_SIGNATURE
    assert (validate_object(obj, tal, [], DeploymentMode.HIERARCHICAL, issuer_cert=cert)
            is ObjectVerdict.BAD_SIGNATURE)


def test_issuer_labelled_a_certificate_that_holds_a_roa_validates_nothing():
    # the TAL key signed a ROA, and the issuer slot carries it under the
    # certificate label: the chain has no certificate, so no signer
    anchor = KeyPair.generate(rng)
    member = KeyPair.generate(rng)
    tal = TrustAnchorLocator("rsync://example/repo", anchor.pk)
    fake = replace(_signed(random_roa(), anchor), payload_kind=PayloadKind.CERT)
    obj = _signed(random_roa(), member)
    assert (validate_object(obj, tal, [], DeploymentMode.HIERARCHICAL, issuer_cert=fake)
            is ObjectVerdict.BAD_SIGNATURE)


def test_signed_object_serialization_roundtrip():
    anchor = KeyPair.generate(rng)
    obj = _signed(random_roa(), anchor)
    assert SignedObject.from_bytes(obj.to_bytes()) == obj


def test_signed_object_blob_that_does_not_decode_raises_validation_error():
    good = _signed(random_roa(), KeyPair.generate(rng)).to_bytes()
    bad = [good[:cut] for cut in range(len(good))] + [
        good + b"\x00",
        bytes(4) + good[4:],              # an empty payload
        good[:4] + b"\x09" + good[5:],    # no such payload kind
    ]
    for blob in bad:
        with pytest.raises(ValidationError):
            SignedObject.from_bytes(blob)


def test_tal_text_roundtrip():
    anchor = KeyPair.generate(rng)
    tal = TrustAnchorLocator("rsync://rir1.example/repository/", anchor.pk)
    assert TrustAnchorLocator.from_text(tal.to_text()) == tal
    for bad in ("only-a-uri\n", "rsync://x/\nnot base64!\n", "rsync://x/\nAAAA\n"):
        with pytest.raises(ValidationError):
            TrustAnchorLocator.from_text(bad)


def test_tal_identical_from_every_party():
    from drpki.runtime import LocalCluster
    from drpki.sharing import SchemeId
    from drpki.tecdsa import ProtocolConfig

    cluster = LocalCluster(ProtocolConfig.for_scheme(SchemeId.SHAMIR), seed=8)
    cluster.keygen("#ta")
    tals = [cluster.nodes[p].export_tal() for p in cluster.participants]
    keys = {t.subject_public_key.to_bytes() for t in tals}
    assert len(keys) == 1
    # a fixture object validates identically under each party's TAL
    member = KeyPair.generate(rng)
    ta_pk = tals[0].subject_public_key
    cluster.preprocess_independent(1)
    cluster.preprocess_dependent("#ta", 1)
    roa = random_roa(serial=3)
    payload = encode_canonical(roa)
    sig = cluster.run_signing("#ta", payload).signature
    obj = SignedObject(PayloadKind.ROA, payload, sig, ta_pk)
    verdicts = {
        validate_object(obj, t, [], DeploymentMode.FLAT) for t in tals
    }
    assert verdicts == {ObjectVerdict.VALID}
    cluster.close()
