"""Field, curve, and reference-ECDSA tests, checked against independent oracles."""

import hashlib
import random

import pytest

from drpki import tecdsa
from drpki.algebra import (
    CURVE_A,
    CURVE_ORDER,
    FIELD_PRIME,
    GENERATOR,
    AlgebraError,
    FieldElement,
    GroupPoint,
    KeyPair,
    Signature,
    ecdsa_sign,
    ecdsa_verify,
    hash_to_scalar,
    lincomb,
    scalar_mul,
)
from faults import count_curve_ops

rng = random.Random(0xD21_01)


# --- independent affine double-and-add oracle, from the curve equation only ---

def _affine_add(p, q):
    if p is None:
        return q
    if q is None:
        return p
    (x1, y1), (x2, y2) = p, q
    if x1 == x2 and (y1 + y2) % FIELD_PRIME == 0:
        return None
    if p == q:
        lam = (3 * x1 * x1 + CURVE_A) * pow(2 * y1, -1, FIELD_PRIME) % FIELD_PRIME
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, FIELD_PRIME) % FIELD_PRIME
    x3 = (lam * lam - x1 - x2) % FIELD_PRIME
    y3 = (lam * (x1 - x3) - y1) % FIELD_PRIME
    return (x3, y3)


def _naive_scalar_mul(k, point):
    result = None
    addend = point
    while k:
        if k & 1:
            result = _affine_add(result, addend)
        addend = _affine_add(addend, addend)
        k >>= 1
    return result


def test_field_small_cases():
    assert FieldElement(2) + FieldElement(3) == FieldElement(5)
    assert FieldElement(6) * FieldElement(7) == FieldElement(42)
    # an element of Z_n for the curve order n, and of no other field
    assert FieldElement.__slots__ == ("value",)
    assert FieldElement(CURVE_ORDER + 5) == FieldElement(5)
    assert FieldElement(-1).value == CURVE_ORDER - 1
    assert hash(FieldElement(CURVE_ORDER)) == hash(FieldElement.zero())


def test_field_inverse_random():
    for _ in range(20):
        a = FieldElement.random_nonzero(rng)
        assert a * a.inv() == FieldElement.one()


def test_inverse_of_minus_one_is_itself():
    minus_one = FieldElement(CURVE_ORDER - 1)
    assert minus_one.inv() == minus_one


def test_inverse_of_zero_rejected():
    with pytest.raises(AlgebraError, match="non-invertible"):
        FieldElement.zero().inv()


def test_scalar_mul_identity_scalar():
    assert scalar_mul(FieldElement(1), GENERATOR) == GENERATOR


def test_scalar_mul_doubling():
    assert scalar_mul(FieldElement(2), GENERATOR) == GENERATOR + GENERATOR


def test_scalar_mul_zero_and_order():
    assert scalar_mul(FieldElement.zero(), GENERATOR).is_identity()
    assert scalar_mul(FieldElement(CURVE_ORDER), GENERATOR).is_identity()


def test_scalar_mul_matches_naive_double_and_add():
    for _ in range(10):
        k = FieldElement.random_nonzero(rng)
        got = scalar_mul(k, GENERATOR)
        want = _naive_scalar_mul(k.value, (GENERATOR.x, GENERATOR.y))
        assert (got.x, got.y) == want
    # also against a non-generator base point
    base = scalar_mul(FieldElement(0xBEEF), GENERATOR)
    for _ in range(5):
        k = FieldElement.random_nonzero(rng)
        got = scalar_mul(k, base)
        assert (got.x, got.y) == _naive_scalar_mul(k.value, (base.x, base.y))


EDGE_SCALARS = [
    1, 2, 15, 16, 17,
    2**16 - 1, 2**16, 2**16 + 1,                        # short-scalar path edge
    (CURVE_ORDER - 1) // 2, (CURVE_ORDER + 1) // 2,     # negation step edge
    CURVE_ORDER - 1, CURVE_ORDER - 3, CURVE_ORDER - 8,  # small negative weights; n - 1
                                                        # is also the largest comb scalar
    15 * 16**63, 16**63,                                # top comb window
    0x80, 0x81, 0x80 * 256**16, 0x81 * 256**16,         # signed-digit edge, rows 0 and 16
    2**248 - 1,                                         # carries ripple through every row
    0xFF * 256**31,                                     # carry into the 33rd row
]
OTHER_BASE = scalar_mul(FieldElement(0xBEEF), GENERATOR)


@pytest.mark.parametrize("base", [GENERATOR, OTHER_BASE], ids=["G", "other"])
@pytest.mark.parametrize("k", EDGE_SCALARS, ids=hex)
def test_scalar_mul_edge_scalars_match_oracle(base, k):
    got = scalar_mul(FieldElement(k), base)
    assert (got.x, got.y) == _naive_scalar_mul(k, (base.x, base.y))


def test_scalar_mul_distributes_over_addition():
    p = scalar_mul(FieldElement(0x1234), GENERATOR)
    for _ in range(100):
        a = FieldElement.random(rng)
        b = FieldElement.random(rng)
        assert scalar_mul(a + b, p) == scalar_mul(a, p) + scalar_mul(b, p)


def test_hash_to_scalar_deterministic():
    m = b"route origin authorization"
    assert hash_to_scalar(m) == hash_to_scalar(m)


def test_hash_to_scalar_empty_input():
    # SHA-256("") is a universally published constant; it is below the group
    # order so the reduction is the identity.
    empty = int("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16)
    assert hash_to_scalar(b"") == FieldElement(empty % CURVE_ORDER)


def test_hash_to_scalar_distinct_vectors():
    da = int.from_bytes(hashlib.sha256(b"a").digest(), "big") % CURVE_ORDER
    db = int.from_bytes(hashlib.sha256(b"b").digest(), "big") % CURVE_ORDER
    assert hash_to_scalar(b"a") == FieldElement(da)
    assert hash_to_scalar(b"b") == FieldElement(db)
    assert hash_to_scalar(b"a") != hash_to_scalar(b"b")


# RFC 6979 A.2.5 (P-256, SHA-256) known-answer vectors.
RFC6979_SK = 0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
RFC6979_VECTORS = [
    (
        b"sample",
        0xA6E3C57DD01ABE90086538398355DD4C3B17AA873382B0F24D6129493D8AAD60,
        0xEFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716,
        0xF7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8,
    ),
    (
        b"test",
        0xD16B6AE827F17175E040871A1C7EC3500192C4C92677336EC2537ACAEE0008E0,
        0xF1ABB023518351CD71D881567B1EA663ED3EFCF6C5132B354F28D3B0B7D38367,
        0x019F4113742A2B14BD25926B49C649155F267E60D3814B4C0CC84250E46F0083,
    ),
]


@pytest.mark.parametrize("message,k,r,s", RFC6979_VECTORS)
def test_ecdsa_known_answer(message, k, r, s):
    sig = ecdsa_sign(FieldElement(RFC6979_SK), message, FieldElement(k))
    assert sig.r_x.value == r
    assert sig.s.value == s
    pk = scalar_mul(FieldElement(RFC6979_SK), GENERATOR)
    assert ecdsa_verify(pk, message, sig)


def test_sign_verify_roundtrip_100_random():
    for _ in range(100):
        sk = FieldElement.random_nonzero(rng)
        k = FieldElement.random_nonzero(rng)
        msg = rng.randbytes(rng.randrange(0, 64))
        sig = ecdsa_sign(sk, msg, k)
        assert ecdsa_verify(scalar_mul(sk, GENERATOR), msg, sig)


def test_verify_rejects_wrong_public_key():
    sk = FieldElement.random_nonzero(rng)
    sig = ecdsa_sign(sk, b"payload", FieldElement.random_nonzero(rng))
    other_pk = scalar_mul(sk + FieldElement.one(), GENERATOR)
    assert not ecdsa_verify(other_pk, b"payload", sig)


def test_verify_rejects_flipped_s():
    sk = FieldElement.random_nonzero(rng)
    sig = ecdsa_sign(sk, b"payload", FieldElement.random_nonzero(rng))
    forged = Signature(sig.r_x, sig.s + FieldElement.one())
    assert not ecdsa_verify(scalar_mul(sk, GENERATOR), b"payload", forged)


def test_verify_rejects_wrong_message():
    sk = FieldElement.random_nonzero(rng)
    sig = ecdsa_sign(sk, b"payload", FieldElement.random_nonzero(rng))
    assert not ecdsa_verify(scalar_mul(sk, GENERATOR), b"other payload", sig)


@pytest.mark.parametrize("message,k,r,s", RFC6979_VECTORS)
def test_known_r_verify_accepts_rfc6979_vectors(message, k, r, s):
    pk = scalar_mul(FieldElement(RFC6979_SK), GENERATOR)
    r_point = scalar_mul(FieldElement(k), GENERATOR)
    assert ecdsa_verify(pk, message, Signature(FieldElement(r), FieldElement(s)),
                        r_point=r_point)


@pytest.mark.parametrize("message,k,r,s", RFC6979_VECTORS)
def test_known_r_verify_rejects_any_other_r(message, k, r, s):
    pk = scalar_mul(FieldElement(RFC6979_SK), GENERATOR)
    sig = Signature(FieldElement(r), FieldElement(s))
    r_point = scalar_mul(FieldElement(k), GENERATOR)
    negated = GroupPoint(r_point.x, FIELD_PRIME - r_point.y)  # same x, so x = r
    unrelated = scalar_mul(FieldElement(k + 1), GENERATOR)
    assert FieldElement(unrelated.x) != sig.r_x
    for wrong in (negated, unrelated, GroupPoint.identity()):
        assert not ecdsa_verify(pk, message, sig, r_point=wrong)


def test_known_r_verify_rejects_the_negated_s_that_plain_verify_accepts():
    sk, k = FieldElement.random_nonzero(rng), FieldElement.random_nonzero(rng)
    pk, r_point = scalar_mul(sk, GENERATOR), scalar_mul(k, GENERATOR)
    sig = ecdsa_sign(sk, b"payload", k)
    flipped = Signature(sig.r_x, -sig.s)  # its point is -R
    assert ecdsa_verify(pk, b"payload", flipped)
    assert not ecdsa_verify(pk, b"payload", flipped, r_point=r_point)
    assert ecdsa_verify(pk, b"payload", flipped,
                        r_point=GroupPoint(r_point.x, FIELD_PRIME - r_point.y))


def test_known_r_verify_agrees_with_plain_verify_on_random_signatures():
    for _ in range(20):
        sk, k = FieldElement.random_nonzero(rng), FieldElement.random_nonzero(rng)
        pk, r_point = scalar_mul(sk, GENERATOR), scalar_mul(k, GENERATOR)
        msg = rng.randbytes(32)
        sig = ecdsa_sign(sk, msg, k)
        assert ecdsa_verify(pk, msg, sig, r_point=r_point)
        assert not ecdsa_verify(pk, msg + b"!", sig, r_point=r_point)
        assert not ecdsa_verify(scalar_mul(sk + FieldElement.one(), GENERATOR), msg, sig,
                                r_point=r_point)


# --- multi-scalar combinations, against the affine oracle -------------------------

def _oracle_lincomb(pairs):
    acc = None
    for k, point in pairs:
        if not point.is_identity():
            acc = _affine_add(acc, _naive_scalar_mul(k.value, (point.x, point.y)))
    return GroupPoint.identity() if acc is None else GroupPoint(*acc)


def _neg(point):
    return GroupPoint(point.x, FIELD_PRIME - point.y)


P1 = scalar_mul(FieldElement(0xC0FFEE), GENERATOR)
P2 = scalar_mul(FieldElement(0xFACADE), GENERATOR)
COMB_SCALARS = [0, 1, 2**16 - 1, 2**16 + 1, CURVE_ORDER // 2 - 1, CURVE_ORDER // 2 + 1,
                CURVE_ORDER - 1]


@pytest.mark.parametrize("k", COMB_SCALARS, ids=hex)
def test_lincomb_edge_scalars_match_oracle(k):
    for pairs in (
        [(FieldElement(k), P1)],
        [(FieldElement(k), GENERATOR), (FieldElement(k), P1)],
        [(FieldElement(k), P1), (FieldElement(CURVE_ORDER - 3), P2),
         (FieldElement.random(rng), GENERATOR)],
    ):
        assert lincomb(pairs) == _oracle_lincomb(pairs)


def test_lincomb_random_terms_match_oracle():
    points = [GENERATOR, P1, P2, scalar_mul(FieldElement.random_nonzero(rng), GENERATOR)]
    for size in range(1, 6):
        pairs = [(FieldElement.random(rng), rng.choice(points)) for _ in range(size)]
        assert lincomb(pairs) == _oracle_lincomb(pairs)


def test_lincomb_identity_and_repeated_terms():
    k = FieldElement.random_nonzero(rng)
    ident = GroupPoint.identity()
    assert lincomb([]).is_identity()
    assert lincomb([(k, ident)]).is_identity()
    assert lincomb([(k, ident), (k, P1)]) == scalar_mul(k, P1)
    # repeated points, including G, must hit the doubling case of the addition
    assert lincomb([(k, P1), (k, P1)]) == scalar_mul(k + k, P1)
    assert lincomb([(k, GENERATOR), (k, GENERATOR)]) == scalar_mul(k + k, GENERATOR)
    assert lincomb([(FieldElement(1), P1)] * 3) == scalar_mul(FieldElement(3), P1)
    assert lincomb([(k, P1), (FieldElement(5), GENERATOR), (k, P1)]) == _oracle_lincomb(
        [(k + k, P1), (FieldElement(5), GENERATOR)])
    # the G part is added after the interleaved loop: equal to the rest, it
    # must double
    c = FieldElement(0xC0FFEE)  # P1 = c * G
    assert lincomb([(FieldElement(1), P1), (c, GENERATOR)]) == scalar_mul(c + c, GENERATOR)
    assert lincomb([(k, P1), (k * c, GENERATOR)]) == scalar_mul(k + k, P1)


def test_lincomb_cancelling_terms_give_the_identity():
    k = FieldElement.random_nonzero(rng)
    assert lincomb([(k, P1), (k, _neg(P1))]).is_identity()
    assert lincomb([(k, P1), (-k, P1)]).is_identity()
    assert lincomb([(k, GENERATOR), (k, _neg(GENERATOR))]).is_identity()
    assert lincomb([(FieldElement(3), P2), (FieldElement(CURVE_ORDER - 3), P2)]).is_identity()
    # a G part opposite to the rest, and G weights that cancel among themselves
    c = FieldElement(0xC0FFEE)  # P1 = c * G
    assert lincomb([(FieldElement(1), P1), (-c, GENERATOR)]).is_identity()
    assert lincomb([(k, P1), (-(k * c), GENERATOR)]).is_identity()
    assert lincomb([(k, GENERATOR), (-k, GENERATOR), (k, P1)]) == scalar_mul(k, P1)
    # a partial cancellation leaves the rest
    assert lincomb([(k, P1), (k, _neg(P1)), (FieldElement(7), P2)]) == scalar_mul(
        FieldElement(7), P2)


def test_sign_without_explicit_nonce_samples_internally():
    pair = KeyPair.generate(rng)
    sig = ecdsa_sign(pair.sk, b"auto nonce", rng=rng)
    assert ecdsa_verify(pair.pk, b"auto nonce", sig)


def test_field_element_serialization_roundtrip():
    for _ in range(50):
        a = FieldElement.random(rng)
        assert FieldElement.from_bytes(a.to_bytes()) == a
    assert len(FieldElement.random(rng).to_bytes()) == 32


def test_field_element_rejects_unreduced_encoding():
    with pytest.raises(AlgebraError):
        FieldElement.from_bytes(CURVE_ORDER.to_bytes(32, "big"))
    with pytest.raises(AlgebraError):
        FieldElement.from_bytes((2**256 - 1).to_bytes(32, "big"))


def test_point_serialization_roundtrip():
    for _ in range(20):
        p = scalar_mul(FieldElement.random_nonzero(rng), GENERATOR)
        assert GroupPoint.from_bytes(p.to_bytes()) == p
    ident = GroupPoint.identity()
    assert GroupPoint.from_bytes(ident.to_bytes()).is_identity()


def test_point_deserialization_rejects_off_curve():
    good = GENERATOR.to_bytes()
    bad = good[:-1] + bytes([good[-1] ^ 1])
    with pytest.raises(AlgebraError):
        GroupPoint.from_bytes(bad)


def test_signature_serialization_roundtrip():
    sk = FieldElement.random_nonzero(rng)
    sig = ecdsa_sign(sk, b"x", FieldElement.random_nonzero(rng))
    assert Signature.from_bytes(sig.to_bytes()) == sig


def test_count_curve_ops_sees_curve_work():
    # criterion 7 reads this probe, so a probe that missed curve work would
    # make its zero vacuous
    k = FieldElement(CURVE_ORDER - 3)
    work = [
        ("_g_mul", lambda: scalar_mul(k, GENERATOR)),
        ("_combine", lambda: scalar_mul(k, OTHER_BASE)),
        ("_combine", lambda: lincomb([(k, P1), (FieldElement(9), GENERATOR)])),
        ("__add__", lambda: GENERATOR + GENERATOR),
    ]
    for name, step in work:
        with count_curve_ops() as ops:
            step()
        assert ops == [name]
    pair = KeyPair.generate(rng)
    sig = ecdsa_sign(pair.sk, b"probe", rng=rng)
    with count_curve_ops() as ops:
        _ = FieldElement(3) * FieldElement(4)  # field work is not counted
        assert tecdsa.ecdsa_verify(pair.pk, b"probe", sig)  # nor the signer's verify
    assert ops == []
