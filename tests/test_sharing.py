"""Sharing-scheme tests: dealing, linear ops, Open with checks, MAC batching."""

import itertools
import random

import pytest

from drpki.algebra import (
    CURVE_ORDER,
    FIELD_PRIME,
    GENERATOR,
    FieldElement,
    GroupPoint,
    scalar_mul,
)
from drpki.sharing import (
    BareShare,
    MacCheckAccumulator,
    MacKeyShare,
    ProtocolAbort,
    SchemeId,
    Share,
    SharingError,
    deal,
    generate_mac_keys,
    lagrange_coeffs_at,
    mac_check_evaluate,
    mac_commit,
    open_shares,
    open_point_shares,
    share_add,
    share_scale,
)

rng = random.Random(0xD21_02)

ALL_SCHEMES = list(SchemeId)
N, T = 5, 2


def _deal(scheme, secret, n=N, t=T, mac_keys=None):
    if scheme.has_mac and mac_keys is None:
        mac_keys = generate_mac_keys(n, rng)
    return deal(scheme, secret, n, t, rng, mac_keys), mac_keys


def test_shamir_deal_and_reconstruct_subset():
    shares, _ = _deal(SchemeId.SHAMIR, FieldElement(7))
    subset = [shares[0], shares[2], shares[4]]  # parties {1, 3, 5}
    assert open_shares(subset, N, T) == FieldElement(7)


def test_additive_deal_zero_secret():
    shares, _ = _deal(SchemeId.ADDITIVE, FieldElement.zero())
    total = FieldElement.zero()
    for s in shares:
        total = total + s.value
    assert total.is_zero()


def test_shamir_checked_all_subsets_agree():
    secret = FieldElement.random(rng)
    shares, _ = _deal(SchemeId.SHAMIR_CHECKED, secret)
    values = {
        open_shares(list(combo), N, T).value
        for combo in itertools.combinations(shares, 3)
    }
    assert values == {secret.value}


def test_additive_open_42():
    shares, _ = _deal(SchemeId.ADDITIVE, FieldElement(42))
    assert open_shares(shares, N, T) == FieldElement(42)


def test_lagrange_weights_for_points_1_2_3():
    # Solving the 3x3 Vandermonde system for eval points {1,2,3} at 0 by hand
    # gives weights {3, -3, 1}.
    xs = [FieldElement(1), FieldElement(2), FieldElement(3)]
    weights = lagrange_coeffs_at(xs, 0)
    assert weights[0] == FieldElement(3)
    assert weights[1] == FieldElement(CURVE_ORDER - 3)
    assert weights[2] == FieldElement(1)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_share_addition_opens_to_sum(scheme):
    mac_keys = generate_mac_keys(N, rng)
    xs, _ = _deal(scheme, FieldElement(3), mac_keys=mac_keys)
    ys, _ = _deal(scheme, FieldElement(4), mac_keys=mac_keys)
    summed = [share_add(x, y) for x, y in zip(xs, ys)]
    assert open_shares(summed, N, T) == FieldElement(7)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_scale_by_two_opens_to_double(scheme):
    mac_keys = generate_mac_keys(N, rng)
    xs, _ = _deal(scheme, FieldElement(5), mac_keys=mac_keys)
    scaled = [share_scale(x, FieldElement(2)) for x in xs]
    assert open_shares(scaled, N, T) == FieldElement(10)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_linearity_random_combinations(scheme):
    mac_keys = generate_mac_keys(N, rng)
    for _ in range(10):
        secrets_ = [FieldElement.random(rng) for _ in range(3)]
        coeffs = [FieldElement.random(rng) for _ in range(3)]
        dealt = [_deal(scheme, s, mac_keys=mac_keys)[0] for s in secrets_]
        combined = None
        for c, shares in zip(coeffs, dealt):
            scaled = [share_scale(sh, c) for sh in shares]
            combined = scaled if combined is None else [
                share_add(a, b) for a, b in zip(combined, scaled)
            ]
        want = FieldElement.zero()
        for c, s in zip(coeffs, secrets_):
            want = want + c * s
        assert open_shares(combined, N, T) == want


def test_scheme_mismatch_rejected():
    a, _ = _deal(SchemeId.ADDITIVE, FieldElement(1))
    b, _ = _deal(SchemeId.SHAMIR, FieldElement(2))
    with pytest.raises(SharingError, match="mismatch"):
        share_add(a[0], b[0])


def test_invalid_parameters_rejected():
    with pytest.raises(SharingError):
        deal(SchemeId.SHAMIR, FieldElement(1), n=5, t=0, rng=rng)
    with pytest.raises(SharingError):
        deal(SchemeId.SHAMIR, FieldElement(1), n=5, t=5, rng=rng)
    with pytest.raises(SharingError):
        deal(SchemeId.ADDITIVE, FieldElement(1), n=1, rng=rng)


def _open(kind, shares):
    """Open field shares as they are, or their images under x -> x*G."""
    if kind == "field":
        return open_shares(shares, N, T)
    points = [BareShare(s.scheme, s.owner, scalar_mul(s.value, GENERATOR)) for s in shares]
    return open_point_shares(points, N, T)


OPEN_KINDS = ["field", "point"]


@pytest.mark.parametrize("kind", OPEN_KINDS)
def test_additive_open_requires_all_shares(kind):
    shares, _ = _deal(SchemeId.ADDITIVE, FieldElement(8))
    with pytest.raises(SharingError, match="needs all 5"):
        _open(kind, shares[:4])


@pytest.mark.parametrize("kind", OPEN_KINDS)
def test_shamir_open_requires_threshold(kind):
    shares, _ = _deal(SchemeId.SHAMIR, FieldElement(8))
    with pytest.raises(SharingError, match="needs at least 3"):
        _open(kind, shares[:2])


@pytest.mark.parametrize("kind", OPEN_KINDS)
def test_open_rejects_duplicate_owners(kind):
    shares, _ = _deal(SchemeId.SHAMIR_CHECKED, FieldElement(8))
    with pytest.raises(SharingError, match="duplicate share owners"):
        _open(kind, shares[:4] + [shares[0]])


@pytest.mark.parametrize("kind", OPEN_KINDS)
def test_open_rejects_mixed_schemes(kind):
    additive, _ = _deal(SchemeId.ADDITIVE, FieldElement(8))
    shamir, _ = _deal(SchemeId.SHAMIR, FieldElement(8))
    with pytest.raises(SharingError, match="scheme mismatch"):
        _open(kind, additive[:4] + [shamir[4]])


def test_shamir_checked_detects_single_perturbation():
    shares, _ = _deal(SchemeId.SHAMIR_CHECKED, FieldElement(77))
    bad = Share(
        shares[3].scheme,
        shares[3].owner,
        shares[3].value + FieldElement.one(),
    )
    tampered = shares[:3] + [bad] + shares[4:]
    with pytest.raises(ProtocolAbort, match="corrupted share detected"):
        open_shares(tampered, N, T)


def test_threshold_secrecy_two_shares_fit_any_secret():
    # Any 2 shares of a t=2 sharing are consistent with every candidate
    # secret: a degree-2 polynomial exists through (0, s') and both points.
    shares, _ = _deal(SchemeId.SHAMIR, FieldElement.random(rng))
    s1, s2 = shares[1], shares[4]
    for _ in range(10):
        candidate = FieldElement.random(rng)
        xs = [FieldElement.zero(), FieldElement(s1.owner), FieldElement(s2.owner)]
        ys = [candidate, s1.value, s2.value]
        # interpolate the quadratic and re-evaluate at all three points
        for x_target, y_target in zip(xs, ys):
            acc = FieldElement.zero()
            for i, xi in enumerate(xs):
                num, den = FieldElement.one(), FieldElement.one()
                for j, xj in enumerate(xs):
                    if i != j:
                        num = num * (x_target - xj)
                        den = den * (xi - xj)
                acc = acc + ys[i] * num * den.inv()
            assert acc == y_target


def test_tamper_detection_randomized_trials():
    # 1000 fault-injection trials across the two checked schemes; every
    # single-share perturbation must abort.
    mac_keys = generate_mac_keys(N, rng)
    for trial in range(500):
        shares, _ = _deal(SchemeId.SHAMIR_CHECKED, FieldElement.random(rng))
        victim = rng.randrange(N)
        delta = FieldElement.random_nonzero(rng)
        bad = Share(
            shares[victim].scheme,
            shares[victim].owner,
            shares[victim].value + delta,
        )
        tampered = shares[:victim] + [bad] + shares[victim + 1:]
        with pytest.raises(ProtocolAbort):
            open_shares(tampered, N, T)
    for trial in range(500):
        secret = FieldElement.random(rng)
        shares, _ = _deal(SchemeId.ADDITIVE_MAC, secret, mac_keys=mac_keys)
        victim = rng.randrange(N)
        delta = FieldElement.random_nonzero(rng)
        opened = open_shares(shares, N, T) + delta  # broadcast perturbed by victim
        accs = [MacCheckAccumulator(b"session") for _ in range(N)]
        for acc, sh in zip(accs, shares):
            acc.record(opened, sh.mac)
        commitments, reveals = {}, {}
        for mk, acc in zip(mac_keys, accs):
            sigma = acc.sigma(mk)
            opening = rng.randbytes(32)
            commitments[mk.owner] = mac_commit(sigma, opening)
            reveals[mk.owner] = (sigma, opening)
        with pytest.raises(ProtocolAbort, match="MAC check failed"):
            mac_check_evaluate(commitments, reveals)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_point_share_reconstruction_commutes_with_embedding(scheme):
    mac_keys = generate_mac_keys(N, rng)
    secret = FieldElement.random(rng)
    shares, _ = _deal(scheme, secret, mac_keys=mac_keys)
    point_shares = [
        BareShare(scheme, s.owner, scalar_mul(s.value, GENERATOR)) for s in shares
    ]
    assert open_point_shares(point_shares, N, T) == scalar_mul(secret, GENERATOR)


def test_point_share_checked_detects_perturbation():
    shares, _ = _deal(SchemeId.SHAMIR_CHECKED, FieldElement.random(rng))
    point_shares = [
        BareShare(s.scheme, s.owner, scalar_mul(s.value, GENERATOR)) for s in shares
    ]
    # Positions 1-3 feed the interpolation, 4-5 are the redundant checks.
    for victim in range(N):
        bad = BareShare(
            point_shares[victim].scheme,
            point_shares[victim].owner,
            point_shares[victim].value + GENERATOR,
        )
        tampered = point_shares[:victim] + [bad] + point_shares[victim + 1:]
        with pytest.raises(ProtocolAbort, match="corrupted share detected"):
            open_point_shares(tampered, N, T)


@pytest.mark.parametrize("live", [(1, 2, 4, 5), (1, 3, 5)])
def test_point_share_checked_opens_from_non_consecutive_parties(live):
    # Lagrange weights over these sets are full-width fractions mod the
    # order, not the small integers of the parties {1, 2, 3}.
    secret = FieldElement.random(rng)
    shares, _ = _deal(SchemeId.SHAMIR_CHECKED, secret)
    point_shares = [
        BareShare(s.scheme, s.owner, scalar_mul(s.value, GENERATOR))
        for s in shares if s.owner in live
    ]
    assert open_point_shares(point_shares, N, T) == scalar_mul(secret, GENERATOR)


def _points(shares):
    return [BareShare(s.scheme, s.owner, scalar_mul(s.value, GENERATOR)) for s in shares]


@pytest.mark.parametrize("zero_at", [1, 3, 4, 5])
def test_point_share_checked_opens_with_an_identity_share(zero_at):
    # f(x) = (x - zero_at)(a x + b) has degree T and gives party zero_at the
    # share 0, whose point is the identity: in the interpolation set (1, 3)
    # or among the checked extras (4, 5)
    a, b = FieldElement.random(rng), FieldElement.random_nonzero(rng)
    scheme = SchemeId.SHAMIR_CHECKED

    def f(x):
        x = FieldElement(x)
        return (x - FieldElement(zero_at)) * (a * x + b)

    shares = [Share(scheme, i, f(i)) for i in range(1, N + 1)]
    point_shares = _points(shares)
    assert point_shares[zero_at - 1].value.is_identity()
    assert open_point_shares(point_shares, N, T) == scalar_mul(f(0), GENERATOR)
    # and a share replaced by the identity is caught like any other change
    victim = zero_at % N  # a party whose share is not the identity
    tampered = list(point_shares)
    tampered[victim] = BareShare(scheme, victim + 1, GroupPoint.identity())
    with pytest.raises(ProtocolAbort, match="corrupted share detected"):
        open_point_shares(tampered, N, T)


@pytest.mark.parametrize("live", [(1, 2, 3, 4, 5), (1, 2, 4, 5), (2, 3, 5, 1)])
def test_point_share_checked_detects_negated_or_doubled_share_at_each_position(live):
    shares, _ = _deal(SchemeId.SHAMIR_CHECKED, FieldElement.random(rng))
    point_shares = [p for p in _points(shares) if p.owner in live]
    for victim, share in enumerate(point_shares):
        pt = share.value
        for bad in (GroupPoint(pt.x, FIELD_PRIME - pt.y), pt + pt):
            tampered = list(point_shares)
            tampered[victim] = BareShare(share.scheme, share.owner, bad)
            with pytest.raises(ProtocolAbort, match="corrupted share detected"):
                open_point_shares(tampered, N, T)


@pytest.mark.parametrize("scheme", [SchemeId.ADDITIVE, SchemeId.ADDITIVE_MAC])
def test_additive_point_open_sums_identity_and_cancelling_shares(scheme):
    p = scalar_mul(FieldElement.random_nonzero(rng), GENERATOR)
    minus_p = GroupPoint(p.x, FIELD_PRIME - p.y)
    values = [p, GroupPoint.identity(), minus_p, GENERATOR, GENERATOR]
    shares = [BareShare(scheme, i + 1, v) for i, v in enumerate(values)]
    assert open_point_shares(shares, N, T) == scalar_mul(FieldElement(2), GENERATOR)


# --- MAC check ----------------------------------------------------------------

def test_mac_sigma_hand_checkable_identity():
    # alpha = 3, a = 5, MAC shares summing to 15: the sigmas must cancel.
    alphas = [MacKeyShare(1, FieldElement(1)), MacKeyShare(2, FieldElement(2))]
    a = FieldElement(5)
    mac_shares = [FieldElement(6), FieldElement(9)]  # sum to 15
    total = FieldElement.zero()
    for mk, gamma in zip(alphas, mac_shares):
        acc = MacCheckAccumulator(b"tiny")
        acc.record(a, gamma)
        total = total + acc.sigma(mk)
    assert total.is_zero()


def test_mac_check_broadcast_error_enumeration():
    # Two-party model: for every small broadcast error delta and a few
    # full-width ones, the weighted sigma sum equals -w*alpha*delta and must be
    # nonzero whenever alpha*delta != 0 mod n.
    tiny = random.Random(7)
    alphas = [FieldElement(40), FieldElement(12)]  # alpha = 52
    alpha = alphas[0] + alphas[1]
    a = FieldElement(33)
    gamma = alpha * a
    gamma_shares = [FieldElement(17), gamma - FieldElement(17)]
    deltas = list(range(1, 101)) + [CURVE_ORDER - 1, CURVE_ORDER // 2, CURVE_ORDER // 2 + 1]
    deltas += [tiny.getrandbits(256) % CURVE_ORDER or 1 for _ in range(5)]
    for delta in deltas:
        opened = a + FieldElement(delta)
        total = FieldElement.zero()
        weight = None
        for alpha_i, gamma_i in zip(alphas, gamma_shares):
            acc = MacCheckAccumulator(b"tiny")
            acc.record(opened, gamma_i)
            if weight is None:
                weight = acc.weights()[0]
            total = total + acc.sigma(MacKeyShare(1, alpha_i))
        expected = -(weight * alpha * FieldElement(delta))
        assert total == expected
        if not (weight * alpha).is_zero():
            assert not total.is_zero()


def test_mac_check_honest_batch_passes():
    mac_keys = generate_mac_keys(N, rng)
    accs = [MacCheckAccumulator(b"s1") for _ in range(N)]
    for _ in range(10):
        secret = FieldElement.random(rng)
        shares, _ = _deal(SchemeId.ADDITIVE_MAC, secret, mac_keys=mac_keys)
        opened = open_shares(shares, N, T)
        assert opened == secret
        for acc, sh in zip(accs, shares):
            acc.record(opened, sh.mac)
    commitments, reveals = {}, {}
    for mk, acc in zip(mac_keys, accs):
        sigma = acc.sigma(mk)
        opening = rng.randbytes(32)
        commitments[mk.owner] = mac_commit(sigma, opening)
        reveals[mk.owner] = (sigma, opening)
    mac_check_evaluate(commitments, reveals)  # must not raise


def test_mac_check_detects_equivocation():
    mk = MacKeyShare(1, FieldElement(3))
    sigma = FieldElement(5)
    opening = bytes(32)
    commitments = {1: mac_commit(sigma, opening)}
    reveals = {1: (FieldElement(6), opening)}
    with pytest.raises(ProtocolAbort, match="equivocation detected"):
        mac_check_evaluate(commitments, reveals)


# --- wire encoding --------------------------------------------------------------

@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_share_wire_roundtrip(scheme):
    mac_keys = generate_mac_keys(N, rng)
    shares, _ = _deal(scheme, FieldElement.random(rng), mac_keys=mac_keys)
    for s in shares:
        decoded = Share.from_bytes(s.to_bytes())
        assert decoded == s
        expected_len = 66 if scheme.has_mac else 34
        assert len(s.to_bytes()) == expected_len


def test_share_wire_rejects_malformed():
    with pytest.raises(SharingError):
        Share.from_bytes(b"\x00\x01")
    shares, _ = _deal(SchemeId.ADDITIVE, FieldElement(1))
    with pytest.raises(SharingError):
        Share.from_bytes(shares[0].to_bytes() + b"\x00")
