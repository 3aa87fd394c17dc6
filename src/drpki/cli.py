"""drpki command line: node operations, benchmarks, and churn analysis.

Most commands drive the five-node simulation against a config file and a
data directory, so state (keys, tuples, published objects, tickets) persists
between invocations.  `serve` runs one party over TCP instead; see the
README for the multi-process workflow.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import secrets
import sys
import time
from pathlib import Path
from typing import NoReturn

from .algebra import AlgebraError, FieldElement, GroupPoint, KeyPair
from .analysis import capacity_report, compute_churn, ingest, write_capacity_json, write_plot_csv
from .bench import (
    PHASES,
    WAN_RTT_MS,
    load_latency_matrix,
    one_way_delays,
    run_benchmarks,
    save_latency_matrix,
    read_csv as read_bench_csv,
)
from .durable import RecordError
from .preprocessing import PreprocessingError
from .rpki import (
    Action,
    ConsentToken,
    CrlRecord,
    IpPrefix,
    RoaRecord,
    Signature,
    ValidationError,
    sign_consent,
)
from .runtime import ConsentPolicy, LocalCluster, SignRequest
from .sharing import SCHEME_NAMES, ProtocolAbort, SchemeId
from .tecdsa import ProtocolConfig, TecdsaError


def _fail(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(1)


# --- config ---------------------------------------------------------------------

# the [policy] keys, each a ConsentPolicy field, and how to read its value;
# an absent key takes the field's default
POLICY_KEYS = {
    "flag_on_failed_consent": configparser.ConfigParser.getboolean,
    "low_watermark": configparser.ConfigParser.getint,
    "batch_size": configparser.ConfigParser.getint,
}


def write_default_config(path: Path, scheme: str, data_dir: str,
                         seed: int | None, flag_policy: bool,
                         precompute_r: bool, latency: str | None,
                         port_base: int = 7100) -> None:
    cfg = configparser.ConfigParser()
    cfg["cluster"] = {
        "scheme": scheme,
        "data_dir": data_dir,
        "test_mode": "false",
        "precompute_r": str(precompute_r).lower(),
        "timeout": "10",
        # shared by all parties: authenticates every pairwise channel
        "pair_secret": secrets.token_bytes(32).hex(),
        # dealer output consumed by TCP serve mode (see `drpki deal`)
        "triple_dir": str(Path(data_dir) / "dealer"),
    }
    if seed is not None:
        cfg["cluster"]["seed"] = str(seed)
    policy = ConsentPolicy(flag_on_failed_consent=flag_policy)
    cfg["policy"] = {key: str(getattr(policy, key)).lower() for key in POLICY_KEYS}
    cfg["addresses"] = {
        f"party{i}": f"127.0.0.1:{port_base + i}" for i in range(1, 6)
    }
    if latency:
        cfg["latency"] = {"matrix": latency}
    with open(path, "w") as out:
        cfg.write(out)


def load_config(path: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    if not cfg.read(path):
        _fail(f"config file not found: {path}")
    return cfg


def protocol_config(cfg: configparser.ConfigParser) -> ProtocolConfig:
    """The protocol parameters of a config's [cluster] section, for every
    command that starts nodes or deals for them."""
    section = cfg["cluster"]
    scheme = SCHEME_NAMES.get(section.get("scheme", "shamir"))
    if scheme is None:
        _fail(f"unknown scheme {section.get('scheme')!r}")
    test_mode = section.getboolean("test_mode", False)
    if os.environ.get("DRPKI_TEST_MODE") == "1" and not test_mode:
        _fail("DRPKI_TEST_MODE=1 refuses to start with a production config "
              "(set test_mode = true in the config to allow reconstruction oracles)")
    return ProtocolConfig.for_scheme(
        scheme,
        test_mode=test_mode,
        precompute_r=section.getboolean("precompute_r", False),
    )


def cluster_from_config(cfg: configparser.ConfigParser) -> LocalCluster:
    section = cfg["cluster"]
    proto = protocol_config(cfg)
    default = ConsentPolicy()
    policy = ConsentPolicy(**{key: read(cfg, "policy", key, fallback=getattr(default, key))
                              for key, read in POLICY_KEYS.items()})
    latency = None
    if cfg.has_section("latency") and cfg["latency"].get("matrix"):
        latency = one_way_delays(load_latency_matrix(cfg["latency"]["matrix"]))
    seed = section.getint("seed") if section.get("seed") else None
    return LocalCluster(
        proto,
        data_dir=section.get("data_dir"),
        seed=seed,
        latency_ms=latency,
        policy=policy,
        timeout=section.getfloat("timeout", 10.0),
    )


# --- input files -----------------------------------------------------------------

def _read_json(path: str) -> dict:
    """The JSON object an input file holds; a file that cannot be read or
    holds no JSON object raises ValidationError naming it."""
    try:
        blob = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValidationError(f"{path} is not JSON: {exc}") from None
    if not isinstance(blob, dict):
        raise ValidationError(f"{path} holds no JSON object")
    return blob


def _key_file_field(path: str, name: str, decode):
    """Field `name` ("sk" or "pk") of a `member new-key` file, hex-decoded
    and then passed to `decode`."""
    blob = _read_json(path)
    try:
        return decode(bytes.fromhex(blob[name]))
    except (KeyError, TypeError, ValueError, AlgebraError) as exc:
        raise ValidationError(f"{path} is not a member key file: {exc!r}") from None


def record_from_json(path: str, ee_pk: GroupPoint | None = None):
    """Build a ROA or CRL record from the documented JSON description."""
    blob = _read_json(path)
    try:
        return _record_from_blob(blob, path, ee_pk)
    except (KeyError, TypeError, ValueError, AlgebraError) as exc:
        raise ValidationError(f"{path} is not an object description: {exc!r}") from None


def _record_from_blob(blob: dict, path: str, ee_pk: GroupPoint | None):
    kind = blob.get("kind")
    if kind == "roa":
        prefixes = tuple(
            IpPrefix.parse(p["prefix"], p.get("max_length"))
            for p in blob["prefixes"]
        )
        pk = ee_pk
        if blob.get("ee_pk"):
            pk = GroupPoint.from_bytes(bytes.fromhex(blob["ee_pk"]))
        if pk is None:
            _fail("ROA description needs ee_pk (or sign for a member with a key)")
        return RoaRecord(
            serial=int(blob["serial"]),
            member_id=blob["member"],
            asn=int(blob["asn"]),
            prefixes=prefixes,
            not_before=int(blob["not_before"]),
            not_after=int(blob["not_after"]),
            ee_pk=pk,
        )
    if kind == "crl":
        return CrlRecord(
            issuer_id=blob["issuer"],
            this_update=int(blob["this_update"]),
            revoked_serials=tuple(sorted(int(s) for s in blob["revoked_serials"])),
        )
    _fail(f"unsupported object kind {kind!r} in {path}")


# --- commands ------------------------------------------------------------------------

def cmd_init(args) -> int:
    path = Path(args.dir)
    path.mkdir(parents=True, exist_ok=True)
    latency = None
    if args.wan:
        latency = str(path / "wan_latency.csv")
        save_latency_matrix(WAN_RTT_MS, latency)
    config_path = path / "drpki.ini"
    write_default_config(config_path, args.scheme, str(path / "data"),
                         args.seed, args.flag_on_failed_consent,
                         args.precompute_r, latency, args.port_base)
    print(f"wrote {config_path}")
    return 0


def cmd_keygen(args) -> int:
    cluster = cluster_from_config(load_config(args.config))
    try:
        pk = cluster.keygen(args.member)
        print(f"member {args.member}: pk {pk.to_bytes().hex()}")
    finally:
        cluster.close()
    return 0


def cmd_preprocess(args) -> int:
    text = str(args.independent) if args.independent is not None else args.member[1]
    if not text.isdigit() or int(text) < 1:
        _fail(f"the tuple count must be a positive integer, got {text}")
    count = int(text)
    cluster = cluster_from_config(load_config(args.config))
    try:
        if args.independent is not None:
            made = cluster.preprocess_independent(count)
            print(f"generated {made} initial tuples "
                  f"(stock {cluster.initial_stock()})")
        else:
            member = args.member[0]
            made = cluster.preprocess_dependent(member, count)
            print(f"generated {made} final tuples for {member} "
                  f"(stock {cluster.final_stock(member)})")
    finally:
        cluster.close()
    return 0


def cmd_sign(args) -> int:
    cluster = cluster_from_config(load_config(args.config))
    try:
        member_pk = None
        records = cluster.nodes[cluster.participants[0]].key_records
        if args.member in records:
            member_pk = records[args.member].pk
        record = record_from_json(args.infile, ee_pk=member_pk)
        token = consent_token_from_file(args.consent) if args.consent else None
        request = SignRequest(args.member, Action[args.action], [record], token)
        outcome = cluster.handle_sign_request(request)
        if outcome.status == "published":
            for obj in outcome.objects:
                name = cluster.nodes[cluster.participants[0]].object_filename(obj)
                print(f"published {name} (digest {obj.digest.hex()})")
            return 0
        if outcome.status == "flagged":
            print(f"flagged for manual intervention: ticket {outcome.ticket_id} "
                  f"({outcome.reason})")
            return 2
        print(f"aborted: {outcome.reason}")
        return 1
    finally:
        cluster.close()


def consent_token_to_file(token: ConsentToken, path: str) -> None:
    Path(path).write_text(json.dumps({
        "member": token.member_id,
        "action": token.action.name,
        "object_digest": token.object_digest.hex(),
        "expiry": token.expiry,
        "signature": token.member_signature.to_bytes().hex(),
        "r_point": token.r_point.to_bytes().hex(),
    }, indent=2))


def consent_token_from_file(path: str) -> ConsentToken:
    """The token a `consent issue` file holds.  A file of the earlier format,
    without "r_point", or with a field that does not decode (an R off the
    curve among them) raises ValidationError naming the file."""
    blob = _read_json(path)
    if "r_point" not in blob:
        raise ValidationError(f"{path} holds no r_point: a consent token file of the "
                              "earlier format, so issue the token again")
    try:
        return ConsentToken(
            blob["member"],
            Action[blob["action"]],
            bytes.fromhex(blob["object_digest"]),
            int(blob["expiry"]),
            Signature.from_bytes(bytes.fromhex(blob["signature"])),
            GroupPoint.from_bytes(bytes.fromhex(blob["r_point"])),
        )
    except (KeyError, TypeError, ValueError, AlgebraError) as exc:
        raise ValidationError(f"{path} is not a consent token file: {exc!r}") from None


def cmd_member(args) -> int:
    if args.member_cmd == "new-key":
        pair = KeyPair.generate()
        Path(args.out).write_text(json.dumps({
            "sk": f"{pair.sk.value:064x}",
            "pk": pair.pk.to_bytes().hex(),
        }))
        print(f"wrote member keypair to {args.out}")
        print(f"public key: {pair.pk.to_bytes().hex()}")
        return 0
    if args.member_cmd == "register":
        pk = _key_file_field(args.key, "pk", GroupPoint.from_bytes)
        cluster = cluster_from_config(load_config(args.config))
        try:
            cluster.register_member(args.member, pk)
            print(f"registered consent key for {args.member} at all parties")
        finally:
            cluster.close()
        return 0
    _fail("unknown member subcommand")


def cmd_consent(args) -> int:
    if args.consent_cmd == "issue":
        sk = _key_file_field(args.key, "sk", FieldElement.from_bytes)
        cluster = cluster_from_config(load_config(args.config)) if args.config else None
        try:
            ee_pk = None
            if cluster is not None:
                records = cluster.nodes[cluster.participants[0]].key_records
                if args.member in records:
                    ee_pk = records[args.member].pk
            payloads = [record_from_json(p, ee_pk=ee_pk) for p in args.payload]
            expiry = int(time.time()) + args.ttl
            token = sign_consent(sk, args.member, Action[args.action], payloads, expiry)
            consent_token_to_file(token, args.out)
            print(f"wrote consent token to {args.out} (expires {expiry})")
        finally:
            if cluster is not None:
                cluster.close()
        return 0
    if args.consent_cmd == "show":
        token = consent_token_from_file(args.token)
        print(f"member:  {token.member_id}")
        print(f"action:  {token.action.name}")
        print(f"digest:  {token.object_digest.hex()}")
        print(f"expiry:  {token.expiry}")
        return 0
    _fail("unknown consent subcommand")


def cmd_intervene(args) -> int:
    cluster = cluster_from_config(load_config(args.config))
    try:
        if args.intervene_cmd == "list":
            seen = {}
            for node in cluster.nodes.values():
                for ticket in node.tickets.values():
                    entry = seen.setdefault(ticket.ticket_id, {
                        "member": ticket.member_id,
                        "action": ticket.action.name,
                        "reason": ticket.reason,
                        "approvals": 0,
                        "completed": ticket.completed,
                    })
                    entry["approvals"] += int(ticket.approved)
                    entry["completed"] |= ticket.completed
            for tid, entry in sorted(seen.items()):
                state = "completed" if entry["completed"] else f"{entry['approvals']} approvals"
                print(f"{tid}  {entry['action']:8s} {entry['member']:16s} "
                      f"{entry['reason']:16s} {state}")
            return 0
        if args.intervene_cmd == "approve":
            count = cluster.approve_ticket(args.ticket, args.party)
            needed = cluster.config.quorum
            print(f"ticket {args.ticket}: {count}/{needed} approvals")
            if count >= needed and args.complete:
                outcome = cluster.complete_ticket(args.ticket)
                print(f"completed: {outcome.status}")
            return 0
    finally:
        cluster.close()
    _fail("unknown intervene subcommand")


def cmd_bench(args) -> int:
    schemes = (
        list(SchemeId)
        if args.scheme == "all"
        else [SCHEME_NAMES[args.scheme]]
    )
    settings = ("lan", "wan") if args.setting == "all" else (args.setting,)
    phases = PHASES if args.phases == "all" else tuple(args.phases.split(","))
    rtt = load_latency_matrix(args.latency_matrix) if args.latency_matrix else None
    rows = run_benchmarks(
        schemes=schemes, settings=settings, phases=phases,
        out_csv=args.out, repetitions=args.reps, tuples=args.tuples,
        signatures=args.signatures, seed=args.seed, rtt_ms=rtt,
    )
    for row in rows:
        print(f"{row.scheme:10s} {row.setting:4s} {row.phase:13s} "
              f"mean {row.mean_ms:9.2f} ms  per-unit {row.per_unit_ms:8.3f} ms  "
              f"{row.throughput_per_s:8.2f}/s  {row.bytes_per_party:9.1f} B/party  "
              f"[{row.status}]")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_analyze(args) -> int:
    snapshots = ingest(args.archive)
    churn = compute_churn(snapshots)
    bench_rows = read_bench_csv(args.bench) if args.bench else []
    report = capacity_report(churn, bench_rows)
    write_capacity_json(report, args.out)
    print(f"window {report['window']['first_day']} .. {report['window']['last_day']} "
          f"({report['window']['days']} days)")
    print(f"mean required: {report['mean_required_per_day']:.1f} signatures/day "
          f"(max {report['max_required_per_day']})")
    for entry in report["per_scheme"]:
        mean_h = entry["headroom_mean"]
        mean_text = mean_h if isinstance(mean_h, str) else f"{mean_h:.2f}x"
        flagged = len(entry["flagged_days"])
        print(f"  {entry['scheme']:10s} {entry['setting']:4s} "
              f"{entry['signatures_per_second']:8.2f} sig/s -> headroom {mean_text}"
              + (f"  ({flagged} days flagged)" if flagged else ""))
    if args.plot_csv:
        write_plot_csv(churn, args.plot_csv)
        print(f"wrote per-day series to {args.plot_csv}")
    print(f"wrote {args.out}")
    return 0


def cmd_serve(args) -> int:
    from .serve import serve_node

    return serve_node(args.config, args.party, args.script)


def cmd_deal(args) -> int:
    from .serve import deal_to_files

    return deal_to_files(args.config, args.count, args.out, args.masks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drpki",
        description="Distributed RPKI signing toolkit (five-party threshold ECDSA)",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("init", help="write a config file and data layout")
    p.add_argument("--dir", required=True)
    p.add_argument("--scheme", choices=sorted(SCHEME_NAMES), default="shamir")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--flag-on-failed-consent", action="store_true")
    p.add_argument("--precompute-r", action="store_true")
    p.add_argument("--wan", action="store_true",
                   help="also write the measured inter-region latency matrix")
    p.add_argument("--port-base", type=int, default=7100,
                   help="TCP serve mode binds party K to port BASE+K")
    p.set_defaults(fn=cmd_init)

    p = sub.add_parser("keygen", help="generate a member's distributed signing key")
    p.add_argument("--config", required=True)
    p.add_argument("--member", required=True)
    p.set_defaults(fn=cmd_keygen)

    p = sub.add_parser("preprocess", help="generate preprocessing tuples")
    p.add_argument("--config", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--independent", type=int, metavar="N")
    group.add_argument("--member", nargs=2, metavar=("MEMBER", "N"))
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("sign", help="consent-gated signing of a ROA or CRL")
    p.add_argument("--config", required=True)
    p.add_argument("--member", required=True)
    p.add_argument("--action", choices=[a.name for a in Action], default="ISSUE")
    p.add_argument("--in", dest="infile", required=True,
                   help="JSON object description")
    p.add_argument("--consent", help="consent token file")
    p.set_defaults(fn=cmd_sign)

    p = sub.add_parser("member", help="member consent-key management")
    msub = p.add_subparsers(dest="member_cmd", required=True)
    m = msub.add_parser("new-key")
    m.add_argument("--out", required=True)
    m = msub.add_parser("register")
    m.add_argument("--config", required=True)
    m.add_argument("--member", required=True)
    m.add_argument("--key", required=True)
    p.set_defaults(fn=cmd_member)

    p = sub.add_parser("consent", help="create or inspect consent tokens")
    csub = p.add_subparsers(dest="consent_cmd", required=True)
    c = csub.add_parser("issue")
    c.add_argument("--key", required=True, help="member keypair file")
    c.add_argument("--member", required=True)
    c.add_argument("--action", choices=[a.name for a in Action], required=True)
    c.add_argument("--payload", action="append", required=True,
                   help="JSON object description (repeat for transfers)")
    c.add_argument("--ttl", type=int, default=24 * 3600)
    c.add_argument("--config", help="config (to resolve the member's EE key)")
    c.add_argument("--out", required=True)
    c = csub.add_parser("show")
    c.add_argument("token")
    p.set_defaults(fn=cmd_consent)

    p = sub.add_parser("intervene", help="manual-intervention tickets")
    isub = p.add_subparsers(dest="intervene_cmd", required=True)
    i = isub.add_parser("list")
    i.add_argument("--config", required=True)
    i = isub.add_parser("approve")
    i.add_argument("ticket")
    i.add_argument("--config", required=True)
    i.add_argument("--party", type=int, required=True)
    i.add_argument("--complete", action="store_true",
                   help="run the flagged request once the quorum is reached")
    p.set_defaults(fn=cmd_intervene)

    p = sub.add_parser("serve", help="run one party over TCP")
    p.add_argument("--config", required=True)
    p.add_argument("--party", type=int, required=True)
    p.add_argument("--script", help="operations file; this party initiates")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("deal", help="write dealer preprocessing files for TCP mode")
    p.add_argument("--config", required=True)
    p.add_argument("--count", type=int, default=64,
                   help="dealer records per party; each serves one final tuple")
    p.add_argument("--masks", type=int, default=16,
                   help="random sharings per party; each serves one keygen")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_deal)

    p = sub.add_parser("bench", help="run the benchmark harness")
    p.add_argument("--scheme", choices=sorted(SCHEME_NAMES) + ["all"], default="all")
    p.add_argument("--setting", choices=["lan", "wan", "all"], default="lan")
    p.add_argument("--phases", default="all",
                   help="'all' or comma list of keygen,preprocessing,online")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--tuples", type=int, default=1000)
    p.add_argument("--signatures", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--latency-matrix", help="5x5 RTT ms table (default: measured)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("analyze", help="ROA churn and capacity analysis")
    p.add_argument("--archive", required=True,
                   help="listing file or directory of per-day listings")
    p.add_argument("--bench", help="benchmark CSV for capacity comparison")
    p.add_argument("--out", required=True, help="capacity JSON output")
    p.add_argument("--plot-csv", help="also write the per-day series")
    p.set_defaults(fn=cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (RecordError, TecdsaError, ProtocolAbort, ValidationError,
            PreprocessingError) as exc:
        _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
