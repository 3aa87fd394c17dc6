"""In-memory span recorder for the traced benchmark run, and its drpki wrap points.

A span records its name, start, end, parent span and the request it served.
Wrappers are installed, for the traced part of a run only, at the names the
calling module looks up (``drpki.runtime.node.sign_online``,
``drpki.sharing.scalar_mul``, ``PartySession.run_round`` ...); nothing in the
package itself is edited.  Spans stay in memory and are written out when the
run ends.

Request attribution: a client thread opens ``Tracer.request(rid, member)``.
Party threads are spawned fresh for every protocol phase, so each serves
exactly one phase of one request; the first wrapped call on such a thread
that carries a member id binds the thread to that member's in-flight request
(the cluster's member lock keeps at most one per member).  Spans opened on
the thread before the binding share its context object and are attributed
too.  A thread that never sees a member id (``preprocess_independent``) falls
back to the only request in flight, when there is exactly one.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Optional


class _Ctx:
    __slots__ = ("rid",)

    def __init__(self, rid: Optional[str]) -> None:
        self.rid = rid


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.ctx = _Ctx(None)


class Span:
    """One wrapped call, timed on the wall clock and on its thread's CPU clock."""

    __slots__ = ("sid", "name", "start", "end", "child", "cpu_start", "cpu_end",
                 "cpu_child", "parent", "ctx", "fallback", "attrs", "error")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part covered by child spans on the same thread."""
        return self.end - self.start - self.child

    @property
    def self_cpu(self) -> float:
        """CPU time of the thread inside the span, minus that of child spans.

        Under the interpreter lock a party thread's wall time inside a span
        also counts the other parties' turns, so compute layers report this.
        """
        return self.cpu_end - self.cpu_start - self.cpu_child

    @property
    def rid(self) -> Optional[str]:
        return self.ctx.rid or self.fallback


# request id of the spans recorded while a lifetime is set up
SETUP_RID = "setup"


class Tracer:
    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[Span] = []
        self._state = _ThreadState()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._members: dict[str, str] = {}
        self._inflight: dict[str, Optional[str]] = {}
        self._sole: Optional[str] = None
        self._patches: list[tuple[object, str, object]] = []

    # -- request context ----------------------------------------------------

    @contextmanager
    def request(self, rid: str, member: Optional[str] = None):
        state = self._state
        previous = state.ctx
        state.ctx = _Ctx(rid)
        with self._lock:
            self._inflight[rid] = member
            if member is not None:
                self._members[member] = rid
            self._sole = rid if len(self._inflight) == 1 else None
        try:
            yield
        finally:
            with self._lock:
                del self._inflight[rid]
                if member is not None and self._members.get(member) == rid:
                    del self._members[member]
                self._sole = (next(iter(self._inflight))
                              if len(self._inflight) == 1 else None)
            state.ctx = previous

    def bind_member(self, member: str) -> None:
        ctx = self._state.ctx
        if ctx.rid is None:
            ctx.rid = self._members.get(member)

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> Span:
        state = self._state
        span = Span()
        span.sid = next(self._ids)
        span.name = name
        span.parent = state.stack[-1].sid if state.stack else None
        span.ctx = state.ctx
        span.fallback = self._sole if state.ctx.rid is None else None
        span.child = span.cpu_child = 0.0
        span.attrs = None
        span.error = None
        state.stack.append(span)
        span.cpu_start = time.thread_time()
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_end = time.thread_time()
        stack = self._state.stack
        stack.pop()
        if stack:
            stack[-1].child += span.end - span.start
            stack[-1].cpu_child += span.cpu_end - span.cpu_start
        self.spans.append(span)

    def wrap(self, fn, name: Optional[str] = None, *,
             classify: Optional[Callable] = None,
             member: Optional[Callable] = None,
             attrs: Optional[Callable] = None):
        """Return fn wrapped in a span.

        classify(args) names the span from the arguments, member(args) gives
        the member id the call carries, attrs(args, result) adds attributes.
        """
        tracer = self

        def traced(*args, **kwargs):
            if member is not None:
                member_id = member(args)
                if member_id is not None:
                    tracer.bind_member(member_id)
            span = tracer.open(classify(args) if classify else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def patch(self, owner, attr: str, name: Optional[str] = None, **kw) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, **kw))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent,
                    "request": s.rid,
                    "start_ms": (s.start - self.origin) * 1000.0,
                    "end_ms": (s.end - self.origin) * 1000.0,
                    "self_ms": s.self_time * 1000.0,
                    "self_cpu_ms": s.self_cpu * 1000.0,
                    "error": s.error,
                    "attrs": {k: (v.hex() if isinstance(v, bytes) else v)
                              for k, v in (s.attrs or {}).items()},
                }, sort_keys=True) + "\n")


# --- drpki wrap points --------------------------------------------------------

def install_drpki(tracer: Tracer) -> None:
    """Wrap the public functions at each drpki module boundary."""
    from drpki import algebra, preprocessing, rpki, tecdsa
    from drpki import sharing as sharing_mod
    from drpki.runtime import node, session, transport

    def scalar_kind(args) -> str:
        point = args[1]
        fixed = point.x == algebra.GEN_X and point.y == algebra.GEN_Y
        return "algebra.scalar_mul_fixed" if fixed else "algebra.scalar_mul_var"

    for mod in (algebra, tecdsa, sharing_mod):
        tracer.patch(mod, "scalar_mul", classify=scalar_kind)
    tracer.patch(algebra.GroupPoint, "__add__", "algebra.point_add")
    for mod in (tecdsa, rpki):
        tracer.patch(mod, "ecdsa_verify", "algebra.ecdsa_verify")

    for fn in ("open_shares", "open_point_shares", "mac_check_evaluate"):
        tracer.patch(session, fn, f"sharing.{fn}")

    tracer.patch(preprocessing, "dealer_generate", "preprocessing.dealer",
                 attrs=lambda a, r: {"triples": a[1]})
    tracer.patch(preprocessing, "dealer_generate_masks", "preprocessing.dealer")
    for fn in ("beaver_diffs", "beaver_combine"):
        tracer.patch(tecdsa, fn, "preprocessing.beaver")

    third = lambda a: a[2]  # noqa: E731 - (env, session, member_id, ...)
    tracer.patch(node, "keygen", "tecdsa.keygen", member=third)
    tracer.patch(node, "preprocess_independent", "tecdsa.preprocess_independent")
    tracer.patch(node, "preprocess_dependent", "tecdsa.preprocess_dependent",
                 member=third)
    tracer.patch(node, "sign_online", "tecdsa.sign_online", member=third)
    store = tecdsa.TupleStore
    for fn in ("add_initial", "add_final"):
        tracer.patch(store, fn, "tecdsa.store.add")
    for fn in ("checkout_initial", "checkout_final", "checkout_initial_by_id",
               "checkout_final_by_id"):
        tracer.patch(store, fn, "tecdsa.store.checkout")
    for fn in ("available_initial_ids", "available_final_ids", "initial_stock",
               "final_stock"):
        tracer.patch(store, fn, "tecdsa.store.scan")

    tracer.patch(session.PartySession, "run_round", "session.round",
                 attrs=lambda a, r: {"session": a[0].session_id,
                                     "round": a[0].round,
                                     "dropped": a[0].dropped})
    tracer.patch(transport.InProcessHub, "send", "transport.send")
    tracer.patch(transport.InProcessHub, "recv", "transport.recv")

    tracer.patch(node.LocalCluster, "handle_sign_request", "node.request")
    tracer.patch(node.LocalCluster, "run_signing", "node.run_signing")
    tracer.patch(node.LocalCluster, "replenish", "node.replenish")
    tracer.patch(node.PartyNode, "publish_batch", "node.publish")
    tracer.patch(node.PartyNode, "audit", "node.audit")

    tracer.patch(node, "verify_consent", "rpki.verify_consent",
                 member=lambda a: a[0].member_id if a[0] is not None else None)
    for mod in (node, rpki):
        for fn in ("encode_canonical", "decode_canonical"):
            tracer.patch(mod, fn, "rpki.canonical")


# --- per-layer metrics -----------------------------------------------------------

# (name, unit, better); values are per operation (request, or final tuple on
# preprocess-durable) unless the README says otherwise.
LAYER_METRICS = [
    ("algebra.scalar_mul_fixed.calls", "count", "lower"),
    ("algebra.scalar_mul_fixed.self_ms", "ms", "lower"),
    ("algebra.scalar_mul_var.calls", "count", "lower"),
    ("algebra.scalar_mul_var.self_ms", "ms", "lower"),
    ("algebra.ecdsa_verify.calls", "count", "lower"),
    ("algebra.ecdsa_verify.self_ms", "ms", "lower"),
    ("algebra.point_add.calls", "count", "lower"),
    ("sharing.open_shares.calls", "count", "lower"),
    ("sharing.open_shares.self_ms", "ms", "lower"),
    ("sharing.open_point_shares.calls", "count", "lower"),
    ("sharing.open_point_shares.self_ms", "ms", "lower"),
    ("sharing.mac_check_evaluate.calls", "count", "lower"),
    ("sharing.aborts", "count", "lower"),
    ("preprocessing.dealer.triples", "count", "lower"),
    ("preprocessing.dealer.self_ms", "ms", "lower"),
    ("preprocessing.beaver.self_ms", "ms", "lower"),
    ("tecdsa.sign_online.calls", "count", "lower"),
    ("tecdsa.sign_online.self_ms", "ms", "lower"),
    ("tecdsa.preprocess_independent.self_ms", "ms", "lower"),
    ("tecdsa.preprocess_dependent.self_ms", "ms", "lower"),
    ("tecdsa.keygen.self_ms", "ms", "lower"),
    ("tecdsa.store.add.calls", "count", "lower"),
    ("tecdsa.store.add.self_ms", "ms", "lower"),
    ("tecdsa.store.checkout.calls", "count", "lower"),
    ("tecdsa.store.checkout.self_ms", "ms", "lower"),
    ("tecdsa.store.scan.calls", "count", "lower"),
    ("tecdsa.store.scan.self_ms", "ms", "lower"),
    ("tecdsa.final_stock_left", "count", "higher"),
    ("session.sessions", "count", "lower"),
    ("session.rounds", "count", "lower"),
    ("session.round.wait_ms", "ms", "lower"),
    ("session.dropped", "count", "lower"),
    ("transport.frames", "count", "lower"),
    ("transport.bytes", "B", "lower"),
    ("transport.send.self_ms", "ms", "lower"),
    ("transport.recv.wait_ms", "ms", "lower"),
    ("transport.dropped_frames", "count", "lower"),
    ("node.request.ms", "ms", "lower"),
    ("node.run_signing.ms", "ms", "lower"),
    ("node.publish.self_ms", "ms", "lower"),
    ("node.audit.calls", "count", "lower"),
    ("node.audit.self_ms", "ms", "lower"),
    ("node.replenish.calls", "count", "lower"),
    ("rpki.verify_consent.calls", "count", "lower"),
    ("rpki.verify_consent.self_ms", "ms", "lower"),
    ("rpki.canonical.self_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.unattributed_spans", "count", "lower"),
]

def layer_metrics(spans: Iterable[Span], window_rids: set, base: float,
                  *, sent_bytes: int, dropped_frames: int,
                  final_stock_left: float, overhead_ms: float) -> dict[str, float]:
    """Per-layer metrics over the spans of the traced window's requests.

    Counts and times are totals over all parties divided by `base` (the
    operations the window completed).  `sent_bytes` and `dropped_frames`
    are the hub's own counts over the traced windows.  ``*.self_ms`` is thread CPU time
    outside child spans; ``*.ms`` and ``*.wait_ms`` are wall time.  Session
    counts are per protocol session, not per party: a round every party runs
    counts once.  ``tecdsa.keygen.self_ms`` is per key generation during
    set-up.
    """
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    dur_ms: dict[str, float] = {}
    rounds: set = set()
    dropped: dict[bytes, int] = {}
    round_ids: set = set()
    round_ms = send_in_round_ms = 0.0
    sends: list[Span] = []
    triples = aborts = unattributed = 0
    keygens, keygen_ms = 0, 0.0
    for s in spans:
        rid = s.rid
        if rid == SETUP_RID:
            if s.name == "tecdsa.keygen":
                keygens += 1
                keygen_ms += s.self_cpu * 1000.0
            continue
        if rid is None:
            unattributed += 1
            continue
        if rid not in window_rids:
            continue
        name = s.name
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + s.self_cpu * 1000.0
        dur_ms[name] = dur_ms.get(name, 0.0) + s.duration * 1000.0
        if name == "session.round":
            session_id = s.attrs["session"]
            rounds.add((session_id, s.attrs["round"]))
            dropped[session_id] = max(dropped.get(session_id, 0), s.attrs["dropped"])
            round_ids.add(s.sid)
            round_ms += s.duration * 1000.0
        elif name == "transport.send":
            sends.append(s)
        elif name == "preprocessing.dealer" and s.attrs:
            triples += s.attrs["triples"]
        if name.startswith("sharing.") and s.error in ("ProtocolAbort", "SessionAbort"):
            aborts += 1
    for s in sends:
        if s.parent in round_ids:
            send_in_round_ms += s.duration * 1000.0

    per = 1.0 / base if base else 0.0
    out: dict[str, float] = {}
    for metric, _, _ in LAYER_METRICS:
        if metric.endswith(".calls"):
            out[metric] = calls.get(metric[:-len(".calls")], 0) * per
        elif metric.endswith(".self_ms"):
            out[metric] = self_ms.get(metric[:-len(".self_ms")], 0.0) * per
    out.update({
        "sharing.aborts": aborts * per,
        "preprocessing.dealer.triples": triples * per,
        "tecdsa.keygen.self_ms": keygen_ms / keygens if keygens else 0.0,
        "tecdsa.final_stock_left": final_stock_left,
        "session.sessions": len({sid for sid, _ in rounds}) * per,
        "session.rounds": len(rounds) * per,
        "session.round.wait_ms": (round_ms - send_in_round_ms) * per,
        "session.dropped": sum(dropped.values()) * per,
        "transport.frames": calls.get("transport.send", 0) * per,
        "transport.bytes": sent_bytes * per,
        "transport.recv.wait_ms": dur_ms.get("transport.recv", 0.0) * per,
        "transport.dropped_frames": dropped_frames * per,
        "node.request.ms": dur_ms.get("node.request", 0.0) * per,
        "node.run_signing.ms": dur_ms.get("node.run_signing", 0.0) * per,
        "trace.overhead_ms": overhead_ms,
        "trace.unattributed_spans": float(unattributed),
    })
    return {name: out[name] for name, _, _ in LAYER_METRICS}
