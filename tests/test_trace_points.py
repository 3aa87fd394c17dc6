"""The names perfbench's tracer wraps stay in place and count once.

perfbench/spans.py wraps drpki functions and methods by name from outside
the package, so deleting or renaming one of them, or a wrapped store method
that calls another wrapped one, breaks the traced benchmark run, and so does
moving the member id of a phase function off argument 2, where the tracer
reads it.  These tests load that module as it is and catch all three in the
fast suite.
"""

import importlib.util
from pathlib import Path

from drpki.algebra import GENERATOR, FieldElement, scalar_mul
from drpki.runtime import LocalCluster
from drpki.sharing import SchemeId, Share
from drpki.tecdsa import FinalTuple, InitialTuple, ProtocolConfig, TupleStore

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# the TupleStore methods perfbench/spans.py wraps
STORE_NAMES = (
    "add_initial", "add_final",
    "checkout_initial", "checkout_final", "checkout_initial_by_id", "checkout_final_by_id",
    "available_initial_ids", "available_final_ids", "initial_stock", "final_stock",
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_exists():
    spans = _load_spans()
    original = TupleStore.checkout_final_by_id
    tracer = spans.Tracer()
    try:
        spans.install_drpki(tracer)
        assert TupleStore.checkout_final_by_id is not original
    finally:
        tracer.uninstall()
    assert TupleStore.checkout_final_by_id is original


def test_each_wrapped_store_method_counts_one_call(tmp_path, monkeypatch):
    epoch = bytes(16)
    share = Share(SchemeId.SHAMIR, 1, FieldElement(5))
    point = scalar_mul(FieldElement(7), GENERATOR)

    def initial(i):
        return InitialTuple(bytes([i]) * 16, epoch, share, FieldElement(6), share, share, share)

    def final(i):
        return FinalTuple(bytes([i]) * 16, epoch, "m", point, share, share)

    store = TupleStore(str(tmp_path), party=1, epoch=epoch)
    store.add_initial([initial(1), initial(2)])
    store.add_final([final(1), final(2)])

    calls = dict.fromkeys(STORE_NAMES, 0)
    for name in STORE_NAMES:
        def counted(*args, _name=name, _method=getattr(TupleStore, name), **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(TupleStore, name, counted)

    store.add_initial([initial(3)])
    store.add_final([final(3)])
    assert store.checkout_initial().tuple_id == bytes([1]) * 16
    assert store.checkout_final("m").tuple_id == bytes([1]) * 16
    assert [t.tuple_id for t in store.checkout_initial_by_id([bytes([3]) * 16])] \
        == [bytes([3]) * 16]
    assert [t.tuple_id for t in store.checkout_final_by_id([bytes([3]) * 16], "m")] \
        == [bytes([3]) * 16]
    assert store.available_initial_ids() == [bytes([2]) * 16]
    assert store.available_final_ids("m") == [bytes([2]) * 16]
    assert store.initial_stock() == 1
    assert store.final_stock("m") == 1
    store.close()
    assert calls == dict.fromkeys(STORE_NAMES, 1)


def test_phase_spans_bind_to_the_request_of_their_member():
    # each party thread binds to the request through the member id at
    # argument 2 of keygen, preprocess_dependent and sign_online; Span.rid
    # would fall back to the sole request in flight, so check the context
    spans = _load_spans()
    tracer = spans.Tracer()
    cluster = LocalCluster(ProtocolConfig.for_scheme(SchemeId.SHAMIR), seed=7)
    try:
        spans.install_drpki(tracer)
        with tracer.request("r1", "m"):
            cluster.keygen("m")
            cluster.preprocess_independent(1)
            cluster.preprocess_dependent("m", 1)
            cluster.run_signing("m", b"traced")
    finally:
        tracer.uninstall()
        cluster.close()
    names = {"tecdsa.keygen", "tecdsa.preprocess_dependent", "tecdsa.sign_online"}
    phase_spans = [s for s in tracer.spans if s.name in names]
    assert len(phase_spans) == len(names) * len(cluster.participants)
    assert {s.name for s in phase_spans} == names
    assert all(s.ctx.rid == "r1" for s in phase_spans)
