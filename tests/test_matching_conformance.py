"""Conformance: the indexed matching engine vs the linear oracle.

The indexed :class:`MatchingEngine` reorganised both queues into
hash-bucket indexes; this file is the proof it kept the observable
semantics.  Hypothesis drives the indexed engine and the pre-refactor
:class:`ReferenceMatchingEngine` with the *same* random sequence of
post / deliver / probe / cancel / reset operations and asserts:

* identical match outcomes -- every posted receive ends in the same
  state (pending / matched-with-the-same-envelope / cancelled /
  failed) in both engines, which pins the match *order*;
* identical inline observations (probe results, cancel return values,
  reset ``(cancelled, purged)`` tuples);
* FIFO non-overtaking -- concrete-pattern receives match envelopes of
  their pattern in delivery order;
* identical counters.  ``pruned_dead``/``swept_dead``/``posted_count``
  are deliberately *excluded*: the indexed engine's background
  compaction retires dead entries the linear engine only prunes when a
  delivery walks over them, so the split between "pruned" and "swept"
  differs even though the set of dead entries removed is the same.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.matching import ANY_SOURCE, ANY_TAG, MatchingEngine
from repro.net.message import Envelope
from repro.simt import Simulator

from tests.matching_reference import ReferenceMatchingEngine

_SOURCES = st.integers(0, 3)
_TAGS = st.integers(0, 2)
_COMMS = st.integers(0, 1)
_PATTERN_SOURCES = st.one_of(_SOURCES, st.just(ANY_SOURCE))
_PATTERN_TAGS = st.one_of(_TAGS, st.just(ANY_TAG))

_OP = st.one_of(
    st.tuples(st.just("post"), _PATTERN_SOURCES, _PATTERN_TAGS, _COMMS),
    st.tuples(st.just("deliver"), _SOURCES, _TAGS, _COMMS),
    st.tuples(st.just("probe"), _PATTERN_SOURCES, _PATTERN_TAGS, _COMMS),
    st.tuples(st.just("cancel"), st.integers(0, 2**30)),
    st.tuples(st.just("reset")),
)
_OPS = st.lists(_OP, min_size=1, max_size=120)

#: counters that must agree exactly between the two engines
_COMPARED_COUNTERS = (
    "delivered",
    "matched_posted",
    "matched_unexpected",
    "cancelled_total",
    "purged_total",
)


def _run_engine(engine_cls, ops):
    """Apply ``ops``; return (inline trace, per-post outcomes, counters).

    Envelope payload/seq is the delivery index, so "which envelope did
    this receive get" is comparable across engines.
    """
    sim = Simulator()
    eng = engine_cls(sim)
    posts = []       # (event, source, tag, comm_id) in post order
    trace = []       # inline observations, in op order
    deliveries = 0
    for op in ops:
        kind = op[0]
        if kind == "post":
            _, src, tag, comm = op
            posts.append((eng.post(src, tag, comm), src, tag, comm))
        elif kind == "deliver":
            _, src, tag, comm = op
            eng.deliver(
                Envelope(src, 99, tag, comm, 0, 8.0,
                         data=deliveries, seq=deliveries)
            )
            deliveries += 1
        elif kind == "probe":
            _, src, tag, comm = op
            got = eng.probe(src, tag, comm)
            trace.append(("probe", None if got is None else got.data))
        elif kind == "cancel":
            if posts:
                idx = op[1] % len(posts)
                trace.append(("cancel", idx, posts[idx][0].cancel()))
        else:  # reset
            trace.append(("reset", eng.reset()))
        sim.run()  # drain match callbacks so `triggered` settles per op
    outcomes = []
    for evt, src, tag, comm in posts:
        if evt.cancelled:
            state = "cancelled"
        elif not evt.triggered:
            state = "pending"
        elif evt.ok:
            state = ("matched", evt.value.data)
        else:
            state = ("failed", type(evt.value).__name__)
        outcomes.append((state, src, tag, comm))
    counters = {name: getattr(eng, name) for name in _COMPARED_COUNTERS}
    counters["unexpected_count"] = eng.unexpected_count
    counters["pending_posted"] = eng.pending_posted
    return trace, outcomes, counters


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_indexed_engine_matches_linear_oracle(ops):
    indexed = _run_engine(MatchingEngine, ops)
    reference = _run_engine(ReferenceMatchingEngine, ops)
    assert indexed[0] == reference[0], "inline probe/cancel/reset traces differ"
    assert indexed[1] == reference[1], "per-post match outcomes differ"
    assert indexed[2] == reference[2], "counters differ"


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_indexed_engine_fifo_non_overtaking(ops):
    _, outcomes, _ = _run_engine(MatchingEngine, ops)
    # Among concrete-pattern receives of the same (comm, src, tag),
    # matched envelopes must appear in delivery order -- the MPI
    # non-overtaking rule the apps rely on.
    last_seen = {}
    for state, src, tag, comm in outcomes:
        if src == ANY_SOURCE or tag == ANY_TAG:
            continue
        if not (isinstance(state, tuple) and state[0] == "matched"):
            continue
        key = (comm, src, tag)
        assert state[1] > last_seen.get(key, -1), (
            f"receive on {key} overtook an earlier one: got envelope "
            f"{state[1]} after {last_seen[key]}"
        )
        last_seen[key] = state[1]
