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
* identical counters.  ``swept_dead``/``posted_count`` are
  deliberately *excluded*, and ``pruned_dead`` is held to a bracket:
  the indexed engine's background compaction retires dead entries the
  linear engine only prunes when a delivery walks over them, so the
  split between "pruned" and "swept" differs even though the set of
  dead entries removed is the same.  With nothing swept the two
  ``pruned_dead`` are equal.

The indexed engine probes what was posted: until its first wildcard
``post`` / ``probe`` it files arrivals under, and consults, the exact
key alone, and builds the three wildcard indexes from what is waiting
when that first wildcard comes.  ``_LATE_WILDCARD_OPS`` puts that
moment after a drawn run of exact-only traffic (unexpected arrivals,
claims, cancellations, forced sweeps, resets) -- the general ``_OPS``
usually draw a wildcard within the first few operations.
"""

from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.matching import ANY_SOURCE, ANY_TAG, MatchingEngine
from repro.net.message import Envelope
from repro.simt import Simulator

from tests.matching_reference import ReferenceMatchingEngine

#: 1 at tier-1, 10 under ``--hypothesis-profile=deep`` (``conftest.py``)
_SCALE = max(1, settings.default.max_examples // 100)

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

_EXACT_OP = st.one_of(
    st.tuples(st.just("post"), _SOURCES, _TAGS, _COMMS),
    st.tuples(st.just("deliver"), _SOURCES, _TAGS, _COMMS),
    st.tuples(st.just("deliver"), _SOURCES, _TAGS, _COMMS),  # twice as likely
    st.tuples(st.just("probe"), _SOURCES, _TAGS, _COMMS),
    st.tuples(st.just("cancel"), st.integers(0, 2**30)),
    st.tuples(st.just("sweep")),
    st.tuples(st.just("reset")),
)
_WILDCARD_PATTERN = st.one_of(
    st.tuples(st.just(ANY_SOURCE), _PATTERN_TAGS),
    st.tuples(_SOURCES, st.just(ANY_TAG)),
)
_FIRST_WILDCARD = st.tuples(
    st.sampled_from(("post", "probe")), _WILDCARD_PATTERN, _COMMS,
).map(lambda t: (t[0], t[1][0], t[1][1], t[2]))
_LATE_WILDCARD_OPS = st.tuples(
    st.lists(_EXACT_OP, max_size=80),
    _FIRST_WILDCARD,
    st.lists(st.one_of(_OP, st.tuples(st.just("sweep"))), max_size=60),
).map(lambda parts: parts[0] + [parts[1]] + parts[2])

#: counters that must agree exactly between the two engines
_COMPARED_COUNTERS = (
    "delivered",
    "matched_posted",
    "matched_unexpected",
    "cancelled_total",
    "purged_total",
)


def _run_engine(engine_cls, ops):
    """Apply ``ops``; return (inline trace, per-post outcomes, counters,
    the engine).

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
                Envelope(src, 99, tag, comm, 0, 8.0, data=deliveries)
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
        elif kind == "sweep":
            if engine_cls is MatchingEngine:  # the oracle has nothing to sweep
                eng._sweep()
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
    return trace, outcomes, counters, eng


def _assert_conforms(ops):
    indexed = _run_engine(MatchingEngine, ops)
    reference = _run_engine(ReferenceMatchingEngine, ops)
    assert indexed[0] == reference[0], "inline probe/cancel/reset traces differ"
    assert indexed[1] == reference[1], "per-post match outcomes differ"
    assert indexed[2] == reference[2], "counters differ"
    eng, ref = indexed[3], reference[3]
    # every corpse the oracle's deliveries walked over was pruned or
    # had been swept; equal when nothing was swept
    assert (eng.pruned_dead <= ref.pruned_dead
            <= eng.pruned_dead + eng.swept_dead)


@settings(max_examples=200 * _SCALE, deadline=None)
@given(ops=_OPS)
# the two bucket shapes: one record, a deque from the second receive
# under its key on, and no bucket once the last record is popped
@example(ops=[("post", 0, 1, 0), ("post", 0, 1, 0), ("deliver", 0, 1, 0),
              ("deliver", 0, 1, 0), ("post", 0, 1, 0), ("deliver", 0, 1, 0),
              ("deliver", 0, 1, 0)])
# a dead single record pruned by a delivery; one swept, then one left
# alone in a swept deque
@example(ops=[("post", 0, 1, 0), ("cancel", 0), ("deliver", 0, 1, 0),
              ("post", 0, 1, 0)])
@example(ops=[("post", 1, 1, 0), ("cancel", 0), ("sweep",),
              ("deliver", 1, 1, 0), ("post", 2, 0, 0), ("post", 2, 0, 0),
              ("cancel", 1), ("sweep",), ("deliver", 2, 0, 0),
              ("deliver", 2, 0, 0)])
# a reset over single and deque buckets mixed
@example(ops=[("post", 0, 0, 0), ("post", 1, 0, 0), ("post", 1, 0, 0),
              ("post", 2, 1, 1), ("cancel", 1), ("reset",),
              ("deliver", 1, 0, 0), ("post", 1, 0, 0)])
# the first wildcard post opens over single-record buckets: deliveries
# compare their heads with the wildcard bucket's
@example(ops=[("post", 0, 0, 0), ("post", 1, 0, 0), ("deliver", 2, 0, 0),
              ("post", ANY_SOURCE, 0, 0), ("post", 1, ANY_TAG, 0),
              ("deliver", 1, 0, 0), ("deliver", 1, 0, 0),
              ("deliver", 0, 0, 0), ("deliver", 3, 0, 0)])
def test_indexed_engine_matches_linear_oracle(ops):
    _assert_conforms(ops)


@settings(max_examples=300 * _SCALE, deadline=None)
@given(ops=_LATE_WILDCARD_OPS)
def test_first_wildcard_after_exact_only_traffic_matches_linear_oracle(ops):
    _assert_conforms(ops)


@settings(max_examples=200 * _SCALE, deadline=None)
@given(ops=_OPS)
def test_indexed_engine_fifo_non_overtaking(ops):
    outcomes = _run_engine(MatchingEngine, ops)[1]
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


def _deliver(eng, src, tag, data, comm=0):
    eng.deliver(Envelope(src, 99, tag, comm, 0, 8.0, data=data))


def _wildcard_keys(eng):
    return [key for index in (eng._posted, eng._unexpected) for key in index
            if key[1] == ANY_SOURCE or key[2] == ANY_TAG]


def test_first_wildcard_takes_waiting_arrivals_in_arrival_order():
    """FIFO across sources: the indexes built at the first wildcard are
    in arrival order, not bucket order, and hold no claimed arrival."""
    sim = Simulator()
    eng = MatchingEngine(sim)
    for n, (src, tag) in enumerate([(2, 1), (0, 1), (3, 0), (1, 1), (0, 1)]):
        _deliver(eng, src, tag, n)
    claimed = eng.post(0, 1, 0)  # the older of source 0's two
    eng._sweep()
    assert not _wildcard_keys(eng)
    got = [eng.post(ANY_SOURCE, 1, 0) for _ in range(3)]
    rest = [eng.post(ANY_SOURCE, ANY_TAG, 0), eng.post(3, ANY_TAG, 0)]
    sim.run()
    assert claimed.value.data == 1
    assert [evt.value.data for evt in got] == [0, 3, 4]
    assert rest[0].value.data == 2 and not rest[1].triggered
    assert eng.matched_unexpected == 5 and eng.unexpected_count == 0


def test_an_engine_that_never_sees_a_wildcard_never_keys_one():
    sim = Simulator()
    eng = MatchingEngine(sim)
    posts = []
    for n in range(200):
        src, tag, comm = n % 4, n % 3, n % 2
        if n % 5 < 2:
            posts.append(eng.post(src, tag, comm))
        else:
            _deliver(eng, src, tag, n, comm)
        if n % 7 == 0 and posts:
            posts[n % len(posts)].cancel()
        if n % 11 == 0:
            eng.probe((src + 1) % 4, tag, comm)
        if n == 150:
            eng.reset()
        assert not _wildcard_keys(eng)
        sim.run()
    assert eng.matched_unexpected and eng.matched_posted and eng.unexpected_count
    # the first wildcard, here a probe, keys every waiting arrival four ways
    waiting = eng.unexpected_count
    assert eng.probe(ANY_SOURCE, ANY_TAG, 0) is not None
    assert sum(len(dq) for dq in eng._unexpected.values()) == 4 * waiting
    assert eng.unexpected_count == waiting
    # a reset empties both queues: back to exact keys only
    eng.reset()
    _deliver(eng, 1, 1, "late")
    assert not _wildcard_keys(eng) and eng.unexpected_count == 1


def test_a_bucket_is_its_record_until_a_second_receive_shares_the_key():
    sim = Simulator()
    eng = MatchingEngine(sim)
    key = (0, 1, 2)
    first = eng.post(1, 2, 0)
    assert type(eng._posted[key]).__name__ == "_PostedRecv"
    second = eng.post(1, 2, 0)
    assert type(eng._posted[key]) is deque and eng.posted_count == 2
    _deliver(eng, 1, 2, "a")
    assert type(eng._posted[key]) is deque and eng.posted_count == 1
    _deliver(eng, 1, 2, "b")
    assert key not in eng._posted  # gone with its last record
    lone = eng.post(1, 2, 0)
    _deliver(eng, 1, 2, "c")
    assert not eng._posted
    sim.run()
    assert [e.value.data for e in (first, second, lone)] == ["a", "b", "c"]
    # a sweep that leaves one live record stores it bare again
    dead, live = eng.post(3, 0, 0), eng.post(3, 0, 0)
    dead.cancel()
    eng._sweep()
    assert type(eng._posted[(0, 3, 0)]).__name__ == "_PostedRecv"
    assert eng.swept_dead == 1 and eng.pending_posted == 1
    _deliver(eng, 3, 0, "d")
    sim.run()
    assert live.value.data == "d" and not eng._posted
