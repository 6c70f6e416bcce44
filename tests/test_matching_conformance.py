"""Conformance: the indexed matching engine vs the linear oracle.

The indexed :class:`MatchingEngine` reorganised both queues into
hash-bucket indexes; this file is the proof it kept the observable
semantics.  Hypothesis drives the indexed engine and the linear-scan
:class:`ReferenceMatchingEngine` with the *same* random sequence of
post / deliver / probe / cancel / reset operations and asserts:

* identical match outcomes -- every posted receive ends in the same
  state (pending / matched-with-the-same-envelope / cancelled /
  failed) in both engines, which pins the match *order*;
* identical inline observations (probe results, cancel return values,
  reset ``(cancelled, purged)`` tuples);
* FIFO non-overtaking -- concrete-pattern receives match envelopes of
  their pattern in delivery order;
* identical counters, ``pruned_dead`` and ``posted_count`` included:
  both engines prune a dead receive exactly when a delivery it matches
  comes before any live receive that delivery could take;
* after every operation, each waiting arrival is filed once: the
  unexpected index's deques sum to ``unexpected_count``.

The indexed engine consults the four posted buckets of a delivery
only while a wildcard receive is filed.  ``_LATE_WILDCARD_OPS`` puts
the first wildcard after a drawn run of exact-only traffic (unexpected
arrivals, claims, cancellations, resets) -- the general ``_OPS``
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
    st.lists(_OP, max_size=60),
).map(lambda parts: parts[0] + [parts[1]] + parts[2])

#: counters that must agree exactly between the two engines
_COMPARED_COUNTERS = (
    "delivered",
    "matched_posted",
    "matched_unexpected",
    "pruned_dead",
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
        else:  # reset
            trace.append(("reset", eng.reset()))
        if engine_cls is MatchingEngine:
            _assert_filed_once(eng)
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
    counters["posted_count"] = eng.posted_count
    return trace, outcomes, counters, eng


def _assert_filed_once(eng):
    """Each waiting arrival sits in one deque, under its exact key; an
    emptied key is gone; ``_wild_posted`` counts the receives filed
    under a wildcard key."""
    assert (sum(len(dq) for dq in eng._unexpected.values())
            == eng.unexpected_count)
    assert all(eng._unexpected.values())
    assert all(env.comm_id == key[0] and env.src == key[1]
               and env.tag == key[2]
               for key, dq in eng._unexpected.items() for _n, env in dq)
    assert eng._wild_posted == sum(
        1 if bucket.__class__ is not deque else len(bucket)
        for key, bucket in eng._posted.items()
        if key[1] == ANY_SOURCE or key[2] == ANY_TAG
    )


def _assert_conforms(ops):
    indexed = _run_engine(MatchingEngine, ops)
    reference = _run_engine(ReferenceMatchingEngine, ops)
    assert indexed[0] == reference[0], "inline probe/cancel/reset traces differ"
    assert indexed[1] == reference[1], "per-post match outcomes differ"
    assert indexed[2] == reference[2], "counters differ"


@settings(max_examples=200 * _SCALE, deadline=None)
@given(ops=_OPS)
# the two bucket shapes: one record, a deque from the second receive
# under its key on, and no bucket once the last record is popped
@example(ops=[("post", 0, 1, 0), ("post", 0, 1, 0), ("deliver", 0, 1, 0),
              ("deliver", 0, 1, 0), ("post", 0, 1, 0), ("deliver", 0, 1, 0),
              ("deliver", 0, 1, 0)])
# a dead single record pruned by a delivery; a dead deque head pruned
# with the live record behind it taking the envelope
@example(ops=[("post", 0, 1, 0), ("cancel", 0), ("deliver", 0, 1, 0),
              ("post", 0, 1, 0)])
@example(ops=[("post", 1, 1, 0), ("cancel", 0), ("deliver", 1, 1, 0),
              ("post", 2, 0, 0), ("post", 2, 0, 0), ("cancel", 1),
              ("deliver", 2, 0, 0), ("deliver", 2, 0, 0)])
# a reset over single and deque buckets mixed
@example(ops=[("post", 0, 0, 0), ("post", 1, 0, 0), ("post", 1, 0, 0),
              ("post", 2, 1, 1), ("cancel", 1), ("reset",),
              ("deliver", 1, 0, 0), ("post", 1, 0, 0)])
# the first wildcard post lands over single-record buckets: deliveries
# compare their heads with the wildcard bucket's
@example(ops=[("post", 0, 0, 0), ("post", 1, 0, 0), ("deliver", 2, 0, 0),
              ("post", ANY_SOURCE, 0, 0), ("post", 1, ANY_TAG, 0),
              ("deliver", 1, 0, 0), ("deliver", 1, 0, 0),
              ("deliver", 0, 0, 0), ("deliver", 3, 0, 0)])
# a wildcard post over several exact heads takes the oldest, across
# sources and tags, never another comm's
@example(ops=[("deliver", 2, 1, 0), ("deliver", 0, 1, 0), ("deliver", 1, 0, 0),
              ("deliver", 0, 1, 0), ("deliver", 3, 1, 1),
              ("probe", ANY_SOURCE, 1, 0), ("post", ANY_SOURCE, 1, 0),
              ("post", ANY_SOURCE, 1, 0), ("post", 0, ANY_TAG, 0),
              ("post", ANY_SOURCE, ANY_TAG, 0), ("probe", ANY_SOURCE, ANY_TAG, 0),
              ("probe", ANY_SOURCE, ANY_TAG, 1)])
# a drained wildcard receive returns deliveries to the exact key alone
@example(ops=[("post", ANY_SOURCE, 0, 0), ("post", 1, 0, 0),
              ("deliver", 1, 0, 0), ("deliver", 1, 0, 0), ("deliver", 2, 0, 0),
              ("post", ANY_SOURCE, 0, 0)])
# a dead wildcard head is pruned, and a live exact receive behind it
# takes the envelope
@example(ops=[("post", ANY_SOURCE, 0, 0), ("cancel", 0), ("post", 1, 0, 0),
              ("deliver", 1, 0, 0), ("deliver", 1, 0, 0)])
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
    """FIFO across sources: a wildcard post takes the oldest waiting
    exact head it matches -- arrival order, not key order -- and never
    a claimed arrival; nothing is keyed under a wildcard."""
    sim = Simulator()
    eng = MatchingEngine(sim)
    for n, (src, tag) in enumerate([(2, 1), (0, 1), (3, 0), (1, 1), (0, 1)]):
        _deliver(eng, src, tag, n)
    claimed = eng.post(0, 1, 0)  # the older of source 0's two
    assert not _wildcard_keys(eng) and len(eng._unexpected) == 4
    got = [eng.post(ANY_SOURCE, 1, 0) for _ in range(3)]
    rest = [eng.post(ANY_SOURCE, ANY_TAG, 0), eng.post(3, ANY_TAG, 0)]
    sim.run()
    assert claimed.value.data == 1
    assert [evt.value.data for evt in got] == [0, 3, 4]
    assert rest[0].value.data == 2 and not rest[1].triggered
    assert eng.matched_unexpected == 5 and eng.unexpected_count == 0
    assert not eng._unexpected and eng._wild_posted == 1  # rest[1] waits


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
        assert not _wildcard_keys(eng) and eng._wild_posted == 0
        sim.run()
    assert eng.matched_unexpected and eng.matched_posted and eng.unexpected_count
    # a wildcard probe or post keys nothing new: each arrival is keyed
    # once, under its exact key
    waiting = eng.unexpected_count
    assert eng.probe(ANY_SOURCE, ANY_TAG, 0) is not None
    taken = eng.post(ANY_SOURCE, ANY_TAG, 0)
    assert taken.triggered and eng.unexpected_count == waiting - 1
    assert sum(len(dq) for dq in eng._unexpected.values()) == waiting - 1
    assert not _wildcard_keys(eng)
    # a filed wildcard receive opens the four-key walk until it drains
    while eng.probe(ANY_SOURCE, ANY_TAG, 1) is not None:
        eng.post(ANY_SOURCE, ANY_TAG, 1)
    wild = eng.post(ANY_SOURCE, ANY_TAG, 1)
    assert eng._wild_posted == 1
    _deliver(eng, 2, 2, "wild", comm=1)
    sim.run()
    assert wild.value.data == "wild" and eng._wild_posted == 0
    assert not _wildcard_keys(eng)
    eng.post(ANY_SOURCE, 0, 0)
    eng.reset()
    assert eng._wild_posted == 0 and not eng._posted and not eng._unexpected


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
    # a delivery prunes a dead head and gives the envelope to the live
    # record behind it, and the key goes with it
    dead, live = eng.post(3, 0, 0), eng.post(3, 0, 0)
    dead.cancel()
    assert eng.posted_count == 2 and eng.pending_posted == 1
    _deliver(eng, 3, 0, "d")
    sim.run()
    assert live.value.data == "d" and eng.pruned_dead == 1 and not eng._posted
