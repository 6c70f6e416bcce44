"""Host-cost tripwire: Python+C calls and kernel events of a fixed run.

The per-event path (``simt.kernel``, ``simt.resources``,
``cluster.network``) is kept free of pools, closures, per-push
``len()`` calls and per-event queue pops, and the resume path of a rank
free of generator frames that only forward -- the runtime bodies
(``FmiProcess._main``, ``MpiRankProcess._main``) included, which hand
the application to the process trampoline instead of driving it with
``yield from`` (the MPI body, with nothing to do after the
application, returns it: the tail hand-off, no body frame left at
all): each costs a call or more on every one of the hundreds of
thousands of events of a run.  This pins the cost of a
small run of the benchmark's ``himeno_cr`` shape (checkpointed
synthetic Himeno, one node crash), so the next such line fails tier-1
instead of waiting for a benchmark run.

The unit is the *rank-iteration* (24 ranks x 8 iterations), not the
kernel event: an event diet shrinks the event count on purpose, and a
calls/event ratio alone would reward events that do nothing.  Calls and
events per rank-iteration are pinned separately; the ratio stays as a
third ceiling.

Measured on CPython 3.11 (3.12+ inline comprehensions and count fewer
calls, 3.9/3.10 count like 3.11), per rank-iteration and per event:

====================================  =====  ======  ===========
commit                                calls  events  calls/event
====================================  =====  ======  ===========
before PR 15                              -       -         29.5
PR 15 (host cost of one event)         2285   126.4         18.1
PR 17 (one heap entry per pipe, no
forwarding frames under a resume)      1702   123.9         13.7
PR 20 (same run, re-read)              1679   123.9         13.6
PR 21 (a wire is the completion target
of its own two pipe flows; Vaidya's
search memoised)                       1462    97.2         15.0
PR 23 (same run, re-read)              1456    97.2         15.0
PR 24 (one send body, one post body,
matching probes what was posted)       1255    97.2         12.9
the immediate queue drained a batch
at a time; a rank body hands its
application off                        1172    97.2         12.1
the same, re-read on the parent of
the next row                           1117    97.2         11.5
rank and size plain slots, no
unexpected lookup while none waits     1096    97.2         11.3
the same, re-read on the parent of
the next row                           1100    97.2         11.3
one waiter held in the event's slot,
no callback list per event             1035    97.2         10.6
the same, re-read on the parent of
the next row                           1017    97.2         10.5
a message's records are its events:
no ``Event.__init__`` per receive,
send, wire, delayed transfer or wake    959    97.2          9.9
the same, re-read on the parent of
the next row                            946    97.2          9.7
hand-offs nest: FMI_Loop hands off its
restore, checkpoint decision and
checkpoint                              911    97.2          9.4
the same, re-read on the parent of
the next row                            904    97.2          9.3
a pipe change is one frame: a flow's
start, its deadline's pop and an
overhead timer's pop enter one method   852    97.2          8.8
a trigger is a store: a message's
completions, wire timers and envelope
enter no kernel frame                   791    97.2          8.1
the same, re-read on the parent of
the next row                            776    97.2          8.0
a paired wait is one resume: sendrecv,
each hop-collective round and the XOR
ring wait on send and receive in one
yield                                   741    97.2          7.6
a pipe keeps its earliest finisher (a
start at the instant of its last change
scans no flow); a payload keeps the
buffer it is given                      712    97.2          7.3
====================================  =====  ======  ===========

The ceilings sit ~12 % above the last row (events: 8 %, below the 106
that one more event per inter-node message would read): room for
honest small additions, not for a new call per event or a new event
per message.  **Calls per event rose in PR 21, 13.6 -> 15.0, while
calls fell 13 % and events 22 %: the three events removed per message
were the cheapest ones (19 calls between them), and a ratio over a
count penalises removing the count.**  That is why the ratio is the
third ceiling and not the first; it is re-set above each new reading,
still under the 18.1 of PR 15, and kept -- it is what catches calls
and events creeping back *together*.  The rows of PR 21 and later were
read on CPython 3.11 only (the one interpreter in those sessions).

**Forwarding frames** are pinned on the same run by the entries of
``FmiContext.loop`` (its first call and every resume) per
rank-iteration.  While FMI_Loop drove its checkpoint, restore and
checkpoint decision with ``yield from``, every resume of a rank inside
one entered the application's frame and ``loop``'s only to forward:
23.6 entries per rank-iteration.  Handed off (``simt.process``: hand-offs
nest), ``loop`` is entered at its call and once after each subroutine it
hands off: 3.75.  The ceiling sits ~12 % above that, far below what
one forwarded subroutine would add.

**The message path** above the transport has a budget in *frames*, not
calls, because that is what it was dieted by (PR 24): Python frames
entered from ``Communicator.send_async`` up to but not including
``Transport.send`` -- 1 for an immutable payload when no plane stamps
the envelope (``send_async`` itself, which fills the envelope; 9 before
the diet, 2 while ``Envelope.__init__`` ran)
-- and from ``Communicator.post_recv`` up to and including
``MatchingEngine.post`` -- 2 (5 before).  A clean delivery (posted
first, exact pattern, no wildcard seen by the engine) probes one
bucket: one ``dict.get`` inside ``deliver`` (4 before), budget 2.
**The pipe** is budgeted in frames of ``simt.resources``: a flow's
start, its deadline's pop and the pop of a transfer's overhead timer
each enter one (``_change``; two, two and three before), and a
transfer that pays an overhead arms its timer in its own frame (a
``Timeout.__init__`` before).  **A trigger is a store**: from a clean
message's ``send_async`` to its receiver's resume, inter-node or
intra-node, no ``Event.succeed``, ``Timeout.__init__`` or
``Envelope.__init__`` frame is entered -- the matched receive, the
sender's completion and a transfer complete in place, and the wire's
head and tail are one timer record armed inline (five such frames
inter-node before, four intra-node).

**Watching** the same run -- a ``Tracer`` and a ``MetricsRegistry``
attached -- is pinned as the *excess* of profiled calls, observed
minus bare on the same interpreter.  Both arms run on the engines the
library picks, and a tracer is not among its reasons: the same kernel
events, bare or watched, is the first assertion (until the last row the
arms were pinned to the hop engine, because a tracer moved the run off
the macro tier).  One record per message and one per macro
collective are what is left: the registry reads the trace only when
asked, and this run never asks (the three counter updates a message
paid before the last two rows are gone):

==========================================  ========  ========  ======
commit                                      observed      bare  excess
==========================================  ========  ========  ======
PR 19 (a label sort per counter update, a
closure and four forwarding calls per
observed delivery)                           524,315   413,624  110,691
PR 20 (one record, one delivery body;
counters resolved once)                      449,579   413,624   35,955
PR 21 (nothing changed for a watcher; the
bare run got cheaper)                        393,879   357,924   35,955
PR 24 (the same, again: 393,489 over
357,539 on its parent)                       338,554   302,604   35,950
the same, re-read on the parent of the
next row                                     304,090   270,984   33,106
metrics a view of the trace: no metric
written per message                          292,001   270,984   21,017
observation picks no engine: unpinned,
part of the run on the macro tier            225,203   210,468   14,735
the same, re-read on the parent of the
next row                                     225,203   211,155   14,048
a message's outcome record is its only
record: no ``net.send``                      217,862   211,155    6,707
==========================================  ========  ========  ======

This was pinned as the ratio observed / bare until PR 24, and that
ratio read 1.087, 1.100, 1.119 over three PRs in which watching cost
the same ~35,950 calls: a ratio over a count penalises shrinking the
count, the trap of the paragraph above, twice.  The excess is what a
watcher pays, so the excess is the pin; one more call per observed
message is +3,994, and the ceiling sits below that.  Read on CPython
3.11 only -- the other interpreters here have no numpy.

**The macro tier** is pinned by a second run, of the benchmark's
``macro_16k`` shape at 1,024 ranks x 2 rounds (a macro allreduce, then
a ring ``sendrecv``; the unit is the *rank-round*).  There the wall
clock belongs to the cyclic collector more than to the interpreter
(57 % of ``macro_16k`` before the diet), and what the collector costs
is set by how many objects it must walk while every rank has a message
in flight -- a number the benchmark does not report, so this is its
only guard.  Sampled with the collector off, every 256 kernel steps,
as ``len(gc.get_objects())`` over the count just before launch; the
largest sample is the burst.  Closure cells are counted in the same
sample: a closure costs one tracked cell per captured name, which is
how a seven-name callback per message came to own the wall clock.
The same sample reads ``tracemalloc``'s traced bytes (before the
sample's own object list is allocated): what the per-rank records
cost, which the benchmark sees only as ``macro_16k``'s peak RSS.

=====================================  =====  ======  =======  =====  ======
per rank-round / per rank at burst     calls  events  tracked  cells  traced
=====================================  =====  ======  =======  =====  ======
PR 17                                  191.1    7.56     46.3    9.8       -
PR 19 (whole-round fold, two-table
pricing, a slotted record per message) 129.2    7.56     32.6    0.0       -
PR 21 (the ring's 128 inter-node
messages lose three events each)       127.6    7.38     32.3    0.0       -
PR 24 (the ring's messages lose the
hook stack; the macro tier none)       106.6    7.38     32.3    0.0       -
no pop per zero-delay event, no body
frame per resume                        99.0    7.38     32.3    0.0       -
the same, re-read on the parent
of the next row                         97.2    7.38     31.2    0.0   5,236
a posted bucket is its one record;
per-rank records slotted, no dead
rendezvous events                       95.2    7.38     28.2    0.0   3,963
the tail hand-off (no ``_main``
frame), rank and size as slots, the
rank its own exit hook, a slotted
engine, a bulk that drops each rank's
event and result as it resumes it,
an instance that drops its inputs       86.7    7.38     26.2    0.0   3,539
one waiter held in the event's slot
(no callback list per event), one
sequence-counter list per instance
key instead of a tuple key per rank     79.6    7.38     20.3    0.0   3,033
the same, re-read on the parent
of the next row                         79.0    7.38     20.3    0.0   2,985
a message's records are its events
(the ring's receive, send and wire
records carry no event beside them)     74.8    7.38     17.3    0.0   2,873
the same, re-read on the parent
of the next row                         74.2    7.38     17.3    0.0   2,796
a process without a kill flag (one
slot less)                              74.2    7.38     17.3    0.0   2,788
the same, re-read on the parent
of the next row                         74.2    7.38     17.3    0.0   2,756
a pipe change is one frame (the
ring's wires enter each NIC pipe in
one frame, and drain in one)            71.0    7.38     17.3    0.0   2,733
a trigger is a store (the ring's
matches, completions, wire timers and
envelopes enter no kernel frame)        67.0    7.38     17.3    0.0   2,737
a paired wait is one resume (the
ring's ``sendrecv``; no slot, local
or tuple more per rank)                 64.0    7.38     17.3    0.0   2,737
the same, re-read on the parent
of the next row                         64.0    7.38     17.3    0.0   2,738
a rank is born and synchronised in
the frames it needs: one event per
rendezvous (1,023 fewer), one spawn
frame, a boot ``Timeout``, a world
communicator read off its ``range``     57.0    6.88     17.3    0.0   2,742
=====================================  =====  ======  =======  =====  ======

The event count is an equality: PR 19's diet was not allowed to move
an event, PR 21 moved exactly 3 x 128, and the one-event rendezvous
exactly 1,024 - 1 (``MPI_Init``'s release is one entry, not one per
rank).  On PR 19's row calls,
events and cells read the same on CPython 3.9, 3.10, 3.11, 3.12 and
3.13 (measured on each; PR 21's row is 3.11's); the tracked objects
are those of 3.11 and later -- 3.9 and 3.10 give every instance
without ``__slots__`` a dictionary of its own from the start, 8 or 9
tracked objects more per rank on the first two rows (55.4 -> 40.6), so
the ceiling is set per interpreter, ~12 % above PR 19's row in both
cases and below the first.  The slotted-records row lowered the
tracked ceiling to ~12 % above it and added the traced one, also
~12 % above; on 3.9 and 3.10 both are unmeasured and allow for the
dict the matching engine still carried there.  The tail hand-off's row
lowered the calls, tracked and traced ceilings to ~12 % above it
again; the 3.9/3.10 ceilings stay.  The event slot's row lowered the
same three, and the first table's calls and calls/event, the same way.
So did the records row; the event ceilings stay, as the events did.
The nested hand-offs' row lowered the first table's calls and
calls/event ceilings and the macro calls and traced ones, ~12 % above
it again (tracked: 19.4 already was).  The one-frame pipe's row
lowered the first table's calls and calls/event ceilings and the macro
calls one the same way, and so did the trigger-is-a-store row, and
the paired-wait row, and the earliest-finisher row.  The born-in-its-
frames row lowered the macro calls ceiling the same way.

**A rank's launch** is pinned on a third run, of the same 1,024 ranks
with an application that returns at once: profiled calls per rank from
``launch()`` to ``done``, which is what every rank of every job pays
to be spawned, booted, synchronised through ``MPI_Init`` and retired.
50.1 while the rendezvous built, pushed and dispatched an event per
rank and a spawn went ``Node.spawn -> register -> Simulator.spawn``;
36.1 since (one event per rendezvous, one spawn frame, the boot wait a
``Timeout``, one naming hook, the world communicator's rank and size
read off its ``range``, the first launch's addresses published without
a look for an old one).  The ceiling sits ~12 % above the new reading.

**The pipe's bytecode** is pinned beside its frames, because keeping
the earliest finisher saves no frame: it saves the scan of every flow
that a start at the instant of the pipe's last change used to make.
The unit is executed opcodes per entry of
``BandwidthResource._change`` on the budget run, counted with
``sys.settrace`` opcode events in that frame only: 166.0 while every
change rescanned the flows, 160.7 since (only ~1 in 20 of this small
run's changes is such a start; on the benchmark's ``himeno_cr`` it is
most of them).  The ceiling, 164, sits between the two readings rather
than ~12 % above the newer one, which would pass the rescanning pipe
too: the count is exact and does not move with ``PYTHONHASHSEED``, so
it needs no headroom for noise, only for a small edit.  It is read on
CPython 3.11 and skipped elsewhere: another interpreter compiles the
same source to other bytecode.  A second test pins the starts
themselves, on any interpreter: a start at the instant of the pipe's
last change executes the same opcodes beside one flow as beside twelve
(180 and 389 while every change rescanned).

**A paired wait** is pinned by its frame entries: a rank whose
application calls one two-rank ``sendrecv`` enters the application's
frame at its start and once when the exchange is done -- twice.  While
``sendrecv`` yielded its receive and then its send, the rank was
resumed between the two only to yield the second, and entered the
frame a third time.
"""

import cProfile
import gc
import pstats
import sys
import tracemalloc
from functools import partial

import pytest

from repro.apps.himeno import HimenoParams, himeno_fmi_app
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.fmi.api import FmiContext
from repro.models.vaidya import optimal_interval
from repro.mpi.communicator import Communicator
from repro.mpi.runtime import MpiJob
from repro.net.matching import MatchingEngine
from repro.net.message import Envelope
from repro.net.transport import Transport
from repro.obs import MetricsRegistry, Tracer
from repro.simt import BandwidthResource, Event, Simulator, Timeout
from repro.simt import resources
from repro.simt.rng import RngRegistry
from tests.count_opcodes import trace as trace_opcodes

RANKS, ITERATIONS = 24, 8
CALLS_PER_RANK_ITERATION = 800.0
EVENTS_PER_RANK_ITERATION = 105.0
#: below the 18.1 this run cost before the diet, so that neither half
#: can drift back while the other hides it
CALLS_PER_EVENT = 8.2
#: executed opcodes per ``BandwidthResource._change`` (CPython 3.11):
#: below the 166.0 a pipe that rescans at every change costs
OPCODES_PER_PIPE_CHANGE = 164.0
#: entries of ``FmiContext.loop``: 3.75 handed off, 23.6 forwarding
LOOP_ENTRIES_PER_RANK_ITERATION = 4.2
#: calls a tracer and a metrics registry add to the run, in all: 6,707
#: run alone, 10,238 after the rest of tier-1 (the bare arm then reads
#: 3,531 calls fewer)
OBSERVED_CALLS_EXCESS = 14_000


def _budget_job(observed):
    """``(sim, job, done)`` of the budget run, launched and with its
    crash armed, bare or with a tracer and a metrics registry
    attached."""
    # the one memo under src/ that outlives a simulation: without this
    # a run would be cheaper for every run profiled before it
    optimal_interval.cache_clear()
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(10), RngRegistry(14))
    if observed:
        Tracer(sim)
        MetricsRegistry(sim)
    params = HimenoParams(
        iterations=ITERATIONS, synthetic=True, points_per_rank=3.42e7,
        halo_bytes=333e3, ckpt_bytes=821e6 / 12,
    )
    job = FmiJob(
        machine, himeno_fmi_app(params), num_ranks=RANKS, procs_per_node=3,
        config=FmiConfig(mtbf_seconds=60.0, xor_group_size=4, spare_nodes=2),
    )
    done = job.launch()
    victim = job.fmirun.node_slots[3]
    sim.timeout(4.0).callbacks.append(lambda _e: victim.crash("budget"))
    return sim, job, done


def _profiled_run(observed):
    """``(calls, events, entries of FmiContext.loop)`` of the profiled
    run, bare or with a tracer and a metrics registry attached."""
    sim, job, done = _budget_job(observed)
    profile = cProfile.Profile()
    profile.enable()
    sim.run(until=done)
    profile.disable()

    assert job.recovery_count == 1
    events = sim.stats.events_processed
    assert events > 17_000  # the run is the size the ceilings were set on
    stats = pstats.Stats(profile)
    loop = FmiContext.loop.__code__
    entries = next(nc for (path, line, name), (_cc, nc, *_)
                   in stats.stats.items()
                   if (path, line, name) == (loop.co_filename,
                                             loop.co_firstlineno, "loop"))
    return stats.total_calls, events, entries


@pytest.fixture(scope="module")
def budget_run():
    return _profiled_run(observed=False)


def test_calls_per_rank_iteration_stay_under_the_ceiling(budget_run):
    calls, _events, _entries = budget_run
    assert calls / (RANKS * ITERATIONS) < CALLS_PER_RANK_ITERATION, calls


def test_events_per_rank_iteration_stay_under_the_ceiling(budget_run):
    _calls, events, _entries = budget_run
    assert events / (RANKS * ITERATIONS) < EVENTS_PER_RANK_ITERATION, events


def test_calls_per_kernel_event_stay_under_the_ceiling(budget_run):
    calls, events, _entries = budget_run
    assert calls / events < CALLS_PER_EVENT, (calls, events)


def test_no_frame_forwards_to_fmi_loops_subroutines(budget_run):
    entries = budget_run[2]
    assert entries / (RANKS * ITERATIONS) < LOOP_ENTRIES_PER_RANK_ITERATION, entries


def _pipe_opcodes(call):
    """``(opcodes, entries)`` of ``BandwidthResource._change`` while
    ``call()`` runs."""
    opcodes, entries = trace_opcodes(call)
    change = BandwidthResource._change.__code__
    return opcodes[change], entries[change]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="bytecode counts are CPython 3.11's")
def test_pipe_changes_execute_a_bounded_number_of_opcodes():
    sim, _job, done = _budget_job(observed=False)
    opcodes, entries = _pipe_opcodes(partial(sim.run, until=done))
    assert opcodes / entries < OPCODES_PER_PIPE_CHANGE, (opcodes, entries)


@pytest.mark.parametrize("overhead", [0.0, 1e-3], ids=["direct", "delayed"])
def test_a_same_instant_start_scans_no_flow(overhead):
    # the budget run has few such starts; a checkpoint burst is mostly
    # them, so their cost must not grow with the flows in the pipe
    def start_after(flows):
        sim = Simulator()
        pipe = BandwidthResource(sim, 100.0)
        for _ in range(flows):
            pipe.transfer(50.0, overhead)
        sim.run(until=overhead)  # the flows' own starts, at ``overhead``
        pipe.transfer(10.0)  # arms the deadline the next one reserves behind
        return _pipe_opcodes(partial(pipe.transfer, 10.0))

    assert start_after(1) == start_after(12)


def test_watching_costs_a_bounded_number_of_calls():
    calls, events, _entries = _profiled_run(observed=False)
    observed_calls, observed_events, _entries = _profiled_run(observed=True)
    assert observed_events == events  # observe, never perturb
    assert observed_calls - calls < OBSERVED_CALLS_EXCESS, (observed_calls, calls)


# ----------------------------------------------------------- message path
def _frames(first, last, call):
    """Names of the Python frames entered while ``call()`` runs, from
    the first entry of ``first`` up to and including the first entry of
    ``last`` (both plain functions)."""
    codes = []

    def on_event(frame, event, _arg):
        if event == "call" and (codes or frame.f_code is first.__code__):
            codes.append(frame.f_code)

    sys.setprofile(on_event)
    try:
        call()
    finally:
        sys.setprofile(None)
    stop = codes.index(last.__code__)
    return [code.co_name for code in codes[:stop + 1]]


@pytest.mark.parametrize("flavour", ["mpi", "fmi"])
def test_message_path_frame_budget(flavour):
    frames = {}

    def app(api):
        world = api.world
        if api.rank == 0:
            evt = []
            frames["send"] = _frames(
                Communicator.send_async, Transport.send,
                lambda: evt.append(world.send_async(1, 7, 8.0, 3)),
            )
            yield evt[0]
        else:
            evt = []
            frames["post"] = _frames(
                Communicator.post_recv, MatchingEngine.post,
                lambda: evt.append(world.post_recv(0, 3)),
            )
            assert (yield evt[0]).data == 7
        return None

    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(4), RngRegistry(14))
    if flavour == "mpi":
        job = MpiJob(machine, app, 2, charge_init=False)
    else:
        job = FmiJob(machine, app, num_ranks=2,
                     config=FmiConfig(checkpoint_enabled=False,
                                      xor_group_size=2))
    sim.run(until=job.launch())
    # exclusive of Transport.send: send_async alone, which fills the envelope
    assert frames["send"][-1] == "send" and len(frames["send"]) - 1 <= 1, frames
    # inclusive of MatchingEngine.post
    assert frames["post"][-1] == "post" and len(frames["post"]) <= 2, frames


@pytest.mark.parametrize("ppn", [1, 2], ids=["inter-node", "intra-node"])
def test_a_clean_message_enters_no_trigger_frame(ppn):
    # from the sender's send_async to the receiver's resume: every
    # trigger on the way is a store and a push in the caller's frame
    trigger = {Event.succeed.__code__, Timeout.__init__.__code__,
               Envelope.__init__.__code__}
    entered = []

    def on_event(frame, event, _arg):
        if event == "call":
            entered.append(frame.f_code)

    def app(api):
        world = api.world
        if api.rank == 0:
            sys.setprofile(on_event)
            yield world.send_async(1, 7, 8.0, 3)
        else:
            got = yield world.post_recv(0, 3)
            sys.setprofile(None)
            assert got.data == 7
        return None

    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(2), RngRegistry(14))
    job = MpiJob(machine, app, 2, procs_per_node=ppn, charge_init=False)
    try:
        sim.run(until=job.launch())
    finally:
        sys.setprofile(None)
    names = [code.co_name for code in entered]
    # the whole path ran: the delivery, and (inter-node) the wire's land
    assert "deliver" in names and ("land" in names) == (ppn == 1), names
    assert not trigger.intersection(entered), names


def test_a_clean_delivery_probes_one_bucket():
    engine = MatchingEngine(Simulator())
    envs = [Envelope(n % 5, 0, n % 3, 0, 0, 8.0) for n in range(300)]
    for env in envs:
        engine.post(env.src, env.tag, env.comm_id)
    profile = cProfile.Profile()
    profile.enable()
    for env in envs:
        engine.deliver(env)
    profile.disable()
    assert engine.matched_posted == len(envs)
    stats = pstats.Stats(profile).stats
    gets = next(callers for func, (*_, callers) in stats.items()
                if func[2] == "<method 'get' of 'dict' objects>")
    from_deliver = sum(nc for caller, (nc, *_) in gets.items()
                       if caller[2] == "deliver")
    assert 0 < from_deliver / len(envs) <= 2, from_deliver


def test_a_paired_wait_is_one_resume():
    entries = {0: 0, 1: 0}

    def app(api):
        peer = 1 - api.rank
        return (yield from api.sendrecv(peer, api.rank, source=peer,
                                        nbytes=8.0, tag=3))

    def on_event(frame, event, _arg):
        if event == "call" and frame.f_code is app.__code__:
            entries[frame.f_locals["api"].rank] += 1

    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(2), RngRegistry(14))
    job = MpiJob(machine, app, 2, procs_per_node=1, charge_init=False)
    sys.setprofile(on_event)
    try:
        results = sim.run(until=job.launch())
    finally:
        sys.setprofile(None)
    assert results == [1, 0]
    # its start, then the exchange's end: no resume between the
    # receive and the send
    assert entries == {0: 2, 1: 2}


# ------------------------------------------------------------------- pipe
def _entered(call, module=None):
    """Names of the Python frames entered while ``call()`` runs, of
    ``module``'s code only when one is given."""
    names = []

    def on_event(frame, event, _arg):
        code = frame.f_code
        if event == "call" and (module is None
                                or code.co_filename == module.__file__):
            names.append(code.co_name)

    sys.setprofile(on_event)
    try:
        call()
    finally:
        sys.setprofile(None)
    return names


def test_a_pipe_change_is_one_frame():
    # a flow's start: the wire's head pops and enters each NIC pipe once
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(2), RngRegistry(14))
    src, dst = machine.node(0), machine.node(1)
    machine.fabric.send(src, dst, 8.0)
    assert _entered(sim.step, resources) == ["_change", "_change"]
    assert src.nic_tx.active_flows == dst.nic_rx.active_flows == 1
    # a deadline's pop drains its flow in the one frame
    assert _entered(sim.step, resources) == ["_change"]
    assert src.nic_tx.active_flows == 0 and src.nic_tx.bytes_done == 8.0

    # an overhead: the timer is armed in the caller's frame, and its
    # pop starts the flow in the one frame
    sim = Simulator()
    pipe = BandwidthResource(sim, 1e9, name="mem")
    assert _entered(partial(pipe.transfer, 8.0, 1e-6)) == ["transfer"]
    assert _entered(sim.step, resources) == ["_change"]
    assert pipe.active_flows == 1
    assert _entered(sim.step, resources) == ["_change"]
    assert pipe.active_flows == 0 and pipe.bytes_done == 8.0
    assert _entered(partial(pipe.transfer, 8.0)) == ["transfer", "_change"]


# ------------------------------------------------------------- macro tier
MACRO_RANKS, MACRO_ROUNDS, MACRO_PPN = 1024, 2, 16
MACRO_CALLS_PER_RANK_ROUND = 63.8
MACRO_EVENTS = 14_085  # 6.88 per rank-round
#: profiled calls per rank of a no-op job's launch (36.1; 50.1 before)
LAUNCH_CALLS_PER_RANK = 40.4
MACRO_TRACKED_PER_RANK = 19.4 if sys.version_info >= (3, 11) else 40.0
MACRO_CELLS_PER_RANK = 1.0
MACRO_TRACED_BYTES_PER_RANK = 3120.0 if sys.version_info >= (3, 11) else 5000.0

_CELL = type((lambda x: lambda: x)(0).__closure__[0])


def _macro_app(api):
    right = (api.rank + 1) % api.size
    left = (api.rank - 1) % api.size
    total = 0
    for _ in range(MACRO_ROUNDS):
        total += yield from api.allreduce(1, nbytes=8.0)
        total += yield from api.sendrecv(
            right, api.rank, source=left, nbytes=1024.0, tag=7
        )
    return total


def _macro_job(make_sim=Simulator):
    sim = make_sim()
    machine = Machine(sim, SIERRA.with_nodes(MACRO_RANKS // MACRO_PPN),
                      RngRegistry(14))
    job = MpiJob(machine, _macro_app, MACRO_RANKS, procs_per_node=MACRO_PPN,
                 charge_init=False)
    return sim, job


def _check_macro(job, results):
    assert job.transport.macro.instances_macro == MACRO_ROUNDS
    assert job.transport.macro.instances_hop == 0
    assert list(results) == [
        MACRO_ROUNDS * (MACRO_RANKS + (r - 1) % MACRO_RANKS)
        for r in range(MACRO_RANKS)
    ]


@pytest.fixture(scope="module")
def macro_budget_run():
    """``(calls, events, tracked objects, closure cells, traced
    bytes)``: the first two from a profiled run, the other three at the
    burst of a second, single-stepped run with the collector off and
    ``tracemalloc`` on."""
    sim, job = _macro_job()
    profile = cProfile.Profile()
    profile.enable()
    results = sim.run(until=job.launch())
    profile.disable()
    _check_macro(job, results)
    calls = pstats.Stats(profile).total_calls
    events = sim.stats.events_processed

    sim, job = _macro_job()
    del profile, results
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = gc.get_objects()
        base = len(before)
        base_cells = sum(1 for o in before if type(o) is _CELL)
        del before
        base_bytes = tracemalloc.get_traced_memory()[0]
        done = job.launch()
        tracked = cells = traced = steps = 0
        while not done.processed:
            sim.step()
            steps += 1
            if steps % 256 == 0:
                # read before the sample's own list is allocated
                traced = max(traced,
                             tracemalloc.get_traced_memory()[0] - base_bytes)
                objects = gc.get_objects()
                if len(objects) - base > tracked:
                    tracked = len(objects) - base
                    cells = sum(
                        1 for o in objects if type(o) is _CELL
                    ) - base_cells
                del objects
    finally:
        tracemalloc.stop()
        gc.enable()
    _check_macro(job, done.value)
    return calls, events, tracked, cells, traced


def test_macro_calls_per_rank_round_stay_under_the_ceiling(macro_budget_run):
    calls = macro_budget_run[0]
    assert calls / (MACRO_RANKS * MACRO_ROUNDS) < MACRO_CALLS_PER_RANK_ROUND, calls


def test_macro_kernel_events_do_not_move(macro_budget_run):
    assert macro_budget_run[1] == MACRO_EVENTS


def test_macro_tracked_objects_per_rank_stay_under_the_ceiling(macro_budget_run):
    tracked = macro_budget_run[2]
    assert tracked / MACRO_RANKS < MACRO_TRACKED_PER_RANK, tracked


def test_no_closure_per_message_or_per_rank(macro_budget_run):
    cells = macro_budget_run[3]
    assert cells / MACRO_RANKS < MACRO_CELLS_PER_RANK, cells


def test_macro_traced_bytes_per_rank_stay_under_the_ceiling(macro_budget_run):
    traced = macro_budget_run[4]
    assert traced / MACRO_RANKS < MACRO_TRACED_BYTES_PER_RANK, traced


def _noop_app(api):
    return None
    yield  # a body that ends at its first resume


def test_a_ranks_launch_costs_a_bounded_number_of_calls():
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(MACRO_RANKS // MACRO_PPN),
                      RngRegistry(14))
    job = MpiJob(machine, _noop_app, MACRO_RANKS, procs_per_node=MACRO_PPN,
                 charge_init=False)
    profile = cProfile.Profile()
    profile.enable()
    results = sim.run(until=job.launch())
    profile.disable()
    assert results == [None] * MACRO_RANKS
    calls = pstats.Stats(profile).total_calls
    assert calls / MACRO_RANKS < LAUNCH_CALLS_PER_RANK, calls
