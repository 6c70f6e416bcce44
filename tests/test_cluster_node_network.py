"""Node lifecycle, fabric timing, and filesystem behaviour."""

import pytest

from repro.cluster import Machine
from repro.cluster.filesystem import FileLostError
from repro.cluster.node import NodeDownError
from repro.cluster.spec import SIERRA, ClusterSpec
from repro.simt import Simulator
from repro.simt.process import ProcessKilled
from repro.simt.rng import RngRegistry


def make_machine(n=4):
    sim = Simulator()
    return sim, Machine(sim, SIERRA.with_nodes(n), RngRegistry(7))


# ------------------------------------------------------------------- Node
def test_node_crash_kills_registered_processes():
    sim, m = make_machine()
    node = m.node(0)
    outcomes = []

    def worker():
        yield sim.timeout(100.0)
        outcomes.append("finished")  # pragma: no cover

    proc = node.spawn(worker())

    def killer():
        yield sim.timeout(1.0)
        node.crash("test")

    sim.spawn(killer())
    sim.run()
    assert outcomes == []
    assert isinstance(proc.value, ProcessKilled)
    assert not node.alive


def test_node_crash_idempotent_and_notifies_once():
    sim, m = make_machine()
    node = m.node(1)
    hits = []
    m.death_listeners[lambda n, cause: hits.append((n.id, cause))] = None
    node.crash("a")
    node.crash("b")
    assert hits == [(1, "a")]


def test_death_listeners_fire_in_subscription_order_and_a_popped_one_hears_nothing():
    sim, m = make_machine()
    heard = []

    def listener(name):
        return lambda node, cause: heard.append((name, node.id, cause))

    first, second, third = listener("first"), listener("second"), listener("third")
    for cb in (first, second, third):
        m.death_listeners[cb] = None
    m.death_listeners[first] = None  # subscribing again keeps its place
    m.node(0).crash("a")
    assert heard == [("first", 0, "a"), ("second", 0, "a"), ("third", 0, "a")]
    heard.clear()
    m.death_listeners.pop(second, None)
    m.death_listeners.pop(second, None)  # popping twice is harmless
    m.node(1).crash("b")
    assert heard == [("first", 1, "b"), ("third", 1, "b")]


def test_a_listener_that_unsubscribes_mid_fan_out_leaves_the_rest_heard():
    sim, m = make_machine()
    heard = []

    def leaver(node, cause):
        heard.append("leaver")
        m.death_listeners.pop(leaver, None)

    m.death_listeners[leaver] = None
    m.death_listeners[lambda node, cause: heard.append("stayer")] = None
    m.node(0).crash()
    m.node(1).crash()
    assert heard == ["leaver", "stayer", "stayer"]


def test_limping_count_is_the_number_of_live_limping_nodes():
    sim, m = make_machine(n=4)

    def live_limping():
        return sum(1 for n in m.nodes if n.alive and n.limping)

    steps = [
        lambda: m.node(0).set_limp(2.0),
        lambda: m.node(0).set_limp(3.0, 2.0),  # still limping: no change
        lambda: m.node(1).set_limp(latency_factor=4.0),
        lambda: m.node(2).clear_limp(),  # healthy: a no-op
        lambda: m.node(0).set_limp(1.0, 1.0),
        lambda: m.node(2).set_limp(2.0),
        lambda: m.node(1).crash("limping"),
        lambda: m.node(1).crash("again"),
        lambda: m.node(2).clear_limp(),
        lambda: m.node(3).crash("healthy"),
    ]
    counts = []
    for step in steps:
        step()
        assert m.limping_count == live_limping()
        counts.append(m.limping_count)
    assert counts == [1, 1, 2, 2, 1, 2, 1, 1, 0, 0]


def test_spawn_on_dead_node_rejected():
    # the refusal comes before the process is built: a body started on
    # a dead node would run unregistered, where no crash can kill it
    sim, m = make_machine()
    node = m.node(0)
    node.crash()
    sim.run()
    ran = []

    def body():
        ran.append(sim.now)
        yield sim.timeout(1.0)
        ran.append(sim.now)  # pragma: no cover

    queued = sim._seq
    with pytest.raises(NodeDownError, match="node 0 is down"):
        node.spawn(body(), name="orphan")
    assert sim._seq == queued and sim.peek() == float("inf")
    sim.run()
    assert ran == [] and node._procs == []


def test_node_memcpy_time():
    sim, m = make_machine()
    node = m.node(0)
    done = node.memcpy(32e9)  # 32 GB through a 32 GB/s bus
    sim.run(until=done)
    assert sim.now == pytest.approx(1.0)


def test_node_compute_time():
    sim, m = make_machine()
    node = m.node(0)
    done = node.compute(m.spec.node.core_flops * 2.0)  # 2 core-seconds
    sim.run(until=done)
    assert sim.now == pytest.approx(2.0)


def test_live_nodes_tracking():
    sim, m = make_machine(4)
    assert len(m.live_nodes) == 4
    m.fail_nodes([0, 2])
    assert sorted(n.id for n in m.live_nodes) == [1, 3]


# ----------------------------------------------------------------- Fabric
def test_fabric_one_byte_latency_matches_calibration():
    sim, m = make_machine()
    net = m.spec.network
    done = m.fabric.send(m.node(0), m.node(1), 1.0, sw_overhead=net.sw_overhead_mpi)
    sim.run(until=done)
    # 1 byte: 2*sw + wire + 1/link_bw ~= 3.555 us
    assert sim.now == pytest.approx(3.555e-6, rel=0.01)


def test_fabric_8mb_bandwidth_matches_table3():
    sim, m = make_machine()
    nbytes = 8 * 1024 * 1024
    done = m.fabric.send(m.node(0), m.node(1), nbytes)
    sim.run(until=done)
    bw = nbytes / sim.now
    assert bw == pytest.approx(3.22e9, rel=0.02)


def test_fabric_intranode_uses_memory_bus():
    sim, m = make_machine()
    before = m.node(0).mem_bw.bytes_done
    done = m.fabric.send(m.node(0), m.node(0), 1e6)
    sim.run(until=done)
    assert m.node(0).mem_bw.bytes_done - before == pytest.approx(1e6)
    # Much faster than the NIC path.
    assert sim.now < 1e6 / 3.24e9


def test_fabric_incast_bottlenecks_on_receiver():
    # 3 senders to one receiver: rx NIC shared 3 ways.
    sim, m = make_machine(4)
    nbytes = 3.24e9  # one second uncontended
    events = [m.fabric.send(m.node(i), m.node(3), nbytes) for i in (0, 1, 2)]
    sim.run()
    assert all(e.processed for e in events)
    assert sim.now == pytest.approx(3.0, rel=0.01)


def test_fabric_disjoint_pairs_run_in_parallel():
    sim, m = make_machine(4)
    nbytes = 3.24e9
    e1 = m.fabric.send(m.node(0), m.node(1), nbytes)
    e2 = m.fabric.send(m.node(2), m.node(3), nbytes)
    sim.run()
    assert e1.processed and e2.processed
    assert sim.now == pytest.approx(1.0, rel=0.01)


def test_fabric_send_from_dead_node_fails():
    sim, m = make_machine()
    m.node(0).crash()
    done = m.fabric.send(m.node(0), m.node(1), 10.0)
    sim.run()
    assert not done.ok
    assert isinstance(done.value, ConnectionError)


def test_fabric_source_dying_mid_flight_still_delivers():
    # Only a source already dead at send() is refused; once the sender
    # overhead is running the bytes are on their way.
    sim, m = make_machine()
    net = m.spec.network
    done = m.fabric.send(m.node(0), m.node(1), 1.0)
    m.node(0).crash()
    sim.run(until=done)
    assert done.ok
    assert sim.now == pytest.approx(
        2 * net.sw_overhead_fmi + net.wire_latency + 1.0 / net.link_bw)


def test_fabric_receiver_abandoned_transfer_runs_dry():
    # The waiter withdrew the arrival event mid-flight: every stage
    # still fires (the bytes occupy both NICs) and landing is a no-op.
    def events_of(abandon):
        sim, m = make_machine()
        done = m.fabric.send(m.node(0), m.node(1), 1e6)
        if abandon:
            sim.timeout(1e-5).callbacks.append(lambda e: done.cancel())
        sim.run()
        assert m.node(1).nic_rx.bytes_done == pytest.approx(1e6)
        return sim, done

    sim, done = events_of(abandon=True)
    assert done.cancelled and not done.triggered and not done.processed
    sim_ref, done_ref = events_of(abandon=False)
    assert done_ref.processed
    # one extra timer (the abandon), one arrival less
    assert sim.stats.events_processed == sim_ref.stats.events_processed
    assert sim.now == sim_ref.now


def test_fabric_limp_factors_sampled_at_send_and_at_wire_time():
    # Latency-only limps (bw_factor 1): the sender overhead uses the
    # source's factor at send(), the wire hop the larger factor *at
    # send()*, the receiver overhead the destination's factor when the
    # bytes come off the wire.
    sim, m = make_machine()
    net = m.spec.network
    o, wire = net.sw_overhead_fmi, net.wire_latency
    nbytes = 1e6
    src, dst = m.node(0), m.node(1)
    src.set_limp(1.0, 3.0)
    done = m.fabric.send(src, dst, nbytes)
    # While the bytes move: the source heals, the destination limps.
    def flip(_e):
        src.clear_limp()
        dst.set_limp(1.0, 5.0)
    sim.timeout(3 * o + 0.5 * nbytes / net.link_bw).callbacks.append(flip)
    sim.run(until=done)
    assert sim.now == pytest.approx(
        3 * o + nbytes / net.link_bw + 3 * wire + 5 * o, rel=1e-9)


def test_fabric_counters():
    sim, m = make_machine()
    m.fabric.send(m.node(0), m.node(1), 100.0)
    m.fabric.send(m.node(1), m.node(2), 50.0)
    sim.run()
    assert m.fabric.messages_sent == 2
    assert m.fabric.bytes_sent == pytest.approx(150.0)


# -------------------------------------------------------------- Filesystems
def test_tmpfs_roundtrip():
    sim, m = make_machine()
    fs = m.node(0).tmpfs
    payload = b"checkpoint-bytes" * 100

    def writer():
        yield fs.write("ckpt/rank0.dat", payload)
        data = yield fs.read("ckpt/rank0.dat")
        return data

    proc = sim.spawn(writer())
    sim.run()
    assert proc.value == payload


def test_tmpfs_write_charges_declared_size():
    sim, m = make_machine()
    fs = m.node(0).tmpfs
    done = fs.write("big", b"x", nbytes=8.0e9)  # declare 8 GB
    sim.run(until=done)
    assert sim.now == pytest.approx(8.0e9 / m.spec.filesystem.tmpfs_bw, rel=0.01)


def test_tmpfs_destroyed_on_crash():
    sim, m = make_machine()
    node = m.node(0)
    fs = node.tmpfs

    def writer():
        yield fs.write("f", b"data")
        node.crash()
        assert not fs.exists("f")
        try:
            yield fs.read("f")
        except FileLostError:
            return "lost"

    proc = sim.spawn(writer())
    sim.run()
    assert proc.value == "lost"


def test_tmpfs_read_missing_fails():
    sim, m = make_machine()
    fs = m.node(0).tmpfs

    def reader():
        try:
            yield fs.read("nope")
        except FileLostError:
            return "missing"

    proc = sim.spawn(reader())
    sim.run()
    assert proc.value == "missing"


def test_pfs_shared_bandwidth():
    sim, m = make_machine()
    # Two concurrent 50 GB writes through the 50 GB/s PFS: ~2 s total.
    e1 = m.pfs.write("a", b"1", nbytes=50e9)
    e2 = m.pfs.write("b", b"2", nbytes=50e9)
    sim.run()
    assert e1.processed and e2.processed
    assert sim.now == pytest.approx(2.0, rel=0.01)


def test_pfs_survives_node_crash():
    sim, m = make_machine()

    def run():
        yield m.pfs.write("x", b"persistent")
        m.node(0).crash()
        data = yield m.pfs.read("x")
        return data

    proc = sim.spawn(run())
    sim.run()
    assert proc.value == b"persistent"


def test_filesystem_unlink_and_listdir():
    sim, m = make_machine()
    fs = m.node(0).tmpfs

    def run():
        yield fs.write("b", b"2")
        yield fs.write("a", b"1")
        assert fs.listdir() == ["a", "b"]
        fs.unlink("a")
        assert fs.listdir() == ["b"]

    sim.spawn(run())
    sim.run()
