"""Guard: every liveness read in the runtime is classified.

FMI learns of a death only from an ibverbs disconnect, fanned out over
the log-ring, or from ``fmirun.task``'s child exit (Section IV).  A
read of ``.alive`` or ``.closed`` in ``fmi/``, ``mpi/``, ``net/`` or
``runtime/`` is one of three kinds:

* *physics* -- the simulated machine acting on itself: delivery to a
  dead context, a connection breaking, a launch onto a dead node, a
  process that cannot act once it is dead;
* *delivered* -- the read stands for an event its reader has already
  received (a task's ``failed`` flag, a context the runtime closed
  itself, the detector's out-of-band probe);
* *omniscient* -- the read sees a death nobody has reported yet.  Each
  names the delivered signal that is to replace it: a task exit, a
  detector notice or a resource-manager grant failure.

fmirun and both recovery planes read a death one way, as the spawning
task's exit record (``fproc.task.failed``), which is not a liveness
read.

This walks those packages and keys every load by ``(module, enclosing
function, source text)`` with a count.  It fails on a read the table
does not list and on a table entry no read matches any more.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
PACKAGES = ("fmi", "mpi", "net", "runtime")
LIVENESS = {"alive", "closed"}

PHYSICS, DELIVERED, OMNISCIENT = "physics", "delivered", "omniscient"
#: the delivered signals an omniscient read is to be replaced by
SIGNALS = {"task exit", "detector notice", "RM grant failure"}

#: (module, function, source text) -> (count, class, reason, signal)
READS = {
    # -- runtime/ -----------------------------------------------------------
    ("runtime/core.py", "RankProcess.alive", "self.proc.alive"):
        (1, PHYSICS, "the process's own state; a node crash kills it "
                     "before any listener runs", None),
    # -- fmi/runtime.py -----------------------------------------------------
    ("fmi/runtime.py", "FmiProcess.notify_failure", "self.alive"):
        (1, PHYSICS, "a dead process hears no notice", None),
    ("fmi/runtime.py", "Fmirun.begin_recovery", "self._recovery_proc.alive"):
        (1, PHYSICS, "fmirun's own recovery process, on the login node",
         None),
    ("fmi/runtime.py", "Fmirun._recover", "new_node.alive"):
        (2, PHYSICS, "a task launch onto a node that died during the "
                     "grant or the spawn window fails", None),
    ("fmi/runtime.py", "Fmirun.drain_slot", "node.alive"):
        (1, PHYSICS, "a dead node cannot be drained", None),
    ("fmi/runtime.py", "Fmirun.drain_slot", "child.proc.alive"):
        (1, DELIVERED, "the task's own children, whose exits it receives",
         None),
    # -- fmi/detector.py ----------------------------------------------------
    ("fmi/detector.py", "LogRingDetector.join", "peer_proc.alive"):
        (1, PHYSICS, "no edge can be built to a dead process", None),
    ("fmi/detector.py", "LogRingDetector._on_event", "fproc.alive"):
        (1, PHYSICS, "a dead endpoint's process cannot act on the "
                     "disconnect event", None),
    ("fmi/detector.py", "LogRingDetector._verify", "fproc.alive"):
        (1, PHYSICS, "a dead suspecting process cannot escalate", None),
    ("fmi/detector.py", "LogRingDetector._verify", "peer_proc.alive"):
        (1, DELIVERED, "the out-of-band probe over fmirun's management "
                       "network", None),
    ("fmi/detector.py", "LogRingDetector._repair", "rproc.alive"):
        (1, PHYSICS, "no edge can be rebuilt to a dead process", None),
    # -- fmi/replication.py -------------------------------------------------
    ("fmi/replication.py", "ReplicationPlane._rebuild_mirrors",
     "p.ctx.closed"):
        (1, DELIVERED, "a context the runtime closed itself (a replaced "
                       "or retired copy)", None),
    ("fmi/replication.py", "ReplicationPlane.mirror_copies", "ctx.closed"):
        (1, DELIVERED, "a context the runtime closed itself", None),
    ("fmi/replication.py", "ReplicationPlane.mirror_copies",
     "ctx.node.alive"):
        (1, OMNISCIENT, "a sender skips a replica on a dead node before "
                        "any disconnect reaches it", "detector notice"),
    ("fmi/replication.py", "ReplicationPlane._drain_parked", "ctx.closed"):
        (1, DELIVERED, "a context the runtime closed itself", None),
    ("fmi/replication.py", "ReplicationPlane._drain_parked",
     "ctx.node.alive"):
        (1, PHYSICS, "a parked wildcard on a dead node has no waiter",
         None),
    # -- mpi/ ---------------------------------------------------------------
    ("mpi/runtime.py", "FailStop.start", "node.alive"):
        (1, PHYSICS, "a launch onto a dead node fails", None),
    ("mpi/runtime.py", "MpiRestartDriver.run", "node.alive"):
        (1, DELIVERED, "the node the previous attempt's abort reported "
                       "dead", None),
    # -- net/ ---------------------------------------------------------------
    ("net/endpoint.py", "Connection.break_by_owner_death",
     "self.nodes[peer].alive"):
        (1, PHYSICS, "only a live end hears a connection break", None),
    ("net/endpoint.py", "Connection.break_to_live_ends", "node.alive"):
        (1, PHYSICS, "only a live end hears a connection break", None),
    ("net/endpoint.py", "ConnectionManager.connect", "node_a.alive"):
        (1, PHYSICS, "no connection to a dead node", None),
    ("net/endpoint.py", "ConnectionManager.connect", "node_b.alive"):
        (1, PHYSICS, "no connection to a dead node", None),
    ("net/transport.py", "_Arrival.__call__", "ctx.closed"):
        (1, PHYSICS, "delivery to a closed context drops", None),
    ("net/transport.py", "_Arrival.__call__", "ctx.node.alive"):
        (1, PHYSICS, "delivery to a dead node drops", None),
}


class _Reads(ast.NodeVisitor):
    """Counts ``(enclosing function, source text)`` of every liveness
    load: an attribute load, or a ``getattr`` of a liveness name."""

    def __init__(self):
        self.scope = []
        self.found = Counter()

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def _count(self, node):
        self.found[(".".join(self.scope) or "<module>", ast.unparse(node))] += 1

    def visit_Attribute(self, node):
        if node.attr in LIVENESS and isinstance(node.ctx, ast.Load):
            self._count(node)
        self.generic_visit(node)

    def visit_Call(self, node):
        func, args = node.func, node.args
        if (isinstance(func, ast.Name) and func.id == "getattr"
                and len(args) >= 2 and isinstance(args[1], ast.Constant)
                and args[1].value in LIVENESS):
            self._count(node)
        self.generic_visit(node)


def liveness_reads(tree: ast.AST) -> Counter:
    reads = _Reads()
    reads.visit(tree)
    return reads.found


def _all_reads() -> Counter:
    found = Counter()
    for package in PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            module = path.relative_to(SRC).as_posix()
            tree = ast.parse(path.read_text(), str(path))
            for (function, text), count in liveness_reads(tree).items():
                found[(module, function, text)] = count
    return found


def test_every_liveness_read_is_classified():
    found = _all_reads()
    assert found, f"nothing found under {SRC}"
    unlisted = [
        f"{key} x{count}" for key, count in found.items()
        if READS.get(key, (0,))[0] != count
    ]
    stale = [str(key) for key in READS if key not in found]
    assert not unlisted, "unclassified liveness reads: " + "; ".join(unlisted)
    assert not stale, "table entries no read matches: " + "; ".join(stale)


def test_every_entry_has_a_class_and_omniscient_ones_a_signal():
    for key, (count, cls, reason, signal) in READS.items():
        assert count >= 1 and reason, key
        assert cls in (PHYSICS, DELIVERED, OMNISCIENT), key
        if cls == OMNISCIENT:
            assert signal in SIGNALS, key
        else:
            assert signal is None, key


def test_one_omniscient_read_is_left():
    # A mirror sender's skip of a replica on a dead node: its signal is
    # a detector notice, not a task exit.
    assert [key for key, entry in READS.items() if entry[1] == OMNISCIENT] \
        == [("fmi/replication.py", "ReplicationPlane.mirror_copies",
             "ctx.node.alive")]


def test_the_guard_sees_every_spelling():
    source = (
        "def f(job, r):\n"
        "    if job.rank_procs[r].node.alive and not ctx.closed:\n"
        "        getattr(job, 'fmirun').alive\n"
        "    getattr(p, 'alive')\n"
        "    self.closed = True\n"
        "    alive = closed = False\n"
        "class C:\n"
        "    def g(self):\n"
        "        return self.alive\n"
    )
    assert liveness_reads(ast.parse(source)) == Counter({
        ("f", "job.rank_procs[r].node.alive"): 1,
        ("f", "ctx.closed"): 1,
        ("f", "getattr(job, 'fmirun').alive"): 1,
        ("f", "getattr(p, 'alive')"): 1,
        ("C.g", "self.alive"): 1,
    })
