"""One door per effect (``repro.utils.doors``): observers subscribe to the
methods through which an effect happens, and nothing in ``src/repro``
replaces such a method on an instance."""

import ast
import sys
from pathlib import Path

import numpy as np

from repro import Cluster
from repro.memsim.device import Device, HostMemory
from repro.utils.doors import Doors
from tests.test_tensor import SPEC

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: methods that are doors; no code may assign or delete them on an object
DOOR_METHODS = frozenset({"alloc", "free", "accumulate_grad"})


def _targets(node):
    """The attribute nodes an assignment or ``del`` target names."""
    if isinstance(node, ast.Attribute):
        yield node
    elif isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _targets(node.value)


def _is_self(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def replacements(source: str, filename: str = "<src>") -> list[str]:
    """``file:line attr`` for each assignment or ``del`` of an attribute
    named like a door method (``x.alloc = ...``, ``del x.free``,
    ``setattr(x, "alloc", ...)``) or ``group``. An ``__init__`` assigning
    its own object's attribute (``self.group = mp_group``, an exception's
    ``self.free``) is setting up that object, not replacing anything."""
    found = []

    def visit(node, in_init: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "") == "__init__")
                continue
            named = []  # (object node, attribute name)
            if isinstance(child, ast.Assign):
                named = [(t.value, t.attr) for target in child.targets for t in _targets(target)]
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                named = [(t.value, t.attr) for t in _targets(child.target)]
            elif isinstance(child, ast.Delete):
                # a del is never set-up
                named = [(None, t.attr) for target in child.targets for t in _targets(target)]
            elif (
                isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id in ("setattr", "delattr") and len(child.args) >= 2
                and isinstance(child.args[1], ast.Constant)
            ):
                named = [(child.args[0], child.args[1].value)]
            for owner, name in named:
                if name in DOOR_METHODS | {"group"} and not (in_init and _is_self(owner)):
                    found.append(f"{filename}:{child.lineno} {name}")
            visit(child, in_init)

    visit(ast.parse(source), False)
    return found


def test_no_code_in_src_replaces_a_door_on_an_instance():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += replacements(path.read_text(), str(path.relative_to(SRC)))
    assert found == []


def test_the_guard_sees_each_kind_of_replacement():
    source = '''
class Layer:
    def __init__(self, group, device):
        self.group, self.free = group, 0
        device.free = self.free

    def capture(self, device, tap):
        device.alloc, device.free = tap.alloc, tap.free
        del device.alloc
        setattr(self.param, "accumulate_grad", tap)
        self.group = tap
'''
    assert replacements(source) == [
        "<src>:5 free", "<src>:8 alloc", "<src>:8 free", "<src>:9 alloc",
        "<src>:10 accumulate_grad", "<src>:11 group",
    ]


#: the modules that may hold the fault plan by name (``Cluster`` subscribes
#: it, the ``Supervisor`` hands it on); everywhere else it is met as a
#: subscriber at the doors it injects at
PLAN_HOLDERS = frozenset({"runtime.py", "supervisor.py"})


def plan_reaches(source: str, filename: str = "<src>") -> list[str]:
    """``file:line what`` for each ``.fault_plan`` attribute (a plan reached
    through an object) and each ``fault_plan`` parameter of a
    ``Fabric.__init__``. A ``fault_plan`` parameter elsewhere is a keyword
    a caller passes, not a reach."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "fault_plan":
            found.append((node.lineno, ".fault_plan"))
        elif isinstance(node, ast.ClassDef) and node.name == "Fabric":
            for init in node.body:
                if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                    args = init.args
                    if "fault_plan" in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]:
                        found.append((init.lineno, "Fabric(fault_plan=)"))
    return [f"{filename}:{line} {what}" for line, what in sorted(found)]


def test_the_fault_plan_is_met_only_at_its_doors():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        if rel not in PLAN_HOLDERS:
            found += plan_reaches(path.read_text(), rel)
    assert found == []


def test_the_plan_guard_sees_each_kind_of_reach():
    source = '''
class Fabric:
    def __init__(self, world_size, *, fault_plan=None):
        self.fault_plan = fault_plan

def send(ctx, payload, fault_plan=None):
    if ctx.fabric.fault_plan is not None:
        payload = fault_plan
'''
    assert plan_reaches(source) == [
        "<src>:3 Fabric(fault_plan=)", "<src>:4 .fault_plan", "<src>:7 .fault_plan",
    ]


class _Spy:
    """A pool subscriber that logs what it hears."""

    def __init__(self, log, name):
        self.log, self.name = log, name

    def _alloc(self, extent, size, tag):
        self.log.append((self.name, "alloc", size, tag))

    def _free(self, extent, size):
        self.log.append((self.name, "free", size))


def test_subscribers_come_and_go_in_any_order():
    """Subscribing and unsubscribing, in any order, leaves each point as it
    was, an empty tuple; a subscriber is told only at the points it has a
    method for (``_Spy`` has no ``_freeing``)."""
    host, log = HostMemory(1 << 20), []
    a, b = _Spy(log, "a"), _Spy(log, "b")
    host.subscribe(a)
    host.subscribe(b)
    host.free(host.alloc(64, "x"))
    host.unsubscribe(a)
    host.free(host.alloc(32, "y"))
    host.unsubscribe(b)
    host.unsubscribe(b)  # a no-op
    host.free(host.alloc(16, "z"))
    assert log == [
        ("a", "alloc", 64, "x"), ("b", "alloc", 64, "x"), ("a", "free", 64), ("b", "free", 64),
        ("b", "alloc", 32, "y"), ("b", "free", 32),
    ]
    assert host.on_alloc == host.on_free == ()
    d = Device(SPEC)
    d.subscribe(a)
    assert d.on_alloc == d.on_free == (a,) and d.on_freeing == ()
    d.unsubscribe(a)
    assert d.on_alloc == d.on_free == ()


def test_a_door_calls_the_method_its_subscribers_class_has_now(monkeypatch):
    """The door looks the method up at every event, so one patched on the
    subscriber's class after it subscribed is the one that runs."""
    host, log = HostMemory(1 << 20), []
    host.subscribe(_Spy(log, "spy"))
    monkeypatch.setattr(_Spy, "_alloc", lambda self, extent, size, tag: log.append("patched"))
    host.free(host.alloc(8, "x"))
    assert log == ["patched", ("spy", "free", 8)]


def test_a_shared_group_tells_each_rank_only_its_own_collectives():
    """Eight ranks of one ``ProcessGroup`` (more than the cores) churn
    their subscriptions between each of 30 rounds of collectives,
    switching threads every microsecond. Each hears exactly its own
    collectives, meta or not, and nothing of its peers' or after it left;
    a lost update to the group's per-rank subscribers would drop or leak
    events."""

    class Watcher:
        def __init__(self):
            self.heard = []

        def _collective(self, group, rank, op, nbytes, phase, meta):
            self.heard.append((rank, op, nbytes, phase, meta))

    rounds = 30

    def fn(ctx):
        group, rank, watcher = ctx.world, ctx.rank, Watcher()
        for i in range(rounds):
            for _ in range(200):
                group.subscribe(watcher, rank)
                group.unsubscribe(watcher, rank)
            group.subscribe(watcher, rank)
            group.meta_collective(rank, "all_reduce", 8, f"round-{i}")
            group.broadcast(rank, np.ones(2, np.float32), src=0)
            group.unsubscribe(watcher, rank)
            group.barrier(rank)
        return watcher.heard, dict(group.on_collective)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = Cluster(8, timeout_s=60.0).run(fn)
    finally:
        sys.setswitchinterval(old)
    for rank, (heard, left) in enumerate(results):
        assert heard == [
            event for i in range(rounds) for event in (
                (rank, "all_reduce", 8, f"round-{i}", True), (rank, "broadcast", None, "", False),
            )
        ]
        assert left == {}


def test_doors_is_the_one_mechanism():
    """Every class with doors takes them from ``Doors``."""
    from repro.comm.group import ProcessGroup
    from repro.comm.virtual import VirtualGroup
    from repro.nn.module import Parameter

    for cls in (Device, HostMemory, ProcessGroup, VirtualGroup, Parameter):
        assert issubclass(cls, Doors) and cls.POINTS
        assert "subscribe" not in vars(cls) and "unsubscribe" not in vars(cls)
