"""A public surface with callers: every public top-level function or class
in ``src/repro``, and every public method or property of a top-level
class, is referenced by code outside ``tests/`` or has an entry in
``PUBLIC_API`` saying why it stays and where it is documented. Every
knob — a settable field of a config or policy dataclass, or a parameter
with a default of a public function, method or constructor — is set by
some call outside ``tests/`` or has an entry in ``UNSET_KNOBS`` naming
the test that sets it and the behaviour only its non-default value has."""

import ast
import importlib
import re
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
#: where a reference counts; tests never do
CALLER_DIRS = ("src", "examples", "benchmarks", "tools")
DOCS = (ROOT / "README.md", ROOT / "docs" / "ARCHITECTURE.md")

#: why a name may stay without a caller
REASONS = {
    "oracle": "a reference implementation that tests compare against",
    "checker": "a validator or invariant check that tests and users run",
    "fault-api": "a fault a test or a user injects",
    "documented": "a README snippet calls it",
    "decided-later": "an open ROADMAP item decides its fate",
    "observation": "a kept test needs it to observe kept behaviour",
}

#: qualified name (relative to ``repro``) -> (reason, README or
#: ARCHITECTURE heading that documents it)
PUBLIC_API = {
    "optim.adam.Adam": ("oracle", "What's implemented"),
    "memprof.stats.validate_snapshot": ("checker", "Snapshot export"),
    "telemetry.export.validate_metrics_jsonl": (
        "checker", "Metrics (`telemetry.metrics`) and exporters (`telemetry.export`)"),
    "memsim.block_allocator.BlockAllocator.check_invariants": ("checker", "2. Memory accounting"),
    "comm.faults.FaultPlan.fail_randomly": ("fault-api", "Fault injection (`comm.faults`)"),
    "comm.faults.FaultPlan.flip_bits": (
        "fault-api", "Corruption taxonomy and injection (`comm/faults.py`)"),
    "telemetry.session.TelemetrySession.write_metrics_jsonl": (
        "documented", "Telemetry: trace any run"),
    "telemetry.session.TelemetrySession.chrome_trace": (
        "documented", "Perfscope: where does a step go?"),
    "perfscope.PerfscopeAnalysis.annotate_chrome_trace": (
        "documented", "Perfscope: where does a step go?"),
    "obs.exporters.write_stitched_chrome_trace": ("decided-later", "Exporters (`obs.exporters`)"),
    "tensor.tensor.Tensor.freed": ("observation", "3. The NN framework's ownership contract"),
    "nn.module.Module.free_parameters": (
        "observation", "3. The NN framework's ownership contract"),
    "memsim.timeline.MemoryTimeline.peak_allocated": ("observation", "2. Memory accounting"),
    "memprof.provenance.current_phase": ("observation", "Provenance: who owns every byte"),
    "optim.decay.default_weight_decay_filter": ("observation", "What's implemented"),
    "comm.ledger.CommLedger.by_op": ("observation", "1. Thread-SPMD execution"),
    "redundancy.store.RecoverySnapshot.arrays": (
        "observation", "The fast path (`redundancy.recovery`, `supervisor`)"),
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions(modules: dict[str, str]) -> dict[str, str]:
    """Qualified name -> bare name for each public top-level function or
    class and each public method or property of a top-level class, given
    ``{dotted module: source}``."""
    found = {}
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not _public(node.name):
                continue
            found[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(member.name):
                        found[f"{module}.{node.name}.{member.name}"] = member.name
    return found


def _ignored_strings(tree) -> set[int]:
    """ids of the string constants that are no reference: what an
    ``__all__`` assignment holds, and a ``def`` line's default equal to
    its own name (``def reshape(x, shape, tag="reshape")``)."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ids.update(id(c) for c in ast.walk(node.args)
                       if isinstance(c, ast.Constant) and c.value == node.name)
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            ids.update(id(c) for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return ids


def references(sources: dict[str, str]) -> tuple[set[str], set[str]]:
    """What ``{filename: source}`` refers to, as two sets: every name it
    uses as a name, an attribute, a ``from``-import outside an
    ``__init__.py``, or a string constant equal to the name or ending in
    ``.<name>``; and the subset used as an attribute or such a string —
    the only ways to reach a method, which a local of the same name does
    not. ``__all__`` strings and package re-exports never count."""
    names, members = set(), set()
    for filename, source in sources.items():
        tree = ast.parse(source)
        skip = _ignored_strings(tree)
        in_init = Path(filename).name == "__init__.py"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                members.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and not in_init:
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
                members.add(node.value.rsplit(".", 1)[-1])
    return names | members, members


def uncalled(modules: dict[str, str], sources: dict[str, str]) -> list[str]:
    """Qualified names that nothing in ``sources`` refers to. A method or
    property (a definition inside a defined class) needs an attribute or
    a string; a top-level name may be referred to any way."""
    names, members = references(sources)
    found = definitions(modules)
    return sorted(
        q for q, name in found.items()
        if name not in (members if q.rsplit(".", 1)[0] in found else names)
    )


def _modules() -> dict[str, str]:
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path.read_text()
    return out


def _callers() -> dict[str, str]:
    return {
        str(path.relative_to(ROOT)): path.read_text()
        for d in CALLER_DIRS for path in sorted((ROOT / d).rglob("*.py"))
    }


def _headings() -> set[str]:
    return {
        re.sub(r"^#+\s*", "", line).strip()
        for doc in DOCS for line in doc.read_text().splitlines() if line.startswith("#")
    }


def test_every_public_name_has_a_caller_or_an_entry():
    assert sorted(set(uncalled(_modules(), _callers())) - set(PUBLIC_API)) == []


def test_no_entry_is_stale():
    """An entry whose name now has a caller, or no longer exists, goes."""
    modules = _modules()
    assert sorted(set(PUBLIC_API) - set(definitions(modules))) == []
    assert sorted(set(PUBLIC_API) - set(uncalled(modules, _callers()))) == []


def test_every_entry_names_a_reason_and_a_heading():
    headings = _headings()
    for qualified, (reason, heading) in PUBLIC_API.items():
        assert reason in REASONS, qualified
        assert heading in headings, (qualified, heading)


def test_every_all_entry_resolves():
    for module, source in _modules().items():
        tree = ast.parse(source)
        exported = [
            c.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for c in ast.walk(node.value) if isinstance(c, ast.Constant)
        ]
        package = f"repro.{module}" if module else "repro"
        mod = importlib.import_module(package)
        for name in exported:
            assert hasattr(mod, name), f"{package}.{name}"


def test_the_guard_flags_a_caller_less_name():
    """A re-export, an ``__all__`` string and a ``def`` line's own-name
    default are no callers; a name, an attribute, a ``from``-import and a
    dotted string are."""
    modules = {
        "pkg": "from .mod import used, unused\n__all__ = ['used', 'unused']\n",
        "pkg.mod": '''
def used(): pass
def unused(tag="unused"): pass
class Store:
    def put(self): pass
    def drop(self): pass
    def _private(self): pass
    @property
    def size(self): return 0
def by_string(): pass
''',
    }
    sources = {
        "src/pkg/__init__.py": modules["pkg"],
        "src/pkg/mod.py": modules["pkg.mod"],
        "tools/run.py": '''
from pkg.mod import used
s = Store()
s.put(); s.size
getattr(s, "mod.by_string")
''',
    }
    assert uncalled(modules, sources) == ["pkg.mod.Store.drop", "pkg.mod.unused"]


def test_a_local_named_like_a_method_is_no_caller():
    """A method is reached through an attribute or a string: a local, a
    parameter or a function of the same name does not call it. A
    top-level function is still called by its bare name."""
    modules = {"pkg.mod": '''
class Store:
    def drop(self): pass
    def put(self): pass
    def size(self): pass
def helper(): pass
'''}
    sources = {"tools/run.py": '''
from pkg.mod import Store
def size(drop):
    put = drop
    return helper(put), Store().size
'''}
    assert uncalled(modules, sources) == ["pkg.mod.Store.drop", "pkg.mod.Store.put"]



def forked_constructors(modules: dict[str, str]) -> list[str]:
    """``module.Class`` for each class in ``{dotted module: source}`` that
    calls some ``X.__init__(self, ...)`` directly instead of going through
    ``super()``: a constructor that bypasses its base's and rebuilds it."""
    found = []
    for module, source in modules.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "__init__"
                        and not isinstance(node.func.value, ast.Call)
                        and node.args and isinstance(node.args[0], ast.Name)
                        and node.args[0].id == "self"):
                    found.append(f"{module}.{cls.name}")
                    break
    return found


def test_no_class_forks_its_base_constructor():
    assert forked_constructors(_modules()) == []


def test_the_guard_flags_a_forked_constructor():
    """``Base.__init__(self, ...)`` is a fork; ``super().__init__(...)``,
    with or without arguments, is not."""
    modules = {"pkg.mod": '''
class Base:
    def __init__(self, name): self.name = name
class Chained(Base):
    def __init__(self, name): super().__init__(name)
class Forked(Base):
    def __init__(self, name):
        Base.__init__(self, name)
class Explicit(Base):
    def __init__(self, name): super(Explicit, self).__init__(name)
'''}
    assert forked_constructors(modules) == ["pkg.mod.Forked"]


def test_every_experiment_runner_is_exported():
    """``repro.experiments`` serves its runners lazily, by ``__all__``."""
    import repro.experiments as experiments

    runners = {
        path.stem for path in (SRC / "experiments").glob("*.py")
        if {"run", "render"} <= set(definitions({path.stem: path.read_text()}).values())
    }
    assert runners <= set(experiments.__all__)
    assert experiments.infinity_sweep.run


# -- knobs: every settable value is set somewhere ----------------------------

#: where a setter counts; a test is not a user, so tests never do
SETTER_DIRS = CALLER_DIRS
#: ``*Config`` / ``*Policy`` dataclasses whose fields are not knobs
NOT_KNOBS = {"GPTConfig"}  # a model shape: every field describes the model

#: ``module.Qual.name`` -> ``"tests/<file>.py::[Class::]test — <behaviour>"``:
#: a knob only tests set stays when the named test sets it and asserts
#: behaviour that exists only at a non-default value — a fault builder's
#: argument, or behaviour an open ROADMAP item builds on.
UNSET_KNOBS: dict[str, str] = {
    "comm.faults.FaultPlan.degrade_link.dst": (
        "tests/test_failslow.py::TestPerfRules::test_retire_perf_rules"
        " — a degraded link names its far end, and survives its near end's retirement"),
    "comm.faults.FaultPlan.degrade_link.from_step": (
        "tests/test_failslow.py::TestPerfRules::test_adjust_alpha_beta_window_and_group_matching"
        " — a degradation opens at its first step"),
    "comm.faults.FaultPlan.degrade_link.latency_add_s": (
        "tests/test_failslow.py::TestPerfRules::test_adjust_alpha_beta_window_and_group_matching"
        " — a degradation adds latency to the priced alpha"),
    "comm.faults.FaultPlan.degrade_link.until_step": (
        "tests/test_faults.py::test_each_builder_fires_its_pinned_event_stream"
        " — a degradation closes after its last step"),
    "comm.faults.FaultPlan.delay_send.dst": (
        "tests/test_faults.py::test_delayed_send_still_delivers — a delay hits one link"),
    "comm.faults.FaultPlan.delay_send.tag": (
        "tests/test_faults.py::test_each_builder_fires_its_pinned_event_stream"
        " — a delay hits one message tag"),
    "comm.faults.FaultPlan.delay_send.times": (
        "tests/test_faults.py::test_each_builder_fires_its_pinned_event_stream"
        " — a delay fires a bounded number of times"),
    "comm.faults.FaultPlan.drop_send.dst": (
        "tests/test_faults.py::test_dropped_send_aborts_all_ranks_fast — a drop hits one link"),
    "comm.faults.FaultPlan.drop_send.nth": (
        "tests/test_faults.py::test_each_builder_fires_its_pinned_event_stream"
        " — a drop hits the nth matching send"),
    "comm.faults.FaultPlan.drop_send.tag": (
        "tests/test_faults.py::test_each_builder_fires_its_pinned_event_stream"
        " — a drop hits one message tag"),
    "comm.faults.FaultPlan.drop_send.times": (
        "tests/test_faults.py::test_each_builder_fires_its_pinned_event_stream"
        " — a drop fires a bounded number of times"),
    "comm.faults.FaultPlan.fail_collective.op": (
        "tests/test_faults.py::test_transient_fault_retried_result_identical"
        " — a transient fault hits one collective op"),
    "comm.faults.FaultPlan.fail_randomly.max_faults": (
        "tests/test_faults.py::test_random_transients_deterministic_across_runs"
        " — random transients stop at a budget"),
    "comm.faults.FaultPlan.flip_bits.bits": (
        "tests/test_integrity.py::TestDetection::test_pre_reduce_flip_is_invisible_to_replica_comparison"
        " — a flip corrupts a chosen number of bits"),
    "comm.faults.FaultPlan.flip_bits.nth": (
        "tests/test_faults.py::test_coalesced_post_flip_hits_one_logical_broadcast_on_one_rank"
        " — a flip hits the nth matching collective"),
    "comm.faults.FaultPlan.flip_bits.op": (
        "tests/test_faults.py::test_coalesced_post_flip_hits_one_logical_broadcast_on_one_rank"
        " — a flip hits one collective op"),
    "comm.faults.FaultPlan.flip_bits.rank": (
        "tests/test_faults.py::test_coalesced_post_flip_hits_one_logical_broadcast_on_one_rank"
        " — a flip hits one rank"),
    "comm.faults.FaultPlan.flip_bits.times": (
        "tests/test_integrity.py::TestInjection::test_flip_fires_bounded_times_and_matches_rule"
        " — a flip fires a bounded number of times"),
    "comm.faults.FaultPlan.flip_bits.when": (
        "tests/test_faults.py::test_coalesced_pre_flip_corrupts_what_every_peer_reads"
        " — a flip lands before the exchange"),
    "comm.faults.FaultPlan.jitter.from_step": (
        "tests/test_faults.py::test_each_builder_fires_its_pinned_event_stream"
        " — jitter opens at its first step"),
    "comm.faults.FaultPlan.jitter.until_step": (
        "tests/test_faults.py::test_each_builder_fires_its_pinned_event_stream"
        " — jitter closes after its last step"),
    "comm.faults.FaultPlan.kill_rank.after_collectives": (
        "tests/test_faults.py::test_kill_after_collectives_aborts_world"
        " — a kill lands mid-step, after some collectives"),
    "comm.faults.FaultPlan.rot_checkpoint.bits": (
        "tests/test_integrity.py::TestInjection::test_rot_flips_file_bits_in_place"
        " — rot flips a chosen number of bits"),
    "comm.faults.FaultPlan.rot_checkpoint.rank": (
        "tests/test_integrity.py::TestCheckpointIntegrity::test_injected_rot_rejected_at_load"
        " — rot hits one rank's file"),
    "comm.faults.FaultPlan.scribble_tensor.bits": (
        "tests/test_lifecycle.py::test_a_scribbled_shard_is_rejected_before_the_optimizer_and_never_published"
        " — a scribble flips a chosen number of bits"),
    "comm.faults.FaultPlan.throttle_rank.until_step": (
        "tests/test_failslow.py::TestPerfRules::test_throttle_window"
        " — a throttle closes after its last step"),
    "infinity.config.InfinityConfig.opt_chunk_bytes": (
        "tests/test_infinity.py::test_infinity_cost_model_tracks_simulated_timeline"
        " — chunked NVMe optimizer paging; the network-lane item gives it a caller"),
    "infinity.config.InfinityConfig.prefetch_depth": (
        "tests/test_perfscope.py::TestConservation::test_stall_seconds_sum_to_step_time"
        " — a deeper gather window; the network-lane item gives it a caller"),
    "parallel.engine.EngineConfig.grad_clip_norm": (
        "tests/test_grad_clipping.py::test_clipped_training_identical_across_stages"
        " — clipping by the partitioned global norm"),
    "parallel.engine.EngineConfig.weight_decay_filter": (
        "tests/test_weight_decay_groups.py::TestEngineIntegration::test_filter_changes_only_excluded_params"
        " — decay groups by parameter name"),
    "runtime.virtual_rank_context.rank": (
        "tests/test_fabric_cluster.py::test_group_is_shared_on_a_cluster_and_virtual_on_a_virtual_context"
        " — a virtual rank other than 0, which the every-rank world item builds on"),
    "zero.factory.build_model_and_engine.pp_group": (
        "tests/test_telemetry.py::TestPipelineTrace::test_gpipe_emits_schedule_spans"
        " — a pipeline-parallel engine"),
}


class Knob(NamedTuple):
    """A settable value: what a call names to reach it, the value's own
    name, its position among the call's positional arguments (None when
    it is keyword-only), and whether ``dataclasses.replace`` sets it."""

    callee: str
    name: str
    position: int | None
    replaceable: bool = False


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        fn = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(fn, "id", getattr(fn, "attr", None)) == "dataclass":
            return True
    return False


def _settable(member) -> bool:
    """An annotated dataclass field the constructor takes: not a
    ``ClassVar`` and not ``field(init=False)``."""
    if not (isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)):
        return False
    if "ClassVar" in ast.unparse(member.annotation):
        return False
    value = member.value
    return not (isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords
    ))


def _defaulted(fn, callee: str, skip: int) -> dict[str, Knob]:
    """Each parameter of ``fn`` with a default, positioned after the
    ``skip`` leading ones a call does not pass (``self`` / ``cls``)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = {a.arg: Knob(callee, a.arg, i - skip) for i, a in enumerate(positional) if i >= first}
    found.update(
        (a.arg, Knob(callee, a.arg, None))
        for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
    )
    return found


def knobs(modules: dict[str, str]) -> dict[str, Knob]:
    """``module.Qual.name`` -> ``Knob`` for every settable value: each field
    of a top-level ``*Config`` / ``*Policy`` dataclass (``module.Class.field``),
    and each parameter with a default of a public top-level function
    (``module.fn.param``), of a public method of a public top-level class
    (``module.Class.method.param``) and of that class's ``__init__``
    (``module.Class.param``, reached by calling the class)."""
    found = {}
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node.name):
                for name, knob in _defaulted(node, node.name, 0).items():
                    found[f"{module}.{node.name}.{name}"] = knob
            if not (isinstance(node, ast.ClassDef) and _public(node.name)):
                continue
            if (node.name.endswith(("Config", "Policy")) and node.name not in NOT_KNOBS
                    and _is_dataclass(node)):
                for i, member in enumerate(filter(_settable, node.body)):
                    field = member.target.id
                    found[f"{module}.{node.name}.{field}"] = Knob(node.name, field, i, True)
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in member.decorator_list)
                if member.name == "__init__":
                    for name, knob in _defaulted(member, node.name, 1).items():
                        found[f"{module}.{node.name}.{name}"] = knob
                elif _public(member.name):
                    for name, knob in _defaulted(member, member.name, 0 if static else 1).items():
                        found[f"{module}.{node.name}.{member.name}.{name}"] = knob
    return found


def _name(node) -> str | None:
    return getattr(node, "id", getattr(node, "attr", None))


def _tables(trees) -> dict[str, set[str]]:
    """Name -> what a dict, list or tuple literal of names bound to it
    holds: a call through ``NAME[...]`` calls each of them."""
    found: dict[str, set[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, (ast.Dict, ast.List, ast.Tuple)):
                held = node.value.values if isinstance(node.value, ast.Dict) else node.value.elts
                if held and all(isinstance(v, (ast.Name, ast.Attribute)) for v in held):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            found.setdefault(target.id, set()).update(map(_name, held))
    return found


def setters(sources: dict[str, str]) -> tuple[set[tuple[str, str]], dict[str, int], set[str]]:
    """What the calls in ``sources`` set: ``(callee, keyword)`` pairs, the
    most positional arguments any call passes each callee, and the callees
    some call passes a ``*`` / ``**`` splat (it may set anything). A callee
    is the called name or attribute, the original name behind an
    ``import ... as`` alias, each base class for ``super().__init__``, and
    each entry of a constructor table for ``TABLE[...]``."""
    keywords, most, splatted = set(), {}, set()
    trees = [ast.parse(source) for source in sources.values()]
    tables = _tables(trees)
    for tree in trees:
        aliases = {
            a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for a in node.names if a.asname
        }
        bases = {}  # id(call) -> the enclosing class's bases; inner classes win
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                bases.update((id(n), [_name(b) for b in cls.bases]) for n in ast.walk(cls))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if isinstance(fn, ast.Name):
                callees = [aliases.get(fn.id, fn.id)]
            elif (isinstance(fn, ast.Attribute) and fn.attr == "__init__"
                    and isinstance(fn.value, ast.Call) and _name(fn.value.func) == "super"):
                callees = bases.get(id(node), [])
            elif isinstance(fn, ast.Subscript):
                callees = sorted(tables.get(_name(fn.value), ()))
            else:
                callees = [_name(fn)]
            n = sum(not isinstance(a, ast.Starred) for a in node.args)
            splat = (any(isinstance(a, ast.Starred) for a in node.args)
                     or any(kw.arg is None for kw in node.keywords))
            for callee in callees:
                keywords.update((callee, kw.arg) for kw in node.keywords if kw.arg)
                most[callee] = max(most.get(callee, 0), n)
                if splat:
                    splatted.add(callee)
    return keywords, most, splatted


def _is_set(knob: Knob, found) -> bool:
    """Whether ``found`` — what ``setters`` returned — sets ``knob``: by
    keyword, by position or through a splat, on the knob's callee (or,
    for a config field, by keyword through ``dataclasses.replace``)."""
    keywords, most, splatted = found
    return (
        (knob.callee, knob.name) in keywords
        or (knob.replaceable and ("replace", knob.name) in keywords)
        or (knob.position is not None and knob.position < most.get(knob.callee, 0))
        or knob.callee in splatted
    )


def unset_knobs(modules: dict[str, str], sources: dict[str, str]) -> list[str]:
    """Knobs no call in ``sources`` sets."""
    found = setters(sources)
    return sorted(q for q, knob in knobs(modules).items() if not _is_set(knob, found))


def stale_entries(
    modules: dict[str, str], sources: dict[str, str], tests: dict[str, str],
    entries: dict[str, str],
) -> list[str]:
    """Entries of an ``UNSET_KNOBS``-shaped table that no longer hold: the
    knob is gone or set in ``sources``, the named test node is not in
    ``tests`` (``{filename: source}``), or its file does not set the knob."""
    all_knobs = knobs(modules)
    unset = set(unset_knobs(modules, sources))
    stale = []
    for qualified, entry in entries.items():
        node = entry.split(" — ", 1)[0]
        filename, *names = node.split("::")
        source = tests.get(filename)
        if (qualified not in unset or source is None
                or not _has_node(ast.parse(source), names)
                or not _is_set(all_knobs[qualified], setters({filename: source}))):
            stale.append(qualified)
    return sorted(stale)


def _has_node(tree, names: list[str]) -> bool:
    """Whether ``names`` (``[Class, ..., test]``) is a path of class
    definitions from the top of ``tree`` ending at a test function."""
    body, match = tree.body, None
    for name in names:
        match = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                      and n.name == name), None)
        if match is None:
            return False
        body = match.body
    return isinstance(match, ast.FunctionDef) and match.name.startswith("test")


def setter_sources(sources: dict[str, str]) -> dict[str, str]:
    """The part of ``{filename: source}`` whose calls count as setters."""
    return {f: src for f, src in sources.items() if Path(f).parts[0] in SETTER_DIRS}


def _repo_sources() -> dict[str, str]:
    """Every ``.py`` file under the caller directories and ``tests/``."""
    return {
        str(path.relative_to(ROOT)): path.read_text()
        for d in (*CALLER_DIRS, "tests") for path in sorted((ROOT / d).rglob("*.py"))
    }


def _setters() -> dict[str, str]:
    return setter_sources(_repo_sources())


def _tests() -> dict[str, str]:
    return {f: src for f, src in _repo_sources().items() if Path(f).parts[0] == "tests"}


def test_every_knob_is_set_somewhere_or_has_an_entry():
    assert sorted(set(unset_knobs(_modules(), _setters())) - set(UNSET_KNOBS)) == []


def test_no_knob_entry_is_stale():
    """An entry goes when its knob is gone or set outside ``tests/``, and
    is mended when its named test is gone or no longer sets the knob."""
    assert stale_entries(_modules(), _setters(), _tests(), UNSET_KNOBS) == []


def test_the_guard_flags_a_fresh_unset_knob():
    """A field only its default or a test sets is flagged; one set
    through the constructor or ``replace`` outside ``tests/`` is not, nor
    one set on another callee, a ``ClassVar``, an ``init=False`` field or
    a plain class's attribute."""
    modules = {"pkg.cfg": '''
from dataclasses import dataclass, field
from typing import ClassVar
@dataclass(frozen=True)
class RunConfig:
    steps: int = 1
    fresh: int = 0
    kind: ClassVar[str] = "run"
    cache: dict = field(default_factory=dict, init=False)
@dataclass
class RetryPolicy:
    tries: int = 3
    backoff: float = 0.0
class PlainConfig:
    loose: int = 0
'''}
    sources = {
        "tools/t.py": "RunConfig(steps=2)\nreplace(p, tries=4)\nsleep(backoff=1.0)\n",
        "tests/test_t.py": "RunConfig(fresh=1)\nRetryPolicy(backoff=0.5)\n",
    }
    assert unset_knobs(modules, setter_sources(sources)) == [
        "pkg.cfg.RetryPolicy.backoff", "pkg.cfg.RunConfig.fresh",
    ]
    assert unset_knobs(modules, sources) == []  # were tests setters


def test_the_guard_flags_a_stale_knob_entry():
    """An entry holds while its knob exists, nothing outside ``tests/``
    sets it, its named test exists and that test's file sets the knob."""
    modules = {"pkg.cfg": '''
from dataclasses import dataclass
@dataclass(frozen=True)
class RunConfig:
    fresh: int = 0
    other: int = 0
'''}
    tests = {"tests/test_run.py": '''
class TestRun:
    def test_fresh(self):
        RunConfig(fresh=1)
def test_other():
    RunConfig()
'''}
    holds = {"pkg.cfg.RunConfig.fresh": "tests/test_run.py::TestRun::test_fresh — fresh runs"}
    assert stale_entries(modules, {}, tests, holds) == []
    for entries, sources in [
        ({"pkg.cfg.RunConfig.fresh": "tests/test_run.py::test_gone — no such test"}, {}),
        ({"pkg.cfg.RunConfig.fresh": "tests/test_run.py::TestRun — a class, no test"}, {}),
        ({"pkg.cfg.RunConfig.fresh": "tests/test_gone.py::test_fresh — no such file"}, {}),
        ({"pkg.cfg.RunConfig.other": "tests/test_run.py::test_other — its file sets no other"}, {}),
        ({"pkg.cfg.RunConfig.gone": "tests/test_run.py::test_other — no such knob"}, {}),
        (holds, {"tools/run.py": "RunConfig(fresh=2)\n"}),  # a user sets it now
    ]:
        assert stale_entries(modules, sources, tests, entries) == list(entries)


def test_the_guard_flags_a_fresh_unset_keyword():
    """A parameter with a default that no call passes is flagged. A call
    sets one by keyword, by position (past ``self`` / ``cls``, not past a
    ``staticmethod``'s first), through any splat, through
    ``super().__init__`` in a subclass, through an ``import ... as`` alias
    and through a constructor table; ``replace`` sets no parameter, and a
    private name or a nested function has no knobs."""
    modules = {"pkg.mod": '''
def keyed(x, *, fresh=0, width=1): pass
def placed(x, a=1, b=2): pass
def splatted(x, *, c=3): pass
def aliased(x, d=4): pass
def _private(e=5): pass
class Base:
    def __init__(self, name, size=8): pass
    def render(self, *, wide=False): pass
    @classmethod
    def of(cls, n, mp=1, pp=1): pass
    @staticmethod
    def pure(a=0, b=0): pass
class Stage1(Base):
    def __init__(self, name, depth=1):
        super().__init__(name, depth)
class Stage2(Base):
    def __init__(self, name, depth=2):
        def helper(g=7): pass
        super().__init__(name)
'''}
    sources = {"src/pkg/mod.py": modules["pkg.mod"], "tests/t.py": '''
from pkg.mod import aliased as al
ENGINES = {1: Stage1, 2: Stage2}
keyed(1, width=3)
placed(1, 2)
splatted(1, **opts)
al(1, 9)
Base.of(4, 2)
Base.pure(1)
ENGINES[stage]("unit", 3)
replace(cfg, wide=True)
'''}
    assert unset_knobs(modules, sources) == [
        "pkg.mod.Base.of.pp", "pkg.mod.Base.pure.b", "pkg.mod.Base.render.wide",
        "pkg.mod.keyed.fresh", "pkg.mod.placed.b",
    ]
