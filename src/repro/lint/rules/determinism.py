"""Determinism rules: seedable randomness, no clocks, ordered iteration.

These encode the invariant every record-diff and golden-file test in the
repo relies on: a run is a pure function of ``(spec, seed)``. The three
ways that silently breaks in Python are the module-global RNG, wall-clock
or OS-entropy reads, and iterating an unordered container in a path whose
visit order reaches the outputs.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.engine import (
    Finding,
    ModuleInfo,
    Rule,
    call_name,
    from_imports,
    import_aliases,
    register_rule,
)

#: Packages whose code executes inside simulations (the "simulation path").
SIM_PACKAGES = (
    "sim", "cheaptalk", "mediator", "mpc", "broadcast", "games", "field",
)

#: Draw functions of the module-global ``random`` RNG (process-wide state).
_GLOBAL_DRAWS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "getrandbits", "gauss", "normalvariate",
    "lognormvariate", "expovariate", "vonmisesvariate", "betavariate",
    "gammavariate", "paretovariate", "weibullvariate", "triangular",
    "seed", "randbytes", "binomialvariate",
})


@register_rule
class UnseededRandomRule(Rule):
    """No module-global ``random`` draws; ``Random()`` must be seeded."""

    name = "unseeded-random"
    description = (
        "calls like random.random()/random.choice() draw from the "
        "process-global RNG, and random.Random() with no arguments seeds "
        "from the OS — both break seed-determinism; draw from an RngTree "
        "stream or an explicitly seeded random.Random(seed) instead"
    )
    packages = ()  # everywhere: nothing in src/ may touch the global RNG

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        aliases = import_aliases(module.tree, "random")
        named = from_imports(module.tree, "random")
        numpy_aliases = import_aliases(module.tree, "numpy")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                owner, attr = func.value.id, func.attr
                if owner in aliases and attr in _GLOBAL_DRAWS:
                    yield module.finding(
                        self, node,
                        f"random.{attr}() draws from the process-global "
                        f"RNG; use an RngTree stream or a seeded "
                        f"random.Random(seed)",
                    )
                elif owner in aliases and attr == "Random" and not (
                    node.args or node.keywords
                ):
                    yield module.finding(
                        self, node,
                        "random.Random() with no seed initialises from OS "
                        "entropy; pass an explicit derived seed",
                    )
            elif isinstance(func, ast.Name) and func.id in named:
                original = named[func.id]
                if original in _GLOBAL_DRAWS:
                    yield module.finding(
                        self, node,
                        f"{func.id}() (from random import {original}) draws "
                        f"from the process-global RNG; use an RngTree "
                        f"stream or a seeded random.Random(seed)",
                    )
                elif original == "Random" and not (node.args or node.keywords):
                    yield module.finding(
                        self, node,
                        "Random() with no seed initialises from OS entropy; "
                        "pass an explicit derived seed",
                    )
            # numpy.random.* global draws (np.random.rand, np.random.seed,
            # ...): anything except constructing an explicitly seeded
            # generator is process-global state.
            name = call_name(node)
            if name is None:
                continue
            parts = name.split(".")
            if (
                len(parts) >= 3
                and parts[0] in numpy_aliases
                and parts[1] == "random"
                and not (
                    parts[2] in ("default_rng", "Generator", "SeedSequence")
                    and (node.args or node.keywords)
                )
            ):
                yield module.finding(
                    self, node,
                    f"{name}() uses numpy's global (or OS-seeded) RNG; use "
                    f"numpy.random.default_rng(derived_seed)",
                )


#: forbidden call -> why (dotted suffixes matched against resolved names).
_WALLCLOCK_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "clock read",
    "time.monotonic_ns": "clock read",
    "time.perf_counter": "clock read",
    "time.perf_counter_ns": "clock read",
    "datetime.now": "wall-clock read",
    "datetime.utcnow": "wall-clock read",
    "datetime.today": "wall-clock read",
    "date.today": "wall-clock read",
    "os.urandom": "OS entropy",
    "os.getrandom": "OS entropy",
    "uuid.uuid1": "host/clock-dependent id",
    "uuid.uuid4": "OS-entropy id",
}

#: Reasons that stay banned even where clock reads are exempt.
_ENTROPY_REASONS = frozenset({
    "OS entropy", "OS-entropy id", "host/clock-dependent id",
})

#: Packages the rule scans where *clock* reads are legitimate (store
#: row timestamps and latencies, telemetry spans/latencies, event-loop
#: deadlines and latency injection in the net substrate) but OS entropy
#: stays banned (fingerprints, span ids and latency draws must not
#: depend on it — net latency comes from seeded per-edge RngTree
#: streams).
CLOCK_EXEMPT_PACKAGES = ("store", "obs", "net")


@register_rule
class WallClockRule(Rule):
    """No clock or OS-entropy reads in simulation-path packages.

    The store/obs/net layers are scanned too, under a scoped
    exemption: their clock reads are allowed (that is what a store's
    timestamps, a span tracer, or an event-loop transport needs), but
    OS-entropy reads are findings everywhere the rule looks.
    """

    name = "wallclock"
    description = (
        "time.time()/datetime.now()/os.urandom()/uuid4()/secrets.* inside "
        "the simulation path make runs depend on when/where they execute; "
        "timing belongs to the TimingModel, randomness to seeded streams "
        "(elapsed-time profiling lives in the experiment layer, which this "
        "rule does not cover; repro.store/repro.obs/repro.net may "
        "read clocks but not OS entropy)"
    )
    packages = SIM_PACKAGES + CLOCK_EXEMPT_PACKAGES

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        clocks_exempt = (
            bool(module.repro_parts)
            and module.repro_parts[0] in CLOCK_EXEMPT_PACKAGES
        )
        scope = (
            f"repro.{module.repro_parts[0]}" if clocks_exempt
            else "the simulation path"
        )
        secrets_aliases = import_aliases(module.tree, "secrets")
        named = {}
        for mod in ("time", "os", "uuid", "datetime"):
            for local, original in from_imports(module.tree, mod).items():
                dotted = f"{mod}.{original}"
                if mod == "datetime":
                    # from datetime import datetime -> datetime.now later;
                    # handled through the attribute path below.
                    continue
                if dotted in _WALLCLOCK_CALLS:
                    named[local] = dotted
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            parts = name.split(".")
            if parts[0] in secrets_aliases and len(parts) > 1:
                yield module.finding(
                    self, node,
                    f"{name}() reads OS entropy inside {scope}; "
                    f"use a seeded stream",
                )
                continue
            dotted = named.get(name)
            if dotted is None:
                suffix = ".".join(parts[-2:]) if len(parts) >= 2 else name
                if suffix in _WALLCLOCK_CALLS:
                    dotted = suffix
            if dotted is None:
                continue
            reason = _WALLCLOCK_CALLS[dotted]
            if clocks_exempt and reason not in _ENTROPY_REASONS:
                continue
            yield module.finding(
                self, node,
                f"{name}() is a {reason} inside {scope} ({dotted}); "
                + (
                    "derive ids from pid/counter/clock instead"
                    if clocks_exempt
                    else "runs must be pure in (spec, seed)"
                ),
            )


#: Builtins whose result does not depend on iteration order.
_ORDER_INSENSITIVE = frozenset({
    "sorted", "min", "max", "sum", "len", "set", "frozenset", "any", "all",
    "bool",
})


class _SetTypes(ast.NodeVisitor):
    """Approximate which local names / self attributes are sets.

    Sources of set-ness: ``set(...)``/``frozenset(...)`` calls, set
    displays/comprehensions, and ``set``/``frozenset`` annotations. The
    approximation is per-class for ``self.X`` and per-module for locals —
    deliberately coarse: a name that is *ever* bound to a set in the module
    is treated as a set everywhere, which is the safe direction for a
    determinism gate.
    """

    def __init__(self) -> None:
        self.local_sets: set = set()
        self.attr_sets: set = set()  # "ClassName.attr"
        self._class_stack: list[str] = []

    def _is_set_expr(self, node: Optional[ast.AST]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def _is_set_annotation(self, node: Optional[ast.AST]) -> bool:
        if isinstance(node, ast.Name):
            return node.id in ("set", "frozenset", "Set", "FrozenSet")
        if isinstance(node, ast.Subscript):
            return self._is_set_annotation(node.value)
        if isinstance(node, ast.Attribute):
            return node.attr in ("Set", "FrozenSet", "AbstractSet")
        return False

    def _record(self, target: ast.AST, is_set: bool) -> None:
        if not is_set:
            return
        if isinstance(target, ast.Name):
            self.local_sets.add(target.id)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self._class_stack
        ):
            self.attr_sets.add(f"{self._class_stack[-1]}.{target.attr}")

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record(target, self._is_set_expr(node.value))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record(
            node.target,
            self._is_set_expr(node.value)
            or self._is_set_annotation(node.annotation),
        )
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        if self._is_set_annotation(node.annotation):
            self.local_sets.add(node.arg)
        self.generic_visit(node)


@register_rule
class UnsortedSetIterationRule(Rule):
    """Iteration over sets / ``dict.keys()`` needs an explicit order."""

    name = "unsorted-set-iteration"
    description = (
        "iterating a set/frozenset (or dict.keys()) in kernel, scheduler, "
        "or protocol code visits elements in hash order; wrap the iterable "
        "in sorted(...) — order-insensitive consumers "
        "(min/max/sum/len/any/all/set) are exempt"
    )
    packages = ("sim", "cheaptalk", "mediator", "mpc", "broadcast")

    def _classify(self, node: ast.AST, types: _SetTypes,
                  current_class: Optional[str]) -> Optional[str]:
        """A description of why ``node`` is unordered, or None."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set display"
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set", "frozenset"
            ):
                return f"a {node.func.id}(...) result"
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "keys"
            ):
                return "dict.keys()"
            return None
        if isinstance(node, ast.Name) and node.id in types.local_sets:
            return f"{node.id!r} (bound to a set in this module)"
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and current_class is not None
            and f"{current_class}.{node.attr}" in types.attr_sets
        ):
            return f"'self.{node.attr}' (a set attribute)"
        return None

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        types = _SetTypes()
        types.visit(module.tree)

        # Iterables consumed by order-insensitive callables are exempt:
        # min({...}), any(x for x in some_set), " ".join(sorted(s)), etc.
        # (AST nodes hash by object identity, so plain sets/dicts of nodes
        # give per-node bookkeeping without id()-keying.)
        exempt: set = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _ORDER_INSENSITIVE:
                    for arg in node.args:
                        exempt.add(arg)
                        if isinstance(arg, ast.GeneratorExp):
                            for comp in arg.generators:
                                exempt.add(comp.iter)
            if isinstance(node, ast.Compare):
                # Membership tests and subset comparisons are order-free.
                exempt.add(node.left)
                for comparator in node.comparators:
                    exempt.add(comparator)

        class_of: dict = {module.tree: None}

        def assign_classes(node: ast.AST, cls: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                child_cls = (
                    child.name if isinstance(child, ast.ClassDef) else cls
                )
                class_of[child] = child_cls
                assign_classes(child, child_cls)

        assign_classes(module.tree, None)

        def iter_sites(node: ast.AST):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for comp in node.generators:
                    yield comp.iter
            elif isinstance(node, ast.Call):
                fn = node.func
                if isinstance(fn, ast.Name) and fn.id in (
                    "list", "tuple", "iter", "enumerate", "reversed"
                ):
                    if node.args:
                        yield node.args[0]
                elif isinstance(fn, ast.Attribute) and fn.attr == "join":
                    if node.args:
                        yield node.args[0]

        for node in ast.walk(module.tree):
            for site in iter_sites(node):
                if site in exempt:
                    continue
                why = self._classify(site, types, class_of.get(node))
                if why is not None:
                    yield module.finding(
                        self, site,
                        f"iteration over {why} has no deterministic order "
                        f"contract; wrap it in sorted(...)",
                    )


@register_rule
class IdOrderingRule(Rule):
    """No ordering, hashing, or keying by ``id()``."""

    name = "id-ordering"
    description = (
        "id() values change between processes and runs, so anything keyed "
        "or ordered by them diverges between parallel workers and the "
        "serial reference; key by pid/uid/name instead"
    )
    packages = ()

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        shadowed = False
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = [a.arg for a in args.args + args.kwonlyargs
                         + args.posonlyargs]
                if "id" in names:
                    shadowed = True  # someone rebinds id; stop guessing
        if shadowed:
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
            ):
                yield module.finding(
                    self, node,
                    "id() is process-local and nondeterministic across "
                    "runs; never order, hash, or key simulation state by it",
                )
            elif (
                isinstance(node, ast.keyword)
                and node.arg == "key"
                and isinstance(node.value, ast.Name)
                and node.value.id == "id"
            ):
                yield module.finding(
                    self, node.value,
                    "sorting with key=id orders by memory address; use a "
                    "stable key (pid, uid, name)",
                )
