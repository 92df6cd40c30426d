"""Protocol-contract rules: reset(), __slots__, JSON symmetry, defaults.

These encode contracts that are documented in docstrings but invisible to
the type system: schedulers and timing models are *reused* across runs
(PR 5 caches instances per (name, n)), so any run state they carry must be
re-initialised by ``reset``; message/trace/context objects are allocated
per delivery, so they must be slotted; serialized result types must
round-trip losslessly; and mutable default arguments are shared state in
disguise.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.engine import (
    Finding,
    ModuleInfo,
    Rule,
    register_rule,
)


def _base_names(node: ast.ClassDef) -> list[str]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _method_names(node: ast.ClassDef) -> set:
    return {
        stmt.name
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.AST]:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = (
            target.id if isinstance(target, ast.Name)
            else target.attr if isinstance(target, ast.Attribute)
            else None
        )
        if name == "dataclass":
            return deco
    return None


@register_rule
class ResetContractRule(Rule):
    """Stateful Scheduler/TimingModel subclasses must implement reset()."""

    name = "reset-contract"
    description = (
        "schedulers and timing models are cached and reused across runs "
        "(reset(seed) / reset(runtime) is called before every run); a "
        "subclass that initialises underscore-prefixed run state in "
        "__init__ without defining reset leaks one run's state into the "
        "next — immutable configuration attributes do not need reset"
    )
    packages = ()  # subclasses appear in sim/, analysis/, experiments/

    _CONTRACT_BASES = ("Scheduler", "TimingModel")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = _base_names(node)
            contract = next(
                (
                    kind for kind in self._CONTRACT_BASES
                    if any(b == kind or b.endswith(kind) for b in bases)
                ),
                None,
            )
            if contract is None:
                continue
            methods = _method_names(node)
            if "reset" in methods:
                continue
            state = self._init_state_attrs(node)
            if state:
                yield module.finding(
                    self, node,
                    f"{node.name} subclasses {contract} and initialises run "
                    f"state ({', '.join(sorted(state))}) in __init__ but "
                    f"defines no reset(); cached instances will leak state "
                    f"across runs",
                )

    @staticmethod
    def _init_state_attrs(node: ast.ClassDef) -> list[str]:
        """Underscore-prefixed self attributes assigned in __init__."""
        init = next(
            (
                stmt for stmt in node.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
            ),
            None,
        )
        if init is None:
            return []
        attrs = []
        for sub in ast.walk(init):
            targets = []
            if isinstance(sub, ast.Assign):
                targets = sub.targets
            elif isinstance(sub, ast.AnnAssign):
                targets = [sub.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr.startswith("_")
                    and not target.attr.startswith("__")
                ):
                    attrs.append(target.attr)
        return attrs


@register_rule
class SlotsHotClassRule(Rule):
    """Per-message / per-event kernel classes must declare __slots__."""

    name = "slots-hot-class"
    description = (
        "Message/TraceEvent/View/Context objects are allocated on the "
        "kernel's per-delivery hot path; a __dict__ per instance costs "
        "memory and attribute-lookup time, and silently absorbs typo'd "
        "attribute writes — declare __slots__ (or dataclass(slots=True))"
    )
    packages = ("sim",)

    _HOT_NAME_PARTS = ("Message", "Event", "View", "Context")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(part in node.name for part in self._HOT_NAME_PARTS):
                continue
            if self._has_slots(node):
                continue
            yield module.finding(
                self, node,
                f"{node.name} looks like a per-message/per-event kernel "
                f"class (name matches "
                f"{'/'.join(self._HOT_NAME_PARTS)}) but declares no "
                f"__slots__; add __slots__ or @dataclass(slots=True)",
            )

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "__slots__":
                        return True
            elif (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__"
            ):
                return True
        deco = _dataclass_decorator(node)
        if isinstance(deco, ast.Call):
            for kw in deco.keywords:
                if (
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                ):
                    return True
        return False


@register_rule
class JsonSymmetryRule(Rule):
    """to_json/from_json and to_dict/from_dict must come in pairs."""

    name = "json-symmetry"
    description = (
        "a class with to_json but no from_json (or to_dict without "
        "from_dict) cannot round-trip — records written today become "
        "unreadable tomorrow; when to_dict builds a literal dict, its keys "
        "must also cover every dataclass field, or saved results silently "
        "lose data"
    )
    packages = ()

    _PAIRS = (("to_json", "from_json"), ("to_dict", "from_dict"))

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = _method_names(node)
            for writer, reader in self._PAIRS:
                if writer in methods and reader not in methods:
                    yield module.finding(
                        self, node,
                        f"{node.name} defines {writer}() but no {reader}(); "
                        f"serialized output cannot be read back",
                    )
                elif reader in methods and writer not in methods:
                    yield module.finding(
                        self, node,
                        f"{node.name} defines {reader}() but no {writer}(); "
                        f"the accepted format has no producer and will "
                        f"drift",
                    )
            if "to_dict" in methods and _dataclass_decorator(node) is not None:
                yield from self._check_field_coverage(module, node)

    def _check_field_coverage(
        self, module: ModuleInfo, node: ast.ClassDef
    ) -> Iterator[Finding]:
        fields = [
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and not stmt.target.id.startswith("_")
        ]
        to_dict = next(
            stmt for stmt in node.body
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "to_dict"
        )
        returns = [
            sub for sub in ast.walk(to_dict) if isinstance(sub, ast.Return)
        ]
        if len(returns) != 1 or not isinstance(returns[0].value, ast.Dict):
            return  # asdict()/computed dict: nothing to check statically
        literal = returns[0].value
        keys = set()
        for key in literal.keys:
            if key is None:
                return  # ``**spread`` present: key set is not static
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                return
            keys.add(key.value)
        missing = [f for f in fields if f not in keys]
        if missing:
            yield module.finding(
                self, to_dict,
                f"{node.name}.to_dict() omits dataclass field(s) "
                f"{', '.join(missing)}; the round-trip silently drops them",
            )


_MUTABLE_CALLS = ("list", "dict", "set", "bytearray", "defaultdict",
                  "deque", "Counter", "OrderedDict")


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        name = (
            fn.id if isinstance(fn, ast.Name)
            else fn.attr if isinstance(fn, ast.Attribute)
            else None
        )
        return name in _MUTABLE_CALLS
    return False


@register_rule
class MutableDefaultRule(Rule):
    """No mutable default arguments, anywhere."""

    name = "mutable-default"
    description = (
        "a mutable default argument is one shared object across every "
        "call — state leaks between runs exactly like an un-reset "
        "scheduler; default to None (or a tuple/frozenset) and build the "
        "mutable container inside the function"
    )
    packages = ()

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]:
                if _is_mutable_literal(default):
                    label = (
                        node.name
                        if not isinstance(node, ast.Lambda) else "<lambda>"
                    )
                    yield module.finding(
                        self, default,
                        f"mutable default argument in {label}(): one "
                        f"instance is shared across every call; use None "
                        f"and construct it inside",
                    )


@register_rule
class SwallowedExceptionRule(Rule):
    """No silently discarded exceptions in the substrate/store packages."""

    name = "swallowed-exception"
    description = (
        "a bare `except:` or an `except Exception:` whose body does "
        "nothing silently discards failures — in the simulation kernel, "
        "the net substrate and the store that turns a crash the "
        "fault-injection layer should surface into a wrong answer; catch "
        "the narrow exception you can actually handle, or suppress with "
        "a justification for the rare deliberate sink"
    )
    packages = ("sim", "net", "store")

    _BROAD = ("Exception", "BaseException")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield module.finding(
                    self, node,
                    "bare `except:` catches everything including "
                    "KeyboardInterrupt/SystemExit and hides the failure; "
                    "name the exception type",
                )
                continue
            broad = self._broad_name(node.type)
            if broad is not None and self._is_noop(node.body):
                yield module.finding(
                    self, node,
                    f"`except {broad}` with a do-nothing body swallows "
                    f"every failure silently; handle it, re-raise, or "
                    f"narrow the type",
                )

    @classmethod
    def _broad_name(cls, type_node: ast.AST):
        """The broad exception name caught, or None for narrow catches."""
        candidates = (
            type_node.elts if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        for candidate in candidates:
            name = (
                candidate.id if isinstance(candidate, ast.Name)
                else candidate.attr if isinstance(candidate, ast.Attribute)
                else None
            )
            if name in cls._BROAD:
                return name
        return None

    @staticmethod
    def _is_noop(body: list) -> bool:
        """True when a handler body does nothing observable."""
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # docstring or `...`
            return False
        return True
