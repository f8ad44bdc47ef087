"""The built-in invariant rules behind ``repro lint``.

Each rule guards a concrete, test-pinned property of the platform (the
docstrings say which); docs/STATIC_ANALYSIS.md is the user-facing
catalogue.  Rules register through :func:`~repro.devtools.lint.engine
.register_rule`, so adding one here (or in a downstream package) makes
it reachable from the CLI, the reporters and the registry/docs
consistency checks with no further wiring.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set

from .engine import FileContext, LintRule, ProjectContext, Violation, register_rule

__all__ = [
    "RandomGlobalStateRule",
    "WallClockRule",
    "UnorderedIterationRule",
    "FrozenSpecRule",
    "DenseSolveRule",
    "ServeHandlerRule",
    "DseStrategyRule",
    "PoolPicklabilityRule",
    "RegistryConsistencyRule",
    "PrintRule",
    "BroadExceptRule",
    "ObsInstrumentationRule",
    "ResilienceRetryRule",
]


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, ``""`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def walk_calls(tree: ast.AST) -> Iterator[ast.Call]:
    """Every call node in *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


class _ImportMap:
    """Which local names alias the stdlib/numpy random modules."""

    def __init__(self, tree: ast.AST) -> None:
        self.random_modules: Set[str] = set()      # import random [as r]
        self.numpy_modules: Set[str] = set()       # import numpy [as np]
        self.numpy_random_modules: Set[str] = set()  # import numpy.random as nr
        self.from_random: Dict[str, str] = {}      # from random import x [as y]
        self.time_modules: Set[str] = set()        # import time [as t]
        self.from_time: Dict[str, str] = {}        # from time import x [as y]
        self.datetime_like: Set[str] = set()       # datetime/date class aliases
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self.random_modules.add(local)
                    elif alias.name == "numpy":
                        self.numpy_modules.add(local)
                    elif alias.name == "numpy.random":
                        self.numpy_random_modules.add(alias.asname or "numpy")
                    elif alias.name == "time":
                        self.time_modules.add(local)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        self.from_random[alias.asname or alias.name] = alias.name
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self.numpy_random_modules.add(
                                alias.asname or alias.name
                            )
                elif node.module == "time":
                    for alias in node.names:
                        self.from_time[alias.asname or alias.name] = alias.name
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            self.datetime_like.add(alias.asname or alias.name)


@register_rule
class RandomGlobalStateRule(LintRule):
    """DET001 — all randomness must route through ``repro.rng``.

    Global-state draws (``random.random()``, ``np.random.rand()``)
    depend on import order and on every other draw in the process; the
    seeded-trajectory pins (generated workload families, floorplan
    search, scenario grids) only hold when every stream is an explicit
    seeded generator from :mod:`repro.rng`.
    """

    rule_id = "DET001"
    title = "no global-state RNG calls"
    rationale = "seeded-trajectory reproducibility (repro.rng)"

    #: random-module functions that touch the shared global stream (or,
    #: for SystemRandom, OS entropy).  random.Random is fine: it is the
    #: seeded-generator constructor repro.rng itself uses.
    BANNED_RANDOM = frozenset({
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "triangular", "gauss", "normalvariate",
        "lognormvariate", "expovariate", "vonmisesvariate", "betavariate",
        "paretovariate", "weibullvariate", "seed", "getrandbits",
        "getstate", "setstate", "binomialvariate", "SystemRandom",
    })
    #: numpy.random attributes that are *not* global state.
    NUMPY_ALLOWED = frozenset({"default_rng", "Generator", "SeedSequence",
                               "BitGenerator", "PCG64", "Philox", "SFC64"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        module = ctx.module_path()
        if not module or module == "repro/rng.py":
            return
        imports = _ImportMap(ctx.tree)
        for call in walk_calls(ctx.tree):
            name = dotted_name(call.func)
            if not name:
                continue
            parts = name.split(".")
            head, tail = parts[0], parts[-1]
            if (
                len(parts) == 2
                and head in imports.random_modules
                and tail in self.BANNED_RANDOM
            ):
                yield ctx.violation(
                    self.rule_id, call,
                    f"{name}() draws from the process-global RNG; take a "
                    f"seeded generator from repro.rng.as_random/as_generator",
                )
            elif (
                len(parts) == 1
                and imports.from_random.get(head) in self.BANNED_RANDOM
            ):
                yield ctx.violation(
                    self.rule_id, call,
                    f"{head}() (from random) draws from the process-global "
                    f"RNG; route through repro.rng",
                )
            elif (
                len(parts) >= 3
                and head in imports.numpy_modules
                and parts[1] == "random"
                and parts[2] not in self.NUMPY_ALLOWED
            ) or (
                len(parts) == 2
                and head in imports.numpy_random_modules
                and tail not in self.NUMPY_ALLOWED
            ):
                yield ctx.violation(
                    self.rule_id, call,
                    f"{name}() uses numpy's global RNG state; use "
                    f"repro.rng.as_generator(seed) instead",
                )


@register_rule
class WallClockRule(LintRule):
    """DET002 — no wall-clock reads in library code.

    Spec hashes, stored records and schedules must be functions of the
    spec alone; ``time.time()`` / ``datetime.now()`` sneak the host
    clock into outputs.  ``time.perf_counter()`` is fine — timing
    *provenance* (FlowResult.timings) measures durations, it never
    feeds a decision or a hash.
    """

    rule_id = "DET002"
    title = "no wall-clock reads"
    rationale = "spec-addressed caching and byte-stable records"

    BANNED_TIME = frozenset({"time", "time_ns", "ctime", "localtime", "gmtime"})
    BANNED_DATETIME = frozenset({"now", "utcnow", "today"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.is_library_code():
            return
        imports = _ImportMap(ctx.tree)
        for call in walk_calls(ctx.tree):
            name = dotted_name(call.func)
            if not name:
                continue
            parts = name.split(".")
            head, tail = parts[0], parts[-1]
            wall_clock = (
                (
                    len(parts) == 2
                    and head in imports.time_modules
                    and tail in self.BANNED_TIME
                )
                or (
                    len(parts) == 1
                    and imports.from_time.get(head) in self.BANNED_TIME
                )
                or (
                    len(parts) >= 2
                    and parts[-2] in (imports.datetime_like | {"datetime", "date"})
                    and tail in self.BANNED_DATETIME
                )
            )
            if wall_clock:
                yield ctx.violation(
                    self.rule_id, call,
                    f"{name}() reads the wall clock; outputs must be "
                    f"functions of the spec (use time.perf_counter() for "
                    f"duration provenance)",
                )


#: Builtins that consume an iterable without caring about its order.
_ORDER_INSENSITIVE = frozenset({
    "sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset",
})


def _is_set_expr(node: ast.AST) -> bool:
    """Whether *node* is syntactically a set (literal, comp, set() call)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@register_rule
class UnorderedIterationRule(LintRule):
    """DET003 — set iteration feeding ordered output needs ``sorted()``.

    Iterating a set of strings is not stable across processes (string
    hashing is randomized per interpreter run), so any set iteration
    that lands in an ordered artefact — results rows, spec hashes,
    report tables — silently breaks byte-identity.  Wrap the set in
    ``sorted(...)``, or feed it to an order-insensitive reducer
    (``sum``/``max``/``len``/...), which this rule already ignores.
    """

    rule_id = "DET003"
    title = "no unordered set iteration into ordered outputs"
    rationale = "byte-identical tables and stable spec hashes"

    _ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                yield self._flag(ctx, node.iter, "for-loop")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter):
                        yield self._flag(ctx, gen.iter, "comprehension")
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if (
                    name in self._ORDER_SENSITIVE_CALLS
                    and node.args
                    and _is_set_expr(node.args[0])
                ):
                    yield self._flag(ctx, node.args[0], f"{name}()")
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and node.args
                    and _is_set_expr(node.args[0])
                ):
                    yield self._flag(ctx, node.args[0], "str.join()")

    def _flag(self, ctx: FileContext, node: ast.AST, where: str) -> Violation:
        return ctx.violation(
            self.rule_id, node,
            f"set iterated in order-sensitive context ({where}); wrap it "
            f"in sorted(...) so the order is deterministic",
        )


@register_rule
class FrozenSpecRule(LintRule):
    """SPEC001 — ``*Spec`` dataclasses must be frozen and JSON-safe.

    Specs are content-addressed (``spec_hash``) and cached by value; a
    mutable spec or a non-JSON field type breaks the round-trip
    contract that the batch cache, the result store and the scenario
    grids are built on.  The JSON-safety check applies to serialized
    specs (those defining ``to_dict``/``from_dict`` or inheriting
    ``_FlatSpec``); registry-only specs just need ``frozen=True``.
    """

    rule_id = "SPEC001"
    title = "*Spec dataclasses frozen and JSON-safe"
    rationale = "spec_hash content addressing and strict JSON round-trip"

    _SCALARS = frozenset({"str", "int", "float", "bool"})
    _CONTAINERS = frozenset({
        "Optional", "Tuple", "List", "Dict", "Mapping", "Sequence", "tuple",
        "list", "dict", "Union",
    })

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.is_library_code():
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Spec") or node.name.startswith("_"):
                continue
            decorator = self._dataclass_decorator(node)
            if decorator is None:
                continue
            if not self._is_frozen(decorator):
                yield ctx.violation(
                    self.rule_id, node,
                    f"dataclass {node.name} must be @dataclass(frozen=True); "
                    f"specs are hashed and cached by value",
                )
            if self._is_serialized_spec(node):
                for stmt in node.body:
                    if not isinstance(stmt, ast.AnnAssign):
                        continue
                    target = stmt.target
                    if (
                        not isinstance(target, ast.Name)
                        or target.id.startswith("_")
                    ):
                        continue
                    if not self._json_safe(stmt.annotation):
                        field_type = ast.dump(stmt.annotation)
                        try:
                            field_type = ast.unparse(stmt.annotation)
                        except AttributeError:  # pragma: no cover - py<3.9
                            pass
                        yield ctx.violation(
                            self.rule_id, stmt,
                            f"{node.name}.{target.id}: field type "
                            f"{field_type!r} is not JSON-safe (scalars, "
                            f"Optional/Tuple/List/Dict of scalars, or "
                            f"nested *Spec types only)",
                        )

    @staticmethod
    def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.AST]:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = dotted_name(target)
            if name.split(".")[-1] == "dataclass":
                return decorator
        return None

    @staticmethod
    def _is_frozen(decorator: ast.AST) -> bool:
        if not isinstance(decorator, ast.Call):
            return False  # bare @dataclass: frozen defaults to False
        for keyword in decorator.keywords:
            if keyword.arg == "frozen":
                value = keyword.value
                return isinstance(value, ast.Constant) and value.value is True
        return False

    @staticmethod
    def _is_serialized_spec(node: ast.ClassDef) -> bool:
        for base in node.bases:
            if dotted_name(base).split(".")[-1] == "_FlatSpec":
                return True
        return any(
            isinstance(stmt, ast.FunctionDef)
            and stmt.name in ("to_dict", "from_dict")
            for stmt in node.body
        )

    def _json_safe(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            # None (Optional leg) and string forward references
            if node.value is None or node.value is Ellipsis:
                return True
            if isinstance(node.value, str):
                return node.value.endswith("Spec") or node.value in self._SCALARS
            return False
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = dotted_name(node).split(".")[-1]
            return name in self._SCALARS or name.endswith("Spec")
        if isinstance(node, ast.Subscript):
            container = dotted_name(node.value).split(".")[-1]
            if container not in self._CONTAINERS:
                return False
            inner = node.slice
            if isinstance(inner, ast.Index):  # pragma: no cover - py<3.9
                inner = inner.value
            args = inner.elts if isinstance(inner, ast.Tuple) else (inner,)
            return all(self._json_safe(arg) for arg in args)
        if isinstance(node, ast.Tuple):
            return all(self._json_safe(elt) for elt in node.elts)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            # PEP 604 unions: str | None
            return self._json_safe(node.left) and self._json_safe(node.right)
        return False


@register_rule
class DenseSolveRule(LintRule):
    """PERF001 — no dense solves outside the reference solver modules.

    PR 4's O(1) per-candidate fast path exists because every dense
    Cholesky backsolve was hoisted into ``SteadyStateSolver`` /
    ``ThermalQueryEngine`` precomputation.  A ``cho_solve`` (or
    ``np.linalg.solve``/``inv``) creeping back into scheduler, query or
    flow code re-introduces the 44x-slower path the BENCH_thermal CI
    floor guards against.
    """

    rule_id = "PERF001"
    title = "no dense solves on scheduler/query paths"
    rationale = "the PR 4 O(1) thermal fast path (BENCH_thermal CI floor)"

    #: Modules allowed to do dense linear algebra: the factored
    #: steady-state solver itself, the transient reference integrator,
    #: and the validation harness that cross-checks them.
    ALLOWED_MODULES = frozenset({
        "repro/thermal/steady.py",
        "repro/thermal/transient.py",
        "repro/thermal/validation.py",
    })
    #: Package prefixes the rule polices (the hot-path layers).
    SCOPED_PREFIXES = (
        "repro/core/", "repro/thermal/", "repro/flow/", "repro/cosynth/",
    )
    BARE_BANNED = frozenset({"cho_solve", "cho_factor"})
    DOTTED_BANNED = (
        "linalg.solve", "linalg.inv", "linalg.lstsq", "linalg.pinv",
        "linalg.cholesky",
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        module = ctx.module_path()
        if not module or module in self.ALLOWED_MODULES:
            return
        if not module.startswith(self.SCOPED_PREFIXES):
            return
        for call in walk_calls(ctx.tree):
            name = dotted_name(call.func)
            if not name:
                continue
            banned = name.split(".")[-1] in self.BARE_BANNED or any(
                name.endswith(suffix) for suffix in self.DOTTED_BANNED
            )
            if banned:
                yield ctx.violation(
                    self.rule_id, call,
                    f"dense solve {name}() on a scheduler/query path; go "
                    f"through SteadyStateSolver / ThermalQueryEngine "
                    f"(reference-path modules: "
                    f"{', '.join(sorted(self.ALLOWED_MODULES))})",
                )


@register_rule
class ServeHandlerRule(LintRule):
    """SRV001 — the serve request-handler path stays thin.

    The daemon's latency contract holds because connection handling
    (``server.py``), wire parsing (``protocol.py``) and the client
    (``client.py``) only parse, enqueue, and wait — execution lives
    behind the worker pool (``workers.py``), and platform construction
    in ``repro/flow/runner.py`` (``build_platform``), which the worker's
    flow and the engine cache (``cache.py``) call.  A ``Flow(...)`` or
    ``build_workload(...)`` creeping into the handler path would run a
    full platform build on a connection thread, blocking every queued
    client behind one cold request and bypassing the cache the daemon
    exists to serve from.
    """

    rule_id = "SRV001"
    title = "no builds or solves on the serve handler path"
    rationale = "daemon latency: handlers parse/enqueue/wait only"

    #: The handler-path modules this rule polices.  workers.py and
    #: cache.py are deliberately absent — execution happens in workers.py,
    #: and cache.py reaches construction through flow/runner.py.
    HANDLER_MODULES = frozenset({
        "repro/serve/server.py",
        "repro/serve/protocol.py",
        "repro/serve/client.py",
    })
    #: Construction/execution entry points that must not be called (or
    #: dense solves that must not run) on a connection thread.
    BARE_BANNED = frozenset({
        "Flow", "run_flow", "run_many", "build_workload",
        "build_block_network", "HotSpotModel", "SteadyStateSolver",
        "ThermalQueryEngine", "cho_solve", "cho_factor",
    })
    DOTTED_BANNED = (
        "linalg.solve", "linalg.inv", "linalg.cholesky", "linalg.lstsq",
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        module = ctx.module_path()
        if module not in self.HANDLER_MODULES:
            return
        for call in walk_calls(ctx.tree):
            name = dotted_name(call.func)
            if not name:
                continue
            banned = name.split(".")[-1] in self.BARE_BANNED or any(
                name.endswith(suffix) for suffix in self.DOTTED_BANNED
            )
            if banned:
                yield ctx.violation(
                    self.rule_id, call,
                    f"{name}() on the serve handler path; execution belongs "
                    f"behind the worker pool (repro/serve/workers.py) and "
                    f"construction in repro/flow/runner.py, reached through "
                    f"the engine cache (repro/serve/cache.py)",
                )


@register_rule
class DseStrategyRule(LintRule):
    """DSE001 — search strategies screen and evaluate through the driver.

    A DSE generation evaluates dozens of candidates; the driver owns the
    one thermal screen function
    (:func:`~repro.dse.driver.screen_placement`, injected into every
    strategy as ``StrategyContext.screen``) and the one checkpointing
    batch/store pipeline.  A strategy that constructs a
    ``SteadyStateSolver``/``ThermalQueryEngine`` — or runs flows
    directly — inside its propose/observe loop grows a second thermal
    path that the screen counters never see, and bypasses the result
    store that makes kill-and-resume byte-identical.
    """

    rule_id = "DSE001"
    title = "no fresh solvers/flows inside DSE strategy code"
    rationale = (
        "one screen, one batch layer: strategies use the driver's screen "
        "function and the checkpointing evaluator"
    )

    #: The strategy-side modules this rule polices.  driver.py and
    #: evaluate.py are deliberately absent — they are where thermal
    #: screening and flow execution are *supposed* to happen.
    STRATEGY_MODULES = frozenset({
        "repro/dse/strategies.py",
        "repro/dse/candidate.py",
        "repro/dse/archive.py",
    })
    #: Construction/execution entry points a strategy must reach only
    #: through the driver-injected screen and batch layer.
    BARE_BANNED = frozenset({
        "Flow", "run_flow", "run_many", "build_workload",
        "build_block_network", "HotSpotModel", "SteadyStateSolver",
        "ThermalQueryEngine", "cho_solve", "cho_factor",
    })
    DOTTED_BANNED = (
        "linalg.solve", "linalg.inv", "linalg.cholesky", "linalg.lstsq",
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        module = ctx.module_path()
        if module not in self.STRATEGY_MODULES:
            return
        for call in walk_calls(ctx.tree):
            name = dotted_name(call.func)
            if not name:
                continue
            banned = name.split(".")[-1] in self.BARE_BANNED or any(
                name.endswith(suffix) for suffix in self.DOTTED_BANNED
            )
            if banned:
                yield ctx.violation(
                    self.rule_id, call,
                    f"{name}() inside DSE strategy code; solver/engine "
                    f"construction and flow execution belong to the driver's "
                    f"screen function (repro/dse/driver.py) and batch "
                    f"layer (repro/dse/evaluate.py)",
                )


@register_rule
class PoolPicklabilityRule(LintRule):
    """POOL001 — pool-submitted callables must be module-level.

    ``ProcessPoolExecutor`` pickles the callable by qualified name; a
    lambda or nested function submits fine and then every worker dies
    with ``PicklingError`` at runtime — on a 10k-spec grid, an hour in.
    """

    rule_id = "POOL001"
    title = "process-pool callables must be module-level"
    rationale = "run_many worker submission (pickling by qualified name)"

    _SUBMIT_ATTRS = frozenset({
        "submit", "apply_async", "map_async", "starmap", "starmap_async",
        "imap", "imap_unordered",
    })

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        nested = self._nested_function_names(ctx.tree)
        for call in walk_calls(ctx.tree):
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            attr = func.attr
            if attr not in self._SUBMIT_ATTRS and not (
                attr == "map" and self._looks_like_pool(func.value)
            ):
                continue
            if not call.args:
                continue
            target = call.args[0]
            if isinstance(target, ast.Lambda):
                yield ctx.violation(
                    self.rule_id, target,
                    f".{attr}() given a lambda; process pools pickle "
                    f"callables by qualified name — use a module-level "
                    f"function",
                )
            elif isinstance(target, ast.Name) and target.id in nested:
                yield ctx.violation(
                    self.rule_id, target,
                    f".{attr}() given nested function {target.id!r}; "
                    f"process pools pickle callables by qualified name — "
                    f"hoist it to module level",
                )

    @staticmethod
    def _looks_like_pool(node: ast.AST) -> bool:
        name = dotted_name(node).lower()
        return "pool" in name or "executor" in name

    @staticmethod
    def _nested_function_names(tree: ast.AST) -> Set[str]:
        nested: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    if child is node:
                        continue
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        nested.add(child.name)
        return nested


@register_rule
class PrintRule(LintRule):
    """LOG001 — no bare ``print()`` in library code.

    Library output belongs to the caller: scripted users capture
    stdout for tables and JSON, so a stray diagnostic print corrupts
    machine-read output.  The CLI front ends (``repro/cli.py``) are the
    reporting layer and are allowlisted; anything else uses ``logging``
    or returns data for the CLI to render.
    """

    rule_id = "LOG001"
    title = "no bare print() outside the CLI layer"
    rationale = "machine-readable stdout (--json contracts)"

    ALLOWED_MODULES = frozenset({"repro/cli.py"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        module = ctx.module_path()
        if not module or module in self.ALLOWED_MODULES:
            return
        for call in walk_calls(ctx.tree):
            if isinstance(call.func, ast.Name) and call.func.id == "print":
                yield ctx.violation(
                    self.rule_id, call,
                    "bare print() in library code; use logging, or return "
                    "data for the CLI/reporting layer to render",
                )


@register_rule
class BroadExceptRule(LintRule):
    """EXC001 — no silent broad exception handlers.

    ``except Exception: pass``-style handlers swallow the specific
    failures the error hierarchy in :mod:`repro.errors` exists to
    surface (and hide genuine bugs as cache misses or empty results).
    Catch the exceptions you expect; a broad handler is acceptable only
    when it re-raises.
    """

    rule_id = "EXC001"
    title = "no swallowed broad exception handlers"
    rationale = "typed error surface (repro.errors)"

    _BROAD = frozenset({"Exception", "BaseException"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.is_library_code():
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if any(isinstance(child, ast.Raise) for stmt in node.body
                   for child in ast.walk(stmt)):
                continue  # broad catch that re-raises is deliberate
            caught = dotted_name(node.type) if node.type is not None else "all"
            yield ctx.violation(
                self.rule_id, node,
                f"broad 'except {caught}' swallows unexpected failures; "
                f"catch the specific expected errors (and re-raise the "
                f"rest) or re-raise",
            )

    def _is_broad(self, node: Optional[ast.AST]) -> bool:
        if node is None:
            return True  # bare except:
        if isinstance(node, ast.Tuple):
            return any(self._is_broad(elt) for elt in node.elts)
        return dotted_name(node).split(".")[-1] in self._BROAD


@register_rule
class ObsInstrumentationRule(LintRule):
    """OBS001 — timing and stats go through ``repro.obs``.

    PR 9 unified every hand-rolled timer and ad-hoc counters dict onto
    one telemetry surface: spans carry timing (``rec.span(...)`` /
    ``repro.obs.now``), :class:`~repro.obs.Counters` carries counts —
    so a trace of any layer is complete and ``/metrics`` sees every
    increment.  A raw ``time.perf_counter()`` call or a fresh
    ``self.stats = {...}`` dict in library code is invisible to both;
    this rule keeps them from growing back.  ``repro/obs/`` itself is
    exempt (it is where ``perf_counter`` is *supposed* to live).
    """

    rule_id = "OBS001"
    title = "timing/stats through repro.obs, not raw perf_counter or dicts"
    rationale = "one telemetry surface: complete traces, complete /metrics"

    _TIMERS = frozenset({"perf_counter", "perf_counter_ns", "monotonic",
                         "monotonic_ns"})
    _STATS_SUFFIXES = ("stats", "counters")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        module = ctx.module_path()
        if not module or module.startswith("repro/obs/"):
            return
        imports = _ImportMap(ctx.tree)
        for call in walk_calls(ctx.tree):
            name = dotted_name(call.func)
            if not name:
                continue
            parts = name.split(".")
            head, tail = parts[0], parts[-1]
            raw_timer = (
                len(parts) == 2
                and head in imports.time_modules
                and tail in self._TIMERS
            ) or (
                len(parts) == 1
                and imports.from_time.get(head) in self._TIMERS
            )
            if raw_timer:
                yield ctx.violation(
                    self.rule_id, call,
                    f"raw {name}() timer in library code; time through an "
                    f"obs span (get_recorder().span(...)) or repro.obs.now "
                    f"so traces stay complete",
                )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not isinstance(value, (ast.Dict, ast.DictComp)):
                continue
            for target in targets:
                target_name = dotted_name(target).split(".")[-1]
                if target_name.lower().endswith(self._STATS_SUFFIXES):
                    yield ctx.violation(
                        self.rule_id, node,
                        f"ad-hoc stats dict {target_name!r}; use "
                        f"repro.obs.Counters (a Mapping drop-in) so the "
                        f"counts also reach the metrics registry",
                    )


@register_rule
class ResilienceRetryRule(LintRule):
    """RES001 — retries are bounded and sleeps live in ``repro.resilience``.

    PR 10 gave the platform one auditable retry contract
    (:class:`~repro.resilience.RetryPolicy`: capped attempts,
    deterministic jittered backoff, sweep-wide budgets).  A raw
    ``time.sleep`` in library code is a backoff the policy cannot see
    (and chaos tests cannot fast-forward), and a ``while True`` loop
    that ``continue``s out of an exception handler is an unbounded
    retry — the exact failure mode a poison spec turns into a hung
    sweep.  ``repro/resilience/`` itself is exempt: it is where the one
    sanctioned ``sleep_for`` (and the fault injector's delay shims)
    deliberately live.
    """

    rule_id = "RES001"
    title = "no raw time.sleep or unbounded retry loops outside repro.resilience"
    rationale = "one bounded retry contract (docs/RESILIENCE.md)"

    _EXEMPT_PREFIX = "repro/resilience/"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        module = ctx.module_path()
        if not module or module.startswith(self._EXEMPT_PREFIX):
            return
        imports = _ImportMap(ctx.tree)
        for call in walk_calls(ctx.tree):
            name = dotted_name(call.func)
            parts = name.split(".") if name else []
            raw_sleep = (
                len(parts) == 2
                and parts[0] in imports.time_modules
                and parts[1] == "sleep"
            ) or (
                len(parts) == 1
                and imports.from_time.get(parts[0]) == "sleep"
            )
            if raw_sleep:
                yield ctx.violation(
                    self.rule_id, call,
                    f"raw {name}() in library code; back off through "
                    f"repro.resilience (RetryPolicy.delay_s + sleep_for) "
                    f"so waits are bounded, jittered, and test-visible",
                )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.While):
                continue
            test = node.test
            if not (isinstance(test, ast.Constant) and test.value is True):
                continue
            for handler in self._handlers(node):
                if self._retries(handler):
                    yield ctx.violation(
                        self.rule_id, handler,
                        "unbounded retry: 'while True' continues out of an "
                        "exception handler with no attempt cap; bound it "
                        "with repro.resilience.RetryPolicy (or a budget)",
                    )

    def _handlers(self, loop: ast.While) -> Iterator[ast.ExceptHandler]:
        """Except handlers belonging to *loop* (not to nested loops)."""
        stack: List[ast.stmt] = list(loop.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.While, ast.For, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                continue  # a nested loop's continue targets that loop
            if isinstance(node, ast.Try):
                yield from node.handlers
                stack.extend(node.body + node.orelse + node.finalbody)
            elif isinstance(node, ast.If):
                stack.extend(node.body + node.orelse)
            elif isinstance(node, ast.With):
                stack.extend(node.body)

    def _retries(self, handler: ast.ExceptHandler) -> bool:
        """Whether *handler* reaches a ``continue`` of the enclosing loop."""
        stack: List[ast.stmt] = list(handler.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Continue):
                return True
            if isinstance(node, (ast.While, ast.For, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                continue
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    stack.append(child)
        return False


@register_rule
class RegistryConsistencyRule(LintRule):
    """REG001 — registries, CLI listings and docs must agree.

    Every registered component (flows, policies, floorplanners, thermal
    solvers, catalogues, scenarios, analyzers, lint rules) must resolve
    through its registry, appear in the CLI's listing commands, and be
    named somewhere in the docs — a component that exists but is
    undiscoverable (or documented but gone) is how drift starts.
    Runs only when the linted tree is the repro repo itself.
    """

    rule_id = "REG001"
    title = "registries == CLI listings == docs"
    rationale = "discoverable components (specs, CLI, docs stay in sync)"

    def finalize(self, project: ProjectContext) -> Iterator[Violation]:
        root = project.root
        if not (root / "src" / "repro" / "registry.py").is_file():
            return  # not the repro repo (fixture trees, partial walks)
        yield from self._check_repo(root)

    def _check_repo(self, root) -> Iterator[Violation]:
        import contextlib
        import io

        from ... import cli
        from ...flow import registry as flow_registry
        from ...library.catalogues import catalogue_by_name, catalogue_names
        from ...results import analyzer_names, analyzers as results_analyzers
        from ...scenarios import scenario_by_name, scenario_names, suites
        from ...core import heuristics
        from ...dse import strategies as dse_strategies
        from . import engine as lint_engine

        listing = io.StringIO()
        with contextlib.redirect_stdout(listing):
            cli.main(["list"])
            cli.main(["workloads", "list"])
        listed = listing.getvalue()

        docs_text = ""
        for doc in sorted(root.glob("docs/*.md")) + [root / "README.md"]:
            if doc.is_file():
                docs_text += doc.read_text(encoding="utf-8")

        checks = (
            # kind, names, resolver, defining module
            ("flow", flow_registry.flow_names(),
             flow_registry.FLOWS.get, "src/repro/flow/registry.py"),
            ("policy", flow_registry.policy_names(),
             heuristics.policy_by_name, "src/repro/core/heuristics.py"),
            ("floorplanner", flow_registry.floorplanner_names(),
             flow_registry.FLOORPLANNERS.get, "src/repro/flow/registry.py"),
            ("thermal solver", flow_registry.thermal_solver_names(),
             flow_registry.THERMAL_SOLVERS.get, "src/repro/flow/registry.py"),
            ("catalogue", catalogue_names(),
             catalogue_by_name, "src/repro/library/catalogues.py"),
            ("scenario", scenario_names(),
             scenario_by_name, "src/repro/scenarios/suites.py"),
            ("analyzer", analyzer_names(),
             results_analyzers.ANALYZERS.get, "src/repro/results/analyzers.py"),
            ("lint rule", lint_engine.rule_names(),
             lint_engine.LINT_RULES.get, "src/repro/devtools/lint/rules.py"),
            ("dse strategy", dse_strategies.strategy_names(),
             dse_strategies.STRATEGIES.get, "src/repro/dse/strategies.py"),
        )
        del suites  # imported for its registration side effects only
        for kind, names, resolver, module in checks:
            for name in names:
                try:
                    resolver(name)
                # a failing lookup of any shape IS the reported finding
                except Exception as exc:  # repro: noqa[EXC001] -- converted to a REG001 violation, not swallowed
                    yield Violation(
                        self.rule_id, module, 1, 1,
                        f"registered {kind} {name!r} does not resolve: {exc}",
                    )
                    continue
                if not self._mentioned(name, listed):
                    yield Violation(
                        self.rule_id, module, 1, 1,
                        f"registered {kind} {name!r} missing from the CLI "
                        f"listings ('repro list' / 'repro workloads list')",
                    )
                if docs_text and not self._mentioned(name, docs_text):
                    yield Violation(
                        self.rule_id, module, 1, 1,
                        f"registered {kind} {name!r} not named anywhere in "
                        f"README.md or docs/*.md",
                    )

    @staticmethod
    def _mentioned(name: str, text: str) -> bool:
        """Whole-token mention of *name* (hyphen/underscore agnostic)."""
        variants = dict.fromkeys(
            (name, name.replace("_", "-"), name.replace("-", "_"))
        )
        for variant in variants:
            pattern = rf"(?<![\w-]){re.escape(variant)}(?![\w-])"
            if re.search(pattern, text):
                return True
        return False
