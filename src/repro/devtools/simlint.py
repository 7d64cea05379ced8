"""simlint: AST lint rules for discrete-event-simulation hazards.

The simulator's claims rest on reproducible event ordering: a simulation
must be a pure function of its inputs.  These rules catch the code
patterns that historically break that property long before a determinism
regression test does, because they never fire at all on a lucky hash
seed:

- **SL001** iteration over a ``set``/``frozenset``/``dict.keys()`` of
  non-literal origin inside simulation packages.  Set iteration order
  depends on element hashes (and, for strings, on ``PYTHONHASHSEED``);
  if the order feeds the event schedule, two runs diverge.  Iterate a
  ``sorted(...)`` view, or a dict/list which are insertion-ordered.
- **SL002** wall-clock reads (``time.time``, ``time.monotonic``,
  ``time.perf_counter``, ``datetime.now`` ...) outside ``benchmarks/``,
  ``runner/``, and ``service/``.  Simulation code must read ``sim.now``;
  wall time is for the measurement harness and the serving layer only.
- **SL003** module-level ``random.*`` / ``numpy.random.*`` calls.  The
  global RNG is cross-contaminated by any other caller; use a seeded
  ``random.Random`` / ``numpy.random.default_rng`` instance owned by the
  simulator or workload.
- **SL004** mutable default arguments (shared across calls, and across
  *simulations* when the function is module-level).
- **SL005** ``yield`` of an obviously-non-Event value (constant, tuple,
  list, bare ``yield``) inside a generator that otherwise yields
  simulation events -- the kernel only accepts :class:`Event` yields.
- **SL006** unbounded queue growth in simulation packages: a ``deque()``
  constructed without ``maxlen``, or an empty-list assignment to a
  queue-named attribute (``*queue*``/``*waiter*``/``*backlog*``).
  Simulated workloads can enqueue without bound; every queue needs a
  ``maxlen``, a charge against a :class:`repro.guard.MemoryBudget`, or
  an ignore comment documenting why its growth is bounded.
- **SL007** direct mutation of *another* component's container:
  ``self.server.queue.append(...)``, ``other.pending[k] = v`` -- a
  mutator call or subscript store whose container lives behind an
  attribute chain that crosses an object boundary.  A cross-component
  write bypasses the owner's invariants and accounting (its counters,
  congestion gates and wake-ups never see the change); route it through
  the owner's API or a message, or annotate why not.
- **SL008** module-level mutable state (``X = []`` / ``{}`` / ``set()``
  / ``deque()``) in simulation packages.  Module globals are shared
  across every simulation in the process, so mutations leak between
  supposedly independent cells and across ``runner.parallel`` workers.

Suppress a finding by appending ``# simlint: ignore[SL001]`` (or a
comma-separated list, or bare ``# simlint: ignore`` for all rules) to
the flagged line -- ideally with a trailing reason.

Usage::

    repro lint src                      # text report, exit 1 on findings
    repro lint src --format json        # machine-readable
    python -m repro.devtools.simlint src/repro/sim

No third-party dependencies: stdlib ``ast`` + ``tokenize`` only.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path, PurePath
from typing import Iterable, Iterator, Optional, Sequence, Union

__all__ = [
    "Finding",
    "RULES",
    "changed_paths",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
    "render_json",
    "render_text",
]

#: rule id -> one-line description (the catalogue; keep docs/static_analysis.md in sync)
RULES: dict[str, str] = {
    "SL001": "iteration over set/frozenset/dict.keys() of non-literal origin in sim code",
    "SL002": "wall-clock read (time.*/datetime.now) outside benchmarks/, runner/, service/",
    "SL003": "module-level random.*/numpy.random.* call instead of an owned seeded RNG",
    "SL004": "mutable default argument",
    "SL005": "yield of a non-Event value inside a simulation process generator",
    "SL006": "unbounded deque()/list queue in sim code without a documented budget",
    "SL007": "direct mutation of another component's container across an object boundary",
    "SL008": "module-level mutable state in sim code (shared across simulations)",
}

#: Attributes exempt from SL007: ``Event.callbacks`` is the kernel's
#: documented registration surface -- appending a completion callback is
#: how every component consumes events, not shared-state mutation.
_SL007_EXEMPT_ATTRS = frozenset({"callbacks"})

#: Method names whose call mutates the receiving container (SL007).
_SL007_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "push",
        "remove",
        "setdefault",
        "update",
    }
)

#: Subpackages of ``repro`` where SL001/SL006 apply (simulation code).
SIM_PACKAGES = frozenset(
    {"sim", "disk", "iosched", "pfs", "cache", "mpiio", "core", "obs", "faults", "guard"}
)
#: Path segments exempt from SL002 (the wall-clock measurement harness
#: plus the experiment service, whose provenance stamps, worker wall
#: times, and socket timeouts legitimately live in wall-clock time).
WALLCLOCK_EXEMPT_PARTS = frozenset({"benchmarks", "runner", "service"})

_WALLCLOCK_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)
_DATETIME_FACTORIES = frozenset({"now", "utcnow", "today"})
#: random.* names that construct an *instance* RNG (allowed).
_RANDOM_ALLOWED = frozenset({"Random"})
#: numpy.random names that construct seeded instance RNGs (allowed).
_NUMPY_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)
#: Method/function names whose call result is (very likely) an Event; a
#: generator yielding one of these is treated as a simulation process.
_EVENTISH_CALLS = frozenset(
    {
        "timeout",
        "event",
        "request",
        "arrive",
        "acquire",
        "wait",
        "all_of",
        "any_of",
        "put",
        "get",
        "transfer",
        "io",
        "run_cycle",
    }
)
_MUTABLE_FACTORY_NAMES = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "Counter", "OrderedDict", "bytearray"}
)

#: Attribute names SL006 treats as queues when assigned a fresh list.
_QUEUEISH_RE = re.compile(r"queue|waiter|backlog", re.IGNORECASE)

_IGNORE_RE = re.compile(
    r"#\s*simlint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_dict(self) -> dict[str, Union[str, int]]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


# ---------------------------------------------------------------------------
# ignore-comment parsing
# ---------------------------------------------------------------------------


def _ignores_by_line(source: str) -> dict[int, Optional[frozenset[str]]]:
    """line number -> ignored rule ids (``None`` means *all* rules)."""

    out: dict[int, Optional[frozenset[str]]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _IGNORE_RE.search(tok.string)
            if not m:
                continue
            raw = m.group("rules")
            line = tok.start[0]
            if raw is None:
                out[line] = None
                continue
            rules = frozenset(
                r.strip().upper() for r in raw.split(",") if r.strip()
            )
            prev = out.get(line, frozenset())
            if prev is None:
                continue
            out[line] = prev | rules
    except tokenize.TokenError:
        # Malformed trailing source; the ast parse will report it anyway.
        pass
    return out


def _is_ignored(
    finding: Finding, ignores: dict[int, Optional[frozenset[str]]]
) -> bool:
    if finding.line not in ignores:
        return False
    rules = ignores[finding.line]
    return rules is None or finding.rule in rules


# ---------------------------------------------------------------------------
# file profile (which rules apply where)
# ---------------------------------------------------------------------------


def _profile_for_path(path: str) -> tuple[bool, bool]:
    """Return ``(sim_scope, wallclock_exempt)`` for a file path.

    ``sim_scope`` enables SL001 (packages whose iteration order feeds the
    event schedule); ``wallclock_exempt`` disables SL002 (the measurement
    harness legitimately reads wall time).
    """

    parts = PurePath(path).parts
    sim_scope = False
    if "repro" in parts:
        idx = parts.index("repro")
        if idx + 1 < len(parts):
            sub = parts[idx + 1]
            sim_scope = sub in SIM_PACKAGES or sub.startswith("dualpar")
    wallclock_exempt = any(p in WALLCLOCK_EXEMPT_PARTS for p in parts)
    return sim_scope, wallclock_exempt


# ---------------------------------------------------------------------------
# the visitor
# ---------------------------------------------------------------------------


def _is_set_annotation(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset")
    if isinstance(node, ast.Subscript):
        return _is_set_annotation(node.value)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.partition("[")[0].strip() in ("set", "frozenset")
    return False


def _collect_set_attrs(tree: ast.AST) -> frozenset[str]:
    """Attribute names with set-typed declarations anywhere in the module.

    Covers ``self.x = set()``, ``self.x: set[int] = ...``, class-level
    ``x: set[int]`` annotations, and dataclass ``x: set[int] =
    field(default_factory=set)``.  Name-based, so a same-named non-set
    attribute elsewhere in the module is conservatively treated as a set
    (suppress with an ignore comment if that ever misfires).
    """

    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign) and _is_set_annotation(node.annotation):
            target = node.target
            if isinstance(target, ast.Attribute):
                out.add(target.attr)
            elif isinstance(target, ast.Name):
                # Class-body annotation (dataclass field or plain attr):
                # recorded by name; function-local ones are scope-tracked.
                out.add(target.id)
        elif isinstance(node, ast.Assign):
            value_is_set = (
                isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id in ("set", "frozenset")
            ) or isinstance(node.value, ast.SetComp)
            if value_is_set:
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        out.add(target.attr)
    return frozenset(out)


class _LintVisitor(ast.NodeVisitor):
    """Single-pass visitor implementing SL001-SL005."""

    def __init__(self, path: str, sim_scope: bool, wallclock_exempt: bool,
                 select: frozenset[str],
                 set_attrs: frozenset[str] = frozenset()) -> None:
        self.path = path
        self.sim_scope = sim_scope
        self.wallclock_exempt = wallclock_exempt
        self.select = select
        self.set_attrs = set_attrs
        # SL007 never applies inside the event kernel: Simulator, Event,
        # and the queue disciplines are one component whose invariants
        # span all three, so their writes into each other are internal.
        parts = PurePath(path).parts
        self._kernel_scope = (
            "repro" in parts
            and parts.index("repro") + 1 < len(parts)
            and parts[parts.index("repro") + 1] == "sim"
        )
        self.findings: list[Finding] = []
        # import tracking
        self._time_modules: set[str] = set()
        self._time_funcs: set[str] = set()  # from time import perf_counter [as x]
        self._datetime_modules: set[str] = set()
        self._datetime_classes: set[str] = set()  # from datetime import datetime/date
        self._random_modules: set[str] = set()
        self._random_funcs: set[str] = set()  # from random import randint [as x]
        self._numpy_modules: set[str] = set()
        self._numpy_random_modules: set[str] = set()
        self._numpy_random_funcs: set[str] = set()
        # SL001 per-function scopes: name -> is a (non-literal) set
        self._scopes: list[dict[str, bool]] = [{}]
        # SL007: locals bound to objects constructed in this function
        # (mutating a value object you just built is not cross-component)
        self._constructed: list[set[str]] = [set()]
        # SL008: nesting depth (0 = module level)
        self._def_depth = 0

    # -- helpers --------------------------------------------------------

    def _add(self, rule: str, node: ast.AST, message: str) -> None:
        if rule not in self.select:
            return
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        self.findings.append(Finding(self.path, line, col, rule, message))

    # -- imports --------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "time":
                self._time_modules.add(bound)
            elif alias.name == "datetime":
                self._datetime_modules.add(bound)
            elif alias.name == "random":
                self._random_modules.add(bound)
            elif alias.name in ("numpy", "numpy.random"):
                if alias.name == "numpy.random" and alias.asname:
                    self._numpy_random_modules.add(alias.asname)
                else:
                    self._numpy_modules.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        for alias in node.names:
            bound = alias.asname or alias.name
            if mod == "time" and alias.name in _WALLCLOCK_TIME_FUNCS:
                self._time_funcs.add(bound)
            elif mod == "datetime" and alias.name in ("datetime", "date"):
                self._datetime_classes.add(bound)
            elif mod == "random" and alias.name not in _RANDOM_ALLOWED:
                self._random_funcs.add(bound)
            elif mod == "numpy" and alias.name == "random":
                self._numpy_random_modules.add(bound)
            elif mod == "numpy.random" and alias.name not in _NUMPY_RANDOM_ALLOWED:
                self._numpy_random_funcs.add(bound)
        self.generic_visit(node)

    # -- SL004 + scope handling + SL005 ---------------------------------

    def _check_defaults(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]) -> None:
        defaults: list[Optional[ast.expr]] = list(node.args.defaults)
        defaults += list(node.args.kw_defaults)
        for d in defaults:
            if d is None:
                continue
            mutable = isinstance(d, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                     ast.SetComp, ast.DictComp))
            if (
                not mutable
                and isinstance(d, ast.Call)
                and isinstance(d.func, ast.Name)
                and d.func.id in _MUTABLE_FACTORY_NAMES
            ):
                mutable = True
            if mutable:
                self._add(
                    "SL004",
                    d,
                    "mutable default argument is shared across calls; "
                    "default to None and create inside the body",
                )

    def _visit_function(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        self._check_defaults(node)
        self._check_process_yields(node)
        self._scopes.append({})
        self._constructed.append(set())
        self._def_depth += 1
        self.generic_visit(node)
        self._def_depth -= 1
        self._constructed.pop()
        self._scopes.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._def_depth += 1
        self.generic_visit(node)
        self._def_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def _own_yields(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> Iterator[ast.Yield]:
        """Yield expressions belonging to *this* generator (not nested defs)."""

        stack: list[ast.AST] = list(node.body)
        while stack:
            cur = stack.pop()
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                ast.ClassDef)):
                continue
            if isinstance(cur, ast.Yield):
                yield cur
            stack.extend(ast.iter_child_nodes(cur))

    @staticmethod
    def _looks_eventish(value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        return name in _EVENTISH_CALLS

    def _check_process_yields(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        yields = list(self._own_yields(node))
        if not any(y.value is not None and self._looks_eventish(y.value) for y in yields):
            return  # not recognisably a simulation process
        for y in yields:
            v = y.value
            bad: Optional[str] = None
            if v is None:
                bad = "bare `yield` (yields None)"
            elif isinstance(v, ast.Constant):
                bad = f"constant {v.value!r}"
            elif isinstance(v, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
                bad = type(v).__name__.lower()
            elif isinstance(v, ast.JoinedStr):
                bad = "f-string"
            if bad is not None:
                self._add(
                    "SL005",
                    y,
                    f"process generator {node.name!r} yields {bad}; "
                    "the kernel only accepts Event yields",
                )

    # -- SL001: set-origin tracking and iteration sites -----------------

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Set):
            # A literal of pure constants is deterministic enough to pass
            # ("non-literal origin" in the rule); any computed element is not.
            return not all(isinstance(e, ast.Constant) for e in node.elts)
        if isinstance(node, ast.Name):
            for scope in reversed(self._scopes):
                if node.id in scope:
                    return scope[node.id]
            return False
        if isinstance(node, ast.Attribute):
            return node.attr in self.set_attrs
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    # -- SL007/SL008 helpers --------------------------------------------

    @staticmethod
    def _is_mutable_container(value: ast.expr) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.SetComp, ast.DictComp)):
            return True
        if isinstance(value, ast.Call):
            fn = value.func
            name = fn.id if isinstance(fn, ast.Name) else (
                fn.attr if isinstance(fn, ast.Attribute) else ""
            )
            return name in _MUTABLE_FACTORY_NAMES
        return False

    @staticmethod
    def _chain_root(expr: ast.expr) -> Optional[str]:
        """Base name of an attribute/subscript chain, or None."""
        while isinstance(expr, (ast.Attribute, ast.Subscript)):
            expr = expr.value
        return expr.id if isinstance(expr, ast.Name) else None

    def _foreign_container(self, container: ast.expr) -> Optional[str]:
        """Rendered source of ``container`` when it is *another*
        component's state (an attribute chain crossing an object
        boundary), else None.

        ``self.queue`` is own state; ``self.server.queue`` and
        ``other.queue`` are foreign; locals constructed in this function
        (fresh value objects) or aliased from ``self.*`` (own subtree,
        e.g. ``st = self._streams[sid]``) are exempt.
        """
        if self._kernel_scope:
            return None
        while isinstance(container, ast.Subscript):
            container = container.value
        if not isinstance(container, ast.Attribute):
            return None
        if container.attr in _SL007_EXEMPT_ATTRS:
            return None
        base = container.value
        while isinstance(base, (ast.Subscript, ast.Call)):
            base = base.value if isinstance(base, ast.Subscript) else base.func
        if isinstance(base, ast.Name):
            if base.id in ("self", "cls"):
                return None
            if any(base.id in s for s in self._constructed):
                return None
            return ast.unparse(container)
        if isinstance(base, ast.Attribute):
            return ast.unparse(container)
        return None

    def _check_sl007_store(self, target: ast.expr) -> None:
        if not self.sim_scope or not isinstance(target, ast.Subscript):
            return
        foreign = self._foreign_container(target.value)
        if foreign is not None:
            self._add(
                "SL007",
                target,
                f"subscript store into another component's container "
                f"`{foreign}`; it bypasses the owner's invariants and "
                "accounting, so route through the owner's API or a message",
            )

    def _check_sl008(self, target: ast.expr, value: ast.expr,
                     node: ast.stmt) -> None:
        if not self.sim_scope or self._def_depth != 0:
            return
        if not isinstance(target, ast.Name) or target.id.startswith("__"):
            return
        if self._is_mutable_container(value):
            self._add(
                "SL008",
                node,
                f"module-level mutable state `{target.id}` is shared by every "
                "simulation in the process; make it immutable "
                "(tuple/frozenset/Mapping) or move it onto an instance",
            )

    def _track_alias(self, name: str, value: ast.expr) -> None:
        """Record locals that SL007 may treat as own state: freshly
        constructed objects, aliases of self's own subtree
        (``st = self._streams[k]``), and results of own accessor calls
        (``cyc = self._ensure_cycle()``, ``st = self._streams.get(k)``)."""
        if isinstance(value, ast.Call):
            fn = value.func
            ctor = fn.id if isinstance(fn, ast.Name) else (
                fn.attr if isinstance(fn, ast.Attribute) else ""
            )
            if ctor[:1].isupper() or ctor in _MUTABLE_FACTORY_NAMES:
                self._constructed[-1].add(name)
            elif self._chain_root(fn) in ("self", "cls"):
                self._constructed[-1].add(name)
        elif self._is_mutable_container(value):
            self._constructed[-1].add(name)
        elif self._chain_root(value) in ("self", "cls"):
            self._constructed[-1].add(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._scopes[-1][target.id] = is_set
                self._track_alias(target.id, node.value)
            elif (
                isinstance(target, ast.Tuple)
                and isinstance(node.value, ast.Tuple)
                and len(target.elts) == len(node.value.elts)
            ):
                # `a, b = self._units[i], self._units[j]` aliases pairwise.
                for elt, val in zip(target.elts, node.value.elts):
                    if isinstance(elt, ast.Name):
                        self._track_alias(elt.id, val)
            self._check_list_queue(target, node.value)
            self._check_sl007_store(target)
            self._check_sl008(target, node.value, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            is_set = _is_set_annotation(node.annotation) or (
                node.value is not None and self._is_set_expr(node.value)
            )
            self._scopes[-1][node.target.id] = is_set
        if node.value is not None:
            self._check_list_queue(node.target, node.value)
            self._check_sl008(node.target, node.value, node)
        self._check_sl007_store(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # `s |= other` keeps (or establishes) set-ness; other ops keep state.
        if isinstance(node.target, ast.Name) and isinstance(node.op, ast.BitOr):
            if self._is_set_expr(node.value):
                self._scopes[-1][node.target.id] = True
        self._check_sl007_store(node.target)
        self.generic_visit(node)

    def _set_iter_reason(self, it: ast.expr) -> Optional[str]:
        if isinstance(it, ast.Call):
            func = it.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"a freshly built {func.id}"
            if isinstance(func, ast.Attribute) and func.attr == "keys" and not it.args:
                return "dict.keys()"
        if isinstance(it, (ast.Set, ast.SetComp, ast.BinOp, ast.Name)):
            if self._is_set_expr(it):
                return "a set-typed value"
        if isinstance(it, ast.BinOp) and isinstance(
            it.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            # Set algebra directly in the iterable: even when neither
            # operand is provably set-typed, `a & b` / `a | b` in an
            # iterable position is overwhelmingly a set (or hash-ordered
            # dict-keys view) expression.  Pure-constant literal unions
            # pass, matching the literal-set carve-out above.
            def _const_set(e: ast.expr) -> bool:
                return isinstance(e, ast.Set) and all(
                    isinstance(x, ast.Constant) for x in e.elts
                )

            if not (_const_set(it.left) and _const_set(it.right)):
                op = {
                    ast.BitOr: "|",
                    ast.BitAnd: "&",
                    ast.BitXor: "^",
                    ast.Sub: "-",
                }[type(it.op)]
                return f"a set-algebra expression (`a {op} b`)"
        if isinstance(it, ast.Attribute) and self._is_set_expr(it):
            return f"set-typed attribute .{it.attr}"
        return None

    def _check_iteration(self, it: ast.expr) -> None:
        if not self.sim_scope:
            return
        reason = self._set_iter_reason(it)
        if reason is None:
            return
        if reason == "dict.keys()":
            hint = "iterate the dict directly (insertion-ordered) or sorted(...)"
        else:
            hint = "iterate sorted(...) so the schedule order is hash-independent"
        self._add("SL001", it, f"iteration over {reason}; {hint}")

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: Union[ast.ListComp, ast.SetComp,
                                               ast.DictComp, ast.GeneratorExp]) -> None:
        for gen in node.generators:
            self._check_iteration(gen.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node)

    # -- SL006: unbounded queues ----------------------------------------

    def _check_list_queue(self, target: ast.expr, value: ast.expr) -> None:
        """Flag ``self.xxx_queue = []`` style assignments in sim scope."""
        if not self.sim_scope:
            return
        if not isinstance(target, ast.Attribute):
            return
        if not _QUEUEISH_RE.search(target.attr):
            return
        fresh_list = (isinstance(value, ast.List) and not value.elts) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "list"
            and not value.args
        )
        if fresh_list:
            self._add(
                "SL006",
                value,
                f"queue-named attribute .{target.attr} built as an unbounded "
                "list; bound it, charge a MemoryBudget, or document the bound "
                "with an ignore comment",
            )

    def _check_deque(self, node: ast.Call) -> None:
        if not self.sim_scope:
            return
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if name != "deque":
            return
        # deque(iterable, maxlen) -- bounded when maxlen is passed either way.
        if len(node.args) >= 2:
            return
        if any(kw.arg == "maxlen" for kw in node.keywords):
            return
        self._add(
            "SL006",
            node,
            "deque() without maxlen grows without bound under simulated load; "
            "pass maxlen, charge a MemoryBudget, or document the bound with "
            "an ignore comment",
        )

    # -- SL002 + SL003: call sites --------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_deque(node)
        func = node.func
        # SL007 -- mutator call on another component's container.
        if (
            self.sim_scope
            and isinstance(func, ast.Attribute)
            and func.attr in _SL007_MUTATORS
        ):
            foreign = self._foreign_container(func.value)
            if foreign is not None:
                self._add(
                    "SL007",
                    node,
                    f"mutator .{func.attr}() on another component's container "
                    f"`{foreign}`; it bypasses the owner's invariants and "
                    "accounting, so route through the owner's API or a message",
                )
        # SL002 -- wall-clock reads.
        if not self.wallclock_exempt:
            if isinstance(func, ast.Name) and func.id in self._time_funcs:
                self._add(
                    "SL002",
                    node,
                    f"wall-clock read {func.id}(); simulation code must use sim.now",
                )
            elif isinstance(func, ast.Attribute):
                base = func.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in self._time_modules
                    and func.attr in _WALLCLOCK_TIME_FUNCS
                ):
                    self._add(
                        "SL002",
                        node,
                        f"wall-clock read {base.id}.{func.attr}(); "
                        "simulation code must use sim.now",
                    )
                elif func.attr in _DATETIME_FACTORIES:
                    if isinstance(base, ast.Name) and base.id in self._datetime_classes:
                        self._add(
                            "SL002",
                            node,
                            f"wall-clock read {base.id}.{func.attr}(); "
                            "simulation code must use sim.now",
                        )
                    elif (
                        isinstance(base, ast.Attribute)
                        and isinstance(base.value, ast.Name)
                        and base.value.id in self._datetime_modules
                        and base.attr in ("datetime", "date")
                    ):
                        self._add(
                            "SL002",
                            node,
                            f"wall-clock read {base.value.id}.{base.attr}."
                            f"{func.attr}(); simulation code must use sim.now",
                        )
        # SL003 -- global RNG state.
        if isinstance(func, ast.Name) and func.id in self._random_funcs:
            self._add(
                "SL003",
                node,
                f"module-level random function {func.id}(); use a seeded "
                "random.Random owned by the simulation",
            )
        elif isinstance(func, ast.Name) and func.id in self._numpy_random_funcs:
            self._add(
                "SL003",
                node,
                f"module-level numpy.random function {func.id}(); use "
                "numpy.random.default_rng(seed)",
            )
        elif isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id in self._random_modules
                and func.attr not in _RANDOM_ALLOWED
            ):
                self._add(
                    "SL003",
                    node,
                    f"module-level {base.id}.{func.attr}() mutates global RNG "
                    "state; use a seeded random.Random instance",
                )
            elif func.attr not in _NUMPY_RANDOM_ALLOWED and (
                (
                    isinstance(base, ast.Attribute)
                    and base.attr == "random"
                    and isinstance(base.value, ast.Name)
                    and base.value.id in self._numpy_modules
                )
                or (isinstance(base, ast.Name) and base.id in self._numpy_random_modules)
            ):
                self._add(
                    "SL003",
                    node,
                    f"global numpy.random.{func.attr}(); use "
                    "numpy.random.default_rng(seed)",
                )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
    sim_scope: Optional[bool] = None,
    wallclock_exempt: Optional[bool] = None,
) -> list[Finding]:
    """Lint a source string; ``sim_scope``/``wallclock_exempt`` override
    the path-derived profile (useful for tests)."""

    chosen = frozenset(select) if select is not None else frozenset(RULES)
    unknown = chosen - frozenset(RULES)
    if unknown:
        raise ValueError(f"unknown rule(s): {', '.join(sorted(unknown))}")
    auto_sim, auto_exempt = _profile_for_path(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        line = exc.lineno or 0
        col = (exc.offset or 1) - 1
        return [Finding(path, line, col, "SL000", f"syntax error: {exc.msg}")]
    visitor = _LintVisitor(
        path,
        sim_scope=auto_sim if sim_scope is None else sim_scope,
        wallclock_exempt=auto_exempt if wallclock_exempt is None else wallclock_exempt,
        select=chosen,
        set_attrs=_collect_set_attrs(tree),
    )
    visitor.visit(tree)
    ignores = _ignores_by_line(source)
    findings = [f for f in visitor.findings if not _is_ignored(f, ignores)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(path: Union[str, Path], select: Optional[Iterable[str]] = None) -> list[Finding]:
    """Lint one file; an unreadable or non-UTF-8 file yields no findings."""
    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
    except (UnicodeDecodeError, OSError):
        # Binary or unreadable file (e.g. a stray .py-named artifact):
        # skip rather than crash the whole lint run.
        return []
    return lint_source(source, str(p), select=select)


def _skip_path(f: Path) -> bool:
    return any(part.startswith(".") or part == "__pycache__" for part in f.parts)


def _iter_py_files(paths: Sequence[Union[str, Path]]) -> Iterator[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_file():
            # Explicit file arguments go through the same filters as
            # directory walks: cache/hidden paths are never linted.
            if p.suffix == ".py" and not _skip_path(p):
                yield p
            continue
        for f in sorted(p.rglob("*.py")):
            if _skip_path(f):
                continue
            yield f


def lint_paths(
    paths: Sequence[Union[str, Path]], select: Optional[Iterable[str]] = None
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""

    findings: list[Finding] = []
    for f in _iter_py_files(paths):
        findings.extend(lint_file(f, select=select))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def changed_paths(paths: Sequence[Union[str, Path]]) -> Optional[list[Path]]:
    """Files under ``paths`` changed vs the git merge-base with the
    default branch (plus working-tree and untracked changes).

    Returns None when git is unavailable or the tree is not a repo --
    the caller falls back to linting the full set.
    """
    import subprocess

    def run(*args: str) -> Optional[str]:
        try:
            r = subprocess.run(
                ["git", *args], capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout if r.returncode == 0 else None

    top = run("rev-parse", "--show-toplevel")
    if top is None:
        return None
    root = Path(top.strip())
    base = "HEAD"
    for ref in ("origin/HEAD", "origin/main", "origin/master", "main", "master"):
        out = run("merge-base", "HEAD", ref)
        if out is not None:
            base = out.strip()
            break
    changed: set[str] = set()
    diff = run("diff", "--name-only", "--diff-filter=d", base)
    if diff is None:
        return None
    changed.update(line for line in diff.splitlines() if line)
    untracked = run("ls-files", "--others", "--exclude-standard")
    if untracked is not None:
        changed.update(line for line in untracked.splitlines() if line)

    wanted = [Path(p).resolve() for p in paths]
    out_files: list[Path] = []
    for rel in sorted(changed):
        f = (root / rel).resolve()
        if f.suffix != ".py" or not f.is_file():
            continue
        for w in wanted:
            if f == w or w in f.parents:
                out_files.append(f)
                break
    return out_files


def render_text(findings: Sequence[Finding]) -> str:
    """One line per finding plus a count line (or a no-findings line)."""
    if not findings:
        return "simlint: no findings"
    lines = [f.render() for f in findings]
    lines.append(f"simlint: {len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """A versioned JSON report: per-rule counts and every finding."""
    counts: dict[str, int] = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    doc = {
        "version": 1,
        "counts": {k: counts[k] for k in sorted(counts)},
        "findings": [f.to_dict() for f in findings],
    }
    return json.dumps(doc, indent=2, sort_keys=False)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The ``simlint`` command line; returns 1 when there are findings."""
    parser = argparse.ArgumentParser(
        prog="simlint",
        description="determinism lint for simulation code (rules SL001-SL008)",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to enable (default: all)",
    )
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument(
        "--changed",
        action="store_true",
        help="lint only files changed vs the git merge-base with the "
        "default branch (full tree when not in a repo)",
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule}  {desc}")
        return 0
    select = (
        [r.strip().upper() for r in args.select.split(",") if r.strip()]
        if args.select
        else None
    )
    lint_targets: Sequence[Union[str, Path]] = args.paths
    if args.changed:
        subset = changed_paths(args.paths)
        if subset is not None:
            lint_targets = subset
    try:
        findings = lint_paths(lint_targets, select=select)
    except ValueError as exc:
        parser.error(str(exc))
    print(render_json(findings) if args.format == "json" else render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
