"""simown -- state-ownership & cross-process sharing analyzer.

A conservative parallel DES of the cluster model would need to know,
for every component in the simulated cluster, *which logical process
owns its mutable state* and which state is silently shared across the
would-be partition boundary.  This module answers that question
statically: an AST whole-tree pass over ``src/repro`` that

1. collects every class and its mutable attributes (``self.x = ...``
   in methods, class-level assignments, dataclass fields), plus the
   type wiring between components (constructor parameter annotations,
   direct construction, ``list[X]``/``dict[K, V]``/``Optional[X]``
   element types, local aliases like ``server = self.servers[i]``);
2. resolves attribute-chain accesses (``self.x.y``) in every function
   back to the owning class and records whether each is a read or a
   write, and whether the enclosing function crosses a network/MPI
   message boundary (a ``*.transfer(...)`` / metadata-RPC call);
3. assigns every module to an **LP domain** and classifies every
   mutable attribute of an LP-owned component as

   - ``lp-private``   -- only touched from its own domain,
   - ``message-mediated`` -- cross-domain touches all occur in
     functions that cross a net/MPI send boundary (the access is
     ordered by a message event, so a conservative partitioner can
     replay it),
   - ``shared-hazard`` -- touched cross-domain with *no* message in
     sight: real shared state the partitioner must replicate, move, or
     route through messages.

Cross-domain *method calls* are tracked the same way: an unmediated
call from one LP domain into another (``emc.set_mode(engine)`` style
control edges) is a hazard finding at the call site even when the
mutated attribute itself is only ever written via ``self``.

LP domains (see ``DOMAIN_OF_MODULE``):

- ``server`` -- one LP per data server: the server itself, its
  write-back buffer, page cache, block layer + elevator, disk stack,
  and blktrace hook.
- ``client`` -- compute-node side: PFS client, MPI runtime, MPI-IO
  engines, workloads, and the per-job DualPar machinery (engine, PEC,
  CRM) that runs on ranks.
- ``meta``   -- the metadata server node: MDS, namespace/filesystem,
  and the EMC daemon + system registry the paper hosts there.

Non-LP domains: ``kernel`` (the event core -- shared by construction),
``fabric`` (network + cooperative cache ring -- the message mediators
themselves), and ``harness`` (obs/guard/faults/runner/cluster/devtools
-- control plane that pauses the world; never partitioned).  Their
attributes are reported but are not hazards.

Value classes that ride *inside* messages (requests, layouts, chunk
descriptors) are payload: both ends of a transfer legitimately touch
them, ordered by the message itself.  See ``PAYLOAD_MODULES`` /
``PAYLOAD_CLASSES``.

Suppressing a finding: append ``# simown: shared[reason]`` to the
flagged line -- either the attribute definition line (blesses every
cross-domain access to that attribute) or an individual access/call
site.  The reason is carried into the partition map so item 2's
partitioner sees an explicit TODO list of state it must handle.

CLI: ``repro ownership [--format text|json] [--out MAP.json]
[--check]``.  ``--check`` exits 1 on any *unannotated* shared-hazard
finding (the CI gate).  The JSON partition map is the stable artifact
(no line numbers) consumed by the golden test and, eventually, the
partitioner.
"""

from __future__ import annotations

import ast
import io
import json
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

__all__ = [
    "DOMAIN_OF_MODULE",
    "LP_DOMAINS",
    "PAYLOAD_CLASSES",
    "PAYLOAD_MODULES",
    "Access",
    "AttrInfo",
    "CallEdge",
    "ClassInfo",
    "Finding",
    "OwnershipGraph",
    "OwnershipReport",
    "analyze_paths",
    "classify",
    "main",
    "partition_map",
    "render_json",
    "render_text",
]

# ---------------------------------------------------------------------------
# Domain configuration
# ---------------------------------------------------------------------------

#: The would-be logical processes of ROADMAP item 2.
LP_DOMAINS = ("server", "client", "meta")

#: Longest-dotted-prefix match on the module path relative to ``repro``.
#: Anything unmatched defaults to ``harness``.
DOMAIN_OF_MODULE: dict[str, str] = {
    # kernel: the event core itself; shared by construction.
    "sim": "kernel",
    # fabric: the message mediators (every LP talks through these).
    "net": "fabric",
    "cache": "fabric",
    # server LP: one per data server.
    "pfs.dataserver": "server",
    "pfs.writeback": "server",
    "pfs.pagecache": "server",
    "disk": "server",
    "iosched": "server",
    "trace.blktrace": "server",
    # client LP: compute-node side.
    "pfs.client": "client",
    "mpi": "client",
    "mpiio": "client",
    "workloads": "client",
    "core.engine": "client",
    "core.pec": "client",
    "core.crm": "client",
    # meta LP: the metadata server node (MDS hosts the EMC; see
    # pfs/metaserver.py docstring and the paper's Fig. 2).
    "pfs.metaserver": "meta",
    "pfs.filesystem": "meta",
    "core.emc": "meta",
    "core.system": "meta",
    # harness: control plane, never partitioned.
    "obs": "harness",
    "guard": "harness",
    "faults": "harness",
    "devtools": "harness",
    "runner": "harness",
    "cluster": "harness",
    "trace.timeline": "harness",
    "core.config": "harness",
    "core.metrics": "harness",
    "analysis": "harness",
    "cli": "harness",
    "workloads.demo": "harness",
}

#: Modules whose classes are message payloads / value objects: both ends
#: of a transfer touch them, ordered by the message that carried them.
PAYLOAD_MODULES = frozenset(
    {"pfs.layout", "iosched.request", "mpi.ops", "mpi.datatypes", "cache.chunk"}
)

#: Individual payload classes living in otherwise LP-owned modules.
PAYLOAD_CLASSES = frozenset(
    {
        "ServerRequest",  # the unit shipped client -> server
        "PfsFile",  # metadata handle returned by the MDS RPCs
        "Segment",  # datasieving/prefetch work unit
    }
)

#: Method names whose *call* mutates the receiver.
MUTATOR_METHODS = frozenset(
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
        "sort",
        "update",
    }
)

#: Attribute names of calls that mark a message boundary: a function
#: containing one of these crosses the network, so cross-domain touches
#: inside it are ordered by the message event.
MEDIATOR_CALLS = frozenset({"transfer", "rpc_create", "rpc_open", "rpc_lookup"})

#: Container methods that *return elements* (or the container itself):
#: calling them on a resolved attribute chain is a read of that
#: attribute, not a method call on the element class.
_CONTAINER_METHODS = frozenset(
    {"values", "get", "copy", "pop", "popleft", "popitem", "setdefault", "count",
     "index", "keys", "items"}
)

#: Mutable-container constructors (a ``self.x = list()`` is state).
_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "Counter", "OrderedDict", "bytearray"}
)

_ANNOTATION_MARKER = "simown:"


def domain_of(module: str) -> str:
    """LP domain of a dotted module path relative to ``repro``."""
    parts = module.split(".")
    for n in range(len(parts), 0, -1):
        hit = DOMAIN_OF_MODULE.get(".".join(parts[:n]))
        if hit is not None:
            return hit
    return "harness"


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


@dataclass
class AttrInfo:
    """One attribute slot of a component class."""

    name: str
    lineno: int
    mutable: bool = False
    class_level: bool = False
    #: why we consider it mutable (first reason wins; diagnostic only)
    why_mutable: str = ""
    #: reason text when the definition line carries ``# simown: shared[...]``
    annotation: Optional[str] = None


@dataclass
class ClassInfo:
    """A class discovered in the tree, with its state and type wiring."""

    name: str
    module: str
    path: str
    lineno: int
    domain: str
    payload: bool = False
    bases: list[str] = field(default_factory=list)
    attrs: dict[str, AttrInfo] = field(default_factory=dict)
    #: attribute name -> bare class name it holds (element type for
    #: containers), used to resolve ``self.x.y`` chains.
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class Access:
    """One resolved attribute access on a component."""

    owner: str  # owning class name
    attr: str
    module: str  # accessor's module
    cls: Optional[str]  # accessor's class (None at module level)
    func: str
    path: str
    line: int
    kind: str  # "read" | "write"
    mediated: bool  # enclosing function crosses a message boundary
    annotation: Optional[str] = None


@dataclass
class CallEdge:
    """A resolved method call on another component."""

    owner: str
    method: str
    module: str
    cls: Optional[str]
    func: str
    path: str
    line: int
    mediated: bool
    annotation: Optional[str] = None


@dataclass
class Finding:
    """One shared-hazard site (access or call) for the report/gate."""

    owner: str
    attr: str  # attribute or method name
    site: str  # "path:line"
    detail: str
    annotated: Optional[str]  # reason text when suppressed


@dataclass
class OwnershipGraph:
    """Raw facts from the AST pass, before classification."""

    classes: dict[str, ClassInfo] = field(default_factory=dict)
    accesses: list[Access] = field(default_factory=list)
    call_edges: list[CallEdge] = field(default_factory=list)
    #: module-level mutable bindings in LP/kernel/fabric modules
    module_state: list[tuple[str, str, str, int]] = field(default_factory=list)


@dataclass
class OwnershipReport:
    """Classified ownership: the tool's final answer."""

    graph: OwnershipGraph
    #: class -> attr -> classification string
    attr_class: dict[str, dict[str, str]] = field(default_factory=dict)
    hazards: list[Finding] = field(default_factory=list)

    @property
    def unannotated(self) -> list[Finding]:
        return [f for f in self.hazards if f.annotated is None]


# ---------------------------------------------------------------------------
# Annotation comments
# ---------------------------------------------------------------------------


def _annotations_by_line(source: str) -> dict[int, str]:
    """Map line -> reason for every ``# simown: shared[reason]`` comment.

    An inline comment annotates its own line; a comment standing alone
    on a line annotates the *next* line (for statements too long to
    carry the reason inline).
    """
    out: dict[int, str] = {}
    lines = source.splitlines()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string.lstrip("#").strip()
            if not text.startswith(_ANNOTATION_MARKER):
                continue
            rest = text[len(_ANNOTATION_MARKER) :].strip()
            if rest.startswith("shared[") and rest.endswith("]"):
                reason = rest[len("shared[") : -1].strip()
            elif rest.startswith("shared"):
                reason = ""
            else:
                continue
            row = tok.start[0]
            before = lines[row - 1][: tok.start[1]] if row <= len(lines) else ""
            if before.strip() == "":
                row += 1  # standalone comment blesses the following line
            out[row] = reason
    except (tokenize.TokenError, SyntaxError, IndentationError):
        pass
    return out


# ---------------------------------------------------------------------------
# Type-annotation helpers
# ---------------------------------------------------------------------------


def _class_of_annotation(node: Optional[ast.expr]) -> Optional[str]:
    """Bare class name named by an annotation, unwrapping strings,
    ``Optional[X]``, and container element types."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return node.id if node.id[:1].isupper() else None
    if isinstance(node, ast.Attribute):
        return node.attr if node.attr[:1].isupper() else None
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else None
        )
        inner = node.slice
        if base_name in ("Optional",):
            return _class_of_annotation(inner)
        if base_name in ("list", "List", "set", "Set", "frozenset", "FrozenSet",
                         "Sequence", "Iterable", "tuple", "Tuple", "deque", "Deque"):
            if isinstance(inner, ast.Tuple) and inner.elts:
                return _class_of_annotation(inner.elts[0])
            return _class_of_annotation(inner)
        if base_name in ("dict", "Dict", "Mapping", "MutableMapping", "defaultdict",
                         "DefaultDict"):
            if isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
                return _class_of_annotation(inner.elts[1])
            return None
        if base_name in ("Union",) and isinstance(inner, ast.Tuple):
            hits = [_class_of_annotation(e) for e in inner.elts]
            real = [h for h in hits if h is not None]
            return real[0] if len(real) == 1 else None
    return None


def _is_mutable_value(node: ast.expr) -> Optional[str]:
    """Why ``node`` builds a mutable container, or None."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                         ast.SetComp)):
        return f"initialised to {type(node).__name__.lower()}"
    if isinstance(node, ast.Call):
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None
        )
        if name in _MUTABLE_CALLS:
            return f"initialised to {name}()"
        if name == "field":
            for kw in node.keywords:
                if kw.arg == "default_factory":
                    return "dataclass field(default_factory=...)"
    return None


# ---------------------------------------------------------------------------
# Pass 1 -- collect classes, attributes, type wiring
# ---------------------------------------------------------------------------


class _ClassCollector(ast.NodeVisitor):
    def __init__(self, module: str, path: str, graph: OwnershipGraph,
                 notes: dict[int, str]) -> None:
        self.module = module
        self.path = path
        self.graph = graph
        self.notes = notes
        self._cls: Optional[ClassInfo] = None
        self._func_depth = 0

    # -- module-level state -------------------------------------------

    def _record_module_state(self, target: ast.expr, value: ast.expr,
                             lineno: int) -> None:
        if self._cls is not None or self._func_depth:
            return
        if not isinstance(target, ast.Name) or target.id.startswith("_" * 2):
            return
        why = _is_mutable_value(value)
        if why is not None:
            self.graph.module_state.append((self.module, target.id, why, lineno))

    # -- class / attribute collection ---------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer = self._cls
        domain = domain_of(self.module)
        payload = self.module in PAYLOAD_MODULES or node.name in PAYLOAD_CLASSES
        info = ClassInfo(
            name=node.name,
            module=self.module,
            path=self.path,
            lineno=node.lineno,
            domain=domain,
            payload=payload,
            bases=[b.id for b in node.bases if isinstance(b, ast.Name)],
        )
        # Nested classes are rare; outermost wins the registry slot.
        self.graph.classes.setdefault(node.name, info)
        self._cls = info
        for stmt in node.body:
            self._collect_class_stmt(info, stmt)
        self.generic_visit(node)
        self._cls = outer

    def _collect_class_stmt(self, info: ClassInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            attr = info.attrs.setdefault(
                name, AttrInfo(name=name, lineno=stmt.lineno, class_level=True)
            )
            attr.annotation = attr.annotation or self.notes.get(stmt.lineno)
            why = None if stmt.value is None else _is_mutable_value(stmt.value)
            if why is not None and not attr.mutable:
                attr.mutable, attr.why_mutable = True, why
            bound = _class_of_annotation(stmt.annotation)
            if bound is not None:
                info.attr_types.setdefault(name, bound)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    attr = info.attrs.setdefault(
                        target.id,
                        AttrInfo(name=target.id, lineno=stmt.lineno, class_level=True),
                    )
                    attr.annotation = attr.annotation or self.notes.get(stmt.lineno)
                    why = _is_mutable_value(stmt.value)
                    if why is not None and not attr.mutable:
                        attr.mutable, attr.why_mutable = True, why

    def _self_attr(self, node: ast.expr) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_func(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_func(node)

    def _visit_func(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        info = self._cls
        if info is not None and self._func_depth == 0:
            init_like = node.name in ("__init__", "__post_init__")
            # Parameter annotations wire attr types: ``self.x = param``.
            param_types: dict[str, Optional[str]] = {}
            for arg in list(node.args.args) + list(node.args.kwonlyargs):
                param_types[arg.arg] = _class_of_annotation(arg.annotation)
            for sub in ast.walk(node):
                self._collect_attr_defs(info, sub, init_like, param_types)
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    def _collect_attr_defs(
        self,
        info: ClassInfo,
        sub: ast.AST,
        init_like: bool,
        param_types: dict[str, Optional[str]],
    ) -> None:
        if isinstance(sub, ast.Assign):
            for target in sub.targets:
                name = self._self_attr(target)
                if name is None:
                    continue
                self._define_attr(info, name, sub, sub.value, init_like, param_types)
        elif isinstance(sub, ast.AnnAssign):
            name = self._self_attr(sub.target)
            if name is not None:
                self._define_attr(info, name, sub, sub.value, init_like, param_types)
                bound = _class_of_annotation(sub.annotation)
                if bound is not None:
                    info.attr_types.setdefault(name, bound)
        elif isinstance(sub, ast.AugAssign):
            name = self._self_attr(sub.target)
            if name is not None:
                attr = info.attrs.setdefault(
                    name, AttrInfo(name=name, lineno=sub.lineno)
                )
                if not attr.mutable:
                    attr.mutable = True
                    attr.why_mutable = "augmented assignment"

    def _define_attr(
        self,
        info: ClassInfo,
        name: str,
        stmt: ast.stmt,
        value: Optional[ast.expr],
        init_like: bool,
        param_types: dict[str, Optional[str]],
    ) -> None:
        attr = info.attrs.setdefault(name, AttrInfo(name=name, lineno=stmt.lineno))
        note = self.notes.get(stmt.lineno)
        if note is not None and attr.annotation is None:
            attr.annotation = note
        if not attr.mutable:
            why = None if value is None else _is_mutable_value(value)
            if why is not None:
                attr.mutable, attr.why_mutable = True, why
            elif not init_like:
                attr.mutable = True
                attr.why_mutable = "reassigned outside __init__"
        if value is not None:
            self._bind_attr_type(info, name, value, param_types)

    def _bind_attr_type(
        self,
        info: ClassInfo,
        name: str,
        value: ast.expr,
        param_types: dict[str, Optional[str]],
    ) -> None:
        # ``self.x = param`` with an annotated param.
        if isinstance(value, ast.Name):
            bound = param_types.get(value.id)
            if bound is not None:
                info.attr_types.setdefault(name, bound)
        # ``self.x = ClassName(...)`` direct construction.
        elif isinstance(value, ast.Call):
            fn = value.func
            ctor = fn.id if isinstance(fn, ast.Name) else (
                fn.attr if isinstance(fn, ast.Attribute) else None
            )
            if ctor is not None and ctor[:1].isupper():
                info.attr_types.setdefault(name, ctor)
        # ``self.x = [ClassName(...) for ...]`` comprehension of components.
        elif isinstance(value, ast.ListComp) and isinstance(value.elt, ast.Call):
            fn = value.elt.func
            ctor = fn.id if isinstance(fn, ast.Name) else (
                fn.attr if isinstance(fn, ast.Attribute) else None
            )
            if ctor is not None and ctor[:1].isupper():
                info.attr_types.setdefault(name, ctor)


# ---------------------------------------------------------------------------
# Pass 2 -- resolve accesses and call edges
# ---------------------------------------------------------------------------


class _FunctionScanner:
    """Resolve attribute chains inside one function body."""

    def __init__(
        self,
        graph: OwnershipGraph,
        module: str,
        path: str,
        cls: Optional[ClassInfo],
        func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        notes: dict[int, str],
    ) -> None:
        self.graph = graph
        self.module = module
        self.path = path
        self.cls = cls
        self.func = func
        self.notes = notes
        self.env: dict[str, str] = {}  # local name -> class name
        if cls is not None:
            self.env["self"] = cls.name
        for arg in list(func.args.args) + list(func.args.kwonlyargs):
            bound = _class_of_annotation(arg.annotation)
            if bound is not None:
                self.env[arg.arg] = bound
        self.mediated = self._crosses_message_boundary(func)

    @staticmethod
    def _crosses_message_boundary(
        func: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> bool:
        for sub in ast.walk(func):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in MEDIATOR_CALLS
            ):
                return True
        return False

    # -- chain resolution ---------------------------------------------

    def _resolve(self, node: ast.expr) -> Optional[str]:
        """Class name the expression evaluates to, or None."""
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._resolve(node.value)
            if base is None:
                return None
            info = self.graph.classes.get(base)
            if info is None:
                return None
            return info.attr_types.get(node.attr)
        if isinstance(node, ast.Subscript):
            # Element type: containers bind their element class.
            return self._resolve(node.value)
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name):
                if fn.id[:1].isupper():
                    return fn.id if fn.id in self.graph.classes else None
                if fn.id in ("sorted", "list", "reversed", "iter", "tuple") and node.args:
                    return self._resolve(node.args[0])
            elif isinstance(fn, ast.Attribute) and fn.attr in _CONTAINER_METHODS:
                # ``d.values()`` / ``q.popleft()``: elements of the chain.
                return self._resolve(fn.value)
        return None

    def _owner_of(self, node: ast.Attribute) -> Optional[str]:
        """Owning class of the attribute being touched, cross-object only."""
        owner = self._resolve(node.value)
        if owner is None or owner not in self.graph.classes:
            return None
        return owner

    # -- the scan ------------------------------------------------------

    def scan(self) -> None:
        body = list(self.func.body)
        for stmt in body:
            self._scan_stmt(stmt)

    def _scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._record_value(stmt.value)
            for target in stmt.targets:
                self._record_store(target)
                if isinstance(target, ast.Name):
                    bound = self._resolve(stmt.value)
                    if bound is not None:
                        self.env[target.id] = bound
                    else:
                        self.env.pop(target.id, None)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._record_value(stmt.value)
            self._record_store(stmt.target)
            if isinstance(stmt.target, ast.Name):
                bound = _class_of_annotation(stmt.annotation) or (
                    None if stmt.value is None else self._resolve(stmt.value)
                )
                if bound is not None:
                    self.env[stmt.target.id] = bound
        elif isinstance(stmt, ast.AugAssign):
            self._record_value(stmt.value)
            self._record_store(stmt.target, aug=True)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._record_value(stmt.iter)
            if isinstance(stmt.target, ast.Name):
                bound = self._resolve(stmt.iter)
                if bound is not None:
                    self.env[stmt.target.id] = bound
            for s in stmt.body + stmt.orelse:
                self._scan_stmt(s)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._record_value(stmt.test)
            for s in stmt.body + stmt.orelse:
                self._scan_stmt(s)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._record_value(item.context_expr)
            for s in stmt.body:
                self._scan_stmt(s)
        elif isinstance(stmt, ast.Try):
            for s in stmt.body + stmt.orelse + stmt.finalbody:
                self._scan_stmt(s)
            for handler in stmt.handlers:
                for s in handler.body:
                    self._scan_stmt(s)
        elif isinstance(stmt, ast.Expr):
            self._record_value(stmt.value)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self._record_value(stmt.value)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._record_store(target)
        # Nested defs are scanned as their own functions by the walker.

    # -- recording -----------------------------------------------------

    def _add_access(self, owner: str, attr: str, line: int, kind: str) -> None:
        self.graph.accesses.append(
            Access(
                owner=owner,
                attr=attr,
                module=self.module,
                cls=self.cls.name if self.cls is not None else None,
                func=self.func.name,
                path=self.path,
                line=line,
                kind=kind,
                mediated=self.mediated,
                annotation=self.notes.get(line),
            )
        )

    def _add_call(self, owner: str, method: str, line: int) -> None:
        self.graph.call_edges.append(
            CallEdge(
                owner=owner,
                method=method,
                module=self.module,
                cls=self.cls.name if self.cls is not None else None,
                func=self.func.name,
                path=self.path,
                line=line,
                mediated=self.mediated,
                annotation=self.notes.get(line),
            )
        )

    def _record_store(self, target: ast.expr, aug: bool = False) -> None:
        if isinstance(target, ast.Attribute):
            owner = self._owner_of(target)
            if owner is not None:
                self._add_access(owner, target.attr, target.lineno, "write")
            self._record_value(target.value)
        elif isinstance(target, ast.Subscript):
            # ``x.attr[k] = v`` mutates attr in place.
            if isinstance(target.value, ast.Attribute):
                owner = self._owner_of(target.value)
                if owner is not None:
                    self._add_access(owner, target.value.attr, target.lineno, "write")
            self._record_value(target.value)
            self._record_value(target.slice)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_store(elt, aug=aug)

    def _record_value(self, node: ast.expr) -> None:
        # Bind comprehension variables first (``d`` in
        # ``[d.recent_seek_dist() for d in cluster.locality_daemons]``).
        for sub in ast.walk(node):
            if isinstance(sub, (ast.ListComp, ast.SetComp, ast.DictComp,
                                ast.GeneratorExp)):
                for gen in sub.generators:
                    if isinstance(gen.target, ast.Name):
                        bound = self._resolve(gen.iter)
                        if bound is not None:
                            self.env[gen.target.id] = bound
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                recv = sub.func.value
                if sub.func.attr in MUTATOR_METHODS and isinstance(recv, ast.Attribute):
                    owner = self._owner_of(recv)
                    if owner is not None:
                        self._add_access(owner, recv.attr, sub.lineno, "write")
                        continue
                if sub.func.attr in _CONTAINER_METHODS:
                    # ``x.attr.values()`` reads attr; never a call edge on
                    # the container's *element* class.
                    if isinstance(recv, ast.Attribute):
                        owner = self._owner_of(recv)
                        if owner is not None:
                            kind = (
                                "write"
                                if sub.func.attr in MUTATOR_METHODS
                                else "read"
                            )
                            self._add_access(owner, recv.attr, sub.lineno, kind)
                    continue
                owner = self._resolve(recv)
                if owner is not None and owner in self.graph.classes:
                    info = self.graph.classes[owner]
                    if sub.func.attr in info.attrs:
                        kind = (
                            "write" if sub.func.attr in MUTATOR_METHODS else "read"
                        )
                        self._add_access(owner, sub.func.attr, sub.lineno, kind)
                    else:
                        self._add_call(owner, sub.func.attr, sub.lineno)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                owner = self._owner_of(sub)
                if owner is not None:
                    info = self.graph.classes[owner]
                    if sub.attr in info.attrs:
                        self._add_access(owner, sub.attr, sub.lineno, "read")


def _iter_functions(
    tree: ast.Module,
) -> Iterable[tuple[Optional[str], Union[ast.FunctionDef, ast.AsyncFunctionDef]]]:
    """Yield (enclosing class name, function) for every def in the module."""

    def walk(node: ast.AST, cls: Optional[str]) -> Iterable[
        tuple[Optional[str], Union[ast.FunctionDef, ast.AsyncFunctionDef]]
    ]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls, child
                yield from walk(child, cls)

    yield from walk(tree, None)


# ---------------------------------------------------------------------------
# Driving the two passes
# ---------------------------------------------------------------------------


def _module_name(path: Path) -> str:
    """Dotted module path relative to the ``repro`` package root."""
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "__root__"


def _py_files(paths: Sequence[Union[str, Path]]) -> list[Path]:
    out: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            out.extend(
                f
                for f in sorted(path.rglob("*.py"))
                if "__pycache__" not in f.parts
                and not any(part.startswith(".") for part in f.parts)
            )
        elif path.suffix == ".py":
            out.append(path)
    return out


def analyze_paths(paths: Sequence[Union[str, Path]]) -> OwnershipGraph:
    """Run both AST passes over every ``.py`` file under ``paths``."""
    graph = OwnershipGraph()
    sources: list[tuple[Path, str, ast.Module, dict[int, str]]] = []
    for f in _py_files(paths):
        try:
            text = f.read_text(encoding="utf-8")
            tree = ast.parse(text, filename=str(f))
        except (OSError, UnicodeDecodeError, SyntaxError):
            continue
        notes = _annotations_by_line(text)
        sources.append((f, _module_name(f), tree, notes))

    # Pass 1: classes, attributes, type wiring.
    for f, module, tree, notes in sources:
        collector = _ClassCollector(module, str(f), graph, notes)
        collector.visit(tree)
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    collector._record_module_state(target, stmt.value, stmt.lineno)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                collector._record_module_state(stmt.target, stmt.value, stmt.lineno)

    # Pass 2: accesses.
    for f, module, tree, notes in sources:
        for cls_name, func in _iter_functions(tree):
            cls = graph.classes.get(cls_name) if cls_name is not None else None
            scanner = _FunctionScanner(graph, module, str(f), cls, func, notes)
            scanner.scan()
    return graph


# ---------------------------------------------------------------------------
# Pass 3 -- classification
# ---------------------------------------------------------------------------

#: classification lattice, worst last
_ORDER = ("lp-private", "harness-observed", "message-mediated", "shared-hazard")


def _worse(a: str, b: str) -> str:
    return a if _ORDER.index(a) >= _ORDER.index(b) else b


def classify(graph: OwnershipGraph) -> OwnershipReport:
    """Classify every mutable attribute of every LP-owned component."""
    report = OwnershipReport(graph=graph)
    by_target: dict[tuple[str, str], list[Access]] = {}
    for acc in graph.accesses:
        by_target.setdefault((acc.owner, acc.attr), []).append(acc)
        # A cross-object write makes the slot mutable state even when the
        # owning class only ever assigns it once in __init__
        # (``engine.locked_out = True`` from the EMC).
        if acc.kind == "write" and acc.cls != acc.owner:
            info = graph.classes.get(acc.owner)
            attr = info.attrs.get(acc.attr) if info is not None else None
            if attr is not None and not attr.mutable:
                attr.mutable = True
                attr.why_mutable = "written cross-object"

    for name in sorted(graph.classes):
        info = graph.classes[name]
        attr_map: dict[str, str] = {}
        for attr_name in sorted(info.attrs):
            attr = info.attrs[attr_name]
            if not attr.mutable:
                continue
            if info.payload:
                attr_map[attr_name] = "payload"
                continue
            if info.domain not in LP_DOMAINS:
                attr_map[attr_name] = info.domain
                continue
            cls_result = "lp-private"
            for acc in by_target.get((name, attr_name), []):
                acc_domain = domain_of(acc.module)
                if acc.cls == name or acc_domain == info.domain:
                    continue
                if acc_domain in ("harness", "kernel"):
                    cls_result = _worse(cls_result, "harness-observed")
                elif acc_domain == "fabric" or acc.mediated:
                    cls_result = _worse(cls_result, "message-mediated")
                else:
                    cls_result = _worse(cls_result, "shared-hazard")
                    report.hazards.append(
                        Finding(
                            owner=name,
                            attr=attr_name,
                            site=f"{acc.path}:{acc.line}",
                            detail=(
                                f"{acc.kind} of {name}.{attr_name} "
                                f"({info.domain} LP) from "
                                f"{acc.cls or acc.module}.{acc.func} "
                                f"({acc_domain} LP) without a message boundary"
                            ),
                            annotated=(
                                acc.annotation
                                if acc.annotation is not None
                                else attr.annotation
                            ),
                        )
                    )
            if attr.annotation is not None and cls_result == "shared-hazard":
                cls_result = "shared-annotated"
            attr_map[attr_name] = cls_result
        if attr_map:
            report.attr_class[name] = attr_map

    # Unmediated cross-LP call edges are hazards too: the mutation they
    # trigger happens via ``self`` inside the callee, invisible above.
    for edge in graph.call_edges:
        info = graph.classes.get(edge.owner)
        if info is None or info.payload or info.domain not in LP_DOMAINS:
            continue
        caller_domain = domain_of(edge.module)
        if caller_domain == info.domain or caller_domain not in LP_DOMAINS:
            continue
        if edge.mediated:
            continue
        report.hazards.append(
            Finding(
                owner=edge.owner,
                attr=edge.method,
                site=f"{edge.path}:{edge.line}",
                detail=(
                    f"call {edge.owner}.{edge.method}() ({info.domain} LP) from "
                    f"{edge.cls or edge.module}.{edge.func} ({caller_domain} LP) "
                    "without a message boundary"
                ),
                annotated=edge.annotation,
            )
        )
    report.hazards.sort(key=lambda f: (f.site, f.owner, f.attr))
    return report


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------


def partition_map(report: OwnershipReport) -> dict[str, object]:
    """The stable JSON artifact item 2's partitioner consumes.

    Deliberately line-number-free so the golden test only fails on
    *semantic* drift: a component moving domains, an attribute changing
    classification, a hazard appearing or losing its annotation.
    """
    components: dict[str, object] = {}
    for name in sorted(report.graph.classes):
        info = report.graph.classes[name]
        attrs = report.attr_class.get(name, {})
        mutable = {a: attrs[a] for a in sorted(attrs)}
        components[name] = {
            "module": info.module,
            "domain": "payload" if info.payload else info.domain,
            "mutable_attrs": mutable,
            "n_immutable_attrs": sum(
                1 for a in info.attrs.values() if not a.mutable
            ),
        }
    hazards = [
        {
            "owner": f.owner,
            "attr": f.attr,
            "annotated": f.annotated,
        }
        for f in report.hazards
    ]
    # Collapse duplicate (owner, attr) hazard rows; keep any annotation.
    seen: dict[tuple[str, str], Optional[str]] = {}
    for h in hazards:
        key = (str(h["owner"]), str(h["attr"]))
        prev = seen.get(key)
        note = h["annotated"]
        seen[key] = prev if prev is not None else (note if isinstance(note, str) else None)
    return {
        "version": 1,
        "domains": {
            "lp": list(LP_DOMAINS),
            "shared": ["kernel", "fabric", "harness", "payload"],
        },
        "components": components,
        "module_state": [
            {"module": m, "name": n, "why": w}
            for (m, n, w, _line) in sorted(report.graph.module_state)
        ],
        "hazards": [
            {"owner": o, "attr": a, "annotated": note}
            for (o, a), note in sorted(seen.items())
        ],
    }


def render_text(report: OwnershipReport) -> str:
    counts: dict[str, int] = {}
    for attrs in report.attr_class.values():
        for c in attrs.values():
            counts[c] = counts.get(c, 0) + 1
    lines = ["simown ownership report", "======================="]
    total = sum(counts.values())
    lines.append(f"{len(report.attr_class)} stateful components, "
                 f"{total} mutable attributes:")
    for c in ("lp-private", "message-mediated", "harness-observed",
              "shared-annotated", "shared-hazard", "payload",
              "kernel", "fabric", "harness"):
        if counts.get(c):
            lines.append(f"  {c:18s} {counts[c]}")
    interesting = {"shared-hazard", "shared-annotated", "message-mediated"}
    for name in sorted(report.attr_class):
        attrs = {
            a: c for a, c in report.attr_class[name].items() if c in interesting
        }
        if not attrs:
            continue
        info = report.graph.classes[name]
        lines.append(f"\n{name} ({info.module}, {info.domain} LP):")
        for a, c in sorted(attrs.items()):
            note = info.attrs[a].annotation
            suffix = f"  -- shared[{note}]" if note else ""
            lines.append(f"  .{a:24s} {c}{suffix}")
    if report.hazards:
        lines.append("\nhazard sites:")
        for f in report.hazards:
            mark = f"annotated[{f.annotated}]" if f.annotated is not None else "UNANNOTATED"
            lines.append(f"  {f.site}: {f.detail} [{mark}]")
    n_bad = len(report.unannotated)
    lines.append(
        f"\n{len(report.hazards)} hazard site(s), {n_bad} unannotated"
        + ("" if n_bad else " -- tree is partition-clean")
    )
    return "\n".join(lines)


def render_json(report: OwnershipReport) -> str:
    doc = partition_map(report)
    doc["hazard_sites"] = [
        {
            "owner": f.owner,
            "attr": f.attr,
            "site": f.site,
            "detail": f.detail,
            "annotated": f.annotated,
        }
        for f in report.hazards
    ]
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro ownership`` entry point (also ``python -m`` friendly)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro ownership",
        description="simown: state-ownership & cross-LP sharing analysis",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files/directories to analyze (default: src)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", metavar="MAP.json", default=None,
                        help="write the partition map (stable JSON) here")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on unannotated shared-hazard findings")
    args = parser.parse_args(list(argv) if argv is not None else None)

    graph = analyze_paths(args.paths or ["src"])
    report = classify(graph)
    if args.out:
        Path(args.out).write_text(
            json.dumps(partition_map(report), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    if args.check and report.unannotated:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
