"""Host-time attribution to ``repro`` layers, measured from outside.

A :class:`Tracer` wraps the public entry points listed in
:data:`BOUNDARY` -- one table for the whole package -- with spans that
record host wall time.  A layer is the ``repro`` sub-package a function
lives in (``repro.pfs.client`` -> ``pfs``).  A layer's *self time* is the
time its spans cover minus the time their child spans cover, so the
self times of all layers add up to the wall time of the outermost span.

Three kinds of wrapper:

- a plain function or method becomes one span per call;
- a generator function returns a proxy generator that opens one span per
  resumption and forwards ``send``, ``throw`` and ``close``;
- ``Simulator.process`` wraps a spawned generator in a proxy of its
  *creator's* layer, so a process started by the block layer is charged
  to ``iosched`` rather than to the kernel that resumes it.

The kernel's dispatch loops (``Simulator.run``/``run_until_event``) are
``sim`` spans; with every process resumption a child span, ``sim.self_s``
is the pure dispatch time.  Nothing in the simulator changes: wrappers
only call through, so traced runs produce bit-identical results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

__all__ = ["BOUNDARY", "LAYERS", "Tracer", "layer_of"]

#: Every layer the benchmark reports, bottom-up order irrelevant.
LAYERS = (
    "runner", "cluster", "sim", "mpi", "mpiio", "core", "cache",
    "pfs", "net", "iosched", "disk", "workloads", "obs",
)

#: The boundary table: ``module:Qualname.attr`` entries to wrap.  A ``+``
#: after the class name wraps the attribute on that class *and* on every
#: subclass that defines its own version.  Constructors listed here are
#: those of classes that spawn simulation processes, so the processes
#: inherit the constructing layer.
BOUNDARY = (
    "repro.runner.experiment:run_experiment",
    "repro.runner.parallel:run_experiments",
    "repro.cluster.builder:build_cluster",
    "repro.sim.core:Simulator.run",
    "repro.sim.core:Simulator.run_until_event",
    "repro.mpi.runtime:MpiRuntime.__init__",
    "repro.mpi.runtime:MpiRuntime.launch",
    "repro.mpi.runtime:MpiJob.start",
    "repro.mpi.opstream:OpStream.next_for_run",
    "repro.mpiio.engine:IndependentEngine.do_io",
    "repro.mpiio.collective:CollectiveEngine.do_io",
    "repro.mpiio.listio:batch_io",
    "repro.core.engine:DualParEngine.do_io",
    "repro.core.engine:DualParEngine.set_mode",
    "repro.core.system:DualParSystem.__init__",
    "repro.core.emc:EmcDaemon.__init__",
    "repro.core.crm:Crm.run_cycle",
    "repro.core.crm:Crm.writeback_all",
    "repro.cache.memcache:GlobalCache.get",
    "repro.cache.memcache:GlobalCache.put",
    "repro.cache.memcache:GlobalCache.multiget",
    "repro.cache.memcache:GlobalCache.multiput",
    "repro.pfs.client:PfsClient.io",
    "repro.pfs.client:PfsClient.io_async",
    "repro.pfs.dataserver:DataServer.__init__",
    "repro.pfs.dataserver:DataServer.handle",
    "repro.pfs.dataserver:DataServer.handle_list",
    "repro.pfs.dataserver:LocalityDaemon.__init__",
    "repro.pfs.writeback:WritebackBuffer.__init__",
    "repro.net.ethernet:Network.transfer",
    "repro.iosched.blocklayer:BlockLayer.__init__",
    "repro.iosched.blocklayer:BlockLayer.submit",
    "repro.iosched.blocklayer:BlockLayer.throttle",
    "repro.iosched.base:IoScheduler+.add",
    "repro.iosched.base:IoScheduler+.decide",
    "repro.iosched.base:IoScheduler+.on_complete",
    "repro.disk.drive:DiskDrive.service",
    "repro.disk.raid:RaidArray.service",
    "repro.workloads.base:Workload+.ops",
    "repro.obs.sampling:PeriodicSampler.__init__",
)


def layer_of(module_name: str) -> str | None:
    """``repro.pfs.client`` -> ``pfs``; None outside the benchmarked layers."""
    parts = module_name.split(".")
    if len(parts) < 2 or parts[0] != "repro" or parts[1] not in LAYERS:
        return None
    return parts[1]


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _targets() -> Iterator[tuple[Any, str, Any, str]]:
    """(owner, attribute, original, layer) for every boundary entry."""
    seen: set[tuple[int, str]] = set()
    for entry in BOUNDARY:
        module_name, qualname = entry.split(":")
        module = importlib.import_module(module_name)
        if "." not in qualname:
            yield module, qualname, getattr(module, qualname), layer_of(module_name)
            continue
        cls_name, attr = qualname.rsplit(".", 1)
        expand = cls_name.endswith("+")
        cls = getattr(module, cls_name.rstrip("+"))
        for owner in _subclasses(cls) if expand else (cls,):
            fn = owner.__dict__.get(attr)
            layer = layer_of(owner.__module__)
            if (
                fn is None
                or layer is None  # a subclass defined outside repro
                or getattr(fn, "__isabstractmethod__", False)
                or (id(owner), attr) in seen
            ):
                continue
            seen.add((id(owner), attr))
            yield owner, attr, fn, layer


class Tracer:
    """Per-layer self time and call counts for everything run while the
    tracer is installed (``with tracer:`` or :meth:`install`).

    ``clock`` is injectable so tests can check the arithmetic exactly.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Open spans, innermost last: ``[layer, child seconds]``.
        self._stack: list[list] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------

    def _close(self, top: list, t0: float) -> None:
        d = self.clock() - t0
        stack = self._stack
        stack.pop()
        self.self_s[top[0]] += d - top[1]
        if stack:
            stack[-1][1] += d

    def call(self, fn: Callable, layer: str) -> Callable:
        """``fn`` wrapped in one span per call."""
        stack, clock, close, calls = self._stack, self.clock, self._close, self.calls

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[layer] += 1
            top = [layer, 0.0]
            stack.append(top)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(top, t0)

        return traced

    def generator(self, fn: Callable, layer: str) -> Callable:
        """Generator function ``fn`` returning a span-per-resumption proxy."""
        calls, proxy = self.calls, self.proxy

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[layer] += 1
            return proxy(fn(*args, **kwargs), layer)

        return traced

    def proxy(self, gen: Any, layer: str) -> Any:
        """A generator that drives ``gen``, timing each resumption as a
        ``layer`` span; ``send``/``throw``/``close`` are forwarded."""
        p = _proxy(self, gen, layer)
        p.__name__ = getattr(gen, "__name__", p.__name__)
        p.__qualname__ = getattr(gen, "__qualname__", p.__qualname__)
        return p

    def process(self, original: Callable) -> Callable:
        """Wrapper for ``Simulator.process``: the new process inherits the
        creating layer unless its body is already a proxy."""
        stack, proxy = self._stack, self.proxy

        @functools.wraps(original)
        def traced(sim: Any, gen: Any, name: Any = None, daemon: bool = False) -> Any:
            if stack and getattr(gen, "gi_code", None) is not _PROXY_CODE:
                gen = proxy(gen, stack[-1][0])
            return original(sim, gen, name, daemon)

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Patch every boundary entry (and ``Simulator.process``)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        from repro.sim.core import Simulator

        replacements: dict[int, Any] = {}
        for owner, attr, fn, layer in _targets():
            wrap = self.generator if inspect.isgeneratorfunction(fn) else self.call
            wrapped = wrap(fn, layer)
            replacements[id(fn)] = wrapped
            self._patch(owner, attr, wrapped)
        self._patch(Simulator, "process", self.process(Simulator.__dict__["process"]))
        # Module-level functions are also reachable under names other
        # modules imported (``from repro.cluster import build_cluster``).
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None:
                    self._patch(module, attr, wrapped)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr]
        if original is value:
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """``<layer>.self_s`` and ``<layer>.calls`` for every layer in
        :data:`LAYERS`, zero where a layer did no work."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
        return out


def _proxy(tracer: Tracer, gen: Any, layer: str) -> Any:
    stack, clock, close = tracer._stack, tracer.clock, tracer._close
    send, throw = gen.send, gen.throw
    value: Any = None
    exc: BaseException | None = None
    while True:
        top = [layer, 0.0]
        stack.append(top)
        t0 = clock()
        try:
            if exc is None:
                out = send(value)
            else:
                out, exc = throw(exc), None
        except StopIteration as stop:
            return stop.value
        finally:
            close(top, t0)
        try:
            value = yield out
        except GeneratorExit:
            top = [layer, 0.0]
            stack.append(top)
            t0 = clock()
            try:
                gen.close()
            finally:
                close(top, t0)
            raise
        except BaseException as thrown:  # re-raised inside ``gen`` by throw()
            value, exc = None, thrown


_PROXY_CODE = _proxy.__code__
