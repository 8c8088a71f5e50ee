"""Host-time spans recorded from outside the package, for the traced repetition.

Nothing under ``src/`` carries timing code, so the traced repetition gets
its per-layer numbers by replacing *public* entry points at class level,
in the benchmark process only, with versions that open a span around the
original call:

* everything the simulator does enters through a callback handed to
  ``Simulator.schedule`` / ``call_at`` / ``every``; those three are
  replaced so each dispatched event runs inside one span whose layer is
  the module that owns the callback (:func:`callback_layer`);
* cross-layer work inside an event becomes child spans because the entry
  points it goes through (allocator, flow scheduler, transfer manager,
  repairers, journal, chunk store, trace generators, ``Cluster`` and
  ``Testbed`` methods, the codes) are wrapped too.

A span is (name, layer, start_ns, end_ns, parent, rep); they live in
preallocated parallel lists and are aggregated once, after the timed
region. A layer's self time is its spans' duration minus the part their
child spans cover. Work a callback does *without* passing a wrapped entry
point stays with the event that ran it — e.g. a request-done callback run
by a flow completion is charged to ``sim.flows`` until it calls back into
``traffic`` or ``cluster``. In-program spans are a later issue.
"""

from __future__ import annotations

import functools
import sys
import time
import types

import numpy as np

_now = time.perf_counter_ns
_CHUNK = 1 << 20

#: Layers that get a ``<layer>.self_s`` / ``<layer>.calls`` metric. Any
#: other ``repro.<x>`` module (control, metrics, slo, events, experiments)
#: lands in ``other`` so layer self times still add up to the traced time.
LAYERS = (
    "sim.engine", "sim.allocator", "sim.flows", "sim.transfers", "traffic",
    "core", "repair", "cluster", "api", "journal", "integrity", "faults",
    "obs", "monitor", "codes", "other",
)

_ALIASES = {
    "gf": "codes",
    "sim.events": "sim.engine",
    # The columnar scheduler lives in sim.kernel; if Cluster ever picks it
    # by default its events are still flow-scheduler events.
    "sim.kernel": "sim.flows",
    "sim.resources": "sim.flows",
}


def layer_of_module(module: str) -> str:
    """``repro.<layer>[...]`` / ``repro.sim.<module>`` -> a name in LAYERS."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    layer = f"sim.{parts[2]}" if parts[1] == "sim" and len(parts) > 2 else parts[1]
    layer = _ALIASES.get(layer, layer)
    return layer if layer in LAYERS else "other"


def _owner_module(callback) -> str:
    while isinstance(callback, functools.partial):
        callback = callback.func
    owner = getattr(callback, "__self__", None)
    if owner is not None and not isinstance(owner, types.ModuleType):
        cls = owner if isinstance(owner, type) else type(owner)
        return cls.__module__
    return getattr(callback, "__module__", None) or ""


def callback_layer(callback) -> str:
    """The layer that owns an event callback.

    A bound method belongs to its instance's class
    (``callback.__self__.__class__.__module__``), anything else to the
    module it was written in (``callback.__module__``) — which is right
    for lambdas. ``functools.partial`` is looked through first.
    """
    return layer_of_module(_owner_module(callback))


def _callback_name(callback) -> str:
    while isinstance(callback, functools.partial):
        callback = callback.func
    return getattr(callback, "__qualname__", None) or type(callback).__name__


class SpanLog:
    """Parallel preallocated columns, one row per span."""

    def __init__(self, rep: int = 0) -> None:
        self.rep = rep
        self.name_id = [0] * _CHUNK
        self.start = [0] * _CHUNK
        self.end = [0] * _CHUNK
        self.parent = [-1] * _CHUNK
        self.count = 0
        self.current = -1  # index of the innermost open span
        self.names: list[tuple[str, str]] = []  # id -> (name, layer)
        self._ids: dict[tuple[str, str], int] = {}
        #: ``dispatch(nid, fn, *args, **kwargs)`` calls ``fn`` inside one
        #: span. Events are scheduled as ``(dispatch, nid, callback, *args)``
        #: so the hot path allocates no closure per event.
        self.dispatch = self._make_dispatch()

    def intern(self, name: str, layer: str) -> int:
        """Small integer standing for (name, layer) in the name column."""
        key = (name, layer)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def _grow(self) -> None:
        # In place: the wrappers hold references to these very lists.
        for column in (self.name_id, self.start, self.end, self.parent):
            column.extend([0] * _CHUNK)

    def _make_dispatch(self):
        log = self
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent

        def dispatch(nid, fn, *args, **kwargs):
            i = log.count
            if i == len(start):
                log._grow()
            log.count = i + 1
            name_id[i] = nid
            parent[i] = log.current
            log.current = i
            start[i] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = _now()
                log.current = parent[i]

        return dispatch

    def wrap(self, fn, name: str, layer: str):
        """``fn`` with one span around each call."""
        dispatch = self.dispatch
        nid = self.intern(name, layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return dispatch(nid, fn, *args, **kwargs)

        return traced

    def aggregate(self, lo: int, hi: int, wall_s: float) -> dict:
        """Per-layer and per-name self time over spans ``[lo, hi)``.

        ``wall_s`` is the length of the interval those spans were recorded
        in; what no root span covers is reported as ``unattributed_s``, so
        layer self times plus ``unattributed_s`` equal ``wall_s``.
        """
        n = hi - lo
        nid = np.asarray(self.name_id[lo:hi], dtype=np.int64)
        dur = (np.asarray(self.end[lo:hi], dtype=np.int64)
               - np.asarray(self.start[lo:hi], dtype=np.int64)).astype(np.float64)
        parent = np.asarray(self.parent[lo:hi], dtype=np.int64) - lo
        nested = parent >= 0
        covered_by_children = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_ns = dur - covered_by_children
        kinds = len(self.names)
        calls = np.bincount(nid, minlength=kinds)
        total = np.bincount(nid, weights=dur, minlength=kinds)
        own = np.bincount(nid, weights=self_ns, minlength=kinds)
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        names = []
        for k, (name, layer) in enumerate(self.names):
            if not calls[k]:
                continue
            layers[layer]["self_s"] += own[k] / 1e9
            layers[layer]["calls"] += int(calls[k])
            names.append({
                "name": name, "layer": layer, "calls": int(calls[k]),
                "total_s": total[k] / 1e9, "self_s": own[k] / 1e9,
            })
        names.sort(key=lambda row: -row["self_s"])
        return {
            "spans": n,
            "wall_s": wall_s,
            "unattributed_s": wall_s - float(dur[~nested].sum()) / 1e9,
            "layers": layers,
            "names": names,
        }

    def save(self, path) -> None:
        """Raw spans as ``.npz`` columns plus the (name, layer) table."""
        n = self.count
        np.savez_compressed(
            path,
            name_id=np.asarray(self.name_id[:n], dtype=np.int32),
            start_ns=np.asarray(self.start[:n], dtype=np.int64),
            end_ns=np.asarray(self.end[:n], dtype=np.int64),
            parent=np.asarray(self.parent[:n], dtype=np.int64),
            rep=np.int64(self.rep),
            names=np.asarray([name for name, _ in self.names]),
            layers=np.asarray([layer for _, layer in self.names]),
        )


def _public_methods(cls) -> list[str]:
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_")
        and isinstance(value, (types.FunctionType, classmethod, staticmethod))
    ]


class Tracing:
    """Installs the wrappers on the package's public entry points.

    Use as a context manager; on exit every replaced attribute is put
    back, so nothing survives the traced repetition.
    """

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._undo: list[tuple[object, str, object]] = []
        #: Flow schedulers that started a flow (for ``py_flow_ops``).
        self.schedulers: dict[int, object] = {}

    def __enter__(self) -> "Tracing":
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrapping helpers ---------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def wrap_method(self, cls, attr: str, layer: str | None = None) -> None:
        """Span every call of ``cls.attr``; absent attributes are skipped
        (the class may have been refactored away since this was written)."""
        raw = vars(cls).get(attr)
        if raw is None:
            return
        layer = layer or layer_of_module(cls.__module__)
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self.log.wrap(raw.__func__, name, layer))
        else:
            new = self.log.wrap(raw, name, layer)
        self._replace(cls, attr, new)

    def wrap_methods(self, cls, attrs=None, layer: str | None = None) -> None:
        for attr in attrs if attrs is not None else _public_methods(cls):
            self.wrap_method(cls, attr, layer)

    def wrap_function(self, fn, layer: str | None = None) -> None:
        """Span a module-level function under every ``repro`` name bound to it."""
        layer = layer or layer_of_module(fn.__module__)
        traced = self.log.wrap(fn, fn.__qualname__, layer)
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, attr, traced)

    # -- the entry points ---------------------------------------------------

    def _install(self) -> None:
        import repro
        from repro import cluster, codes, sim
        from repro.cluster.datastore import ChunkStore
        from repro.repair.dataplane import DataPlane
        from repro.sim.allocator import RateAllocator
        from repro.sim.flows import FlowScheduler
        from repro.sim.transfers import TransferManager
        from repro.traffic.traces import TraceGenerator

        self._wrap_simulator(sim.Simulator)

        kernel = sys.modules.get("repro.sim.kernel")
        allocators = [RateAllocator, getattr(kernel, "ColumnarRateAllocator", None)]
        schedulers = [FlowScheduler, getattr(kernel, "ColumnarFlowScheduler", None)]
        for cls in filter(None, allocators):
            self.wrap_methods(cls, ("add_flow", "remove_flow", "recompute"), "sim.allocator")
        for cls in filter(None, schedulers):
            self.wrap_methods(cls, ("cancel_flow", "capacity_changed"), "sim.flows")
            self._wrap_start_flow(cls)
        self.wrap_methods(TransferManager, ("start", "pause", "resume", "cancel", "fail"))

        self.wrap_method(repro.ChameleonRepair, "repair")
        self.wrap_method(repro.RepairRunner, "repair")
        self.wrap_methods(DataPlane, ("handle_repaired", "verify"))

        self.wrap_methods(repro.Journal, ("append", "replay", "checkpoint"))
        self.wrap_function(repro.reconcile)
        # Checksum verification is integrity work wherever the store lives.
        self.wrap_methods(ChunkStore, ("verify", "matches_checksum"), "integrity")
        self.wrap_methods(repro.Scrubber)
        self.wrap_methods(repro.FaultTimeline, ("arm",))

        self.wrap_method(TraceGenerator, "next_request")
        self.wrap_method(repro.KeyRouter, "node_for")

        self.wrap_methods(repro.Cluster, (
            "make_transfer", "start", "fail_node", "set_link_bandwidth",
            "set_disk_bandwidth", "apply_partition", "heal_partition",
        ))
        self.wrap_methods(repro.FailureInjector)
        self.wrap_function(cluster.place_stripes)
        self.wrap_methods(repro.Testbed)

        for value in vars(codes).values():
            if isinstance(value, type) and issubclass(value, repro.ErasureCode):
                self.wrap_methods(
                    value, ("encode", "decode", "repair_equation", "validate_stripe")
                )

    def _wrap_start_flow(self, cls) -> None:
        raw = vars(cls).get("start_flow")
        if raw is None:
            return
        traced = self.log.wrap(raw, f"{cls.__name__}.start_flow", "sim.flows")
        seen = self.schedulers

        @functools.wraps(raw)
        def start_flow(scheduler, flow):
            seen[id(scheduler)] = scheduler
            return traced(scheduler, flow)

        self._replace(cls, "start_flow", start_flow)

    def _wrap_simulator(self, simulator_cls) -> None:
        log = self.log
        dispatch = log.dispatch
        ids: dict[object, int] = {}

        def event_id(callback) -> int:
            # Bound methods are keyed by (function, instance class) and
            # plain functions by code object, so a lambda re-created per
            # event does not grow the table.
            func = getattr(callback, "__func__", None)
            if func is not None:
                key = (func, type(callback.__self__))
            else:
                key = getattr(callback, "__code__", None)
            nid = ids.get(key) if key is not None else None
            if nid is None:
                nid = log.intern(f"event {_callback_name(callback)}", callback_layer(callback))
                if key is not None:
                    ids[key] = nid
            return nid

        schedule = vars(simulator_cls)["schedule"]
        call_at = vars(simulator_cls)["call_at"]
        every = vars(simulator_cls)["every"]

        @functools.wraps(schedule)
        def traced_schedule(sim, delay, callback, *args):
            return schedule(sim, delay, dispatch, event_id(callback), callback, *args)

        @functools.wraps(call_at)
        def traced_call_at(sim, when, callback, *args):
            return call_at(sim, when, dispatch, event_id(callback), callback, *args)

        @functools.wraps(every)
        def traced_every(sim, interval, callback):
            # The hook's own timer event is a sim.engine span; the user's
            # callback becomes its child, under its owner's layer.
            hooked = functools.partial(dispatch, event_id(callback), callback)
            return every(sim, interval, hooked)

        self._replace(simulator_cls, "schedule", traced_schedule)
        self._replace(simulator_cls, "call_at", traced_call_at)
        self._replace(simulator_cls, "every", traced_every)
        self.wrap_method(simulator_cls, "run")
