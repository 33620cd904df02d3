"""Out-of-program tracing: per-layer host time from wrapped public callables.

The traced run installs a wrapper around each public callable listed in
:data:`LAYERS`, at class or module level, for the duration of one
:func:`traced` block, and restores the originals afterwards. Each wrapped
call records one span (callable, start, end, parent span, run id) into
flat in-memory columns; nothing is written until the benchmark ends.

A span's self time is its duration minus the durations of its direct
child spans. Wrapper cost is charged partly to the span itself (the clock
reads and bookkeeping between its start and end stamps) and partly to its
parent (entering the wrapper before the start stamp and leaving it after
the end stamp). :meth:`Tracer.calibrate` measures both per-call costs on
a no-op callable, and :meth:`Tracer.self_times` subtracts them.
"""

from __future__ import annotations

import importlib
import itertools
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

__all__ = [
    "LAYERS",
    "LAYER_NAMES",
    "ROOT",
    "Target",
    "Tracer",
    "traced",
]


class Target(NamedTuple):
    """One wrapped callable: ``module:Qual.name`` and its layer."""

    layer: str
    path: str  # "module:attr" or "module:Class.attr"
    generator: bool = False  # time each yielded item, not the call


#: Layer name -> the public callables whose spans make up the layer. A
#: function imported by name into another module is listed once per
#: binding the drivers call through.
LAYERS: Tuple[Target, ...] = (
    Target("workloads", "repro.workloads.benchmark:AccessStream.next_access"),
    Target("workloads", "repro.workloads.phased:PhasedStream.next_access"),
    Target("workloads", "repro.workloads.tenants:TenantWorkload.chunks", True),
    Target("workloads", "repro.workloads.tenants:TenantWorkload.tenant_chunks", True),
    Target("workloads", "repro.workloads.shared:SharedWorkload.chunks", True),
    Target("workloads", "repro.workloads.shared:SharedWorkload.core_chunks", True),
    Target("cache", "repro.cache.cache:SharedCache.access"),
    Target("cache", "repro.cache.cache:SharedCache.access_many"),
    Target("cache", "repro.cache.encode:encode_accesses"),
    Target("cache", "repro.tenancy.run:encode_accesses"),
    Target("cache", "repro.clustering.scaleout:encode_accesses"),
    Target("core", "repro.core.prism:PrismScheme.end_interval"),
    Target("cpu.system", "repro.cpu.system:MultiCoreSystem.run"),
    Target("cpu.core_model", "repro.cpu.core_model:CoreTimingModel.advance"),
    Target("cpu.core_model", "repro.cpu.core_model:CoreTimingModel.advance_local"),
    Target("cpu.l1", "repro.cpu.l1:L1Cache.access"),
    Target("cpu.l1", "repro.cpu.l1:L1Cache.invalidate"),
    Target("cpu.memory", "repro.cpu.memory:MemoryModel.miss_latency"),
    Target("check.belady", "repro.check.belady:belady_workload_run"),
    Target("standalone", "repro.experiments.runner:standalone_ipcs"),
    Target("standalone", "repro.tenancy.run:tenant_standalone"),
    Target("standalone", "repro.clustering.scaleout:shared_standalone"),
    Target("clustering", "repro.clustering.scaleout:derive_core_map"),
    Target("campaign", "repro.campaign.fingerprint:spec_fingerprint"),
    Target("campaign", "repro.campaign.runner:cache_hit"),
    Target("campaign", "repro.campaign.store:ResultStore.add_result"),
    Target("experiments.runner", "repro.experiments.runner:run_workload"),
    Target("experiments.runner", "repro.experiments.parallel:run_workload"),
    Target("tenancy", "repro.tenancy.run:run_tenant_workload"),
    Target("clustering.scaleout", "repro.clustering.scaleout:run_shared_workload"),
)

#: Layer names in report order (first appearance in :data:`LAYERS`).
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in LAYERS))

#: Span name of the per-iteration root span (not a layer: its self time
#: is the unattributed remainder).
ROOT = "iteration"

#: Least share of an iteration's host time that the calibrated wrapper
#: cost must reach before :meth:`Tracer.fit_costs` trusts the measured
#: overhead over the calibration.
FIT_MIN_SHARE = 0.05


def _resolve(path: str):
    """``"module:Qual.attr"`` -> (owner object, attribute name)."""
    module_name, qual = path.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = qual.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise AttributeError(f"{path}: no attribute {attr!r}")
    return owner, attr


class Tracer:
    """Span store plus the wrappers that fill it.

    A span takes a sequence number when it opens and is recorded when it
    closes, into two flat arrays: its number, parent number and callable
    id into :attr:`ids`, its start and end into :attr:`times`. That is 40
    bytes a span, so the few million spans of a traced iteration stay in
    memory until the benchmark ends. Callable id 0 is the root span;
    targets are numbered from 1 in :data:`LAYERS` order. Spans of one
    iteration share the run id given to its :meth:`root`.
    """

    def __init__(self, targets: Tuple[Target, ...] = LAYERS,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.targets = targets
        self.clock = clock
        self.names: List[str] = [ROOT] + [t.path for t in targets]
        self.layer_of: List[str] = [ROOT] + [t.layer for t in targets]
        self.ids = array("q")
        self.times = array("d")
        self._numbers = itertools.count()
        self._stack: List[int] = [-1]
        #: (root span number, run id) per :meth:`root`.
        self.roots: List[Tuple[int, int]] = []
        #: Calibrated wrapper cost per call (seconds): inside the span's
        #: own stamps, and outside them (charged to the parent).
        self.cost_in = 0.0
        self.cost_out = 0.0
        self._installed: List[tuple] = []
        #: Hooks run after a wrapped call returns, by target path:
        #: ``hook(args, result)``; used for deterministic counters.
        self.on_return: Dict[str, Callable] = {}

    # -- span recording ----------------------------------------------------

    @contextmanager
    def root(self, run_id: int):
        """The root span of one iteration. Yields a list holding its start
        stamp, to which its end stamp is appended when the block exits."""
        number = next(self._numbers)
        self.roots.append((number, run_id))
        parent = self._stack[-1]
        self._stack.append(number)
        stamps = [self.clock()]
        try:
            yield stamps
        finally:
            stamps.append(self.clock())
            self._stack.pop()
            self.ids.extend((number, parent, 0))
            self.times.extend(stamps)

    def wrap(self, fn: Callable, name_id: int, generator: bool = False,
             hook: Optional[Callable] = None) -> Callable:
        """A span-recording stand-in for ``fn``.

        The plain-call body is kept minimal: its per-call cost is what
        :meth:`calibrate` measures and :meth:`self_times` subtracts.
        """
        put_id, put_time = self.ids.append, self.times.append
        stack, clock = self._stack, self.clock
        number = self._numbers.__next__
        push, pop = stack.append, stack.pop

        if generator:
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    index = number()
                    parent = stack[-1]
                    push(index)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        pop()
                        # The probe that found the generator exhausted is
                        # not a chunk: record it only if it has children.
                        if number() > index + 1:
                            self._record(index, parent, name_id, start)
                        return
                    except BaseException:
                        pop()
                        self._record(index, parent, name_id, start)
                        raise
                    self._record(index, parent, name_id, start)
                    pop()
                    yield item

            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced_call(*args, **kwargs):
            index = number()
            parent = stack[-1]
            push(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                pop()
                put_id(index)
                put_id(parent)
                put_id(name_id)
                put_time(start)
                put_time(end)

        if hook is None:
            traced_call.__wrapped__ = fn
            return traced_call

        def traced_hooked(*args, **kwargs):
            result = traced_call(*args, **kwargs)
            hook(args, result)
            return result

        traced_hooked.__wrapped__ = fn
        return traced_hooked

    def _record(self, index: int, parent: int, name_id: int, start: float) -> None:
        """Record a span that ends now (the slow path, for chunk spans)."""
        end = self.clock()
        self.ids.extend((index, parent, name_id))
        self.times.extend((start, end))

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        """Wrap every target at class or module level."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        try:
            for name_id, target in enumerate(self.targets, start=1):
                owner, attr = _resolve(target.path)
                had_own = attr in vars(owner)
                original = vars(owner)[attr] if had_own else None
                fn = original if had_own else getattr(owner, attr)
                wrapper = self.wrap(
                    fn, name_id, target.generator, self.on_return.get(target.path)
                )
                setattr(owner, attr, wrapper)
                self._installed.append((owner, attr, had_own, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original back (the exact object, or no own attribute)."""
        while self._installed:
            owner, attr, had_own, original = self._installed.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- calibration -------------------------------------------------------

    def calibrate(self, calls: int = 20_000, repeats: int = 7) -> None:
        """Measure the wrapper's per-call cost on a two-argument method.

        With ``L`` the time of an empty loop of ``calls`` turns, ``U`` of
        as many bare calls, ``D`` of as many wrapped calls and ``S`` the
        summed span durations: a bare call costs ``u = (U - L) / calls``,
        the in-span cost is ``S / calls - u`` and the out-of-span cost is
        ``(D - U) / calls`` less the in-span cost. The minimum over
        ``repeats`` rejects interference.
        """
        class Probe:
            def call(self, a, b):
                return None

        probe, bare_call = Probe(), Probe.call
        wrapped = self.wrap(bare_call, 0)
        clock = self.clock
        best_in = best_out = float("inf")
        for _ in range(repeats):
            first = len(self.times)
            t0 = clock()
            for _ in range(calls):
                pass
            t1 = clock()
            for _ in range(calls):
                probe.call(1, 2)
            t2 = clock()
            Probe.call = wrapped
            t3 = clock()
            for _ in range(calls):
                probe.call(1, 2)
            t4 = clock()
            Probe.call = bare_call
            stamps = np.array(self.times[first:]).reshape(-1, 2)
            del self.times[first:]
            del self.ids[first // 2 * 3:]
            bare = (t2 - t1 - (t1 - t0)) / calls
            cost_in = float((stamps[:, 1] - stamps[:, 0]).sum()) / calls - bare
            cost_out = (t4 - t3 - (t2 - t1)) / calls - cost_in
            best_in = min(best_in, max(cost_in, 0.0))
            best_out = min(best_out, max(cost_out, 0.0))
        self.cost_in, self.cost_out = best_in, best_out

    # -- analysis ----------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        """Recorded spans, in closing order, as numpy columns.

        ``parent`` is the parent's row (-1 for roots). The columns view the
        span arrays, which cannot grow while a view is alive: read them
        between traced iterations only.
        """
        ids = np.frombuffer(self.ids, dtype=np.int64).reshape(-1, 3)
        times = np.frombuffer(self.times, dtype=np.float64).reshape(-1, 2)
        number = ids[:, 0]
        # Row of each span number; the extra last slot stays -1, so a root's
        # parent number -1 maps to row -1.
        row_of = np.full(int(number.max(initial=-1)) + 2, -1, dtype=np.int64)
        row_of[number] = np.arange(len(number))
        return {
            "parent": row_of[ids[:, 1]],
            "name": ids[:, 2],
            "start": times[:, 0],
            "end": times[:, 1],
        }

    def run_ids(self) -> np.ndarray:
        """Run id of every span (closing order): that of the last root
        opened before it, as span numbers are taken at opening."""
        number = np.frombuffer(self.ids, dtype=np.int64).reshape(-1, 3)[:, 0]
        root_numbers = np.array([r[0] for r in self.roots], dtype=np.int64)
        # A trailing -1: index -1 (opened before any root) means no run.
        root_runs = np.array([r[1] for r in self.roots] + [-1], dtype=np.int64)
        return root_runs[np.searchsorted(root_numbers, number, side="right") - 1]

    def self_times(self, cols: Dict[str, np.ndarray]) -> np.ndarray:
        """Per-span self time, wrapper cost subtracted.

        ``duration - sum(direct children's durations)``, less the in-span
        cost for every wrapped span (all but roots) and the out-of-span
        cost once per direct child. Computed in place: a traced run holds
        millions of spans.
        """
        parent = cols["parent"]
        parent = parent[parent >= 0]
        self_s = cols["end"] - cols["start"]
        n = len(self_s)
        self_s -= np.bincount(
            parent, weights=self_s[cols["parent"] >= 0], minlength=n
        )
        self_s -= np.bincount(parent, minlength=n) * self.cost_out
        self_s[cols["name"] > 0] -= self.cost_in
        return self_s

    def report(self, inclusive: Tuple[str, ...] = ()) -> dict:
        """Totals over every recorded span.

        Returns ``{"layers": {layer: {"calls", "self_s"}}, "calls":
        {callable path: calls}, "inclusive": {layer: seconds}}``. The root
        spans appear under :data:`ROOT` in ``layers``: their self time is
        the host time no layer accounts for. A layer's inclusive time is
        the corrected self time of every span at or below its outermost
        spans.
        """
        cols = self.columns()
        self_s = self.self_times(cols)
        names = cols["name"]
        width = len(self.names)
        time_by_name = np.bincount(names, weights=self_s, minlength=width)
        calls_by_name = np.bincount(names, minlength=width)
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in (ROOT,) + LAYER_NAMES}
        for name_id, layer in enumerate(self.layer_of):
            entry = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["calls"] += int(calls_by_name[name_id])
            entry["self_s"] += float(time_by_name[name_id])
        child_rows = np.flatnonzero(cols["parent"] >= 0)
        parent_rows = cols["parent"][child_rows]
        totals = {}
        for layer in inclusive:
            # Mark every span below a span of the layer, one nesting level
            # per pass (nesting is a few levels deep).
            under = np.array([l == layer for l in self.layer_of])[names]
            while True:
                marked = under.copy()
                marked[child_rows] |= under[parent_rows]
                if (marked == under).all():
                    break
                under = marked
            totals[layer] = float(self_s[under].sum())
        return {
            "layers": layers,
            "calls": {path: int(c) for path, c in zip(self.names, calls_by_name)},
            "inclusive": totals,
        }

    def fit_costs(self, overhead: float, spans: int, wall: float) -> None:
        """Scale the calibrated costs to the overhead measured in the run.

        The no-op calibration misses what wrapping costs inside a real
        run (generic call paths, cache pressure from the span columns).
        ``overhead`` is that cost measured on the workload itself: traced
        minus untraced host time of one iteration of ``spans`` spans and
        ``wall`` untraced seconds. It is used only when the calibrated
        cost of those spans is at least :data:`FIT_MIN_SHARE` of ``wall``,
        so that it stands above run-to-run noise, and only to raise the
        costs. The in-span/out-of-span split keeps its proportions.
        """
        total = self.cost_in + self.cost_out
        if total <= 0.0 or total * spans < FIT_MIN_SHARE * wall:
            return
        per_call = overhead / spans
        if per_call > total:
            self.cost_in *= per_call / total
            self.cost_out *= per_call / total

    def save(self, path) -> None:
        """Write the spans as ``.npz``, in closing order, without copies.

        ``ids`` rows are (span number, parent number or -1, callable id),
        ``times`` rows (start, end); ``roots`` rows (root span number, run
        id) give each span's run: that of the last root numbered before it.
        ``callables``/``layers`` name the callable ids.
        """
        np.savez(
            path,
            ids=np.frombuffer(self.ids, dtype=np.int64).reshape(-1, 3),
            times=np.frombuffer(self.times, dtype=np.float64).reshape(-1, 2),
            roots=np.array(self.roots, dtype=np.int64).reshape(-1, 2),
            callables=np.array(self.names),
            layers=np.array(self.layer_of),
            cost=np.array([self.cost_in, self.cost_out]),
        )


@contextmanager
def traced(tracer: Tracer):
    """Install ``tracer``'s wrappers for the block; always restore them."""
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.restore()
