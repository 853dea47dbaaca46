"""The traced run: spans around each layer's public calls.

:meth:`Tracer.install` replaces the public functions the service's
write and read paths call (class attributes and module-level names)
with wrappers that record a :class:`Span` per call: name, layer, start,
end, parent span and request id.  Spans stay in memory until
:meth:`Tracer.layer_metrics` folds them into the per-layer metrics.
:meth:`Tracer.uninstall` puts every original back; nothing under
``src/`` changes.

Request ids are script indexes.  ``submit`` maps its op to one; inside
a batch, the k-th top-level engine call (and the ``parse_fragment``
before it) belongs to the batch's k-th request, because the writer
applies a batch's requests in order, one engine call each.
"""

from __future__ import annotations

import functools
import gc
import statistics
import threading
import time

import repro.labeling.snapshot as snapshot_module
import repro.service.writer as writer_module
import repro.wal as wal_module
import repro.wal.recovery as recovery_module
import repro.wal.writer as wal_writer_module
from repro.labeling.snapshot import LabelView
from repro.query import TABLE3_QUERIES, QueryEngine
from repro.service import DocumentService, DocumentWriter
from repro.storage.labelstore import LabelStore
from repro.updates import UpdateEngine
from repro.wal import WalManager

from .stats import percentile

__all__ = ["Span", "Tracer", "FAILURE_TYPES", "LAYERS"]

#: Error types counted as ``service.failed.<type>``; any other is
#: counted as ``Other``.
FAILURE_TYPES = (
    "ServiceOverloaded",
    "DeadlineExceeded",
    "UpdateAborted",
    "ServiceCrashed",
    "ServiceError",
)
LAYERS = (
    "service",
    "xmltree",
    "updates",
    "storage",
    "labeling",
    "wal",
    "query",
)
#: Phases whose spans make up the request-path metrics.
MEASURED = frozenset({"open", "saturate"})
READ_PHASES = frozenset({"open", "saturate", "probe", "final"})
BATCH = "service.batch"
READ_CALLS = frozenset(
    {"service.query", "service.relationship", "service.xml"}
)
_QUERY_IDS = {text: qid for qid, text in TABLE3_QUERIES.items()}
_ENGINE_OPS = {
    "insert_child": "updates.insert",
    "insert_before": "updates.insert",
    "insert_after": "updates.insert",
    "delete": "updates.delete",
    "move_before": "updates.move",
}


class Span:
    """One wrapped call; times are ``perf_counter_ns``."""

    __slots__ = (
        "name",
        "layer",
        "start",
        "end",
        "parent",
        "rid",
        "phase",
        "data",
    )

    def __init__(self, name, layer, parent, phase) -> None:
        self.name = name
        self.layer = layer
        self.parent = parent
        self.rid = None if parent is None else parent.rid
        self.phase = phase
        self.start = self.end = 0
        self.data = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6

    @property
    def in_batch(self) -> bool:
        """A top-level call of the writer's batch (not a nested one)."""
        return self.parent is not None and self.parent.name == BATCH


class _RequestTrace:
    """The service-boundary times of one write."""

    __slots__ = ("submitted", "batch", "resolved")

    def __init__(self, submitted: int) -> None:
        self.submitted = submitted
        self.batch = None
        self.resolved = 0


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase: "str | None" = None
        self.requests: dict[int, _RequestTrace] = {}
        self.gc_pauses: list[tuple] = []
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._rid_of_op: dict[int, int] = {}
        self._fresh_views: set[int] = set()
        self._gc_start = 0

    def bind_script(self, ops) -> None:
        self._rid_of_op = {id(op): index for index, op in enumerate(ops)}

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, owner, attr, name, *, before=None, after=None, when=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(span, args)`` runs before the call, ``after(span, args,
        result)`` after a successful one; a ``when(args)`` that returns
        False skips the span for that call.
        """
        original = vars(owner)[attr]
        layer = name.split(".")[0]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return original(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(name, layer, parent, tracer.phase)
            if before is not None:
                before(span, args)
            stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(span)
            if after is not None:
                after(span, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _stack(self) -> list:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.batch = None
        return local.stack

    def install(self) -> "Tracer":
        wrap = self._wrap
        wrap(DocumentWriter, "submit", "service.submit", after=self._submitted)
        wrap(DocumentWriter, "apply_batch", BATCH, before=self._batch_begins)
        for method in ("query", "relationship", "xml"):
            wrap(DocumentService, method, f"service.{method}")
        wrap(
            writer_module,
            "parse_fragment",
            "xmltree.parse_fragment",
            before=self._claim_request,
        )
        wrap(snapshot_module, "serialize_document", "xmltree.serialize")
        for method, name in _ENGINE_OPS.items():
            wrap(
                UpdateEngine,
                method,
                name,
                before=self._claim_request,
                after=self._engine_op_done,
            )
        wrap(LabelStore, "apply_update", "storage.page_model")
        wrap(wal_writer_module, "save_labeled", "storage.save_labeled")
        wrap(recovery_module, "load_labeled", "storage.load_labeled")
        wrap(
            writer_module, "capture", "labeling.capture", after=self._captured
        )
        wrap(
            LabelView,
            "position_of",
            "labeling.view_positions",
            when=self._fresh_view,
        )
        wrap(WalManager, "commit", "wal.commit", after=_keep("frame_bytes"))
        wrap(WalManager, "end_batch", "wal.end_batch", after=self._fsynced)
        wrap(WalManager, "checkpoint", "wal.checkpoint")
        wrap(wal_module, "recover", "wal.recover")
        wrap(QueryEngine, "evaluate", "query.evaluate", after=self._evaluated)
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- hooks ---------------------------------------------------------------

    def _submitted(self, span, args, future) -> None:
        rid = self._rid_of_op.get(id(args[1]))
        if rid is None:
            return
        span.rid = rid
        trace = _RequestTrace(span.end)
        self.requests[rid] = trace

        def resolved(_future, trace=trace) -> None:
            trace.resolved = time.perf_counter_ns()

        future.add_done_callback(resolved)

    def _batch_begins(self, span, args) -> None:
        rids = [self._rid_of_op.get(id(request.op)) for request in args[1]]
        span.data = rids
        self._local.batch = [rids, 0]
        for rid in rids:
            trace = self.requests.get(rid)
            if trace is not None:
                trace.batch = span

    def _claim_request(self, span, args) -> None:
        """Top-level calls inside a batch belong to its next request."""
        batch = self._local.batch
        if batch is not None and span.in_batch and batch[1] < len(batch[0]):
            span.rid = batch[0][batch[1]]

    def _engine_op_done(self, span, args, result) -> None:
        span.data = result.stats.relabeled_nodes
        batch = self._local.batch
        if batch is not None and span.in_batch:
            batch[1] += 1

    def _captured(self, span, args, view) -> None:
        self._fresh_views.add(id(view))

    def _fresh_view(self, args) -> bool:
        view_id = id(args[0])
        if view_id in self._fresh_views:
            self._fresh_views.discard(view_id)
            return True
        return False

    def _fsynced(self, span, args, receipt) -> None:
        span.data = receipt is not None

    def _evaluated(self, span, args, matches) -> None:
        engine, query = args[0], args[1]
        span.data = (_QUERY_IDS.get(query), engine.scan_bytes)

    def _on_gc(self, event, info) -> None:
        now = time.perf_counter_ns()
        if event == "start":
            self._gc_start = now
        else:
            pause = now - self._gc_start
            self.gc_pauses.append((self.phase, pause, info["generation"]))

    # -- metrics -------------------------------------------------------------

    def layer_metrics(
        self, record, untraced_write_p50_ms: float
    ) -> "dict[str, tuple[float, str]]":
        """The per-layer metrics of a traced pass, name -> (value, unit)."""
        spans = _SpanIndex(self.spans)
        writes = sum(
            1
            for r in record.requests
            if r.kind == "write" and r.phase in MEASURED and r.error is None
        )
        reads = sum(
            1
            for r in record.requests
            if r.kind != "write" and r.phase in READ_PHASES
        )
        out = self._service_metrics(record, spans, untraced_write_p50_ms)
        failed = dict.fromkeys(FAILURE_TYPES + ("Other",), 0)
        for kind, count in record.failures.items():
            failed[kind if kind in FAILURE_TYPES else "Other"] += count
        for kind, count in failed.items():
            out[f"service.failed.{kind}"] = (count, "count")

        def p50(name, phases=MEASURED):
            return percentile(spans.ms(name, phases), 0.5)

        out["xmltree.parse_fragment_us.p50"] = (
            p50("xmltree.parse_fragment") * 1e3,
            "us",
        )
        out["xmltree.serialize_ms.p50"] = (p50("xmltree.serialize"), "ms")

        txn = [
            span
            for name in ("updates.insert", "updates.delete", "updates.move")
            for span in spans.of(name, MEASURED)
            if span.in_batch
        ]
        txn_ms = [span.ms for span in txn]
        out["updates.txn_ms.p50"] = (percentile(txn_ms, 0.5), "ms")
        out["updates.txn_ms.p99"] = (percentile(txn_ms, 0.99), "ms")
        for kind in ("insert", "delete", "move"):
            times = [s.ms for s in txn if s.name == f"updates.{kind}"]
            out[f"updates.{kind}_ms.p50"] = (percentile(times, 0.5), "ms")
        out["updates.relabeled_nodes_per_write"] = (
            sum(span.data for span in txn) / max(1, len(txn)),
            "nodes",
        )

        saves = spans.ms("storage.save_labeled", MEASURED) or spans.ms(
            "storage.save_labeled", {"setup"}
        )
        out["storage.page_model_ms.p50"] = (p50("storage.page_model"), "ms")
        out["storage.save_labeled_ms.p50"] = (percentile(saves, 0.5), "ms")
        out["storage.load_labeled_ms.p50"] = (
            p50("storage.load_labeled", {"recover"}),
            "ms",
        )

        captures = spans.ms("labeling.capture", MEASURED)
        out["labeling.capture_ms.p50"] = (percentile(captures, 0.5), "ms")
        out["labeling.capture_ms.p99"] = (percentile(captures, 0.99), "ms")
        out["labeling.captures_per_commit"] = (
            len(captures) / max(1, writes),
            "ratio",
        )
        out["labeling.view_positions_ms.p50"] = (
            p50("labeling.view_positions", READ_PHASES),
            "ms",
        )

        commits = spans.of("wal.commit", MEASURED)
        batches = spans.of("wal.end_batch", MEASURED)
        batch_ms = [span.ms for span in batches]
        checkpoints = spans.ms("wal.checkpoint", MEASURED)
        out["wal.commit_us.p50"] = (p50("wal.commit") * 1e3, "us")
        out["wal.end_batch_ms.p50"] = (percentile(batch_ms, 0.5), "ms")
        out["wal.end_batch_ms.p99"] = (percentile(batch_ms, 0.99), "ms")
        out["wal.fsyncs_per_commit"] = (
            sum(1 for span in batches if span.data) / max(1, len(commits)),
            "ratio",
        )
        out["wal.frame_bytes_per_commit"] = (
            sum(span.data for span in commits) / max(1, len(commits)),
            "bytes",
        )
        out["wal.checkpoint_ms.p50"] = (percentile(checkpoints, 0.5), "ms")
        out["wal.checkpoints"] = (len(checkpoints), "count")
        out["wal.checkpoint_ms_total"] = (sum(checkpoints), "ms")
        out["wal.replayed_records"] = (record.replayed_records, "records")

        evaluations = spans.of("query.evaluate", READ_PHASES)
        for qid in TABLE3_QUERIES:
            times = [s.ms for s in evaluations if s.data[0] == qid]
            out[f"query.{qid}_ms.p50"] = (percentile(times, 0.5), "ms")
        out["query.scan_bytes_per_query"] = (
            sum(s.data[1] for s in evaluations) / max(1, len(evaluations)),
            "bytes",
        )
        out["service.relationship_us.p50"] = (
            p50("service.relationship", READ_PHASES) * 1e3,
            "us",
        )
        out["service.xml_ms.p50"] = (p50("service.xml", READ_PHASES), "ms")

        pauses = [
            (pause, generation)
            for phase, pause, generation in self.gc_pauses
            if phase in MEASURED
        ]
        out["runtime.gc_pause_ms_total"] = (
            sum(pause for pause, _ in pauses) / 1e6,
            "ms",
        )
        out["runtime.gc_gen2_collections"] = (
            sum(1 for _, generation in pauses if generation == 2),
            "count",
        )
        lags = [
            (r.sent - r.due) * 1e3
            for r in record.requests
            if r.phase == "open"
        ]
        out["loadgen.lag_ms.p50"] = (percentile(lags, 0.5), "ms")
        out["loadgen.lag_ms.p99"] = (percentile(lags, 0.99), "ms")
        out["loadgen.late_share"] = (
            sum(1 for lag in lags if lag > 1.0) / max(1, len(lags)),
            "share",
        )

        write_ms, read_ms = spans.self_ms()
        for layer in LAYERS[:-1]:
            out[f"self.{layer}_ms_per_write"] = (
                write_ms[layer] / max(1, writes),
                "ms",
            )
        out["self.query_ms_per_read"] = (
            read_ms["query"] / max(1, reads),
            "ms",
        )
        return out

    def _service_metrics(self, record, spans, untraced_write_p50_ms) -> dict:
        """Queue wait, batch and ack of open-loop writes, and how much of
        their latency those three spans cover.

        A batch's publish point is the end of its ``capture``: the batch
        span runs on past it, through the deferred checkpoint, which the
        next batch's requests wait for in the queue.
        """
        published = {}
        for batch in spans.of(BATCH, MEASURED):
            captures = [
                child
                for child in spans.children(batch)
                if child.name == "labeling.capture"
            ]
            if captures:
                published[id(batch)] = captures[-1].end
        queue_wait, ack, covered, latency = [], [], [], []
        for request in record.of("open", "write"):
            trace = self.requests.get(request.op_index)
            if trace is None or id(trace.batch) not in published:
                continue
            publish = published[id(trace.batch)]
            queue_wait.append((trace.batch.start - trace.submitted) / 1e6)
            ack.append((trace.resolved - publish) / 1e6)
            covered.append((trace.resolved - trace.submitted) / 1e6)
            latency.append(request.latency * 1e3)
        batches = [
            batch
            for batch in spans.of(BATCH, {"open"})
            if id(batch) in published
        ]
        batch_ms = [(published[id(b)] - b.start) / 1e6 for b in batches]
        traced_p50 = percentile(latency, 0.5)
        return {
            "service.queue_wait_ms.p50": (percentile(queue_wait, 0.5), "ms"),
            "service.queue_wait_ms.p99": (percentile(queue_wait, 0.99), "ms"),
            "service.batch_ms.p50": (percentile(batch_ms, 0.5), "ms"),
            "service.batch_ms.p99": (percentile(batch_ms, 0.99), "ms"),
            "service.commits_per_batch": (
                sum(len(b.data) for b in batches) / max(1, len(batches)),
                "ratio",
            ),
            "service.ack_ms.p50": (percentile(ack, 0.5), "ms"),
            "trace.unaccounted_share": (
                1.0 - statistics.median(covered) / traced_p50
                if covered
                else 0.0,
                "share",
            ),
            "trace.overhead_share": (
                traced_p50 / untraced_write_p50_ms - 1.0
                if untraced_write_p50_ms
                else 0.0,
                "share",
            ),
        }


class _SpanIndex:
    """Spans by name and by parent, for computing the metrics."""

    def __init__(self, spans: "list[Span]") -> None:
        self.spans = spans
        self._named: dict[str, list[Span]] = {}
        self._children: dict[int, list[Span]] = {}
        for span in spans:
            self._named.setdefault(span.name, []).append(span)
            if span.parent is not None:
                self._children.setdefault(id(span.parent), []).append(span)

    def of(self, name: str, phases) -> "list[Span]":
        return [s for s in self._named.get(name, ()) if s.phase in phases]

    def ms(self, name: str, phases) -> "list[float]":
        return [span.ms for span in self.of(name, phases)]

    def children(self, span: Span) -> "list[Span]":
        return self._children.get(id(span), [])

    def self_ms(self) -> "tuple[dict[str, float], dict[str, float]]":
        """Each layer's self time (its spans minus their children), in
        ms, on the write path (spans under ``submit`` or a batch, in the
        measured phases) and on the read path (spans under a read call,
        in every phase with reads)."""
        write_ns = dict.fromkeys(LAYERS, 0)
        read_ns = dict.fromkeys(LAYERS, 0)
        for span in self.spans:
            root = span
            while root.parent is not None:
                root = root.parent
            if root.name in READ_CALLS:
                if span.phase not in READ_PHASES:
                    continue
                totals = read_ns
            elif span.phase in MEASURED:
                totals = write_ns
            else:
                continue
            inner = sum(c.end - c.start for c in self.children(span))
            totals[span.layer] += span.end - span.start - inner
        return (
            {layer: ns / 1e6 for layer, ns in write_ns.items()},
            {layer: ns / 1e6 for layer, ns in read_ns.items()},
        )


def _keep(attribute):
    """An ``after`` hook that stores one attribute of the result."""

    def keep(span, args, result) -> None:
        span.data = getattr(result, attribute)

    return keep
