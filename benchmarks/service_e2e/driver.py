"""Drive one workload through an in-process ``DocumentService``.

One :class:`WorkloadRun` is one pass of a workload: set the document up
a few times (``setup_s``), run the open loop, run the closed-loop
saturation phase, read the final document, close the service and
recover the closed WAL directory a few times (``recover_s``).  Every
output is checked on the way: ack LSNs against submit order, read
versions against the acked version, sampled reads and the final XML
against the oracle, the recovered document against the live one, and
``repro.verify`` over both.
"""

from __future__ import annotations

import gc
import itertools
import random
import resource
import shutil
import statistics
import threading
import time
from collections import deque
from concurrent import futures
from dataclasses import dataclass, field
from pathlib import Path

import repro.wal as wal_module
from repro.errors import ReproError
from repro.query import TABLE3_QUERIES
from repro.service import DocumentService, ServiceConfig
from repro.verify import verify_integrity
from repro.xmltree import parse_document
from repro.xmltree.serializer import serialize_document

from .oracle import OracleProcess, xml_digest
from .stats import percentile, tail
from .workloads import (
    OPEN_SHARE,
    SCHEME,
    SCRIPT_RATE,
    WINDOW,
    WORKLOADS,
    Workload,
    seed_xml,
)

__all__ = ["READ_KINDS", "Request", "RunRecord", "WorkloadRun"]

#: The read mix, kind -> weight.  Exact proportions (not random draws)
#: keep each run's mix identical.  The weights put both reported
#: percentiles inside one kind's mode rather than in a gap between two
#: kinds, where they would jump from run to run: on Hamlet the median
#: read is a Q1, and the slowest kind, Q6 (2% of reads), holds p99 at
#: its own median.
READ_MIX = {
    "Q1": 8,
    "Q2": 6,
    "Q3": 6,
    "Q4": 10,
    "Q5": 10,
    "Q6": 1,
    "relationship": 6,
    "xml": 3,
}
READ_KINDS = tuple(
    kind for kind, weight in READ_MIX.items() for _ in range(weight)
)
DOC_ID = "doc"
#: Every this-many-th read is kept as a sample for the oracle.
SAMPLE_EVERY = 25
#: Reads of the final document on workloads whose open loop has none.
PROBE_READS = 1000
#: Seconds over which the probe and the recovery repetitions are spread.
POST_SECONDS = 5.0
#: A request sent more than this late counts in ``loadgen.late_share``.
LATE_SECONDS = 0.001
#: Repetitions of a short measurement: at least MIN_REPS, and more
#: until SETUP_SECONDS (set-up) or POST_SECONDS (recovery) have passed
#: or MAX_REPS are done.
MIN_REPS = 5
MAX_REPS = 200
SETUP_SECONDS = 3.0
#: Records the closed log holds past its last checkpoint, so every
#: run's recovery replays the same number (under the 64-commit policy).
RECOVERY_RECORDS = 32
#: Script ops kept back from the saturation phase for the writes that
#: bring the log to RECOVERY_RECORDS (at most 63 of them).
TAIL_RESERVE = 64
#: Seconds to wait for the last acks of a phase.
DRAIN_TIMEOUT = 120.0


@dataclass(slots=True)
class Request:
    """One request of a measured phase; times are ``perf_counter`` s."""

    kind: str
    due: float
    phase: str
    op_index: int = -1
    args: tuple = ()
    sent: float = 0.0
    done: float = 0.0
    error: "str | None" = None

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class RunRecord:
    """Everything one pass measured, for computing the metrics."""

    workload: Workload
    requests: "list[Request]" = field(default_factory=list)
    setup_seconds: "list[float]" = field(default_factory=list)
    recover_seconds: "list[float]" = field(default_factory=list)
    replayed_records: int = 0
    capacity_per_s: float = 0.0
    bytes_written: int = 0
    writes_acked: int = 0
    problems: "list[str]" = field(default_factory=list)

    def of(self, phase: str, kinds: str) -> "list[Request]":
        """Requests of ``phase``; ``kinds`` is ``"write"`` or ``"read"``."""
        want_write = kinds == "write"
        return [
            request
            for request in self.requests
            if request.phase == phase
            and (request.kind == "write") == want_write
        ]

    @property
    def failures(self) -> "dict[str, int]":
        counts: dict[str, int] = {}
        for request in self.requests:
            if request.error is not None:
                counts[request.error] = counts.get(request.error, 0) + 1
        return counts

    def end_to_end(self) -> "dict[str, tuple[float, str]]":
        """The end-to-end metrics, name -> (value, unit)."""
        writes = [r.latency * 1e3 for r in self.of("open", "write")]
        read_phase = "open" if self.workload.read_share > 0 else "probe"
        reads = [r.latency * 1e3 for r in self.of(read_phase, "read")]
        attempted = len(self.requests)
        failed = sum(self.failures.values())
        return {
            "setup_s": (statistics.median(self.setup_seconds), "s"),
            "write_p50_ms": (percentile(writes, 0.5), "ms"),
            "write_p99_ms": (tail(writes), "ms"),
            "read_p50_ms": (percentile(reads, 0.5), "ms"),
            "read_p99_ms": (tail(reads), "ms"),
            "write_capacity_per_s": (self.capacity_per_s, "writes/s"),
            "success_ratio": ((attempted - failed) / attempted, "share"),
            "recover_s": (statistics.median(self.recover_seconds), "s"),
            "bytes_written_per_write": (
                self.bytes_written / max(1, self.writes_acked),
                "bytes",
            ),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MiB",
            ),
        }


def _bytes_written() -> int:
    """Bytes this process has handed to ``write`` so far (``wchar``)."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def _repeat(action) -> "list[float]":
    """Time ``action`` (it returns its own duration) MIN_REPS or more
    times, running at most half the time, until SETUP_SECONDS have
    passed or MAX_REPS are done.  Idle gaps spread the repetitions over
    more stretches of the host's speed than back-to-back runs would."""
    durations: list[float] = []
    start = time.perf_counter()
    while len(durations) < MIN_REPS or (
        time.perf_counter() - start < SETUP_SECONDS
        and len(durations) < MAX_REPS
    ):
        gc.collect()
        duration = action(len(durations))
        durations.append(duration)
        time.sleep(duration)
    return durations


class WorkloadRun:
    """One pass of one workload.

    Args:
        workload: the workload name (a key of ``WORKLOADS``).
        seed: seeds the op script, the request mix and read arguments.
        seconds: measured seconds (open loop plus saturation).
        work_dir: where WAL directories live; emptied afterwards.
        tracer: optional :class:`~.tracer.Tracer`; the pass tells it
            which phase is running and hands it the op script.
    """

    def __init__(self, workload, seed, seconds, work_dir, tracer=None):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work_dir = Path(work_dir)
        self.tracer = tracer
        self.record = RunRecord(self.workload)
        self.samples: list[dict] = []
        self._sample_counter = itertools.count()
        self._service: "DocumentService | None" = None
        self._ops: list[dict] = []
        self._pending: deque = deque()
        self._next_write = 0
        self._write_number = 0
        self._write_turn = threading.Condition()

    # -- the pass ----------------------------------------------------------

    def execute(self) -> RunRecord:
        workload = self.workload
        open_seconds = self.seconds * OPEN_SHARE
        saturate_seconds = self.seconds - open_seconds
        xml = seed_xml()
        seed_nodes = parse_document(xml).node_count()
        rng = random.Random(f"{workload.name}:{self.seed}:requests")
        schedule = self._schedule(
            rng, round(workload.rate * open_seconds), seed_nodes
        )
        budget = (
            sum(1 for r in schedule if r.kind == "write")
            + int(saturate_seconds * SCRIPT_RATE)
            + TAIL_RESERVE
        )
        self.work_dir.mkdir(parents=True, exist_ok=True)
        with OracleProcess() as oracle:
            self._ops = oracle.script(workload.name, self.seed, budget)
            if self.tracer is not None:
                self.tracer.bind_script(self._ops)
            # The script and schedule live as long as the pass; keep them
            # out of the collections the service's own garbage triggers.
            gc.collect()
            gc.freeze()
            try:
                self._setup(xml)
                before = _bytes_written()
                self._phase("open")
                self._open_loop(schedule)
                self._phase("saturate")
                self._saturate(saturate_seconds, rng, seed_nodes)
                self.record.bytes_written = _bytes_written() - before
                self.record.writes_acked = sum(
                    1
                    for r in self.record.requests
                    if r.kind == "write" and r.error is None
                )
                self._phase("final")
                self._align_log()
                final_xml, wal_dir = self._finish()
                if self._check_recovery(wal_dir, final_xml):
                    self._after_close(rng, seed_nodes, wal_dir)
                self._phase(None)
                expected, mismatches = oracle.check(
                    self._next_write, self.samples
                )
            finally:
                gc.unfreeze()
                self._phase(None)
                if self._service is not None:
                    self._service.close()
                    self._service = None
                shutil.rmtree(self.work_dir, ignore_errors=True)
        self.record.problems.extend(f"oracle: {m}" for m in mismatches)
        if expected != final_xml:
            self.record.problems.append(
                "final served XML differs from the oracle's"
            )
        return self.record

    def _phase(self, name) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    # -- set-up --------------------------------------------------------------

    def _setup(self, xml: str) -> None:
        """Create the document MIN_REPS+ times; keep the last one."""

        def create(rep: int) -> float:
            if self._service is not None:
                self._service.close()
                self._service = None
                shutil.rmtree(self.work_dir / f"setup-{rep - 1}")
            service = DocumentService(
                ServiceConfig(root_dir=str(self.work_dir / f"setup-{rep}"))
            )
            start = time.perf_counter()
            service.create_document(xml, SCHEME, doc_id=DOC_ID)
            elapsed = time.perf_counter() - start
            self._service = service
            return elapsed

        self._phase("setup")
        self.record.setup_seconds = _repeat(create)
        gc.collect()

    def _schedule(self, rng, count: int, seed_nodes: int) -> "list[Request]":
        """``count`` open-loop requests: exactly ``read_share`` of them
        reads, in the exact READ_MIX proportions, shuffled."""
        workload = self.workload
        reads = round(count * workload.read_share)
        kinds = ["write"] * (count - reads) + [
            READ_KINDS[number % len(READ_KINDS)] for number in range(reads)
        ]
        rng.shuffle(kinds)
        return [
            Request("write", index / workload.rate, "open")
            if kind == "write"
            else self._read_request(
                rng, seed_nodes, index / workload.rate, "open", kind
            )
            for index, kind in enumerate(kinds)
        ]

    @staticmethod
    def _read_request(rng, seed_nodes, due, phase, kind) -> Request:
        args = ()
        if kind == "relationship":
            # The node count stays within 10% of the seed, so these
            # positions exist in every version.
            limit = int(seed_nodes * 0.9)
            args = (rng.randrange(limit), rng.randrange(limit))
        return Request(kind, due, phase, args=args)

    # -- requests ------------------------------------------------------------

    def _submit_write(self, request: Request) -> None:
        """Submit the next script op; the ack callback stamps ``done``."""
        index = self._next_write
        self._next_write += 1
        request.op_index = index
        request.sent = time.perf_counter()
        try:
            future = self._service.submit(DOC_ID, self._ops[index])
        except ReproError as error:
            request.done = time.perf_counter()
            request.error = type(error).__name__
            return

        def acked(done_future, request=request, lsn=index + 1) -> None:
            request.done = time.perf_counter()
            error = done_future.exception()
            if error is not None:
                request.error = type(error).__name__
                return
            ack = done_future.result()
            if ack["lsn"] != lsn or ack["version"] < lsn:
                self.record.problems.append(
                    f"write {lsn - 1} acked as lsn {ack['lsn']} at version "
                    f"{ack['version']}; submit order is lsn order"
                )

        future.add_done_callback(acked)
        self._pending.append(future)

    def _read(self, request: Request) -> None:
        service = self._service
        kind = request.kind
        request.sent = time.perf_counter()
        try:
            if kind == "xml":
                version, result = service.xml(DOC_ID)
            elif kind == "relationship":
                result = service.relationship(DOC_ID, *request.args)
                version = result["version"]
            else:
                result = service.query(DOC_ID, TABLE3_QUERIES[kind])
                version = result["version"]
        except ReproError as error:
            request.done = time.perf_counter()
            request.error = type(error).__name__
            return
        request.done = time.perf_counter()
        acked = service.status(DOC_ID)["acked_version"]
        if version > acked:
            self.record.problems.append(
                f"{kind} read saw version {version} ahead of acked {acked}"
            )
        if next(self._sample_counter) % SAMPLE_EVERY == 0:
            self.samples.append(_sample(kind, version, request.args, result))

    # -- phases --------------------------------------------------------------

    def _open_loop(self, schedule: "list[Request]") -> None:
        """Send each request when due, from ``workload.threads`` threads."""
        self.record.requests.extend(schedule)
        writes = iter(r for r in schedule if r.kind == "write")
        turn = {id(request): number for number, request in enumerate(writes)}
        threads = self.workload.threads
        start = time.perf_counter() + 0.01
        for request in schedule:
            request.due += start
        failures: list[BaseException] = []

        def generate(lane: int) -> None:
            try:
                for request in schedule[lane::threads]:
                    delay = request.due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    if request.kind != "write":
                        self._read(request)
                        continue
                    # Writes leave in script order whichever lane
                    # carries them: op k must meet version k.
                    with self._write_turn:
                        self._write_turn.wait_for(
                            lambda: failures
                            or self._write_number == turn[id(request)]
                        )
                        if failures:
                            return
                        self._submit_write(request)
                        self._write_number += 1
                        self._write_turn.notify_all()
            except BaseException as error:
                failures.append(error)
                with self._write_turn:
                    self._write_turn.notify_all()
                raise

        workers = [
            threading.Thread(
                target=generate, args=(lane,), name=f"lane-{lane}"
            )
            for lane in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        if failures:
            raise RuntimeError("a load-generator lane failed") from failures[0]
        self._drain()

    def _drain(self) -> None:
        """Wait for every pending ack (the ack callbacks record errors)."""
        pending = list(self._pending)
        self._pending.clear()
        _, not_done = futures.wait(pending, timeout=DRAIN_TIMEOUT)
        if not_done:
            raise RuntimeError(f"{len(not_done)} writes never acked")

    def _saturate(self, seconds: float, rng, seed_nodes: int) -> None:
        """Closed loop: keep ``window`` writes in flight for ``seconds``.

        On a workload with reads, ``threads`` reader threads keep
        issuing reads in a closed loop alongside, so the capacity is
        the writer's under read contention.
        """
        workload = self.workload
        stop = threading.Event()
        readers = []
        reader_requests: "list[list[Request]]" = []
        if workload.read_share > 0:
            for lane in range(workload.threads):
                lane_rng = random.Random(f"{workload.name}:{self.seed}:{lane}")
                done: list[Request] = []
                reader_requests.append(done)
                readers.append(
                    threading.Thread(
                        target=self._read_until,
                        args=(stop, lane_rng, seed_nodes, done),
                        name=f"reader-{lane}",
                    )
                )
        writes: list[Request] = []
        start = time.perf_counter()
        deadline = start + seconds
        for reader in readers:
            reader.start()
        try:
            while self._next_write < len(self._ops) - TAIL_RESERVE:
                now = time.perf_counter()
                if now >= deadline:
                    break
                while (
                    len(self._pending) < WINDOW
                    and self._next_write < len(self._ops) - TAIL_RESERVE
                ):
                    request = Request("write", now, "saturate")
                    writes.append(request)
                    self._submit_write(request)
                oldest = self._pending.popleft()
                if futures.wait([oldest], timeout=DRAIN_TIMEOUT).not_done:
                    raise RuntimeError("a write never acked")
            self._drain()
        finally:
            stop.set()
            for reader in readers:
                reader.join()
        acked = [r for r in writes if r.error is None]
        last = max((r.done for r in acked), default=start)
        self.record.capacity_per_s = len(acked) / max(last - start, 1e-9)
        self.record.requests.extend(writes)
        for done in reader_requests:
            self.record.requests.extend(done)

    def _read_until(self, stop, rng, seed_nodes, out: "list[Request]") -> None:
        while not stop.is_set():
            request = self._read_request(
                rng,
                seed_nodes,
                time.perf_counter(),
                "saturate",
                READ_KINDS[len(out) % len(READ_KINDS)],
            )
            self._read(request)
            out.append(request)

    def _align_log(self) -> None:
        """Write one op at a time until the log holds exactly
        RECOVERY_RECORDS records past its last checkpoint.

        Where the last checkpoint falls depends on batch timing, so
        without this the records ``recover`` replays (0 to 63) would
        vary from run to run and move ``recover_s`` with them.
        """
        wal = self._service.registry.get(DOC_ID).engine.wal
        while self._settled_records(wal) != RECOVERY_RECORDS:
            request = Request("write", time.perf_counter(), "final")
            self.record.requests.append(request)
            self._submit_write(request)
            self._drain()

    @staticmethod
    def _settled_records(wal) -> int:
        """Records past the last checkpoint, once a due checkpoint (the
        writer runs it after a batch's acks) has finished."""
        while (
            wal.commits_since_checkpoint >= wal.checkpoint_every_commits
            or wal.bytes_since_checkpoint >= wal.checkpoint_every_bytes
        ):
            time.sleep(0.001)
        return wal.commits_since_checkpoint

    # -- checks --------------------------------------------------------------

    def _finish(self) -> "tuple[str, Path]":
        """Read the final document, check it, close the service."""
        service = self._service
        record = self.record
        version, final_xml = service.xml(DOC_ID)
        if version != self._next_write:
            record.problems.append(
                f"final version {version} after {self._next_write} writes"
            )
        self.samples.append(
            {
                "kind": "xml",
                "version": version,
                "sha256": xml_digest(final_xml),
            }
        )
        for query in TABLE3_QUERIES:
            result = service.query(DOC_ID, TABLE3_QUERIES[query])
            self.samples.append(
                _sample(query, result["version"], (), result)
            )
        handle = service.registry.get(DOC_ID)
        engine = handle.engine
        violations = verify_integrity(engine.labeled, engine.store)
        if violations:
            record.problems.append(
                f"repro.verify: {len(violations)} violations on the live "
                f"document, first {violations[0]}"
            )
        # Closing stops the writer; the last view still serves reads.
        service.close()
        gc.collect()
        return final_xml, handle.wal_dir

    def _check_recovery(self, wal_dir: Path, final_xml: str) -> bool:
        """Recover once and compare with the live document."""
        record = self.record
        try:
            report = wal_module.recover(wal_dir)
        except ReproError as error:
            record.problems.append(f"recovery failed: {error!r}")
            return False
        record.replayed_records = report.replayed
        if serialize_document(report.labeled.document) != final_xml:
            record.problems.append(
                "recovered document differs from the live one"
            )
        if verify_integrity(report.labeled):
            record.problems.append(
                "repro.verify: violations on the recovered document"
            )
        return True

    def _after_close(self, rng, seed_nodes: int, wal_dir: Path) -> None:
        """Recovery repetitions and, on workloads without open-loop
        reads, the read probe, interleaved over POST_SECONDS.

        Spreading both over the same window, instead of running them
        back to back, samples more stretches of the host's speed.
        Recovery runs at most half the time: after a repetition of
        ``d`` seconds the next waits at least ``d``.
        """
        record = self.record
        probe = PROBE_READS if self.workload.read_share == 0 else 0
        start = time.perf_counter()
        reads = 0
        next_recover = start
        while True:
            now = time.perf_counter()
            recovering = len(record.recover_seconds) < MIN_REPS or (
                now - start < POST_SECONDS
                and len(record.recover_seconds) < MAX_REPS
            )
            if reads >= probe and not recovering:
                return
            read_due = (
                start + reads * POST_SECONDS / probe
                if reads < probe
                else float("inf")
            )
            due = min(read_due, next_recover if recovering else float("inf"))
            if due > now:
                time.sleep(due - now)
            if due == read_due:
                self._phase("probe")
                request = self._read_request(
                    rng,
                    seed_nodes,
                    time.perf_counter(),
                    "probe",
                    READ_KINDS[reads % len(READ_KINDS)],
                )
                self._read(request)
                record.requests.append(request)
                reads += 1
                continue
            self._phase("recover")
            gc.collect()
            began = time.perf_counter()
            wal_module.recover(wal_dir)
            ended = time.perf_counter()
            record.recover_seconds.append(ended - began)
            next_recover = max(
                ended + (ended - began),
                start + len(record.recover_seconds) * POST_SECONDS / MAX_REPS,
            )


def _sample(kind: str, version: int, args: tuple, result) -> dict:
    if kind == "xml":
        return {
            "kind": "xml",
            "version": version,
            "sha256": xml_digest(result),
        }
    if kind == "relationship":
        names = ("ancestor", "descendant", "parent", "child", "sibling")
        return {
            "kind": "relationship",
            "version": version,
            "first": args[0],
            "second": args[1],
            "answer": {name: result[name] for name in names},
        }
    return {
        "kind": "query",
        "version": version,
        "query": kind,
        "positions": [match["position"] for match in result["matches"]],
    }
