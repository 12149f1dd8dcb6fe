"""The fabric coordinator: a durable, lease-based cell queue.

The coordinator owns everything the pool engine's dispatch loop owns —
which cells remain, which attempt each is on, when a failure retries —
but across process boundaries and through its own death:

* **Durable queue** — the cell set, fingerprints and per-cell outcomes
  live in a :class:`~repro.store.RunStore` run directory.  Every
  finalized cell is appended to the checkpoint log *before* the journal
  records its terminal event, so the checkpoint stays the source of
  truth and a crash between the two writes is healed on restart (the
  journal terminal is re-emitted, flagged ``resumed``).
* **Leases, not assignments** — a granted cell belongs to its worker
  only while heartbeats renew the monotonic-deadline lease
  (:mod:`repro.fabric.leases`).  The periodic tick re-queues expired
  leases within the retry budget, with the shared jittered backoff
  (:class:`~repro.sim.retrypolicy.BackoffPolicy`).
* **Crash-proof restart** — ``resume=True`` reloads ``ok`` *and*
  ``failed`` cells from the checkpoint (both are terminal for the
  fabric: re-running a terminally failed cell would double its journal
  terminal), replays the journal for accounting, journals an ``expire``
  for every grant that died with the previous coordinator, and serves
  only the rest.  Fingerprint dedup makes any worker-side re-execution
  idempotent.
* **At-most-one live lease per cell; exactly one terminal event** — a
  late result from a stalled worker whose cell was re-leased is either
  the first terminal (accepted; the newer lease is released unused) or
  a journaled ``duplicate`` (ignored).

The TCP layer is deliberately thin: a threaded accept loop reads one
sealed line, calls :meth:`Coordinator.handle` under the state lock and
writes one sealed line back.  Tests drive :meth:`handle` directly.
"""

from __future__ import annotations

import socketserver
import threading
import time
from collections import deque
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.exceptions import ConfigurationError, ProtocolError
from repro.model.machine import MulticoreMachine
from repro.sim.parallel import (
    EntryTable,
    GridCell,
    assemble_sweep,
    checkpoint_payload,
    grid_cell_fingerprint,
    order_sweep_grid,
)
from repro.sim.results import ExperimentResult, SweepResult
from repro.sim.retrypolicy import BackoffPolicy
from repro.sim.runner import reset_fallback_warnings
from repro.sim.sweep import Entry
from repro.sim.telemetry import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    CellRecord,
    FabricStats,
    RunManifest,
)
from repro.store.checkpoint import CheckpointWriter
from repro.store.rundir import (
    STATUS_COMPLETE,
    STATUS_INCOMPLETE,
    STATUS_RUNNING,
    RunStore,
)
from repro.store.serde import machine_to_dict, result_from_dict
from repro.fabric.journal import (
    EVENT_DUPLICATE,
    EVENT_EXPIRE,
    EVENT_GRANT,
    EVENT_RETRY,
    EVENT_START,
    EVENT_STOP,
    EVENT_TERMINAL,
    FabricJournal,
    JournalReplay,
    load_journal,
)
from repro.fabric.leases import LeaseTable
from repro.fabric.protocol import encode_line, error_reply, read_message

#: How long an idle worker is told to wait before asking again when
#: every remaining cell is leased or backing off.
_DEFAULT_WAIT_S = 0.5


class Coordinator:
    """Serve one sweep's cells over leases until every cell is terminal."""

    def __init__(
        self,
        *,
        variable: str,
        xs: Sequence[Any],
        labels: Sequence[str],
        cells: Sequence[GridCell],
        machine: MulticoreMachine,
        entries: EntryTable,
        run_dir: Union[str, Path],
        resume: bool = False,
        lease_s: float = 15.0,
        retries: int = 2,
        backoff: float = 0.1,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if lease_s <= 0:
            raise ConfigurationError(f"lease_s must be positive, got {lease_s}")
        self.variable = variable
        self.xs = list(xs)
        self.labels = list(labels)
        self.cells = list(cells)
        self.machine = machine
        self.entries = entries
        self.store = RunStore(run_dir)
        self.resume = resume
        self.lease_s = lease_s
        self.retries = retries
        self.backoff = backoff
        self.backoff_policy = BackoffPolicy(base_s=backoff)
        self.host = host
        self.port = port
        self.clock = clock

        self.records: Dict[Tuple[str, int], CellRecord] = {}
        self.fingerprints: Dict[Tuple[str, int], str] = {}
        self.fp_to_key: Dict[str, Tuple[str, int]] = {}
        self.dims: Dict[Tuple[str, int], Tuple[int, int, int]] = {}
        for cell in self.cells:
            label, index, m, n, z = cell
            key = (label, index)
            self.records[key] = CellRecord(
                label=label, index=index, x=self.xs[index], status=STATUS_SKIPPED
            )
            self.dims[key] = (m, n, z)
            fp = grid_cell_fingerprint(entries, machine, variable, self.xs, cell)
            self.fingerprints[key] = fp
            self.fp_to_key[fp] = key
        self.results: Dict[Tuple[str, int], ExperimentResult] = {}
        self.outstanding: Set[Tuple[str, int]] = set(self.records)
        #: Next attempt number to grant, per cell.
        self.attempts: Dict[Tuple[str, int], int] = {
            key: 1 for key in self.records
        }
        self.pending: Deque[Tuple[str, int]] = deque(
            sorted(self.records, key=lambda k: (k[0], k[1]))
        )
        #: Cells waiting out a backoff: (monotonic ready time, key).
        self.delayed: List[Tuple[float, Tuple[str, int]]] = []
        self.leases = LeaseTable(lease_s, clock=clock)

        self.manifest = RunManifest(
            variable=variable,
            xs=self.xs,
            workers=0,
            cell_timeout_s=None,
            retries=retries,
            backoff_s=backoff,
            chunksize=1,
            fabric=FabricStats(),
        )
        self.workers_seen: Set[str] = set()
        self.workers_lost: Set[str] = set()

        self.writer: Optional[CheckpointWriter] = None
        self.journal: Optional[FabricJournal] = None
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._stop_ticker = threading.Event()
        self._server: Optional["_FabricServer"] = None
        self._server_thread: Optional[threading.Thread] = None
        self._ticker_thread: Optional[threading.Thread] = None
        self._started_at = 0.0

    @property
    def fabric(self) -> FabricStats:
        stats = self.manifest.fabric
        assert stats is not None
        return stats

    # -- lifecycle ------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Open the store, restore state, start serving; returns (host, port)."""
        self._started_at = time.perf_counter()
        self._prepare_store()
        with self._lock:
            if not self.outstanding:
                self._done.set()
        server = _FabricServer((self.host, self.port), self)
        self._server = server
        self.port = server.server_address[1]
        self._server_thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="fabric-coordinator",
            daemon=True,
        )
        self._server_thread.start()
        self._ticker_thread = threading.Thread(
            target=self._ticker, name="fabric-ticker", daemon=True
        )
        self._ticker_thread.start()
        return (self.host, self.port)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every cell is terminal; ``True`` when done."""
        return self._done.wait(timeout)

    def abort(self, reason: str) -> None:
        """Give up on every unfinished cell (recorded as ``skipped``)."""
        with self._lock:
            for key in sorted(self.outstanding):
                record = self.records[key]
                record.status = STATUS_SKIPPED
                if record.error_type is None:
                    record.error_type = "Aborted"
                record.error = reason
                self.outstanding.discard(key)
                self._checkpoint(key, STATUS_SKIPPED)
                self._journal_terminal(key, STATUS_SKIPPED)
            self.pending.clear()
            self.delayed = []
            self._done.set()

    def finish(self) -> SweepResult:
        """Stop serving, finalize the run directory, assemble the result.

        Unfinished cells (the coordinator was asked to stop early) are
        aborted first, so the manifest always accounts for every cell.
        """
        if self.outstanding:
            self.abort("coordinator stopped before the cell ran")
        self._stop_ticker.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._server_thread is not None:
            self._server_thread.join(timeout=5.0)
            self._server_thread = None
        if self._ticker_thread is not None:
            self._ticker_thread.join(timeout=5.0)
            self._ticker_thread = None
        with self._lock:
            self.manifest.elapsed_s = time.perf_counter() - self._started_at
            self.manifest.workers = len(self.workers_seen)
            self.fabric.workers_seen = len(self.workers_seen)
            self.fabric.workers_lost = len(self.workers_lost)
            if self.journal is not None:
                self.journal.event(
                    EVENT_STOP,
                    complete=not any(
                        r.status != STATUS_OK for r in self.records.values()
                    ),
                )
                self.journal.close()
                self.journal = None
            if self.writer is not None:
                self.writer.close()
                self.writer = None
            sweep = assemble_sweep(
                self.variable, self.xs, self.labels, self.results, self.records,
                self.manifest,
            )
            counts = self.manifest.counts()
            self.manifest.write(self.store.manifest_path)
            if counts[STATUS_FAILED] or counts[STATUS_SKIPPED]:
                status = STATUS_INCOMPLETE
            else:
                status = STATUS_COMPLETE
            self.store.update_meta(
                status=status,
                cell_counts=counts,
                resumed_cells=self.manifest.resumed_cells,
                elapsed_s=round(self.manifest.elapsed_s, 6),
            )
        return sweep

    def _ticker(self) -> None:
        period = min(self.lease_s / 4.0, 0.25)
        while not self._stop_ticker.wait(period):
            self.tick()

    def tick(self) -> None:
        """Expire lapsed leases and requeue their cells (thread-safe)."""
        with self._lock:
            self._expire_leases()

    # -- store ----------------------------------------------------------
    def _prepare_store(self) -> None:
        config = {
            "variable": self.variable,
            "xs": self.xs,
            "labels": self.labels,
            "engine": {
                "workers": 0,
                "cell_timeout_s": None,
                "retries": self.retries,
                "backoff_s": self.backoff,
                "chunksize": 1,
            },
            "fabric": {"lease_s": self.lease_s},
        }
        resumed = False
        if self.resume and self.store.exists():
            meta = self.store.load_meta() or {}
            self.store.update_meta(
                status=STATUS_RUNNING,
                resumes=int(meta.get("resumes", 0)) + 1,
                **config,
            )
            resumed = True
        else:
            self.store.initialize(config)
        replay = load_journal(self.store.journal_path) if resumed else None
        if resumed:
            self._restore_from_checkpoint()
        # Opening the journal writer repairs any torn tail left by a
        # SIGKILL'd predecessor before new events are appended.
        self.journal = FabricJournal(self.store.journal_path)
        self.writer = self.store.checkpoint_writer()
        self.journal.event(EVENT_START, resumed=resumed, cells=len(self.records))
        if replay is not None:
            self._restore_from_journal(replay)

    def _restore_from_checkpoint(self) -> None:
        """Reload terminal (``ok`` *and* ``failed``) cells from the log.

        The pool engine re-runs failed cells on resume; the fabric does
        not — a failed cell already spent its retry budget, and
        re-opening it would emit a second terminal journal event for
        the same fingerprint, breaking the exactly-once invariant the
        chaos tests assert.
        """
        loaded = self.store.load_checkpoint()
        self.manifest.quarantined_records = len(loaded.quarantined)
        for key, fp in self.fingerprints.items():
            record = loaded.records.get(fp)
            if record is None:
                continue
            status = record.get("status")
            cell = self.records[key]
            if status == STATUS_OK:
                try:
                    result: ExperimentResult = result_from_dict(record["result"])
                except (KeyError, TypeError, ValueError):
                    self.manifest.quarantined_records += 1
                    continue
                cell.status = STATUS_OK
                cell.attempts = result.attempts
                cell.wall_s = float(record.get("wall_s", 0.0))
                cell.worker = result.worker
                cell.resumed = True
                cell.engine_fallback = result.engine_fallback
                self.results[key] = result
            elif status == STATUS_FAILED:
                cell.status = STATUS_FAILED
                cell.attempts = int(record.get("attempts", 0))
                cell.wall_s = float(record.get("wall_s", 0.0))
                error_type = record.get("error_type")
                cell.error_type = str(error_type) if error_type is not None else None
                error = record.get("error")
                cell.error = str(error) if error is not None else None
                cell.resumed = True
            else:
                continue
            self.outstanding.discard(key)
            self.pending = deque(k for k in self.pending if k != key)
            self.manifest.resumed_cells += 1

    def _restore_from_journal(self, replay: JournalReplay) -> None:
        """Reconcile the journal with the restored checkpoint state.

        * Counters (grants/expiries/retries/duplicates) carry over, so
          the final manifest tells the whole run's story, not just the
          last incarnation's.
        * A restored terminal cell missing its journal terminal (the
          predecessor died between the checkpoint append and the
          journal append) gets it now, flagged ``resumed``.
        * A journaled grant with no terminal was in flight when the
          predecessor died: its lease died too — journal the expiry and
          charge the attempt, exactly as if the lease had lapsed.
        """
        assert self.journal is not None
        stats = self.fabric
        stats.leases_granted += replay.grants
        stats.expired_leases += replay.expired
        stats.retried_failures += replay.retries
        stats.duplicate_results += replay.duplicates
        for key in sorted(self.records):
            fp = self.fingerprints[key]
            record = self.records[key]
            if record.resumed and fp not in replay.terminal_events:
                self._journal_terminal(key, record.status, resumed=True)
        for fp in sorted(replay.open_grants):
            key = self.fp_to_key.get(fp)
            if key is None or key not in self.outstanding:
                continue
            attempt = max(replay.granted_attempts.get(fp, 1), 1)
            self.journal.event(
                EVENT_EXPIRE,
                fp,
                worker="",
                attempt=attempt,
                reason="coordinator-restart",
            )
            stats.expired_leases += 1
            self._charge_lost_attempt(key, attempt, "LeaseExpired",
                                      "lease died with the previous coordinator")

    def _checkpoint(
        self,
        key: Tuple[str, int],
        status: str,
        *,
        result: Optional[ExperimentResult] = None,
    ) -> None:
        """Flush one finalized cell to the checkpoint log (durable on return)."""
        if self.writer is not None:
            self.writer.append(
                checkpoint_payload(
                    self.fingerprints[key], self.records[key], status, result
                )
            )

    def _journal_terminal(
        self, key: Tuple[str, int], status: str, *, resumed: bool = False
    ) -> None:
        if self.journal is None:
            return
        record = self.records[key]
        fields: Dict[str, Any] = {"status": status, "attempts": record.attempts}
        if resumed:
            fields["resumed"] = True
        self.journal.event(EVENT_TERMINAL, self.fingerprints[key], **fields)

    # -- queue mechanics (call with the lock held) ----------------------
    def _promote_delayed(self) -> None:
        now = self.clock()
        due = [key for ready, key in self.delayed if ready <= now]
        self.delayed = [(ready, key) for ready, key in self.delayed if ready > now]
        for key in due:
            self.pending.append(key)

    def _next_servable(self) -> Optional[Tuple[str, int]]:
        self._promote_delayed()
        while self.pending:
            key = self.pending.popleft()
            if key in self.outstanding and self.leases.get(self.fingerprints[key]) is None:
                return key
        return None

    def _charge_lost_attempt(
        self, key: Tuple[str, int], attempt: int, error_type: str, error: str
    ) -> None:
        """A granted attempt vanished (expiry/restart): retry or fail."""
        record = self.records[key]
        record.attempts = max(record.attempts, attempt)
        record.error_type = error_type
        record.error = error
        if attempt <= self.retries:
            self.attempts[key] = attempt + 1
            delay = self.backoff_policy.delay(attempt, key=f"{key[0]}:{key[1]}")
            self.delayed.append((self.clock() + delay, key))
        else:
            record.status = STATUS_FAILED
            self.outstanding.discard(key)
            self._checkpoint(key, STATUS_FAILED)
            self._journal_terminal(key, STATUS_FAILED)
            self._check_done()

    def _expire_leases(self) -> None:
        for lease in self.leases.pop_expired():
            self.fabric.expired_leases += 1
            self.workers_lost.add(lease.worker)
            if self.journal is not None:
                self.journal.event(
                    EVENT_EXPIRE,
                    lease.fp,
                    worker=lease.worker,
                    attempt=lease.attempt,
                    reason="lease-expired",
                )
            key = lease.key
            if key in self.outstanding:
                self._charge_lost_attempt(
                    key,
                    lease.attempt,
                    "LeaseExpired",
                    f"worker {lease.worker!r} stopped heartbeating "
                    f"(lease of {self.lease_s:.3g}s lapsed)",
                )

    def _check_done(self) -> None:
        if not self.outstanding:
            self._done.set()

    # -- protocol handling ----------------------------------------------
    def handle(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Process one request message; returns the reply message."""
        kind = message.get("type")
        with self._lock:
            worker = message.get("worker")
            if isinstance(worker, str) and worker:
                self.workers_seen.add(worker)
            if kind == "lease":
                return self._handle_lease(message)
            if kind == "heartbeat":
                return self._handle_heartbeat(message)
            if kind == "result":
                return self._handle_result(message)
            if kind == "status":
                return self._handle_status()
        return error_reply(f"unknown message type {kind!r}")

    def _handle_lease(self, message: Dict[str, Any]) -> Dict[str, Any]:
        worker = message.get("worker")
        if not isinstance(worker, str) or not worker:
            return error_reply("lease request without a worker id")
        if not self.outstanding:
            return {"type": "drained"}
        key = self._next_servable()
        if key is None:
            return {"type": "wait", "delay_s": self._wait_hint()}
        attempt = self.attempts[key]
        fp = self.fingerprints[key]
        # Journal the grant *before* the lease exists: a coordinator
        # killed between the two leaves a journaled open grant, which a
        # restart expires and requeues — never a silently lost cell.
        if self.journal is not None:
            self.journal.event(EVENT_GRANT, fp, worker=worker, attempt=attempt)
        self.leases.grant(key, fp, worker, attempt)
        self.fabric.leases_granted += 1
        algorithm, setting, kwargs = self.entries[key[0]]
        m, n, z = self.dims[key]
        return {
            "type": "grant",
            "fp": fp,
            "attempt": attempt,
            "lease_s": self.lease_s,
            # Workers sharing the coordinator's filesystem memmap
            # compiled traces from the run dir instead of recompiling
            # per process; remote workers see a nonexistent run dir and
            # ignore the hint.
            "trace_tier": str(self.store.root / "traces"),
            "cell": {
                "label": key[0],
                "index": key[1],
                "variable": self.variable,
                "x": self.xs[key[1]],
                "algorithm": algorithm,
                "setting": setting,
                "kwargs": dict(kwargs),
                "machine": machine_to_dict(self.machine),
                "m": m,
                "n": n,
                "z": z,
            },
        }

    def _wait_hint(self) -> float:
        """How long an idle worker should wait before asking again."""
        hint = min(self.lease_s / 4.0, _DEFAULT_WAIT_S)
        if self.delayed:
            now = self.clock()
            next_ready = min(ready for ready, _key in self.delayed)
            hint = min(hint, max(0.05, next_ready - now))
        return hint

    def _handle_heartbeat(self, message: Dict[str, Any]) -> Dict[str, Any]:
        worker = message.get("worker")
        fp = message.get("fp")
        if not isinstance(worker, str) or not isinstance(fp, str):
            return error_reply("heartbeat without worker id and cell fingerprint")
        self.fabric.heartbeats += 1
        renewed = self.leases.renew(fp, worker)
        return {"type": "ack", "renewed": renewed}

    def _handle_result(self, message: Dict[str, Any]) -> Dict[str, Any]:
        worker = message.get("worker")
        fp = message.get("fp")
        if not isinstance(worker, str) or not isinstance(fp, str):
            return error_reply("result without worker id and cell fingerprint")
        key = self.fp_to_key.get(fp)
        if key is None:
            return error_reply(f"result for unknown cell {fp[:12]}…")
        attempt = message.get("attempt")
        if not isinstance(attempt, int) or attempt < 1:
            return error_reply("result without a valid attempt number")
        if key not in self.outstanding:
            # The cell was finalized while this worker dawdled (its
            # lease expired and someone else finished it, or it double-
            # submitted).  Dedup makes the duplicate harmless.
            self.fabric.duplicate_results += 1
            if self.journal is not None:
                self.journal.event(
                    EVENT_DUPLICATE, fp, worker=worker, attempt=attempt
                )
            return {"type": "duplicate", "remaining": len(self.outstanding)}
        # Whoever holds the lease, this result finalizes the attempt:
        # release the (possibly re-granted) lease so expiry never fires
        # for a cell that already reported.
        self.leases.release(fp)
        self.fabric.results_accepted += 1
        record = self.records[key]
        wall = float(message.get("wall_s", 0.0))
        pid = message.get("pid")
        record.wall_s += wall
        record.attempts = max(record.attempts, attempt)
        if isinstance(pid, int):
            record.worker = pid
            self.manifest.record_execution(pid, wall)
        if message.get("ok"):
            try:
                result: ExperimentResult = result_from_dict(message["result"])
            except (KeyError, TypeError, ValueError) as exc:
                return self._accept_failure(
                    key, attempt, "CorruptResult",
                    f"result payload did not deserialize: {exc}", True,
                )
            result.attempts = max(result.attempts, attempt)
            record.status = STATUS_OK
            record.error_type = None
            record.error = None
            record.engine_fallback = result.engine_fallback
            self.results[key] = result
            self.outstanding.discard(key)
            self._checkpoint(key, STATUS_OK, result=result)
            self._journal_terminal(key, STATUS_OK)
            self._check_done()
            return {"type": "accepted", "remaining": len(self.outstanding)}
        error_type = str(message.get("error_type", "Error"))
        error = str(message.get("error", ""))
        retryable = bool(message.get("retryable", True))
        return self._accept_failure(key, attempt, error_type, error, retryable)

    def _accept_failure(
        self,
        key: Tuple[str, int],
        attempt: int,
        error_type: str,
        error: str,
        retryable: bool,
    ) -> Dict[str, Any]:
        record = self.records[key]
        record.error_type = error_type
        record.error = error
        if retryable and attempt <= self.retries:
            self.attempts[key] = attempt + 1
            delay = self.backoff_policy.delay(attempt, key=f"{key[0]}:{key[1]}")
            self.delayed.append((self.clock() + delay, key))
            self.fabric.retried_failures += 1
            if self.journal is not None:
                self.journal.event(
                    EVENT_RETRY,
                    self.fingerprints[key],
                    attempt=attempt,
                    error_type=error_type,
                )
            return {
                "type": "accepted",
                "retrying": True,
                "remaining": len(self.outstanding),
            }
        record.status = STATUS_FAILED
        self.outstanding.discard(key)
        self._checkpoint(key, STATUS_FAILED)
        self._journal_terminal(key, STATUS_FAILED)
        self._check_done()
        return {
            "type": "accepted",
            "retrying": False,
            "remaining": len(self.outstanding),
        }

    def _handle_status(self) -> Dict[str, Any]:
        counts = self.manifest.counts()
        return {
            "type": "status",
            "outstanding": len(self.outstanding),
            "leased": len(self.leases),
            "pending": len(self.pending),
            "delayed": len(self.delayed),
            "done": self._done.is_set(),
            "counts": counts,
            "fabric": self.fabric.to_dict(),
        }


class _FabricHandler(socketserver.StreamRequestHandler):
    """One request, one reply, close — the whole TCP surface."""

    server: "_FabricServer"

    def handle(self) -> None:
        try:
            message = read_message(self.rfile)
        except ProtocolError as exc:
            self.wfile.write(encode_line(error_reply(str(exc))))
            return
        except OSError:
            return
        try:
            reply = self.server.coordinator.handle(message)
        except Exception as exc:  # noqa: BLE001 — a bad request must not kill the server
            reply = error_reply(f"{type(exc).__name__}: {exc}")
        try:
            self.wfile.write(encode_line(reply))
        except OSError:
            # The requester vanished before reading the reply; for a
            # result message the cell is already finalized and the
            # worker's re-submission will be deduplicated.
            return


class _FabricServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], coordinator: Coordinator) -> None:
        self.coordinator = coordinator
        super().__init__(address, _FabricHandler)


def fabric_order_sweep(
    entries: Iterable[Entry],
    machine: MulticoreMachine,
    orders: Sequence[int],
    *,
    run_dir: Union[str, Path],
    resume: bool = False,
    check: bool = False,
    inclusive: bool = False,
    policy: str = "lru",
    engine: str = "step",
    strict_engine: bool = False,
    lease_s: float = 15.0,
    retries: int = 2,
    backoff: float = 0.1,
    host: str = "127.0.0.1",
    port: int = 0,
) -> Coordinator:
    """Build (but do not start) a coordinator for an order sweep.

    The cell grid is :func:`repro.sim.parallel.parallel_order_sweep`'s
    (:func:`~repro.sim.parallel.order_sweep_grid`) — same labels,
    fingerprints and checkpoint payloads — so a fabric run directory
    can be inspected, verified and even resumed by the pool engine, and
    vice versa.
    """
    reset_fallback_warnings()
    labels, table, cells = order_sweep_grid(
        entries,
        orders,
        check=check,
        inclusive=inclusive,
        policy=policy,
        engine=engine,
        strict_engine=strict_engine,
    )
    return Coordinator(
        variable="order",
        xs=list(orders),
        labels=labels,
        cells=cells,
        machine=machine,
        entries=table,
        run_dir=run_dir,
        resume=resume,
        lease_s=lease_s,
        retries=retries,
        backoff=backoff,
        host=host,
        port=port,
    )
