"""End-to-end fabric runs: real coordinator, real worker subprocesses.

The chaos tests here are the acceptance teeth of the fabric: workers
are SIGKILLed mid-cell (``die`` faults), a worker goes live-but-silent
(``stall``), and the coordinator itself is SIGKILLed and restarted —
and every surviving run must be bit-identical to the serial sweep with
every cell exactly once in the journal.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.fabric.coordinator import fabric_order_sweep
from repro.fabric.journal import load_journal
from repro.fabric.local import run_local_fabric, spawn_worker
from repro.fabric.protocol import encode_line, read_message
from repro.fabric.worker import EXIT_COORDINATOR_LOST, FabricWorker
from repro.model.machine import MulticoreMachine
from repro.sim.faults import FaultSpec, dump_fault_plan
from repro.sim.parallel import parallel_order_sweep
from repro.sim.sweep import order_sweep
from repro.store import RunStore, result_from_dict
from repro.store.serde import machine_to_dict

MACHINE = MulticoreMachine(p=4, cs=100, cd=21, q=8)
ENTRIES = [("shared-opt", "ideal"), ("outer-product", "lru")]


def assert_matches_serial(sweep, serial):
    for label in serial.labels():
        assert sweep.values(label, "ms") == serial.values(label, "ms")
        assert sweep.values(label, "md") == serial.values(label, "md")
        for fpoint, spoint in zip(sweep.series[label], serial.series[label]):
            assert fpoint.stats == spoint.stats
            assert fpoint.comp == spoint.comp


class TestLocalFabric:
    def test_matches_serial_exactly(self, tmp_path):
        serial = order_sweep(ENTRIES, MACHINE, [4, 6])
        sweep = run_local_fabric(
            ENTRIES,
            MACHINE,
            [4, 6],
            run_dir=tmp_path / "run",
            workers=2,
            lease_s=5.0,
        )
        assert sweep.complete
        assert_matches_serial(sweep, serial)
        replay = load_journal(RunStore(tmp_path / "run").journal_path)
        assert replay.exactly_once()
        assert len(replay.terminal) == 4
        stats = sweep.manifest.fabric
        assert stats.workers_seen >= 1
        assert stats.results_accepted == 4

    def test_die_faults_survived_by_respawns(self, tmp_path):
        """Two workers SIGKILL themselves mid-cell; the babysitter
        respawns, the leases expire and requeue, and the finished run
        is indistinguishable from a calm one."""
        serial = order_sweep(ENTRIES, MACHINE, [4, 6])
        plan_path = tmp_path / "faults.json"
        dump_fault_plan(
            {
                ("shared-opt ideal", 0): FaultSpec(kind="die", fail_attempts=1),
                ("outer-product lru", 1): FaultSpec(kind="die", fail_attempts=1),
            },
            plan_path,
        )
        sweep = run_local_fabric(
            ENTRIES,
            MACHINE,
            [4, 6],
            run_dir=tmp_path / "run",
            workers=2,
            lease_s=1.0,
            backoff=0.05,
            retries=2,
            fault_plan_path=plan_path,
        )
        assert sweep.complete, [
            (r.label, r.index, r.error_type, r.error) for r in sweep.failures
        ]
        assert_matches_serial(sweep, serial)
        stats = sweep.manifest.fabric
        # Each die cost its worker: the lease had to expire.
        assert stats.expired_leases >= 2
        assert stats.workers_lost >= 1
        replay = load_journal(RunStore(tmp_path / "run").journal_path)
        assert replay.exactly_once()
        assert len(replay.terminal) == 4
        assert all(status == "ok" for status in replay.terminal.values())

    def test_stall_fault_expires_and_requeues(self, tmp_path):
        """A live-but-silent worker: heartbeats suppressed, the cell
        sleeps past the lease.  The cell must be re-leased, and the
        stalled worker's eventual submission deduplicated (or accepted
        first — either way exactly one terminal)."""
        serial = order_sweep([("shared-opt", "ideal")], MACHINE, [4, 6])
        plan_path = tmp_path / "faults.json"
        dump_fault_plan(
            {
                ("shared-opt ideal", 0): FaultSpec(
                    kind="stall", fail_attempts=1, stall_s=3.0
                ),
            },
            plan_path,
        )
        sweep = run_local_fabric(
            [("shared-opt", "ideal")],
            MACHINE,
            [4, 6],
            run_dir=tmp_path / "run",
            workers=2,
            lease_s=0.75,
            backoff=0.05,
            retries=2,
            fault_plan_path=plan_path,
        )
        assert sweep.complete, [
            (r.label, r.index, r.error_type, r.error) for r in sweep.failures
        ]
        assert_matches_serial(sweep, serial)
        stats = sweep.manifest.fabric
        assert stats.expired_leases >= 1  # requeued within one lease period
        replay = load_journal(RunStore(tmp_path / "run").journal_path)
        assert replay.exactly_once()
        assert replay.expired >= 1


class TestWorkerDegradation:
    def _grant_for(self, fp="f" * 64, label="shared-opt ideal"):
        return {
            "type": "grant",
            "fp": fp,
            "attempt": 1,
            "lease_s": 30.0,
            "cell": {
                "label": label,
                "index": 0,
                "variable": "order",
                "x": 4,
                "algorithm": "shared-opt",
                "setting": "ideal",
                "kwargs": {},
                "machine": machine_to_dict(MACHINE),
                "m": 4,
                "n": 4,
                "z": 4,
            },
        }

    def test_coordinator_loss_salvages_and_exits_75(self, tmp_path):
        """The coordinator dies while a cell is in flight: the worker
        finishes the computation, flushes it to the salvage log, and
        exits with the distinct tempfail code."""
        server = socket.create_server(("127.0.0.1", 0))
        address = server.getsockname()
        grant = self._grant_for()

        def serve_one_grant_then_die():
            conn, _addr = server.accept()
            with conn, conn.makefile("rb") as fh:
                read_message(fh)
                conn.sendall(encode_line(grant))
            server.close()  # the "coordinator" is now gone

        threading.Thread(target=serve_one_grant_then_die, daemon=True).start()
        worker = FabricWorker(
            address,
            worker_id="w1",
            scratch=tmp_path / "scratch",
            request_timeout_s=1.0,
        )
        assert worker.run() == EXIT_COORDINATOR_LOST
        salvage = tmp_path / "scratch" / "salvage-w1.jsonl"
        assert salvage.exists()
        from repro.store import load_checkpoint

        loaded = load_checkpoint(salvage)
        record = loaded.records[grant["fp"]]
        assert record["status"] == "ok"
        # The salvage uses the standard checkpoint payload: the result
        # deserializes with the normal tools.
        result = result_from_dict(record["result"])
        assert result.algorithm == "shared-opt"

    def test_unreachable_coordinator_exits_75_without_work(self, tmp_path):
        sock = socket.create_server(("127.0.0.1", 0))
        address = sock.getsockname()
        sock.close()
        worker = FabricWorker(address, worker_id="w1", connect_grace_s=0.3)
        assert worker.run() == EXIT_COORDINATOR_LOST


def _wait_for(predicate, timeout_s=30.0, period=0.1):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(period)
    return False


class TestCoordinatorChaos:
    def test_sigkill_coordinator_and_restart(self, tmp_path):
        """The acceptance chaos scenario: die-fault workers (>= 2 worker
        SIGKILLs), a SIGKILLed coordinator, a resumed coordinator — and
        a final run bit-identical to serial with every cell exactly
        once in the journal."""
        # CI points REPRO_FABRIC_CHAOS_DIR at a workspace path so the
        # run directory (checkpoint + custody journal) survives as a
        # build artifact.
        run_dir = Path(
            os.environ.get("REPRO_FABRIC_CHAOS_DIR", str(tmp_path / "run"))
        )
        orders = [4, 6, 8]
        # `fabric serve` applies one --setting to every algorithm, so the
        # serial baseline must do the same.
        entries = [("shared-opt", "ideal"), ("outer-product", "ideal")]
        serial = order_sweep(entries, MACHINE, orders)
        plan_path = tmp_path / "faults.json"
        dump_fault_plan(
            {
                ("shared-opt ideal", 1): FaultSpec(kind="die", fail_attempts=1),
                ("outer-product ideal", 2): FaultSpec(kind="die", fail_attempts=1),
            },
            plan_path,
        )

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        serve_command = [
            sys.executable, "-m", "repro", "fabric", "serve",
            "--cores", "4", "--cs", "100", "--cd", "21", "--q", "8",
            "shared-opt", "outer-product",
            "--orders", *[str(o) for o in orders],
            "--setting", "ideal",
            "--run-dir", str(run_dir),
            "--lease", "1.0", "--backoff", "0.05", "--retries", "3",
        ]

        def read_port(proc):
            line = proc.stderr.readline().decode()
            assert "serving on" in line, line
            return int(line.rsplit(":", 1)[1])

        def babysit(procs, port, budget, until):
            spawned = len(procs)
            while not until():
                for worker_id in sorted(procs):
                    proc = procs[worker_id]
                    code = proc.poll()
                    if code is None or code == 0:
                        continue
                    del procs[worker_id]
                    if budget > 0:
                        budget -= 1
                        spawned += 1
                        replacement = f"w{spawned}"
                        procs[replacement] = spawn_worker(
                            "127.0.0.1", port,
                            worker_id=replacement,
                            scratch=tmp_path / "scratch" / replacement,
                            fault_plan_path=plan_path,
                        )
                time.sleep(0.1)
            return procs

        # -- phase 1: serve, inject worker deaths, SIGKILL the coordinator
        coordinator = subprocess.Popen(
            serve_command, env=env, stderr=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
        )
        workers = {}
        try:
            port = read_port(coordinator)
            for worker_id in ("w1", "w2"):
                workers[worker_id] = spawn_worker(
                    "127.0.0.1", port,
                    worker_id=worker_id,
                    scratch=tmp_path / "scratch" / worker_id,
                    fault_plan_path=plan_path,
                )
            checkpoint = RunStore(run_dir).checkpoint_path

            def some_progress():
                return checkpoint.exists() and checkpoint.stat().st_size > 0

            workers = babysit(workers, port, budget=6, until=some_progress)
            assert some_progress(), "no cell ever completed in phase 1"
            coordinator.send_signal(signal.SIGKILL)
            coordinator.wait(timeout=10)
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.wait()
        # Orphaned workers finish in flight, fail to submit, and exit
        # on their own (0 = drained earlier, 75 = coordinator lost).
        for proc in workers.values():
            try:
                code = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
            assert code in (0, EXIT_COORDINATOR_LOST, -signal.SIGKILL)

        meta = RunStore(run_dir).load_meta()
        assert meta["status"] == "running"  # the kill really was unclean

        # -- phase 2: restart the coordinator against the same run dir
        coordinator = subprocess.Popen(
            serve_command + ["--resume"], env=env, stderr=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
        )
        workers = {}
        try:
            port = read_port(coordinator)
            for worker_id in ("r1", "r2"):
                workers[worker_id] = spawn_worker(
                    "127.0.0.1", port,
                    worker_id=worker_id,
                    scratch=tmp_path / "scratch" / worker_id,
                    fault_plan_path=plan_path,
                )
            workers = babysit(
                workers, port, budget=6,
                until=lambda: coordinator.poll() is not None,
            )
            assert coordinator.wait(timeout=60) == 0
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
            coordinator.wait()
            for proc in workers.values():
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()

        # -- the verdicts
        store = RunStore(run_dir)
        meta = store.load_meta()
        assert meta["status"] == "complete"
        assert meta["resumes"] == 1

        # Every cell exactly once in the journal, across both lives.
        replay = load_journal(store.journal_path)
        assert replay.exactly_once()
        assert len(replay.terminal) == len(entries) * len(orders)
        assert all(s == "ok" for s in replay.terminal.values())

        # Bit-identical to the serial sweep.
        loaded = store.load_checkpoint()
        by_cell = {}
        for record in loaded.ok_records().values():
            by_cell[(record["label"], record["index"])] = result_from_dict(
                record["result"]
            )
        for label in serial.labels():
            for index, expected in enumerate(serial.series[label]):
                actual = by_cell[(label, index)]
                assert actual.stats == expected.stats
                assert actual.comp == expected.comp
                assert actual.ms == expected.ms
                assert actual.md == expected.md

        # The manifest's fabric telemetry recorded the turbulence.
        manifest = json.loads(store.manifest_path.read_text())
        assert manifest["fabric"]["expired_leases"] >= 1

        # And the audit agrees nothing was lost.
        audit = store.audit()
        assert audit.ok, audit.errors


class TestPoolInterop:
    """The pool engine and the fabric share one cell grid and fingerprint
    helper, so each resumes the other's completed run dir untouched."""

    ENTRIES = [("shared-opt", "ideal"), ("distributed-opt", "ideal")]
    ORDERS = [4, 6]

    def assert_all_resumed(self, sweep):
        assert sweep.complete
        assert sweep.manifest.resumed_cells == 4
        assert all(cell.resumed for cell in sweep.manifest.cells)
        assert_matches_serial(sweep, order_sweep(self.ENTRIES, MACHINE, self.ORDERS))

    def test_fabric_resumes_pool_run_dir(self, tmp_path):
        run_dir = tmp_path / "run"
        pool = parallel_order_sweep(
            self.ENTRIES, MACHINE, self.ORDERS, workers=1, run_dir=run_dir
        )
        assert pool.complete
        sweep = run_local_fabric(
            self.ENTRIES, MACHINE, self.ORDERS, run_dir=run_dir, workers=1,
            resume=True,
        )
        self.assert_all_resumed(sweep)
        assert sweep.manifest.fabric.leases_granted == 0

    def test_pool_resumes_fabric_run_dir(self, tmp_path):
        run_dir = tmp_path / "run"
        fabric = run_local_fabric(
            self.ENTRIES, MACHINE, self.ORDERS, run_dir=run_dir, workers=1
        )
        assert fabric.complete
        sweep = parallel_order_sweep(
            self.ENTRIES, MACHINE, self.ORDERS, workers=1, run_dir=run_dir,
            resume=True,
        )
        self.assert_all_resumed(sweep)
        assert sweep.manifest.worker_stats == []


class TestFabricCLI:
    def test_local_serve_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "fabric", "serve",
                "--cores", "4", "--cs", "100", "--cd", "21", "--q", "8",
                "shared-opt",
                "--orders", "4", "6",
                "--setting", "ideal",
                "--run-dir", str(tmp_path / "run"),
                "--local", "2",
                "--lease", "5.0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "MS" in captured.out
        assert "fabric: 2 ok" in captured.err
        # The run dir is inspectable with the standard tools.
        assert main(["runs", "verify", str(tmp_path / "run")]) == 0
        verify_out = capsys.readouterr().out
        assert "journal:" in verify_out
        assert ": ok" in verify_out

    def test_worker_rejects_bad_connect(self, capsys):
        from repro.cli import main

        assert main(["fabric", "worker", "--connect", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_serve_rejects_zero_local_workers(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "fabric", "serve", "shared-opt",
                "--run-dir", str(tmp_path / "run"),
                "--local", "0",
            ]
        )
        assert code == 2
