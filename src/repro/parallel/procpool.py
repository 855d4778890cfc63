"""A supervised process pool: crash-isolated shard evaluation.

The thread backend of :mod:`repro.parallel.pool` shares one address
space with the caller — cheap, but a worker that segfaults, gets
OOM-killed, or wedges in native code takes the whole service with it.
This module provides the ``"process"`` backend: a small, supervised pool
of worker *processes* to which shard work is shipped as picklable task
descriptors (:class:`ProcCall`), with bulk array payloads travelling
through :mod:`repro.parallel.shm` rather than pipes.

Supervision contract (what :class:`ProcPool.run` guarantees):

* **results in submission order, first error re-raised after the batch
  settles** — the same contract as :func:`repro.parallel.pool.run_tasks`,
  so the backends are drop-in interchangeable;
* **crash containment** — a worker dying mid-task (SIGKILL, OOM, hard
  exit) is detected via its process sentinel, the worker is respawned,
  and *only the lost task* is re-dispatched, with a fresh chaos sequence
  number; a bounded crash/retry budget converts persistent crash loops
  into one typed :class:`~repro.errors.WorkerCrashError` instead of a
  hang;
* **stall containment** — a worker that stops answering for longer than
  ``stall_timeout`` while holding a task is SIGKILLed and treated as a
  crash (the heartbeat is implicit: any task result is progress, and the
  supervisor wakes on ``connection.wait`` timeouts to check);
* **deadline propagation** — the caller's :class:`~repro.util.Deadline`
  bounds the whole batch; on expiry every checked-out busy worker is
  killed (it may be past listening) and
  :class:`~repro.errors.DeadlineExceededError` is raised;
* **admission control** — workers are *checked out* exclusively per
  request; when none are idle, :class:`~repro.errors.PoolExhaustedError`
  (with a ``retry_after`` hint) is raised instead of queueing unboundedly
  — :mod:`repro.serve` converts it into an
  :class:`~repro.errors.OverloadedError`.

Worker processes run :func:`_worker_main`: a recv/execute/send loop over
a dedicated duplex pipe.  One pipe per worker (never a shared queue) is
a deliberate choice: a SIGKILLed worker cannot die holding a shared
queue's internal lock, and ``multiprocessing.connection.wait`` over the
pipes *and* the process sentinels gives the supervisor a single blocking
point that wakes on results and deaths alike.

Fault injection plugs in via :class:`repro.util.faults.WorkerChaos`: the
pool ships the (picklable, seeded) schedule to every worker, each task
dispatch carries a global sequence number, and the worker consults the
schedule *before* executing — so chaos runs kill and stall real
processes deterministically per seed.

Workers never fork the caller.  The caller is usually a threaded
service, and a ``fork()`` copies every lock another thread holds at that
moment into the child already held.  Workers start instead from a
``"forkserver"``: a single-threaded server that imports the repro
modules a task needs once (:data:`_PRELOAD`) and forks each worker from
that clean, warm state, so a worker inherits no repro lock, pool handle,
metric value or shm table.  Where the platform has no forkserver, workers
start by ``"spawn"``.  A script that starts workers therefore needs the
``if __name__ == "__main__":`` guard, as with any spawned
``multiprocessing`` child.  Everything here is
observability-instrumented: ``parallel.proc.*`` counters count spawns,
respawns, crashes, retries, and tasks, and each batch runs under a
``parallel.proc.run`` trace span.
"""

from __future__ import annotations

import atexit
import importlib
import itertools
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mpconn

from repro import obs
from repro.errors import (
    DeadlineExceededError,
    ParallelError,
    PoolExhaustedError,
    WorkerCrashError,
)
from repro.util.budget import Deadline

__all__ = [
    "ProcCall",
    "ProcPool",
    "configure_pool",
    "get_pool",
    "pool_stats",
    "shutdown_pool",
]

#: how long (seconds) a dispatched task may go unanswered before the
#: supervisor declares the worker stalled and SIGKILLs it; generous by
#: default — shard folds answer in milliseconds, and chaos tests shrink it
_DEFAULT_STALL_TIMEOUT = 30.0

#: crashes tolerated within one `run` call before giving up with
#: :class:`WorkerCrashError`; respawns across a pool's lifetime are
#: unbounded (each crash inside a run draws from this per-run budget)
_DEFAULT_CRASH_TOLERANCE = 4

#: how many times one task may be re-dispatched after losing its worker
_DEFAULT_TASK_RETRIES = 2

#: the modules a worker task imports, loaded once by the forkserver so
#: every worker it forks starts warm
_PRELOAD = ["repro.parallel.procpool", "repro.parallel.api"]


def _worker_context():
    """The ``multiprocessing`` context every pool worker starts from: a
    forkserver preloaded with :data:`_PRELOAD`, or ``spawn`` where the
    platform has none (see the module docstring)."""
    import multiprocessing

    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    ctx = multiprocessing.get_context("forkserver")
    ctx.set_forkserver_preload(_PRELOAD)
    return ctx


# ----------------------------------------------------------------------
# task descriptors
# ----------------------------------------------------------------------
_FN_CACHE: dict[str, object] = {}


def _resolve(path: str):
    """``"package.module:function"`` → the function, cached per process."""
    fn = _FN_CACHE.get(path)
    if fn is None:
        module_name, _, attr = path.partition(":")
        if not module_name or not attr:
            raise ParallelError(f"malformed task path {path!r}")
        fn = getattr(importlib.import_module(module_name), attr)
        _FN_CACHE[path] = fn
    return fn


@dataclass(frozen=True)
class ProcCall:
    """A picklable unit of work: ``module:function`` plus arguments.

    Closures cannot cross a process boundary, so the process backend
    ships *names*: the worker resolves ``fn`` by import (cached) and
    applies it.  Instances are also directly callable, so any ProcCall
    can be executed inline — the degradation paths rely on that to rerun
    the identical work on the thread or serial backend.

    ``trace`` optionally carries the request's
    :class:`~repro.obs.context.TraceContext` (see ``obs.child_context``):
    the worker activates it for the task's duration so its spans stitch
    under the dispatching span.  It is ignored by ``__call__`` — inline
    re-execution on the thread backend already runs inside the caller's
    context.
    """

    fn: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    trace: object = None

    def __call__(self):
        return _resolve(self.fn)(*self.args, **self.kwargs)


# built-in tasks (supervisor tests and smoke lanes)
def _task_echo(value):
    return value


def _task_pid():
    return os.getpid()


def _task_sleep_ms(milliseconds, value=None):
    time.sleep(milliseconds / 1000.0)
    return value


def _task_raise(message="injected task error", kind="parallel"):
    if kind == "parallel":
        raise ParallelError(message)
    raise RuntimeError(message)


def _task_exit(code=1):  # a *clean* hard exit, distinct from SIGKILL
    os._exit(code)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: worker-process obs state: the harvest baseline tracker plus the cached
#: flight-ring writer (swapped when a dispatch spec names a new ring)
_worker_obs = {"harvest": None, "flight": None}


def _apply_obs_spec(spec: dict | None) -> None:
    """Configure this worker's obs layer from a dispatch spec.

    The spec rides on every task message, so workers converge to the
    parent's current obs state on their next task — including after an
    ``obs.configure`` flip mid-pool-lifetime.  ``None`` means the parent
    has observability off: disable and drop the flight hook."""
    tracer = obs.tracer()
    if spec is None:
        if obs.enabled():
            obs.configure(enabled=False)
        tracer.record_hook = None
        writer = _worker_obs["flight"]
        if writer is not None:
            writer.close()
            _worker_obs["flight"] = None
        return
    tracer.process = f"w{spec['worker']}"
    tracer.set_epoch(spec["epoch"])
    tracer.keep_recent()
    sink = spec.get("sink")
    if sink is not None:
        per_worker = f"{sink}.w{os.getpid()}.jsonl"
        if tracer.sink_path != per_worker:
            tracer.set_sink(per_worker)
    elif tracer.sink_path is not None:
        tracer.set_sink(None)
    if _worker_obs["harvest"] is None:
        from repro.obs.harvest import HarvestState

        _worker_obs["harvest"] = HarvestState()
    ring_name = spec.get("flight")
    writer = _worker_obs["flight"]
    if writer is not None and (ring_name is None or writer.name != ring_name):
        writer.close()
        writer = _worker_obs["flight"] = None
    if ring_name is not None and writer is None:
        from repro.parallel.flight import FlightWriter

        try:
            writer = _worker_obs["flight"] = FlightWriter(ring_name)
        except Exception:  # ring unavailable; fly without the recorder
            writer = None
    tracer.record_hook = writer.write if writer is not None else None
    if not obs.enabled():
        obs.configure(enabled=True)


def _collect_harvest(worker_id: int) -> dict | None:
    """This worker's telemetry since the last harvest (or ``None``).

    Spans ride along only when the worker has no file sink of its own —
    with a per-worker JSONL sink the records are already on disk and the
    parent's re-ingest would duplicate them at stitch time."""
    if not obs.enabled():
        return None
    tracer = obs.tracer()
    if tracer._sink_file is not None:
        try:  # once per task, so the parent can stitch without waiting
            tracer._sink_file.flush()
        except Exception:  # pragma: no cover - sink gone; keep serving
            pass
    delta = _worker_obs["harvest"].collect(obs.metrics())
    spans = tracer.drain_recent() if tracer.sink_path is None else []
    if delta is None and not spans:
        return None
    return {"worker": worker_id, "pid": os.getpid(), "metrics": delta, "spans": spans}


def _shippable_error(exc: BaseException):
    """An exception object safe to send through the result pipe.

    Library errors round-trip through pickle almost always; the guard
    catches custom ``__init__`` signatures (and unpicklable payloads) by
    re-wrapping as a :class:`ParallelError` carrying type and message —
    typed for the caller either way."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ParallelError(f"worker task failed: {type(exc).__name__}: {exc}")


def _worker_main(conn, worker_id: int, chaos) -> None:
    """The worker loop: receive a task, (maybe) suffer chaos, execute,
    reply.  Runs until an ``("exit",)`` message or a closed pipe.

    Each task message carries an obs *spec* (or ``None``): the worker
    mirrors the parent's observability state, activates the call's
    :class:`~repro.obs.context.TraceContext`, records a ``proc.task.recv``
    event *before* consulting chaos (so a SIGKILL victim leaves evidence
    in its flight ring), and piggybacks a telemetry harvest on the reply."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "exit":
            break
        _, seq, call, spec = message
        _apply_obs_spec(spec)
        tracer = obs.tracer()
        previous_ctx = tracer.activate_context(getattr(call, "trace", None))
        if obs.enabled():
            tracer.event("proc.task.recv", seq=seq, fn=call.fn)
        if chaos is not None:
            chaos.apply(seq)
        try:
            with tracer.span("proc.task", seq=seq, fn=call.fn):
                payload = ("ok", seq, call())
        except BaseException as exc:  # ship it; the parent re-raises
            payload = ("err", seq, _shippable_error(exc))
        tracer.activate_context(previous_ctx)
        harvest = _collect_harvest(worker_id)
        try:
            conn.send(payload + (harvest,))
        except Exception:
            try:
                conn.send(
                    ("err", seq, ParallelError("worker result was unpicklable"), None)
                )
            except Exception:  # pragma: no cover - pipe gone; die quietly
                break
    try:
        conn.close()
    except Exception:  # pragma: no cover
        pass


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _Worker:
    """Parent-side handle: process + dedicated duplex pipe + bookkeeping."""

    __slots__ = ("process", "conn", "worker_id", "busy_seq", "dispatched_at")

    def __init__(self, process, conn, worker_id: int) -> None:
        self.process = process
        self.conn = conn
        self.worker_id = worker_id
        self.busy_seq: int | None = None  # task seq in flight, if any
        self.dispatched_at = 0.0

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        try:
            self.process.kill()
        except Exception:  # pragma: no cover - already gone
            pass
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except Exception:  # pragma: no cover
            pass


class ProcPool:
    """A fixed-size supervised pool of worker processes.

    Workers are spawned lazily on first use and owned exclusively by one
    :meth:`run` call at a time (the checkout model): concurrent callers
    split the idle set, and a caller finding no idle worker gets
    :class:`~repro.errors.PoolExhaustedError` immediately — backpressure
    belongs to the layer above, not to a hidden queue.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        chaos=None,
        stall_timeout: float = _DEFAULT_STALL_TIMEOUT,
        crash_tolerance: int = _DEFAULT_CRASH_TOLERANCE,
        task_retries: int = _DEFAULT_TASK_RETRIES,
    ) -> None:
        from repro.parallel.pool import default_workers

        self.workers = int(workers) if workers is not None else default_workers()
        if self.workers < 1:
            raise ParallelError(f"workers must be >= 1, got {self.workers}")
        self.chaos = chaos
        self.stall_timeout = float(stall_timeout)
        self.crash_tolerance = int(crash_tolerance)
        self.task_retries = int(task_retries)
        self._lock = threading.Lock()
        self._idle: list[_Worker] = []
        self._busy = 0  # workers currently checked out by run() calls
        self._spawned_total = 0
        self._closed = False
        self._task_seq = itertools.count()
        self._stats = {
            "spawned": 0,
            "respawned": 0,
            "crashes": 0,
            # crashes by cause; "crashes"/"stalls" above stay as the
            # legacy aggregates (deadline kills count only under their
            # typed key — the run raises DeadlineExceededError itself)
            "crash_sigkill": 0,
            "crash_stall": 0,
            "crash_deadline": 0,
            "crash_dead_at_dispatch": 0,
            "stalls": 0,
            "retries": 0,
            "tasks": 0,
            "runs": 0,
            "exhausted": 0,
            "harvests": 0,
        }
        # EWMA of run durations feeds PoolExhaustedError.retry_after
        self._mean_run_seconds = 0.05

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        ctx = _worker_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        with self._lock:
            self._spawned_total += 1
            worker_id = self._spawned_total
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, worker_id, self.chaos),
            name=f"repro-procpool-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent end alone keeps the pipe open
        self._bump("spawned")
        if obs.enabled():
            obs.metrics().counter("parallel.proc.spawned").inc()
        return _Worker(process, parent_conn, worker_id)

    def _checkout(self, want: int) -> list[_Worker]:
        """Claim up to *want* workers exclusively (spawning up to the pool
        size); zero idle capacity raises :class:`PoolExhaustedError`."""
        want = max(0, want)
        with self._lock:
            if self._closed:
                raise ParallelError("process pool is shut down")
            # idle deaths (e.g. chaos killed a worker between runs) free
            # capacity rather than shrinking the pool permanently
            self._idle = [w for w in self._idle if w.alive()]
            checked_out = self._idle[:want]
            del self._idle[:want]
            headroom = (
                self.workers - self._busy - len(self._idle) - len(checked_out)
            )
            to_spawn = min(max(0, want - len(checked_out)), max(0, headroom))
            self._busy += len(checked_out) + to_spawn
        claimed = len(checked_out)
        try:
            for _ in range(to_spawn):
                checked_out.append(self._spawn())
        except Exception as exc:
            # a failed fork/spawn must not strand the claim: release the
            # reservation held for workers never spawned, then check the
            # already-claimed (and successfully spawned) ones back in so
            # pool capacity survives the failure intact
            with self._lock:
                self._busy -= to_spawn - (len(checked_out) - claimed)
            self._checkin(checked_out)
            raise ParallelError(
                f"failed to spawn a process-pool worker: {exc}"
            ) from exc
        if not checked_out:
            retry_after = self._mean_run_seconds
            self._bump("exhausted")
            if obs.enabled():
                obs.metrics().counter("parallel.proc.exhausted").inc()
            raise PoolExhaustedError(
                f"all {self.workers} process-pool workers are busy",
                retry_after=retry_after,
            )
        return checked_out

    def _checkin(self, workers: list[_Worker]) -> None:
        with self._lock:
            self._busy -= len(workers)
            if self._closed:
                doomed = list(workers)
            else:
                alive = [w for w in workers if w.alive() and w.busy_seq is None]
                doomed = [w for w in workers if w not in alive]
                self._idle.extend(alive)
        for worker in doomed:
            worker.kill()

    def shutdown(self) -> None:
        """Stop every worker (idle ones politely, then hard).  Idempotent."""
        with self._lock:
            self._closed = True
            workers, self._idle = self._idle, []
        for worker in workers:
            try:
                worker.conn.send(("exit",))
            except Exception:
                pass
        deadline = time.monotonic() + 2.0
        for worker in workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.kill()
            else:
                try:
                    worker.conn.close()
                except Exception:  # pragma: no cover
                    pass
        with self._lock:
            self._closed = False  # pools are reusable after shutdown

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _bump(self, key: str, by: int = 1) -> None:
        with self._lock:
            self._stats[key] += by

    def stats(self) -> dict:
        with self._lock:
            snapshot = dict(self._stats)
            snapshot["idle"] = len(self._idle)
            snapshot["size"] = self.workers
        return snapshot

    # ------------------------------------------------------------------
    # the supervised batch
    # ------------------------------------------------------------------
    def run(self, calls, *, deadline: Deadline | None = None) -> list:
        """Execute *calls* (:class:`ProcCall` instances), results in order.

        The batch settles completely before any error is raised; the
        error with the smallest call index wins, matching
        :func:`repro.parallel.pool.run_tasks`.  After the first error no
        *new* tasks are dispatched (fail-fast), so a poisoned batch does
        not burn the remaining shards' work."""
        calls = list(calls)
        if not calls:
            return []
        for call in calls:
            if not isinstance(call, ProcCall):
                raise ParallelError(
                    f"process backend tasks must be ProcCall, got {type(call).__name__}"
                )
        start = time.monotonic()
        self._bump("runs")
        with obs.tracer().span(
            "parallel.proc.run", tasks=len(calls), workers=self.workers
        ):
            # flight rings are per-run: created lazily per dispatched
            # worker, salvaged on crash, unlinked with the registry when
            # the run ends (keeping the shm leak oracle clean)
            flight_registry = None
            if obs.enabled():
                from repro.parallel.shm import SegmentRegistry

                flight_registry = SegmentRegistry()
            flight_rings: dict[int, object] = {}
            team = self._checkout(min(len(calls), self.workers))
            try:
                results = self._supervise(
                    team, calls, deadline, flight_rings, flight_registry
                )
            finally:
                self._checkin(team)
                if flight_registry is not None:
                    flight_registry.close()
        elapsed = time.monotonic() - start
        self._mean_run_seconds = 0.8 * self._mean_run_seconds + 0.2 * elapsed
        return results

    def _obs_spec(self, worker: _Worker, flight_rings, flight_registry):
        """The obs block shipped with one dispatch (``None`` when off)."""
        if not obs.enabled():
            return None
        if worker.worker_id not in flight_rings and flight_registry is not None:
            from repro.parallel import flight

            try:
                flight_rings[worker.worker_id] = flight.create_ring(flight_registry)
            except Exception:  # no ring is a degraded recorder, not an error
                flight_rings[worker.worker_id] = None
        ring = flight_rings.get(worker.worker_id)
        tracer = obs.tracer()
        return {
            "worker": worker.worker_id,
            "epoch": tracer.epoch_ns,
            "sink": tracer.sink_path,
            "flight": ring.name if ring is not None else None,
        }

    def _fold_harvest(self, harvest) -> None:
        """Merge one worker's piggybacked telemetry into this process."""
        if not harvest:
            return
        self._bump("harvests")
        if not obs.enabled():  # worker raced a parent-side disable; drop
            return
        delta = harvest.get("metrics")
        if delta:
            obs.metrics().merge(delta, labels={"worker": harvest["worker"]})
        tracer = obs.tracer()
        for record in harvest.get("spans") or ():
            tracer.ingest(record)
        obs.metrics().counter("parallel.proc.harvests").inc()

    def _salvage_flight(self, worker: _Worker, flight_rings, cause: str) -> None:
        """A worker is being declared dead: recover its flight ring and
        emit the ``worker.crash`` event with its last-known activity."""
        if not obs.enabled():
            return
        obs.metrics().counter("parallel.proc.crashes." + cause).inc()
        ring = flight_rings.get(worker.worker_id)
        salvaged: list = []
        if ring is not None:
            from repro.parallel import flight

            salvaged = flight.salvage(ring)
        obs.tracer().event(
            "worker.crash",
            worker=worker.worker_id,
            pid=worker.process.pid,
            cause=cause,
            salvaged=salvaged,
        )

    def _supervise(
        self,
        team: list[_Worker],
        calls,
        deadline,
        flight_rings: dict | None = None,
        flight_registry=None,
    ) -> list:
        if flight_rings is None:
            flight_rings = {}
        pending = list(range(len(calls)))  # call indices not yet dispatched
        attempts = {index: 0 for index in pending}
        seq_to_index: dict[int, int] = {}
        results: dict[int, object] = {}
        errors: dict[int, BaseException] = {}
        crashes = 0
        settled = 0
        total = len(calls)

        def dispatch(worker: _Worker, index: int) -> None:
            seq = next(self._task_seq)
            seq_to_index[seq] = index
            worker.busy_seq = seq
            worker.dispatched_at = time.monotonic()
            spec = self._obs_spec(worker, flight_rings, flight_registry)
            try:
                worker.conn.send(("task", seq, calls[index], spec))
            except OSError:
                # the worker died while idle mid-batch (e.g. OOM-killed
                # after finishing a task) — sentinels are only waited on
                # for busy workers, so the broken pipe is the first sign.
                # Treat it exactly like a sentinel-detected crash: typed,
                # contained, retried on a replacement.
                declare_crash(worker, "dead at dispatch", cause="dead_at_dispatch")

        def declare_crash(
            worker: _Worker,
            reason: str,
            *,
            stalled: bool = False,
            cause: str = "sigkill",
        ) -> None:
            """One worker lost mid-batch: bookkeeping, retry-or-fail of its
            task, the tolerance check, respawn, and (if work remains) an
            immediate dispatch to the replacement."""
            nonlocal crashes
            crashes += 1
            self._bump("crashes")
            self._bump("crash_" + cause)
            if stalled:
                self._bump("stalls")
            if obs.enabled():
                obs.metrics().counter("parallel.proc.crashes").inc()
            worker.kill()  # before salvage, so the ring is quiescent
            self._salvage_flight(worker, flight_rings, cause)
            requeue_or_fail(worker, reason)
            if crashes > self.crash_tolerance:
                for other in team:
                    if other.busy_seq is not None:
                        other.kill()
                        other.busy_seq = None
                raise WorkerCrashError(
                    f"{crashes} worker crashes in one batch exceeded the"
                    f" tolerance of {self.crash_tolerance}"
                )
            replacement = self._replace(worker, team)
            if pending and not errors:
                dispatch(replacement, pending.pop(0))

        def requeue_or_fail(worker: _Worker, reason: str) -> None:
            """The task in flight on a dead worker: retry it or record the
            crash as its error."""
            nonlocal settled
            seq = worker.busy_seq
            worker.busy_seq = None
            if seq is None:
                return
            index = seq_to_index.pop(seq)
            attempts[index] += 1
            if attempts[index] <= self.task_retries and not errors:
                pending.insert(0, index)
                self._bump("retries")
                if obs.enabled():
                    obs.metrics().counter("parallel.proc.retries").inc()
            else:
                errors.setdefault(
                    index,
                    WorkerCrashError(
                        f"task {index} lost its worker {attempts[index]} time(s)"
                        f" ({reason}); retry budget is {self.task_retries}"
                    ),
                )
                settled += 1

        # prime every checked-out worker
        for worker in team:
            if pending:
                dispatch(worker, pending.pop(0))

        while settled < total:
            # nothing in flight and nothing dispatchable → the batch is
            # as settled as it will get (fail-fast left tasks unrun)
            busy = [w for w in team if w.busy_seq is not None]
            if not busy:
                if pending and not errors:
                    # can only happen if every worker died and respawn
                    # was exhausted — surface as a crash error
                    raise WorkerCrashError(
                        "process pool lost every worker mid-batch"
                    )
                break
            timeout = self.stall_timeout
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0.0:
                    for worker in busy:
                        worker.kill()
                        self._bump("crash_deadline")
                        self._salvage_flight(worker, flight_rings, "deadline")
                        self._replace(worker, team)
                    raise DeadlineExceededError(
                        "process-pool batch exceeded its deadline"
                    )
                timeout = min(timeout, remaining)
            waitables = [w.conn for w in busy] + [w.process.sentinel for w in busy]
            ready = mpconn.wait(waitables, timeout=min(timeout, 0.5))
            now = time.monotonic()
            progressed = False

            for worker in list(busy):
                if worker.conn in ready:
                    try:
                        kind, seq, payload, harvest = worker.conn.recv()
                    except (EOFError, OSError):
                        continue  # death; the sentinel branch handles it
                    progressed = True
                    worker.busy_seq = None
                    self._fold_harvest(harvest)
                    index = seq_to_index.pop(seq, None)
                    if index is None:  # a pre-crash straggler; ignore
                        continue
                    if kind == "ok":
                        results[index] = payload
                    else:
                        errors.setdefault(index, payload)
                    settled += 1
                    self._bump("tasks")
                    if obs.enabled():
                        obs.metrics().counter("parallel.proc.tasks").inc()
                    if pending and not errors:
                        dispatch(worker, pending.pop(0))

            for worker in list(team):
                if worker.busy_seq is None:
                    continue
                died = not worker.alive()
                stalled = (
                    not died
                    and self.stall_timeout > 0
                    and now - worker.dispatched_at > self.stall_timeout
                )
                if not died and not stalled:
                    continue
                progressed = True
                declare_crash(
                    worker,
                    "stalled" if stalled else "crashed",
                    stalled=stalled,
                    cause="stall" if stalled else "sigkill",
                )

            if not progressed and pending and not errors:
                # wait timed out without news but capacity exists (e.g. a
                # worker finished exactly at the old loop edge): dispatch
                for worker in team:
                    if worker.busy_seq is None and pending:
                        dispatch(worker, pending.pop(0))

        if errors:
            raise errors[min(errors)]
        return [results[index] for index in range(total)]

    def _replace(self, dead: _Worker, team: list[_Worker]) -> _Worker:
        replacement = self._spawn()
        team[team.index(dead)] = replacement
        self._bump("respawned")
        if obs.enabled():
            obs.metrics().counter("parallel.proc.respawned").inc()
        return replacement


# ----------------------------------------------------------------------
# the module-level pool (what the ``"process"`` backend uses)
# ----------------------------------------------------------------------
_pool_lock = threading.Lock()
_pool: ProcPool | None = None


def get_pool() -> ProcPool:
    """The shared pool, created on first use with default sizing."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ProcPool()
        return _pool


def configure_pool(**kwargs) -> ProcPool:
    """Replace the shared pool (shutting down the old one).

    Keyword arguments are those of :class:`ProcPool` — ``workers``,
    ``chaos``, ``stall_timeout``, ``crash_tolerance``, ``task_retries``."""
    global _pool
    with _pool_lock:
        old, _pool = _pool, None
    if old is not None:
        old.shutdown()
    fresh = ProcPool(**kwargs)
    with _pool_lock:
        _pool = fresh
    return fresh


def shutdown_pool() -> None:
    """Shut down and drop the shared pool (it respawns on next use)."""
    global _pool
    with _pool_lock:
        old, _pool = _pool, None
    if old is not None:
        old.shutdown()


def pool_stats() -> dict | None:
    """The shared pool's :meth:`ProcPool.stats`, or ``None`` if no pool
    has been created yet (stats never force a spawn)."""
    with _pool_lock:
        pool = _pool
    return pool.stats() if pool is not None else None


atexit.register(shutdown_pool)
