"""Tests for the supervised process-pool backend.

The contract under test, end to end:

* **supervision** — worker deaths (SIGKILL, hard exits, stalls) are
  detected, workers respawn, and only the lost shards re-dispatch; a
  batch resolves to either the exact results or one typed error, never a
  hang and never a torn answer;
* **bit-for-bit parity** — ``backend="process"`` produces *identical
  packed words* to the serial anchor for every shard/chunk split, for
  both :func:`~repro.parallel.document_matrices` and
  :func:`~repro.parallel.preprocess_bulk`;
* **leak-proof transport** — after every test in this file, crash tests
  included, :func:`~repro.parallel.live_segments` is empty (asserted by
  an autouse fixture);
* **graceful degradation** — crashes degrade to threads (feeding the
  breaker under ``"auto"``), pool exhaustion surfaces typed with a
  ``retry_after`` hint, and the serve layer maps it to
  :class:`~repro.errors.OverloadedError`.
"""

import os
import pathlib
import random
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

import repro.parallel.api as parallel_api
import repro.parallel.pool as parallel_pool
from repro.db import SpannerDB
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ParallelError,
    PoolExhaustedError,
    WorkerCrashError,
)
from repro.parallel import (
    ProcCall,
    ProcPool,
    configure_pool,
    default_workers,
    document_matrices,
    get_pool,
    live_segments,
    preprocess_bulk,
    process_breaker,
    resolve_backend,
    run_tasks,
    shutdown_pool,
    usable_cores,
)
from repro.parallel.shm import SegmentRegistry
from repro.regex import spanner_from_regex
from repro.serve import ServeConfig, SpannerService
from repro.slp import SLP, SLPSpannerEvaluator, balanced_node
from repro.util import Budget, Deadline, WorkerChaos

PATTERNS = [
    "!x{(a|b)*}!y{b}!z{(a|b)*}",
    "(a|b)*!x{ab}(a|b)*",
    "(a|b)*!x{a+}!y{b+}(a|b)*",
]

ECHO = "repro.parallel.procpool:_task_echo"
PID = "repro.parallel.procpool:_task_pid"
SLEEP = "repro.parallel.procpool:_task_sleep_ms"
RAISE = "repro.parallel.procpool:_task_raise"


def _pool_cleared_in_child():
    """Worker-side probe: the parent's module-level pool handle must not
    reach a worker (its atexit would otherwise run the parent's shutdown
    against processes that are not its children)."""
    import repro.parallel.procpool as procpool

    return procpool._pool is None


def _attach_and_sum(name: str) -> int:
    """Worker-side probe: attach a parent-owned segment and read it."""
    from repro.parallel.shm import attach

    segment = attach(name)
    try:
        return int(np.frombuffer(segment.buf, dtype=np.uint8).sum())
    finally:
        segment.close()


def _plan_cache_lock():
    from repro.kernels.plan import plan_cache

    return plan_cache()._lock


def _metrics_create_lock():
    from repro import obs

    return obs.metrics()._create_lock


def _char_table_lock():
    """The char-table store lock of a plan a bulk task compiles too (see
    ``repro.parallel.api._preprocess_doc_task``)."""
    from repro.kernels.plan import plan_cache

    return plan_cache().get_or_compile(PATTERNS[1]).evaluator._char_tables_cache._lock


def _take_lock(resolver: str) -> bool:
    """Worker-side probe: acquire the lock that *resolver* names."""
    with globals()[resolver]():
        return True


@pytest.fixture(autouse=True)
def shm_leak_oracle():
    """Every test in this file must leave zero shared-memory segments
    behind — the acceptance bar for the leak-proofing contract — and a
    fresh breaker, so degradation state never crosses tests."""
    with parallel_api._breaker_lock:
        parallel_api._breaker = None
    yield
    shutdown_pool()
    assert live_segments() == []
    with parallel_api._breaker_lock:
        parallel_api._breaker = None


def _entries_equal(left, right) -> bool:
    return (
        np.array_equal(left[0], right[0])
        and np.array_equal(left[1].rows, right[1].rows)
        and np.array_equal(left[2].rows, right[2].rows)
    )


# ----------------------------------------------------------------------
# the pool itself
# ----------------------------------------------------------------------
class TestProcPoolSupervision:
    def test_results_arrive_in_submission_order(self):
        pool = ProcPool(workers=2)
        try:
            got = pool.run([ProcCall(ECHO, (i,)) for i in range(7)])
            assert got == list(range(7))
        finally:
            pool.shutdown()

    def test_tasks_run_in_separate_processes(self):
        pool = ProcPool(workers=2)
        try:
            pids = set(pool.run([ProcCall(PID) for _ in range(4)]))
            assert os.getpid() not in pids
            assert len(pids) == 2
        finally:
            pool.shutdown()

    def test_first_error_by_submission_index_wins(self):
        pool = ProcPool(workers=2)
        try:
            calls = [
                ProcCall(ECHO, (0,)),
                ProcCall(RAISE, ("boom-1",)),
                ProcCall(ECHO, (2,)),
                ProcCall(RAISE, ("boom-3",)),
            ]
            with pytest.raises(ParallelError, match="boom-1"):
                pool.run(calls)
        finally:
            pool.shutdown()

    def test_sigkill_storm_still_answers_exactly(self):
        """30% of dispatches are SIGKILLed; retries (fresh draws) land,
        and the batch result is exactly what a healthy pool returns."""
        chaos = WorkerChaos(seed=7, kill_rate=0.3)
        pool = ProcPool(workers=2, chaos=chaos, task_retries=3,
                        crash_tolerance=100)
        try:
            got = pool.run([ProcCall(ECHO, (i,)) for i in range(20)])
            assert got == list(range(20))
            stats = pool.stats()
            assert stats["crashes"] >= 1
            assert stats["respawned"] >= 1
        finally:
            pool.shutdown()

    def test_retry_budget_exhaustion_is_one_typed_error(self):
        chaos = WorkerChaos(seed=3, kill_rate=1.0)  # every dispatch dies
        pool = ProcPool(workers=2, chaos=chaos, task_retries=2,
                        crash_tolerance=50)
        try:
            with pytest.raises(WorkerCrashError, match="retry budget"):
                pool.run([ProcCall(ECHO, (1,))])
        finally:
            pool.shutdown()

    def test_pool_reusable_after_crash_batch(self):
        chaos = WorkerChaos(seed=3, kill_rate=1.0)
        pool = ProcPool(workers=1, chaos=chaos, task_retries=0,
                        crash_tolerance=50)
        try:
            with pytest.raises(WorkerCrashError):
                pool.run([ProcCall(ECHO, (1,))])
        finally:
            pool.shutdown()
        healthy = ProcPool(workers=1)
        try:
            assert healthy.run([ProcCall(ECHO, ("ok",))]) == ["ok"]
        finally:
            healthy.shutdown()

    def test_stalled_worker_is_killed_and_shard_retried(self):
        chaos = WorkerChaos(seed=11, stall_rate=0.3, stall_seconds=5.0)
        pool = ProcPool(workers=2, chaos=chaos, stall_timeout=0.4,
                        task_retries=4, crash_tolerance=100)
        try:
            got = pool.run([ProcCall(ECHO, (i,)) for i in range(10)])
            assert got == list(range(10))
            assert pool.stats()["stalls"] >= 1
        finally:
            pool.shutdown()

    def test_deadline_kills_stragglers(self):
        pool = ProcPool(workers=1)
        try:
            t0 = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                pool.run(
                    [ProcCall(SLEEP, (5000,))],
                    deadline=Deadline.after(0.3),
                )
            assert time.monotonic() - t0 < 3.0
        finally:
            pool.shutdown()

    def test_checked_out_pool_raises_typed_exhaustion(self):
        pool = ProcPool(workers=1)
        errors: list = []

        def holder():
            try:
                pool.run([ProcCall(SLEEP, (900, "held"))])
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        thread = threading.Thread(target=holder)
        try:
            thread.start()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    pool.run([ProcCall(ECHO, (1,))])
                except PoolExhaustedError as exc:
                    assert exc.retry_after > 0
                    break
                time.sleep(0.01)  # holder not yet checked out; try again
            else:
                pytest.fail("pool never reported exhaustion")
        finally:
            thread.join(timeout=10)
            pool.shutdown()
        assert not errors

    def test_spawn_failure_releases_the_claim(self, monkeypatch):
        """A failed fork/spawn surfaces typed and leaves no capacity
        stranded: the reservation is released and the pool serves the
        next request at full size."""
        pool = ProcPool(workers=2)
        try:
            def no_spawn(self):
                raise OSError("fork failed")

            monkeypatch.setattr(ProcPool, "_spawn", no_spawn)
            with pytest.raises(ParallelError, match="spawn"):
                pool.run([ProcCall(ECHO, (i,)) for i in range(2)])
            assert pool._busy == 0
            monkeypatch.undo()
            assert pool.run([ProcCall(ECHO, (i,)) for i in range(4)]) == [
                0, 1, 2, 3,
            ]
            assert pool.stats()["idle"] == 2
        finally:
            pool.shutdown()

    def test_partial_spawn_failure_keeps_spawned_workers(self, monkeypatch):
        """When the second of two spawns fails, the first spawned worker
        is checked back in rather than abandoned."""
        pool = ProcPool(workers=2)
        real_spawn = ProcPool._spawn
        spawns = {"n": 0}

        def flaky(self):
            spawns["n"] += 1
            if spawns["n"] == 2:
                raise OSError("fork failed")
            return real_spawn(self)

        try:
            monkeypatch.setattr(ProcPool, "_spawn", flaky)
            with pytest.raises(ParallelError, match="spawn"):
                pool.run([ProcCall(ECHO, (i,)) for i in range(2)])
            assert pool._busy == 0
            assert pool.stats()["idle"] == 1
            monkeypatch.undo()
            assert pool.run([ProcCall(ECHO, ("ok",))]) == ["ok"]
        finally:
            pool.shutdown()

    def test_dispatch_to_a_dead_worker_retries_on_a_replacement(self):
        """A worker that dies while idle mid-batch is only noticed when
        the next dispatch hits its broken pipe; the send failure must be
        contained like any other crash — respawn, retry, exact result —
        not escape as an untyped OSError."""
        pool = ProcPool(workers=1)
        try:
            assert pool.run([ProcCall(ECHO, (0,))]) == [0]
            team = pool._checkout(1)
            try:
                [worker] = team
                worker.conn.close()  # deterministic OSError at dispatch
                results = pool._supervise(team, [ProcCall(ECHO, (7,))], None)
            finally:
                pool._checkin(team)
            assert results == [7]
            stats = pool.stats()
            assert stats["crashes"] >= 1
            assert stats["respawned"] >= 1
        finally:
            pool.shutdown()

    def test_non_proccall_work_is_rejected(self):
        pool = ProcPool(workers=1)
        try:
            with pytest.raises(ParallelError, match="ProcCall"):
                pool.run([lambda: 1])
        finally:
            pool.shutdown()

    def test_run_tasks_process_backend_requires_proccalls(self):
        with pytest.raises(ParallelError, match="ProcCall"):
            run_tasks([lambda: 1, lambda: 2], backend="process")

    def test_run_tasks_routes_proccalls_to_the_shared_pool(self):
        configure_pool(workers=2)
        got = run_tasks(
            [ProcCall(ECHO, (i,)) for i in range(5)],
            workers=2,
            backend="process",
        )
        assert got == list(range(5))

    def test_forked_workers_do_not_inherit_the_shared_pool(self):
        configure_pool(workers=1)
        probe = ProcCall("tests.test_procpool:_pool_cleared_in_child")
        assert get_pool().run([probe]) == [True]

    @pytest.mark.parametrize(
        "resolver", ["_plan_cache_lock", "_metrics_create_lock", "_char_table_lock"]
    )
    def test_worker_started_while_a_parent_thread_holds_a_lock(self, resolver):
        """A worker started while another parent thread holds a repro lock
        must not inherit it held: a fork of the threaded parent would
        copy the lock into the child locked, and the worker's first task
        that takes it would block until the deadline."""
        lock = globals()[resolver]()
        held, release = threading.Event(), threading.Event()

        def hold() -> None:
            with lock:
                held.set()
                release.wait(10)  # bounded, should the parent block on it

        pool = ProcPool(workers=1)
        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(5)
            assert pool.run([ProcCall(ECHO, (1,))], deadline=Deadline.after(10)) == [1]
            release.set()
            holder.join(5)
            assert not holder.is_alive()
            probe = ProcCall("tests.test_procpool:_take_lock", (resolver,))
            assert pool.run([probe], deadline=Deadline.after(5)) == [True]
        finally:
            release.set()
            holder.join(5)
            pool.shutdown()


class TestWorkerChaosSchedule:
    def test_verdict_is_pure_function_of_seed_and_seq(self):
        chaos = WorkerChaos(seed=42, kill_rate=0.3, stall_rate=0.2)
        first = [chaos.decide(seq) for seq in range(64)]
        again = [chaos.decide(seq) for seq in range(64)]
        assert first == again
        assert set(first) <= {"kill", "stall", None}
        assert "kill" in first and None in first

    def test_retry_gets_a_fresh_draw(self):
        chaos = WorkerChaos(seed=5, kill_rate=0.5)
        verdicts = {chaos.decide(seq) for seq in range(32)}
        assert verdicts == {"kill", None}  # not all-kill: retries can land

    def test_schedule_ships_by_pickle(self):
        import pickle

        chaos = WorkerChaos(seed=9, kill_rate=0.1, stall_rate=0.1)
        clone = pickle.loads(pickle.dumps(chaos))
        assert clone == chaos
        assert clone.decide(17) == chaos.decide(17)


# ----------------------------------------------------------------------
# shared-memory transport hygiene
# ----------------------------------------------------------------------
class TestShmHygiene:
    def test_pack_read_roundtrip(self):
        data = np.arange(13, dtype=np.int64)
        with SegmentRegistry() as registry:
            descr, slot = registry.pack([data, ((2, 4), np.uint64)])
            assert np.array_equal(registry.read(descr), data)
            assert registry.read(slot).shape == (2, 4)
            assert live_segments()  # owned while the registry is open
        assert live_segments() == []

    def test_registry_unlinks_on_exception(self):
        with pytest.raises(RuntimeError, match="deliberate"):
            with SegmentRegistry() as registry:
                registry.pack([np.zeros(4)])
                raise RuntimeError("deliberate")
        assert live_segments() == []

    def test_close_is_idempotent(self):
        registry = SegmentRegistry()
        registry.pack([np.ones(3)])
        registry.close()
        registry.close()
        assert live_segments() == []

    def test_segment_names_are_host_unique(self):
        """Names must embed the pid (plus a random token), so concurrent
        repro processes — or a restart after a SIGKILLed predecessor
        leaked segments — can never collide on a bare counter."""
        with SegmentRegistry() as registry:
            first = registry.create(64)
            second = registry.create(64)
            assert first.name != second.name
            for segment in (first, second):
                assert f"-{os.getpid()}-" in segment.name

    def test_name_collision_retries_under_a_fresh_name(self, monkeypatch):
        import repro.parallel.shm as shm

        shared_memory = shm._shared_memory()
        taken = shared_memory.SharedMemory(
            create=True, name=f"{shm.SEGMENT_PREFIX}-collision-test", size=1
        )
        real_name = shm._segment_name
        clashes = iter([taken.name])
        monkeypatch.setattr(
            shm, "_segment_name", lambda: next(clashes, None) or real_name()
        )
        try:
            with SegmentRegistry() as registry:
                segment = registry.create(8)
                assert segment.name != taken.name
        finally:
            taken.close()
            taken.unlink()

    def test_worker_forked_while_another_thread_holds_the_tracker_lock(self):
        """A parent thread holds the resource tracker's lock while the
        tracker starts up; a worker started in that window must still be
        able to attach.  Starting a worker needs the tracker lock in the
        parent as well, so the holder lets go on a short timer rather
        than after the run."""
        from multiprocessing import resource_tracker

        configure_pool(workers=1)
        tracker = resource_tracker._resource_tracker
        held, release = threading.Event(), threading.Event()

        def hold() -> None:
            with tracker._lock:
                held.set()
                release.wait(0.3)

        with SegmentRegistry() as registry:
            segment = registry.create(4)
            segment.buf[:4] = bytes([1, 2, 3, 4])
            holder = threading.Thread(target=hold)
            holder.start()
            assert held.wait(5)
            try:
                probe = ProcCall(
                    "tests.test_procpool:_attach_and_sum", (segment.name,)
                )
                got = get_pool().run([probe], deadline=Deadline.after(10))
            finally:
                release.set()
                holder.join(5)
        assert not holder.is_alive()
        assert got == [10]

    def test_resource_tracker_stays_silent_after_worker_attaches(self, tmp_path):
        """Workers share the parent's resource tracker, so an attach must
        leave the parent's registration alone: removing it makes every
        later unlink report a ``KeyError`` from the tracker.  Checked in a
        fresh interpreter, whose tracker reports on stderr as it exits."""
        script = tmp_path / "attach_many.py"
        script.write_text(textwrap.dedent('''
            from repro.parallel import ProcCall, ProcPool
            from repro.parallel.shm import SegmentRegistry

            if __name__ == "__main__":
                pool = ProcPool(workers=2)
                try:
                    with SegmentRegistry() as registry:
                        names = []
                        for _ in range(4):
                            segment = registry.create(4)
                            segment.buf[:4] = bytes([1, 2, 3, 4])
                            names.append(segment.name)
                        probe = "tests.test_procpool:_attach_and_sum"
                        print(pool.run([ProcCall(probe, (n,)) for n in names]))
                finally:
                    pool.shutdown()
        '''))
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        done = subprocess.run(
            [sys.executable, str(script)],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[10, 10, 10, 10]"
        assert "KeyError" not in done.stderr
        assert "leaked shared_memory" not in done.stderr

    def test_unresolvable_collision_is_a_typed_error(self, monkeypatch):
        import repro.parallel.shm as shm

        shared_memory = shm._shared_memory()
        taken = shared_memory.SharedMemory(
            create=True, name=f"{shm.SEGMENT_PREFIX}-collision-held", size=1
        )
        monkeypatch.setattr(shm, "_segment_name", lambda: taken.name)
        try:
            with SegmentRegistry() as registry:
                with pytest.raises(ParallelError, match="segment name"):
                    registry.create(8)
        finally:
            taken.close()
            taken.unlink()
        assert live_segments() == []


# ----------------------------------------------------------------------
# differential: process == serial, bit for bit
# ----------------------------------------------------------------------
class TestProcessDifferential:
    def test_document_matrices_process_matches_serial(self):
        rng = random.Random(23)
        configure_pool(workers=2)
        for pattern in PATTERNS:
            evaluator = SLPSpannerEvaluator(spanner_from_regex(pattern))
            text = "".join(rng.choice("ab") for _ in range(317))
            anchor = document_matrices(evaluator, text, backend="serial")
            for shards, chunk_size in ((2, 64), (3, 1024), (5, 17)):
                got = document_matrices(
                    evaluator,
                    text,
                    backend="process",
                    workers=2,
                    shards=shards,
                    chunk_size=chunk_size,
                )
                assert _entries_equal(got, anchor), (pattern, shards, chunk_size)

    def test_process_handles_empty_and_tiny_documents(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex("!x{a*}"))
        for text in ("", "a", "ba"):
            anchor = document_matrices(evaluator, text, backend="serial")
            got = document_matrices(evaluator, text, backend="process")
            assert _entries_equal(got, anchor), repr(text)

    def test_process_handles_wide_unicode(self):
        """Character codes ship as raw UTF-32 words; astral-plane text
        must survive the round trip."""
        evaluator = SLPSpannerEvaluator(spanner_from_regex("(a|\U0001F600)*!x{a}"))
        text = "a\U0001F600" * 40 + "a"
        anchor = document_matrices(evaluator, text, backend="serial")
        got = document_matrices(evaluator, text, backend="process", shards=3)
        assert _entries_equal(got, anchor)

    def test_deadline_propagates_into_workers(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[0]))
        text = "ab" * 3000
        budget = Budget(deadline=Deadline(at=0.0))  # expired before dispatch
        with pytest.raises(DeadlineExceededError):
            document_matrices(
                evaluator, text, backend="process", shards=2, budget=budget
            )

    def test_worker_steps_are_charged_to_the_callers_budget(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[1]))
        budget = Budget(max_steps=10_000_000)
        document_matrices(
            evaluator, "ab" * 200, backend="process", shards=2, budget=budget
        )
        assert budget.steps > 0

    def test_preprocess_bulk_process_matches_thread(self):
        source = PATTERNS[2]
        texts = ["abba" * (i + 1) for i in range(6)] + ["b" * 9, "ab" * 17]

        def warm(backend):
            evaluator = SLPSpannerEvaluator(spanner_from_regex(source))
            slp = SLP()
            nodes = [balanced_node(slp, text) for text in texts]
            fresh = preprocess_bulk(
                evaluator,
                slp,
                nodes,
                backend=backend,
                source=source if backend == "process" else None,
            )
            return evaluator, slp, nodes, fresh

        thread_eval, thread_slp, thread_nodes, thread_fresh = warm("thread")
        proc_eval, proc_slp, proc_nodes, proc_fresh = warm("process")
        assert proc_fresh == thread_fresh > 0
        for t_node, p_node in zip(thread_nodes, proc_nodes):
            t_entry = thread_eval.node_entry(thread_slp, t_node)
            p_entry = proc_eval.node_entry(proc_slp, p_node)
            assert _entries_equal(t_entry, p_entry)

    def test_bulk_process_warms_a_cold_parent_despite_warm_workers(self):
        """Workers keep digest-keyed arena and plan-cache evaluators warm
        across requests; shipping is keyed off the *parent's* cached-node
        set, so a second (cold) evaluator over the same source and arena
        content still receives every entry it lacks instead of a silent
        no-op warm."""
        configure_pool(workers=2)
        source = PATTERNS[0]
        texts = ["abba" * (i + 1) for i in range(4)] + ["b" * 7]

        def warm():
            evaluator = SLPSpannerEvaluator(spanner_from_regex(source))
            slp = SLP()
            nodes = [balanced_node(slp, text) for text in texts]
            fresh = preprocess_bulk(
                evaluator, slp, nodes, backend="process", source=source
            )
            return evaluator, slp, fresh

        first_eval, first_slp, first_fresh = warm()
        second_eval, second_slp, second_fresh = warm()
        assert first_fresh > 0
        assert second_fresh == first_fresh
        assert (
            second_eval.cached_nodes(second_slp.serial)
            == first_eval.cached_nodes(first_slp.serial)
            > 0
        )

    def test_process_crash_degrades_to_thread_with_exact_answer(self):
        """A kill-everything chaos schedule cannot corrupt results: the
        crash surfaces, the fold reruns on threads, and the entry is
        bit-for-bit the serial one."""
        configure_pool(workers=2, chaos=WorkerChaos(seed=1, kill_rate=1.0),
                       task_retries=0, crash_tolerance=100)
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[0]))
        text = "ab" * 150
        anchor = document_matrices(evaluator, text, backend="serial")
        got = document_matrices(evaluator, text, backend="process", shards=2)
        assert _entries_equal(got, anchor)


# ----------------------------------------------------------------------
# backend resolution and degradation
# ----------------------------------------------------------------------
class TestResolveBackend:
    def test_explicit_backends_pass_through(self):
        for backend in ("thread", "process", "serial"):
            assert resolve_backend(backend) == backend

    def test_auto_needs_cores(self, monkeypatch):
        monkeypatch.setattr(parallel_api, "usable_cores", lambda: 1)
        assert resolve_backend("auto", size_hint_chars=1 << 20) == "thread"

    def test_auto_needs_size(self, monkeypatch):
        monkeypatch.setattr(parallel_api, "usable_cores", lambda: 8)
        assert resolve_backend("auto", size_hint_chars=64) == "thread"
        assert resolve_backend("auto", size_hint_chars=1 << 20) == "process"

    def test_auto_needs_shippable_work(self, monkeypatch):
        monkeypatch.setattr(parallel_api, "usable_cores", lambda: 8)
        assert resolve_backend("auto", shippable=False) == "thread"

    def test_auto_respects_open_breaker(self, monkeypatch):
        monkeypatch.setattr(parallel_api, "usable_cores", lambda: 8)
        breaker = process_breaker()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        assert resolve_backend("auto", size_hint_chars=1 << 20) == "thread"

    def test_auto_crashes_feed_the_breaker(self, monkeypatch):
        monkeypatch.setattr(parallel_api, "usable_cores", lambda: 8)
        configure_pool(workers=2, chaos=WorkerChaos(seed=1, kill_rate=1.0),
                       task_retries=0, crash_tolerance=100)
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[1]))
        text = "ab" * 4096
        anchor = document_matrices(evaluator, text, backend="serial")
        for _ in range(3):
            got = document_matrices(evaluator, text, backend="auto", shards=2)
            assert _entries_equal(got, anchor)
        assert process_breaker().state == "open"
        # breaker open: auto now resolves to thread, no pool contact
        assert resolve_backend("auto", size_hint_chars=len(text)) == "thread"

    def test_exhaustion_degrades_auto_but_raises_explicit(self, monkeypatch):
        monkeypatch.setattr(parallel_api, "usable_cores", lambda: 8)

        def exhausted(*args, **kwargs):
            raise PoolExhaustedError("all checked out", retry_after=0.25)

        monkeypatch.setattr(parallel_api, "_fold_shards_process", exhausted)
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERNS[0]))
        text = "ab" * 4096
        anchor = document_matrices(evaluator, text, backend="serial")
        got = document_matrices(evaluator, text, backend="auto")
        assert _entries_equal(got, anchor)  # degraded to threads, same bits
        assert process_breaker().state == "closed"  # backpressure ≠ illness
        with pytest.raises(PoolExhaustedError) as info:
            document_matrices(evaluator, text, backend="process")
        assert info.value.retry_after == 0.25


# ----------------------------------------------------------------------
# affinity-aware defaults
# ----------------------------------------------------------------------
class TestAffinityDefaults:
    def test_usable_cores_positive(self):
        assert usable_cores() >= 1
        assert 1 <= default_workers() <= 8

    def test_default_workers_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(
            parallel_pool.os, "sched_getaffinity", lambda pid: {0, 1, 2}
        )
        assert usable_cores() == 3
        assert default_workers() == 3

    def test_affinity_failure_falls_back_to_cpu_count(self, monkeypatch):
        def broken(pid):
            raise OSError("no affinity on this platform")

        monkeypatch.setattr(parallel_pool.os, "sched_getaffinity", broken)
        assert usable_cores() == max(1, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# fail-fast cancellation in the thread backend
# ----------------------------------------------------------------------
class TestFailFast:
    def test_pending_tasks_are_cancelled_after_first_failure(self):
        """One worker, one instant failure, then slow recorders: the
        failure must cancel the queued tail rather than drain it."""
        executed: list[int] = []
        lock = threading.Lock()

        def failer():
            raise ParallelError("fail fast")

        def recorder(index):
            with lock:
                executed.append(index)
            time.sleep(0.05)  # wide window for the cancellation sweep

        thunks = [failer] + [
            (lambda i=i: recorder(i)) for i in range(12)
        ]
        with pytest.raises(ParallelError, match="fail fast"):
            run_tasks(thunks, workers=1, backend="thread")
        # at most one recorder can have started before the cancel sweep;
        # a non-fail-fast pool would have run all twelve
        assert len(executed) <= 1

    def test_earliest_submitted_failure_wins(self):
        order: list[str] = []
        gate = threading.Event()

        def slow_fail():
            gate.wait(timeout=5)
            order.append("slow")
            raise ParallelError("slow loser")

        def fast_fail():
            order.append("fast")
            gate.set()
            raise ParallelError("fast winner")

        # two workers: both failures execute; the error surfaced must be
        # the earliest *submitted*, not the earliest to raise
        with pytest.raises(ParallelError, match="slow loser"):
            run_tasks([slow_fail, fast_fail], workers=2, backend="thread")
        assert order == ["fast", "slow"]


# ----------------------------------------------------------------------
# serve + db integration
# ----------------------------------------------------------------------
class TestServeIntegration:
    def _build(self):
        db = SpannerDB()
        for name, text in (("one", "abba" * 3), ("two", "bb"), ("three", "ab" * 9)):
            db.add_document(name, text)
        db.register_spanner("s", "(a|b)*!x{ab}(a|b)*")
        return db

    def test_query_bulk_process_backend_matches_thread(self):
        configure_pool(workers=2)
        db = self._build()
        names = ["one", "two", "three"]
        thread_result = db.query_bulk("s", names, backend="thread")
        process_result = db.query_bulk("s", names, backend="process")
        assert list(process_result) == names  # input order survives
        assert {
            name: sorted(map(str, tuples))
            for name, tuples in process_result.items()
        } == {
            name: sorted(map(str, tuples))
            for name, tuples in thread_result.items()
        }

    def test_service_bulk_process_backend_round_trip(self):
        configure_pool(workers=2)
        db = self._build()
        with SpannerService(db, ServeConfig(workers=2)) as service:
            result = service.query_bulk(
                "s", ["one", "three"], backend="process", timeout=60
            )
        assert sorted(result.results) == ["one", "three"]
        assert not result.degraded

    def test_pool_exhaustion_maps_to_overloaded(self, monkeypatch):
        def exhausted(*args, **kwargs):
            raise PoolExhaustedError("all checked out", retry_after=0.5)

        import repro.parallel

        monkeypatch.setattr(repro.parallel, "preprocess_bulk", exhausted)
        db = self._build()
        with SpannerService(db, ServeConfig(workers=1)) as service:
            with pytest.raises(OverloadedError) as info:
                service.query_bulk("s", ["one"], backend="process", timeout=30)
            assert info.value.retry_after >= 0.5
            assert service.stats()["pool_exhausted"] == 1
