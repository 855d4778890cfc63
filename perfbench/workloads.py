"""The benchmark's four workloads; one run of one workload per process.

Usage (``run.py`` starts this in a fresh process for every run, so the
process-global plan cache and SLP arenas never carry over)::

    PYTHONPATH=src python3 perfbench/workloads.py --workload serve_read \\
        --seed 1 --seconds 15 --trace 0 --mode full

``--mode setup`` only builds the workload's store or session and reports
its set-up time.  ``--mode full`` sets up, runs the timed phase for at
least ``--seconds``, checks every answer and prints the measurements as
one JSON object on the last line of standard output.

Every input is made from ``--seed`` by :func:`make_inputs`, which builds
on ``repro.util.workloads``; the program under test only ever receives
those inputs, through its public surfaces (``SpannerDB``,
``SpannerService``, ``QuerySession``, ``StreamSession``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
import threading
import time

import layers
import numpy
from layers import percentile
from repro.db import SpannerDB
from repro.errors import OverloadedError, SpanlibError
from repro.kernels.plan import plan_cache
from repro.query import QuerySession, evaluate_query_naive
from repro.serve import ServeConfig, SpannerService, StreamSession
from repro.slp.cde import Copy, Delete, Doc, Extract, Insert, eval_cde
from repro.util import gene_sequence, log_document

WORKLOADS = ("serve_read", "ingest_edit", "stream_tail", "adhoc_query")

LEVELS = ("INFO", "WARN", "ERROR")
USERS = ("ada", "bob", "cleo", "dan", "eve")
#: one log record's body character, and "anything" across records
BODY = r"[^;\n]"
ANY = r"([^;\n]|;|\n)*"

#: the three registered spanners of serve_read and ingest_edit
SPANNERS = {
    "errors": ANY + "ERROR user=!user{[a-z]+} code=" + BODY + "*;" + ANY,
    "codes": ANY + "user=!user{[a-z]+} code=!code{5[0-9][0-9]}( " + BODY + "*)?;" + ANY,
    "motif": "[ACGT]*!m{GACTT}[ACGT]*",
}

#: serve_read's fixed expression set (projection, join, difference),
#: each with its reference built from decompressed single-spanner answers
EXPRESSIONS = {
    "π_{user}(errors)": lambda r: r["errors"].project({"user"}),
    "errors ⋈ codes": lambda r: r["errors"].natural_join(r["codes"]),
    "π_{code}(codes) \\ π_{code}(errors ⋈ codes)": lambda r: r["codes"]
    .project({"code"})
    .difference(r["errors"].natural_join(r["codes"]).project({"code"})),
}

#: stream_tail's spanner: every ERROR record's user and code
STREAM_SPANNER = ANY + "ERROR user=!user{[a-z]+} code=!code{[0-9]+}( " + BODY + "*)?;" + ANY


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


def balanced_log(rng: random.Random, per_group: int, group_of, groups) -> str:
    """``log_document`` records, exactly *per_group* of each group, in a
    seeded order: match counts are then fixed by construction while the
    users, codes and messages stay random."""
    picked = {group: [] for group in groups}
    while any(len(lines) < per_group for lines in picked.values()):
        text = log_document(200, seed=rng.randrange(2**31), codes=(500, 599))
        for line in text.splitlines():
            lines = picked.get(group_of(line))
            if lines is not None and len(lines) < per_group:
                lines.append(line)
    records = [line for group in groups for line in picked[group]]
    rng.shuffle(records)
    return "\n".join(records) + "\n"


def _level(line: str) -> str:
    return line.split(" ", 1)[0]


def _level_user(line: str) -> tuple[str, str]:
    level, user = line.split(" ", 2)[:2]
    return level, user[len("user="):]


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def serve_read_inputs(seed: int, tiny: bool) -> dict:
    rng = _rng(seed, "serve_read")
    logs = {
        f"log{i}": balanced_log(rng, 4 if tiny else 20, _level, LEVELS)
        for i in range(2 if tiny else 4)
    }
    genome = gene_sequence(300 if tiny else 3072, seed=rng.randrange(2**31))
    return {"logs": logs, "genome": genome, "order_seed": rng.randrange(2**31)}


def serve_read_blocks(inputs: dict):
    """Endless request sequence in blocks of 15: each (spanner, document)
    query once (9 of 15 = 60 %) and each expression twice (40 %), on a
    seeded log document, shuffled."""
    rng = random.Random(inputs["order_seed"])
    logs = sorted(inputs["logs"])
    while True:
        block = [r for r in serve_read_requests(inputs) if r[0] == "query"]
        block += [("expr", expr, rng.choice(logs)) for expr in EXPRESSIONS for _ in range(2)]
        rng.shuffle(block)
        yield from block


def ingest_edit_inputs(seed: int, tiny: bool) -> dict:
    rng = _rng(seed, "ingest_edit")
    size = 256 if tiny else 4096
    base = {f"base_{kind}": (kind, _text_of(kind, size, rng)) for kind in ("log", "genome")}
    return {"base": base, "order_seed": rng.randrange(2**31), "tiny": tiny}


def _text_of(kind: str, size: int, rng: random.Random) -> str:
    if kind == "genome":
        return gene_sequence(size, seed=rng.randrange(2**31))
    per_level = max(1, math.ceil(size / 37 / len(LEVELS)))
    return balanced_log(rng, per_level, _level, LEVELS)


def ingest_edit_rounds(inputs: dict):
    """Endless write sequence in rounds.  A round adds one log and one
    genome document at each size (shuffled); each add is followed by a
    chain of CDE edits of that document (3 inserts, 3 deletes, 2 copies,
    shuffled, with seeded ranges of 10-40 characters).  Every write is
    paired with the plain text it must produce (``eval_cde``)."""
    rng = random.Random(inputs["order_seed"])
    sizes = (256, 512) if inputs["tiny"] else (2048, 4096, 8192, 16384)
    chain = ["insert", "delete", "copy"] if inputs["tiny"] else (
        ["insert"] * 3 + ["delete"] * 3 + ["copy"] * 2
    )
    texts = {name: text for name, (_, text) in inputs["base"].items()}
    kinds = {name: kind for name, (kind, _) in inputs["base"].items()}
    count = 0
    while True:
        adds = [(kind, size) for kind in ("log", "genome") for size in sizes]
        rng.shuffle(adds)
        ops = []
        for kind, size in adds:
            name = f"d{count}"
            count += 1
            texts[name] = _text_of(kind, size, rng)
            kinds[name] = kind
            ops.append(("add", name, texts[name], kind))
            current = name
            edits = list(chain)
            rng.shuffle(edits)
            for edit in edits:
                length = len(texts[current])
                span = rng.randint(10, 40)
                i = rng.randint(1, length - span)
                j = i + span - 1
                k = rng.randint(1, length + 1)
                if edit == "insert":
                    source = rng.choice([d for d in texts if kinds[d] == kind])
                    a = rng.randint(1, len(texts[source]) - span)
                    expr = Insert(Doc(current), Extract(Doc(source), a, a + span - 1), k)
                elif edit == "delete":
                    expr = Delete(Doc(current), i, j)
                else:
                    expr = Copy(Doc(current), i, j, k)
                new = f"d{count}"
                count += 1
                texts[new] = eval_cde(expr, texts)
                kinds[new] = kind
                ops.append(("edit", new, expr, kind, texts[new]))
                current = new
        yield ops


def stream_tail_inputs(seed: int, tiny: bool) -> dict:
    return {
        "seed": seed,
        "history": 8 if tiny else 60,
        "rate": 20.0 if tiny else 8.0,
    }


def stream_chunks(inputs: dict):
    """Endless feed of six-record log chunks in seeded order.  Every fourth
    chunk holds exactly one ERROR record, so every fourth window adds
    exactly one result: few enough that window cost grows slowly and the
    latency percentiles describe the whole run, not just its end."""
    rng = _rng(inputs["seed"], "stream_tail")
    pool: dict[str, list[str]] = {level: [] for level in LEVELS}
    for index in itertools.count():
        while not pool["ERROR"] or len(pool["INFO"]) + len(pool["WARN"]) < 6:
            text = log_document(60, seed=rng.randrange(2**31))
            for line in text.splitlines():
                pool[_level(line)].append(line)
        errors = [pool["ERROR"].pop()] if index % 4 == 0 else []
        others = pool["INFO"] + pool["WARN"]
        rng.shuffle(others)
        records = others[: 6 - len(errors)] + errors
        rest = others[6 - len(errors):]
        pool["INFO"] = [line for line in rest if line.startswith("INFO")]
        pool["WARN"] = [line for line in rest if line.startswith("WARN")]
        rng.shuffle(records)
        yield "\n".join(records) + "\n"


def adhoc_query_inputs(seed: int, tiny: bool) -> dict:
    rng = _rng(seed, "adhoc_query")
    groups = [(level, user) for level in LEVELS for user in USERS]
    doc = balanced_log(rng, 1 if tiny else 2, _level_user, groups)
    return {"doc": doc, "order_seed": rng.randrange(2**31)}


#: adhoc_query's expression shapes, one block; {user} is an atom over the
#: ERROR and WARN records of three users, {any} one over those of every user
#: (the level choice alone would change an atom's cost by a third).
#: One cheap shape and four dear ones keep the median inside one cluster
#: of costs.
SHAPES = (
    "{user} ⋈ {any}",
    "{user} ∪ {any}",
    "π_{{code}}({user} ∪ {any})",
    "π_{{code}}({any}) \\ π_{{code}}({user})",
    "π_{{user}}({any}) \\ π_{{user}}({user})",
)


def adhoc_expressions(inputs: dict):
    """Endless sequence of expressions, one block of :data:`SHAPES` at a
    time, shuffled.  Every regex atom is new: seeded users plus two seeded
    letters in a digit class, which never match a code, so the
    answer's size is fixed by the shape."""
    rng = random.Random(inputs["order_seed"])
    seen: set[str] = set()
    extras = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

    def atom(users: bool) -> str:
        while True:
            who = "|".join(sorted(rng.sample(USERS, 3))) if users else "[a-z]+"
            digits = "".join(sorted(rng.sample(extras, 2)))
            source = (
                f"'{ANY}(ERROR|WARN) user=!user{{{who}}} "
                f"code=!code{{5[0-9{digits}][0-9]}}( {BODY}*)?;{ANY}'"
            )
            if source not in seen:
                seen.add(source)
                return source

    while True:
        block = []
        for shape in SHAPES:
            block.append(shape.format(user=atom(True), any=atom(False)))
        rng.shuffle(block)
        yield from block


def make_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    return {
        "serve_read": serve_read_inputs,
        "ingest_edit": ingest_edit_inputs,
        "stream_tail": stream_tail_inputs,
        "adhoc_query": adhoc_query_inputs,
    }[workload](seed, tiny)


# ----------------------------------------------------------------------
# measurements
# ----------------------------------------------------------------------
def _ms(ns: int) -> float:
    return ns / 1e6


class Run:
    """What one workload run hands back: samples and counters."""

    def __init__(self) -> None:
        self.latency_ms: dict[str, list[float]] = {}
        #: operations completed; the gated latency is sampled as "op"
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.shed = 0
        self.wrong = 0
        self.tuples = 0
        self.elapsed_s = 0.0
        self.extra: dict = {}
        self.report: dict = {}

    def sample(self, kind: str, ns: int) -> None:
        self.latency_ms.setdefault(kind, []).append(_ms(ns))

    def done(self, kind: str, ns: int) -> None:
        """One operation completed in *ns*, and it is the gated kind."""
        self.ops += 1
        self.sample(kind, ns)
        self.sample("op", ns)


def reference_work() -> int:
    """A fixed block of pure-Python work (integer arithmetic, dict and list
    stores), the yardstick of :class:`Yardstick`."""
    table: dict[int, int] = {}
    items: list[int] = []
    total = 0
    for i in range(2000):
        total += i * i % 7
        table[i & 255] = total
        if i & 7 == 0:
            items.append(total)
    return total + len(items)


class Yardstick(threading.Thread):
    """Measures the host's speed while a phase of the run goes on.

    The CPU time of a fixed block of work swings by more than half on a
    shared host (frequency scaling, a busy sibling hyperthread) from one
    ten seconds to the next, for the program and any other code alike.
    Inside ``with Yardstick() as stick:`` this thread runs
    :func:`reference_work` every :attr:`PERIOD_S` and records its thread CPU
    time; on exit :attr:`program_cpu_ns` holds the process CPU time of the
    block less this thread's, and :attr:`reference_ns` the mean CPU time
    of one reference block over the same seconds.  A phase's CPU time in
    reference blocks moves far less with the host's speed than its CPU
    time does; not at all only where the program and the block slow alike.
    """

    PERIOD_S = 0.01

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples_ns: list[int] = []
        #: CPU time of this thread, all of it, to subtract from the process's
        self.cpu_ns = 0
        self.program_cpu_ns = 0
        self.reference_ns = 0.0
        self._stopping = threading.Event()

    def run(self) -> None:
        while True:
            began = time.thread_time_ns()
            reference_work()
            self.samples_ns.append(time.thread_time_ns() - began)
            if self._stopping.wait(self.PERIOD_S):
                break
        self.cpu_ns = time.thread_time_ns()

    def __enter__(self) -> "Yardstick":
        self._began_ns = time.process_time_ns()
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stopping.set()
        self.join()
        self.program_cpu_ns = time.process_time_ns() - self._began_ns - self.cpu_ns
        self.reference_ns = statistics.fmean(self.samples_ns)

    def nominal_s(self) -> float:
        """The phase's CPU seconds scaled to a host on which one reference
        block takes :data:`NOMINAL_REFERENCE_NS`."""
        return self.program_cpu_ns / self.reference_ns * NOMINAL_REFERENCE_NS / 1e9


#: the CPU time of one reference block on a host at nominal speed; only a
#: scale, which makes ``setup_s`` read as seconds of such a host
NOMINAL_REFERENCE_NS = 300_000


# ----------------------------------------------------------------------
# serve_read: warm steady-state reads through SpannerService
# ----------------------------------------------------------------------
# Why: the warm read path.  Caches are sealed and plans hit, so
# enumeration, query operators and serve queueing do the work, and build
# and compile do none.  Closed loop, 2 client threads, ServeConfig(workers=2).
def serve_read_setup(inputs: dict):
    db = SpannerDB()
    for name, text in inputs["logs"].items():
        db.add_document(name, text)
    db.add_document("genome", inputs["genome"])
    for name, source in SPANNERS.items():
        db.register_spanner(name, source)
    service = SpannerService(db, ServeConfig(workers=2)).start()
    for request in serve_read_requests(inputs):
        _serve_call(service, *request)
    return db, service


def serve_read_requests(inputs: dict) -> list:
    """Every distinct request of serve_read's sequence."""
    logs = sorted(inputs["logs"])
    return (
        [("query", name, doc) for name in ("errors", "codes") for doc in logs]
        + [("query", "motif", "genome")]
        + [("expr", expr, doc) for expr in EXPRESSIONS for doc in logs]
    )


def _serve_call(service, kind, what, doc):
    if kind == "query":
        return service.query(what, doc, timeout=60)
    return service.query_expression(what, doc, timeout=60)


def serve_read_references(db, inputs) -> dict:
    expected = {}
    for doc in inputs["logs"]:
        relations = {name: db.query_decompressed(name, doc) for name in ("errors", "codes")}
        for name, relation in relations.items():
            expected[("query", name, doc)] = relation.tuples
        for expr, reference in EXPRESSIONS.items():
            expected[("expr", expr, doc)] = reference(relations).tuples
    expected[("query", "motif", "genome")] = db.query_decompressed("motif", "genome").tuples
    return expected


def serve_read_timed(state, inputs, seconds: float, run: Run):
    db, service = state
    sequence = serve_read_blocks(inputs)
    lock = threading.Lock()
    results = []
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)

    def client():
        while True:
            with lock:
                if time.perf_counter_ns() >= deadline:
                    return
                request = next(sequence)
            began = time.perf_counter_ns()
            try:
                result = _serve_call(service, *request)
            except OverloadedError:
                outcome = "shed"
                result = None
            except SpanlibError:
                outcome = "failed"
                result = None
            else:
                outcome = "ok"
            ended = time.perf_counter_ns()
            with lock:
                results.append((request, outcome, result, ended - began, ended))

    clients = [threading.Thread(target=client) for _ in range(2)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    service.stop()
    run.elapsed_s = (max(r[4] for r in results) - start) / 1e9
    queue_ns, exec_ns, answers = [], [], []
    serve = {"retries": 0, "degraded": 0, "shed": 0}
    for request, outcome, result, latency, _ in results:
        run.attempted += 1
        if outcome != "ok":
            run.failed += 1
            serve["shed"] += outcome == "shed"
            continue
        run.done(request[0], latency)
        run.tuples += len(result.tuples)
        queue_ns.append(result.queue_ns)
        exec_ns.append(result.exec_ns)
        serve["retries"] += result.attempts - 1
        serve["degraded"] += result.degraded
        answers.append((request, frozenset(result.tuples)))
    serve["queue_ms"] = _ms(percentile(queue_ns, 0.5))
    serve["exec_ms"] = _ms(percentile(exec_ns, 0.5))
    run.extra["serve"] = serve
    run.extra.update(_store_stats(db))

    def check() -> int:
        expected = serve_read_references(db, inputs)
        return sum(tuples != expected[request] for request, tuples in answers)

    return check


def _store_stats(db) -> dict:
    stats = db.stats()
    return {
        "cache_bytes": stats["evaluator_cache_bytes"],
        "sealed_nodes": sum(s["sealed"] for s in stats["spanner_caches"].values()),
    }


def serve_read_teardown(state) -> None:
    state[1].stop()


# ----------------------------------------------------------------------
# ingest_edit: the write path through SpannerDB
# ----------------------------------------------------------------------
# Why: the write path (Re-Pair build, rebalance, fresh preprocess, CDE),
# which serve_read never runs.  The read after each write catches a
# write-side change that costs reads, such as a faster build that leaves a
# larger grammar.  Closed loop, 1 client.
def ingest_edit_setup(inputs: dict):
    db = SpannerDB()
    for name, source in SPANNERS.items():
        db.register_spanner(name, source)
    for name, (_, text) in inputs["base"].items():
        db.add_document(name, text)
    return db


#: ingest_edit runs one round per this many --seconds: the store grows
#: with every write, so the amount of work is fixed, not the time, and a
#: faster program does not end up holding (and reading) a larger store
ROUND_SECONDS = 7.5


def ingest_edit_writes(inputs: dict, seconds: float) -> list:
    """The writes of one run, made before the timed phase so that making
    them (log text, ``eval_cde``) is not counted as the program's work."""
    rounds = ingest_edit_rounds(inputs)
    return [op for _ in range(max(1, round(seconds / ROUND_SECONDS))) for op in next(rounds)]


def ingest_edit_timed(db, inputs, seconds: float, run: Run):
    reads = []
    chars = 0
    add_ns = 0
    start = time.perf_counter_ns()
    for op in inputs["writes"]:
        kind, name = op[0], op[1]
        spanner = "errors" if op[3] == "log" else "motif"
        run.attempted += 1
        began = time.perf_counter_ns()
        try:
            if kind == "add":
                db.add_document(name, op[2])
            else:
                db.edit(name, op[2])
            written = time.perf_counter_ns()
            tuples = list(db.query(spanner, name))
        except SpanlibError:
            run.failed += 1
            continue
        ended = time.perf_counter_ns()
        run.sample("query", ended - written)
        if kind == "add":
            run.ops += 1
            run.sample("add", written - began)
            chars += len(op[2])
            add_ns += written - began
        else:
            run.done("edit", written - began)
        run.tuples += len(tuples)
        text = op[2] if kind == "add" else op[4]
        reads.append((name, spanner, text, tuples))
    run.elapsed_s = (time.perf_counter_ns() - start) / 1e9
    run.report["ingest_chars_per_s"] = (chars / (add_ns / 1e9), "1/s", len(run.latency_ms["add"]))
    run.extra.update(_store_stats(db))

    def check() -> int:
        # every stored text is checked; reads against the decompressed
        # evaluation only on a seeded sample, which costs ~30 us per character
        picked = random.Random(inputs["order_seed"]).sample(range(len(reads)), min(16, len(reads)))
        wrong = 0
        for index, (name, spanner, text, tuples) in enumerate(reads):
            if db.document_text(name) != text:
                wrong += 1
            elif index in picked and frozenset(tuples) != db.query_decompressed(spanner, name).tuples:
                wrong += 1
        return wrong

    return check


# ----------------------------------------------------------------------
# stream_tail: a live log tail through StreamSession
# ----------------------------------------------------------------------
# Why: the same SLP and evaluator layers, reached through append_text and
# per-window re-enumeration, where cost grows with the document already
# held.  Open loop: one producer feeds chunks at a fixed rate (sized so the
# program keeps up at the end of the run), one consumer reads results().
class _Consumer(threading.Thread):
    def __init__(self, session) -> None:
        super().__init__()
        self.session = session
        self.windows = []
        self.arrived = threading.Condition()

    def run(self) -> None:
        for result in self.session.results():
            now = time.perf_counter_ns()
            with self.arrived:
                self.windows.append((result, now))
                self.arrived.notify_all()

    def wait_for(self, count: int) -> None:
        with self.arrived:
            self.arrived.wait_for(lambda: len(self.windows) >= count, timeout=120)


def _feed(session, chunk: str, run: Run) -> None:
    while True:
        try:
            session.feed(chunk)
            return
        except OverloadedError as exc:
            run.shed += 1
            time.sleep(exc.retry_after or 0.01)


def stream_tail_setup(inputs: dict):
    session = StreamSession(STREAM_SPANNER).start()
    consumer = _Consumer(session)
    consumer.start()
    chunks = stream_chunks(inputs)
    fed = [next(chunks) for _ in range(inputs["history"])]
    for chunk in fed:
        _feed(session, chunk, Run())
    consumer.wait_for(len(fed))
    return session, consumer, chunks, fed


def stream_tail_timed(state, inputs, seconds: float, run: Run):
    session, consumer, chunks, fed = state
    history = len(fed)
    interval_ns = int(1e9 / inputs["rate"])
    scheduled, late = [], []
    start = time.perf_counter_ns()
    while True:
        due = start + len(scheduled) * interval_ns
        if due - start >= seconds * 1e9:
            break
        pause = due - time.perf_counter_ns()
        if pause > 0:
            time.sleep(pause / 1e9)
        chunk = next(chunks)
        late.append(_ms(time.perf_counter_ns() - due))
        _feed(session, chunk, run)
        fed.append(chunk)
        scheduled.append(due)
    session.close(deadline=60)
    consumer.join(timeout=120)
    timed = [(r, at) for r, at in consumer.windows if r.window >= history]
    queue_ms = []
    for result, arrived in timed:
        run.attempted += 1
        if result.overrun:
            run.failed += 1
        latency = arrived - scheduled[result.window - history]
        run.done("window", latency)
        queue_ms.append(_ms(latency - result.window_ns))
        run.tuples += len(result.added)
    run.failed += len(scheduled) - len(timed)
    run.attempted += len(scheduled) - len(timed)
    run.elapsed_s = (max(at for _, at in timed) - start) / 1e9
    stats = session.stats()["stream"]
    run.extra.update(
        frontier_tuples=stats["frontier_tuples"],
        stream_queue_ms=percentile(queue_ms, 0.5),
        gen_late_ms=percentile(late, 0.9),
        cache_bytes=stats["cache_bytes"],
        sealed_nodes=stats["sealed_nodes"],
    )
    run.report["gen_late_p50_ms"] = (percentile(late, 0.5), "ms", len(late))
    run.report["gen_late_p90_ms"] = (percentile(late, 0.9), "ms", len(late))
    run.report["gen_late_max_ms"] = (max(late), "ms", len(late))

    def check() -> int:
        reference = plan_cache().get_or_compile(STREAM_SPANNER).evaluator.evaluate_text("".join(fed))
        return int(session.frontier() != set(reference.tuples))

    return check


def stream_tail_teardown(state) -> None:
    state[0].close(deadline=60)
    state[1].join(timeout=120)


# ----------------------------------------------------------------------
# adhoc_query: never-seen algebra expressions through QuerySession
# ----------------------------------------------------------------------
# Why: the only workload where regex -> vset -> eVA determinisation,
# automaton joins and cold preprocessing dominate, and the only one whose
# working set (every plan is new) is larger than the plan cache; serve_read's
# fits.  Closed loop, 1 client, one stored log document.
#: set-up's warm-up query: its atom (all three levels) never occurs in the
#: timed sequence, whose atoms cover ERROR and WARN records only
ADHOC_WARMUP = (
    f"π_{{user}}('{ANY}(INFO|WARN|ERROR) user=!user{{[a-z]+}} "
    f"code=!code{{5[0-9][0-9]}}( {BODY}*)?;{ANY}')"
)


def adhoc_query_setup(inputs: dict):
    db = SpannerDB()
    db.add_document("log", inputs["doc"])
    session = QuerySession(db)
    session.evaluate(ADHOC_WARMUP, "log")
    return session


#: adhoc_query runs this many expressions per --seconds, a fixed amount of
#: work: every evicted plan's caches stay reachable from the document's
#: arena, so memory grows with each expression run
ADHOC_PER_SECOND = 12


def adhoc_query_timed(session, inputs, seconds: float, run: Run):
    answers = []
    count = max(1, round(seconds * ADHOC_PER_SECOND / len(SHAPES))) * len(SHAPES)
    start = time.perf_counter_ns()
    for expr in itertools.islice(adhoc_expressions(inputs), count):
        run.attempted += 1
        began = time.perf_counter_ns()
        try:
            relation = session.evaluate(expr, "log")
        except SpanlibError:
            run.failed += 1
            continue
        ended = time.perf_counter_ns()
        run.done("expr", ended - began)
        run.tuples += len(relation)
        answers.append((expr, relation.tuples))
    run.elapsed_s = (time.perf_counter_ns() - start) / 1e9
    run.extra.update(_store_stats(session.db))

    def check() -> int:
        sample = random.Random(inputs["order_seed"]).sample(answers, min(8, len(answers)))
        return sum(tuples != evaluate_query_naive(expr, inputs["doc"]).tuples for expr, tuples in sample)

    return check


WORKLOAD_CODE = {
    "serve_read": (serve_read_setup, serve_read_timed, serve_read_teardown),
    "ingest_edit": (ingest_edit_setup, ingest_edit_timed, None),
    "stream_tail": (stream_tail_setup, stream_tail_timed, stream_tail_teardown),
    "adhoc_query": (adhoc_query_setup, adhoc_query_timed, None),
}


def inject_wrong_answer() -> None:
    """Make the program drop one tuple from each answer (for the test
    that the answer checks catch a wrong answer)."""
    from repro.core.spans import SpanRelation
    from repro.stream.windowed import WindowedSpannerStream

    query = SpannerDB.query

    def short_query(self, *args, **kwargs):
        stream = query(self, *args, **kwargs)
        next(stream, None)
        yield from stream

    evaluate = QuerySession.evaluate

    def short_evaluate(self, *args, **kwargs):
        relation = evaluate(self, *args, **kwargs)
        return SpanRelation(relation.variables, list(relation.tuples)[1:])

    results = WindowedSpannerStream.results

    def short_results(self):
        return set(list(results(self))[1:])

    SpannerDB.query = short_query
    QuerySession.evaluate = short_evaluate
    WindowedSpannerStream.results = short_results


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workload(workload: str, seed: int, seconds: float, *, trace: bool,
                 mode: str, tiny: bool = False, out_dir: str | None = None) -> dict:
    tracer = None
    if trace:
        tracer = layers.Tracer()
        layers.install(tracer)
    setup, timed, teardown = WORKLOAD_CODE[workload]
    inputs = make_inputs(workload, seed, tiny)
    if workload == "ingest_edit" and mode == "full":
        inputs["writes"] = ingest_edit_writes(inputs, seconds)
    # set-up is timed in process CPU seconds (every thread), which counts
    # the work done and not the CPU time other tenants of the host steal,
    # scaled by the yardstick to a host at nominal speed
    began = time.perf_counter()
    with Yardstick() as stick:
        state = setup(inputs)
    setup_wall_s = time.perf_counter() - began
    setup_s = stick.nominal_s()
    if mode == "setup":
        if teardown is not None:
            teardown(state)
        return {"setup_s": setup_s}
    run = Run()
    if tracer is not None:
        tracer.phase = "run"
    before = plan_cache().stats()
    with Yardstick() as yardstick:
        check = timed(state, inputs, seconds, run)
    cpu_ns = yardstick.program_cpu_ns
    after = plan_cache().stats()
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    run.extra.update(
        plan_hit_ratio=hits / lookups if lookups else 0.0,
        plan_evictions=after["evictions"] - before["evictions"],
        plan_bytes=after["bytes"],
    )
    peak_rss_mb = _peak_rss_mb()
    layer_values = layers.layer_metrics(tracer, run.extra) if tracer is not None else None
    run.wrong += check()
    run.failed += run.shed
    run.attempted += run.shed
    op = run.latency_ms["op"]
    metrics = {
        "setup_s": (setup_s, "s", 1),
        "setup_cpu_s": (stick.program_cpu_ns / 1e9, "s", 1),
        "setup_wall_s": (setup_wall_s, "s", 1),
        "ops_per_s": (run.ops / run.elapsed_s, "1/s", run.ops),
        "tuples_per_s": (run.tuples / run.elapsed_s, "1/s", run.ops),
        "latency_p50_ms": (percentile(op, 0.5), "ms", len(op)),
        "latency_p90_ms": (percentile(op, 0.9), "ms", len(op)),
        "cpu_ms_per_op": (_ms(cpu_ns) / run.ops, "ms", run.ops),
        "cpu_ref_per_op": (cpu_ns / yardstick.reference_ns / run.ops, "ref", run.ops),
        "reference_ms": (_ms(yardstick.reference_ns), "ms", len(yardstick.samples_ns)),
        "peak_rss_mb": (peak_rss_mb, "MiB", 1),
    }
    for kind, samples in sorted(run.latency_ms.items()):
        if kind == "op":
            continue
        metrics[f"{kind}_p50_ms"] = (percentile(samples, 0.5), "ms", len(samples))
        if kind != "add":
            metrics[f"{kind}_p90_ms"] = (percentile(samples, 0.9), "ms", len(samples))
    metrics.update(run.report)
    bad = run.failed + run.wrong
    metrics["fail_ratio"] = (bad / run.attempted, "ratio", run.attempted)
    result = {
        "numpy": numpy.__version__,
        "attempted": run.attempted,
        "failed": bad,
        "wrong": run.wrong,
        "metrics": metrics,
    }
    if tracer is not None:
        result["layers"] = layer_values
        if out_dir is not None:
            tracer.write(os.path.join(out_dir, f"trace-{workload}-{seed}.jsonl"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("full", "setup"), default="full")
    parser.add_argument("--tiny", action="store_true", help="small inputs, for tests")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="drop one tuple from every answer, for tests")
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args(argv)
    if args.inject_wrong_answer:
        inject_wrong_answer()
    result = run_workload(
        args.workload, args.seed, args.seconds, trace=bool(args.trace),
        mode=args.mode, tiny=args.tiny, out_dir=args.out_dir,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
