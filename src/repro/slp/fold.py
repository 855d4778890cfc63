"""One bottom-up fold over SLP DAGs, memoised per arena (Section 4.2).

Compressed membership, pattern matching and spanner evaluation are the
same idea: every SLP node gets a value, a terminal's value depends only
on its character, and a pair node's value is ``combine(left, right)``.
:class:`ArenaFold` runs that pass once for all three; a subclass supplies
only

* ``_leaf(ch)`` — the value of a terminal, and
* ``_combine(lefts, rights)`` — the values of m pair nodes, batched.

Everything else lives here:

* **the memo** — ``serial → node → value``, one dict per arena, with
  per-arena byte counts, so rollback invalidation, dead-arena purges and
  stats are O(that arena's entries) and never scan other arenas;
* **sealing** — a node is sealed once its whole subtree is cached.  A
  sealed root answers a repeat call without any walk, and the discovery
  walk (:meth:`SLP.frontier`) never descends below a sealed node, so after
  a CDE edit or append (arena mutations only append nodes) finding the
  fresh nodes costs O(fresh + log n);
* **the wave schedule** — fresh pair nodes are grouped by depth, and each
  depth-wave is one ``_combine`` call.  Within a wave, nodes whose two
  operand values are the same objects are combined once, and every result
  is interned by content for the rest of the pass, so a repeat in a later
  wave is caught by that identity test too — repetitive documents (the
  reason SLPs exist) repeat most combines verbatim;
* **the pure-compute / merge / seal halves** that
  :mod:`repro.parallel` runs on worker threads and processes;
* **rollback and collection** — :meth:`ArenaFold.invalidate_from` drops
  the ids a transaction rollback will reuse, and a finalizer purges a
  collected arena's entries.  The finalizer holds the fold only weakly,
  so an arena does not keep a discarded evaluator alive either.

Values are plain objects, a :class:`~repro.kernels.bitmat.BitMatrix`, or
flat tuples of them, numpy arrays and hashables; their array parts are
what byte accounting counts, content interning compares and the end of a
pass strips of dense mirrors.
"""

from __future__ import annotations

import time
import weakref

import numpy as np

from repro import obs
from repro.kernels.bitmat import BitMatrix, intern_many
from repro.slp.slp import SLP

__all__ = ["ArenaFold"]


def _parts(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


def _nbytes(value) -> int:
    if isinstance(value, BitMatrix):
        return value.rows.nbytes
    total = 0
    for part in _parts(value):
        if isinstance(part, BitMatrix):
            total += part.rows.nbytes
        elif isinstance(part, np.ndarray):
            total += part.nbytes
    return total


def _intern(results: list, matrices: dict, values: dict) -> list:
    """The pass-canonical objects equal to one wave's *results*.

    The wave's matrices go through one :func:`intern_many` call against
    the pass pool *matrices* (equal matrices inside different values
    become one object, counted by ``kernels.mm_interned``), then every
    value is pooled in *values* by its parts."""
    flat = [
        part for value in results for part in _parts(value)
        if isinstance(part, BitMatrix)
    ]
    pooled = intern_many(matrices, flat)
    if obs.enabled():
        obs.metrics().counter("kernels.mm_interned").inc(
            sum(p is not m for p, m in zip(pooled, flat))
        )
    canonical = iter(pooled)
    out = []
    for value in results:
        parts = tuple(
            next(canonical) if isinstance(part, BitMatrix) else part
            for part in _parts(value)
        )
        key = tuple(
            id(part) if isinstance(part, BitMatrix)
            else part.tobytes() if isinstance(part, np.ndarray) else part
            for part in parts
        )
        out.append(values.setdefault(
            key, parts if isinstance(value, tuple) else parts[0]
        ))
    return out


def _purge(fold_ref, serial: int) -> None:
    fold = fold_ref()
    if fold is not None:
        fold._purge_arena(serial)


class ArenaFold:
    """A memoised bottom-up fold over the nodes of any number of arenas."""

    #: metric stem of the fold's counters (``None``: not instrumented)
    _metric: str | None = None

    def __init__(self) -> None:
        #: serial -> node -> value (the two-level, per-arena memo)
        self._arena_memo: dict[int, dict[int, object]] = {}
        #: serial -> resident array bytes of that arena's values
        self._bytes: dict[int, int] = {}
        #: serial -> node ids whose whole subtree is cached
        self._sealed: dict[int, set[int]] = {}
        #: serial -> finalizer purging that arena on collection
        self._finalizers: dict[int, weakref.finalize] = {}

    def _leaf(self, ch: str):
        raise NotImplementedError

    def _combine(self, lefts: list, rights: list) -> list:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # the fold
    # ------------------------------------------------------------------
    def preprocess(self, slp: SLP, node: int, budget=None) -> int:
        """Compute the value of every node reachable from *node*; returns
        how many were *fresh* (0 when everything was cached already).

        A :class:`~repro.util.Budget` is charged one step per fresh node.
        A sealed root returns at once; otherwise the discovery walk stops
        at sealed children, the fresh nodes are computed wave by wave
        (:meth:`compute_entries`), adopted (:meth:`merge_entries`) and the
        walked nodes sealed bottom-up.

        With :mod:`repro.obs` enabled an instrumented fold records
        ``<stem>.cache_hits`` / ``cache_misses`` / ``sealed_hits`` /
        ``walk_visited`` / ``walk_skipped`` / ``kernel_ns`` — once per
        call, outside the node loop — and the wave loop adds the nodes it
        combined by identity to ``kernels.mm_collapsed``."""
        metric = self._metric if obs.enabled() else None
        if node in self._sealed.get(slp.serial, ()):
            if metric:
                registry = obs.metrics()
                registry.counter(metric + ".sealed_hits").inc()
                registry.counter(metric + ".cache_hits").inc()
            return 0
        t0 = time.perf_counter_ns() if metric else 0
        fresh_entries, walked, skipped = self._compute(slp, node, budget)
        fresh = self.merge_entries(slp, fresh_entries)
        self._seal(slp, walked)
        if metric:
            registry = obs.metrics()
            registry.counter(metric + ".cache_misses").inc(fresh)
            registry.counter(metric + ".cache_hits").inc(len(walked) - fresh)
            registry.counter(metric + ".walk_visited").inc(len(walked))
            registry.counter(metric + ".walk_skipped").inc(skipped)
            registry.counter(metric + ".kernel_ns").inc(
                time.perf_counter_ns() - t0
            )
        return fresh

    def value(self, slp: SLP, node: int, budget=None):
        """The value of ``D(node)`` (preprocessing whatever is missing)."""
        self.preprocess(slp, node, budget)
        return self._arena_memo[slp.serial][node]

    def compute_entries(self, slp: SLP, node: int, budget=None) -> tuple[dict, int]:
        """The fold as a pure function: ``(fresh, visited)`` where *fresh*
        maps every reachable uncached node to its value and *visited*
        counts the nodes the discovery walk examined.

        Nothing on the fold is mutated and the memo is only read, so any
        number of threads may run this concurrently while no thread
        mutates the fold; each then adopts its result through
        :meth:`merge_entries` on the owning thread.  Documents sharing
        subtrees may compute a shared node more than once; the merge keeps
        one copy."""
        fresh, walked, _ = self._compute(slp, node, budget)
        return fresh, len(walked)

    def _compute(self, slp: SLP, node: int, budget=None):
        """:meth:`compute_entries` plus the walk: ``(fresh, walked,
        skipped)``, *walked* in bottom-up order and *skipped* counting the
        sealed nodes the walk stopped at."""
        serial = slp.serial
        memo = self._arena_memo.get(serial, {})
        walked, skipped = slp.frontier(node, self._sealed.get(serial, ()))
        fresh: dict[int, object] = {}
        depth: dict[int, int] = {}
        waves: list[list[tuple[int, int, int]]] = []
        for current in walked:
            if current in memo:
                continue
            if budget is not None:
                budget.step()
            if slp.is_terminal(current):
                fresh[current] = self._leaf(slp.char(current))
                continue
            left, right = slp.children(current)
            level = max(depth.get(left, 0), depth.get(right, 0)) + 1
            depth[current] = level
            if level > len(waves):
                waves.append([])
            waves[level - 1].append((current, left, right))
        matrices: dict = {}
        values: dict = {}
        produced: list = []
        collapsed = 0
        for wave in waves:
            group_of: dict[tuple[int, int], int] = {}
            lefts: list = []
            rights: list = []
            groups: list[int] = []
            for _, left, right in wave:
                value_l = fresh[left] if left in fresh else memo[left]
                value_r = fresh[right] if right in fresh else memo[right]
                group = group_of.setdefault(
                    (id(value_l), id(value_r)), len(lefts)
                )
                if group == len(lefts):
                    lefts.append(value_l)
                    rights.append(value_r)
                groups.append(group)
            results = _intern(self._combine(lefts, rights), matrices, values)
            produced.extend(results)
            collapsed += len(wave) - len(lefts)
            for (current, _, _), group in zip(wave, groups):
                fresh[current] = results[group]
        # pair matrices stay resident packed-only: drop the dense mirrors
        # they picked up during the pass (leaf values keep theirs — they
        # are the hottest operands)
        for value in produced:
            for part in _parts(value):
                if isinstance(part, BitMatrix):
                    part.release_dense()
        if collapsed and self._metric and obs.enabled():
            # a node combined by identity is a product saved, as inside
            # the kernels
            obs.metrics().counter("kernels.mm_collapsed").inc(collapsed)
        return fresh, walked, skipped

    def merge_entries(self, slp: SLP, fresh: dict) -> int:
        """Adopt values produced by :meth:`compute_entries`; returns how
        many were added (nodes another merge beat us to keep their value —
        values for one node are interchangeable)."""
        self.ensure_finalizer(slp)
        serial = slp.serial
        memo = self._arena_memo.setdefault(serial, {})
        added = nbytes = 0
        for current, value in fresh.items():
            if current not in memo:
                memo[current] = value
                nbytes += _nbytes(value)
                added += 1
        self._bytes[serial] = self._bytes.get(serial, 0) + nbytes
        return added

    def _seal(self, slp: SLP, walked: list[int]) -> None:
        """Seal every walked node whose subtree is now fully cached.

        *walked* is bottom-up, so children precede parents and a child
        missing from it was sealed already (the walk stops only there);
        sealing propagates in one linear pass."""
        memo = self._arena_memo.get(slp.serial)
        if memo is None:
            return
        sealed = self._sealed.setdefault(slp.serial, set())
        for current in walked:
            if current not in memo:
                continue
            if slp.is_terminal(current):
                sealed.add(current)
                continue
            left, right = slp.children(current)
            if left in sealed and right in sealed:
                sealed.add(current)

    def seal_subtree(self, slp: SLP, node: int) -> bool:
        """Seal every fully cached subtree below *node*; returns whether
        *node* itself is sealed.  The post-merge half of
        :func:`repro.parallel.preprocess_bulk`."""
        if not self.is_sealed(slp, node):
            walked, _ = slp.frontier(node, self._sealed.get(slp.serial, ()))
            self._seal(slp, walked)
        return self.is_sealed(slp, node)

    def ensure_finalizer(self, slp: SLP) -> None:
        """Arm the purge-on-collection hook for *slp*'s arena (idempotent).

        Must run on the thread that owns the fold before worker threads
        start producing values for that arena."""
        serial = slp.serial
        if serial not in self._finalizers:
            self._finalizers[serial] = weakref.finalize(
                slp, _purge, weakref.ref(self), serial
            )

    def _purge_arena(self, serial: int) -> None:
        self._finalizers.pop(serial, None)
        self._sealed.pop(serial, None)
        self._arena_memo.pop(serial, None)
        self._bytes.pop(serial, None)

    def invalidate_from(self, slp: SLP, mark: int) -> int:
        """Drop cached values for nodes of *slp* with id ``>= mark``.

        Transaction rollback truncates the arena back to a mark and later
        allocations *reuse* the freed ids, so values (and sealed bits)
        keyed on them would silently describe the wrong document.  Sealed
        ids below the mark stay sealed: children always have smaller ids
        than parents, so their subtrees survive the truncation.
        O(this arena's entries); returns the number dropped."""
        serial = slp.serial
        memo = self._arena_memo.get(serial)
        if not memo:
            return 0
        stale = [current for current in memo if current >= mark]
        for current in stale:
            self._bytes[serial] -= _nbytes(memo.pop(current))
        sealed = self._sealed.get(serial)
        if sealed:
            self._sealed[serial] = {n for n in sealed if n < mark}
        return len(stale)

    # ------------------------------------------------------------------
    # reads (all O(1) or O(this arena's entries))
    # ------------------------------------------------------------------
    def arena(self, slp: SLP) -> dict:
        """The live ``node → value`` memo of *slp*'s arena (read-only)."""
        return self._arena_memo.get(slp.serial, {})

    def node_entry(self, slp: SLP, node: int):
        """The cached value of one node, or ``None``."""
        return self.arena(slp).get(node)

    def cached_node_ids(self, slp: SLP) -> list[int]:
        """The node ids of *slp* with a cached value (arbitrary order)."""
        return list(self.arena(slp))

    def cached_nodes(self, serial: int | None = None) -> int:
        """How many values are cached — for one arena, or overall."""
        if serial is None:
            return sum(len(memo) for memo in self._arena_memo.values())
        return len(self._arena_memo.get(serial, ()))

    def is_sealed(self, slp: SLP, node: int) -> bool:
        """Is *node*'s entire subtree cached (the O(1) repeat path)?"""
        return node in self._sealed.get(slp.serial, ())

    def sealed_nodes(self, serial: int | None = None) -> int:
        """How many nodes are sealed — for one arena, or overall."""
        if serial is None:
            return sum(len(sealed) for sealed in self._sealed.values())
        return len(self._sealed.get(serial, ()))

    def cache_bytes(self) -> int:
        """Resident array bytes of every cached value."""
        return sum(self._bytes.values())

    def arena_cache_stats(self, serial: int) -> dict:
        """``{"entries", "bytes", "sealed"}`` for one arena, in O(1)."""
        return {
            "entries": len(self._arena_memo.get(serial, ())),
            "bytes": self._bytes.get(serial, 0),
            "sealed": len(self._sealed.get(serial, ())),
        }
