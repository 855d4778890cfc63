"""Constant-delay enumeration for regular spanners (paper Section 2.5).

The two-phase algorithm:

1. **Preprocessing** (linear in the document, data complexity): compile the
   spanner to a deterministic extended vset-automaton (a one-time,
   document-independent cost hidden in the O-notation of data complexity)
   and build the :class:`~repro.enumeration.product.ProductIndex`.
2. **Enumeration**: depth-first search over the *emission tree* — the tree
   of useful marker-set emissions.  The DFS stack has depth at most
   ``2·|X| + 1`` (each emission places at least one of the ``2·|X|``
   markers), and the jump pointers of the product index let the search move
   between consecutive useful emissions in O(1).  The delay between two
   output tuples is therefore **O(|X|)** — independent of the document
   length — and outputs are duplicate-free because the automaton is
   deterministic (every output corresponds to exactly one run).

This realises, at the granularity the survey describes them, the guarantees
of Florenzano et al. [10] and Amarilli et al. [2].
"""

from __future__ import annotations

from typing import Iterator

from repro import obs
from repro.automata.evset import DeterministicEVA, ExtendedVSetAutomaton
from repro.core.spans import SpanRelation, SpanTuple
from repro.enumeration.naive import emissions_to_tuple
from repro.enumeration.product import ProductIndex
from repro.obs.profile import DelayProfiler

__all__ = ["Enumerator", "measure_delays", "profile_delays"]

_NO_STATE = -1


class Enumerator:
    """Two-phase enumerator for a regular spanner.

    Accepts any of the regular-spanner representations — a
    :class:`~repro.automata.vset.VSetAutomaton`, an
    :class:`~repro.automata.evset.ExtendedVSetAutomaton`, or an already
    deterministic :class:`~repro.automata.evset.DeterministicEVA` — and
    compiles down once; the compiled automaton is reused across documents.
    """

    def __init__(self, spanner) -> None:
        if isinstance(spanner, DeterministicEVA):
            det = spanner
        elif isinstance(spanner, ExtendedVSetAutomaton):
            det = spanner.determinize()
        else:
            det = ExtendedVSetAutomaton.from_vset(spanner).determinize()
        self.det = det

    # ------------------------------------------------------------------
    # phase 1
    # ------------------------------------------------------------------
    def preprocess(self, doc: str, budget=None) -> ProductIndex:
        """Build the product index for *doc* (linear-time preprocessing).

        A :class:`~repro.util.Budget` guards the Θ(n·|Q|) index size
        against ``max_bytes`` and is charged one step per position."""
        if budget is not None:
            budget.charge_bytes(len(doc), what="enumeration preprocessing")
        with obs.tracer().span("enumerate.preprocess", doc_length=len(doc)):
            return ProductIndex(self.det, doc, budget)

    # ------------------------------------------------------------------
    # phase 2
    # ------------------------------------------------------------------
    def enumerate_index(self, index: ProductIndex, budget=None) -> Iterator[SpanTuple]:
        """Enumerate the span relation from a prebuilt index.

        When :mod:`repro.obs` is enabled, the stream runs inside an
        ``enumerate.stream`` span and each tuple's production delay is
        recorded in the ``enumeration.delay_ns`` histogram — the empirical
        form of the constant-delay claim.  Disabled, the only extra cost is
        one boolean check per *call* (not per tuple)."""
        stream = map(emissions_to_tuple, self.enumerate_emissions(index, budget))
        if not obs.enabled():
            yield from stream
            return
        profiler = DelayProfiler(obs.metrics().histogram("enumeration.delay_ns"))
        with obs.tracer().span("enumerate.stream", doc_length=index.length):
            yield from profiler.wrap(stream)

    def enumerate_emissions(
        self, index: ProductIndex, budget=None
    ) -> Iterator[tuple[tuple[int, object], ...]]:
        """Enumerate outputs as tuples of (span position, marker) emissions.

        A :class:`~repro.util.Budget` is charged one step per jump of the
        index's jump pointers and one per useful marker-set edge."""
        det = self.det
        n = index.length

        start = det.initial
        if index.acc_pure[0][start]:
            yield ()
        # DFS over the emission tree with an explicit stack of live chain
        # iterators (depth is 2·|X|+1 on functional spanners but can reach
        # the document length on pathological ones — never recurse).  Each
        # frame pairs the suspended chain with the emissions accumulated on
        # the path down to it.
        stack: list[tuple[Iterator, tuple]] = [
            (index.chain(start, 0, budget), ())
        ]
        while stack:
            chain_iter, prefix = stack[-1]
            descended = False
            for j, block, target in chain_iter:
                # *target* is the state reached right after consuming the
                # marker block at char-index *j*
                if budget is not None:
                    budget.step()
                emitted = prefix + tuple((j + 1, m) for m in block)
                if index.acc_pure[j][target]:
                    yield emitted
                if j < n:
                    after_char = index.char_next[j][target]
                    if after_char != _NO_STATE:
                        stack.append(
                            (index.chain(after_char, j + 1, budget), emitted)
                        )
                        descended = True
                        break
            if not descended:
                stack.pop()

    def enumerate(self, doc: str, budget=None) -> Iterator[SpanTuple]:
        """Preprocess and enumerate ``S(doc)`` without repetition."""
        yield from self.enumerate_index(self.preprocess(doc, budget), budget)

    def evaluate(self, doc: str, budget=None) -> SpanRelation:
        """Materialise the relation via the enumeration pipeline."""
        return SpanRelation(self.det.variables, self.enumerate(doc, budget))


def profile_delays(iterator: Iterator) -> tuple[list, DelayProfiler]:
    """Drain *iterator* under a :class:`~repro.obs.profile.DelayProfiler`.

    Returns ``(items, profiler)``; the profiler holds the per-item delay
    histogram (ns), raw samples, and percentile queries.  This is the
    histogram-backed successor of :func:`measure_delays` and what the
    delay-profile benchmarks (C1, C3, O1) use to test that delays stay
    flat as documents grow.
    """
    profiler = DelayProfiler(keep_samples=True)
    items = profiler.drain(iterator)
    return items, profiler


def measure_delays(iterator: Iterator) -> tuple[list, list[float]]:
    """Drain *iterator*, recording the monotonic delay before each item.

    Returns ``(items, delays)`` where ``delays[k]`` is the time in seconds
    spent producing item ``k`` (including, for ``k = 0``, any lazy setup in
    the iterator itself but not the preprocessing if that already
    happened).  Thin compatibility wrapper over :func:`profile_delays` —
    timing is :func:`time.perf_counter_ns` throughout."""
    items, profiler = profile_delays(iterator)
    assert profiler.samples_ns is not None
    return items, [ns / 1e9 for ns in profiler.samples_ns]
