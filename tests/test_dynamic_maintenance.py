"""Sublinear incremental maintenance (ISSUE 9): sealed-root discovery,
per-arena cache indexes, and the rollback aliasing hazard.

The paper's dynamic setting (Section 4.2, [40]) promises that after a CDE
edit only the O(|φ|·log d) fresh nodes cost anything.  These tests pin the
engine to that promise: a repeat query on a sealed root performs *zero*
topological visits, a post-append walk visits O(fresh + log n) nodes, and
``invalidate_from`` unseals exactly what rollback's id reuse could alias.

The 200-seed differential lane (``slow_fuzz``, excluded by default) asserts
``edit + incremental preprocess == rebuild-from-scratch`` bit-for-bit on
the (σ, T, T_em) entries, including rollback-then-reuse of node ids and
astral-plane unicode documents.
"""

import gc
import random

import numpy as np
import pytest

from repro import SpannerDB, obs
from repro.regex import compile_nfa, spanner_from_regex
from repro.slp import (
    CompressedMembership,
    CompressedPatternMatcher,
    Delete,
    Doc,
    DocumentDatabase,
    Editor,
    SLP,
    SLPSpannerEvaluator,
    balanced_node,
    power_node,
    simulate_uncompressed,
)
from repro.stream import WindowedSpannerStream


PATTERN = "(a|b)*!x{ab}(a|b)*"

FUZZ_PATTERNS = [
    "!x{(a|b)*}!y{b}!z{(a|b)*}",
    "(a|b)*!x{ab}(a|b)*",
    "(!x{a})?(a|b)*",
]


@pytest.fixture(autouse=True)
def _obs_reset():
    obs.configure(enabled=False, reset=True)
    yield
    obs.configure(enabled=False, reset=True)


def _counter(name):
    return obs.metrics().counter(name).value


def _entries_equal(left, right):
    return (
        np.array_equal(left[0], right[0])
        and np.array_equal(left[1].rows, right[1].rows)
        and np.array_equal(left[2].rows, right[2].rows)
    )


def _assert_bit_for_bit(evaluator, cold, slp, node):
    """Every entry reachable from *node* matches a cold rebuild exactly."""
    cold.preprocess(slp, node)
    for current in slp.topological(node):
        warm = evaluator.node_entry(slp, current)
        fresh = cold.node_entry(slp, current)
        assert warm is not None and fresh is not None
        assert _entries_equal(warm, fresh), f"entry drift at node {current}"


# ---------------------------------------------------------------------------
# sealed fast path
# ---------------------------------------------------------------------------
class TestSealedFastPath:
    def test_repeat_preprocess_on_sealed_root_walks_nothing(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
        slp = SLP()
        node = power_node(slp, "ab", 10)
        evaluator.preprocess(slp, node)
        assert evaluator.is_sealed(slp, node)
        obs.configure(enabled=True)
        assert evaluator.preprocess(slp, node) == 0
        assert _counter("slp.eval.walk_visited") == 0
        assert _counter("slp.eval.sealed_hits") == 1
        # warm-store counter semantics are preserved (test_obs relies on it)
        assert _counter("slp.eval.cache_hits") == 1
        assert _counter("slp.eval.cache_misses") == 0

    def test_append_walk_is_frontier_sized_not_document_sized(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
        slp = SLP()
        node = power_node(slp, "ab", 14)  # 2^14 repetitions, ~30 nodes
        evaluator.preprocess(slp, node)
        total = len(slp.topological(node))
        obs.configure(enabled=True)
        bigger = slp.append_text(node, "abba")
        evaluator.preprocess(slp, bigger)
        visited = _counter("slp.eval.walk_visited")
        assert 0 < visited < total, "append walk re-visited the old document"
        assert _counter("slp.eval.walk_skipped") >= 1
        assert evaluator.is_sealed(slp, bigger)

    def test_cde_edit_discovery_prunes_at_sealed_children(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex("(a|b|c|d)*!x{ab}(a|b|c|d)*"))
        slp = SLP()
        node = power_node(slp, "abcd", 12)
        db = DocumentDatabase(slp)
        db.add_node("big", node)
        editor = Editor(db)
        evaluator.preprocess(slp, node)
        total = len(slp.topological(node))
        obs.configure(enabled=True)
        edited = editor.apply("edited", Delete(Doc("big"), 100, 2000))
        evaluator.preprocess(slp, edited)
        assert 0 < _counter("slp.eval.walk_visited") < total
        assert _counter("slp.eval.walk_skipped") >= 1

    def test_enumerate_and_nonempty_reuse_sealed_root(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
        slp = SLP()
        node = balanced_node(slp, "abab")
        want = evaluator.evaluate(slp, node)
        obs.configure(enabled=True)
        assert evaluator.is_nonempty(slp, node)
        assert evaluator.evaluate(slp, node) == want
        assert _counter("slp.eval.walk_visited") == 0


# ---------------------------------------------------------------------------
# unsealing: rollback aliasing and arena collection
# ---------------------------------------------------------------------------
#: every compressed evaluator built on the shared fold, with a query whose
#: answer differs between the documents "aaba" and "aabb"
FOLDS = {
    "spanner": (
        lambda: SLPSpannerEvaluator(spanner_from_regex("(a|b)*!x{ba}(a|b)*")),
        lambda fold, slp, node: fold.evaluate(slp, node),
    ),
    "membership": (
        lambda: CompressedMembership(compile_nfa("(a|b)*a")),
        lambda fold, slp, node: fold.accepts(slp, node),
    ),
    "pattern": (
        lambda: CompressedPatternMatcher("ba"),
        lambda fold, slp, node: fold.count(slp, node),
    ),
}


class TestUnsealing:
    @pytest.mark.parametrize("kind", FOLDS)
    def test_invalidate_from_unseals_reused_ids(self, kind):
        """Rollback truncates the arena and later allocations *reuse* the
        freed ids; a stale sealed bit would answer for the wrong document."""
        make, answer = FOLDS[kind]
        fold = make()
        slp = SLP()
        base = balanced_node(slp, "aa")
        answer(fold, slp, base)
        mark = slp.num_nodes()
        first = slp.append_text(base, "ba")
        stale = answer(fold, slp, first)
        assert fold.is_sealed(slp, first)
        # transaction rollback: invalidate above the mark, then truncate
        fold.invalidate_from(slp, mark)
        slp.truncate(mark)
        assert not fold.is_sealed(slp, first)
        assert fold.is_sealed(slp, base), "rollback unsealed survivors"
        # reuse the freed ids for *different* content ("aabb" vs "aaba")
        second = slp.append_text(base, "bb")
        assert second == first, "precondition: node id reused"
        cached = fold.cached_nodes(slp.serial)
        got = answer(fold, slp, second)
        assert fold.cached_nodes(slp.serial) > cached, (
            "stale sealed root answered after rollback"
        )
        assert got != stale, "reused id kept the old document's value"
        assert got == answer(make(), slp, second)

    @pytest.mark.parametrize("kind", FOLDS)
    def test_purge_arena_drops_sealed_roots(self, kind):
        make, answer = FOLDS[kind]
        fold = make()
        slp = SLP()
        node = balanced_node(slp, "abba")
        answer(fold, slp, node)
        serial = slp.serial
        assert fold.cached_nodes(serial) > 0
        assert fold.is_sealed(slp, node)
        del slp, node
        gc.collect()
        assert fold.cached_nodes(serial) == 0, "dead arena still cached"
        assert fold.arena_cache_stats(serial) == {
            "entries": 0,
            "bytes": 0,
            "sealed": 0,
        }


# ---------------------------------------------------------------------------
# membership + pattern sealed paths (differential vs cold)
# ---------------------------------------------------------------------------
class TestMembershipSealed:
    def test_incremental_matches_cold_path_and_simulation(self):
        nfa = compile_nfa("(ab)*")
        oracle = CompressedMembership(nfa)
        slp = SLP()
        node = power_node(slp, "ab", 8)
        text = "ab" * (2**8)
        assert oracle.accepts(slp, node)
        assert oracle.is_sealed(slp, node)
        for chunk in ["ab", "ba", "abab"]:
            node = slp.append_text(node, chunk)
            text += chunk
            cold = CompressedMembership(nfa)
            assert oracle.accepts(slp, node) == cold.accepts(slp, node)
            assert oracle.accepts(slp, node) == simulate_uncompressed(nfa, text)
            assert oracle.is_sealed(slp, node)

    def test_sealed_repeat_and_append_counters(self):
        oracle = CompressedMembership(compile_nfa("(ab)*"))
        slp = SLP()
        node = power_node(slp, "ab", 10)
        oracle.accepts(slp, node)
        total = oracle.cached_nodes(slp.serial)
        obs.configure(enabled=True)
        oracle.accepts(slp, node)
        assert _counter("slp.membership.sealed_hits") == 1
        assert _counter("slp.membership.cache_misses") == 0
        bigger = slp.append_text(node, "ab")
        oracle.accepts(slp, bigger)
        fresh = _counter("slp.membership.cache_misses")
        assert 0 < fresh < total, "append re-walked the sealed document"

    def test_invalidate_from_unseals_membership(self):
        nfa = compile_nfa("(ab)*")
        oracle = CompressedMembership(nfa)
        slp = SLP()
        base = power_node(slp, "ab", 4)
        oracle.accepts(slp, base)
        mark = slp.num_nodes()
        first = slp.append_text(base, "ba")
        assert not oracle.accepts(slp, first)
        oracle.invalidate_from(slp, mark)
        slp.truncate(mark)
        assert not oracle.is_sealed(slp, first)
        # the freed id range is reallocated for different content; a stale
        # matrix on any reused id would poison the fresh root's product
        second = slp.append_text(base, "bb")
        assert slp.num_nodes() > mark
        cold = CompressedMembership(nfa)
        assert np.array_equal(
            oracle.node_bitmatrix(slp, second).rows,
            cold.node_bitmatrix(slp, second).rows,
        )
        assert oracle.accepts(slp, second) == simulate_uncompressed(
            nfa, "ab" * 16 + "bb"
        )

    def test_purged_arena_drops_membership_matrices(self):
        oracle = CompressedMembership(compile_nfa("(ab)*"))
        slp = SLP()
        node = balanced_node(slp, "abab")
        oracle.accepts(slp, node)
        serial = slp.serial
        assert oracle.cached_nodes(serial) > 0
        del slp, node
        gc.collect()
        assert oracle.cached_nodes(serial) == 0


class TestPatternSealed:
    def test_incremental_counts_match_cold_matcher(self):
        matcher = CompressedPatternMatcher("aba")
        slp = SLP()
        node = balanced_node(slp, "ababab")
        text = "ababab"
        assert matcher.count(slp, node) == 2
        assert matcher.is_sealed(slp, node)
        for chunk in ["ab", "a", "bab"]:
            node = slp.append_text(node, chunk)
            text += chunk
            cold = CompressedPatternMatcher("aba")
            assert matcher.count(slp, node) == cold.count(slp, node)
            assert list(matcher.occurrences(slp, node)) == list(
                cold.occurrences(slp, node)
            )
        assert matcher.cached_nodes(slp.serial) == matcher.cached_nodes()

    def test_invalidate_from_unseals_pattern(self):
        matcher = CompressedPatternMatcher("ab")
        slp = SLP()
        base = balanced_node(slp, "abab")
        matcher.count(slp, base)
        mark = slp.num_nodes()
        first = slp.append_text(base, "ab")
        assert matcher.count(slp, first) == 3
        matcher.invalidate_from(slp, mark)
        slp.truncate(mark)
        assert not matcher.is_sealed(slp, first)
        # freed ids come back with different content; stale counts on any
        # reused id would corrupt the fresh root's sum ("ababba" has 2)
        second = slp.append_text(base, "ba")
        assert slp.num_nodes() > mark
        assert matcher.count(slp, second) == 2
        cold = CompressedPatternMatcher("ab")
        assert matcher.count(slp, second) == cold.count(slp, second)


# ---------------------------------------------------------------------------
# stack integration: db.stats() and stream stats
# ---------------------------------------------------------------------------
class TestStackIntegration:
    def test_db_stats_report_per_spanner_bytes_and_sealed(self):
        db = SpannerDB()
        db.add_document("logs", "abab" * 32)
        db.register_spanner("m", PATTERN)
        list(db.query("m", "logs"))
        stats = db.stats()
        cache = stats["spanner_caches"]["m"]
        assert cache["entries"] > 0
        assert cache["bytes"] > 0
        assert cache["sealed"] > 0
        assert stats["evaluator_cache_entries"] == cache["entries"]
        assert stats["evaluator_cache_bytes"] == cache["bytes"]
        assert stats["cached_matrices"]["m"] == cache["entries"]

    def test_db_edit_then_query_discovers_only_fresh_frontier(self):
        db = SpannerDB()
        db.add_document("logs", "ab" * 512)
        db.register_spanner("m", PATTERN)
        list(db.query("m", "logs"))
        obs.configure(enabled=True)
        db.edit("edited", Delete(Doc("logs"), 4, 40))
        list(db.query("m", "edited"))
        visited = _counter("slp.eval.walk_visited")
        assert 0 < visited < db.stats()["slp_nodes"]

    def test_stream_stats_expose_sealed_nodes(self):
        stream = WindowedSpannerStream(PATTERN)
        stream.append("abab")
        stream.append("ba" * 8)
        stats = stream.stats()
        assert stats["sealed_nodes"] > 0
        assert stats["cached_nodes"] >= stats["sealed_nodes"]


# ---------------------------------------------------------------------------
# 200-seed differential lane (slow_fuzz, excluded by default)
# ---------------------------------------------------------------------------
_ASTRAL = "\U0001f600\U0001f680\U00010348"


def _random_text(rng, length):
    return "".join(rng.choice("ab" + _ASTRAL) for _ in range(length))


@pytest.mark.slow_fuzz
@pytest.mark.parametrize("seed", range(200))
def test_incremental_equals_rebuild_bit_for_bit(seed):
    """edit + incremental preprocess == rebuild-from-scratch, bit for bit,
    across appends, CDE deletes, rollback-then-reuse of node ids, and
    astral-plane unicode documents."""
    rng = random.Random(seed)
    pattern = rng.choice(FUZZ_PATTERNS)
    spanner = spanner_from_regex(pattern)
    evaluator = SLPSpannerEvaluator(spanner)
    slp = SLP()
    node = balanced_node(slp, _random_text(rng, rng.randint(8, 40)))
    evaluator.preprocess(slp, node)
    for _ in range(rng.randint(2, 5)):
        op = rng.choice(["append", "delete", "rollback"])
        if op == "append":
            node = slp.append_text(node, _random_text(rng, rng.randint(1, 12)))
        elif op == "delete":
            length = slp.length(node)
            if length < 2:
                continue
            # CDE factor ranges are 1-based inclusive; keep >= 1 char
            i = rng.randint(1, length)
            j = rng.randint(i, length)
            if i == 1 and j == length:
                continue
            db = DocumentDatabase(slp)
            db.add_node("d", node)
            node = Editor(db).apply("e", Delete(Doc("d"), i, j))
        else:
            mark = slp.num_nodes()
            scratch = slp.append_text(node, _random_text(rng, rng.randint(1, 8)))
            evaluator.preprocess(slp, scratch)
            evaluator.invalidate_from(slp, mark)
            slp.truncate(mark)
            assert not evaluator.is_sealed(slp, scratch)
            # reuse the freed ids for different content (the aliasing hazard)
            node = slp.append_text(node, _random_text(rng, rng.randint(1, 8)))
        evaluator.preprocess(slp, node)
        assert evaluator.is_sealed(slp, node)
        cold = SLPSpannerEvaluator(spanner)
        _assert_bit_for_bit(evaluator, cold, slp, node)
        assert evaluator.evaluate(slp, node) == cold.evaluate(slp, node)
