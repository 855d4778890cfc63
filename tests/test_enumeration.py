"""Tests for the enumeration pipeline (paper Section 2.5, experiments C1)."""

from hypothesis import given, settings, strategies as st

from repro.core import Span, SpanRelation, SpanTuple
from repro.enumeration import Enumerator, ProductIndex, evaluate_vset, measure_delays
from repro.regex import spanner_from_regex
from repro.spanners import RegularSpanner
from repro.util import Budget


PATTERNS = [
    "!x{(a|b)*}!y{b}!z{(a|b)*}",  # Example 1.1
    "(a|b)*!x{ab}(a|b)*",          # all occurrences of 'ab'
    "!x{a*}",                       # prefixes of a-runs (only whole doc)
    "(a|b)*!x{a(a|b)*b}(a|b)*",    # factors starting a, ending b
    "(!x{a})?(a|b)*",              # schemaless: x sometimes undefined
    "(a|b)*!x{a+}!y{b+}(a|b)*",    # two adjacent captures
]

DOCS = ["", "a", "b", "ab", "ba", "abab", "ababbab", "bbbb", "aabba"]


class TestCorrectness:
    def test_agrees_with_naive_on_catalogue(self):
        for pattern in PATTERNS:
            spanner = spanner_from_regex(pattern)
            enumerator = Enumerator(spanner)
            for doc in DOCS:
                expected = evaluate_vset(spanner, doc)
                got = SpanRelation(spanner.variables, enumerator.enumerate(doc))
                assert got == expected, (pattern, doc)

    def test_no_duplicates(self):
        for pattern in PATTERNS:
            enumerator = Enumerator(spanner_from_regex(pattern))
            for doc in DOCS:
                produced = list(enumerator.enumerate(doc))
                assert len(produced) == len(set(produced)), (pattern, doc)

    def test_empty_document(self):
        enumerator = Enumerator(spanner_from_regex("!x{a*}"))
        assert list(enumerator.enumerate("")) == [SpanTuple.of(x=Span(1, 1))]

    def test_empty_result(self):
        enumerator = Enumerator(spanner_from_regex("!x{c}"))
        assert list(enumerator.enumerate("ab")) == []

    @settings(max_examples=30, deadline=None)
    @given(st.text(alphabet="ab", max_size=7))
    def test_property_against_naive(self, doc):
        pattern = "(a|b)*!x{a(a|b)*}!y{b*}(a|b)*"
        spanner = spanner_from_regex(pattern)
        got = SpanRelation(spanner.variables, Enumerator(spanner).enumerate(doc))
        assert got == evaluate_vset(spanner, doc)


class TestTwoPhaseStructure:
    def test_preprocessing_is_reusable(self):
        enumerator = Enumerator(spanner_from_regex("(a|b)*!x{ab}(a|b)*"))
        index = enumerator.preprocess("ababab")
        first = list(enumerator.enumerate_index(index))
        second = list(enumerator.enumerate_index(index))
        assert first == second
        assert len(first) == 3  # 'ab' occurs 3 times (positions 1, 3, 5)

    def test_index_size_linear_in_document(self):
        enumerator = Enumerator(spanner_from_regex("(a|b)*!x{ab}(a|b)*"))
        small = enumerator.preprocess("ab" * 10).size_in_cells()
        large = enumerator.preprocess("ab" * 100).size_in_cells()
        # linear: 10x document => ~10x cells
        assert 8 <= large / small <= 12

    def test_enumeration_is_lazy(self):
        """The first tuple must arrive without draining the whole result."""
        enumerator = Enumerator(spanner_from_regex("(a|b)*!x{a}(a|b)*"))
        iterator = enumerator.enumerate("a" * 200)
        first = next(iterator)
        assert first["x"] == Span(1, 2)

    def test_jump_pointers_skip_marker_free_stretches(self):
        """With a single match at the very end of a long document, the chain
        from the start must reach it in one hop."""
        enumerator = Enumerator(spanner_from_regex("a*!x{b}"))
        doc = "a" * 500 + "b"
        index = enumerator.preprocess(doc)
        hops = list(index.chain(enumerator.det.initial, 0))
        assert len(hops) == 1
        j, block, _ = hops[0]
        assert j == 500

    def test_measure_delays_helper(self):
        enumerator = Enumerator(spanner_from_regex("(a|b)*!x{a}(a|b)*"))
        items, delays = measure_delays(enumerator.enumerate("aba"))
        assert len(items) == 2
        assert len(delays) == 2
        assert all(d >= 0 for d in delays)


class TestDelayScaling:
    def test_max_delay_does_not_grow_with_document(self):
        """The heart of experiment C1: delay independent of |D|.

        We count *work steps* structurally rather than wall-clock time:
        the enumerator charges one budget step per jump-pointer hop and
        one per useful edge, and the delay of a tuple is the number of
        steps charged since the previous one.  For the pattern below,
        tuples are separated by long marker-free runs that the jump
        pointers must skip in O(1); a position-by-position scan would
        charge a step per character of the run.
        """
        pattern = "(a|b)*!x{ab}(a|b)*"
        enumerator = Enumerator(spanner_from_regex(pattern))
        gaps = []
        for scale in (20, 200):
            doc = ("a" * 50 + "b") * scale  # matches far apart
            index = enumerator.preprocess(doc)
            budget = Budget()
            delays = []
            charged = 0
            for _ in enumerator.enumerate_index(index, budget):
                delays.append(budget.steps - charged)
                charged = budget.steps
            assert len(delays) == scale
            # the mean of the worst decile as a robust max-delay proxy
            delays.sort()
            worst = delays[-max(1, len(delays) // 10):]
            gaps.append(sum(worst) / len(worst))
        small, large = gaps
        # 10x longer document must not mean 5x more steps between tuples
        assert large < small * 5, (small, large)


class TestRegularSpannerFacade:
    def test_evaluate_and_enumerate_agree(self):
        spanner = RegularSpanner.from_regex("(a|b)*!x{ab}(a|b)*")
        doc = "ababab"
        assert set(spanner.enumerate(doc)) == spanner.evaluate(doc).tuples

    def test_enumerator_is_cached(self):
        spanner = RegularSpanner.from_regex("!x{a}")
        assert spanner.enumerator() is spanner.enumerator()

    def test_nonemptiness_via_epsilon_markers(self):
        spanner = RegularSpanner.from_regex("(a|b)*!x{ab}(a|b)*")
        assert spanner.is_nonempty_on("abb")
        assert not spanner.is_nonempty_on("bba")
