"""Tests for SLP construction / compression (experiment C10's correctness)."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import Budget, Deadline, SpannerDB
from repro.errors import DeadlineExceededError, SLPError
from repro.slp import (
    SLP,
    balanced_node,
    fibonacci_node,
    lz78_node,
    power_node,
    repair_node,
    repeat_node,
)
from repro.slp.build import _fold
from repro.stream import WindowedSpannerStream
from repro.util import gene_sequence, log_document, random_text


BUILDERS = [balanced_node, repair_node, lz78_node]


class TestRoundTrips:
    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
    def test_catalogue(self, builder):
        for text in [
            "a",
            "ab",
            "aaaa",
            "abcabcabc",
            "mississippi",
            "ab" * 100,
            "abc" * 33 + "x",
        ]:
            slp = SLP()
            assert slp.derive(builder(slp, text)) == text

    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
    def test_empty_rejected(self, builder):
        with pytest.raises(SLPError):
            builder(SLP(), "")

    @settings(max_examples=40, deadline=None)
    @given(st.text(alphabet="abc", min_size=1, max_size=80))
    def test_property_round_trip(self, text):
        for builder in BUILDERS:
            slp = SLP()
            assert slp.derive(builder(slp, text)) == text


class TestCompression:
    def test_repair_compresses_repetitive_text(self):
        text = "abcabc" * 64
        slp = SLP()
        node = repair_node(slp, text)
        assert slp.size(node) < len(text) // 4

    def test_lz78_compresses_repetitive_text(self):
        text = "ab" * 256
        slp = SLP()
        node = lz78_node(slp, text)
        assert slp.size(node) < len(text) // 4

    def test_power_node_is_logarithmic(self):
        slp = SLP()
        node = power_node(slp, "ab", 20)
        assert slp.length(node) == 2 * 2 ** 20
        assert slp.size(node) <= 3 + 20  # O(|w| + exponent)

    def test_balanced_node_is_linear_not_compressed(self):
        slp = SLP()
        text = "abcdefgh" * 4
        node = balanced_node(slp, text)
        assert slp.size(node) >= len(text) // 2


class TestRepeat:
    @settings(max_examples=25, deadline=None)
    @given(st.text(alphabet="ab", min_size=1, max_size=6), st.integers(1, 40))
    def test_repeat_round_trip(self, word, times):
        slp = SLP()
        base = balanced_node(slp, word)
        node = repeat_node(slp, base, times)
        assert slp.derive(node) == word * times
        assert slp.is_strongly_balanced(node)

    def test_repeat_zero_rejected(self):
        slp = SLP()
        with pytest.raises(SLPError):
            repeat_node(slp, slp.terminal("a"), 0)

    def test_repeat_is_logarithmic_in_count(self):
        slp = SLP()
        base = balanced_node(slp, "xyz")
        before = slp.num_nodes()
        repeat_node(slp, base, 10**6)
        created = slp.num_nodes() - before
        assert created <= 40 * math.ceil(math.log2(10**6))


class TestFibonacci:
    def test_first_words(self):
        slp = SLP()
        expected = ["b", "a", "ab", "aba", "abaab", "abaababa"]
        for index, word in enumerate(expected, start=1):
            assert slp.derive(fibonacci_node(slp, index)) == word

    def test_recurrence(self):
        slp = SLP()
        f9 = slp.derive(fibonacci_node(slp, 9))
        f8 = slp.derive(fibonacci_node(slp, 8))
        f7 = slp.derive(fibonacci_node(slp, 7))
        assert f9 == f8 + f7

    def test_strongly_balanced_by_construction(self):
        slp = SLP()
        node = fibonacci_node(slp, 25)
        assert slp.is_strongly_balanced(node)
        assert slp.size(node) <= 2 * 25

    def test_bad_index(self):
        with pytest.raises(SLPError):
            fibonacci_node(SLP(), 0)


def reference_repair_node(slp: SLP, text: str) -> int:
    """Textbook Re-Pair, one full recount and rewrite per round (quadratic).

    The oracle for :func:`repair_node`: counts are non-overlapping
    left-to-right occurrences, ``Counter`` insertion order plus
    ``most_common(1)`` breaks ties by leftmost occurrence, and replacement
    is greedy left to right."""
    if not text:
        raise SLPError("SLPs derive non-empty documents")
    sequence = [slp.terminal(ch) for ch in text]
    while len(sequence) > 1:
        counts: Counter[tuple[int, int]] = Counter()
        index = 0
        while index + 1 < len(sequence):
            digram = (sequence[index], sequence[index + 1])
            counts[digram] += 1
            # skip one position on aa-runs so occurrences never overlap
            if (
                index + 2 < len(sequence)
                and sequence[index + 1] == sequence[index]
                and sequence[index + 2] == sequence[index]
            ):
                index += 2
            else:
                index += 1
        if not counts:
            break
        digram, count = counts.most_common(1)[0]
        if count < 2:
            break
        replacement = slp.pair(*digram)
        rewritten: list[int] = []
        index = 0
        while index < len(sequence):
            if (
                index + 1 < len(sequence)
                and (sequence[index], sequence[index + 1]) == digram
            ):
                rewritten.append(replacement)
                index += 2
            else:
                rewritten.append(sequence[index])
                index += 1
        sequence = rewritten
    return _fold(slp, sequence)


def assert_same_arena(texts):
    """Build *texts* into one shared arena per side; every root and the
    whole arena (children and terminals, node by node) must agree."""
    expected, actual = SLP(), SLP()
    for text in texts:
        root = repair_node(actual, text)
        assert root == reference_repair_node(expected, text)
        assert actual.derive(root) == text
    assert actual._left == expected._left
    assert actual._right == expected._right
    assert actual._char == expected._char


@st.composite
def run_heavy_texts(draw, alphabet):
    """Up to ~1500 chars: a unit of runs (1-40 copies of a letter),
    repeated a few times, so both long runs and repeats occur."""
    runs = draw(
        st.lists(
            st.tuples(st.sampled_from(alphabet), st.integers(1, 40)),
            min_size=1,
            max_size=40,
        )
    )
    unit = "".join(ch * length for ch, length in runs)
    return (unit * draw(st.integers(1, 6)))[:1500]


@st.composite
def shared_arena_texts(draw):
    """1 document, or 1-2 documents already in the arena and then one more
    (so that pair nodes hash-cons into the earlier documents' nodes)."""
    alphabet = draw(st.sampled_from(["a", "ab", "abc", "ACGT"]))
    return draw(st.lists(run_heavy_texts(alphabet), min_size=1, max_size=3))


class TestRepairOracle:
    """The linear-time Re-Pair builds the byte-identical grammar of the
    quadratic reference: same rounds, same order, same node ids."""

    @settings(max_examples=120, deadline=None)
    @given(shared_arena_texts())
    def test_property_same_arena_as_reference(self, texts):
        assert_same_arena(texts)

    @pytest.mark.parametrize(
        "text",
        [
            "a" * 5000,
            "ab" * 3000,
            "abc" * 2000 + "a" * 77,
            (log_document(500, seed=1) * 2)[:16384],
            gene_sequence(16384, seed=1),
        ],
        ids=["a-run", "ab-period", "abc-period-run", "log-16k", "gene-16k"],
    )
    def test_fixed_cases(self, text):
        assert_same_arena([text])

    def test_small_catalogue_on_a_shared_arena(self):
        assert_same_arena(
            ["a", "aa", "aaa", "abab", "aabb", "mississippi", "abcabcab", "aaaa"]
        )


class TestRepairBudget:
    """A deadline bounds the build; the budget's step count is untouched."""

    TEXT = random_text(16_000, alphabet="abcd", seed=3)

    @pytest.fixture
    def pair_calls(self, monkeypatch):
        calls = []
        original = SLP.pair

        def counting(slp, left, right):
            calls.append((left, right))
            return original(slp, left, right)

        monkeypatch.setattr(SLP, "pair", counting)
        return calls

    def test_expired_deadline_stops_the_build_before_any_rule(self, pair_calls):
        with pytest.raises(DeadlineExceededError):
            repair_node(SLP(), self.TEXT, Budget(deadline=Deadline(at=0.0)))
        assert pair_calls == []
        # without a budget the same build makes thousands of rules
        repair_node(SLP(), self.TEXT)
        assert len(pair_calls) > 1000

    def test_add_document_rolls_back_a_build_cut_by_its_deadline(self, pair_calls):
        db = SpannerDB()
        db.add_document("small", "abab")
        mark = db.slp.mark()
        pair_calls.clear()
        with pytest.raises(DeadlineExceededError):
            db.add_document("big", self.TEXT, Budget(deadline=Deadline(at=0.0)))
        assert pair_calls == []
        assert db.slp.mark() == mark
        assert db.documents() == ["small"]

    def test_stream_rebuild_honours_the_deadline(self, pair_calls):
        stream = WindowedSpannerStream("(a|b|c|d)*!x{ab}(a|b|c|d)*")
        stream.append("abcd")
        pair_calls.clear()
        with pytest.raises(DeadlineExceededError):
            stream.rebuild(self.TEXT, Budget(deadline=Deadline(at=0.0)))
        assert pair_calls == []
        assert stream.document_chars == 4  # untouched

    def test_live_budget_builds_the_same_arena_and_charges_no_steps(self):
        plain, governed = SLP(), SLP()
        budget = Budget(deadline=60.0, max_steps=1)
        assert repair_node(governed, self.TEXT, budget) == repair_node(plain, self.TEXT)
        assert governed._left == plain._left and governed._right == plain._right
        assert budget.steps == 0
