"""Tests for the SLP representation and the Figure 1 artifacts (P5)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SLPError
from repro.slp import (
    SLP,
    DocumentDatabase,
    Fingerprinter,
    balanced_node,
    char_at,
    extract,
    figure_1_database,
    figure_1_slp,
)


class TestFigure1:
    """Experiment P5: every fact the paper states about Figure 1."""

    def test_derivations(self):
        slp, nodes = figure_1_slp()
        assert slp.derive(nodes["E"]) == "ab"
        assert slp.derive(nodes["F"]) == "bc"
        assert slp.derive(nodes["C"]) == "bca"
        # equation (4)/(5) of the paper
        assert slp.derive(nodes["B"]) == "abbca"

    def test_document_database(self):
        db, _ = figure_1_database()
        assert db.document("D1") == "ababbcabca"
        assert db.document("D2") == "bcabcaabbca"
        assert db.document("D3") == "ababbca"

    def test_node_orders(self):
        """Section 4.1: ord(F)=ord(E)=2, ord(C)=3, ord(B)=4,
        ord(D)=ord(A3)=5, ord(A1)=ord(A2)=6."""
        slp, nodes = figure_1_slp()
        expected = {"F": 2, "E": 2, "C": 3, "B": 4, "D": 5, "A3": 5, "A1": 6, "A2": 6}
        for name, order in expected.items():
            assert slp.order(nodes[name]) == order, name

    def test_balances(self):
        """Section 4.1: all nodes balanced except A1, A2, A3 with
        bal(A1)=2 and bal(A2)=bal(A3)=−2."""
        slp, nodes = figure_1_slp()
        assert slp.bal(nodes["A1"]) == 2
        assert slp.bal(nodes["A2"]) == -2
        assert slp.bal(nodes["A3"]) == -2
        for name in ["E", "F", "C", "B", "D"]:
            assert slp.is_balanced(nodes[name]), name
        for name in ["A1", "A2", "A3"]:
            assert not slp.is_balanced(nodes[name]), name

    def test_grey_extension(self):
        """Section 4.3: adding A4 = D2·D1 and A5 = B·G with G = D·B."""
        slp, nodes = figure_1_slp()
        a4 = slp.pair(nodes["A2"], nodes["A1"])
        assert slp.derive(a4) == "bcabcaabbca" + "ababbcabca"
        g = slp.pair(nodes["D"], nodes["B"])
        a5 = slp.pair(nodes["B"], g)
        assert slp.derive(a5) == "abbcabcaabbcaabbca"

    def test_a1_derivation_via_E_E_C_C(self):
        """Section 4.2: D(A1) = D(E)D(E)D(C)D(C) — shared factors."""
        slp, nodes = figure_1_slp()
        e, c = slp.derive(nodes["E"]), slp.derive(nodes["C"])
        assert slp.derive(nodes["A1"]) == e + e + c + c


class TestSLPBasics:
    def test_terminal_rules(self):
        slp = SLP()
        t = slp.terminal("x")
        assert slp.is_terminal(t)
        assert slp.char(t) == "x"
        assert slp.length(t) == 1 and slp.order(t) == 1
        with pytest.raises(SLPError):
            slp.terminal("xy")

    def test_hash_consing(self):
        slp = SLP()
        a, b = slp.terminal("a"), slp.terminal("b")
        assert slp.terminal("a") == a
        assert slp.pair(a, b) == slp.pair(a, b)
        assert slp.pair(a, b) != slp.pair(b, a)

    def test_length_and_order_maintained(self):
        slp = SLP()
        a = slp.terminal("a")
        ab = slp.pair(a, slp.terminal("b"))
        abab = slp.pair(ab, ab)
        assert slp.length(abab) == 4
        assert slp.order(abab) == 3

    def test_exponential_document_length_representable(self):
        slp = SLP()
        node = slp.terminal("a")
        for _ in range(200):
            node = slp.pair(node, node)
        assert slp.length(node) == 2 ** 200
        with pytest.raises(SLPError):
            slp.derive(node)

    def test_size_counts_shared_nodes_once(self):
        slp = SLP()
        ab = slp.pair(slp.terminal("a"), slp.terminal("b"))
        abab = slp.pair(ab, ab)
        assert slp.size(abab) == 4  # a, b, ab, abab

    def test_topological_order(self):
        slp, nodes = figure_1_slp()
        order = slp.topological(nodes["A1"])
        position = {node: i for i, node in enumerate(order)}
        for node in order:
            if not slp.is_terminal(node):
                left, right = slp.children(node)
                assert position[left] < position[node]
                assert position[right] < position[node]

    def test_children_of_terminal_rejected(self):
        slp = SLP()
        with pytest.raises(SLPError):
            slp.children(slp.terminal("a"))

    def test_unknown_node_rejected(self):
        slp = SLP()
        with pytest.raises(SLPError):
            slp.length(99)


class TestDocumentDatabase:
    def test_from_texts(self):
        db = DocumentDatabase.from_texts({"a": "hello", "b": "world"})
        assert db.document("a") == "hello"
        assert db.names() == ["a", "b"]
        assert "a" in db and "c" not in db

    def test_duplicate_name_rejected(self):
        db = DocumentDatabase.from_texts({"a": "x"})
        with pytest.raises(SLPError):
            db.add_text("a", "y")

    def test_unknown_document(self):
        with pytest.raises(SLPError):
            DocumentDatabase().node("nope")

    def test_shared_arena(self):
        db = DocumentDatabase.from_texts({"a": "abab" * 4, "b": "abab" * 8})
        # the two documents share the repeated structure
        assert db.size() < len("abab" * 4) + len("abab" * 8)


class TestAccess:
    @given(st.text(alphabet="abc", min_size=1, max_size=60), st.data())
    def test_char_at_matches_indexing(self, text, data):
        slp = SLP()
        node = balanced_node(slp, text)
        position = data.draw(st.integers(0, len(text) - 1))
        assert char_at(slp, node, position) == text[position]

    @given(st.text(alphabet="abc", min_size=1, max_size=60), st.data())
    def test_extract_matches_slicing(self, text, data):
        slp = SLP()
        node = balanced_node(slp, text)
        begin = data.draw(st.integers(0, len(text)))
        end = data.draw(st.integers(begin, len(text)))
        assert extract(slp, node, begin, end) == text[begin:end]

    def test_out_of_range(self):
        slp = SLP()
        node = balanced_node(slp, "abc")
        with pytest.raises(SLPError):
            char_at(slp, node, 3)
        with pytest.raises(SLPError):
            extract(slp, node, 1, 9)

    def test_access_on_exponential_document(self):
        slp = SLP()
        ab = balanced_node(slp, "ab")
        node = ab
        for _ in range(50):
            node = slp.pair(node, node)
        # position 2^50: still 'a' (even positions are 'a')
        assert char_at(slp, node, 2 ** 50) == "a"
        assert extract(slp, node, 2 ** 49 * 2 - 1, 2 ** 49 * 2 + 3) == "baba"


class TestFingerprints:
    def test_equal_documents_equal_fingerprints(self):
        slp = SLP()
        left = balanced_node(slp, "abcabc")
        right = slp.pair(balanced_node(slp, "abc"), balanced_node(slp, "abc"))
        fp = Fingerprinter(slp)
        assert fp.equal(left, right)

    def test_different_documents_differ(self):
        slp = SLP()
        fp = Fingerprinter(slp)
        assert not fp.equal(balanced_node(slp, "abcd"), balanced_node(slp, "abdc"))
        assert not fp.equal(balanced_node(slp, "ab"), balanced_node(slp, "abc"))

    def test_exponential_documents(self):
        slp = SLP()
        a = balanced_node(slp, "ab")
        x = a
        for _ in range(100):
            x = slp.pair(x, x)
        y = slp.pair(a, a)
        for _ in range(99):
            y = slp.pair(y, y)
        fp = Fingerprinter(slp)
        assert fp.equal(x, y)  # both (ab)^(2^100)

    @given(st.text(alphabet="ab", min_size=1, max_size=30),
           st.text(alphabet="ab", min_size=1, max_size=30))
    def test_fingerprint_equality_matches_string_equality(self, s, t):
        slp = SLP()
        fp = Fingerprinter(slp)
        assert fp.equal(balanced_node(slp, s), balanced_node(slp, t)) == (s == t)
