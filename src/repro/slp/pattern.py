"""Compressed pattern matching: occurrences of a short pattern in an
SLP-compressed document, without decompression.

Footnote 5 of the paper observes that "most basic string analysis tasks can
be performed directly on SLPs"; this module implements the textbook
instance.  For a pattern P of length m, each node A stores

* ``pref(A)`` / ``suf(A)`` — the first/last ``min(|D(A)|, m−1)`` characters
  of ``D(A)`` (enough context to detect boundary-crossing matches), and
* ``count(A)`` — the number of (possibly overlapping) occurrences of P.

For a pair node, occurrences either lie inside a child (counted there,
shared across the DAG) or cross the boundary — detectable inside the
``suf(left)·pref(right)`` window of length ≤ 2(m−1).  Total time
O(|S|·m), i.e. logarithmic in |D| for well-compressed documents.

The matcher is an :class:`~repro.slp.fold.ArenaFold` over those triples,
so memo, sealing, rollback and dead-arena purging are the ones the
compressed spanner evaluator uses.  The pair combine reads only the two
child triples (a child is at least ``m−1`` long exactly when its kept
context is), which is what lets the fold batch and deduplicate it.

:meth:`CompressedPatternMatcher.occurrences` additionally streams match
*positions* lazily by descending only into subtrees that contain matches.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import SLPError
from repro.slp.fold import ArenaFold
from repro.slp.slp import SLP

__all__ = ["CompressedPatternMatcher"]


class CompressedPatternMatcher(ArenaFold):
    """Occurrence counting and location for one fixed pattern."""

    def __init__(self, pattern: str) -> None:
        if not pattern:
            raise SLPError("pattern must be non-empty")
        super().__init__()
        self.pattern = pattern

    def _leaf(self, ch: str) -> tuple[int, str, str]:
        context = ch[: len(self.pattern) - 1]
        return (1 if ch == self.pattern else 0), context, context

    def _combine(self, lefts: list, rights: list) -> list:
        m = len(self.pattern)
        keep = m - 1
        values = []
        for (count_l, pref_l, suf_l), (count_r, pref_r, suf_r) in zip(
            lefts, rights
        ):
            window = suf_l + pref_r
            crossing = sum(
                1
                for i in range(len(window) - m + 1)
                if i < len(suf_l) < i + m and window.startswith(self.pattern, i)
            )
            prefix = pref_l if len(pref_l) >= keep else (pref_l + pref_r)[:keep]
            suffix = suf_r if len(suf_r) >= keep else (suf_l + suf_r)[-keep:]
            values.append((count_l + count_r + crossing, prefix, suffix))
        return values

    # ------------------------------------------------------------------
    def count(self, slp: SLP, node: int) -> int:
        """Overlapping occurrences of the pattern in ``D(node)``."""
        return self.value(slp, node)[0]

    def contains(self, slp: SLP, node: int) -> bool:
        return self.count(slp, node) > 0

    def occurrences(self, slp: SLP, node: int) -> Iterator[int]:
        """Stream the 0-based start offsets of all occurrences, in order.

        Descends only into subtrees with matches; boundary-crossing matches
        are found in the suf/pref window, so a single occurrence costs
        O(depth · m).  Note: offsets are plain ints even when |D| is
        astronomic.
        """
        self.preprocess(slp, node)
        m = len(self.pattern)
        data = self.arena(slp)
        # in-order traversal as an explicit LIFO (an SLP of depth d must
        # not consume d interpreter stack frames): left matches, crossing
        # matches, right matches are each emitted in increasing position
        # order, so frames are pushed right-to-left
        _DESCEND, _CROSSING = 0, 1
        stack: list[tuple[int, int, int]] = [(_DESCEND, node, 0)]
        while stack:
            kind, current, offset = stack.pop()
            left_right = None if slp.is_terminal(current) else slp.children(current)
            if kind == _CROSSING:
                left, right = left_right
                left_length = slp.length(left)
                _, _, suf_l = data[left]
                _, pref_r, _ = data[right]
                window = suf_l + pref_r
                window_start = offset + left_length - len(suf_l)
                for i in range(len(window) - m + 1):
                    if i < len(suf_l) < i + m and window.startswith(
                        self.pattern, i
                    ):
                        yield window_start + i
                continue
            count, _, _ = data[current]
            if count == 0:
                continue
            if left_right is None:
                yield offset  # pattern is the single character
                continue
            left, right = left_right
            stack.append((_DESCEND, right, offset + slp.length(left)))
            stack.append((_CROSSING, current, offset))
            stack.append((_DESCEND, left, offset))
