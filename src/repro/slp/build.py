"""Building SLPs from plain text (grammar-based compression).

The paper points out that many practical dictionary compressors are covered
by SLPs and that computing a *smallest* SLP is NP-complete [3, 4]; practical
algorithms are approximate.  Provided here:

* :func:`balanced_node` — the trivial strongly balanced parse (no
  compression beyond hash-consing; size O(|D|)).  The baseline.
* :func:`repair_node` — Re-Pair global pair replacement: repeatedly
  replace the most frequent adjacent digram by a fresh nonterminal, in
  O(|D| log |D|) time.  On repetitive inputs this reaches size
  O(log |D|)-ish.  The ingest builder of ``SpannerDB``.
* :func:`lz78_node` — the LZ78 parse folded into an SLP (each phrase is
  "previous phrase + one character", which *is* an SLP production).
* :func:`repeat_node` / :func:`power_node` — exact exponential compression
  ``w^k`` by binary exponentiation; the workhorse of the compressed-
  evaluation benchmarks (experiments C2/C3), where ``|S| = O(|w| + log k)``.
* :func:`fibonacci_node` — the Fibonacci-word SLP ``F_n = F_{n−1}·F_{n−2}``
  (pleasantly, strongly balanced by construction).

All builders return nodes whose derivation round-trips exactly; the test
suite checks this property with hypothesis.
"""

from __future__ import annotations

import heapq

from repro.errors import SLPError
from repro.slp.balance import concat_balanced
from repro.slp.slp import SLP

__all__ = [
    "balanced_node",
    "repair_node",
    "lz78_node",
    "repeat_node",
    "power_node",
    "fibonacci_node",
]


def balanced_node(slp: SLP, text: str) -> int:
    """A strongly balanced parse of *text* (mid-point recursion)."""
    if not text:
        raise SLPError("SLPs derive non-empty documents")

    def build(lo: int, hi: int) -> int:
        if hi - lo == 1:
            return slp.terminal(text[lo])
        mid = (lo + hi) // 2
        return slp.pair(build(lo, mid), build(mid, hi))

    return build(0, len(text))


def repair_node(slp: SLP, text: str, budget=None) -> int:
    """Re-Pair compression of *text* into an SLP node, in O(n log n) time.

    Each round replaces the digram (adjacent node pair) with the most
    non-overlapping occurrences by one pair node; rounds stop once no
    digram occurs twice, and the remaining sequence is folded pairwise.
    The result is generally *not* strongly balanced — rebalance if needed.

    The choice of each round is part of the contract, so a text always
    yields the same rules in the same order (the same node ids, also on an
    arena shared with other documents):

    * a digram's count is its number of non-overlapping occurrences — for
      ``(a, a)`` that is ``⌊L/2⌋`` per maximal run of ``L`` copies of ``a``;
    * the highest count wins; a tie goes to the digram whose leftmost
      occurrence in the current sequence comes first;
    * occurrences are replaced greedily, left to right.

    The sequence is a doubly linked list over the text positions.  Every
    digram keeps its count and its occurrences in position order, and a
    heap keyed by ``(−count, leftmost position)`` picks the next digram
    (Larsson and Moffat, "Off-line dictionary-based compression", Proc.
    IEEE 2000).  A replacement only *removes* occurrences of the digrams
    already present — every adjacency it creates involves the new node —
    so a heap entry can only be too optimistic, and is revalidated when
    popped.  With a *budget*, its deadline is checked once per round; no
    steps are charged.
    """
    if not text:
        raise SLPError("SLPs derive non-empty documents")
    terminals = {ch: slp.terminal(ch) for ch in dict.fromkeys(text)}
    sym = [terminals[ch] for ch in text]  # -1 once merged into its left
    n = len(sym)
    ids = list(range(-1, n + 1))  # one int object per position, shared
    prv, nxt = ids[:n], ids[2:]
    nxt[-1] = -1
    count: dict[tuple[int, int], int] = {}
    occurrences: dict[tuple[int, int], list[int]] = {}
    # maximal runs of one symbol, length >= 2: each end -> (other end, length)
    runs: dict[int, tuple[int, int]] = {}

    def record_run(start: int, end: int, length: int) -> int:
        """Record a run at both ends; returns its non-overlapping pairs."""
        runs[start] = (end, length)
        runs[end] = (start, length)
        return length // 2

    start = 0
    for pos in ids[1:n]:
        a, b = key = sym[pos], sym[pos + 1]
        if key in occurrences:
            occurrences[key].append(pos)
        else:
            occurrences[key] = [pos]
            count[key] = 0
        if a != b:
            count[key] += 1
            start = pos + 1
        elif pos + 2 == n or sym[pos + 2] != a:
            count[key] += record_run(start, pos + 1, pos + 2 - start)
    heap = []
    for key, positions in list(occurrences.items()):
        if count[key] >= 2:
            heap.append((-count[key], positions[0], key))
        else:
            del occurrences[key]
    heapq.heapify(heap)
    head = dict.fromkeys(occurrences, 0)

    def shrink(end: int, new_end: int, key: tuple[int, int]) -> None:
        """Cut *end* off its run of ``key[0]``; *new_end* is next in."""
        other, length = runs.pop(end)
        if length > 2:
            runs[other] = (new_end, length - 1)
            runs[new_end] = (other, length - 1)
        else:
            del runs[other]
        count[key] -= 1 - length % 2

    while heap:
        negative, first, key = heap[0]
        live = count[key]
        if live < 2:
            heapq.heappop(heap)
            del occurrences[key], head[key]
            continue
        x, y = key
        positions = occurrences[key]
        h = head[key]
        while True:
            pos = positions[h]
            if sym[pos] == x and nxt[pos] >= 0 and sym[nxt[pos]] == y:
                break
            h += 1
        head[key] = h
        if (negative, first) != (-live, pos):
            heapq.heapreplace(heap, (-live, pos, key))
            continue
        heapq.heappop(heap)
        if budget is not None:
            budget.check_deadline()
        fresh = slp.pair(x, y)
        # the new adjacencies: (u, fresh) at p and (fresh, v) at i
        before: dict[int, list[int]] = {}
        after: dict[int, list[int]] = {}
        doubled = run_start = last = run_length = 0
        for i in positions[h:]:
            j = nxt[i]
            if sym[i] != x or j < 0 or sym[j] != y:
                continue  # stale, or overlapped by the previous replacement
            p, q = prv[i], nxt[j]
            joined = p >= 0 and sym[p] == fresh
            # retire the adjacencies at p and j; the one at i is `key`
            if x == y and not joined:  # the run of x at i is used up
                other, _ = runs.pop(i)
                del runs[other]
            if p >= 0 and not joined:
                if sym[p] == x:
                    shrink(i, p, (x, x))
                else:
                    count[(sym[p], x)] -= 1
            if q >= 0 and not x == y == sym[q]:
                if sym[q] == y:
                    shrink(j, q, (y, y))
                else:
                    count[(y, sym[q])] -= 1
            sym[i], sym[j] = fresh, -1
            nxt[i] = q
            if q >= 0:
                prv[q] = i
            # a run of the fresh node grows while replacements abut
            if joined:
                run_length += 1
            else:
                if run_length >= 2:
                    doubled += record_run(run_start, last, run_length)
                run_start, run_length = i, 1
            last = i
            if p >= 0:
                before.setdefault(sym[p], []).append(p)
            # the adjacency at i waits if q starts the next replacement
            if q >= 0 and not (
                sym[q] == x and nxt[q] >= 0 and sym[nxt[q]] == y
            ):
                after.setdefault(sym[q], []).append(i)
        if run_length >= 2:
            doubled += record_run(run_start, last, run_length)
        del occurrences[key], head[key], count[key]
        # every occurrence found in this pass is still current
        found = [((u, fresh), at) for u, at in before.items()]
        found += [((fresh, v), at) for v, at in after.items()]
        for new, at in found:
            count[new] = live = doubled if new == (fresh, fresh) else len(at)
            if live >= 2:
                occurrences[new] = at
                head[new] = 0
                heapq.heappush(heap, (-live, at[0], new))
    sequence = []
    pos = 0
    while pos >= 0:
        sequence.append(sym[pos])
        pos = nxt[pos]
    return _fold(slp, sequence)


def lz78_node(slp: SLP, text: str) -> int:
    """The LZ78 parse of *text* as an SLP node.

    LZ78 phrases have the shape "longest previously seen phrase + one fresh
    character", which maps directly onto SLP pair nodes.
    """
    if not text:
        raise SLPError("SLPs derive non-empty documents")
    # trie of phrases: maps (phrase_node_or_root, char) -> phrase node
    trie: dict[tuple[int | None, str], int] = {}
    phrases: list[int] = []
    current: int | None = None
    for ch in text:
        step = trie.get((current, ch))
        if step is not None:
            current = step
            continue
        node = slp.terminal(ch) if current is None else slp.pair(current, slp.terminal(ch))
        trie[(current, ch)] = node
        phrases.append(node)
        current = None
    if current is not None:  # unfinished phrase at the end of the text
        phrases.append(current)
    return _fold(slp, phrases)


def repeat_node(slp: SLP, node: int, times: int) -> int:
    """The node deriving ``D(node)`` repeated *times* (binary exponentiation).

    Uses balanced concatenation, so the result of repeating a strongly
    balanced node is strongly balanced, with O(log times) fresh nodes.
    """
    if times < 1:
        raise SLPError("repetition count must be >= 1")
    result: int | None = None
    power = node
    remaining = times
    while remaining:
        if remaining & 1:
            result = concat_balanced(slp, result, power)
        remaining >>= 1
        if remaining:
            power = slp.pair(power, power)
    assert result is not None
    return result


def power_node(slp: SLP, text: str, exponent: int) -> int:
    """``text^(2^exponent)`` with ``|S| = O(|text| + exponent)`` nodes."""
    node = balanced_node(slp, text)
    for _ in range(exponent):
        node = slp.pair(node, node)
    return node


def fibonacci_node(slp: SLP, n: int) -> int:
    """The n-th Fibonacci word (``F_1 = b``, ``F_2 = a``,
    ``F_n = F_{n−1}·F_{n−2}``) — an O(n)-node, strongly balanced SLP for a
    document of length ``fib(n)``."""
    if n < 1:
        raise SLPError("Fibonacci index must be >= 1")
    previous = slp.terminal("b")
    if n == 1:
        return previous
    current = slp.terminal("a")
    for _ in range(n - 2):
        previous, current = current, slp.pair(current, previous)
    return current


def _fold(slp: SLP, nodes: list[int]) -> int:
    """Fold a sequence of nodes pairwise into a single node."""
    if not nodes:
        raise SLPError("cannot fold an empty sequence")
    while len(nodes) > 1:
        folded = [
            slp.pair(nodes[i], nodes[i + 1]) for i in range(0, len(nodes) - 1, 2)
        ]
        if len(nodes) % 2:
            folded.append(nodes[-1])
        nodes = folded
    return nodes[0]
