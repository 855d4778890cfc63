"""Extended vset-automata (eVA) and their determinisation.

Extended vset-automata — introduced by Florenzano et al. [10] and recalled
as "Option 2" in Section 2.2 of the paper — read, instead of individual
marker symbols, *sets* of markers in a single transition.  A document plus a
span tuple then has a *unique* extended representation (the marker sets
sitting between the document's characters), which removes the
marker-ordering ambiguity of plain vset-automata.  This canonicity is what
the library's duplicate-free enumeration (Section 2.5), join construction,
and containment/equivalence tests are built on.

The deterministic form (:class:`DeterministicEVA`) is the central compiled
artefact: every output of the spanner corresponds to exactly one run, so
path enumeration in the (automaton × document) product DAG enumerates the
span relation without repetition — and the per-node transition *functions*
compose, which the SLP-compressed evaluation of Section 4 exploits.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from repro.automata.dfa import Atoms, compute_atoms
from repro.automata.nfa import NFA
from repro.automata.ops import intersect_symbols
from repro.core.alphabet import Marker, Symbol, sort_markers, symbol_matches
from repro.errors import SchemaError

__all__ = ["ExtendedVSetAutomaton", "DeterministicEVA", "join"]

MarkerSet = frozenset


class ExtendedVSetAutomaton:
    """An automaton whose arcs read characters or non-empty marker sets."""

    def __init__(
        self,
        num_states: int,
        initial: set[int],
        accepting: set[int],
        char_arcs: dict[int, list[tuple[Symbol, int]]],
        set_arcs: dict[int, list[tuple[MarkerSet, int]]],
        variables: frozenset[str],
        functional: bool = False,
    ) -> None:
        self.num_states = num_states
        self.initial = initial
        self.accepting = accepting
        self.char_arcs = char_arcs
        self.set_arcs = set_arcs
        self.variables = variables
        self.functional = functional

    # ------------------------------------------------------------------
    # construction from a vset-automaton
    # ------------------------------------------------------------------
    @classmethod
    def from_vset(cls, vset) -> "ExtendedVSetAutomaton":
        """Collapse runs of consecutive marker arcs into set arcs.

        ε-transitions are eliminated first; then, for every state, all
        states reachable by reading a duplicate-free sequence of markers
        become set-arc targets labelled by the set of markers read.  Paths
        repeating a marker are pruned — they can only generate invalid
        subword-marked words, which carry no spanner semantics.
        """
        nfa = vset.nfa.remove_epsilon()
        char_arcs: dict[int, list[tuple[Symbol, int]]] = {
            state: [] for state in nfa.states()
        }
        set_arcs: dict[int, list[tuple[MarkerSet, int]]] = {
            state: [] for state in nfa.states()
        }
        for state in nfa.states():
            for symbol, target in nfa.arcs_from(state):
                if not isinstance(symbol, Marker):
                    char_arcs[state].append((symbol, target))
            # DFS over marker arcs collecting duplicate-free marker sets.
            found: set[tuple[MarkerSet, int]] = set()
            stack: list[tuple[int, MarkerSet]] = [(state, frozenset())]
            visited: set[tuple[int, MarkerSet]] = {(state, frozenset())}
            while stack:
                here, markers = stack.pop()
                for symbol, target in nfa.arcs_from(here):
                    if not isinstance(symbol, Marker) or symbol in markers:
                        continue
                    extended = markers | {symbol}
                    node = (target, extended)
                    if node in visited:
                        continue
                    visited.add(node)
                    found.add((extended, target))
                    stack.append(node)
            set_arcs[state].extend(sorted(found, key=lambda a: (sorted(map(repr, a[0])), a[1])))
        return cls(
            nfa.num_states,
            set(nfa.initial),
            set(nfa.accepting),
            char_arcs,
            set_arcs,
            vset.variables,
            vset.functional,
        )

    # ------------------------------------------------------------------
    # running on extended words
    # ------------------------------------------------------------------
    def _step_block(self, states: Iterable[int], block: MarkerSet) -> set[int]:
        """Apply one marker block: the empty block is a no-op."""
        if not block:
            return set(states)
        targets = set()
        for state in states:
            for arc_set, target in self.set_arcs[state]:
                if arc_set == block:
                    targets.add(target)
        return targets

    def _step_char(self, states: Iterable[int], ch: str) -> set[int]:
        targets = set()
        for state in states:
            for symbol, target in self.char_arcs[state]:
                if symbol_matches(symbol, ch):
                    targets.add(target)
        return targets

    def run(self, blocks: Sequence[MarkerSet], doc: str) -> bool:
        """Membership of the extended word given by *blocks* and *doc*.

        ``blocks`` must have length ``len(doc) + 1`` (as produced by
        :meth:`repro.core.marked.MarkedWord.extended_blocks`).
        """
        if len(blocks) != len(doc) + 1:
            raise SchemaError("blocks must have length len(doc) + 1")
        current: set[int] = set(self.initial)
        for index, ch in enumerate(doc):
            current = self._step_block(current, blocks[index])
            if not current:
                return False
            current = self._step_char(current, ch)
            if not current:
                return False
        current = self._step_block(current, blocks[len(doc)])
        return bool(current & self.accepting)

    # ------------------------------------------------------------------
    # expansion back to a vset-automaton (canonical marker order)
    # ------------------------------------------------------------------
    def to_vset(self):
        """Expand set arcs into canonically ordered chains of marker arcs.

        The result accepts exactly the *canonical* subword-marked words of
        the represented spanner — i.e. it is a normalised vset-automaton.
        To prevent two set arcs from concatenating into a non-canonical
        marker run, each eVA state is split into a *pre-block* and a
        *post-block* copy: at every document position exactly one (possibly
        empty) marker block is read, in canonical order.
        """
        from repro.automata.vset import VSetAutomaton

        nfa = NFA()
        pre = [nfa.add_state() for _ in range(self.num_states)]
        post = [nfa.add_state() for _ in range(self.num_states)]
        nfa.initial = {pre[state] for state in self.initial}
        nfa.accepting = {post[state] for state in self.accepting}
        for state in range(self.num_states):
            nfa.add_arc(pre[state], None, post[state])  # empty block
            for symbol, target in self.char_arcs[state]:
                nfa.add_arc(post[state], symbol, pre[target])
            for marker_set, target in self.set_arcs[state]:
                ordered = sort_markers(marker_set)
                here = pre[state]
                for marker in ordered[:-1]:
                    fresh = nfa.add_state()
                    nfa.add_arc(here, marker, fresh)
                    here = fresh
                nfa.add_arc(here, ordered[-1], post[target])
        return VSetAutomaton(nfa, self.variables, self.functional)

    # ------------------------------------------------------------------
    # determinisation
    # ------------------------------------------------------------------
    def determinize(self, atoms: Atoms | None = None) -> "DeterministicEVA":
        """Subset construction over characters *and* marker-set letters.

        In the result, every extended word has at most one run, hence every
        (document, span tuple) pair is produced by at most one accepting
        run — the duplicate-freeness required for enumeration [10, 2].
        """
        if atoms is None:
            symbols = set()
            for arcs in self.char_arcs.values():
                symbols.update(symbol for symbol, _ in arcs)
            atoms = Atoms(symbols)
        start = frozenset(self.initial)
        index: dict[frozenset[int], int] = {start: 0}
        char_trans: list[dict] = [dict()]
        set_trans: list[dict[MarkerSet, int]] = [dict()]
        accepting: set[int] = set()
        queue: deque[frozenset[int]] = deque([start])
        while queue:
            current = queue.popleft()
            state_id = index[current]
            if current & self.accepting:
                accepting.add(state_id)
            for atom in atoms.atoms:
                targets = set()
                for state in current:
                    for symbol, target in self.char_arcs[state]:
                        if atoms.covered_by(symbol, atom):
                            targets.add(target)
                if targets:
                    key = frozenset(targets)
                    if key not in index:
                        index[key] = len(char_trans)
                        char_trans.append(dict())
                        set_trans.append(dict())
                        queue.append(key)
                    char_trans[state_id][atom] = index[key]
            blocks: dict[MarkerSet, set[int]] = {}
            for state in current:
                for marker_set, target in self.set_arcs[state]:
                    blocks.setdefault(marker_set, set()).add(target)
            for marker_set, targets in blocks.items():
                key = frozenset(targets)
                if key not in index:
                    index[key] = len(char_trans)
                    char_trans.append(dict())
                    set_trans.append(dict())
                    queue.append(key)
                set_trans[state_id][marker_set] = index[key]
        return DeterministicEVA(
            atoms, 0, accepting, char_trans, set_trans, self.variables, self.functional
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sets = sum(len(v) for v in self.set_arcs.values())
        chars = sum(len(v) for v in self.char_arcs.values())
        return (
            f"ExtendedVSetAutomaton(states={self.num_states}, "
            f"char_arcs={chars}, set_arcs={sets})"
        )


class DeterministicEVA:
    """A deterministic extended vset-automaton.

    ``char_trans[q]`` maps character atoms to successor states;
    ``set_trans[q]`` maps marker-set letters to successor states.  Every
    extended word has at most one run, so accepting runs are in bijection
    with the spanner's output tuples.
    """

    __slots__ = (
        "atoms",
        "initial",
        "accepting",
        "char_trans",
        "set_trans",
        "variables",
        "functional",
        # per-character (σ, T, T_em) tables shared by every compressed
        # evaluator of this automaton (repro.slp.spanner_eval), built on
        # first use and living exactly as long as the automaton
        "char_tables",
    )

    def __init__(
        self,
        atoms: Atoms,
        initial: int,
        accepting: set[int],
        char_trans: list[dict],
        set_trans: list[dict[MarkerSet, int]],
        variables: frozenset[str],
        functional: bool,
    ) -> None:
        self.atoms = atoms
        self.initial = initial
        self.accepting = accepting
        self.char_trans = char_trans
        self.set_trans = set_trans
        self.variables = variables
        self.functional = functional
        self.char_tables = None

    @property
    def num_states(self) -> int:
        return len(self.char_trans)

    def step_char(self, state: int, ch: str) -> int | None:
        atom = self.atoms.classify(ch)
        if atom is None:
            return None
        return self.char_trans[state].get(atom)

    def step_set(self, state: int, block: MarkerSet) -> int | None:
        if not block:
            return state
        return self.set_trans[state].get(block)

    def run(self, blocks: Sequence[MarkerSet], doc: str) -> bool:
        """Membership of an extended word (deterministic, linear time)."""
        state: int | None = self.initial
        for index, ch in enumerate(doc):
            state = self.step_set(state, blocks[index])
            if state is None:
                return False
            state = self.step_char(state, ch)
            if state is None:
                return False
        state = self.step_set(state, blocks[len(doc)])
        return state is not None and state in self.accepting

    def marker_set_alphabet(self) -> set[MarkerSet]:
        """All marker-set letters appearing on transitions."""
        letters: set[MarkerSet] = set()
        for row in self.set_trans:
            letters.update(row.keys())
        return letters

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DeterministicEVA(states={self.num_states})"


def join(
    left: ExtendedVSetAutomaton, right: ExtendedVSetAutomaton
) -> ExtendedVSetAutomaton:
    """Natural join ``⋈`` of two regular spanners as an eVA product.

    Character arcs synchronise (predicates intersect).  At each position,
    each operand emits a (possibly empty) marker set; the emissions must
    agree on the markers of *shared* variables — that is exactly the
    requirement that joined tuples assign shared variables the same span —
    and the product arc emits their union.
    """
    shared = left.variables & right.variables

    def shared_part(markers: MarkerSet) -> MarkerSet:
        return frozenset(m for m in markers if m.var in shared)

    index: dict[tuple[int, int], int] = {}
    char_arcs: dict[int, list[tuple[Symbol, int]]] = {}
    set_arcs: dict[int, list[tuple[MarkerSet, int]]] = {}
    initial: set[int] = set()
    accepting: set[int] = set()

    def state_of(pair: tuple[int, int]) -> int:
        if pair not in index:
            index[pair] = len(index)
            char_arcs[index[pair]] = []
            set_arcs[index[pair]] = []
        return index[pair]

    stack: list[tuple[int, int]] = []
    for s1 in left.initial:
        for s2 in right.initial:
            pair = (s1, s2)
            initial.add(state_of(pair))
            stack.append(pair)
    seen = set(stack)
    while stack:
        pair = stack.pop()
        s1, s2 = pair
        here = index[pair]
        if s1 in left.accepting and s2 in right.accepting:
            accepting.add(here)
        # synchronised character steps
        for symbol1, t1 in left.char_arcs[s1]:
            for symbol2, t2 in right.char_arcs[s2]:
                met = intersect_symbols(symbol1, symbol2)
                if met is None:
                    continue
                nxt = (t1, t2)
                char_arcs[here].append((met, state_of(nxt)))
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        # marker-set steps: each side emits a set or stays idle
        left_options = [(frozenset(), s1)] + list(left.set_arcs[s1])
        right_options = [(frozenset(), s2)] + list(right.set_arcs[s2])
        for set1, t1 in left_options:
            for set2, t2 in right_options:
                if not set1 and not set2:
                    continue
                if shared_part(set1) != shared_part(set2):
                    continue
                combined = set1 | set2
                nxt = (t1, t2)
                set_arcs[here].append((combined, state_of(nxt)))
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return ExtendedVSetAutomaton(
        len(index),
        initial,
        accepting,
        char_arcs,
        set_arcs,
        left.variables | right.variables,
        functional=left.functional and right.functional,
    )
