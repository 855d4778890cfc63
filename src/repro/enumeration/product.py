"""The (deterministic eVA × document) product index.

This is the preprocessing phase of the two-phase enumeration scheme of
Section 2.5 ([10], [2]): for a deterministic extended vset-automaton with
state set Q and a document of length n, we build, in **O(n·|Q|)** time and
space (linear in the document, i.e. linear preprocessing in data
complexity):

* ``char_next[i]`` — the deterministic character successor function at
  position i (a |Q|-vector; −1 = dead);
* ``back_post``/``back_pre`` — co-accessibility of product nodes, so the
  enumeration phase never explores a branch that cannot produce an output;
* ``nxt_pos``/``nxt_state`` — *jump pointers*: the first position ``j ≥ i``
  (and the state the marker-free run reaches there) at which a useful
  marker-set transition exists.  These pointers are what bound the
  enumeration delay independently of the document length: marker-free
  stretches of the product DAG are skipped in O(1);
* ``acc_pure`` — whether the marker-free run from (q, i) accepts.

The tables are flat numpy arrays and the backward pass is vectorised over
Q, so preprocessing a megabyte-scale document is a few numpy operations
per position.  The index is also the baseline data structure that the
SLP-compressed evaluation of Section 4 must *avoid* building, since it is
inherently Ω(n)-sized (cf. the discussion in Section 4.2 of the paper).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.automata.evset import DeterministicEVA
from repro.kernels.bitmat import BitMatrix, pack_vec

__all__ = ["ProductIndex"]

_NO_STATE = -1


class ProductIndex:
    """Preprocessed product of a deterministic eVA and one document."""

    __slots__ = (
        "det",
        "doc",
        "char_next",
        "back_post",
        "back_pre",
        "nxt_pos",
        "nxt_state",
        "acc_pure",
        "_set_arcs",
    )

    def __init__(self, det: DeterministicEVA, doc: str, budget=None) -> None:
        if budget is not None:
            # the index is Θ(n·|Q|) cells — guard it like a materialisation
            budget.charge_bytes(
                6 * (len(doc) + 1) * det.num_states, what="product index"
            )
        self.det = det
        self.doc = doc
        n = len(doc)
        num_states = det.num_states
        #: per-state marker-set arcs as (targets array, blocks list)
        self._set_arcs: list[tuple[np.ndarray, list]] = []
        for q in range(num_states):
            items = list(det.set_trans[q].items())
            targets = np.fromiter(
                (target for _, target in items), dtype=np.int64, count=len(items)
            )
            self._set_arcs.append((targets, [block for block, _ in items]))
        has_set_arcs = np.array(
            [len(det.set_trans[q]) > 0 for q in range(num_states)], dtype=bool
        )

        # --- per-atom transition table, then char_next per position --------
        atom_index = {atom: k for k, atom in enumerate(det.atoms.atoms)}
        table = np.full((len(atom_index) + 1, num_states), _NO_STATE, dtype=np.int64)
        for q in range(num_states):
            for atom, target in det.char_trans[q].items():
                table[atom_index[atom], q] = target
        doc_atoms = np.fromiter(
            (
                atom_index.get(det.atoms.classify(ch), len(atom_index))
                for ch in doc
            ),
            dtype=np.int64,
            count=n,
        )
        # char_next[i, q]: successor of q on doc[i]
        self.char_next = table[doc_atoms] if n else np.empty((0, num_states), dtype=np.int64)

        # --- backward passes -------------------------------------------------
        accepting = np.zeros(num_states, dtype=bool)
        for state in det.accepting:
            accepting[state] = True

        self.back_post = np.zeros((n + 1, num_states), dtype=bool)
        self.back_pre = np.zeros((n + 1, num_states), dtype=bool)
        self.acc_pure = np.zeros((n + 1, num_states), dtype=bool)
        self.nxt_pos = np.full((n + 1, num_states), -1, dtype=np.int64)
        self.nxt_state = np.full((n + 1, num_states), _NO_STATE, dtype=np.int64)

        self.back_post[n] = accepting
        self.acc_pure[n] = accepting
        # the marker-set arc relation packed into bit-words: has_useful is
        # one packed mat-vec (word AND + any) per position instead of a
        # flattened gather/scatter over every arc
        arc_dense = np.zeros((num_states, num_states), dtype=bool)
        any_arcs = False
        for q in range(num_states):
            for t in det.set_trans[q].values():
                arc_dense[q, t] = True
                any_arcs = True
        arc_rows = BitMatrix.from_bool(arc_dense).rows
        state_ids = np.arange(num_states)

        for i in range(n, -1, -1):
            if budget is not None:
                budget.step()
            if i < n:
                cn = self.char_next[i]
                valid = cn != _NO_STATE
                gathered = cn * valid  # dead entries read slot 0, masked below
                self.back_post[i] = valid & self.back_pre[i + 1][gathered]
                self.acc_pure[i] = valid & self.acc_pure[i + 1][gathered]
            # a useful marker-set edge exists at (i, q) iff some set arc's
            # target is co-accessible after the block
            bp = self.back_post[i]
            if any_arcs:
                has_useful = (arc_rows & pack_vec(bp)).any(axis=1)
            else:
                has_useful = np.zeros(num_states, dtype=bool)
            self.back_pre[i] = bp | has_useful
            # jump pointers
            if i < n:
                cn = self.char_next[i]
                valid = cn != _NO_STATE
                gathered = cn * valid
                follow = ~has_useful & valid
                self.nxt_pos[i] = np.where(
                    has_useful, i, np.where(follow, self.nxt_pos[i + 1][gathered], -1)
                )
                self.nxt_state[i] = np.where(
                    has_useful,
                    state_ids,
                    np.where(follow, self.nxt_state[i + 1][gathered], _NO_STATE),
                )
            else:
                self.nxt_pos[i] = np.where(has_useful, i, -1)
                self.nxt_state[i] = np.where(has_useful, state_ids, _NO_STATE)

    @property
    def length(self) -> int:
        return len(self.doc)

    def useful_edges(self, position: int, state: int) -> list[tuple[frozenset, int]]:
        """The marker-set transitions at (state, position) whose target can
        still reach acceptance.  O(arcs of *state*)."""
        targets, blocks = self._set_arcs[state]
        bp = self.back_post[position]
        return [
            (blocks[k], int(targets[k]))
            for k in range(len(blocks))
            if bp[targets[k]]
        ]

    def chain(
        self, state: int, position: int, budget=None
    ) -> Iterator[tuple[int, frozenset, int]]:
        """Iterate all useful marker-set transitions reachable from
        (state, position) by a marker-free run, in position order.

        Yields ``(j, block, target)`` triples.  Between two consecutive
        yields only O(1) work happens thanks to the jump pointers; a
        :class:`~repro.util.Budget` is charged one step per jump.
        """
        n = self.length
        nxt_pos = self.nxt_pos
        nxt_state = self.nxt_state
        while True:
            if budget is not None:
                budget.step()
            j = int(nxt_pos[position, state])
            if j < 0:
                return
            p = int(nxt_state[position, state])
            yield from (
                (j, block, target) for block, target in self.useful_edges(j, p)
            )
            if j >= n:
                return
            after_char = int(self.char_next[j, p])
            if after_char == _NO_STATE:
                return
            state, position = after_char, j + 1

    def size_in_cells(self) -> int:
        """Rough size of the index (cells across all tables) — used by the
        preprocessing-is-linear benchmark (experiment C1)."""
        n = self.length
        return 6 * (n + 1) * self.det.num_states
