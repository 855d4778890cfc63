"""Compressed NFA membership: ``D(S) ∈ L(M)`` without decompressing
(the warm-up task of Section 4.2).

For each SLP node A, a boolean |Q|×|Q| matrix ``M_A`` records from which
state which state is reachable by reading ``D(A)``; for a pair node,
``M_A = M_B · M_C`` (boolean matrix multiplication), computed bottom-up
along the DAG.  Total time ``O(|S| · |Q|^3)`` — possibly *exponentially*
faster than the ``O(|D| · |Q|^2)`` simulation on the decompressed document,
which is exactly the crossover benchmark C2 measures.

Matrices are held packed (:class:`repro.kernels.bitmat.BitMatrix`, uint64
bit-words per row).  :class:`CompressedMembership` is an
:class:`~repro.slp.fold.ArenaFold` whose leaves are the character
matrices and whose pair combine is one batched boolean product per
depth-wave (:func:`repro.kernels.bitmat.bool_mm_many`); memo, sealing,
rollback and duplicate collapsing are the fold's.
"""

from __future__ import annotations

import numpy as np

from repro.automata.nfa import NFA
from repro.core.alphabet import symbol_matches
from repro.kernels.bitmat import BitMatrix, bool_mm_many, pack_vec
from repro.slp.fold import ArenaFold
from repro.slp.slp import SLP

__all__ = ["CompressedMembership", "simulate_uncompressed"]


class CompressedMembership(ArenaFold):
    """Reusable compressed-membership oracle for one NFA.

    Per-(SLP, node) matrices are memoised per arena, so repeated queries
    against the same document database — including documents that share
    subtrees — pay only for new nodes, and a sealed root answers a repeat
    query without walking.  This is the incremental behaviour needed after
    CDE updates ([40]): an edit creates O(log |D|) fresh nodes, and only
    those get new matrices.
    """

    _metric = "slp.membership"

    def __init__(self, nfa: NFA) -> None:
        super().__init__()
        self.nfa = nfa.remove_epsilon()
        self.num_states = self.nfa.num_states
        self._char_matrices: dict[str, BitMatrix] = {}
        self._initial_rows = np.array(sorted(self.nfa.initial), dtype=np.int64)
        accepting = np.zeros(self.num_states, dtype=bool)
        for state in self.nfa.accepting:
            accepting[state] = True
        self._accepting_words = pack_vec(accepting)

    def _leaf(self, ch: str) -> BitMatrix:
        matrix = self._char_matrices.get(ch)
        if matrix is None:
            dense = np.zeros((self.num_states, self.num_states), dtype=bool)
            for source in self.nfa.states():
                for symbol, target in self.nfa.arcs_from(source):
                    if symbol is not None and symbol_matches(symbol, ch):
                        dense[source, target] = True
            matrix = BitMatrix.from_bool(dense)
            self._char_matrices[ch] = matrix
        return matrix

    def _combine(self, lefts: list, rights: list) -> list:
        return bool_mm_many(list(zip(lefts, rights)))

    def char_matrix(self, ch: str) -> np.ndarray:
        """The one-character transition matrix (bool, |Q|×|Q|)."""
        return self._leaf(ch).to_bool()

    def node_matrix(self, slp: SLP, node: int) -> np.ndarray:
        """The reachability matrix of ``D(node)`` as a bool array (a dense
        view of the packed form :meth:`node_bitmatrix` keeps cached)."""
        return self.node_bitmatrix(slp, node).to_bool()

    def node_bitmatrix(self, slp: SLP, node: int) -> BitMatrix:
        """The packed reachability matrix of ``D(node)``, bottom-up with
        memo (``slp.membership.*`` counters when :mod:`repro.obs` is on)."""
        return self.value(slp, node)

    def accepts(self, slp: SLP, node: int) -> bool:
        """Decide ``D(node) ∈ L(M)`` in O(new nodes · |Q|^3)."""
        matrix = self.node_bitmatrix(slp, node)
        if not len(self._initial_rows) or not self.nfa.accepting:
            return False
        return bool(
            (matrix.rows[self._initial_rows] & self._accepting_words).any()
        )


def simulate_uncompressed(nfa: NFA, doc: str) -> bool:
    """The baseline: classical O(|D| · |Q|^2) NFA simulation."""
    return nfa.accepts(doc)
