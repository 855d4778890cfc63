"""Boolean linear-algebra kernels and the shared query-plan cache.

The survey's speed guarantees — O(|S|·|Q|³) compressed preprocessing
([39]), O(|X|) delay ([10], [2]) — all reduce to boolean reachability
matrices over the deterministic automaton's state set Q.  This package is
the dependency-light layer those matrices live on:

* :mod:`repro.kernels.bitmat` — |Q|×|Q| boolean matrices packed into
  uint64 bit-words (:class:`BitMatrix`), continuation vectors packed the
  same way (:class:`PackedVec`), and the primitives every consumer is
  wired onto: boolean matrix product (:func:`bool_mm`), the wave-batched,
  duplicate-collapsing product (:func:`bool_mm_many`), the batched
  ``(σ, T, T_em)`` pair combine shared by SLP preprocessing and the
  plain-text fold (:func:`combine_entries`), packed mat-vec
  (:func:`matvec`), row selection through a pure transition function
  (:func:`compose_rows`), and σ-scatter (:func:`function_bits`).  The
  seed float32 product is retained as :func:`reference_mm` so packed
  results stay differentially testable against it.
* :mod:`repro.kernels.plan` — a bounded, thread-safe LRU cache from
  spanner source text to its compiled plan (deterministic eVA + shared
  evaluator), with byte accounting through :class:`repro.util.Budget`
  and hit/miss/eviction counters in :mod:`repro.obs`.

Everything here depends only on numpy and the library's own util/obs
layers — no new third-party dependencies.
"""

from repro.kernels.bitmat import (
    BitMatrix,
    PackedVec,
    bool_mm,
    bool_mm_many,
    combine_entries,
    compose_rows,
    function_bits,
    function_bits_many,
    intern_many,
    intern_matrix,
    matvec,
    pack_rows,
    pack_vec,
    reference_compose_pure,
    reference_mm,
    unpack_rows,
    unpack_vec,
    words_for,
)
from repro.kernels.plan import (
    CompiledPlan,
    PlanCache,
    configure_plan_cache,
    plan_cache,
)

__all__ = [
    "BitMatrix",
    "CompiledPlan",
    "PackedVec",
    "PlanCache",
    "bool_mm",
    "bool_mm_many",
    "combine_entries",
    "compose_rows",
    "configure_plan_cache",
    "function_bits",
    "function_bits_many",
    "intern_many",
    "intern_matrix",
    "matvec",
    "pack_rows",
    "pack_vec",
    "plan_cache",
    "reference_compose_pure",
    "reference_mm",
    "unpack_rows",
    "unpack_vec",
    "words_for",
]
