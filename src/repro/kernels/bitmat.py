"""Packed-bitset boolean matrices: the evaluation kernels.

A |Q|×|Q| boolean reachability matrix is stored as ``ceil(Q/64)`` uint64
words per row (``numpy.packbits`` layout, little bit order): 8× smaller
than the seed's bool arrays and 32× smaller than their transient float32
forms, and row-level operations (mat-vec against a continuation vector,
row gather through a pure transition function, union, single-bit scatter)
become a handful of word-wide numpy operations with **zero dtype
conversions on the enumeration hot path**.

Products still go through BLAS — a float32 matmul is exact for 0/1
matrices with |Q| < 2²⁴ and is the fastest primitive numpy exposes — but
the kernels change *how much* of it runs:

* :func:`bool_mm_many` multiplies a whole *wave* of independent SLP nodes
  in one batched product, and :func:`combine_entries` does the same for
  the ``(σ, T, T_em)`` pair combine shared by SLP preprocessing and the
  plain-text fold of :mod:`repro.parallel.fold`.  Both run one kernel:
  up to 128 states a stacked unpack-and-matmul, above it one 2-D GEMM per
  pair over cached float32 mirrors (:meth:`BitMatrix.f32`), so a matrix
  is converted at most once per preprocessing pass instead of once per
  product it participates in (the seed converted both operands on every
  multiply);
* the result is packed in one batched ``packbits``.

Duplicate collapsing is a two-tier scheme.  Operand pairs are grouped by
*object identity* — a dict lookup per pair, no hashing of matrix content
on the hot path — and equal-content matrices produced by different
subtrees are made one object by *interning* them (:func:`intern_many`: a
multiply-fold fingerprint, then an exact word-for-word comparison, so a
collision never merges unequal matrices).  The SLP fold
(:class:`repro.slp.fold.ArenaFold`) interns every wave it gets back from
these kernels.

:func:`reference_mm` / :func:`reference_compose_pure` retain the seed
float32 semantics verbatim; the differential test suite and the
before/after benchmark rows are built on them.
"""

from __future__ import annotations

import numpy as np

from repro import obs

__all__ = [
    "BitMatrix",
    "PackedVec",
    "bool_mm",
    "bool_mm_many",
    "combine_entries",
    "compose_rows",
    "function_bits",
    "function_bits_many",
    "intern_many",
    "intern_matrix",
    "matvec",
    "pack_rows",
    "pack_vec",
    "reference_compose_pure",
    "reference_mm",
    "unpack_rows",
    "unpack_vec",
    "words_for",
]

WORD_BITS = 64
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
# Above this |Q|, numpy's stacked (3-D) matmul stops beating a python
# loop of 2-D BLAS GEMMs (measured crossover ≈ 128–160 on this class of
# hardware), and the batch's float32 working set starts to thrash cache.
_BATCH_MM_MAX_Q = 128


def words_for(bits: int) -> int:
    """How many uint64 words hold *bits* bits (at least one)."""
    return max(1, (int(bits) + WORD_BITS - 1) // WORD_BITS)


def pack_rows(bools: np.ndarray) -> np.ndarray:
    """Pack a (..., q) bool array into (..., words_for(q)) uint64 words."""
    q = bools.shape[-1]
    w = words_for(q)
    packed8 = np.packbits(bools, axis=-1, bitorder="little")
    pad = w * 8 - packed8.shape[-1]
    if pad:
        packed8 = np.concatenate(
            [packed8, np.zeros(packed8.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    return np.ascontiguousarray(packed8).view(np.uint64)


def unpack_rows(packed: np.ndarray, q: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: (..., w) uint64 back to (..., q) bool."""
    bits = np.unpackbits(
        np.ascontiguousarray(packed).view(np.uint8),
        axis=-1,
        count=q,
        bitorder="little",
    )
    return bits.astype(bool)


def pack_vec(bools: np.ndarray) -> np.ndarray:
    """Pack a (q,) bool vector into (words_for(q),) uint64 words."""
    return pack_rows(bools.reshape(1, -1))[0]


def unpack_vec(words: np.ndarray, q: int) -> np.ndarray:
    return unpack_rows(words.reshape(1, -1), q)[0]


class BitMatrix:
    """An n×q boolean matrix held as packed uint64 rows.

    ``rows`` — shape (n, words_for(q)) — is the canonical representation;
    a float32 mirror (for BLAS products) and a bool mirror are derived on
    demand and cached until :meth:`release_dense` drops them.  Instances
    are treated as immutable once built; sharing one object between
    duplicate wave entries or cache hits is always safe.
    """

    __slots__ = ("q", "rows", "_f32", "_bools")

    def __init__(
        self,
        rows: np.ndarray,
        q: int,
        f32: np.ndarray | None = None,
        bools: np.ndarray | None = None,
    ) -> None:
        self.q = int(q)
        self.rows = rows
        self._f32 = f32
        self._bools = bools

    @classmethod
    def from_bool(cls, matrix: np.ndarray) -> "BitMatrix":
        matrix = np.asarray(matrix, dtype=bool)
        return cls(pack_rows(matrix), matrix.shape[-1], bools=matrix)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def nbytes(self) -> int:
        """Resident footprint (packed words plus any cached dense mirror)."""
        total = self.rows.nbytes
        if self._f32 is not None:
            total += self._f32.nbytes
        if self._bools is not None:
            total += self._bools.nbytes
        return total

    def to_bool(self) -> np.ndarray:
        if self._bools is None:
            self._bools = unpack_rows(self.rows, self.q)
        return self._bools

    def f32(self) -> np.ndarray:
        """The cached float32 0/1 mirror (exact for counting products)."""
        if self._f32 is None:
            self._f32 = self.to_bool().astype(np.float32)
        return self._f32

    def release_dense(self) -> None:
        """Drop the dense mirrors; the packed rows stay authoritative."""
        self._f32 = None
        self._bools = None

    def row_and_any(self, row: int, words: np.ndarray) -> bool:
        """``(self[row] & v).any()`` without unpacking anything."""
        return bool((self.rows[row] & words).any())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BitMatrix({self.n}x{self.q}, words={self.rows.shape[-1]})"


class PackedVec:
    """A boolean continuation vector with a lazily packed word form.

    The enumeration loop needs both single-state tests (``vec.bools[s]``)
    and whole-vector mat-vec operands (``vec.words``); keeping the bool
    form primary and packing on first use makes each descent pay only for
    what it touches.
    """

    __slots__ = ("bools", "_words")

    def __init__(self, bools: np.ndarray, words: np.ndarray | None = None) -> None:
        self.bools = bools
        self._words = words

    @property
    def words(self) -> np.ndarray:
        if self._words is None:
            self._words = pack_vec(self.bools)
        return self._words

    def any(self) -> bool:
        return bool(self.bools.any())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PackedVec(q={len(self.bools)}, set={int(self.bools.sum())})"


# ----------------------------------------------------------------------
# products
# ----------------------------------------------------------------------
def _clamped(product32: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamp a float32 counting product to exact 0/1 in place."""
    np.minimum(product32, 1.0, out=product32)
    return product32, product32 != 0


def bool_mm(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Boolean matrix product ``a @ b`` (exact; result carries warm mirrors)."""
    if obs.enabled():
        obs.metrics().counter("kernels.mm").inc()
    c32, cb = _clamped(a.f32() @ b.f32())
    return BitMatrix(pack_rows(cb), b.q, f32=c32, bools=cb)


def _fold_keys(stack: np.ndarray) -> np.ndarray:
    """One uint64 fingerprint per matrix of a (m, n, w) packed stack."""
    m = stack.shape[0]
    flat = stack.reshape(m, -1)
    mult = (
        np.arange(flat.shape[1], dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    ) * _GOLDEN
    with np.errstate(over="ignore"):
        return (flat * mult).sum(axis=1, dtype=np.uint64)


def intern_matrix(pool: dict, matrix: BitMatrix, key: int | None = None) -> BitMatrix:
    """Canonicalise *matrix* against *pool* (fingerprint → exact verify).

    Returns the pooled object when one with identical packed content
    exists, otherwise registers *matrix* and returns it.  Fingerprint
    collisions are harmless: colliding matrices share a bucket and the
    word-for-word comparison keeps unequal ones apart.  Callers holding
    a whole wave can pass precomputed *key* values from one batched
    :func:`_fold_keys` call instead of folding one matrix at a time.
    """
    if key is None:
        key = int(_fold_keys(matrix.rows[None])[0])
    slot = (key, matrix.rows.shape)
    bucket = pool.get(slot)
    if bucket is None:
        pool[slot] = [(matrix.rows.tobytes(), matrix)]
        return matrix
    payload = matrix.rows.tobytes()
    for prior_payload, prior in bucket:
        if prior_payload == payload:
            return prior
    bucket.append((payload, matrix))
    return matrix


def intern_many(pool: dict, matrices: list[BitMatrix]) -> list[BitMatrix]:
    """Canonicalise a batch of matrices with one fingerprint pass.

    Equivalent to :func:`intern_matrix` per element but folds the whole
    stack at once; used by consumers that derive per-node matrices from a
    wave (e.g. ``T = T_em ∪ σ``) and want them deduplicated before they
    become operands of the next wave.
    """
    if not matrices:
        return matrices
    keys = _fold_keys(np.stack([m.rows for m in matrices]))
    return [
        intern_matrix(pool, matrix, key=int(keys[k]))
        for k, matrix in enumerate(matrices)
    ]


def _distinct_pairs(pairs) -> tuple[list, list[int]]:
    """Group operand pairs by object identity: ``(distinct, inverse)``
    with ``pairs[k]`` equal to ``distinct[inverse[k]]``.  Records the
    ``kernels.mm`` / ``kernels.mm_collapsed`` counters."""
    group_of: dict[tuple[int, int], int] = {}
    distinct: list = []
    inverse: list[int] = []
    for ab in pairs:
        g = group_of.setdefault((id(ab[0]), id(ab[1])), len(distinct))
        if g == len(distinct):
            distinct.append(ab)
        inverse.append(g)
    if obs.enabled():
        registry = obs.metrics()
        registry.counter("kernels.mm").inc(len(distinct))
        registry.counter("kernels.mm_collapsed").inc(len(pairs) - len(distinct))
    return distinct, inverse


def _as_f32(matrix, q: int) -> np.ndarray:
    if isinstance(matrix, BitMatrix):
        return matrix.f32()
    return unpack_rows(matrix, q).astype(np.float32)


def _pair_products(a, b, q: int) -> np.ndarray:
    """Packed boolean products ``a[k] @ b[k]`` as one (m, q, w) stack —
    the one batched product kernel.

    *a* and *b* are both packed (m, q, w) stacks or both lists of
    :class:`BitMatrix`.  Up to :data:`_BATCH_MM_MAX_Q` states the operands
    are unpacked into one stacked float32 matmul and no mirror is kept.
    Above it each pair is one 2-D BLAS GEMM, and list operands go through
    their cached :meth:`BitMatrix.f32` mirrors, which an SLP pass reuses
    wherever a node matrix is an operand more than once."""
    if q <= _BATCH_MM_MAX_Q:
        if not isinstance(a, np.ndarray):
            a = np.stack([x.rows for x in a])
            b = np.stack([y.rows for y in b])
        product = np.matmul(
            unpack_rows(a, q).astype(np.float32),
            unpack_rows(b, q).astype(np.float32),
        ) > 0.5
    else:
        product = np.empty((len(a), q, q), dtype=bool)
        for k in range(len(a)):
            product[k] = (_as_f32(a[k], q) @ _as_f32(b[k], q)) > 0.5
    return pack_rows(product)


def bool_mm_many(pairs: list[tuple[BitMatrix, BitMatrix]]) -> list[BitMatrix]:
    """Product of every (A, B) pair — one batched product per wave
    (:func:`_pair_products`).

    Pairs whose operands are the *same objects* are computed once and
    share one result."""
    if not pairs:
        return []
    distinct, inverse = _distinct_pairs(pairs)
    q = distinct[0][1].q
    packed = _pair_products(
        [a for a, _ in distinct], [b for _, b in distinct], q
    )
    results = [BitMatrix(packed[k], q) for k in range(len(distinct))]
    return [results[g] for g in inverse]


def combine_entries(sig_l, t_em_l, sig_r, t_r, t_em_r, q: int, dead: int = -1):
    """Batched pair combine of ``(σ, T, T_em)`` entries, m pairs at once.

    The one implementation of the algebra that SLP preprocessing and the
    plain-text fold of :mod:`repro.parallel.fold` share:

    * ``σ = σ_R ∘ σ_L`` as partial functions (*dead* absorbs);
    * ``T_em = T_em_L · T_R  ∪  σ_L-pull(T_em_R)`` — the first emission is
      in the left part, or the left part runs pure and it is in the right;
    * ``T = T_em ∪ σ`` — a run either emits or is exactly the pure run.

    ``sig_l`` / ``sig_r`` are (m, q) int64 stacks and ``t_em_r`` a packed
    (m, q, w) stack; the product operands ``t_em_l`` / ``t_r`` may also be
    lists of :class:`BitMatrix`, whose pairs go through :func:`bool_mm_many`
    (one product per distinct pair of objects).  Returns
    ``(σ, T rows, T_em rows)`` stacks.  Every step is exact, so any
    parenthesisation of a document folds to the same words."""
    if isinstance(t_em_l, np.ndarray):
        product_rows = _pair_products(t_em_l, t_r, q)
    else:
        product_rows = np.stack(
            [m.rows for m in bool_mm_many(list(zip(t_em_l, t_r)))]
        )
    dead_l = sig_l == dead
    index = np.where(dead_l, 0, sig_l)
    sigma = np.where(dead_l, dead, np.take_along_axis(sig_r, index, axis=1))
    pulled = np.take_along_axis(t_em_r, index[:, :, None], axis=1)
    pulled[dead_l] = 0
    t_em = product_rows | pulled
    return sigma, t_em | function_bits_many(sigma, q, dead), t_em


def matvec(a: BitMatrix, vec: PackedVec) -> PackedVec:
    """Boolean ``a @ vec``: which rows of *a* intersect the set *vec*."""
    return PackedVec((a.rows & vec.words).any(axis=1))


def compose_rows(sigma: np.ndarray, matrix: BitMatrix, dead: int = -1) -> BitMatrix:
    """Rows of *matrix* pulled through the partial function σ (dead → 0-row)."""
    invalid = sigma == dead
    gathered = matrix.rows[np.where(invalid, 0, sigma)]
    gathered[invalid] = 0
    return BitMatrix(gathered, matrix.q)


def function_bits(sigma: np.ndarray, q: int, dead: int = -1) -> BitMatrix:
    """The partial function σ as a packed relation: bit σ[s] set in row s."""
    w = words_for(q)
    rows = np.zeros((len(sigma), w), dtype=np.uint64)
    valid = np.nonzero(sigma != dead)[0]
    targets = sigma[valid]
    rows[valid, targets // WORD_BITS] = np.uint64(1) << (
        targets % WORD_BITS
    ).astype(np.uint64)
    return BitMatrix(rows, q)


def function_bits_many(sigmas: np.ndarray, q: int, dead: int = -1) -> np.ndarray:
    """Batched :func:`function_bits`: (m, n) σ stack → (m, n, w) packed rows."""
    m, n = sigmas.shape
    w = words_for(q)
    rows = np.zeros((m, n, w), dtype=np.uint64)
    batch, source = np.nonzero(sigmas != dead)
    targets = sigmas[batch, source]
    rows[batch, source, targets // WORD_BITS] = np.uint64(1) << (
        targets % WORD_BITS
    ).astype(np.uint64)
    return rows


# ----------------------------------------------------------------------
# the retained seed implementation (differential anchor)
# ----------------------------------------------------------------------
def reference_mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The seed boolean product: float32 matmul with per-use conversions."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0.5


def reference_compose_pure(
    sigma: np.ndarray, matrix: np.ndarray, dead: int = -1
) -> np.ndarray:
    """The seed σ-composition on bool matrices (dead rows zeroed)."""
    gathered = matrix[np.where(sigma == dead, 0, sigma)]
    gathered[sigma == dead] = False
    return gathered
