"""Columnar projection blocks — batch-at-a-time kernel input.

The Stage-2 kernels historically verified candidates pair-at-a-time:
every record carried its own ``array('i')`` of token ranks, and every
verification ran a pure-Python merge loop over two of them.  This
module packs a whole block of records into **one** contiguous buffer
with parallel metadata arrays — the columnar layout the batch kernels
consume::

    tokens    array('i')  r0.t0 r0.t1 … r1.t0 r1.t1 … r2.t0 …
    offsets   array('q')  0     len(r0)      len(r0)+len(r1) …
    sizes     true set sizes (before S-side token dropping)
    sigs      bitmap-signature words
    rels/rids relation tags and record ids

Row *i*'s tokens are the zero-copy ``memoryview`` slice
``tokens[offsets[i]:offsets[i+1]]`` — candidate scans and the PPJoin
verify loop read straight out of the flat array and never materialize
a per-record tuple or list.  Exact overlaps are computed with one
C-level set intersection per pair over cached per-row frozensets.  It
returns the *exact* intersection cardinality, so batch verification is
bit-for-bit identical to the scalar
:func:`repro.core.verification.verify_pair` — similarities,
accept/reject decisions and filter counters included (differential-
and property-tested).

The layout is element-type generic like the kernels themselves: rank
encoding uses the packed ``array('i')`` fast path; the ``"string"``
encoding keeps the lexicographically sorted token tuples as rows of an
object column and routes overlaps through the same set-intersection
code.  Token arrays must be duplicate-free and sorted under one total
order — the invariant every Stage-1 encoding already guarantees.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.similarity import SimilarityFunction

__all__ = [
    "REL_R",
    "REL_S",
    "TokenBatch",
    "batch_spans",
    "verify_rows",
]

#: Relation tags of the Stage-2 wire values (R sorts before S).
REL_R = 0
REL_S = 1

_INT_MAX = (1 << 31) - 1
_INT_MIN = -(1 << 31)

def batch_spans(count: int, batch_size: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` row spans covering ``count`` rows in
    blocks of at most ``batch_size`` (the last span may be shorter)."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return [
        (start, min(start + batch_size, count))
        for start in range(0, count, batch_size)
    ]


class TokenBatch:
    """One columnar block of Stage-2 projections.

    Built from wire values ``(rel, rid, true_size, signature, tokens)``
    via :meth:`from_projections`.  When every token array is a compact
    ``array('i')`` the block is *columnar*: all ranks live in one flat
    buffer and :meth:`view` returns zero-copy memoryview slices.  Other
    element types (the ``"string"`` encoding's sorted tuples) fall back
    to an object column with identical semantics.
    """

    __slots__ = (
        "count",
        "rels",
        "rids",
        "true_sizes",
        "sigs",
        "tokens",
        "offsets",
        "rows",
        "_mv",
        "_sets",
    )

    def __init__(
        self,
        count: int,
        rels: list[int],
        rids: list[int],
        true_sizes: list[int],
        sigs: list[int | None],
        tokens: array | None,
        offsets: array | None,
        rows: list[Sequence] | None,
    ) -> None:
        self.count = count
        self.rels = rels
        self.rids = rids
        self.true_sizes = true_sizes
        self.sigs = sigs
        #: flat rank column (columnar blocks) or ``None``
        self.tokens = tokens
        #: row boundaries into :attr:`tokens`; ``count + 1`` entries
        self.offsets = offsets
        #: object column for non-integer encodings or ``None``
        self.rows = rows
        self._mv = memoryview(tokens) if tokens is not None else None
        #: lazily built per-row frozensets (the stdlib overlap path)
        self._sets: list[frozenset | None] = [None] * count

    @classmethod
    def from_projections(cls, values: Sequence[tuple]) -> "TokenBatch":
        """Pack wire projections ``(rel, rid, true_size, sig, tokens)``
        into one columnar block (row order preserved)."""
        count = len(values)
        rels: list[int] = []
        rids: list[int] = []
        true_sizes: list[int] = []
        sigs: list[int | None] = []
        columnar = all(isinstance(value[4], array) for value in values)
        if columnar:
            flat = array("i")
            offsets = array("q", [0])
            for rel, rid, true_size, sig, toks in values:
                rels.append(rel)
                rids.append(rid)
                true_sizes.append(true_size)
                sigs.append(sig)
                flat.extend(toks)
                offsets.append(len(flat))
            return cls(count, rels, rids, true_sizes, sigs, flat, offsets, None)
        rows: list[Sequence] = []
        for rel, rid, true_size, sig, toks in values:
            rels.append(rel)
            rids.append(rid)
            true_sizes.append(true_size)
            sigs.append(sig)
            rows.append(toks if isinstance(toks, tuple) else tuple(toks))
        return cls(count, rels, rids, true_sizes, sigs, None, None, rows)

    @classmethod
    def from_token_arrays(
        cls, token_arrays: Sequence[Sequence], sigs: Sequence[int | None] | None = None
    ) -> "TokenBatch":
        """Pack bare token arrays (rids = row indices, rel = R) — the
        entry point for standalone/batch-bench use."""
        sig_list: Sequence[int | None] = sigs or [None] * len(token_arrays)
        return cls.from_projections(
            [
                (REL_R, i, len(toks), sig_list[i], toks)
                for i, toks in enumerate(token_arrays)
            ]
        )

    @property
    def columnar(self) -> bool:
        return self.tokens is not None

    def size(self, i: int) -> int:
        """Token count of row *i* (the shipped, possibly S-filtered
        array — not the true set size)."""
        if self.offsets is not None:
            return self.offsets[i + 1] - self.offsets[i]
        assert self.rows is not None
        return len(self.rows[i])

    def view(self, i: int) -> Sequence:
        """Row *i*'s tokens without copying: a flat-buffer memoryview
        slice (columnar) or the stored tuple (object column)."""
        if self._mv is not None:
            assert self.offsets is not None
            return self._mv[self.offsets[i] : self.offsets[i + 1]]
        assert self.rows is not None
        return self.rows[i]

    def token_set(self, i: int) -> frozenset:
        """Row *i*'s tokens as a cached frozenset (tokens are duplicate-
        free, so ``len(token_set(i)) == size(i)``)."""
        cached = self._sets[i]
        if cached is None:
            cached = frozenset(self.view(i))
            self._sets[i] = cached
        return cached

    def overlap(self, i: int, other: "TokenBatch", j: int) -> int:
        """Exact ``|row_i ∩ other.row_j|``: one C-level frozenset
        intersection, so any consumer that branches on the cardinality
        behaves exactly like the scalar merge."""
        return len(self.token_set(i) & other.token_set(j))


def verify_rows(
    b1: TokenBatch,
    i: int,
    b2: TokenBatch,
    j: int,
    sim: "SimilarityFunction",
    threshold: float,
) -> float | None:
    """Batch analog of :func:`repro.core.verification.verify_pair`
    (presorted): exact similarity when ``sim >= threshold``, else
    ``None`` — bit-for-bit identical to the scalar merge because both
    compute the exact overlap cardinality.

    True set sizes come from the block metadata, so S-filtered rows
    verify exactly like the scalar kernels (Section 4 Stage 1).
    """
    n1 = b1.true_sizes[i]
    n2 = b2.true_sizes[j]
    if n1 == 0 or n2 == 0:
        return None
    alpha = sim.overlap_threshold(n1, n2, threshold)
    # length filter: the overlap cannot exceed either shipped row, so a
    # row shorter than α rejects before any intersection (admissible —
    # the full computation would return None too).
    if b1.size(i) < alpha or b2.size(j) < alpha:
        return None
    common = b1.overlap(i, b2, j)
    if common < alpha or not sim.accepts_overlap(n1, n2, common, threshold):
        return None
    return sim.similarity_from_overlap(n1, n2, common)


def verify_batch_pairs(
    batch: TokenBatch,
    pairs: Sequence[tuple[int, int]],
    sim: "SimilarityFunction",
    threshold: float,
    emit: Callable[[int, int, float], None] | None = None,
) -> list[tuple[int, int, float]]:
    """Verify many row pairs against one block (the micro-bench /
    standalone batch entry point).  Returns accepted ``(i, j, sim)``
    triples in input order; *emit* receives them as they are found.

    The batch shape is what buys the speed: similarity-method lookups
    are hoisted out of the loop, overlap thresholds are memoized per
    size pair, and the length filter prunes before any intersection.
    Every shortcut is admissible, so the accepted triples are
    bit-identical to a :func:`verify_rows` loop.
    """
    results: list[tuple[int, int, float]] = []
    append = results.append
    true_sizes = batch.true_sizes
    sizes = [batch.size(r) for r in range(batch.count)]
    token_set = batch.token_set
    accepts_overlap = sim.accepts_overlap
    similarity_from_overlap = sim.similarity_from_overlap
    alphas: dict[tuple[int, int], int] = {}
    for i, j in pairs:
        n1 = true_sizes[i]
        n2 = true_sizes[j]
        if n1 == 0 or n2 == 0:
            continue
        key = (n1, n2)
        alpha = alphas.get(key)
        if alpha is None:
            alpha = sim.overlap_threshold(n1, n2, threshold)
            alphas[key] = alpha
        if sizes[i] < alpha or sizes[j] < alpha:
            continue
        common = len(token_set(i) & token_set(j))
        if common < alpha or not accepts_overlap(n1, n2, common, threshold):
            continue
        similarity = similarity_from_overlap(n1, n2, common)
        append((i, j, similarity))
        if emit is not None:
            emit(i, j, similarity)
    return results
