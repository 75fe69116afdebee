"""Reference join output for the benchmark's correctness check.

``repro.core.naive`` is the ground truth, but it is quadratic with a
set build per pair: about five minutes for the 12,000-record
``self_dblp`` input.  ``reference_pairs`` computes the same answer
exactly in seconds.  It tokenizes each record once, then keeps only
the pairs whose frequency-ordered prefixes share a token and whose
sizes are within a factor t of each other; by the prefix-filter and
length-filter lemmas every pair with Jaccard >= t passes both tests.
Each surviving pair is scored with the same
``SimilarityFunction.similarity`` call the naive oracle makes.
``test_perfbench.py`` checks it against ``repro.core.naive`` on every
workload recipe.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict


def token_sets(lines: list[str], config) -> list[tuple[int, frozenset]]:
    """``(rid, token set)`` of each record, tokenized as the join does."""
    from repro.join.records import join_value, rid_of

    return [
        (rid_of(line), frozenset(config.tokenizer.tokenize(join_value(line, config.schema))))
        for line in lines
    ]


def naive_projections(lines: list[str], config) -> list:
    """Projections in the shape ``repro.core.naive`` takes."""
    from repro.core.prefixes import Projection

    return [Projection(rid, tuple(sorted(tokens))) for rid, tokens in token_sets(lines, config)]


def _prefix_length(size: int, threshold: float) -> int:
    # |x| - ceil(t|x|) + 1 tokens; the epsilon only lengthens the
    # prefix (more candidates), never shortens it
    return min(size, size - math.ceil(threshold * size - 1e-9) + 1)


def reference_pairs(
    relations: dict[str, list[str]], config
) -> list[tuple[int, int, float]]:
    """Sorted ``(rid, rid, similarity)`` triples: ``(low, high, s)`` for
    a self-join (one relation ``records``), ``(r, s, sim)`` for R-S."""
    sim, threshold = config.sim, config.threshold
    if sim.name != "jaccard":
        raise ValueError(f"the prefix lemma here assumes jaccard, got {sim.name}")
    sides = [token_sets(relations[name], config) for name in sorted(relations)]
    # R-S: relations are "r" < "s"; self: the single "records" side
    frequency: Counter[str] = Counter()
    for side in sides:
        for _rid, tokens in side:
            frequency.update(tokens)

    def prefix(tokens: frozenset) -> list[str]:
        ordered = sorted(tokens, key=lambda tok: (frequency[tok], tok))
        return ordered[: _prefix_length(len(ordered), threshold)]

    index: dict[str, list[int]] = defaultdict(list)
    indexed = sides[0]
    for position, (_rid, tokens) in enumerate(indexed):
        for tok in prefix(tokens):
            index[tok].append(position)

    probes = sides[-1]
    results = []
    for p_pos, (p_rid, p_tokens) in enumerate(probes):
        seen = set()
        for tok in prefix(p_tokens):
            seen.update(index.get(tok, ()))
        p_size = len(p_tokens)
        for i_pos in seen:
            if len(sides) == 1 and i_pos >= p_pos:
                continue  # each unordered self pair once, no self pairs
            i_rid, i_tokens = indexed[i_pos]
            i_size = len(i_tokens)
            if min(i_size, p_size) < threshold * max(i_size, p_size) - 1e-9:
                continue
            common = len(i_tokens & p_tokens)
            if common < threshold * (i_size + p_size - common) - 1e-9:
                continue
            similarity = sim.similarity(i_tokens, p_tokens)
            if similarity >= threshold:
                if len(sides) == 1:
                    results.append((min(i_rid, p_rid), max(i_rid, p_rid), similarity))
                else:
                    results.append((i_rid, p_rid, similarity))
    results.sort()
    return results
