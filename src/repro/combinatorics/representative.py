"""Erdős–Hajnal–Moon representative families.

The paper (§1.2) observes that its pruning technique is a distributed
implementation of a 1964 lemma of Erdős, Hajnal and Moon:

    Let ``F`` be a family of subsets of size <= p of a ground set V, and
    fix q with p + q <= |V|.  Then there is a subfamily ``F̂ ⊆ F`` with
    ``|F̂| <= C(p+q, p)`` such that for every set C of size <= q: if some
    ``L ∈ F`` is disjoint from C, then some ``L̂ ∈ F̂`` is disjoint from C.

``F̂`` is called a *q-representative* subfamily of ``F``.  This module
provides:

* :func:`greedy_representative_family` — the greedy subfamily computed by
  exactly the rule Algorithm 1 applies at each node (kept sets "consume"
  the witnesses disjoint from them).  Its size obeys the Lemma-3-style
  bound ``(q+1)^p`` (not the optimal binomial, but constant for constant
  p, q — which is all the distributed algorithm needs).
* :func:`greedy_keeps` — that rule's decision on one set, which
  :class:`~repro.core.pruning.HittingSetPruner` applies too.
* :func:`is_representative` — brute-force verifier of the representation
  property (test oracle).
* :func:`ehm_bound` / :func:`greedy_bound` — the two size bounds.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import FrozenSet, Iterable, List, Sequence

from .hitting import has_hitting_set

__all__ = [
    "greedy_representative_family",
    "greedy_keeps",
    "is_representative",
    "ehm_bound",
    "greedy_bound",
]


def greedy_representative_family(
    family: Sequence[Iterable],
    q: int,
) -> List[FrozenSet]:
    """Greedy q-representative subfamily, in input order.

    A set ``L`` is kept iff there remains a *witness*: a q-element set
    disjoint from ``L`` (over an implicit ground set large enough to pad —
    the paper's "fake IDs") that intersects every previously kept set.
    By the hitting-set duality this holds iff ``{K \\ L : K kept}`` has a
    hitting set of size <= q, with no kept set fully inside ``L``.

    This reproduces Algorithm 1's Instructions 16–23 verbatim at the level
    of kept/discarded decisions (see the equivalence tests).
    """
    if q < 0:
        raise ValueError(f"q must be non-negative, got {q}")
    kept: List[FrozenSet] = []
    for raw in family:
        L = frozenset(raw)
        if greedy_keeps(kept, L, q):
            kept.append(L)
    return kept


def greedy_keeps(kept: Sequence[FrozenSet], L: FrozenSet, q: int) -> bool:
    """Whether the greedy rule keeps ``L`` after the sets ``kept``: no
    kept set lies inside ``L``, and the residues ``{K \\ L : K kept}``
    have a hitting set of at most ``q`` elements."""
    residues = []
    for K in kept:
        r = K - L
        if not r:
            # K ⊆ L: every witness disjoint from L misses K too.
            return False
        residues.append(r)
    return has_hitting_set(residues, q)


def is_representative(
    subfamily: Sequence[Iterable],
    family: Sequence[Iterable],
    q: int,
    ground: Sequence,
) -> bool:
    """Brute-force check of the EHM property over an explicit ground set.

    For every C ⊆ ground with |C| <= q: if some member of ``family`` is
    disjoint from C then some member of ``subfamily`` must be too.
    Exponential in |ground|; test-oracle only.
    """
    fam = [frozenset(s) for s in family]
    sub = [frozenset(s) for s in subfamily]
    ground_list = list(ground)
    for size in range(0, q + 1):
        for combo in combinations(ground_list, size):
            C = frozenset(combo)
            if any(not (L & C) for L in fam) and not any(
                not (Lh & C) for Lh in sub
            ):
                return False
    return True


def ehm_bound(p: int, q: int) -> int:
    """The Erdős–Hajnal–Moon bound ``C(p+q, p)`` on an optimal
    q-representative subfamily of p-sets."""
    return comb(p + q, p)


def greedy_bound(p: int, q: int) -> int:
    """Size bound ``(q+1)^p`` achieved by the greedy rule (the Lemma-3
    argument of the paper, rephrased with p = sequence length and
    q = k - t)."""
    return (q + 1) ** p
