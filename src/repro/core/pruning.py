"""The pruning rule of Algorithm 1 (Instructions 15–23).

Given the received sequences ``R`` (each of length ``t-1``) at round ``t``
of a ``C_k`` search, a node forwards only a subfamily ``S ⊆ R`` chosen so
that (Lemma 2's invariant) *if any received sequence could be completed
into a k-cycle by k-t further vertices, some forwarded sequence can be
completed by those same vertices*.

Two implementations with provably identical behaviour:

* :class:`ExplicitPruner` — the literal transcription: materialise
  ``X`` = all (k-t)-subsets of ``I`` (collected IDs plus k-t fake IDs),
  keep ``L`` iff some remaining member of ``X`` is disjoint from it, then
  delete everything disjoint from ``L``.  Exponential in ``|I|``; used as
  the executable specification and test oracle.

* :class:`HittingSetPruner` — the equivalent lazy rule: ``L`` is kept iff
  no previously kept ``K`` satisfies ``K ⊆ L`` and the family
  ``{K \\ L : K kept so far}`` has a hitting set of size ``<= k - t``
  (:func:`~repro.combinatorics.representative.greedy_keeps`, the rule of
  the greedy representative family with ``q = k - t``).

  *Why equivalent:* a surviving witness ``X`` (|X| = k-t, X ∩ L = ∅,
  X ∩ K ≠ ∅ for every earlier kept K) yields the hitting set
  ``X ∩ (real IDs)`` of the residues; conversely a hitting set ``H`` of
  the residues (|H| <= k-t, H ∩ L = ∅ since residues avoid L) padded with
  unused fake IDs to exactly k-t elements is a surviving witness.  Fake
  IDs make the padding always possible and hit no residue, so the two
  decisions coincide sequence-for-sequence when processed in the same
  order.  (``tests/test_pruning.py`` checks this exhaustively and with
  hypothesis.)

Both process sequences in the deterministic sorted order from
:func:`repro.core.sequences.sort_sequences`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import FrozenSet, List, Sequence, Set

from .._types import IdSequence
from ..combinatorics.representative import greedy_keeps
from ..combinatorics.subsets import count_k_subsets, k_subsets
from ..errors import ConfigurationError
from .sequences import collect_ids, fake_ids, sort_sequences

__all__ = ["Pruner", "ExplicitPruner", "HittingSetPruner", "lemma3_bound"]


def lemma3_bound(k: int, t: int) -> int:
    """Lemma 3: a message sent at round ``t`` carries at most
    ``(k - t + 1)^(t - 1)`` sequences (of ``t`` IDs each)."""
    if not 1 <= t <= k // 2:
        raise ConfigurationError(f"round t={t} outside 1..k//2 for k={k}")
    return (k - t + 1) ** (t - 1)


class Pruner(ABC):
    """Strategy interface for the round-``t`` sequence selection."""

    @abstractmethod
    def select(
        self, sequences: Sequence[IdSequence], k: int, t: int
    ) -> List[IdSequence]:
        """Return the kept subfamily of ``sequences`` (each of length t-1),
        in processing order.  ``t`` is the current round, ``2 <= t <= k//2``.
        """

    @staticmethod
    def _check(sequences: Sequence[IdSequence], k: int, t: int) -> None:
        if k < 3:
            raise ConfigurationError(f"k must be >= 3, got {k}")
        if not 2 <= t <= k // 2:
            raise ConfigurationError(
                f"pruning happens at rounds 2..k//2; got t={t} for k={k}"
            )
        for seq in sequences:
            if len(seq) != t - 1:
                raise ConfigurationError(
                    f"round-{t} sequences must have {t - 1} IDs, got {seq!r}"
                )


class ExplicitPruner(Pruner):
    """Literal Instructions 15–23 (exponential; specification/oracle).

    ``max_subsets`` guards against accidental combinatorial blow-up when
    someone runs the oracle on a large instance.
    """

    def __init__(self, max_subsets: int = 2_000_000):
        self._max_subsets = max_subsets

    def select(
        self, sequences: Sequence[IdSequence], k: int, t: int
    ) -> List[IdSequence]:
        """Literal Instructions 15-23 over materialised witness subsets."""
        self._check(sequences, k, t)
        ordered = sort_sequences(sequences)
        if not ordered:
            return []
        ids: Set[int] = collect_ids(ordered)
        ids.update(fake_ids(k, t))  # Instruction 14
        ground = sorted(ids)
        q = k - t
        if count_k_subsets(len(ground), q) > self._max_subsets:
            raise ConfigurationError(
                f"explicit pruner would enumerate more than "
                f"{self._max_subsets} subsets; use HittingSetPruner"
            )
        # Instruction 15: X <- all (k-t)-subsets of I.
        X: Set[FrozenSet[int]] = set(k_subsets(ground, q))
        kept: List[IdSequence] = []
        for L in ordered:  # Instructions 17-23
            Lset = frozenset(L)
            C = {x for x in X if not (x & Lset)}
            if C:
                kept.append(L)
                X -= C
        return kept


class HittingSetPruner(Pruner):
    """Lazy, behaviourally-identical pruner (the production default)."""

    def select(
        self, sequences: Sequence[IdSequence], k: int, t: int
    ) -> List[IdSequence]:
        """Equivalent lazy rule via hitting sets of kept-set residues."""
        self._check(sequences, k, t)
        kept: List[IdSequence] = []
        kept_sets: List[FrozenSet[int]] = []
        for L in sort_sequences(sequences):
            Lset = frozenset(L)
            if greedy_keeps(kept_sets, Lset, k - t):
                kept.append(L)
                kept_sets.append(Lset)
        return kept
