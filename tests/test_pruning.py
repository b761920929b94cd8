"""Tests for the Algorithm-1 pruning rule.

The central property: :class:`HittingSetPruner` is *behaviourally
identical* to the literal :class:`ExplicitPruner` (Instructions 15–23), so
the paper's Lemma 2/3 analysis transfers to the fast implementation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pruning import ExplicitPruner, HittingSetPruner, lemma3_bound
from repro.core.sequences import (
    collect_ids,
    drop_containing,
    fake_ids,
    is_valid_sequence,
    sort_sequences,
)
from repro.errors import ConfigurationError


def make_sequences(draw_ids, t):
    """Build distinct-ID sequences of length t-1 from a flat pool."""
    seqs = []
    pool = list(draw_ids)
    width = t - 1
    for i in range(0, len(pool) - width + 1, width):
        chunk = tuple(pool[i: i + width])
        if len(set(chunk)) == width:
            seqs.append(chunk)
    return seqs


class TestSequencesHelpers:
    def test_sort_deterministic(self):
        assert sort_sequences([(3, 1), (1, 2)]) == [(1, 2), (3, 1)]

    def test_collect_ids(self):
        assert collect_ids([(1, 2), (2, 3)]) == {1, 2, 3}

    def test_drop_containing(self):
        assert drop_containing([(1, 2), (3, 4)], 2) == [(3, 4)]

    def test_fake_ids(self):
        assert fake_ids(7, 3) == (-1, -2, -3, -4)
        assert fake_ids(5, 2) == (-1, -2, -3)

    def test_is_valid_sequence(self):
        assert is_valid_sequence((1, 2, 3))
        assert not is_valid_sequence((1, 1))
        assert not is_valid_sequence(())
        assert not is_valid_sequence([1, 2])
        assert not is_valid_sequence((-1, 2))


class TestValidation:
    def test_bad_k(self):
        with pytest.raises(ConfigurationError):
            HittingSetPruner().select([], 2, 2)

    def test_bad_round(self):
        with pytest.raises(ConfigurationError):
            HittingSetPruner().select([], 7, 1)
        with pytest.raises(ConfigurationError):
            HittingSetPruner().select([], 7, 4)  # k//2 = 3

    def test_wrong_length(self):
        with pytest.raises(ConfigurationError):
            HittingSetPruner().select([(1, 2)], 8, 2)


class TestBehaviour:
    def test_empty_input(self):
        assert HittingSetPruner().select([], 7, 2) == []
        assert ExplicitPruner().select([], 7, 2) == []

    def test_first_sequence_always_kept(self):
        """The fake-ID witness guarantees the first processed sequence
        survives (paper §3.3)."""
        for k in (5, 6, 7, 8, 9):
            for t in range(2, k // 2 + 1):
                seq = tuple(range(100, 100 + t - 1))
                assert HittingSetPruner().select([seq], k, t) == [seq]

    def test_duplicate_id_sets_keep_one(self):
        """P_0 of Lemma 3: per ID-set, at most one ordering survives."""
        seqs = [(1, 2, 3), (3, 2, 1), (2, 1, 3)]
        kept = HittingSetPruner().select(seqs, 8, 4)
        assert len(kept) == 1

    def test_disjoint_singletons_cap(self):
        """Sequences sharing a prefix {u}: exactly k-t+1 survive."""
        k, t = 7, 3
        seqs = [(100, 200 + i) for i in range(10)]
        kept = HittingSetPruner().select(seqs, k, t)
        assert len(kept) == k - t + 1  # 5

    def test_all_disjoint_sequences_cap(self):
        """Pairwise-disjoint length-1 sequences: k-t+1 survive."""
        k, t = 9, 2
        seqs = [(i,) for i in range(20)]
        kept = HittingSetPruner().select(seqs, k, t)
        assert len(kept) == k - t + 1  # 8

    def test_lemma3_bound_formula(self):
        assert lemma3_bound(9, 1) == 1
        assert lemma3_bound(9, 2) == 8
        assert lemma3_bound(9, 3) == 49
        assert lemma3_bound(9, 4) == 216
        with pytest.raises(ConfigurationError):
            lemma3_bound(9, 5)

    def test_explicit_guard(self):
        big = [(i, i + 100) for i in range(0, 80, 2)]
        with pytest.raises(ConfigurationError):
            ExplicitPruner(max_subsets=10).select(big, 10, 3)


class TestBelowThreshold:
    """The facts the ``fast`` engine's shortcuts rest on: below the
    threshold the rule forwards a family whole, so a node with one
    surviving row, or with the two endpoint singletons at round 2, needs
    no pruner call."""

    PRUNERS = (HittingSetPruner(), ExplicitPruner())

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), k=st.integers(4, 9))
    def test_a_lone_row_is_kept(self, data, k):
        t = data.draw(st.integers(2, k // 2))
        row = data.draw(
            st.lists(
                st.integers(0, 2**40), min_size=t - 1, max_size=t - 1,
                unique=True,
            ).map(tuple)
        )
        for pruner in self.PRUNERS:
            assert pruner.select([row], k, t) == [row]

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(4, 9),
        ends=st.lists(st.integers(0, 2**40), min_size=2, max_size=2,
                      unique=True),
    )
    def test_both_endpoint_singletons_are_kept_at_round_2(self, k, ends):
        a, b = ends
        for pruner in self.PRUNERS:
            assert pruner.select([(a,), (b,)], k, 2) == sorted([(a,), (b,)])


class TestEquivalence:
    """HittingSetPruner ≡ ExplicitPruner, element for element."""

    def exhaustive_case(self, seqs, k, t):
        fast = HittingSetPruner().select(seqs, k, t)
        slow = ExplicitPruner().select(seqs, k, t)
        assert fast == slow

    def test_handpicked_cases(self):
        self.exhaustive_case([(1,), (2,), (3,)], 5, 2)
        self.exhaustive_case([(1, 2), (1, 3), (2, 3), (4, 5)], 7, 3)
        self.exhaustive_case([(1, 2), (2, 1)], 6, 3)
        self.exhaustive_case([(i,) for i in range(9)], 6, 2)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        k=st.integers(5, 9),
    )
    def test_random_equivalence(self, data, k):
        t = data.draw(st.integers(2, k // 2))
        n_seqs = data.draw(st.integers(0, 8))
        seqs = []
        for _ in range(n_seqs):
            seq = data.draw(
                st.lists(
                    st.integers(0, 12),
                    min_size=t - 1,
                    max_size=t - 1,
                    unique=True,
                ).map(tuple)
            )
            seqs.append(seq)
        fast = HittingSetPruner().select(seqs, k, t)
        slow = ExplicitPruner().select(seqs, k, t)
        assert fast == slow

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), k=st.integers(5, 10))
    def test_lemma3_bound_holds(self, data, k):
        """Property: output size <= (k-t+1)^(t-1) for any input."""
        t = data.draw(st.integers(2, k // 2))
        n_seqs = data.draw(st.integers(0, 14))
        seqs = []
        for _ in range(n_seqs):
            seq = data.draw(
                st.lists(
                    st.integers(0, 20),
                    min_size=t - 1,
                    max_size=t - 1,
                    unique=True,
                ).map(tuple)
            )
            seqs.append(seq)
        kept = HittingSetPruner().select(seqs, k, t)
        assert len(kept) <= lemma3_bound(k, t)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), k=st.integers(5, 9))
    def test_retention_invariant(self, data, k):
        """Lemma 2's pruning invariant: for every *discarded* L and every
        (k-t)-set X of real IDs disjoint from L, some *kept* K is also
        disjoint from X.  (This is exactly what makes the algorithm keep a
        completable witness.)"""
        from itertools import combinations

        t = data.draw(st.integers(2, k // 2))
        n_seqs = data.draw(st.integers(1, 7))
        seqs = []
        for _ in range(n_seqs):
            seq = data.draw(
                st.lists(
                    st.integers(0, 9),
                    min_size=t - 1,
                    max_size=t - 1,
                    unique=True,
                ).map(tuple)
            )
            seqs.append(seq)
        ordered = sort_sequences(seqs)
        kept = HittingSetPruner().select(seqs, k, t)
        kept_sets = [frozenset(s) for s in kept]
        discarded = [s for s in ordered if s not in kept]
        # X drawn from the ids present plus a few extras (completion nodes
        # unseen by the pruner are exactly the interesting case).
        universe = sorted(collect_ids(ordered) | {90, 91, 92, 93, 94, 95, 96})
        q = k - t
        for L in discarded:
            Lset = set(L)
            # Sample a few disjoint X's rather than all (cost control).
            candidates = [x for x in universe if x not in Lset]
            for combo in list(combinations(candidates[: q + 3], q))[:12]:
                X = set(combo)
                assert any(not (K & X) for K in kept_sets), (
                    f"discarded {L} had witness {X} but no kept sequence "
                    f"is disjoint from it; kept={kept_sets}"
                )
