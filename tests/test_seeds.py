"""``repro.seeds``: pure-Python repetition seeds equal numpy's
``SeedSequence(seed).generate_state(count)``, and the campaign seed
helpers keep their old import path."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import seeds
from repro.runner import runtable
from repro.seeds import repetition_seeds


def numpy_seeds(seed, count):
    return np.random.SeedSequence(seed).generate_state(count).tolist()


class TestRepetitionSeeds:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.one_of(
            st.integers(0, 2**32),
            st.integers(0, 2**64),
            st.integers(0, 2**200),
        ),
        count=st.integers(1, 40),
    )
    @example(seed=0, count=1)
    @example(seed=2**32 - 1, count=40)
    @example(seed=2**32, count=8)
    @example(seed=2**64 + 5, count=17)
    @example(seed=2**127 + 3, count=4)
    @example(seed=2**199 + 12345, count=33)
    def test_equals_numpy(self, seed, count):
        assert repetition_seeds(seed, count) == numpy_seeds(seed, count)

    @pytest.mark.parametrize(
        "seed", [True, np.int64(7), np.uint64(2**63 + 1), np.uint32(9)]
    )
    def test_integer_types_numpy_accepts(self, seed):
        assert repetition_seeds(seed, 6) == numpy_seeds(seed, 6)

    def test_zero_count(self):
        assert repetition_seeds(5, 0) == numpy_seeds(5, 0) == []

    @pytest.mark.parametrize(
        "seed", [-1, -(2**70), np.int64(-3), 1.5, 2.0, "7", b"7", object()]
    )
    def test_errors_match_numpy(self, seed):
        with pytest.raises((TypeError, ValueError)) as want:
            np.random.SeedSequence(seed).generate_state(4)
        with pytest.raises(want.type):
            repetition_seeds(seed, 4)

    def test_none_draws_fresh_entropy(self):
        a, b = repetition_seeds(None, 8), repetition_seeds(None, 8)
        assert len(a) == 8 and all(0 <= s < 2**32 for s in a)
        assert a != b


class TestCampaignSeeds:
    def test_runtable_reexports_the_leaf_helpers(self):
        assert runtable.derive_seed is seeds.derive_seed
        assert runtable.canonical_json is seeds.canonical_json

    def test_derive_seed_is_pinned(self):
        # A run table's seeds must not move between releases.
        assert seeds.derive_seed(0, "monitor-step", 0) == 4720637616093785696
        assert seeds.canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
