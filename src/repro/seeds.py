"""Seed derivation: campaign seeds and tester repetition seeds.

A leaf module with no numpy import, so the monitor, the tester and the
campaign runner can all derive seeds without loading ``numpy.random`` or
the runner package.

* :func:`derive_seed` hashes a master seed and tokens through SHA-256 of
  their :func:`canonical_json` form.
* :func:`repetition_seeds` is ``np.random.SeedSequence(seed)
  .generate_state(count)`` in pure Python: numpy's ``seed_seq`` hash mix
  over a 4-word pool, word for word the same, so every seeded output
  is unchanged.
"""

from __future__ import annotations

import hashlib
import json
import secrets
from typing import Any, List

__all__ = ["canonical_json", "derive_seed", "repetition_seeds"]

_SEED_MASK = (1 << 63) - 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def canonical_json(obj: Any) -> str:
    """Canonical compact JSON used for hashing and JSONL persistence."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def derive_seed(master_seed: int, *tokens: Any) -> int:
    """A 63-bit seed deterministically derived from master seed + tokens.

    Uses SHA-256 (stable across processes and Python versions, unlike
    ``hash()``), so run tables expand identically everywhere.
    """
    digest = hashlib.sha256(
        canonical_json([master_seed, list(tokens)]).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") & _SEED_MASK


def _entropy_words(seed) -> List[int]:
    """``seed`` as little-endian 32-bit words, checked as numpy checks it."""
    if seed is None:
        seed = secrets.randbits(32 * _POOL_SIZE)
    elif not hasattr(seed, "__index__"):
        raise TypeError(
            f"SeedSequence expects int or sequence of ints for entropy not {seed}"
        )
    seed = seed.__index__()
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    return words


def repetition_seeds(seed, count: int) -> List[int]:
    """The first ``count`` 32-bit words of numpy's ``SeedSequence(seed)``.

    Equal to ``np.random.SeedSequence(seed).generate_state(count)
    .tolist()``.  ``seed`` is a non-negative integer (``ValueError`` if
    negative, ``TypeError`` if not an integer) or ``None``, which draws
    128 bits from :mod:`secrets` as numpy does.
    """
    if count < 0:
        raise ValueError("negative dimensions are not allowed")
    entropy = _entropy_words(seed)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    out = []
    hash_const = _INIT_B
    for i in range(count):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        out.append(value ^ (value >> _XSHIFT))
    return out
