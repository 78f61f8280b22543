"""Deterministic 64-bit seed derivation.

All randomness in the package flows from user-supplied 64-bit base seeds
through the splitmix64 mixing function, so that independent components
(data sampling, partition shuffling, per-partition index streams) get
decorrelated streams that are reproducible across process and worker-count
changes; :func:`make_rng` builds every generator. Seeds, seed parts and
counts follow one integer rule, :func:`check_integer`.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError

_MASK = (1 << 64) - 1

# Fixed stream-purpose tags: changing these changes every derived stream,
# so they are part of the package's reproducibility contract.
TAG_DATA = 0xD1
TAG_PARTITION = 0x9A
TAG_INDEX = 0x1D


def splitmix64(value: int) -> int:
    """The splitmix64 finalizer: a fixed 64-bit hash of an integer (:func:`check_integer`)."""
    check_integer("value", value)
    z = (value + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(base_seed: int, *parts: int) -> int:
    """Fold integer parts into ``base_seed``, one splitmix64 round each.

    Deterministic, order-sensitive, and stable across platforms. The base
    seed and every part follow the integer rule (:func:`check_integer`);
    negative ones are folded through their two's-complement 64-bit image.
    """
    check_integer("base_seed", base_seed)
    h = base_seed & _MASK
    for p in parts:
        check_integer("seed part", p)
        h = splitmix64(h ^ (p & _MASK))
    return h


def partition_stream_seed(base_seed: int, partition_index: int) -> int:
    """Seed of one partition's index stream: base_seed XOR hash(partition).

    Plain XOR of the base seed with the mixed partition index keeps
    partition streams decorrelated while leaving the derivation trivially
    auditable. Both arguments follow the integer rule (:func:`check_integer`).
    """
    check_integer("base_seed", base_seed)
    check_integer("partition_index", partition_index)
    return (base_seed & _MASK) ^ splitmix64(partition_index)


def is_integer(value) -> bool:
    """The rule for every count and seed: a Python int. true/false is not one, nor is a
    numpy integer, since counts and seeds are folded, hashed and written as Python ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_integer(name: str, value) -> None:
    """Raise InvalidParameterError unless ``value`` is an integer (:func:`is_integer`)."""
    if not is_integer(value):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")


def make_rng(seed: int) -> np.random.Generator:
    """numpy Generator for ``seed`` folded into 64 bits, as derive_seed folds a base seed.

    Seeds in [0, 2^64) keep numpy's default_rng(seed) stream.
    """
    check_integer("seed", seed)
    return np.random.default_rng(seed & _MASK)
