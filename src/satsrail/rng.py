"""Deterministic seed derivation and random stream construction.

Every stochastic component in the simulator draws through a :class:`Stream`
or a keyed :func:`uniform`, and every draw is made from uniforms alone: a
``random.Random`` seeded with an integer is a Mersenne Twister whose
``random()`` sequence Python promises to keep across versions. Normals come
from the normal quantile of a uniform, lognormals from ``exp`` of a normal,
and indices from scaling a uniform. Substream seeds are derived by hashing
the parent seed together with integer or string tags via SHA-256, so
distinct (seed, path, month, entity) combinations get independent streams
without any shared RNG state.
"""

from __future__ import annotations

import math
import random

# The interpreter's own SHA-256 is lean to load. hashlib loads OpenSSL,
# ~2.2 ms of import and ~3.5 MB resident, but hashes faster: 0.68 against
# 3.6-3.9 ns/B, so a 1.22 MB text takes 0.84 against 4.4-4.7 ms (Python
# 3.11.7, x86-64, a shared 2-vCPU host). The import pays for itself from
# about 2.2 ms / 3.1 ns/B, ~700 KB.
OPENSSL_MIN_BYTES = 700_000

try:
    from _sha2 import sha256 as _builtin_sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _builtin_sha256  # Python 3.10, 3.11
    except ImportError:
        _builtin_sha256 = None

try:  # the C quantile that statistics.NormalDist.inv_cdf calls
    from _statistics import _normal_dist_inv_cdf
except ImportError:
    from statistics import NormalDist

    normal_quantile = NormalDist().inv_cdf
else:

    def normal_quantile(p: float) -> float:
        """The standard normal quantile at ``p`` in (0, 1), bit for bit
        ``statistics.NormalDist().inv_cdf(p)``."""
        return _normal_dist_inv_cdf(p, 0.0, 1.0)


def sha256(data: bytes):
    """The SHA-256 hash object of ``data``, the same digest on either path.

    Below ``OPENSSL_MIN_BYTES`` it is the interpreter's built-in hash, so a
    run that hashes only small inputs never loads OpenSSL; from there up it
    is ``hashlib``'s, imported on first use.
    """
    if len(data) < OPENSSL_MIN_BYTES and _builtin_sha256 is not None:
        return _builtin_sha256(data)
    import hashlib

    return hashlib.sha256(data)


# random() can return 0.0, whose normal quantile is -inf, but never 1.0.
_SMALLEST_UNIFORM = 2.0**-53


# The ints child_seed takes as keys: each is hashed as 16 signed bytes.
SEED_RANGE = range(-(2**127), 2**127)


def child_seed(*keys: int | str) -> int:
    """Derive a 64-bit seed from a sequence of integer/string tags.

    The derivation is a SHA-256 hash over a length-prefixed, type-tagged
    encoding of the keys, so it is stable across platforms and Python builds
    (independent of ``hash()`` randomization).
    """
    parts = []
    for key in keys:
        if isinstance(key, bool):
            raise TypeError("bool seed keys are ambiguous; use int or str")
        if isinstance(key, int):
            parts += b"i", key.to_bytes(16, "big", signed=True)
        elif isinstance(key, str):
            raw = key.encode("utf-8")
            parts += b"s", len(raw).to_bytes(4, "big"), raw
        else:
            raise TypeError(f"unsupported seed key type: {type(key)!r}")
    return int.from_bytes(sha256(b"".join(parts)).digest()[:8], "big")


class Stream:
    """The three draws the simulator makes, from one seeded uniform sequence."""

    __slots__ = ("random",)

    def __init__(self, seed: int):
        self.random = random.Random(seed).random

    def normals(self, n: int) -> list[float]:
        """``n`` standard normal draws, by inversion."""
        u = self.random
        return [normal_quantile(u() or _SMALLEST_UNIFORM) for _ in range(n)]

    def lognormals(self, mu: float, sigma: float, n: int) -> list[float]:
        """``n`` draws of ``exp(mu + sigma * Z)`` with Z standard normal."""
        return [math.exp(mu + sigma * z) for z in self.normals(n)]

    def indices(self, k: int, n: int) -> list[int]:
        """``n`` indices drawn uniformly from ``range(k)``, for ``k <= 2**53``."""
        u = self.random
        return [int(u() * k) for _ in range(n)]


def stream(*keys: int | str) -> Stream:
    """Return the stream seeded from the given key tuple."""
    return Stream(child_seed(*keys))


def uniform(*keys: int | str) -> float:
    """One uniform draw in [0, 1): the top 53 bits of the keys' seed."""
    return (child_seed(*keys) >> 11) * 2.0**-53
