"""Deterministic randomness primitives.

All stochastic operations in this package draw from the Philox 4x64
counter-based generator keyed directly with a 64-bit seed, so the same
seed always reproduces the same stream on any platform. Gaussian
variates use the inverse-CDF transform on open-interval 53-bit uniforms
rather than a rejection method, which keeps the mapping from counter
stream to variates simple enough to restate in one sentence:

    u_i = ((raw_i >> 11) + 0.5) * 2**-53,  z_i = ndtri(u_i)

The variates are computed in cache-sized blocks of the stream, in place
in the output array; the formula, and so every variate, is unchanged.
The stream is split into at most one part per CPU the process may run
on, every part starting at a multiple of the block size, and the parts
run at once. Part p starting at variate ``start`` keys its own
generator with the counter ``start // 4``, because Philox 4x64 yields
four words per counter step; so each part draws exactly the words a
single generator would, and the output is the same whatever the core
count or CPU affinity.

Sub-stream seeds are derived with a SplitMix64 chain, so grid sweeps
and multi-stage pipelines get independent, order-free seeds.
A seed or derivation index that is not an integer in [0, 2**64) raises
InvalidParameterError instead of being truncated or wrapped; NumPy
integer scalars are taken as Python ints before SplitMix64 or Philox
sees them; a call that draws no stream (zero linewidth, zero
electronic noise) leaves its seed unchecked. A count of values to draw
must be an integer >= 0 of any integer type; anything else raises
InvalidParameterError.
"""
from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from . import _parallel
from .params import check_count, check_seed

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# variates per block of gaussian_stream: the raw words and the output
# block (256 KiB each) stay in cache through the four passes over them
_GAUSS_BLOCK = 2**15

# fixed stream tags for the CLI pipeline stages
STREAM_PHASE = 1
STREAM_ELECTRONIC = 2
STREAM_TOEPLITZ = 3


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master_seed: int, *parts: int) -> int:
    """Derive a 64-bit sub-seed from a master seed and integer indices.

    The chain is s0 = splitmix64(master); s_{n+1} = splitmix64(s_n ^
    splitmix64(part_n)). Distinct index tuples give independent seeds,
    and the derivation does not depend on evaluation order of sibling
    tuples.
    """
    s = _splitmix64(check_seed("master_seed", master_seed))
    for p in parts:
        s = _splitmix64(s ^ _splitmix64(check_seed("seed index", p)))
    return s


def raw_stream(seed: int, n: int) -> np.ndarray:
    """n raw 64-bit words from Philox keyed with ``seed``."""
    bitgen = np.random.Philox(key=check_seed("seed", seed))
    return bitgen.random_raw(check_count("n", n))


def gaussian_stream(seed: int, n: int) -> np.ndarray:
    """n standard normal variates, deterministic in ``seed``.

    The inverse-CDF construction truncates the support at about
    +-8.2 sigma (the extreme quantiles reachable with 53-bit
    uniforms); the effect on moments is far below statistical
    resolution at any practical sample count. The stream is drawn in
    parts split at multiples of the block size (module docstring).
    """
    seed = check_seed("seed", seed)
    out = np.empty(check_count("n", n))
    _parallel.run(lambda a, b: _gaussian_part(seed, a, out[a:b]),
                  _parallel.split(len(out), _GAUSS_BLOCK))
    return out


def _gaussian_part(seed: int, start: int, out: np.ndarray) -> None:
    """Variates start .. start + len(out) of the stream, into ``out``;
    ``start`` is a multiple of 4, the words per Philox counter step."""
    bitgen = np.random.Philox(key=seed, counter=start // 4)
    n = len(out)
    for i in range(0, n, _GAUSS_BLOCK):
        raw = bitgen.random_raw(min(_GAUSS_BLOCK, n - i))
        raw >>= np.uint64(11)
        u = out[i:i + len(raw)]
        np.add(raw, 0.5, out=u)
        u *= 2.0**-53
        ndtri(u, out=u)


def bit_stream(seed: int, n_bits: int) -> np.ndarray:
    """n_bits 0/1 values from the Philox stream, MSB-first per word."""
    n_bits = check_count("n_bits", n_bits)
    if n_bits == 0:
        return np.empty(0, dtype=np.uint8)
    n_words = (n_bits + 63) // 64
    raw = raw_stream(seed, n_words)
    bits = np.unpackbits(raw.astype(">u8").view(np.uint8))
    return bits[:n_bits]
