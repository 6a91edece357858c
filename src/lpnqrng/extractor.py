"""Toeplitz randomness extraction over GF(2) and output sanity tests.

A Toeplitz matrix with n_out rows and n_in columns is defined by
n_in + n_out - 1 seed bits laid out as the first column top to bottom
followed by the first row left to right (shared corner excluded):
T[r][c] = seed[r - c] when r >= c, else seed[n_out - 1 + c - r].

Raw ADC codes are serialized to bits as n-bit two's-complement words,
most significant bit first, then split into n_in-bit blocks that are
hashed independently with the same matrix.

There is one GF(2) kernel, pure NumPy/SciPy with no build step. A
Toeplitz product is a linear convolution: y[r] = sum_c t[r - c] x[c]
with t[d] = seed[d] for d >= 0 and t[d] = seed[n_out - 1 - d] for
d < 0. With t' = t[-(n_in - 1)], ..., t[n_out - 1] and both vectors
zero-padded to L, the next power of two >= n_in + n_out - 1, the
circular convolution has no wrap-around in the rows kept, so

    y = irfft(rfft(x) * rfft(t'))[n_in - 1 : n_in - 1 + n_out]

and the output bits are rint(y) & 1.

One transform carries p blocks. With s = n_in.bit_length(), the packed
row g is x_g = sum_{i < p} 2**(s * i) * b_{g * p + i}. Every product
y_i[r] lies in [0, n_in], below 2**s, so by linearity the convolution
of x_g is y = sum_i 2**(s * i) * y_i with no carry from one lane into
the next, and block g * p + i's output bits are (rint(y) >> s * i) & 1.

Exactness: y[r] is an integer below 2**(s * p), so the output is exact
whenever s * p <= 52 and the float64 rounding error stays below 0.5.
The error of an FFT convolution is at most about
c * u * log2(L) * |x|_2 * |t'|_2 with u = 2**-53 and c a small
constant. A packed entry is below 2**(s * (p - 1) + 1), and |t'|_2 is
at most sqrt(n_in + n_out - 1), so the error is below

    c * u * log2(L) * sqrt(n_in * (n_in + n_out - 1)) * 2**(s * (p - 1) + 1).

p is the largest count with s * p <= 52 whose bound at c = 1 is at most
2**-11, so the output stays exact for any c up to 1000. It depends on
the geometry alone and is not an option: p = 3 at the 2048 -> 1800
production geometry (L = 4096, bound c * 1.25e-4; p = 4 would give
c * 0.51), p = 2 at 2**17 -> 2**17 - 5 and p = 1 at 2**20 -> 2**20
(bound c * 7e-9). p = 1 keeps the bound below c * 3.1e-5 even at
L = 2**32, far past any block that fits in memory. The worst deviation
from the nearest integer measured over the 4096 blocks of one bitgen
benchmark operation is 9.5e-7 at p = 3, against 5.7e-14 at p = 1 and
1.2e-2 at p = 4.

``GF2_BACKEND`` names that kernel; it is always "numpy".
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft
from scipy.special import erfc

from .errors import InvalidParameterError, LengthMismatchError, TooFewBitsError
from .simulate import QuantizedTrace

GF2_BACKEND = "numpy"

#: packed rows are transformed _BATCH_SAMPLES // L at a time (at least
#: one) through one reused float64 buffer, which bounds the float64 and
#: complex128 temporaries to a few MB for any geometry; 64 rows, or 192
#: blocks, at 2048 -> 1800
_BATCH_SAMPLES = 1 << 18


def pack_bits_to_words(bits: np.ndarray) -> np.ndarray:
    """Pack rows of 0/1 values into uint64 words, MSB first.

    Accepts a 1-D array (one row) or a 2-D array (one row per line);
    rows are zero-padded up to a multiple of 64 bits.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[None, :]
    n_rows, n_bits = arr.shape
    n_words = max((n_bits + 63) // 64, 1)
    pad = n_words * 64 - n_bits
    if pad:
        arr = np.concatenate(
            [arr, np.zeros((n_rows, pad), dtype=np.uint8)], axis=1)
    words = (np.packbits(arr, axis=1).reshape(n_rows, n_words, 8)
             .view(">u8").reshape(n_rows, n_words).astype(np.uint64))
    return words[0] if squeeze else words


def codes_to_bits(codes: np.ndarray, bits_per_code: int) -> np.ndarray:
    """Serialize signed codes as two's-complement words, MSB first.

    Returns one uint8 per bit. Each code is cast to a big-endian word of
    8 bits when the code fits in a byte and 16 otherwise; the word's
    bytes unpack MSB first, and its last bits_per_code bits are the
    code's two's-complement bits.
    """
    if not 1 <= bits_per_code <= 16:
        raise InvalidParameterError(
            f"bits_per_code must be in [1, 16], got {bits_per_code}")
    n_bytes = 1 if bits_per_code <= 8 else 2
    words = np.unpackbits(np.asarray(codes).astype(f">u{n_bytes}").view(np.uint8))
    return words.reshape(-1, 8 * n_bytes)[:, 8 * n_bytes - bits_per_code:].ravel()


def pack_bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a 0/1 sequence into bytes, MSB first; pads the tail with zeros."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def unpack_bytes_to_bits(data: bytes, n_bits: int) -> np.ndarray:
    """First n_bits of a byte string, MSB first."""
    avail = 8 * len(data)
    if avail < n_bits:
        raise LengthMismatchError(f"need {n_bits} bits, file holds {avail}")
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:n_bits]


@dataclass(frozen=True)
class ToeplitzSpec:
    """Extraction geometry plus the seed bits defining the matrix."""

    input_bits: int
    output_bits: int
    seed_bits: np.ndarray

    def __post_init__(self) -> None:
        if self.input_bits < 1:
            raise InvalidParameterError(
                f"input_bits must be >= 1, got {self.input_bits}")
        if not 1 <= self.output_bits <= self.input_bits:
            raise InvalidParameterError(
                f"output_bits must be in [1, input_bits], got {self.output_bits}")
        seed = np.asarray(self.seed_bits, dtype=np.uint8)
        want = self.input_bits + self.output_bits - 1
        if seed.ndim != 1 or len(seed) != want:
            raise LengthMismatchError(
                f"seed must hold exactly {want} bits, got {seed.shape}")
        if seed.size and seed.max() > 1:
            raise InvalidParameterError("seed bits must be 0 or 1")
        seed.setflags(write=False)
        object.__setattr__(self, "seed_bits", seed)

    def matrix(self) -> np.ndarray:
        """Dense 0/1 matrix, n_out rows by n_in columns."""
        r = np.arange(self.output_bits)[:, None]
        c = np.arange(self.input_bits)[None, :]
        d = r - c
        idx = np.where(d >= 0, d, self.output_bits - 1 - d)
        return self.seed_bits[idx]

    @cached_property
    def _fft_length(self) -> int:
        """L: the smallest power of two >= n_in + n_out - 1."""
        return 1 << (self.input_bits + self.output_bits - 2).bit_length()

    @cached_property
    def _lanes(self) -> int:
        """p: the most blocks one transform carries exactly (module doc)."""
        n_in, n_out = self.input_bits, self.output_bits
        shift = n_in.bit_length()
        error = (2.0**-53 * math.log2(self._fft_length)
                 * math.sqrt(n_in * (n_in + n_out - 1)))
        lanes = 1
        while (shift * (lanes + 1) <= 52
               and error * 2.0 ** (shift * lanes + 1) <= 2.0**-11):
            lanes += 1
        return lanes

    @cached_property
    def _seed_spectrum(self) -> np.ndarray:
        """rfft of t' = t[-(n_in - 1)], ..., t[n_out - 1], padded to L."""
        seed = self.seed_bits
        t = np.concatenate([seed[self.output_bits:][::-1],
                            seed[:self.output_bits]])
        return fft.rfft(t, n=self._fft_length)


def _toeplitz_apply(spec: ToeplitzSpec, blocks: np.ndarray) -> np.ndarray:
    """out[b] = T @ blocks[b] mod 2 for an (n_blocks, n_in) 0/1 array."""
    n_in, n_out, length = spec.input_bits, spec.output_bits, spec._fft_length
    n_blocks = blocks.shape[0]
    lanes = spec._lanes
    shift = n_in.bit_length()
    rows = min(max(_BATCH_SAMPLES // length, 1), -(-n_blocks // lanes))
    out = np.empty((n_blocks, n_out), dtype=np.uint8)
    # packed rows, zero-padded to L once: only [:, :n_in] is ever written.
    # Allocated after out: the other order left a heap hole that raised
    # the bitgen benchmark's peak RSS by 15 MB.
    x = np.zeros((rows, length))
    for first in range(0, n_blocks, rows * lanes):
        group = blocks[first:first + rows * lanes]
        n_rows = -(-len(group) // lanes)
        # x_g = sum_i 2**(shift * i) * group[g * lanes + i], by Horner's rule
        packed = x[:n_rows, :n_in]
        packed[:] = 0.0
        for i in reversed(range(lanes)):
            packed *= 2.0**shift
            lane = group[i::lanes]
            packed[:len(lane)] += lane
        spectrum = fft.rfft(x[:n_rows], axis=1)
        spectrum *= spec._seed_spectrum
        y = fft.irfft(spectrum, n=length, axis=1, overwrite_x=True)
        v = y[:, n_in - 1:n_in - 1 + n_out]
        v = np.rint(v, out=v).astype(np.int64)
        for i in range(lanes):
            dest = out[first + i:first + len(group):lanes]
            np.bitwise_and(v[:len(dest)] >> (shift * i), 1, out=dest,
                           casting="unsafe")
    return out


def extraction_ratio(h_min_bits: float, adc_bits: int) -> float:
    """Fraction of raw bits that is extractable: h_min / n."""
    if not 0 <= h_min_bits <= adc_bits:
        raise InvalidParameterError(
            f"h_min must be in [0, {adc_bits}], got {h_min_bits}")
    return h_min_bits / adc_bits


def output_bits_for(h_min_bits: float, adc_bits: int, input_bits: int) -> int:
    """Output block size floor(ratio * input_bits) for a given geometry."""
    return int(math.floor(extraction_ratio(h_min_bits, adc_bits) * input_bits))


def extract_block(block: np.ndarray, spec: ToeplitzSpec) -> np.ndarray:
    """Hash one input_bits-long 0/1 block to output_bits bits."""
    bits = np.asarray(block, dtype=np.uint8)
    if bits.ndim != 1 or len(bits) != spec.input_bits:
        raise LengthMismatchError(
            f"block must hold exactly {spec.input_bits} bits, got {bits.shape}")
    return _toeplitz_apply(spec, bits[None, :])[0]


def extract_stream(codes: QuantizedTrace, spec: ToeplitzSpec) -> np.ndarray:
    """Serialize a code trace and hash it block by block.

    The trailing partial block is discarded; block order is preserved
    in the output. Returns a 0/1 uint8 array of
    output_bits * n_blocks bits.
    """
    bits = codes_to_bits(codes.codes, codes.adc.bits)
    n_blocks = bits.size // spec.input_bits
    if n_blocks == 0:
        return np.empty(0, dtype=np.uint8)
    blocks = bits[:n_blocks * spec.input_bits].reshape(n_blocks, spec.input_bits)
    return _toeplitz_apply(spec, blocks).reshape(-1)


def _as_bit_array(bits: np.ndarray, minimum: int) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.size < minimum:
        raise TooFewBitsError(f"need at least {minimum} bits, got {arr.size}")
    return arr


def monobit_test(bits: np.ndarray) -> float:
    """Frequency test p-value: is the ones/zeros balance plausible?"""
    arr = _as_bit_array(bits, 100)
    n = arr.size
    s = abs(2.0 * int(arr.sum()) - n) / math.sqrt(n)
    return float(erfc(s / math.sqrt(2.0)))


def runs_test(bits: np.ndarray) -> float:
    """Runs test p-value: is the number of bit flips plausible?

    Returns 0.0 when the ones fraction is already too far from 1/2 for
    the runs statistic to be meaningful.
    """
    arr = _as_bit_array(bits, 100)
    n = arr.size
    pi = float(arr.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0
    v = 1 + int(np.count_nonzero(np.diff(arr)))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return float(erfc(num / den))
