"""Toeplitz randomness extraction over GF(2) and output sanity tests.

An n_out x n_in Toeplitz matrix is defined by n_in + n_out - 1 seed
bits: its first column top to bottom, then its first row left to right
without the shared corner. Its diagonal vector t' is the first row right
to left, then the rest of the first column, and T[r][c] = t'[n_in - 1 + r - c].

Raw ADC codes are serialized to bits as n-bit two's-complement words,
most significant bit first, then split into n_in-bit blocks that are
hashed independently with the same matrix.

There is one GF(2) kernel, pure NumPy with no build step. T @ x is
the linear convolution of t' and x at indices n_in - 1 .. n_in + n_out - 2.
Zero-padded to L, the next power of two >= n_in + n_out - 1, the
circular convolution does not wrap into those indices, so

    y = irfft(rfft(x) * rfft(t'))[n_in - 1 : n_in - 1 + n_out]

and the output bits are rint(y) & 1.

One transform carries p blocks. With s = n_in.bit_length(), the packed
row g is x_g = sum_{i < p} 2**(s * i) * b_{g * p + i}. Every product
y_i[r] lies in [0, n_in], below 2**s, so by linearity the convolution
of x_g is y = sum_i 2**(s * i) * y_i with no carry from one lane into
the next, and block g * p + i's output bits are (rint(y) >> s * i) & 1.

Exactness: y[r] is an integer below 2**(s * p), so the output is exact
whenever s * p <= 52 and the float64 rounding error stays below 0.5.
The error of an FFT convolution is at most about c * u * log2(L) *
|x|_2 * |t'|_2, with u = 2**-53 and c a small constant. A packed entry
is below 2**(s * (p - 1) + 1) and |t'|_2 at most sqrt(n_in + n_out - 1),
so the error is below

    c * u * log2(L) * sqrt(n_in * (n_in + n_out - 1)) * 2**(s * (p - 1) + 1).

p is the largest count with s * p <= 52 whose bound at c = 1 is at most
2**-11, exact for any c up to 1000; a function of the geometry, not an
option. p = 3 at the 2048 -> 1800 production geometry (L = 4096, bound
c * 1.25e-4; p = 4 would give c * 0.51), p = 2 at 2**17 -> 2**17 - 5 and
p = 1 at 2**20 -> 2**20 (c * 7e-9); p = 1 stays below c * 3.1e-5 up to
L = 2**32. Over the 4096 blocks of one bitgen benchmark operation the
worst distance to the nearest integer is 5.7e-14 at p = 1, 9.5e-7 at
p = 3 and 1.2e-2 at p = 4.

The kernel runs on every core (``_parallel``). The blocks split into
one range per part at multiples of rows * p, and each part hashes its
range a batch of rows * p blocks at a time into its slice of the one
output. rows is the serial batch of _BATCH_SAMPLES // L rows divided
among the parts, so all parts together hold one serial batch. The
caller allocates every part's working arrays (packed rows, spectrum,
inverse transform, int64 products) before any part starts, and the
FFTs, rint and shifts write into them: a part allocates no array. An
array freed on a part's thread would stay in that thread's malloc
arena, where the caller's next large temporary cannot reuse it, so the
process's peak memory would grow with the part count. NumPy's FFT is
used because it takes ``out=``. Which FFT library computes y does not
change a bit: each y[r] is an integer, the bound above holds for any
FFT of the usual O(u log L) accuracy, pocketfft in NumPy and in SciPy
alike, so rint returns that integer whichever library computes it.

``GF2_BACKEND`` names that kernel; it is always "numpy".
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erfc

from . import _parallel
from .errors import InvalidParameterError, LengthMismatchError, TooFewBitsError
from .params import check_bits, check_count, check_toeplitz_geometry
from .simulate import QuantizedTrace

GF2_BACKEND = "numpy"

#: packed rows are transformed _BATCH_SAMPLES // L at a time (at least
#: one), shared out among the parts, through reused buffers, which
#: bounds the float64 and complex128 working arrays to a few MB for any
#: geometry; 64 rows, or 192 blocks, at 2048 -> 1800
_BATCH_SAMPLES = 1 << 18


def pack_bits_to_words(bits: np.ndarray) -> np.ndarray:
    """Pack rows of 0/1 values into uint64 words, MSB first.

    Accepts a 1-D array (one row) or a 2-D array (one row per line);
    rows are zero-padded up to a multiple of 64 bits.
    """
    arr = check_bits("bits", bits)
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
    bits_per_code = check_count("bits_per_code", bits_per_code, 1, 16)
    n_bytes = 1 if bits_per_code <= 8 else 2
    words = np.unpackbits(np.asarray(codes).astype(f">u{n_bytes}").view(np.uint8))
    return words.reshape(-1, 8 * n_bytes)[:, 8 * n_bytes - bits_per_code:].ravel()


def pack_bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a 0/1 sequence into bytes, MSB first; pads the tail with zeros."""
    return np.packbits(check_bits("bits", bits)).tobytes()


def unpack_bytes_to_bits(data: bytes, n_bits: int) -> np.ndarray:
    """First n_bits of a byte string, MSB first."""
    n_bits = check_count("n_bits", n_bits)
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
        n_in, n_out = check_toeplitz_geometry(self.input_bits, self.output_bits)
        object.__setattr__(self, "input_bits", n_in)  # a NumPy int is not JSON
        object.__setattr__(self, "output_bits", n_out)
        seed = np.asarray(self.seed_bits)
        want = self.input_bits + self.output_bits - 1
        if seed.ndim != 1 or len(seed) != want:
            raise LengthMismatchError(
                f"seed must hold exactly {want} bits, got {seed.shape}")
        seed = check_bits("seed bits", seed)
        seed.setflags(write=False)
        object.__setattr__(self, "seed_bits", seed)

    def matrix(self) -> np.ndarray:
        """Dense 0/1 matrix, n_out rows by n_in columns."""
        return sliding_window_view(self._diagonals, self.input_bits)[:, ::-1].copy()

    @cached_property
    def _diagonals(self) -> np.ndarray:
        """t', the diagonal vector (module doc)."""
        seed, n_out = self.seed_bits, self.output_bits
        return np.concatenate([seed[n_out:][::-1], seed[:n_out]])

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
        """rfft of t', zero-padded to L."""
        return np.fft.rfft(self._diagonals, n=self._fft_length)


def _toeplitz_apply(spec: ToeplitzSpec, blocks: np.ndarray) -> np.ndarray:
    """out[b] = T @ blocks[b] mod 2 for an (n_blocks, n_in) 0/1 array."""
    n_in, n_out, length = spec.input_bits, spec.output_bits, spec._fft_length
    # read here, so no cached property is first computed on a part's thread
    lanes, seed_spectrum = spec._lanes, spec._seed_spectrum
    n_blocks = blocks.shape[0]
    batch = min(max(_BATCH_SAMPLES // length, 1), -(-n_blocks // lanes))
    rows = -(-batch // _parallel.workers())
    ranges = _parallel.split(n_blocks, rows * lanes)
    out = np.empty((n_blocks, n_out), dtype=np.uint8)
    # Every part's buffers, allocated after out: a buffer allocated before
    # it left a heap hole that raised the bitgen benchmark's peak RSS from
    # 169 to 184 MB. x is zero-padded to L once: only [..., :n_in] is
    # ever written.
    shape = (len(ranges), rows)
    x = np.zeros(shape + (length,))
    spectrum = np.empty(shape + (length // 2 + 1,), dtype=np.complex128)
    y = np.empty(shape + (length,))
    products = np.empty(shape + (n_out,), dtype=np.int64)
    _parallel.run(
        lambda p, a, b: _toeplitz_part(
            blocks[a:b], seed_spectrum, lanes, x[p], spectrum[p], y[p],
            products[p], out[a:b]),
        [(p, a, b) for p, (a, b) in enumerate(ranges)])
    return out


def _toeplitz_part(blocks: np.ndarray, seed_spectrum: np.ndarray, lanes: int,
                   x: np.ndarray, spectrum: np.ndarray, y: np.ndarray,
                   products: np.ndarray, out: np.ndarray) -> None:
    """_toeplitz_apply of ``blocks`` into ``out``, len(x) rows of lanes
    blocks at a time, through the caller's buffers (module doc)."""
    n_in, n_out = blocks.shape[1], out.shape[1]
    shift = n_in.bit_length()
    rows = len(x)
    for first in range(0, len(blocks), rows * lanes):
        group = blocks[first:first + rows * lanes]
        n_rows = -(-len(group) // lanes)
        # x_g = sum_i 2**(shift * i) * group[g * lanes + i], by Horner's rule
        packed = x[:n_rows, :n_in]
        packed[:] = 0.0
        for i in reversed(range(lanes)):
            packed *= 2.0**shift
            lane = group[i::lanes]
            packed[:len(lane)] += lane
        np.fft.rfft(x[:n_rows], axis=1, out=spectrum[:n_rows])
        spectrum[:n_rows] *= seed_spectrum
        np.fft.irfft(spectrum[:n_rows], n=x.shape[1], axis=1, out=y[:n_rows])
        v = products[:n_rows]
        np.rint(y[:n_rows, n_in - 1:n_in - 1 + n_out], out=v, casting="unsafe")
        for i in range(lanes):  # v is rint(y) >> (shift * i) here
            dest = out[first + i:first + len(group):lanes]
            np.bitwise_and(v[:len(dest)], 1, out=dest, casting="unsafe")
            v >>= shift


def output_bits_for(h_min_bits: float, adc_bits: int, input_bits: int) -> int:
    """Output block size floor(h_min / n * input_bits) for n-bit codes."""
    adc_bits = check_count("adc_bits", adc_bits, 2, 16)
    input_bits = check_count("input_bits", input_bits, 1)
    if not 0 <= h_min_bits <= adc_bits:
        raise InvalidParameterError(
            f"h_min must be in [0, {adc_bits}], got {h_min_bits}")
    return int(math.floor(h_min_bits / adc_bits * input_bits))


def extract_block(block: np.ndarray, spec: ToeplitzSpec) -> np.ndarray:
    """Hash one input_bits-long 0/1 block to output_bits bits."""
    bits = np.asarray(block)
    if bits.ndim != 1 or len(bits) != spec.input_bits:
        raise LengthMismatchError(
            f"block must hold exactly {spec.input_bits} bits, got {bits.shape}")
    return _toeplitz_apply(spec, check_bits("block", bits)[None, :])[0]


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
    arr = np.asarray(bits)
    if arr.size < minimum:
        raise TooFewBitsError(f"need at least {minimum} bits, got {arr.size}")
    return check_bits("bits", arr)


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
