"""Toeplitz randomness extraction over GF(2) and output sanity tests.

An n_out x n_in Toeplitz matrix is defined by n_in + n_out - 1 seed
bits: its first column top to bottom, then its first row left to right
without the shared corner. Its diagonal vector t' is the first row right
to left, then the rest of the first column, and T[r][c] = t'[n_in - 1 + r - c].

Raw ADC codes are serialized to bits as n-bit two's-complement words,
most significant bit first, then split into n_in-bit blocks that are
hashed independently with the same matrix.

There are two exact GF(2) kernels, pure NumPy with no build step, and
one block format reaches them: packed blocks, a row of ceil(n_in / 8)
bytes per block, MSB first. Both have the signature (spec, packed,
out) and write one uint8 per output bit into the caller's out, and
``_hash`` is the one entry, the only code that picks the kernel. The
geometry alone picks one: the byte table runs iff L, the FFT length
(below), is at most 2**14, and the FFT convolution when L is larger. A
table block costs O(n_in * n_out / 64) byte operations and an FFT block
O(L log L), so the table wins on the blocks of production and loses on
large ones. Per 2**23 packed input bits on a 2-core x86-64 machine at
two workers, ms, two runs of the median of 9 calls:

    n_in -> n_out     L         FFT     table
      512 -> 450      2**10    52-67        9
     1024 -> 901      2**11    42-44    10-13
     2048 -> 1800     2**12       47    14-16
     4096 -> 3604     2**13       60    21-22
     8192 -> 7208     2**14    75-92    47-52
    16384 -> 14417    2**15    66-84   76-102

A block of 8- or 16-bit codes whose n_in is a multiple of 8 needs no
serializing: the bytes of its big-endian code words are the block
packed MSB first, so ``extract_stream`` passes them to either kernel as
they are, and allocates the output before it copies them: copied
first, they moved the bitgen benchmark's peak RSS from 168.3-168.4 to
168.8-169.5 MB in 4 of 4 alternated runs, by where glibc placed the
output. Other codes are serialized to bits and packed once, and the
bits are freed before the output is allocated: the route then peaks
while it serializes, where an output allocated first raised the
tracemalloc peak of 2**20 10-bit codes at 65536 -> 60000 from 26.0 to
35.2 MiB.

Table kernel. With B = ceil(n_in / 8), let t'' be t' behind 8B - n_in
zeros, so T[r][c] = t''[8B - 1 + r - c]: column c is the window of t''
that starts at 8B - 1 - c. A packed block puts column 8j + 7 - u at
bit u of its byte j (the pad columns are zeros), and that column
starts at 8(B - 1 - j) + u. With the byte table

    H[v][s] = XOR over the set bits u of v of t''[s + u],

for v in 0 .. 255 and s in 0 .. 8(B - 1) + n_out - 1,

    T @ x mod 2 = XOR over j of H[x_j][8(B - 1 - j) : 8(B - 1 - j) + n_out].

Every window starts on a byte boundary, so the rows of H are stored
packed, a byte per 8 bits, and hashing one block is B gathers and XORs
of ceil(n_out / 8) bytes. Nothing is rounded: the kernel computes the
XOR itself, so it is exact with no bound. H is 123 KB at
2048 -> 1800 and is built once per ``ToeplitzSpec`` from eight shifted
copies of t'', in 0.2 ms on that machine. The spec also keeps one
strided view of H per input byte j, whose item v is the window of row
v that byte j selects, as one np.void of ceil(n_out / 8) bytes; so
indexing that view with the blocks' bytes j gathers one contiguous run
per block, where indexing H by rows and a column slice copies byte by
byte. For 4096 packed blocks at 2048 -> 1800 on the 2-core machine
above (two runs of the median of 20 alternated calls), the kernel took
25.8-28.4 and 23.2-24.0 ms at one and two workers by rows and slice,
and 21.4-23.5 and 15.4-16.9 ms by the view. np.take into a buffer of
the part (mode "clip", which does not buffer ``out=``) was no faster,
30.5 against 31.3 ms at one worker and 22.4 against 18.0 at two in a
later run, so a part allocates one gathered window of its batch per
input byte.

The kernel makes as many near-equal parts as there are batches of about
_TABLE_BYTES packed output bytes (2330 blocks at 2048 -> 1800), at most
one per worker: 4096 blocks make two parts of 2048, and a call of at
most one batch is one part and starts no thread. A part XORs its range
a batch at a time into its rows of the caller's packed output, which
the caller then unpacks _UNPACK_ROWS blocks at a time into the one
output. The gather releases the interpreter lock, and the two parts
share the cores' copy throughput. Inside the op that simulates,
quantizes and hashes 2**20 8-bit codes (4096 blocks at 2048 -> 1800),
in three runs of 16 alternated ops on that machine, the median
``extract_stream`` went from 33.8 to 22.8, 35.1 to 23.2 and 34.9 to
22.1 ms from one worker to two, faster in 16 of 16 ops each time.

FFT kernel. T @ x is the linear convolution of t' and x at indices
n_in - 1 .. n_in + n_out - 2. Zero-padded to L, the next power of two
>= n_in + n_out - 1, the circular convolution does not wrap into those
indices, so

    y = irfft(rfft(x) * rfft(t'))[n_in - 1 : n_in - 1 + n_out]

and the output bits are rint(y) & 1.

One transform carries p blocks. With s = n_in.bit_length(), its row g
is x_g = sum_{i < p} 2**(s * i) * b_{g * p + i}. Every product
y_i[r] lies in [0, n_in], below 2**s, so by linearity the convolution
of x_g is y = sum_i 2**(s * i) * y_i with no carry from one lane into
the next, and block g * p + i's output bits are (rint(y) >> s * i) & 1.

Exactness: y[r] is an integer below 2**(s * p), so the output is exact
whenever s * p <= 52 and the float64 rounding error stays below 0.5.
The error of an FFT convolution is at most about c * u * log2(L) *
|x|_2 * |t'|_2, with u = 2**-53 and c a small constant. An entry of a
row is below 2**(s * (p - 1) + 1) and |t'|_2 at most
sqrt(n_in + n_out - 1), so the error is below

    c * u * log2(L) * sqrt(n_in * (n_in + n_out - 1)) * 2**(s * (p - 1) + 1).

p is the largest count with s * p <= 52 whose bound at c = 1 is at most
2**-11, exact for any c up to 1000; a function of the geometry, not an
option. p = 3 at the 2048 -> 1800 production geometry (L = 4096, bound
c * 1.25e-4; p = 4 would give c * 0.51), p = 2 at 2**17 -> 2**17 - 5 and
p = 1 at 2**20 -> 2**20 (c * 7e-9); p = 1 stays below c * 3.1e-5 up to
L = 2**32. Over the 4096 blocks of one bitgen benchmark operation the
worst distance to the nearest integer is 5.7e-14 at p = 1, 9.5e-7 at
p = 3 and 1.2e-2 at p = 4.

The FFT kernel runs on every core (``_parallel``). The blocks split into
one range per part at multiples of rows * p, and each part hashes its
range a batch of rows * p blocks at a time into its slice of the one
output. rows is the serial batch of _BATCH_SAMPLES // L rows divided
among the parts, so all parts together hold one serial batch. A part
unpacks each batch of packed blocks to one uint8 per bit by np.take of
_BYTE_BITS, the 256 x 8 bit table, after copying the bytes into an
intp buffer: np.take copies indices of any other type to a new array.
The caller allocates every part's working arrays (intp indices, bits,
transform rows, spectrum, inverse transform, int64 products) before
any part starts, and the copy, the gather, the FFTs, rint and shifts
write into them: a part allocates no array. An array freed on a
part's thread would stay in that thread's malloc arena, where the
caller's next large temporary cannot reuse it, so the process's peak
memory would grow with the part count. NumPy's FFT is
used because it takes ``out=``. Which FFT library computes y does not
change a bit: each y[r] is an integer, the bound above holds for any
FFT of the usual O(u log L) accuracy, pocketfft in NumPy and in SciPy
alike, so rint returns that integer whichever library computes it.

``GF2_BACKEND`` names the kernels' library; it is always "numpy".
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erfc

from . import _parallel
from .errors import LengthMismatchError, TooFewBitsError
from .params import (check_bits, check_count, check_h_min,
                     check_toeplitz_geometry)
from .simulate import QuantizedTrace

GF2_BACKEND = "numpy"

#: packed rows are transformed _BATCH_SAMPLES // L at a time (at least
#: one), shared out among the parts, through reused buffers, which
#: bounds the float64 and complex128 working arrays to a few MB for any
#: geometry; 64 rows, or 192 blocks, at 2048 -> 1800
_BATCH_SAMPLES = 1 << 18

#: the table kernel hashes the blocks when L is at most this, the FFT
#: kernel above it (module doc)
_TABLE_MAX_LENGTH = 1 << 14

#: the table kernel's parts XOR batches of about _TABLE_BYTES packed
#: output bytes, and it makes one part per batch up to the worker count
#: (module doc). Smaller batches were slower: 4096 blocks at 2048 ->
#: 1800 took 37-39 ms at one worker and 37-91 at two in batches of 128,
#: against 22 and 17-22 in batches of 2048
_TABLE_BYTES = 1 << 19

#: blocks per np.unpackbits call of the table kernel, whose temporary
#: would otherwise be a second copy of the output
_UNPACK_ROWS = 1 << 8

#: bits per chunk of runs_test's flip count. A flag per bit of the whole
#: stream, 7.4 MB for the 4096 blocks of a 2**20-code trace, took 4.8
#: ms with its page faults where the chunks take 0.8-1.0
_RUNS_CHUNK = 1 << 18

#: row v holds the bits of byte v, MSB first
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)


def pack_bits_to_words(bits: np.ndarray) -> np.ndarray:
    """Pack rows of 0/1 values into uint64 words, MSB first.

    Accepts a 1-D array (one row) or a 2-D array (one row per line);
    rows are zero-padded up to a multiple of 64 bits.
    """
    packed = np.packbits(check_bits("bits", bits), axis=-1)
    n_bytes = packed.shape[-1]
    words = np.zeros(packed.shape[:-1] + (8 * max(-(-n_bytes // 8), 1),),
                     dtype=np.uint8)
    words[..., :n_bytes] = packed
    return words.view(">u8").astype(np.uint64)


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

    @cached_property
    def _byte_table(self) -> np.ndarray:
        """H, one packed row per byte value v: bit s of row v is the XOR
        of t''[s + u] over the set bits u of v (module doc)."""
        n_bytes = -(-self.input_bits // 8)
        padded = np.concatenate([
            np.zeros(8 * n_bytes - self.input_bits, dtype=np.uint8),
            self._diagonals])
        width = 8 * (n_bytes - 1) + self.output_bits
        table = np.zeros((256, -(-width // 8)), dtype=np.uint8)
        for u in range(8):  # rows 2**u .. 2**(u+1) - 1 add bit u
            np.bitwise_xor(table[:1 << u], np.packbits(padded[u:u + width]),
                           out=table[1 << u:2 << u])
        return table

    @cached_property
    def _byte_windows(self) -> list[np.ndarray]:
        """Item v of entry j is the window of H's row v that input byte j
        selects, as one np.void item of ceil(n_out / 8) bytes: a strided
        view of H, so a gather copies one contiguous run per block."""
        table = self._byte_table
        n_bytes = -(-self.input_bits // 8)
        item = np.dtype((np.void, -(-self.output_bits // 8)))
        return [np.ndarray((256, 1), item, table, n_bytes - 1 - j,
                           (table.shape[1], 0))
                for j in range(n_bytes)]


def _hash(spec: ToeplitzSpec, packed: np.ndarray, out: np.ndarray) -> None:
    """out[b] = T @ x_b mod 2 for the blocks x_b packed MSB first, one
    row of ceil(n_in / 8) bytes each, by the faster kernel for the
    geometry (module doc)."""
    kernel = _table_hash if spec._fft_length <= _TABLE_MAX_LENGTH else _fft_hash
    kernel(spec, packed, out)


def _table_hash(spec: ToeplitzSpec, packed: np.ndarray,
                out: np.ndarray) -> None:
    """_hash by the byte table (module doc)."""
    windows = spec._byte_windows  # read here, not first on a part's thread
    n_blocks, n_out = out.shape
    y = np.empty((n_blocks, -(-n_out // 8)), dtype=np.uint8)
    rows = max(_TABLE_BYTES // y.shape[1], 1)
    # as many near-equal parts as whole batches, up to one per worker
    parts = min(_parallel.workers(), -(-n_blocks // rows))
    _parallel.run(lambda a, b: _table_part(packed[a:b], windows, rows, y[a:b]),
                  _parallel.split(n_blocks, -(-n_blocks // parts)))
    for a in range(0, n_blocks, _UNPACK_ROWS):
        out[a:a + _UNPACK_ROWS] = np.unpackbits(y[a:a + _UNPACK_ROWS],
                                                axis=1, count=n_out)


def _table_part(packed: np.ndarray, windows: list[np.ndarray], rows: int,
                y: np.ndarray) -> None:
    """y[b] = T @ x_b mod 2, packed, for the packed blocks x_b, rows
    blocks at a time: one XOR of a gathered window of H per input byte
    (module doc)."""
    for first in range(0, len(packed), rows):
        group = packed[first:first + rows]
        acc = y[first:first + rows]
        acc[:] = 0
        for j, window in enumerate(windows):
            acc ^= window[group[:, j]].view(np.uint8)


def _fft_hash(spec: ToeplitzSpec, packed: np.ndarray,
              out: np.ndarray) -> None:
    """_hash by the packed FFT convolution (module doc)."""
    n_in, n_out, length = spec.input_bits, spec.output_bits, spec._fft_length
    # read here, so no cached property is first computed on a part's thread
    lanes, seed_spectrum = spec._lanes, spec._seed_spectrum
    n_blocks = len(packed)
    batch = min(max(_BATCH_SAMPLES // length, 1), -(-n_blocks // lanes))
    rows = -(-batch // _parallel.workers())
    ranges = _parallel.split(n_blocks, rows * lanes)
    # Every part's buffers, allocated after out, which the caller
    # allocated: a buffer allocated before it left a heap hole that
    # raised the bitgen benchmark's peak RSS from 169 to 184 MB. x is
    # zero-padded to L once: only [..., :n_in] is ever written.
    index = np.empty((len(ranges), rows * lanes, packed.shape[1]), np.intp)
    bits = np.empty(index.shape + (8,), dtype=np.uint8)
    shape = (len(ranges), rows)
    x = np.zeros(shape + (length,))
    spectrum = np.empty(shape + (length // 2 + 1,), dtype=np.complex128)
    y = np.empty(shape + (length,))
    products = np.empty(shape + (n_out,), dtype=np.int64)
    _parallel.run(
        lambda p, a, b: _fft_part(
            packed[a:b], seed_spectrum, lanes, n_in, index[p], bits[p], x[p],
            spectrum[p], y[p], products[p], out[a:b]),
        [(p, a, b) for p, (a, b) in enumerate(ranges)])


def _fft_part(packed: np.ndarray, seed_spectrum: np.ndarray, lanes: int,
              n_in: int, index: np.ndarray, bits: np.ndarray, x: np.ndarray,
              spectrum: np.ndarray, y: np.ndarray, products: np.ndarray,
              out: np.ndarray) -> None:
    """_fft_hash of ``packed`` into ``out``, len(x) rows of lanes blocks
    at a time, through the caller's buffers (module doc)."""
    n_out, shift, rows = out.shape[1], n_in.bit_length(), len(x)
    for first in range(0, len(packed), rows * lanes):
        group = packed[first:first + rows * lanes]
        n = len(group)
        # one uint8 per bit, through the index buffer: np.take copies
        # indices of any other type to a new array
        np.copyto(index[:n], group)
        np.take(_BYTE_BITS, index[:n], axis=0, out=bits[:n], mode="clip")
        blocks = bits[:n].reshape(n, -1)[:, :n_in]
        n_rows = -(-n // lanes)
        # x_g = sum_i 2**(shift * i) * blocks[g * lanes + i], by Horner's rule
        row_sums = x[:n_rows, :n_in]
        row_sums[:] = 0.0
        for i in reversed(range(lanes)):
            row_sums *= 2.0**shift
            lane = blocks[i::lanes]
            row_sums[:len(lane)] += lane
        np.fft.rfft(x[:n_rows], axis=1, out=spectrum[:n_rows])
        spectrum[:n_rows] *= seed_spectrum
        np.fft.irfft(spectrum[:n_rows], n=x.shape[1], axis=1, out=y[:n_rows])
        v = products[:n_rows]
        np.rint(y[:n_rows, n_in - 1:n_in - 1 + n_out], out=v, casting="unsafe")
        for i in range(lanes):  # v is rint(y) >> (shift * i) here
            dest = out[first + i:first + n:lanes]
            np.bitwise_and(v[:len(dest)], 1, out=dest, casting="unsafe")
            v >>= shift


def output_bits_for(h_min_bits: float, adc_bits: int, input_bits: int) -> int:
    """Output block size floor(h_min / n * input_bits) for n-bit codes."""
    adc_bits = check_count("adc_bits", adc_bits, 2, 16)
    input_bits = check_count("input_bits", input_bits, 1)
    h_min_bits = check_h_min("h_min", h_min_bits, adc_bits)
    return int(math.floor(h_min_bits / adc_bits * input_bits))


def extract_block(block: np.ndarray, spec: ToeplitzSpec) -> np.ndarray:
    """Hash one input_bits-long 0/1 block to output_bits bits."""
    bits = np.asarray(block)
    if bits.ndim != 1 or len(bits) != spec.input_bits:
        raise LengthMismatchError(
            f"block must hold exactly {spec.input_bits} bits, got {bits.shape}")
    out = np.empty((1, spec.output_bits), dtype=np.uint8)
    _hash(spec, np.packbits(check_bits("block", bits))[None, :], out)
    return out[0]


def extract_stream(codes: QuantizedTrace, spec: ToeplitzSpec) -> np.ndarray:
    """Serialize a code trace and hash it block by block.

    The trailing partial block is discarded; block order is preserved
    in the output. Returns a 0/1 uint8 array of
    output_bits * n_blocks bits.
    """
    n_in, code_bits = spec.input_bits, codes.adc.bits
    n_blocks = len(codes) * code_bits // n_in
    if n_blocks == 0:
        return np.empty(0, dtype=np.uint8)
    if code_bits in (8, 16) and n_in % 8 == 0:
        # the big-endian code words are the blocks packed MSB first
        out = np.empty((n_blocks, spec.output_bits), dtype=np.uint8)
        words = codes.codes[:-(-n_blocks * n_in // code_bits)].astype(
            f">u{code_bits // 8}")
        packed = words.view(np.uint8)[:n_blocks * n_in // 8].reshape(n_blocks, -1)
    else:
        # the bits are packed and freed before out is allocated (module doc)
        packed = np.packbits(codes_to_bits(codes.codes, code_bits)[
            :n_blocks * n_in].reshape(n_blocks, n_in), axis=1)
        out = np.empty((n_blocks, spec.output_bits), dtype=np.uint8)
    _hash(spec, packed, out)
    return out.reshape(-1)


def _as_bit_array(bits: np.ndarray, minimum: int) -> np.ndarray:
    arr = np.asarray(bits)
    if arr.size < minimum:
        raise TooFewBitsError(f"need at least {minimum} bits, got {arr.size}")
    return check_bits("bits", arr).reshape(-1)


def monobit_test(bits: np.ndarray) -> float:
    """Frequency test p-value: is the ones/zeros balance plausible?"""
    arr = _as_bit_array(bits, 100)
    n = arr.size
    s = abs(2.0 * np.count_nonzero(arr) - n) / math.sqrt(n)
    return float(erfc(s / math.sqrt(2.0)))


def runs_test(bits: np.ndarray) -> float:
    """Runs test p-value: is the number of bit flips plausible?

    Returns 0.0 when the ones fraction is already too far from 1/2 for
    the runs statistic to be meaningful.
    """
    arr = _as_bit_array(bits, 100)
    n = arr.size
    pi = np.count_nonzero(arr) / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0
    # bit flips counted a chunk at a time, through one reused buffer
    flips = np.empty(min(_RUNS_CHUNK, n - 1), dtype=bool)
    v = 1
    for a in range(0, n - 1, _RUNS_CHUNK):
        b = min(a + _RUNS_CHUNK, n - 1)
        v += np.count_nonzero(np.not_equal(arr[a + 1:b + 1], arr[a:b],
                                           out=flips[:b - a]))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return float(erfc(num / den))
