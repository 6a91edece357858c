import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from lpnqrng import (
    AdcSpec,
    QuantizedTrace,
    ToeplitzSpec,
    extract_block,
    extract_stream,
    monobit_test,
    output_bits_for,
    runs_test,
)
from lpnqrng import _parallel, extractor
from lpnqrng.errors import (
    InvalidParameterError,
    LengthMismatchError,
    TooFewBitsError,
)
from lpnqrng.extractor import (
    codes_to_bits,
    pack_bits_to_bytes,
    pack_bits_to_words,
    unpack_bytes_to_bits,
)
from lpnqrng.rng import bit_stream

from conftest import dense_product, kernel_product


def random_spec(rng, max_n=64):
    n_in = int(rng.integers(1, max_n + 1))
    n_out = int(rng.integers(1, n_in + 1))
    seed = rng.integers(0, 2, n_in + n_out - 1).astype(np.uint8)
    return ToeplitzSpec(n_in, n_out, seed)


class TestPacking:
    def test_words_msb_first(self):
        bits = np.zeros(64, dtype=np.uint8)
        bits[0] = 1  # most significant bit of the first word
        assert pack_bits_to_words(bits)[0] == np.uint64(1) << np.uint64(63)

    def test_pad_is_zero(self):
        bits = np.ones(3, dtype=np.uint8)
        assert pack_bits_to_words(bits)[0] == np.uint64(0b111) << np.uint64(61)

    def test_bytes_round_trip(self):
        bits = bit_stream(5, 173)
        again = unpack_bytes_to_bits(pack_bits_to_bytes(bits), 173)
        assert np.array_equal(bits, again)

    def test_unpack_too_short(self):
        with pytest.raises(LengthMismatchError):
            unpack_bytes_to_bits(b"\x00", 9)

    def test_codes_to_bits_twos_complement_msb_first(self):
        got = codes_to_bits(np.array([5, -1, -8], dtype=np.int16), 4)
        want = [0, 1, 0, 1,  1, 1, 1, 1,  1, 0, 0, 0]
        assert got.tolist() == want

    @pytest.mark.parametrize("width", range(1, 17))
    def test_codes_to_bits_matches_16_bit_words(self, width):
        lo, hi = -2**(width - 1), 2**(width - 1) - 1
        rng = np.random.default_rng(width)
        codes = np.concatenate([[lo, hi, -1, 0],
                                rng.integers(lo, hi + 1, 500)]).astype(np.int16)
        words = codes.astype(">u2").view(np.uint8).reshape(-1, 2)
        want = np.unpackbits(words, axis=1)[:, 16 - width:].ravel()
        got = codes_to_bits(codes, width)
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)


    @pytest.mark.parametrize("width", [0, 17])
    def test_codes_to_bits_width_outside_1_to_16_rejected(self, width):
        with pytest.raises(InvalidParameterError) as exc:
            codes_to_bits(np.zeros(2, np.int16), width)
        assert str(exc.value) == (
            f"bits_per_code must be an integer in [1, 16], got {width}")


class TestToeplitzSpec:
    def test_seed_bits_other_than_0_or_1_rejected(self):
        seed = np.zeros(11, dtype=np.uint8)
        seed[5] = 2
        with pytest.raises(InvalidParameterError, match="seed bits must be 0 or 1"):
            ToeplitzSpec(8, 4, seed)

    def test_seed_length_checked(self):
        with pytest.raises(LengthMismatchError):
            ToeplitzSpec(8, 8, np.zeros(10, dtype=np.uint8))

    def test_output_bounds_checked(self):
        with pytest.raises(InvalidParameterError):
            ToeplitzSpec(8, 9, np.zeros(16, dtype=np.uint8))
        with pytest.raises(InvalidParameterError):
            ToeplitzSpec(8, 0, np.zeros(7, dtype=np.uint8))

    def test_matrix_layout(self):
        # column part first (top to bottom), then the first row
        seed = np.arange(1, 8) % 2  # 1 0 1 0 1 0 1 for a 4x4 matrix
        spec = ToeplitzSpec(4, 4, seed.astype(np.uint8))
        t = spec.matrix()
        for r in range(4):
            for c in range(4):
                d = r - c
                want = seed[d] if d >= 0 else seed[4 - 1 - d]
                assert t[r, c] == want

    def test_production_scale_geometry(self):
        spec = ToeplitzSpec(2048, 1800, bit_stream(1, 2048 + 1800 - 1))
        assert spec.matrix().shape == (1800, 2048)

    @staticmethod
    def defined_matrix(spec):
        # first column top to bottom, then the first row from its second entry
        n_out, n_in, seed = spec.output_bits, spec.input_bits, spec.seed_bits
        return np.array([[seed[r - c] if r >= c else seed[n_out - 1 + c - r]
                          for c in range(n_in)] for r in range(n_out)],
                        dtype=np.uint8)

    @settings(max_examples=60, deadline=None)
    @given(n_in=st.integers(1, 64), data=st.data())
    def test_matrix_matches_definition(self, n_in, data):
        n_out = data.draw(st.integers(1, n_in))
        n_seed = n_in + n_out - 1
        seed = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n_seed,
                                           max_size=n_seed)), dtype=np.uint8)
        spec = ToeplitzSpec(n_in, n_out, seed)
        got = spec.matrix()
        assert got.dtype == np.uint8 and got.flags.c_contiguous
        assert np.array_equal(got, self.defined_matrix(spec))

    def test_production_matrix_matches_definition(self):
        spec = ToeplitzSpec(2048, 1800, bit_stream(3, 2048 + 1800 - 1))
        assert np.array_equal(spec.matrix(), self.defined_matrix(spec))

    def test_matrix_allocates_little_beyond_its_result(self):
        spec = ToeplitzSpec(2048, 1800, bit_stream(1, 2048 + 1800 - 1))
        tracemalloc.start()
        try:
            t = spec.matrix()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * t.nbytes, peak / t.nbytes


class TestExtractionRatio:
    def test_values(self):
        assert output_bits_for(7.03, 8, 2048) == 1799
        assert output_bits_for(6.35, 8, 2048) == 1625
        assert output_bits_for(0.0, 8, 2048) == 0
        assert output_bits_for(4.0, 8, 2048) == 1024

    def test_bounds(self):
        with pytest.raises(InvalidParameterError):
            output_bits_for(9.0, 8, 2048)


class TestExtractBlock:
    def test_zero_seed_zero_output(self):
        spec = ToeplitzSpec(16, 8, np.zeros(23, dtype=np.uint8))
        x = bit_stream(3, 16)
        assert not extract_block(x, spec).any()

    def test_identity(self):
        n = 48
        seed = np.zeros(2 * n - 1, dtype=np.uint8)
        seed[0] = 1
        spec = ToeplitzSpec(n, n, seed)
        x = bit_stream(4, n)
        assert np.array_equal(extract_block(x, spec), x)

    def test_against_dense_oracle_64x48(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            seed = rng.integers(0, 2, 64 + 48 - 1).astype(np.uint8)
            spec = ToeplitzSpec(64, 48, seed)
            x = rng.integers(0, 2, 64).astype(np.uint8)
            assert np.array_equal(extract_block(x, spec),
                                  dense_product(spec, x))

    def test_against_dense_oracle_random_shapes(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            spec = random_spec(rng)
            x = rng.integers(0, 2, spec.input_bits).astype(np.uint8)
            assert np.array_equal(extract_block(x, spec),
                                  dense_product(spec, x))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_gf2_linearity(self, case_seed):
        rng = np.random.default_rng(case_seed)
        spec = random_spec(rng, max_n=96)
        x = rng.integers(0, 2, spec.input_bits).astype(np.uint8)
        y = rng.integers(0, 2, spec.input_bits).astype(np.uint8)
        lhs = extract_block(x ^ y, spec)
        rhs = extract_block(x, spec) ^ extract_block(y, spec)
        assert np.array_equal(lhs, rhs)

    def test_wrong_length(self):
        spec = ToeplitzSpec(16, 8, np.zeros(23, dtype=np.uint8))
        with pytest.raises(LengthMismatchError):
            extract_block(np.zeros(15, dtype=np.uint8), spec)

    def test_deterministic(self):
        spec = ToeplitzSpec(128, 96, bit_stream(8, 223))
        x = bit_stream(9, 128)
        assert np.array_equal(extract_block(x, spec), extract_block(x, spec))


KERNELS = ("_table_hash", "_fft_hash")


class TestKernel:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_kernel_matches_dense_oracle(self, kernel):
        rng = np.random.default_rng(13)
        for _ in range(100):
            spec = random_spec(rng)
            x = rng.integers(0, 2, spec.input_bits).astype(np.uint8)
            got = kernel_product(kernel, spec, x[None, :])[0]
            assert np.array_equal(got, dense_product(spec, x))

    # n_in and n_out off a multiple of 8, n_in < 8, 1 x 1 and whole bytes
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("n_in,n_out", [
        (1, 1), (2, 1), (7, 7), (7, 3), (8, 8), (8, 1), (9, 9), (9, 2),
        (15, 9), (16, 16), (17, 8), (64, 48), (100, 61), (2049, 1801)])
    @pytest.mark.parametrize("seed", ["random", "ones"])
    def test_kernel_edge_geometries_against_dense_oracle(self, kernel, n_in,
                                                         n_out, seed):
        rng = np.random.default_rng(n_in * 7 + n_out)
        n_seed = n_in + n_out - 1
        spec = ToeplitzSpec(n_in, n_out, (
            rng.integers(0, 2, n_seed) if seed == "random"
            else np.ones(n_seed)).astype(np.uint8))
        x = rng.integers(0, 2, (5, n_in)).astype(np.uint8)
        x[0] = 1  # the all-ones block sums every seed bit of a row
        want = dense_product(spec, x)
        assert np.array_equal(kernel_product(kernel, spec, x), want)

    def test_kernel_choice_follows_the_transform_length(self, monkeypatch):
        ran = []
        for kernel in KERNELS:
            monkeypatch.setattr(extractor, kernel,
                                lambda spec, packed, out, kernel=kernel:
                                ran.append(kernel))
        # n_in + n_out - 1 = 2**14 is the largest table geometry
        for n_in, n_out in ((1, 1), (2048, 1800), (8193, 8192), (8193, 8193),
                            (2**17, 2**17 - 5)):
            spec = ToeplitzSpec(n_in, n_out,
                                np.zeros(n_in + n_out - 1, dtype=np.uint8))
            kernel_product("_hash", spec, np.zeros((1, n_in), dtype=np.uint8))
        assert ran == ["_table_hash"] * 3 + ["_fft_hash"] * 2

    def test_byte_table_rows(self):
        # row 2**u is t'' from u on; every row is the XOR of its bits' rows
        spec = ToeplitzSpec(2048, 1800, bit_stream(19, 3847))
        table = spec._byte_table
        assert table.shape == (256, 480) and table.dtype == np.uint8
        assert not table[0].any()
        width = 8 * 255 + 1800
        for u in range(8):
            want = np.packbits(spec._diagonals[u:u + width])
            assert np.array_equal(table[1 << u], want)
        for v in range(256):
            assert np.array_equal(table[v], np.bitwise_xor.reduce(
                table[[1 << u for u in range(8) if v >> u & 1] or [0]]))

    def test_table_block_counts_straddling_the_batch_edge(self):
        rng = np.random.default_rng(20)
        spec = ToeplitzSpec(2048, 1800, rng.integers(0, 2, 3847).astype(np.uint8))
        batch = extractor._TABLE_BYTES // (1800 // 8)
        for n_blocks in (1, batch - 1, batch, batch + 1, 2 * batch + 1):
            blocks = rng.integers(0, 2, (n_blocks, 2048)).astype(np.uint8)
            want = dense_product(spec, blocks)
            assert np.array_equal(kernel_product("_table_hash", spec, blocks),
                                  want)

    def test_block_counts_straddling_the_chunk_edge(self):
        rng = np.random.default_rng(14)
        spec = ToeplitzSpec(2048, 1800, rng.integers(0, 2, 3847).astype(np.uint8))
        chunk = extractor._BATCH_SAMPLES // spec._fft_length
        for n_blocks in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            blocks = rng.integers(0, 2, (n_blocks, 2048)).astype(np.uint8)
            want = dense_product(spec, blocks)
            got = kernel_product("_fft_hash", spec, blocks)
            assert np.array_equal(got, want)

    def test_lane_edges_against_dense_oracle(self):
        rng = np.random.default_rng(17)
        spec = ToeplitzSpec(2048, 1800, rng.integers(0, 2, 3847).astype(np.uint8))
        p = spec._lanes
        chunk = extractor._BATCH_SAMPLES // spec._fft_length
        for n_blocks in (1, p - 1, p, p + 1, chunk * p - 1, chunk * p,
                         chunk * p + 1, 2 * chunk * p + 1):
            blocks = rng.integers(0, 2, (n_blocks, 2048)).astype(np.uint8)
            want = dense_product(spec, blocks)
            got = kernel_product("_fft_hash", spec, blocks)
            assert np.array_equal(got, want)

    def test_packed_random_shapes_against_dense_oracle(self):
        # small geometries pack the most lanes (up to 52 at 1 -> 1)
        rng = np.random.default_rng(18)
        for _ in range(100):
            spec = random_spec(rng)
            p = spec._lanes
            n_blocks = int(rng.integers(1, 3 * p + 2))
            x = rng.integers(0, 2, (n_blocks, spec.input_bits)).astype(np.uint8)
            want = dense_product(spec, x)
            got = kernel_product("_fft_hash", spec, x)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_in", [2047, 2048])
    def test_worst_case_carry_stays_in_its_lane(self, n_in):
        # all-ones seed: every product of an all-ones block is n_in, the
        # largest value a lane holds (2**11 - 1 fills all 11 bits at 2047)
        spec = ToeplitzSpec(n_in, 1800, np.ones(n_in + 1799, dtype=np.uint8))
        p = spec._lanes
        chunk = extractor._BATCH_SAMPLES // spec._fft_length
        b = np.arange(2 * chunk * p + 1)
        row, lane = b // p, b % p
        # rows cycle through: all lanes ones, even lanes, odd lanes, none
        ones = np.choose(row % 4, [np.ones_like(b), lane % 2 == 0,
                                   lane % 2 == 1, np.zeros_like(b)]).astype(bool)
        blocks = np.repeat(ones[:, None], n_in, axis=1).astype(np.uint8)
        want = np.repeat((ones & (n_in % 2 == 1))[:, None], 1800, axis=1)
        got = kernel_product("_fft_hash", spec, blocks)
        assert np.array_equal(got, want)

    def test_lane_rule(self):
        def bound(n_in, n_out, p):
            length = 1
            while length < n_in + n_out - 1:
                length *= 2
            s = n_in.bit_length()
            return (2.0**-53 * np.log2(length) * np.sqrt(n_in * (n_in + n_out - 1))
                    * 2.0 ** (s * (p - 1) + 1))

        def lanes(n_in, n_out):
            return ToeplitzSpec(n_in, n_out,
                                np.zeros(n_in + n_out - 1, dtype=np.uint8))._lanes

        sizes = sorted({n for k in range(21) for n in (2**k - 1, 2**k, 2**k + 1)
                        if 1 <= n <= 2**20})
        for n_in in sizes:
            for n_out in sorted({1, (n_in + 1) // 2, n_in}):
                p, s = lanes(n_in, n_out), n_in.bit_length()
                assert p >= 1
                assert s * p <= 52
                assert bound(n_in, n_out, p) <= 2.0**-11
                # the largest such p
                assert s * (p + 1) > 52 or bound(n_in, n_out, p + 1) > 2.0**-11
        assert lanes(2048, 1800) == 3
        assert lanes(2**17, 2**17 - 5) == 2
        assert lanes(2**20, 2**20) == 1

    def test_sampled_rows_at_large_geometry(self):
        # too large for the dense matrix: rows come from the T[r][c] definition
        n_in, n_out = 2**17, 2**17 - 5
        spec = ToeplitzSpec(n_in, n_out, bit_stream(15, n_in + n_out - 1))
        x = bit_stream(16, 2 * n_in).reshape(2, n_in)
        out = kernel_product("_fft_hash", spec, x)
        c = np.arange(n_in)
        for r in (0, n_out // 2, n_out - 1):
            row = spec.seed_bits[np.where(r >= c, r - c, n_out - 1 + c - r)]
            for b in range(2):
                assert out[b, r] == int(row @ x[b].astype(np.int64)) % 2

    def test_one_by_one(self):
        for s in (0, 1):
            spec = ToeplitzSpec(1, 1, np.array([s], dtype=np.uint8))
            for x in (0, 1):
                block = np.array([x], dtype=np.uint8)
                assert extract_block(block, spec).tolist() == [s & x]


class TestExtractStream:
    def test_empty_trace(self, adc8):
        spec = ToeplitzSpec(2048, 1800, bit_stream(1, 3847))
        qt = QuantizedTrace(np.empty(0, dtype=np.int16), adc8, 1e-10)
        assert extract_stream(qt, spec).size == 0

    def test_single_block_count(self, adc8):
        # 2048 / 8 codes give exactly one block and n_out bits
        spec = ToeplitzSpec(2048, 1800, bit_stream(2, 3847))
        codes = (np.arange(256) - 128).astype(np.int16)
        qt = QuantizedTrace(codes, adc8, 1e-10)
        assert extract_stream(qt, spec).size == 1800

    def test_partial_block_discarded(self, adc8):
        spec = ToeplitzSpec(2048, 1800, bit_stream(2, 3847))
        codes = (np.arange(300) % 200 - 100).astype(np.int16)
        qt = QuantizedTrace(codes, adc8, 1e-10)
        assert extract_stream(qt, spec).size == 1800

    def test_matches_blockwise_extraction(self, adc8):
        spec = ToeplitzSpec(256, 100, bit_stream(6, 355))
        codes = ((np.arange(96) * 37) % 256 - 128).astype(np.int16)
        qt = QuantizedTrace(codes, adc8, 1e-10)
        bits = codes_to_bits(codes, 8)
        want = np.concatenate([
            extract_block(bits[i * 256:(i + 1) * 256], spec) for i in range(3)])
        assert np.array_equal(extract_stream(qt, spec), want)

    # whole-byte blocks of 8- and 16-bit codes are hashed from the code
    # bytes by either kernel (2**14 -> 100 runs the FFT); other widths and
    # geometries are serialized to bits first
    @pytest.mark.parametrize("adc_bits,n_in,n_out,serialized", [
        (8, 2048, 1800, False), (16, 2048, 1800, False),
        (16, 24, 10, False), (8, 2047, 1000, True), (12, 2048, 1800, True),
        (16, 2**14, 100, False), (8, 2**14, 100, False),
        (10, 2**14, 100, True)])
    def test_code_bytes_route(self, monkeypatch, adc_bits, n_in, n_out,
                              serialized):
        adc = AdcSpec(bits=adc_bits)
        rng = np.random.default_rng(adc_bits + n_in)
        codes = rng.integers(adc.code_min, adc.code_max + 1,
                             3 * n_in // adc_bits + 1).astype(np.int16)
        codes[:2] = adc.code_min, adc.code_max
        spec = ToeplitzSpec(n_in, n_out, rng.integers(0, 2, n_in + n_out - 1))
        bits = codes_to_bits(codes, adc_bits)
        want = dense_product(spec, bits[:3 * n_in].reshape(3, n_in)).ravel()
        calls = []
        monkeypatch.setattr(extractor, "codes_to_bits", lambda *args: (
            calls.append(args), codes_to_bits(*args))[1])
        got = extract_stream(QuantizedTrace(codes, adc, 1e-10), spec)
        assert np.array_equal(got, want)
        assert bool(calls) == serialized


    def test_fft_route_peak_memory(self, monkeypatch):
        # 2**20 codes at 65536 -> 60000, the FFT kernel, at two workers
        monkeypatch.setattr(_parallel, "workers", lambda: 2)
        spec = ToeplitzSpec(65536, 60000, bit_stream(3, 65536 + 59999))
        extract_block(np.zeros(65536, dtype=np.uint8), spec)  # fills the caches

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def codes(adc_bits):
            adc = AdcSpec(bits=adc_bits)
            rng = np.random.default_rng(adc_bits)
            return QuantizedTrace(rng.integers(adc.code_min, adc.code_max + 1,
                                               2**20).astype(np.int16),
                                  adc, 1e-10)

        # 8-bit codes are hashed from their bytes: the output (7.3 MiB),
        # the code bytes (1 MiB) and one serial batch of the kernel's
        # working arrays (6.9 MiB) make 15.2 MiB, and the blocks unpacked
        # to a byte per input bit would add 8 MiB
        eight = codes(8)
        assert peak(lambda: extract_stream(eight, spec)) < 18 * 2**20
        # 10-bit codes are serialized, and the bits are packed and freed
        # before the output and the kernel's buffers are allocated, so the
        # route peaks while it serializes (26 MiB)
        ten = codes(10)
        serialize = peak(lambda: codes_to_bits(ten.codes, 10))
        assert peak(lambda: extract_stream(ten, spec)) < serialize + 2**20


class TestSanityStatistics:
    def test_alternating_bits(self):
        bits = np.tile(np.array([0, 1], dtype=np.uint8), 500)
        assert monobit_test(bits) == pytest.approx(1.0)
        assert runs_test(bits) < 1e-100

    def test_all_zeros(self):
        bits = np.zeros(1000, dtype=np.uint8)
        assert monobit_test(bits) < 1e-100
        assert runs_test(bits) == 0.0  # prefilter: bias too large for runs

    def test_good_prng_stream(self):
        bits = bit_stream(31337, 2**20)
        assert monobit_test(bits) > 0.01
        assert runs_test(bits) > 0.01

    # the flips are counted in chunks; these lengths end a chunk early,
    # on its edge and just past it
    @pytest.mark.parametrize("extra", [-1, 0, 1, 2, 12345])
    def test_runs_counts_flips_across_chunk_edges(self, extra):
        n = extractor._RUNS_CHUNK + extra
        bits = bit_stream(40 + extra, 2 * n)[:n]
        pi = np.count_nonzero(bits) / n
        v = 1 + np.count_nonzero(bits[1:] != bits[:-1])
        want = erfc(abs(v - 2.0 * n * pi * (1.0 - pi))
                         / (2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)))
        assert runs_test(bits) == want

    def test_rows_are_one_stream(self):
        bits = bit_stream(41, 2 * 1000)
        assert runs_test(bits.reshape(2, -1)) == runs_test(bits)
        assert monobit_test(bits.reshape(2, -1)) == monobit_test(bits)

    def test_too_few_bits(self):
        with pytest.raises(TooFewBitsError):
            monobit_test(np.zeros(99, dtype=np.uint8))
        with pytest.raises(TooFewBitsError):
            runs_test(np.zeros(99, dtype=np.uint8))
