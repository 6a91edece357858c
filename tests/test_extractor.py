import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpnqrng import (
    QuantizedTrace,
    ToeplitzSpec,
    extract_block,
    extract_stream,
    extraction_ratio,
    monobit_test,
    output_bits_for,
    runs_test,
)
from lpnqrng import extractor
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


def random_spec(rng, max_n=64):
    n_in = int(rng.integers(1, max_n + 1))
    n_out = int(rng.integers(1, n_in + 1))
    seed = rng.integers(0, 2, n_in + n_out - 1).astype(np.uint8)
    return ToeplitzSpec(n_in, n_out, seed)


def dense_oracle(spec, x):
    return (spec.matrix().astype(np.int64) @ x.astype(np.int64)) % 2


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


class TestToeplitzSpec:
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


class TestExtractionRatio:
    def test_values(self):
        assert output_bits_for(7.03, 8, 2048) == 1799
        assert output_bits_for(6.35, 8, 2048) == 1625
        assert output_bits_for(0.0, 8, 2048) == 0
        assert extraction_ratio(4.0, 8) == 0.5

    def test_bounds(self):
        with pytest.raises(InvalidParameterError):
            extraction_ratio(9.0, 8)


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
                                  dense_oracle(spec, x).astype(np.uint8))

    def test_against_dense_oracle_random_shapes(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            spec = random_spec(rng)
            x = rng.integers(0, 2, spec.input_bits).astype(np.uint8)
            assert np.array_equal(extract_block(x, spec),
                                  dense_oracle(spec, x).astype(np.uint8))

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


class TestKernel:
    def test_kernel_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            spec = random_spec(rng)
            x = rng.integers(0, 2, spec.input_bits).astype(np.uint8)
            got = extractor._toeplitz_apply(spec, x[None, :])[0]
            assert np.array_equal(got, dense_oracle(spec, x).astype(np.uint8))

    def test_block_counts_straddling_the_chunk_edge(self):
        rng = np.random.default_rng(14)
        spec = ToeplitzSpec(2048, 1800, rng.integers(0, 2, 3847).astype(np.uint8))
        chunk = extractor._BATCH_SAMPLES // spec._fft_length
        dense = spec.matrix().astype(np.float64)
        for n_blocks in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            blocks = rng.integers(0, 2, (n_blocks, 2048)).astype(np.uint8)
            want = (blocks @ dense.T).astype(np.int64) % 2
            assert np.array_equal(extractor._toeplitz_apply(spec, blocks), want)

    def test_lane_edges_against_dense_oracle(self):
        rng = np.random.default_rng(17)
        spec = ToeplitzSpec(2048, 1800, rng.integers(0, 2, 3847).astype(np.uint8))
        p = spec._lanes
        chunk = extractor._BATCH_SAMPLES // spec._fft_length
        dense = spec.matrix().astype(np.float64)
        for n_blocks in (1, p - 1, p, p + 1, chunk * p - 1, chunk * p,
                         chunk * p + 1, 2 * chunk * p + 1):
            blocks = rng.integers(0, 2, (n_blocks, 2048)).astype(np.uint8)
            want = (blocks @ dense.T).astype(np.int64) % 2
            assert np.array_equal(extractor._toeplitz_apply(spec, blocks), want)

    def test_packed_random_shapes_against_dense_oracle(self):
        # small geometries pack the most lanes (up to 52 at 1 -> 1)
        rng = np.random.default_rng(18)
        for _ in range(100):
            spec = random_spec(rng)
            p = spec._lanes
            n_blocks = int(rng.integers(1, 3 * p + 2))
            x = rng.integers(0, 2, (n_blocks, spec.input_bits)).astype(np.uint8)
            want = np.array([dense_oracle(spec, b) for b in x], dtype=np.uint8)
            assert np.array_equal(extractor._toeplitz_apply(spec, x), want)

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
        assert np.array_equal(extractor._toeplitz_apply(spec, blocks), want)

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
        out = extractor._toeplitz_apply(spec, x)
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

    def test_too_few_bits(self):
        with pytest.raises(TooFewBitsError):
            monobit_test(np.zeros(99, dtype=np.uint8))
        with pytest.raises(TooFewBitsError):
            runs_test(np.zeros(99, dtype=np.uint8))
