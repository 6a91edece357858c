import numpy as np
import pytest
from scipy.special import ndtri

from lpnqrng import SimSettings, evaluate_point
from lpnqrng.errors import InvalidParameterError
from lpnqrng.rng import (
    _GAUSS_BLOCK,
    bit_stream,
    derive_seed,
    gaussian_stream,
    raw_stream,
)
from lpnqrng.simulate import sample_phase_path

from conftest import WORKER_COUNTS, base_params, per_worker_count, set_workers

B = _GAUSS_BLOCK


def test_gaussian_stream_deterministic():
    a = gaussian_stream(1, 4096)
    b = gaussian_stream(1, 4096)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, gaussian_stream(2, 4096))


def test_gaussian_stream_moments():
    z = gaussian_stream(123, 2**20)
    n = z.size
    assert abs(z.mean()) < 5.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)


def test_gaussian_stream_prefix_stability():
    # shorter draws are prefixes of longer ones (counter-based stream)
    long = gaussian_stream(7, 1000)
    short = gaussian_stream(7, 10)
    assert np.array_equal(long[:10], short)


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
def test_gaussian_stream_matches_formula(n):
    # the blocked stream is the documented formula on one raw stream
    expected = ndtri(((raw_stream(11, n) >> np.uint64(11)) + 0.5) * 2.0**-53)
    z = gaussian_stream(11, n)
    assert z.dtype == np.float64 and z.shape == (n,)
    assert np.array_equal(z, expected)


def test_raw_stream_is_64_bit():
    raw = raw_stream(5, 256)
    assert raw.dtype == np.uint64
    assert raw.max() > np.uint64(1) << np.uint64(32)


def test_derive_seed_distinct_and_stable():
    seeds = {derive_seed(1, i, j) for i in range(40) for j in range(40)}
    assert len(seeds) == 1600
    assert derive_seed(1, 3, 4) == derive_seed(1, 3, 4)
    assert derive_seed(1, 3, 4) != derive_seed(1, 4, 3)
    assert derive_seed(1, 3) != derive_seed(2, 3)
    assert derive_seed(1, 3) != derive_seed(1, 3, 0)


def test_bit_stream_shape_and_balance():
    bits = bit_stream(99, 10_000)
    assert bits.dtype == np.uint8
    assert bits.size == 10_000
    assert set(np.unique(bits)) <= {0, 1}
    assert abs(bits.mean() - 0.5) < 0.02


def test_bit_stream_msb_first():
    word = raw_stream(42, 1)[0]
    bits = bit_stream(42, 64)
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    assert value == int(word)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65])
def test_bit_stream_lengths(n):
    assert bit_stream(3, n).size == n


@pytest.mark.parametrize("call", [
    lambda: sample_phase_path(1e6, 1e-10, 4, seed=2**64 + 7),
    lambda: SimSettings(seed=-5),
    lambda: evaluate_point(1e6, 1e-9, base_params(), SimSettings(seed=-5)),
    lambda: derive_seed(-1, 0),
    lambda: derive_seed(0, 2**64),
    lambda: gaussian_stream(-1, 4)],
    ids=["phase-path-2^64+7", "sim-settings", "evaluate-point",
         "derive-master", "derive-index", "gaussian"])
def test_seed_outside_64_bits_is_rejected_not_wrapped(call):
    with pytest.raises(InvalidParameterError, match=r"\[0, 2\*\*64\)"):
        call()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_range_ends_draw(seed):
    assert gaussian_stream(seed, 4).shape == (4,)
    assert bit_stream(seed, 64).size == 64
    assert 0 <= derive_seed(seed, seed) < 2**64
    assert SimSettings(seed=seed).seed == seed


@pytest.mark.parametrize("call", [
    lambda: SimSettings(seed=1.5),
    lambda: gaussian_stream(1.5, 3),
    lambda: derive_seed(1.5, 0),
    lambda: derive_seed(0, 2.0),
    lambda: derive_seed(True, 0),
    lambda: derive_seed(0, False),
    lambda: bit_stream(np.True_, 8),
    lambda: SimSettings(seed="7")],
    ids=["sim-settings-float", "gaussian-float", "derive-master-float",
         "derive-index-float", "derive-master-bool", "derive-index-bool",
         "numpy-bool", "string"])
def test_seed_that_is_not_an_integer_is_rejected(call):
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        call()


@pytest.mark.parametrize("kind", [np.int64, np.uint64, np.uint8])
def test_numpy_integer_seed_draws_the_python_int_stream(kind):
    # a NumPy scalar must not reach SplitMix64's multiplies, which would
    # wrap with a RuntimeWarning (an error under this suite's filters)
    assert derive_seed(kind(3)) == derive_seed(3)
    assert derive_seed(kind(3), kind(200)) == derive_seed(3, 200)
    assert np.array_equal(gaussian_stream(kind(3), 5), gaussian_stream(3, 5))
    assert np.array_equal(bit_stream(kind(3), 70), bit_stream(3, 70))
    assert SimSettings(seed=kind(3)).seed == 3
    top = np.uint64(2**64 - 1)
    assert derive_seed(top, top) == derive_seed(2**64 - 1, 2**64 - 1)


@pytest.mark.parametrize("call,name", [
    (lambda: gaussian_stream(1, -3), "n"),
    (lambda: raw_stream(1, -3), "n"),
    (lambda: bit_stream(1, -3), "n_bits"),
    (lambda: gaussian_stream(1, 3.0), "n"),
    (lambda: raw_stream(1, "4"), "n"),
    (lambda: gaussian_stream(1, True), "n"),
    (lambda: bit_stream(1, np.True_), "n_bits"),
    (lambda: bit_stream(1, np.float64(8)), "n_bits")],
    ids=["gaussian-negative", "raw-negative", "bits-negative",
         "gaussian-float", "raw-string", "gaussian-bool", "bits-numpy-bool",
         "bits-numpy-float"])
def test_count_that_is_not_a_non_negative_integer_is_rejected(call, name):
    with pytest.raises(InvalidParameterError,
                       match=rf"^{name} must be an integer >= 0, got "):
        call()


@pytest.mark.parametrize("kind", [np.int64, np.uint16])
def test_numpy_integer_count_draws_the_python_int_stream(kind):
    assert np.array_equal(gaussian_stream(3, kind(5)), gaussian_stream(3, 5))
    assert np.array_equal(raw_stream(3, kind(5)), raw_stream(3, 5))
    assert np.array_equal(bit_stream(3, kind(70)), bit_stream(3, 70))


class TestScaleAndOut:
    """``scale`` multiplies each block in cache and ``out`` takes the
    variates in place; both give the bytes of the unscaled, fresh draw
    at every worker count and at the block edges."""

    EDGES = [1, B - 1, B, B + 1, 2 * B - 1, 2 * B + 1, 3 * B - 1, 3 * B + 1]

    @pytest.mark.parametrize("n", [0] + EDGES)
    @pytest.mark.parametrize("scale", [0.0, 1.0, 0.0123, 2.5])
    def test_scale_is_the_scaled_draw(self, monkeypatch, n, scale):
        want = (gaussian_stream(5, n) * scale).tobytes()
        for z in per_worker_count(monkeypatch, lambda: gaussian_stream(
                5, n, scale=scale)):
            assert z.tobytes() == want

    @pytest.mark.parametrize("n", EDGES)
    @pytest.mark.parametrize("scale", [1.0, 0.7])
    def test_out_is_filled_and_returned(self, monkeypatch, n, scale):
        want = (gaussian_stream(6, n) * scale).tobytes()
        buf = np.full(n + 2, -9.0)
        for workers in WORKER_COUNTS:
            set_workers(monkeypatch, workers)
            buf[1:-1] = np.nan
            view = buf[1:-1]
            assert gaussian_stream(6, n, scale=scale, out=view) is view
            assert view.tobytes() == want
            assert buf[0] == buf[-1] == -9.0  # nothing outside the view

    @pytest.mark.parametrize("out", [
        np.empty(9), np.empty(11), np.empty(10, np.float32),
        np.empty(10, np.int64), np.empty((2, 5)), [0.0] * 10],
        ids=["short", "long", "float32", "int64", "2-d", "list"])
    def test_an_out_of_another_length_or_dtype_is_refused(self, out):
        with pytest.raises(InvalidParameterError, match="out must be"):
            gaussian_stream(1, 10, out=out)

    def test_a_read_only_out_is_refused(self):
        out = np.zeros(10)
        out.setflags(write=False)
        with pytest.raises(InvalidParameterError, match="out must be"):
            gaussian_stream(1, 10, out=out)
        assert not out.any()

    @pytest.mark.parametrize("scale", [-1.0, -1e-300, np.nan])
    def test_a_negative_or_nan_scale_is_refused(self, scale):
        with pytest.raises(InvalidParameterError, match="scale must be"):
            gaussian_stream(1, 10, scale=scale)

    def test_every_value_is_checked_before_out_is_written(self):
        out = np.zeros(4)
        for call in (lambda: gaussian_stream(-1, 4, scale=2.0, out=out),
                     lambda: gaussian_stream(1, -4, scale=2.0, out=out),
                     lambda: gaussian_stream(1, 4, scale=-2.0, out=out)):
            with pytest.raises(InvalidParameterError):
                call()
        assert not out.any()
