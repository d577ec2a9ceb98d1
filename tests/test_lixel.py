import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handkit.errors import InputError, ShapeError
from handkit.lixel import (_UNDERFLOW, DEFAULT_RESOLUTION, SHARPNESS, Heatmap1D, decode,
                           dump_text, encode, marginalize)


def marginal_oracle(grid):
    """Triple-loop summation."""
    nx, ny, nz = grid.shape
    hx = [0.0] * nx
    hy = [0.0] * ny
    hz = [0.0] * nz
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                hx[i] += grid[i, j, k]
                hy[j] += grid[i, j, k]
                hz[k] += grid[i, j, k]
    return np.array(hx), np.array(hy), np.array(hz)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def test_encode_center_is_symmetric():
    h = encode(0.5, 64)
    np.testing.assert_allclose(h.values, h.values[::-1], atol=1e-15)
    assert h.values[31] == h.values[32] == h.values.max()


def test_encode_zero_monotone_decreasing():
    values = encode(0.0, 64).values
    assert np.all(np.diff(values) < 0)


def test_encode_argmax_matches_scan_oracle(rng):
    for x in rng.uniform(0, 1, 200):
        values = encode(float(x), 64).values
        best, best_i = -1.0, -1
        for i, v in enumerate(values):
            if v > best:
                best, best_i = v, i
        cell = int(x * 64)
        assert best_i in (max(cell - 1, 0), min(cell, 63), min(cell + 1, 63))
        assert values[best_i] == values.max()


def test_encode_is_the_formula_bit_for_bit(rng):
    coords = [0.0, 1.0] + rng.uniform(0, 1, 30).tolist()
    for length in (1, 8, 64, 129, 640):
        for coord in coords:
            for sigma in (0.5, 2.5, 40.0):
                formula = np.exp(-((np.arange(length) + 0.5 - coord * length) ** 2)
                                 / (2.0 * sigma * sigma))
                assert encode(coord, length, sigma).values.tobytes() == formula.tobytes()


def test_encode_with_a_vanishing_sigma_is_one_hot_at_an_exact_center():
    # 2 sigma**2 is floored at 1e-300, where the entries are still exp(-0) = 1
    # at the center and 0 elsewhere, so the divide neither overflows nor warns
    for sigma in (1e-151, 1e-200, 5e-324):
        assert encode(2.5 / 8, 8, sigma).values.tolist() == [0.0] * 2 + [1.0] + [0.0] * 5


def test_encode_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode(1.5)
    with pytest.raises(ValueError):
        encode(-0.1)
    with pytest.raises(ValueError):
        encode(0.5, sigma=0.0)


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def test_decode_uniform_is_center():
    assert decode(Heatmap1D(np.ones(64))) == 0.5


def test_decode_one_hot():
    for i in (0, 17, 63):
        values = np.zeros(64)
        values[i] = 1.0
        assert decode(Heatmap1D(values)) == pytest.approx((i + 0.5) / 64,
                                                          abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 100.0), st.integers(0, 2 ** 32 - 1))
def test_decode_scale_invariant(scale, seed):
    # rescaling the likelihoods is a constant shift of the log-likelihood
    # logits, which the normalized soft-argmax ignores
    r = np.random.default_rng(seed)
    values = r.uniform(0.1, 1.0, 64)
    base = decode(Heatmap1D(values))
    assert decode(Heatmap1D(values * scale)) == pytest.approx(base, abs=1e-12)


def test_decode_rejects_bad_heatmaps():
    with pytest.raises(ValueError):
        Heatmap1D(np.zeros(64))
    with pytest.raises(ValueError):
        Heatmap1D(-np.ones(64))
    with pytest.raises(ValueError):
        decode(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        decode(np.zeros(8))
    with pytest.raises(ValueError):
        decode(-np.ones(8))
    with pytest.raises(InputError, match="all zero"):   # one all-zero row
        decode(np.stack([np.ones(8), np.zeros(8)]))
    with pytest.raises(InputError, match="nonnegative"):
        decode(np.stack([np.ones(8), -np.ones(8)]))
    with pytest.raises(ShapeError):
        decode(np.float64(1.0))
    with pytest.raises(ShapeError):   # one heatmap is 1-D; it is no longer flattened
        Heatmap1D(np.ones((2, 64)))


_NOT_1D = "heatmap values must have shape (None,), got "
_FINITE = (InputError, "heatmap values must be finite")
_NONNEGATIVE = (InputError, "heatmaps must be nonempty and nonnegative")
#: input -> the (class, message) that decode raises, then Heatmap1D's; the
#: checks run in order: not numeric, not finite, shape, empty or negative, all zero
HEATMAP_ERRORS = {
    "string": ("lixel", (InputError, "heatmap values is not numeric (dtype <U5)"),
               (InputError, "heatmap values is not numeric (dtype <U5)")),
    # numpy's own reason follows the prefix
    "ragged list": ([[1.0, 2.0], [3.0]], (InputError, "heatmap values is not a numeric array ("),
                    (InputError, "heatmap values is not a numeric array (")),
    "0-d NaN": (np.array(np.nan), _FINITE, _FINITE),
    "0-d number": (1.0, (ShapeError, "heatmap values must have a lixel axis"),
                   (ShapeError, _NOT_1D + "()")),
    "empty": (np.zeros(0), _NONNEGATIVE, _NONNEGATIVE),
    "shape (3, 0)": (np.zeros((3, 0)), _NONNEGATIVE, (ShapeError, _NOT_1D + "(3, 0)")),
    "NaN in a batch": (np.array([[1.0, 2.0], [np.nan, 1.0]]), _FINITE, _FINITE),
    "+inf": (np.array([1.0, np.inf]), _FINITE, _FINITE),
    "-inf": (np.array([1.0, -np.inf]), _FINITE, _FINITE),
    "negative entry": (np.array([1.0, -0.5]), _NONNEGATIVE, _NONNEGATIVE),
    "all zero": (np.zeros(4), (InputError, "heatmap must not be all zero"),
                 (InputError, "heatmap must not be all zero")),
    "all-zero row": (np.array([[1.0, 2.0], [0.0, 0.0]]),
                     (InputError, "heatmap must not be all zero"),
                     (ShapeError, _NOT_1D + "(2, 2)")),
    "2-D NaN": (np.array([[np.nan, 1.0]]), _FINITE, _FINITE),
}


@pytest.mark.parametrize("name", HEATMAP_ERRORS)
def test_heatmap_errors_keep_their_class_and_message(name):
    value, *expected = HEATMAP_ERRORS[name]
    for call, (error, message) in zip((decode, Heatmap1D), expected):
        with pytest.raises(error) as info:
            call(value)
        assert type(info.value) is error
        got = str(info.value)
        assert got.startswith(message) if message.endswith("(") else got == message


def decode_formula(values):
    """The single-heatmap soft-argmax, written out."""
    probs = (values / values.max()) ** 256.0
    probs = probs / probs.sum()
    length = len(values)
    return float(probs @ (np.arange(length) + 0.5)) / length


def test_decode_of_one_heatmap_is_the_formula_bit_for_bit(rng):
    heatmaps = [encode(float(x), length).values
                for x in rng.uniform(0, 1, 100) for length in (8, 64, 129)]
    heatmaps += [rng.uniform(0.1, 1.0, 64) for _ in range(100)]
    for values in heatmaps:
        got = decode(values)
        assert type(got) is float and got == decode_formula(values)
        assert decode(Heatmap1D(values)) == got


def test_powers_at_or_below_the_decode_cut_underflow_to_zero():
    # decode skips these powers, so each must be exactly the 0 it leaves
    sweep = np.linspace(0.0, _UNDERFLOW, 1_000_001)
    assert sweep[-1] == _UNDERFLOW and not np.power(sweep, SHARPNESS).any()
    assert 0.05 < _UNDERFLOW < 0.054 and np.power(0.0545, SHARPNESS) > 0.0


def test_decode_batch_of_two_gives_two_values():
    assert decode(np.ones((2, 64))).tolist() == [0.5, 0.5]
    hot = np.zeros((2, 64))
    hot[0, 3] = hot[1, 60] = 1.0
    assert decode(hot).tolist() == [3.5 / 64, 60.5 / 64]


@pytest.mark.parametrize("shape", [(1,), (5,), (3, 4), (8, 21, 3), (40, 50)])
def test_batched_decode_equals_per_row_calls(shape, rng):
    coords = rng.uniform(0, 1, shape)
    encoded = np.array([encode(float(c)).values for c in coords.ravel()])
    dense = rng.uniform(0.1, 1.0, encoded.shape)
    for rows in (encoded, dense):
        got = decode(rows.reshape(shape + (64,)))
        assert got.shape == shape
        one = np.array([decode(row) for row in rows]).reshape(shape)
        assert got.tobytes() == one.tobytes()


@pytest.mark.parametrize("sigma", [1.0, 2.5, 4.0])
def test_round_trip_under_half_lixel(sigma, rng):
    for x in rng.uniform(0, 1, 1000):
        err = abs(decode(encode(float(x), 64, sigma)) - x)
        assert err < 1.0 / 128.0


# ---------------------------------------------------------------------------
# marginalize
# ---------------------------------------------------------------------------

def test_marginalize_separable_grid(rng):
    gx = rng.uniform(0.1, 1.0, 6)
    gy = rng.uniform(0.1, 1.0, 5)
    gz = rng.uniform(0.1, 1.0, 4)
    grid = gx[:, None, None] * gy[None, :, None] * gz[None, None, :]
    hx, hy, hz = marginalize(grid)
    np.testing.assert_allclose(hx.values / hx.values.sum(), gx / gx.sum(),
                               atol=1e-12)
    np.testing.assert_allclose(hy.values / hy.values.sum(), gy / gy.sum(),
                               atol=1e-12)
    np.testing.assert_allclose(hz.values / hz.values.sum(), gz / gz.sum(),
                               atol=1e-12)


def test_marginalize_one_hot_voxel():
    grid = np.zeros((8, 8, 8))
    grid[2, 5, 7] = 1.0
    hx, hy, hz = marginalize(grid)
    assert hx.values.argmax() == 2 and hx.values.sum() == 1.0
    assert hy.values.argmax() == 5
    assert hz.values.argmax() == 7


def test_marginalize_matches_triple_loop(rng):
    grid = rng.uniform(0, 1, size=(5, 6, 7))
    hx, hy, hz = marginalize(grid)
    ox, oy, oz = marginal_oracle(grid)
    np.testing.assert_allclose(hx.values, ox, atol=1e-12)
    np.testing.assert_allclose(hy.values, oy, atol=1e-12)
    np.testing.assert_allclose(hz.values, oz, atol=1e-12)


def test_marginalize_conserves_mass(rng):
    grid = rng.uniform(0, 1, size=(16, 16, 16))
    total = grid.sum()
    for h in marginalize(grid):
        assert h.values.sum() == pytest.approx(total, rel=1e-12)


def test_marginalize_rejects_bad_grids():
    with pytest.raises(ValueError):
        marginalize(np.zeros((4, 4, 4)))
    with pytest.raises(ValueError):
        marginalize(-np.ones((4, 4, 4)))
    with pytest.raises(ValueError):
        marginalize(np.ones((4, 4)))


def test_dump_text_stable():
    h = encode(0.3, DEFAULT_RESOLUTION)
    assert dump_text(h) == dump_text(h)
    assert len(dump_text(h).splitlines()) == DEFAULT_RESOLUTION
