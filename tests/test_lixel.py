import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handkit.lixel import (DEFAULT_RESOLUTION, Heatmap1D, decode, dump_text,
                           encode, marginalize)


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
