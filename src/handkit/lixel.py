"""1D line-of-pixels ("lixel") heatmaps: Gaussian encoding of a normalized
coordinate, soft-argmax decoding over the last axis of (..., L) heatmaps, and
3D-grid marginalization.

Lixel centers sit at (i + 0.5) / L, which avoids a half-cell bias at the
domain edges.  Decoding normalizes the likelihoods to a distribution and
returns the expected center, after raising them to a sharpening exponent (a
temperature on the log-likelihoods, so the decode is exactly invariant to
rescaling the heatmap).  The exponent, 256, makes the decode an
interpolating argmax; a plain normalized centroid (exponent 1) overshoots
toward the domain center for peaks near the edges, where the Gaussian is
truncated.  The power is taken only above 2**(-1100 / 256), about 0.0506:
below it every power underflows to exactly 0 (the first nonzero one is at
about 0.0544), and there lie about 80% of an encoded heatmap's entries,
where ``pow`` is slow.

``decode`` and ``Heatmap1D`` (and so ``encode``) share one check: a lone
float64 heatmap passes when its minimum is at least 0 (no NaN, -inf or
negative entry) and its peak, which ``decode`` divides by anyway, lies in
(0, inf) (no +inf, not all zero).  Any other input (a batch, a list,
another dtype) and any heatmap that fails takes the ordered checks, which
raise in this order: not numeric, not finite (``InputError``), a wrong
shape or no lixel axis (``ShapeError``), empty or negative, all zero
(``InputError``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ShapeError, as_array, as_number

DEFAULT_RESOLUTION = 64
#: the longest heatmap ``encode`` builds: ten times the paper's L = 64
MAX_RESOLUTION = 10 * DEFAULT_RESOLUTION
DEFAULT_SIGMA = 2.5
SHARPNESS = 256.0
#: at or below this a scaled likelihood's power is under 2**-1100: exactly 0
_UNDERFLOW = 2.0 ** (-1100 / SHARPNESS)
_CENTERS = np.arange(0.5, MAX_RESOLUTION)   # i + 0.5, sliced to each length
_CENTERS.flags.writeable = False
#: 2 sigma**2 floor: no squared distance over it overflows, and below it each entry is 1 or 0
_MIN_SCALE = 1e-300


def _likelihoods(values, shape=None) -> tuple[np.ndarray, np.ndarray]:
    """Finite (..., L) heatmaps, each nonnegative and not all zero, and their peaks."""
    if type(values) is np.ndarray and values.dtype == float and values.ndim == 1 and values.size:
        peak = np.maximum.reduce(values, -1, keepdims=True)
        if np.minimum.reduce(values, None) >= 0 and 0 < peak.item() < np.inf:
            return values, peak
    values = as_array(values, shape, "heatmap values")
    if not values.ndim:
        raise ShapeError("heatmap values must have a lixel axis")
    if not values.size or np.minimum.reduce(values, None) < 0:
        raise InputError("heatmaps must be nonempty and nonnegative")
    peak = np.maximum.reduce(values, -1, keepdims=True)
    if not peak.all():
        raise InputError("heatmap must not be all zero")
    return values, peak


@dataclass
class Heatmap1D:
    """Nonnegative likelihoods over one coordinate axis."""

    values: np.ndarray

    def __post_init__(self):
        self.values = _likelihoods(self.values, (None,))[0]

    def __len__(self):
        return len(self.values)


def encode(coord: float, length: int = DEFAULT_RESOLUTION,
           sigma: float = DEFAULT_SIGMA) -> Heatmap1D:
    """Gaussian likelihood over lixel centers for a coordinate in [0, 1]."""
    coord = as_number(coord, "coordinate", 0, 1)
    length = as_number(length, "length", 1, MAX_RESOLUTION, integer=True)
    sigma = as_number(sigma, "sigma", above=0)
    values = np.subtract(_CENTERS[:length], coord * length)   # d**2 / -s: -(d**2) / s exactly
    np.divide(np.square(values, out=values), -max(2.0 * sigma * sigma, _MIN_SCALE), out=values)
    return Heatmap1D(np.exp(values, out=values))


def decode(heatmaps):
    """Soft-argmax on the last axis of a :class:`Heatmap1D` or (..., L)
    heatmaps: a float for one (L,) heatmap, else an array of shape ``...``.

    Exact identities: a one-hot heatmap decodes to its center, a uniform
    heatmap decodes to 0.5, and rescaling the heatmap (a constant shift of
    the log-likelihoods) leaves the result unchanged.
    """
    values, peak = _likelihoods(
        heatmaps.values if isinstance(heatmaps, Heatmap1D) else heatmaps)
    scaled = values / peak
    probs = np.empty_like(scaled)   # the layout of scaled, so each row sums as before
    probs.fill(0.0)
    np.power(scaled, SHARPNESS, out=probs, where=scaled > _UNDERFLOW)
    probs /= np.add.reduce(probs, -1, keepdims=True)
    length = values.shape[-1]
    centers = _CENTERS[:length] if length <= MAX_RESOLUTION else np.arange(0.5, length)
    # one dot product per heatmap, as a lone (L,) heatmap gets; floats divide as numpy does
    coords = (probs[..., None, :] @ centers)[..., 0]
    return float(coords) / length if coords.ndim == 0 else coords / length


def marginalize(grid: np.ndarray) -> tuple[Heatmap1D, Heatmap1D, Heatmap1D]:
    """Collapse a nonnegative (X, Y, Z) likelihood grid to three 1D heatmaps.

    Each output sums over the other two axes, so total mass is preserved on
    every axis.
    """
    grid = as_array(grid, (None, None, None), "likelihood grid")
    if (grid < 0).any():
        raise InputError("grid must be nonnegative")
    return tuple(Heatmap1D(grid.sum(axis=axes)) for axes in ((1, 2), (0, 2), (0, 1)))


def dump_text(heatmap: Heatmap1D) -> str:
    """One value per line, fixed formatting, for plotting."""
    return "\n".join(format(v, ".9g") for v in heatmap.values) + "\n"
