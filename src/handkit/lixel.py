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
truncated.
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


def _likelihoods(values, shape=None) -> tuple[np.ndarray, np.ndarray]:
    """Finite (..., L) heatmaps, each nonnegative and not all zero, and their peaks."""
    values = as_array(values, shape, "heatmap values")
    if not values.ndim:
        raise ShapeError("heatmap values must have a lixel axis")
    if not values.size or values.min() < 0:
        raise InputError("heatmaps must be nonempty and nonnegative")
    peak = values.max(axis=-1, keepdims=True)
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
    centers = np.arange(length) + 0.5
    values = np.exp(-((centers - coord * length) ** 2) / (2.0 * sigma * sigma))
    return Heatmap1D(values)


def decode(heatmaps):
    """Soft-argmax on the last axis of a :class:`Heatmap1D` or (..., L)
    heatmaps: a float for one (L,) heatmap, else an array of shape ``...``.

    Exact identities: a one-hot heatmap decodes to its center, a uniform
    heatmap decodes to 0.5, and rescaling the heatmap (a constant shift of
    the log-likelihoods) leaves the result unchanged.
    """
    values, peak = _likelihoods(
        heatmaps.values if isinstance(heatmaps, Heatmap1D) else heatmaps)
    probs = (values / peak) ** SHARPNESS
    probs /= probs.sum(axis=-1, keepdims=True)
    length = values.shape[-1]
    # one dot product per heatmap, as a lone (L,) heatmap gets
    coords = (probs[..., None, :] @ np.arange(0.5, length))[..., 0] / length
    return float(coords) if coords.ndim == 0 else coords


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
