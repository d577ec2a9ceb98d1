"""1D line-of-pixels ("lixel") heatmaps: Gaussian encoding of a normalized
coordinate, soft-argmax decoding, and 3D-grid marginalization.

Lixel centers sit at (i + 0.5) / L, which avoids a half-cell bias at the
domain edges.  Encoding writes a Gaussian likelihood over the centers.
Decoding is a soft-argmax: the likelihoods are normalized to a distribution
and the expected center is returned.  Before normalizing, the likelihoods
are raised to a sharpening exponent (a temperature on the log-likelihoods,
so the decode is exactly invariant to rescaling the heatmap).  The default
exponent is high enough that the decode acts as an interpolating argmax;
a plain normalized centroid (exponent 1) systematically overshoots toward
the domain center for peaks near the edges, where the Gaussian is truncated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, as_array, as_number

DEFAULT_RESOLUTION = 64
DEFAULT_SIGMA = 2.5
DEFAULT_SHARPNESS = 256.0


@dataclass
class Heatmap1D:
    """Nonnegative likelihoods over one coordinate axis."""

    values: np.ndarray
    axis: str = "x"

    def __post_init__(self):
        self.values = as_array(self.values, None, "heatmap values").reshape(-1)
        if (self.values < 0).any():
            raise InputError("heatmap values must be nonnegative")
        if not (self.values > 0).any():
            raise InputError("heatmap must not be all zero")

    def __len__(self):
        return len(self.values)


def encode(coord: float, length: int = DEFAULT_RESOLUTION,
           sigma: float = DEFAULT_SIGMA, axis: str = "x") -> Heatmap1D:
    """Gaussian likelihood over lixel centers for a coordinate in [0, 1]."""
    coord = as_number(coord, "coordinate", 0, 1)
    length = as_number(length, "length", 1, integer=True)
    sigma = as_number(sigma, "sigma", above=0)
    centers = np.arange(length) + 0.5
    values = np.exp(-((centers - coord * length) ** 2) / (2.0 * sigma * sigma))
    return Heatmap1D(values, axis=axis)


def decode(heatmap: Heatmap1D | np.ndarray,
           sharpness: float = DEFAULT_SHARPNESS) -> float:
    """Soft-argmax: sharpened, normalized likelihoods weight the lixel centers.

    Exact identities for any sharpness >= 1: a one-hot heatmap decodes to its
    center, a uniform heatmap decodes to 0.5, and rescaling the heatmap (a
    constant shift of the log-likelihoods) leaves the result unchanged.  A raw
    array is validated as a :class:`Heatmap1D` first.
    """
    values = (heatmap if isinstance(heatmap, Heatmap1D) else Heatmap1D(heatmap)).values
    sharpness = as_number(sharpness, "sharpness", above=0)
    probs = (values / values.max()) ** sharpness
    probs = probs / probs.sum()
    length = len(values)
    return float(probs @ (np.arange(length) + 0.5)) / length


def marginalize(grid: np.ndarray) -> tuple[Heatmap1D, Heatmap1D, Heatmap1D]:
    """Collapse a nonnegative (X, Y, Z) likelihood grid to three 1D heatmaps.

    Each output sums over the other two axes, so total mass is preserved on
    every axis.
    """
    grid = as_array(grid, (None, None, None), "likelihood grid")
    if (grid < 0).any():
        raise InputError("grid must be nonnegative")
    hx = Heatmap1D(grid.sum(axis=(1, 2)), axis="x")
    hy = Heatmap1D(grid.sum(axis=(0, 2)), axis="y")
    hz = Heatmap1D(grid.sum(axis=(0, 1)), axis="z")
    return hx, hy, hz


def dump_text(heatmap: Heatmap1D) -> str:
    """One value per line, fixed formatting, for plotting."""
    return "\n".join(format(v, ".9g") for v in heatmap.values) + "\n"
