"""Pose-estimation metrics over (..., N, 3) point samples: mean per-point
position error, its Procrustes-aligned variants, and nearest-neighbor F-score.

Alignment solves each sample's least-squares similarity transform (scale,
rotation, translation) in closed form from the centered cross-covariance,
with the determinant sign guard that forbids reflections, so aligned error is
invariant to any similarity transform of the prediction and never exceeds the
unaligned error.  F-score follows the point-cloud convention: precision and
recall count points whose nearest neighbor in the other set lies strictly
within the threshold, combined by harmonic mean.  Every threshold is counted
from one banded nearest-neighbor pass per sample: both sets are sorted on one
axis, and each block of 64 sorted predicted points meets only the contiguous
band of true points whose key lies within the largest threshold (the reach).
Every nearest distance up to the reach is bit for bit the full pass's, and
every other one reads as beyond it, so the counts are exact.  The pass holds
two (64, M) buffers, about 0.8 MB for a 778-vertex pair.

Each block's coordinate differences are GEMMs, the (rows, 2) table [p_c, 1]
times the (2, band) table [1; -g_c], several times faster than a
column-broadcast subtraction.  Both products are exact, so each entry is
p_c - g_c rounded once, whatever the BLAS summation order and with or
without FMA (only the sign of an exact zero may differ, and squaring
removes it).  The tables take about 75 KB for a 778-vertex pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError, as_array, as_number, batch_row

DEFAULT_F_THRESHOLDS = (5.0, 15.0)
# rows of pred per distance block: a (64, M) buffer stays in cache, and 64-128
# rows tie on 778-vertex hands at 15 mm (32 and 192 are ~12% slower: more
# per-block calls, or buffers that leave the cache)
_ROW_BLOCK = 64
_EPS, _TINY_ROOT = np.finfo(float).eps, np.sqrt(np.finfo(float).tiny)


def _pair(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    p, g = (as_array(x, (..., None, 3), "points") for x in (pred, gt))
    if p.shape != g.shape or not p.size:
        raise ShapeError(f"point sets must be nonempty and of one shape, got {p.shape} "
                         f"and {g.shape}")
    return p, g


def _refuse(bad: np.ndarray, message: str) -> None:
    """NumericError naming the first batch row where ``bad`` holds."""
    if bad.any():
        raise NumericError(batch_row(np.argwhere(bad)[0].tolist()) + message)


def mpjpe(pred, gt) -> float:
    """Mean Euclidean distance (mm) over corresponding (..., N, 3) points: the
    mean over samples of each sample's mean."""
    p, g = _pair(pred, gt)
    return float(np.linalg.norm(p - g, axis=-1).mean(axis=-1).mean())


def procrustes_align(pred, gt) -> tuple:
    """Least-squares similarity fit of each (..., N, 3) pred sample onto gt.

    Returns (scale, rotation, translation, aligned) of shapes ``...``,
    (..., 3, 3), (..., 3) and (..., N, 3), with aligned = scale * pred @
    rotation.T + translation per sample; an (N, 3) pair gives a float scale.
    """
    p, g = _pair(pred, gt)
    n = p.shape[-2]
    if n < 3:
        raise NumericError("alignment needs at least 3 points")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        mu_p, mu_g = p.mean(axis=-2), g.mean(axis=-2)
        x, y = p - mu_p[..., None, :], g - mu_g[..., None, :]
        var_p = (x * x).sum(axis=(-2, -1)) / n
        cov = np.swapaxes(x, -1, -2) @ y / n
    _refuse(var_p < 1e-12, "prediction points are coincident")
    _refuse(~(np.isfinite(var_p) & np.isfinite(cov).all(axis=(-2, -1))),
            "point coordinates overflow")
    u, s, vt = np.linalg.svd(cov)
    _refuse(s[..., 1] <= s[..., 0] * 3 * np.finfo(float).eps,  # rank < 2, as matrix_rank
            "points are (near) collinear")
    d = np.ones_like(s)
    d[..., 2] = np.sign(np.linalg.det(u @ vt))
    fit = (u * d[..., None, :]) @ vt   # rotation.T
    scale = (s * d).sum(axis=-1) / var_p
    rotation = np.swapaxes(fit, -1, -2)
    translation = mu_g - ((scale[..., None, None] * rotation) @ mu_p[..., None])[..., 0]
    aligned = scale[..., None, None] * p @ fit + translation[..., None, :]
    return (float(scale) if scale.ndim == 0 else scale), rotation, translation, aligned


def pa_mpjpe(pred, gt) -> float:
    """MPJPE after Procrustes alignment of each prediction sample."""
    return mpjpe(procrustes_align(pred, gt)[3], gt)


def _nearest(p: np.ndarray, g: np.ndarray, reach: float = np.inf
             ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-neighbor distances p -> g and g -> p, exact up to ``reach``.

    Every distance <= reach is bit for bit the minimum of
    ``np.linalg.norm(p[:, None] - g[None], axis=2)`` (same x, y, z sum order);
    every other one is > reach (a farther candidate, or inf).  Both sets are
    sorted on the axis where g is widest, and each block of sorted rows of p
    meets only the contiguous band of g whose key lies within reach of the
    block's keys, so no pair that can be within reach is skipped.  With an
    infinite reach the band is all of g and every distance is exact.
    """
    if len(p) == 0 or len(g) == 0:
        raise ShapeError("point sets must be nonempty")
    g_planes = np.ascontiguousarray(g.T)   # (3, M): axis-1 reductions are fast
    axis = int(np.ptp(g_planes, axis=1).argmax())
    p_order = np.argsort(p[:, axis], kind="stable")
    g_order = np.argsort(g_planes[axis], kind="stable")
    p, g_planes = p[p_order], g_planes[:, g_order]
    keys = g_planes[axis]
    # A computed distance <= reach needs its key gap within reach up to a few
    # rounding errors (and squares that underflow); the edges then step one
    # ulp outward so their own rounding never drops a key.
    widened = reach * (1.0 + 8 * _EPS) + _TINY_ROOT
    starts = np.arange(0, len(p), _ROW_BLOCK)
    stops = np.minimum(starts + _ROW_BLOCK, len(p))
    los = keys.searchsorted(np.nextafter(p[starts, axis] - widened, -np.inf), "left")
    his = keys.searchsorted(np.nextafter(p[stops - 1, axis] + widened, np.inf), "right")
    # [p_c, 1] @ [1; -g_c] is p_c - g_c rounded once (see the module docstring)
    lhs, rhs = np.ones((3, len(p), 2)), np.ones((3, 2, len(g)))
    lhs[..., 0] = p.T
    np.negative(g_planes, out=rhs[:, 1])
    buffers = np.empty((2, min(_ROW_BLOCK, len(p)) * len(g)))
    p_near, g_near = np.empty(len(p)), np.full(len(g), np.inf)
    for start, stop, lo, hi in zip(*(a.tolist() for a in (starts, stops, los, his))):
        # contiguous (rows, band) views of the flat buffers: faster than strided ones
        d, t = (b[:(stop - start) * (hi - lo)].reshape(stop - start, hi - lo)
                for b in buffers)
        np.square(np.matmul(lhs[0, start:stop], rhs[0, :, lo:hi], out=d), out=d)
        for c in (1, 2):
            d += np.square(np.matmul(lhs[c, start:stop], rhs[c, :, lo:hi], out=t), out=t)
        d.min(axis=1, initial=np.inf, out=p_near[start:stop])  # inf: no band
        np.minimum(g_near[lo:hi], d.min(axis=0), out=g_near[lo:hi])
    p_out, g_out = np.empty(len(p)), np.empty(len(g))
    p_out[p_order], g_out[g_order] = p_near, g_near
    return np.sqrt(p_out, out=p_out), np.sqrt(g_out, out=g_out)


def _f_at(p_near: np.ndarray, g_near: np.ndarray, threshold_mm: float) -> float:
    precision = float((p_near < threshold_mm).mean())
    recall = float((g_near < threshold_mm).mean())
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def fscore(pred, gt, threshold_mm: float) -> float:
    """Harmonic mean of nearest-neighbor precision and recall at a threshold."""
    threshold_mm = as_number(threshold_mm, "F-score threshold", above=0)
    p, g = (as_array(x, (None, 3), "points") for x in (pred, gt))
    return _f_at(*_nearest(p, g, threshold_mm), threshold_mm)


@dataclass
class EvalReport:
    """Aggregate metrics over a sample list; errors in mm, F-scores in [0, 1]."""

    mpjpe: float
    pa_mpjpe: float
    mpvpe: float | None
    pa_mpvpe: float | None
    f_at: dict[float, float]
    sample_count: int

    def to_text(self) -> str:
        lines = [f"samples {self.sample_count}",
                 f"MPJPE {format(self.mpjpe, '.9g')}",
                 f"PA-MPJPE {format(self.pa_mpjpe, '.9g')}"]
        if self.mpvpe is not None:
            lines.append(f"MPVPE {format(self.mpvpe, '.9g')}")
            lines.append(f"PA-MPVPE {format(self.pa_mpvpe, '.9g')}")
        for threshold in sorted(self.f_at):
            lines.append(
                f"F@{format(threshold, 'g')} {format(self.f_at[threshold], '.9g')}")
        return "\n".join(lines) + "\n"


def _samples(samples, what: str) -> np.ndarray:
    """A nonempty list of equal-shape (N, 3) point sets as one (B, N, 3) array."""
    try:
        stacked = np.stack(samples)
    except (TypeError, ValueError) as exc:   # not a list, empty, or ragged
        raise ShapeError(f"{what} must be equal-shape point sets ({exc})") from exc
    return as_array(stacked, (None, None, 3), what)


def evaluate(pred_joints, gt_joints, pred_vertices=None, gt_vertices=None,
             thresholds=DEFAULT_F_THRESHOLDS, root_center: bool = False
             ) -> EvalReport:
    """Aggregate the metric stack over aligned sample lists, each stacked to
    one (B, N, 3) array, so all samples of a point kind share N.

    Aligned (PA-) variants fit a similarity transform per sample.  F-scores
    are computed on vertices when supplied, else on joints.  With root_center
    the first point is subtracted from every set before the unaligned metrics
    (the aligned ones are unaffected).  An empty threshold list gives no
    F-scores and runs no nearest-neighbor pass.
    """
    thresholds = [as_number(t, "F-score threshold", above=0)
                  for t in as_array(thresholds, (None,), "F-score thresholds")]
    kinds = [(_samples(pred_joints, "predicted joints"),
              _samples(gt_joints, "true joints"))]
    if (pred_vertices is None) != (gt_vertices is None):
        raise ShapeError("vertex lists must be supplied for both sides")
    if pred_vertices is not None:
        kinds.append((_samples(pred_vertices, "predicted vertices"),
                      _samples(gt_vertices, "true vertices")))
        if len(kinds[1][0]) != len(kinds[0][0]):
            raise ShapeError("joint and vertex lists differ in sample count")
    errors = []
    for p, g in kinds:   # joints, then vertices: one batched call each
        errors += [mpjpe(p - p[:, :1], g - g[:, :1]) if root_center else mpjpe(p, g),
                   pa_mpjpe(p, g)]
    # one pass per sample (memory: one at a time), exact up to the largest threshold
    nearest = [_nearest(p, g, max(thresholds))
               for p, g in zip(*kinds[-1])] if thresholds else []
    f_at = {t: float(np.mean([_f_at(pn, gn, t) for pn, gn in nearest]))
            for t in thresholds}
    return EvalReport(*errors[:2], *(errors[2:] or (None, None)), f_at, len(kinds[0][0]))
