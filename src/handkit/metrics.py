"""Pose-estimation metrics: mean per-point position error, its
Procrustes-aligned variants, and nearest-neighbor F-score at distance
thresholds.

Alignment solves the least-squares similarity transform (scale, rotation,
translation) in closed form from the centered cross-covariance, with the
determinant sign guard that forbids reflections.  Aligned error is therefore
invariant to any similarity transform of the prediction and can never exceed
the unaligned error.  F-score follows the point-cloud convention: precision
and recall count points whose nearest neighbor in the other set lies
strictly within the threshold, combined by harmonic mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericError, ShapeError, as_array, as_number

DEFAULT_F_THRESHOLDS = (5.0, 15.0)


def _points(x) -> np.ndarray:
    pts = x.joints if hasattr(x, "joints") else (
        x.vertices if hasattr(x, "vertices") else x)
    return as_array(pts, (None, 3), "points")


def mpjpe(pred, gt) -> float:
    """Mean Euclidean distance (mm) over corresponding points."""
    p, g = _points(pred), _points(gt)
    if p.shape != g.shape:
        raise ShapeError(f"point counts differ: {p.shape} vs {g.shape}")
    return float(np.linalg.norm(p - g, axis=1).mean())


def procrustes_align(pred, gt) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares similarity fit of pred onto gt.

    Returns (scale, rotation, translation, aligned) with
    aligned = scale * pred @ rotation.T + translation.
    """
    p, g = _points(pred), _points(gt)
    if p.shape != g.shape:
        raise ShapeError(f"point counts differ: {p.shape} vs {g.shape}")
    if len(p) < 3:
        raise NumericError("alignment needs at least 3 points")
    mu_p, mu_g = p.mean(axis=0), g.mean(axis=0)
    x, y = p - mu_p, g - mu_g
    var_p = (x * x).sum() / len(p)
    if var_p < 1e-12:
        raise NumericError("prediction points are coincident")
    cov = x.T @ y / len(p)
    if not (np.isfinite(var_p) and np.isfinite(cov).all()):
        raise NumericError("point coordinates overflow")
    u, s, vt = np.linalg.svd(cov)
    if np.linalg.matrix_rank(cov) < 2:
        raise NumericError("points are (near) collinear")
    sign = np.sign(np.linalg.det(u @ vt))
    d = np.array([1.0, 1.0, sign])
    rotation = (u * d) @ vt
    rotation = rotation.T
    scale = float((s * d).sum() / var_p)
    translation = mu_g - scale * rotation @ mu_p
    aligned = scale * p @ rotation.T + translation
    return scale, rotation, translation, aligned


def pa_mpjpe(pred, gt) -> float:
    """MPJPE after Procrustes alignment of the prediction."""
    _, _, _, aligned = procrustes_align(pred, gt)
    return mpjpe(aligned, gt)


def fscore(pred, gt, threshold_mm: float) -> float:
    """Harmonic mean of nearest-neighbor precision and recall at a threshold."""
    threshold_mm = as_number(threshold_mm, "F-score threshold", above=0)
    p, g = _points(pred), _points(gt)
    if len(p) == 0 or len(g) == 0:
        raise ShapeError("point sets must be nonempty")
    dists = np.linalg.norm(p[:, None, :] - g[None, :, :], axis=2)
    precision = float((dists.min(axis=1) < threshold_mm).mean())
    recall = float((dists.min(axis=0) < threshold_mm).mean())
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


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

    def save(self, path) -> None:
        Path(path).write_text(self.to_text())


def evaluate(pred_joints, gt_joints, pred_vertices=None, gt_vertices=None,
             thresholds=DEFAULT_F_THRESHOLDS, root_center: bool = False
             ) -> EvalReport:
    """Aggregate the metric stack over aligned sample lists.

    Aligned (PA-) variants fit a similarity transform per sample before
    measuring.  F-scores are computed on vertices when supplied, else on
    joints.  With root_center the first point is subtracted from every set
    before the unaligned metrics (the aligned ones are unaffected).
    """
    thresholds = [as_number(t, "F-score threshold", above=0) for t in thresholds]
    preds = [_points(p) for p in pred_joints]
    gts = [_points(g) for g in gt_joints]
    if len(preds) != len(gts) or not preds:
        raise ShapeError("need equal, nonempty prediction and truth lists")
    pred_v = [_points(v) for v in pred_vertices] if pred_vertices is not None else None
    gt_v = [_points(v) for v in gt_vertices] if gt_vertices is not None else None
    if (pred_v is None) != (gt_v is None):
        raise ShapeError("vertex lists must be supplied for both sides")

    def centered(p, g):
        if root_center:
            return p - p[0], g - g[0]
        return p, g

    joint_errs = []
    pa_joint_errs = []
    for p, g in zip(preds, gts):
        pc, gc = centered(p, g)
        joint_errs.append(mpjpe(pc, gc))
        pa_joint_errs.append(pa_mpjpe(p, g))

    vert_errs = pa_vert_errs = None
    if pred_v is not None:
        vert_errs = []
        pa_vert_errs = []
        for p, g in zip(pred_v, gt_v):
            pc, gc = centered(p, g)
            vert_errs.append(mpjpe(pc, gc))
            pa_vert_errs.append(pa_mpjpe(p, g))

    f_source = zip(pred_v, gt_v) if pred_v is not None else zip(preds, gts)
    f_at = {t: 0.0 for t in thresholds}
    f_pairs = list(f_source)
    for threshold in f_at:
        f_at[threshold] = float(np.mean([fscore(p, g, threshold)
                                         for p, g in f_pairs]))

    return EvalReport(
        mpjpe=float(np.mean(joint_errs)),
        pa_mpjpe=float(np.mean(pa_joint_errs)),
        mpvpe=None if vert_errs is None else float(np.mean(vert_errs)),
        pa_mpvpe=None if pa_vert_errs is None else float(np.mean(pa_vert_errs)),
        f_at=f_at,
        sample_count=len(preds),
    )
