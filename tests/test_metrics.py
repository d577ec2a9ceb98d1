import re
import tracemalloc

import numpy as np
import pytest

from handkit import metrics
from handkit.errors import NumericError, ShapeError
from handkit.metrics import (EvalReport, _nearest, evaluate, fscore, mpjpe, pa_mpjpe,
                             procrustes_align)
from handkit.rotations import rodrigues


def mpjpe_oracle(pred, gt):
    acc = 0.0
    for p, g in zip(pred, gt):
        acc += sum((p[c] - g[c]) ** 2 for c in range(3)) ** 0.5
    return acc / len(pred)


def fscore_oracle(pred, gt, threshold):
    def nearest(point, cloud):
        return min(sum((point[c] - q[c]) ** 2 for c in range(3)) ** 0.5
                   for q in cloud)

    precision = sum(nearest(p, gt) < threshold for p in pred) / len(pred)
    recall = sum(nearest(g, pred) < threshold for g in gt) / len(gt)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# mpjpe
# ---------------------------------------------------------------------------

def test_mpjpe_identity(rng):
    pts = rng.normal(scale=30, size=(21, 3))
    assert mpjpe(pts, pts) == 0.0


def test_mpjpe_uniform_offset(rng):
    pts = rng.normal(scale=30, size=(21, 3))
    assert mpjpe(pts + [3.0, 0.0, 0.0], pts) == pytest.approx(3.0, rel=1e-12)


def test_mpjpe_matches_loop_oracle(rng):
    pred = rng.normal(scale=30, size=(40, 3))
    gt = rng.normal(scale=30, size=(40, 3))
    assert mpjpe(pred, gt) == pytest.approx(mpjpe_oracle(pred, gt), rel=1e-12)


def test_mpjpe_count_mismatch(rng):
    with pytest.raises(ValueError):
        mpjpe(rng.normal(size=(5, 3)), rng.normal(size=(6, 3)))


# ---------------------------------------------------------------------------
# procrustes
# ---------------------------------------------------------------------------

def test_procrustes_identity(rng):
    pts = rng.normal(scale=30, size=(21, 3))
    scale, rot, trans, aligned = procrustes_align(pts, pts)
    assert scale == pytest.approx(1.0, rel=1e-9)
    np.testing.assert_allclose(rot, np.eye(3), atol=1e-9)
    np.testing.assert_allclose(trans, 0.0, atol=1e-6)
    assert mpjpe(aligned, pts) < 1e-9


def test_procrustes_recovers_exact_similarity(rng):
    gt = rng.normal(scale=30, size=(21, 3))
    rot0 = rodrigues(np.array([0.4, -0.2, 0.8]))
    pred = 2.0 * gt @ rot0.T + np.array([10.0, -4.0, 6.0])
    scale, rot, trans, aligned = procrustes_align(pred, gt)
    assert scale == pytest.approx(0.5, rel=1e-9)
    assert mpjpe(aligned, gt) < 1e-9


def test_procrustes_never_reflects(rng):
    pred = rng.normal(scale=30, size=(21, 3))
    gt = pred.copy()
    gt[:, 0] *= -1.0  # mirrored target would tempt a reflection
    _, rot, _, _ = procrustes_align(pred, gt)
    assert np.linalg.det(rot) == pytest.approx(1.0, rel=1e-9)


def test_procrustes_beats_random_search(rng):
    pred = rng.normal(scale=30, size=(21, 3))
    gt = pred + rng.normal(scale=5, size=(21, 3))
    _, _, _, aligned = procrustes_align(pred, gt)
    best = mpjpe(aligned, gt)
    # random-search lower-bound oracle over (scale, rotation, translation)
    sq_best = ((aligned - gt) ** 2).sum()
    for _ in range(10000):
        scale = rng.uniform(0.5, 2.0)
        rot = rodrigues(rng.normal(size=3))
        trans = rng.normal(scale=10, size=3)
        cand = scale * pred @ rot.T + trans
        assert ((cand - gt) ** 2).sum() >= sq_best - 1e-9
    assert best >= 0.0


def test_procrustes_rejects_degenerate(rng):
    line = np.outer(np.arange(21.0), [1.0, 2.0, 3.0])
    with pytest.raises(NumericError):
        procrustes_align(line, rng.normal(size=(21, 3)))
    with pytest.raises(NumericError):
        procrustes_align(np.zeros((21, 3)), rng.normal(size=(21, 3)))


def procrustes_formula(p, g):
    """The single-sample similarity fit, written out."""
    mu_p, mu_g = p.mean(axis=0), g.mean(axis=0)
    x, y = p - mu_p, g - mu_g
    var_p = (x * x).sum() / len(p)
    u, s, vt = np.linalg.svd(x.T @ y / len(p))
    d = np.array([1.0, 1.0, np.sign(np.linalg.det(u @ vt))])
    rotation = ((u * d) @ vt).T
    scale = float((s * d).sum() / var_p)
    translation = mu_g - scale * rotation @ mu_p
    return scale, rotation, translation, scale * p @ rotation.T + translation


@pytest.mark.parametrize("count", [21, 778])
def test_batched_procrustes_equals_per_sample_calls(count, rng):
    gt = rng.normal(scale=30, size=(8, count, 3))
    rot = rodrigues(np.array([0.3, -1.1, 0.6]))
    pred = 1.3 * (gt + rng.normal(scale=4, size=gt.shape)) @ rot.T + [5.0, -8.0, 2.0]
    pred[3] *= [-1.0, 1.0, 1.0]   # a mirrored sample exercises the reflection guard
    batch = procrustes_align(pred, gt)
    assert [np.shape(out) for out in batch] == [(8,), (8, 3, 3), (8, 3), (8, count, 3)]
    for i in range(8):
        one = procrustes_align(pred[i], gt[i])
        assert type(one[0]) is float
        for got, alone, want in zip(batch, one, procrustes_formula(pred[i], gt[i])):
            assert np.array_equal(got[i], alone) and np.array_equal(alone, want)
    assert pa_mpjpe(pred, gt) == np.mean([pa_mpjpe(p, g) for p, g in zip(pred, gt)])


def test_batched_mpjpe_is_the_mean_of_sample_means(rng):
    pred = rng.normal(scale=30, size=(2, 3, 21, 3))
    gt = rng.normal(scale=30, size=(2, 3, 21, 3))
    means = [mpjpe(p, g) for p, g in zip(pred.reshape(6, 21, 3), gt.reshape(6, 21, 3))]
    assert mpjpe(pred, gt) == np.mean(means)


def test_batched_procrustes_errors_name_the_first_bad_row(rng):
    pts = rng.normal(scale=30, size=(4, 21, 3))
    line = np.outer(np.arange(21.0), [1.0, 2.0, 3.0])
    cases = [(line, "batch row 2, points are (near) collinear"),
             (np.zeros((21, 3)), "batch row 2, prediction points are coincident"),
             (pts[0] * 1e200, "batch row 2, point coordinates overflow")]
    for bad, message in cases:
        pred = pts.copy()
        pred[2] = pred[3] = bad
        with pytest.raises(NumericError, match=re.escape(message)):
            procrustes_align(pred, pts)
    with pytest.raises(NumericError, match=r"^batch row \(1, 0\), points"):
        procrustes_align(np.stack([pts[:2], [line, pts[3]]]), pts.reshape(2, 2, 21, 3))
    with pytest.raises(NumericError, match="^point coordinates overflow"):
        procrustes_align(pts[0] * 1e200, pts[0])


def test_pa_mpjpe_similarity_invariant(rng):
    pred = rng.normal(scale=30, size=(21, 3))
    gt = rng.normal(scale=30, size=(21, 3))
    base = pa_mpjpe(pred, gt)
    rot = rodrigues(rng.normal(size=3))
    moved = 1.7 * pred @ rot.T + rng.normal(scale=40, size=3)
    assert pa_mpjpe(moved, gt) == pytest.approx(base, abs=1e-6)


def test_pa_mpjpe_never_exceeds_mpjpe(rng):
    for _ in range(50):
        pred = rng.normal(scale=30, size=(21, 3))
        gt = rng.normal(scale=30, size=(21, 3))
        assert pa_mpjpe(pred, gt) <= mpjpe(pred, gt) + 1e-9


# ---------------------------------------------------------------------------
# fscore
# ---------------------------------------------------------------------------

def test_fscore_identical_sets(rng):
    pts = rng.normal(scale=30, size=(50, 3))
    assert fscore(pts, pts, 5.0) == 1.0
    assert fscore(pts, pts, 1e-9) == 1.0


def test_fscore_all_beyond_threshold(rng):
    pts = rng.normal(scale=5, size=(20, 3))
    far = pts + [1000.0, 0.0, 0.0]
    assert fscore(pts, far, 15.0) == 0.0


def test_fscore_constructed_half_within():
    # half of each set coincides with the other; the other halves sit far
    # away along different axes, so precision = recall = 1/2 exactly
    near = np.arange(10)[:, None] * [20.0, 0.0, 0.0]
    gt = np.vstack([near, near + [0.0, 5000.0, 0.0]])
    pred = np.vstack([near, near + [0.0, 0.0, 5000.0]])
    assert fscore(pred, gt, 15.0) == pytest.approx(0.5, rel=1e-12)
    assert fscore(pred, gt, 15.0) == pytest.approx(
        fscore_oracle(pred, gt, 15.0), rel=1e-12)


def test_fscore_matches_oracle_random(rng):
    pred = rng.normal(scale=10, size=(30, 3))
    gt = rng.normal(scale=10, size=(25, 3))
    for threshold in (2.0, 5.0, 15.0):
        assert fscore(pred, gt, threshold) == pytest.approx(
            fscore_oracle(pred, gt, threshold), rel=1e-12)


def test_fscore_swap_symmetric(rng):
    pred = rng.normal(scale=10, size=(30, 3))
    gt = rng.normal(scale=10, size=(25, 3))
    assert fscore(pred, gt, 8.0) == pytest.approx(fscore(gt, pred, 8.0),
                                                  rel=1e-12)


def nearest_broadcast(pred, gt):
    # the full (N, M) distance matrix: the formula the blocked pass replaces
    dists = np.linalg.norm(pred[:, None, :] - gt[None, :, :], axis=2)
    return dists.min(axis=1), dists.min(axis=0)


GRID = np.stack(np.meshgrid(*[np.arange(4.0)] * 3), axis=-1).reshape(-1, 3)
# 16 points each way sit exactly 1.0 from their nearest point in the other set
SHIFTED = GRID + [1.0, 0.0, 0.0]
# duplicated points, ties at distance 1, and nearest distances equal to 1.0
GRID_PAIRS = [(np.vstack([GRID, GRID[:20]]), GRID), (SHIFTED, GRID), (GRID[::7], SHIFTED)]


def test_nearest_equals_broadcast_norm_exactly(rng):
    big = rng.normal(scale=30, size=(778, 3))
    small = rng.normal(scale=30, size=(21, 3))
    cases = [(small, big), (big, small), (big, big + 0.5),
             (rng.normal(size=(130, 3)), rng.normal(size=(50, 3))),
             (rng.normal(size=(65, 3)), rng.normal(size=(64, 3))),
             (small[:1], big), (big, small[:1]), (small[:1], small[1:2])]
    for pred, gt in cases + GRID_PAIRS:
        near_p, near_g = _nearest(pred, gt)
        want_p, want_g = nearest_broadcast(pred, gt)
        assert np.array_equal(near_p, want_p) and np.array_equal(near_g, want_g)


def assert_same_bytes(pred, gt, reach=np.inf):
    """The banded pass's distances within reach are the full matrix's bytes."""
    with np.errstate(over="ignore"):   # squares (and differences) that overflow
        got, want = _nearest(pred, gt, reach), nearest_broadcast(pred, gt)
    for g, w in zip(got, want):
        inside = w <= reach
        assert g[inside].tobytes() == w[inside].tobytes()
        assert (g[~inside] > reach).all()


def test_nearest_is_bytewise_the_broadcast_at_the_edges(rng):
    # magnitudes from subnormal (1e-320) to 1e300, either sign: every
    # difference is rounded once, and squares underflow or overflow
    wide = (rng.choice([-1.0, 1.0], size=(300, 3))
            * 10.0 ** rng.uniform(-320, 300, size=(300, 3)))
    tiny = rng.integers(-1000, 1000, size=(70, 3)) * 5e-324   # subnormals and 0
    huge = np.array([[1.7e308, 0.0, 0.0], [-1.7e308, 1e308, -1e308], [1.0, 2.0, 3.0]])
    zeros = np.array(np.meshgrid(*[[-0.0, 0.0]] * 3)).reshape(3, -1).T
    assert np.signbit(zeros).any() and not zeros.any()
    cases = [(wide, wide[::-1]), (wide[:129], wide[129:]), (tiny, tiny[::-1] * 3),
             (huge, -huge), (huge, huge[::-1]),   # differences overflow to inf
             (zeros, zeros[::-1]), (zeros, np.vstack([zeros, [[0.0, -1.0, 0.0]]]))]
    # 65 and 129 predicted points: the last block has one row (a matrix-vector product)
    cases += [(rng.normal(scale=30, size=(n, 3)), rng.normal(scale=30, size=(m, 3)))
              for n in (65, 129) for m in (1, 2, 778)]
    for pred, gt in cases:
        assert_same_bytes(pred, gt)
    # bands of one true point: keys 1000 apart, each predicted point within 1 of one
    gt = np.array([[1000.0 * k, 0.0, 0.0] for k in range(5)]) + rng.normal(size=(5, 3))
    pred = np.vstack([gt[0] + rng.uniform(-0.5, 0.5, size=(64, 3)),
                      gt[3] + rng.uniform(-0.5, 0.5, size=(1, 3))])
    for reach in (1.0, 5.0):
        assert_same_bytes(pred, gt, reach)
        assert_same_bytes(gt, pred, reach)


def assert_exact_within_reach(pred, gt, reach):
    """The banded pass's contract against the full distance matrix."""
    for got, want in zip(_nearest(pred, gt, reach), nearest_broadcast(pred, gt)):
        inside = want <= reach
        assert np.array_equal(got[inside], want[inside])
        assert (got[~inside] > reach).all() and (got >= want).all()


def rotated_hands(desk, rng, count):
    """Seeded randomly rotated and shifted rest meshes and noisy copies of them."""
    gt = np.stack([desk.rest_vertices @ rodrigues(rng.normal(size=3)).T
                   + rng.normal(scale=50, size=3) for _ in range(count)])
    return gt + rng.normal(scale=3, size=gt.shape), gt


def test_banded_nearest_is_exact_within_reach(desk, rng):
    big = rng.normal(scale=30, size=(778, 3))
    small = rng.normal(scale=30, size=(21, 3))
    lattice = rng.integers(0, 4, size=(300, 3)).astype(float)   # keys repeat ~75 times
    cases = [(pair, reach) for pair in GRID_PAIRS
             for reach in (0.5, 1.0, np.nextafter(1.0, 2.0), 1.5)]
    cases += [((lattice, lattice[::-1] + [0.5, 0.0, 0.0]), reach)
              for reach in (0.5, 1.0, 1.5)]
    cases += [(pair, reach) for pair in [(small[:1], big), (big, small[:1]),
                                         (small[:1], small[1:2]), (big[:1], big[:1])]
              for reach in (1e-3, 5.0, 40.0)]
    spread = GRID * 100.0   # every cross pair is at least 50 apart
    apart = spread + [1000.0, 0.0, 0.0]   # no key of one set near one of the other
    cases += [(pair, reach) for pair in ((spread, spread + 50.0), (spread, apart))
              for reach in (1.0, 49.0)]
    pred, gt = rotated_hands(desk, rng, 4)
    assert pred.shape[1] == 778
    cases += [((p, g), reach) for p, g in zip(pred, gt) for reach in (5.0, 15.0)]
    for (p, g), reach in cases:
        assert_exact_within_reach(p, g, reach)
        assert_exact_within_reach(g, p, reach)
    far_p, far_g = _nearest(spread, apart, 49.0)   # no pair in any band
    assert np.isinf(far_p).all() and np.isinf(far_g).all()


def test_banded_nearest_keeps_a_pair_the_rounded_edge_would_drop():
    # 14.9 - 15.0 rounds above -0.1, so a band edge taken without widening
    # misses the key -0.1; yet 14.9 - (-0.1) rounds to exactly 15.0
    assert 14.9 - 15.0 > -0.1 and 14.9 - (-0.1) == 15.0
    low, high = np.array([[-0.1, 0.0, 0.0]]), np.array([[14.9, 0.0, 0.0]])
    rows = np.array([[-0.1, 0.0, 0.0], [-0.1, 0.0, 5.0], [-30.0, 1.0, 0.0]])  # widest in x
    for reach in (15.0, np.nextafter(15.0, 16.0)):
        assert [d.tolist() for d in _nearest(high, low, reach)] == [[15.0], [15.0]]
        for p, g in ((high, low), (high, rows)):
            assert_exact_within_reach(p, g, reach)
            assert_exact_within_reach(g, p, reach)
    assert fscore(high, low, np.nextafter(15.0, 16.0)) == 1.0
    assert fscore(high, low, 15.0) == fscore_oracle(high, low, 15.0) == 0.0


def full_pass_f(pred, gt, threshold):
    """F-score from the counts of the full distance matrix."""
    near_p, near_g = nearest_broadcast(pred, gt)
    precision, recall = (near_p < threshold).mean(), (near_g < threshold).mean()
    return 0.0 if precision + recall == 0 else float(
        2 * precision * recall / (precision + recall))


def test_fscore_and_evaluate_count_as_the_full_pass(desk, rng):
    pred, gt = rotated_hands(desk, rng, 4)
    joints = list(rng.normal(scale=30, size=(4, 21, 3)))
    thresholds = (1.0, 5.0, 15.0)
    report = evaluate(joints, joints, list(pred), list(gt), thresholds=thresholds)
    for threshold in thresholds:
        want = [full_pass_f(p, g, threshold) for p, g in zip(pred, gt)]
        assert [fscore(p, g, threshold) for p, g in zip(pred, gt)] == want
        assert report.f_at[threshold] == float(np.mean(want))
    few_p, few_g = pred[0, ::7], gt[0, ::7]
    for threshold in thresholds:
        assert fscore(few_p, few_g, threshold) == fscore_oracle(few_p, few_g, threshold)


def test_evaluate_without_thresholds_skips_the_nearest_pass(rng, monkeypatch):
    def refuse(*args):
        raise AssertionError("nearest pass run without thresholds")

    monkeypatch.setattr(metrics, "_nearest", refuse)
    joints = rng.normal(scale=30, size=(21, 3))
    verts = rng.normal(scale=30, size=(100, 3))
    report = evaluate([joints], [joints], [verts], [verts], thresholds=())
    assert report.f_at == {} and report.mpvpe == 0.0
    assert evaluate([joints], [joints], thresholds=[]).f_at == {}


def test_fscore_threshold_on_a_nearest_distance_is_strict():
    assert fscore(SHIFTED, GRID, 1.0) == fscore_oracle(SHIFTED, GRID, 1.0) == 0.75
    assert fscore(SHIFTED, GRID, np.nextafter(1.0, 2.0)) == 1.0
    for pred, gt in GRID_PAIRS:
        for threshold in (0.5, 1.0, 1.5):
            assert fscore(pred, gt, threshold) == fscore_oracle(pred, gt, threshold)


def test_fscore_equals_evaluate_for_one_sample(rng):
    joints = rng.normal(scale=30, size=(21, 3))
    gt = rng.normal(scale=30, size=(778, 3))
    pred = gt + rng.normal(scale=6, size=gt.shape)
    thresholds = (1.0, 5.0, 7.5, 15.0, 40.0)
    report = evaluate([joints], [joints], [pred], [gt], thresholds=thresholds)
    for threshold in thresholds:
        assert report.f_at[threshold] == fscore(pred, gt, threshold)


def test_fscore_rejects_empty_point_set(rng):
    pts = rng.normal(size=(5, 3))
    for pred, gt in ((np.zeros((0, 3)), pts), (pts, np.zeros((0, 3)))):
        with pytest.raises(ShapeError, match="nonempty"):
            fscore(pred, gt, 5.0)


def test_fscore_and_evaluate_peak_memory(rng):
    gt = [rng.normal(scale=30, size=(778, 3)) for _ in range(8)]
    pred = [v + rng.normal(scale=6, size=v.shape) for v in gt]
    joints = [rng.normal(scale=30, size=(21, 3)) for _ in range(8)]
    tracemalloc.start()
    try:
        fscore(pred[0], gt[0], 5.0)
        fscore_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        evaluate(joints, joints, pred, gt)
        evaluate_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the full 778 x 778 x 3 difference tensor alone is 14.5 MB
    assert fscore_peak < 4e6 and evaluate_peak < 4e6


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_perfect_sample(rng):
    joints = rng.normal(scale=30, size=(21, 3))
    verts = rng.normal(scale=30, size=(100, 3))
    report = evaluate([joints], [joints], [verts], [verts])
    assert report.mpjpe == 0.0
    assert report.pa_mpjpe < 1e-9
    assert report.mpvpe == 0.0
    assert report.f_at[5.0] == 1.0
    assert report.f_at[15.0] == 1.0
    assert report.sample_count == 1


def test_evaluate_averages_over_samples(rng):
    gt = rng.normal(scale=30, size=(21, 3))
    p2 = gt + [2.0, 0.0, 0.0]
    p4 = gt + [4.0, 0.0, 0.0]
    report = evaluate([p2, p4], [gt, gt])
    assert report.mpjpe == pytest.approx(3.0, rel=1e-12)


def test_evaluate_pa_of_rigidly_moved_prediction_is_zero(rng):
    gt = rng.normal(scale=30, size=(21, 3))
    rot = rodrigues(rng.normal(size=3))
    pred = gt @ rot.T + [20.0, 5.0, -3.0]
    report = evaluate([pred], [gt])
    assert report.pa_mpjpe < 1e-6
    assert report.mpjpe > 1.0


def test_evaluate_root_centering(rng):
    gt = rng.normal(scale=30, size=(21, 3))
    pred = gt + [50.0, 0.0, 0.0]  # pure offset vanishes after root centering
    report = evaluate([pred], [gt], root_center=True)
    assert report.mpjpe < 1e-9


def test_report_serialization(rng):
    joints = rng.normal(scale=30, size=(21, 3))
    verts = rng.normal(scale=30, size=(50, 3))
    text = evaluate([joints], [joints], [verts], [verts]).to_text()
    for name in ("MPJPE", "PA-MPJPE", "MPVPE", "PA-MPVPE", "F@5", "F@15"):
        assert name in text


def test_evaluate_rejects_mismatched_lists(rng):
    with pytest.raises(ValueError):
        evaluate([rng.normal(size=(21, 3))], [])


def evaluate_oracle(pred_j, gt_j, pred_v=None, gt_v=None, thresholds=(5.0, 15.0),
                    root_center=False) -> str:
    """The metric stack as one loop over samples, one call per sample."""
    def centered(p, g):
        return (p - p[0], g - g[0]) if root_center else (p, g)

    kinds = [(pred_j, gt_j)] + ([] if pred_v is None else [(pred_v, gt_v)])
    errors = []
    for preds, gts in kinds:
        errors.append(float(np.mean([mpjpe(*centered(p, g)) for p, g in zip(preds, gts)])))
        errors.append(float(np.mean([pa_mpjpe(p, g) for p, g in zip(preds, gts)])))
    f_at = {t: float(np.mean([fscore(p, g, t) for p, g in zip(*kinds[-1])]))
            for t in thresholds}
    mpvpe, pa_mpvpe = errors[2:] if pred_v is not None else (None, None)
    return EvalReport(errors[0], errors[1], mpvpe, pa_mpvpe, f_at,
                      len(pred_j)).to_text()


@pytest.mark.parametrize("count", range(1, 9))
def test_evaluate_equals_the_per_sample_loop(count, rng):
    gt_j = rng.normal(scale=30, size=(count, 21, 3))
    gt_v = rng.normal(scale=30, size=(count, 100, 3))
    pred_j = list(gt_j + rng.normal(scale=5, size=gt_j.shape) + [0.0, 9.0, 0.0])
    pred_v = list(gt_v + rng.normal(scale=5, size=gt_v.shape))
    for verts in ((), (pred_v, list(gt_v))):
        for root_center in (False, True):
            for thresholds in ((5.0, 15.0), (2.0, 6.5, 30.0)):
                text = evaluate(pred_j, list(gt_j), *verts, thresholds=thresholds,
                                root_center=root_center).to_text()
                assert text == evaluate_oracle(pred_j, gt_j, *verts, thresholds=thresholds,
                                               root_center=root_center)


def test_evaluate_refuses_ragged_samples(rng):
    joints = [rng.normal(size=(21, 3)) for _ in range(2)]
    verts = [rng.normal(size=(100, 3)), rng.normal(size=(90, 3))]
    with pytest.raises(ShapeError, match="equal-shape"):
        evaluate(joints, joints, verts, verts)
    with pytest.raises(ShapeError, match="equal-shape"):
        evaluate([joints[0], joints[1][:20]], joints)
