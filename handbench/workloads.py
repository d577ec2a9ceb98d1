"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs one timed
unit of work per ``round`` (``finish`` closes the timed region), and checks
its outputs in ``check``, outside the timed region.  All calls into handkit
go through module attributes, so the tracer's wrappers see them.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from clock import Clock, ReferenceKernel
from handkit import (bio_dof, hand_model, ik_net, ik_optim, kinematics as kin,
                     lixel, metrics, synth)

#: a run that cannot stop normally gives up after this many ``seconds``
HARD_STOP_FACTOR = 3.0


def derived_seed(seed: int, stream: int) -> int:
    """Independent integer seed for one input stream of a workload."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


@dataclass
class Log:
    """What one timed region did.

    The region is split into laps (see ``clock``), each of a kind.  A lap of
    kind ``"op"`` is exactly one successful operation and gives one latency
    sample; other kinds ("library", "partial", "finish", "failed") hold the
    rest of the timed work.
    """

    clock: Clock
    items: int = 0                   # poses, fits, pairs or samples
    attempted: int = 0
    failed: int = 0
    laps: list[tuple[str, float, float]] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def lap(self, kind: str) -> None:
        """Close the current lap as one of ``kind``."""
        wall, ref = self.clock.lap()
        self.laps.append((kind, wall, ref))

    @property
    def elapsed(self) -> float:
        return sum(wall for _, wall, _ in self.laps)

    @property
    def elapsed_norm(self) -> float:
        """Sum of the normalised times of every lap, whatever its kind.

        Every lap counts at its own time, so a slow share of operations or a
        periodic stall moves this as much as it moves the plain sum of wall
        times, ``elapsed``.
        """
        normalised = self.clock.kernel.normalised
        return sum(normalised(wall, ref) for _, wall, ref in self.laps)

    @property
    def op_ms(self) -> list[float]:
        return [wall * 1e3 for kind, wall, _ in self.laps if kind == "op"]

    @property
    def op_ms_norm(self) -> list[float]:
        return [self.clock.kernel.normalised(wall, ref) * 1e3
                for kind, wall, ref in self.laps if kind == "op"]

    @property
    def ref_ms(self) -> list[float]:
        return [ref * 1e3 for _, _, ref in self.laps]

    def attempt(self, fn, *args, **kwargs):
        """Call ``fn`` as one operation; a raised error counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # the run goes on and reports the failure count
            self.failed += 1
            if self.failed <= 3:
                traceback.print_exc(file=sys.stderr)
            return None


def measure(workload, state, seconds: float, min_ops: int = 1) -> Log:
    """Closed loop: rounds back to back until ``seconds`` and ``min_ops`` are met."""
    log = Log(Clock(workload.kernel))
    start = time.perf_counter()
    while True:
        workload.round(state, log)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and log.attempted >= min_ops:
            break
        if elapsed >= HARD_STOP_FACTOR * seconds:
            break
    workload.finish(state, log)
    return log


class Workload:
    name = ""
    item = ""            # what ``items_per_s`` counts
    op = ""              # what one ``op_ms`` sample times
    op_key = ""          # the op's name in the figures, as in ``fit_ms_p90``
    min_ops = 1          # operations a run needs for its tail percentile
    #: reference-kernel parts whose slowdown under contention follows this
    #: workload's (chosen by measurement, see ``clock``)
    reference = ("einsum", "loops")

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.kernel = ReferenceKernel(self.reference)

    def setup(self, seed: int) -> dict:
        raise NotImplementedError

    def inputs(self, state: dict) -> dict[str, np.ndarray]:
        """The generated arrays the program receives."""
        raise NotImplementedError

    def prepare(self, state: dict) -> None:
        """Untimed baselines the checks need."""

    def round(self, state: dict, log: Log) -> None:
        raise NotImplementedError

    def finish(self, state: dict, log: Log) -> None:
        """Timed work done once after the last round."""

    def check(self, state: dict, log: Log) -> tuple[dict, dict, dict]:
        """(named pass/fail checks, reported figures, layer counts)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# synth-mesh
# ---------------------------------------------------------------------------

class SynthMesh(Workload):
    """Pose library -> augmentation -> container round trip -> skinning -> projection."""

    name = "synth-mesh"
    op_key = "chunk"
    item = "poses"
    op = "256-pose chunk (FK with vertices, sample check, projections)"
    reference = ("einsum",)
    RADIUS_MM = 600.0
    INTRINSICS = (500.0, 500.0, 128.0, 128.0)    # fx, fy, cx, cy
    CHECK_ROWS = 2                                # sampled rows per chunk
    REGRESS_TOL_MM = 1e-6

    # Chunks of 1024 poses gave one 1.4-2 s FK call per latency sample, and
    # their medians spread 7-10% between runs on the tuning box; chunks of
    # 256 give four times the samples and spread about 2%.
    def __init__(self, scratch, per_pose: int = 4, chunk: int = 256,
                 base: int = synth.BASE_LIBRARY_SIZE):
        super().__init__(scratch)
        self.per_pose, self.chunk, self.base = per_pose, chunk, base

    def setup(self, seed):
        model = hand_model.make_desk_hand()
        rng = np.random.default_rng(derived_seed(seed, 0))
        n = self.base * self.per_pose
        n_chunks = -(-n // self.chunk)
        return {
            "model": model,
            "library_seed": derived_seed(seed, 1),
            "augment_seed": derived_seed(seed, 2),
            "beta": rng.normal(scale=0.5, size=(n, 10)),
            "global_rot": rng.normal(scale=1.0, size=(n, 3)),
            "camera_u": rng.random(n),
            "check_u": rng.random((n_chunks, self.CHECK_ROWS)),
        }

    def inputs(self, state):
        return {k: np.asarray(state[k]) for k in
                ("library_seed", "augment_seed", "beta", "global_rot",
                 "camera_u", "check_u")}

    def _library(self, state):
        lib = synth.make_pose_library(state["model"], count=self.base,
                                      seed=state["library_seed"])
        aug = synth.augment_library(lib, per_pose=self.per_pose,
                                    seed=state["augment_seed"])
        path = self.scratch / "pose_library.hkc"
        synth.save_pose_library(aug, path)
        return aug, synth.load_pose_library(path), synth.sample_cameras()

    def round(self, state, log):
        model = state["model"]
        built = log.attempt(self._library, state)
        if built is None:
            log.lap("failed")
            return
        aug, loaded, cams = built
        notes = log.notes
        notes.setdefault("library_rows", []).append(len(aug))
        notes["library_roundtrip_ok"] = notes.get("library_roundtrip_ok", True) and \
            np.array_equal(loaded.poses, aug.poses.astype(np.float32))
        log.lap("library")
        worst = notes.get("regress_err_mm", 0.0)
        bad_pixels = notes.get("non_finite_projections", 0)
        poses = loaded.poses
        fx, fy, cx, cy = self.INTRINSICS
        for c, start in enumerate(range(0, len(poses), self.chunk)):
            rows = slice(start, start + self.chunk)
            out = log.attempt(kin.fk_forward, model, poses[rows],
                              state["beta"][rows], state["global_rot"][rows],
                              want_vertices=True)
            if out is None:
                log.lap("failed")
                continue
            size = len(out.joints)
            for u in state["check_u"][c]:
                r = int(u * size)
                regressed = hand_model.regress_joints(model, out.vertices[r])
                worst = max(worst, float(np.abs(regressed.joints
                                                - out.joints[r]).max()))
            for i in range(size):
                cam = cams[int(state["camera_u"][start + i] * len(cams))]
                pix = log.attempt(synth.project, out.joints[i], cam,
                                  self.RADIUS_MM, fx, fy, cx, cy)
                if pix is not None and not np.isfinite(pix).all():
                    bad_pixels += 1
            log.items += size
            log.lap("op" if size == self.chunk else "partial")
        notes["regress_err_mm"] = worst
        notes["non_finite_projections"] = bad_pixels

    def check(self, state, log):
        notes = log.notes
        want = self.base * self.per_pose
        checks = {
            "library_rows": bool(notes.get("library_rows"))
            and all(n == want for n in notes["library_rows"]),
            "library_roundtrip": bool(notes.get("library_roundtrip_ok", False)),
            "regressed_matches_chained": notes.get("regress_err_mm", np.inf)
            <= self.REGRESS_TOL_MM and log.items > 0,
            "projections_finite": notes.get("non_finite_projections", 1) == 0,
        }
        figures = {"poses": log.items, "library_rows": want,
                   "regress_err_mm": notes.get("regress_err_mm")}
        return checks, figures, {}


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

class Refine(Workload):
    """One ``ik_optim.fit`` per target, the criterion 6 / fit_recovery settings."""

    name = "refine"
    op_key = "fit"
    item = "fits"
    op = "fit (20 iterations, joints + 778 vertices)"
    min_ops = 100            # p90 needs ten fits beyond it
    IMPROVED_SHARE = 0.9     # criterion 6 gate
    ITERATIONS = 20          # criterion 6 / fit_recovery settings
    SIGMA = 0.1              # rad of perturbation of the initial angles

    def __init__(self, scratch, pool: int = 256):
        super().__init__(scratch)
        self.pool = pool

    def setup(self, seed):
        model = hand_model.make_desk_hand()
        limits = bio_dof.DofLimits.default()
        axes = bio_dof.derive_axes(model)
        rng = np.random.default_rng(derived_seed(seed, 0))
        bio = bio_dof.sample_uniform(limits, self.pool, rng)
        beta = rng.normal(scale=0.5, size=(self.pool, 10))
        out = kin.fk_forward(model, bio_dof.expand_batch(bio, axes), beta,
                             want_vertices=True, want_regressed=True)
        init = np.clip(bio + rng.normal(scale=self.SIGMA, size=bio.shape),
                       limits.lower, limits.upper)
        return {"model": model, "limits": limits, "axes": axes,
                "beta": beta, "joints": out.regressed_joints,
                "vertices": out.vertices, "init": init,
                "config": ik_optim.FitConfig(iterations=self.ITERATIONS),
                "results": [], "next": 0}

    def inputs(self, state):
        return {k: state[k] for k in ("beta", "joints", "vertices", "init")}

    def _fit(self, state, i):
        target = ik_optim.FitTarget(joints=state["joints"][i],
                                    vertices=state["vertices"][i])
        return ik_optim.fit(state["model"], target, init_bio=state["init"][i],
                            init_beta=state["beta"][i], config=state["config"],
                            limits=state["limits"], axes=state["axes"])

    def round(self, state, log):
        # Targets repeat only if a run outlasts the pool.
        i = state["next"] % self.pool
        state["next"] += 1
        result = log.attempt(self._fit, state, i)
        log.lap("failed" if result is None else "op")
        if result is None:
            return
        log.items += 1
        state["results"].append((i, result))

    def _regressed(self, state, bio, beta, rot=None, trans=None):
        art = bio_dof.expand_batch(bio, state["axes"])
        return kin.fk_forward(state["model"], art, beta, rot, trans,
                              want_regressed=True).regressed_joints

    def check(self, state, log):
        results = state["results"]
        if not results:
            return {"fits_done": False}, {}, {}
        idx = np.array([i for i, _ in results])
        bio = np.array([r.bio.values for _, r in results])
        beta = np.array([r.beta.beta for _, r in results])
        rot = np.array([r.global_rot for _, r in results])
        trans = np.array([r.translation for _, r in results])
        finite = all(np.isfinite(r.loss_trace).all() for _, r in results) and \
            all(np.isfinite(a).all() for a in (bio, beta, rot, trans))
        target = state["joints"][idx]
        before = self._regressed(state, state["init"][idx], state["beta"][idx])
        after = self._regressed(state, bio, beta, rot, trans)
        err_before = [metrics.mpjpe(b, t) for b, t in zip(before, target)]
        err_after = [metrics.mpjpe(a, t) for a, t in zip(after, target)]
        improved = sum(a < b for a, b in zip(err_after, err_before))
        pa = [metrics.pa_mpjpe(a, t) for a, t in zip(after, target)]
        checks = {"fits_finite": finite,
                  "fits_improved_90pct": improved >= self.IMPROVED_SHARE * log.attempted}
        figures = {"fits": len(results), "improved": improved,
                   "fit_pa_mpjpe_mm": float(np.mean(pa))}
        counts = {"ik_optim.fit.improved_ratio": improved / max(log.attempted, 1)}
        return checks, figures, counts


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class Train(Workload):
    """``ik_net.train`` at batch 32, rate 1e-4, criterion 7 net and shuffle seeds."""

    name = "train"
    op_key = "train_call"
    item = "pairs"
    op = "train call (one epoch over a 500-pair slice)"
    reference = ("einsum", "loops", "distance")
    NET_SEED, SHUFFLE_SEED = 702, 703   # criterion 7
    BATCH, RATE = 32, 1e-4
    RELOAD_RTOL = 1e-4                  # float32 checkpoint storage

    # One call per 2000-pair slice gave about 30 latency samples per run, and
    # their medians spread 8% between runs on the tuning box; 500-pair slices
    # give four times the samples and spread under 3%.  Each call starts
    # fresh Adam moments, as a call to ``train`` does.
    def __init__(self, scratch, pairs: int = 20000, held: int = 1000,
                 slice_size: int = 500):
        super().__init__(scratch)
        self.pairs, self.held, self.slice_size = pairs, held, slice_size

    def setup(self, seed):
        model = hand_model.make_desk_hand()
        limits = bio_dof.DofLimits.default()
        data = ik_net.generate_pairs(model, self.pairs, limits,
                                     seed=derived_seed(seed, 0))
        held = ik_net.generate_pairs(model, self.held, limits,
                                     seed=derived_seed(seed, 1))
        return {"model": model, "axes": bio_dof.derive_axes(model),
                "data": data, "held": held,
                "held_feats": ik_net.featurize_batch(held.skeletons),
                "net": ik_net.MlpIk(seed=self.NET_SEED), "calls": 0,
                "config": ik_net.TrainConfig(
                    epochs=1, decay_epochs=(), batch_size=self.BATCH,
                    learning_rate=self.RATE, seed=self.SHUFFLE_SEED)}

    def inputs(self, state):
        data, held = state["data"], state["held"]
        return {"bio": data.bio, "beta": data.beta, "skeletons": data.skeletons,
                "held_bio": held.bio, "held_beta": held.beta,
                "held_skeletons": held.skeletons}

    def _held_l1(self, state, net):
        theta, beta = net.forward(state["held_feats"], training=False)
        art = bio_dof.expand_batch(theta, state["axes"])
        joints = kin.fk_forward(state["model"], art, beta,
                                want_regressed=True).regressed_joints
        return float(np.abs(joints - state["held"].skeletons).mean())

    def prepare(self, state):
        state["untrained_l1"] = self._held_l1(state, state["net"])

    def round(self, state, log):
        data = state["data"]
        n_slices = len(data) // self.slice_size
        k = state["calls"] % n_slices
        state["calls"] += 1
        rows = slice(k * self.slice_size, (k + 1) * self.slice_size)
        part = ik_net.SynthPairSet(bio=data.bio[rows], beta=data.beta[rows],
                                   skeletons=data.skeletons[rows],
                                   model=data.model)
        out = log.attempt(ik_net.train, state["net"], part, state["config"])
        log.lap("failed" if out is None else "op")
        if out is None:
            return
        state["net"], curve = out
        state.setdefault("curves", []).append(curve[-1]["total"])
        log.items += (len(part) // self.BATCH) * self.BATCH

    def _reload_and_score(self, state):
        path = self.scratch / "ik_net.hkc"
        ik_net.save_checkpoint(state["net"], path)
        reloaded = ik_net.load_checkpoint(path)
        return reloaded, self._held_l1(state, reloaded)

    def finish(self, state, log):
        out = log.attempt(self._reload_and_score, state)
        log.lap("finish")
        if out is not None:
            state["reloaded"], state["heldout_l1"] = out

    def check(self, state, log):
        if "reloaded" not in state:
            return {"checkpoint_reloaded": False}, {}, {}
        feats = state["held_feats"]
        trained = np.concatenate(state["net"].forward(feats, training=False), 1)
        again = np.concatenate(state["reloaded"].forward(feats, training=False), 1)
        scale = float(np.abs(trained).max())
        checks = {
            "losses_finite": bool(np.isfinite(state.get("curves", [np.nan])).all()),
            "heldout_beats_untrained": state["heldout_l1"] < state["untrained_l1"],
            "checkpoint_reproduces": float(np.abs(trained - again).max())
            <= self.RELOAD_RTOL * max(scale, 1.0),
        }
        figures = {"pairs": log.items, "heldout_l1_mm": state["heldout_l1"],
                   "untrained_l1_mm": state["untrained_l1"]}
        return checks, figures, {}


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

class Score(Workload):
    """Lixel decode of predicted joints, then ``metrics.evaluate`` per group."""

    name = "score"
    op_key = "group"
    item = "samples"
    op = "group of 8 samples (decode 8x21x3 heatmaps, evaluate with vertices)"
    reference = ("distance",)
    THRESHOLDS = (5.0, 15.0)
    BOX_MM = 500.0             # heatmap axes span [-250, 250] mm
    NOISE_MM = 3.0
    ROUNDTRIP_TOL = 1.0 / 128.0

    def __init__(self, scratch, pool: int = 256, group: int = 8):
        super().__init__(scratch)
        self.pool, self.group = pool, group

    def setup(self, seed):
        model = hand_model.make_desk_hand()
        limits = bio_dof.DofLimits.default()
        axes = bio_dof.derive_axes(model)
        rng = np.random.default_rng(derived_seed(seed, 0))
        bio = bio_dof.sample_uniform(limits, self.pool, rng)
        beta = rng.normal(scale=0.5, size=(self.pool, 10))
        rot = rng.normal(scale=1.0, size=(self.pool, 3))
        out = kin.fk_forward(model, bio_dof.expand_batch(bio, axes), beta, rot,
                             want_vertices=True)
        noisy = out.joints + rng.normal(scale=self.NOISE_MM, size=out.joints.shape)
        coords = np.clip(noisy / self.BOX_MM + 0.5, 0.0, 1.0)
        heatmaps = np.array([[[lixel.encode(float(c)).values
                               for c in joint] for joint in sample]
                             for sample in coords])
        return {"gt_joints": out.joints, "gt_vertices": out.vertices,
                "pred_vertices": out.vertices + rng.normal(
                    scale=self.NOISE_MM, size=out.vertices.shape),
                "heatmaps": heatmaps, "check_coords": rng.random(200),
                "reports": [], "next": 0}

    def inputs(self, state):
        return {k: state[k] for k in ("gt_joints", "gt_vertices",
                                      "pred_vertices", "heatmaps", "check_coords")}

    def _score_group(self, state, idx):
        maps = state["heatmaps"][idx]
        coords = np.array([[[lixel.decode(axis) for axis in joint]
                            for joint in sample] for sample in maps])
        pred_joints = (coords - 0.5) * self.BOX_MM
        return metrics.evaluate(list(pred_joints), list(state["gt_joints"][idx]),
                                list(state["pred_vertices"][idx]),
                                list(state["gt_vertices"][idx]),
                                thresholds=self.THRESHOLDS)

    def round(self, state, log):
        # Samples repeat only if a run outlasts the pool.
        idx = (np.arange(self.group) + state["next"] * self.group) % self.pool
        state["next"] += 1
        report = log.attempt(self._score_group, state, idx)
        log.lap("failed" if report is None else "op")
        if report is None:
            return
        log.items += self.group
        state["reports"].append(report)

    def check(self, state, log):
        gt_j, gt_v = state["gt_joints"][:2], state["gt_vertices"][:2]
        same = metrics.evaluate(list(gt_j), list(gt_j), list(gt_v), list(gt_v),
                                thresholds=self.THRESHOLDS)
        worst = max(abs(lixel.decode(lixel.encode(float(c))) - c)
                    for c in state["check_coords"])
        reports = state["reports"]
        figures_ok = bool(reports) and all(
            np.isfinite([r.mpjpe, r.pa_mpjpe, r.mpvpe, r.pa_mpvpe]).all()
            and all(0.0 <= f <= 1.0 for f in r.f_at.values()) for r in reports)
        checks = {
            "identical_sets_zero_error": same.mpjpe == 0.0 and same.mpvpe == 0.0
            and same.pa_mpjpe < 1e-9 and same.pa_mpvpe < 1e-9,
            "identical_sets_f_one": all(f == 1.0 for f in same.f_at.values()),
            "lixel_roundtrip": worst < self.ROUNDTRIP_TOL,
            "reports_valid": figures_ok,
        }
        figures = {"samples": log.items}
        if reports:
            figures.update(
                pa_mpjpe_mm=float(np.mean([r.pa_mpjpe for r in reports])),
                pa_mpvpe_mm=float(np.mean([r.pa_mpvpe for r in reports])),
                **{f"f_at_{t:g}mm": float(np.mean([r.f_at[t] for r in reports]))
                   for t in self.THRESHOLDS})
        return checks, figures, {}


WORKLOADS = {cls.name: cls for cls in (SynthMesh, Refine, Train, Score)}
