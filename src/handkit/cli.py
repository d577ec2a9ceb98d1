"""Command-line surface: forward kinematics, IK fitting/training/prediction,
metric evaluation, architecture profiling, and synthetic-data generation.

All commands are deterministic given their inputs and --seed, and all text
artifacts use fixed 9-significant-digit formatting, so re-runs produce
byte-identical outputs.  Exit codes are mapped once, in ``main``: 0 success,
2 ``InputError`` (malformed file or argument), any ``OSError`` or a
``MemoryError`` (a count too large to allocate), 3 ``ShapeError`` (shape or
consistency mismatch), 4 ``NumericError`` (degenerate geometry or
divergence); any other exception is a bug.  Values are checked where read,
by the ``errors`` helpers the library shares.  ``ik-train`` decays the rate
at epochs 30 and 35 unless --decay-epoch is given, so --epochs 35 or fewer
needs explicit values.  The model path defaults to the HANDKIT_MODEL
environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import (bio_dof, ik_net, ik_optim, kinematics as kin, lixel, metrics,
               profiler, synth)
from .errors import (EXIT_NUMERIC, EXIT_PARSE, EXIT_SHAPE,  # noqa: F401
                     HandkitError, InputError, ShapeError, as_array)
from .hand_model import (HandModel, ShapeParams, load_model, make_desk_hand,
                         make_desk_hand_small, save_model, write_obj)

MODEL_ENV_VAR = "HANDKIT_MODEL"

EXIT_OK = 0


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def _fmt_row(values) -> str:
    return " ".join(_fmt(v) for v in values)


def _numbered(stem: str, i: int, count: int) -> str:
    """Output name for record i of count: 'stem.txt' alone, else numbered."""
    return f"{stem}.txt" if count == 1 else f"{stem}_{i:05d}.txt"


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

@dataclass
class AnnotationRecord:
    """One sample: joints (mm, internally), optional vertices and intrinsics."""

    joints: np.ndarray
    vertices: np.ndarray | None = None
    intrinsics: np.ndarray | None = None


def _record_from_obj(obj, scale: float, where: str) -> AnnotationRecord:
    if not isinstance(obj, dict):
        obj = {"joints": obj}  # bare-list layout: one joints array per record
    if obj.get("joints") is None:
        raise InputError(f"{where}: no joints")
    # every value of the record is checked before any shape; the millimetre
    # values once more, as a huge meter value scales to inf
    mm = {key: as_array(obj[key], None, f"{where}: {key}")
          * (1.0 if key == "intrinsics" else scale)
          for key in ("joints", "vertices", "intrinsics") if obj.get(key) is not None}
    shapes = {"joints": (kin.JOINT_COUNT, 3), "vertices": (None, 3), "intrinsics": (3, 3)}
    return AnnotationRecord(**{key: as_array(value, shapes[key], f"{where}: {key}")
                               for key, value in mm.items()})


def load_annotation_records(path) -> list[AnnotationRecord]:
    """JSON annotations: native {'unit', 'records': [...]} or a single record
    {'unit', 'joints', ...}; a bare list-of-arrays follows the public
    FreiHAND layout and is interpreted in meters.  Non-finite values are
    rejected."""
    try:
        payload = json.loads(Path(path).read_text(errors="replace"))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    if isinstance(payload, dict):
        unit = payload.get("unit")
        if unit not in ("mm", "m"):
            raise InputError(f"{path}: unit must be 'mm' or 'm'")
        scale = 1000.0 if unit == "m" else 1.0
        items = payload["records"] if "records" in payload else [payload]
    elif isinstance(payload, list):
        scale = 1000.0  # FreiHAND-layout bare lists are in meters
        items = payload
    else:
        raise InputError(f"{path}: unrecognized annotation layout")
    if not isinstance(items, list) or not items:
        raise InputError(f"{path}: records must be a nonempty list")
    return [_record_from_obj(item, scale, f"{path}: record {i}")
            for i, item in enumerate(items)]


_POSE_KEYS = ("global_rot", "articulation", "translation", "beta")


def load_pose_file(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Plain-text pose: 'key: values' lines for global_rot, articulation,
    and optionally translation and beta; each key at most once.  Returns
    ``fk_forward``'s (articulation, beta, global_rot, translation), a missing
    key as zeros.  A rotation magnitude >= pi (per joint or global) is
    ``InputError`` here, not in FK: fit and training iterates are not
    bounded by pi.  |beta| > 5 warns."""
    fields: dict[str, np.ndarray] = {}
    for raw in Path(path).read_text(errors="replace").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep or key not in _POSE_KEYS or key in fields:
            raise InputError(f"{path}: bad or repeated pose line {raw!r}")
        try:
            fields[key] = np.array([float(v) for v in rest.split()])
        except ValueError as exc:
            raise InputError(f"{path}: bad numbers in {raw!r}") from exc
    rot, art, trans = (as_array(fields.get(key, np.zeros(n)), n, key) for key, n in (
        ("global_rot", 3), ("articulation", kin.ARTICULATION_SIZE), ("translation", 3)))
    beta = ShapeParams(fields.get("beta", np.zeros(10))).beta
    omegas = np.vstack([rot, art.reshape(-1, 3)])
    # a component at or past pi decides before any square could overflow
    if np.abs(omegas).max() >= np.pi or np.linalg.norm(omegas, axis=1).max() >= np.pi:
        raise InputError(f"{path}: per-joint axis-angle magnitude must be < pi")
    return art, beta, rot, trans


def _params_lines(bio, beta, global_rot, translation) -> list[str]:
    """'bio <name> <v>', 'beta <i> <v>', global_rot and translation lines of
    the (23,), (10,), (3,) and (3,) arrays."""
    return ([f"bio {name} {_fmt(v)}" for name, v in zip(bio_dof.DOF_NAMES, bio)]
            + [f"beta {i} {_fmt(v)}" for i, v in enumerate(beta)]
            + ["global_rot " + _fmt_row(global_rot),
               "translation " + _fmt_row(translation)])


def write_params_file(path, bio, beta, global_rot, translation) -> None:
    lines = _params_lines(bio, beta, global_rot, translation)
    Path(path).write_text("\n".join(lines) + "\n")


def write_fit_report(path, loss_trace, bio, beta, global_rot, translation) -> None:
    """A parameter file preceded by a '# fit report' line, 'iterations <n>'
    and one 'loss <i> <v>' line per iteration."""
    lines = ["# fit report", f"iterations {len(loss_trace)}"]
    lines += [f"loss {i} {_fmt(loss)}" for i, loss in enumerate(loss_trace)]
    lines += _params_lines(bio, beta, global_rot, translation)
    Path(path).write_text("\n".join(lines) + "\n")


def load_params_file(path):
    """Inverse of write_params_file, as (angles, beta, global_rot,
    translation) arrays; a fit report loads too (its iterations and loss
    lines are skipped, and so are older reports' converged lines).  Text
    after '#' is a comment.  Any other line must be a known key with its
    field count, each value given at most once.  Values are finite, and
    |beta| is at most ``ik_optim.MAX_INIT_BETA``, as ``fit`` starts from
    them."""
    values = {"bio": np.zeros(bio_dof.DOF_COUNT), "beta": np.zeros(10),
              "global_rot": np.zeros(3), "translation": np.zeros(3)}
    seen = set()
    for raw in Path(path).read_text(errors="replace").splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts or parts[0] in ("converged", "iterations", "loss"):
            continue
        key, *fields = parts
        try:
            if key == "bio" and len(fields) == 2:
                i, numbers = bio_dof.DOF_NAMES.index(fields[0]), fields[1]
            elif key == "beta" and len(fields) == 2 and fields[0].isdecimal():
                i, numbers = int(fields[0]), fields[1]  # "-1" would set beta[9]
            elif key in ("global_rot", "translation") and len(fields) == 3:
                i, numbers = ..., fields
            else:
                raise ValueError("unknown key or index, or wrong field count")
            if (key, i) in seen:
                raise ValueError("repeated")
            seen.add((key, i))
            values[key][i] = np.array(numbers, dtype=float)
        except (ValueError, IndexError) as exc:
            raise InputError(f"{path}: bad params line {raw!r} ({exc})") from exc
    if not np.isfinite(np.concatenate(list(values.values()))).all():
        raise InputError(f"{path}: non-finite parameter values")
    if np.abs(values["beta"]).max() > ik_optim.MAX_INIT_BETA:
        raise InputError(f"{path}: |beta| must be <= {ik_optim.MAX_INIT_BETA:g}")
    return tuple(values.values())


# ---------------------------------------------------------------------------
# shared option handling
# ---------------------------------------------------------------------------

def _resolve_model(args) -> HandModel:
    path = getattr(args, "model", None) or os.environ.get(MODEL_ENV_VAR)
    if not path:
        raise InputError(f"--model is required (or set {MODEL_ENV_VAR})")
    return load_model(path)


def _resolve_limits(args) -> bio_dof.DofLimits:
    path = getattr(args, "limits", None)
    return bio_dof.DofLimits.load(path) if path else bio_dof.DofLimits.default()


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seed(text: str) -> int:
    """argparse type for --seed: a nonnegative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer: {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_model_desk(args) -> int:
    model = make_desk_hand_small() if args.small else make_desk_hand()
    save_model(model, args.out, text=args.text)
    print(f"wrote {args.out} ({model.vertex_count} vertices)")
    return EXIT_OK


def cmd_fk(args) -> int:
    model = _resolve_model(args)
    posed = kin.fk_forward(model, *load_pose_file(args.pose), want_vertices=True)
    out = _out_dir(args)
    write_obj(posed.vertices[0], model.faces, out / "mesh.obj")
    (out / "skeleton.txt").write_text(
        "\n".join(_fmt_row(row) for row in posed.joints[0]) + "\n")
    print(f"wrote {out / 'mesh.obj'} and {out / 'skeleton.txt'}")
    return EXIT_OK


def cmd_ik_fit(args) -> int:
    """Fit the target records in one batched solve per vertex count (no
    vertices is a count of its own); several records give numbered files."""
    model = _resolve_model(args)
    limits = _resolve_limits(args)
    records = load_annotation_records(args.target)
    config = ik_optim.FitConfig(
        iterations=args.iterations, step_size=args.step_size,
        bend_weight=args.bend_weight, freeze_shape=args.freeze_shape)
    if args.from_ik_net:
        net = ik_net.load_checkpoint(args.from_ik_net)
        init = ik_net.predict(
            net, ik_net.featurize_batch([r.joints for r in records]), limits)
    elif args.init:
        init = load_params_file(args.init)
    else:
        raise InputError("ik-fit needs --init or --from-ik-net")

    counts = [None if r.vertices is None else len(r.vertices) for r in records]
    results = [None] * len(records)
    for count in dict.fromkeys(counts):   # apart: each record keeps its own loss terms
        rows = [i for i, c in enumerate(counts) if c == count]
        target = ik_optim.FitTarget([records[i].joints for i in rows], None if count is None
                                    else [records[i].vertices for i in rows])
        row_init = [p[rows] for p in init] if args.from_ik_net else init
        for i, result in zip(rows, ik_optim.fit(model, target, *row_init, config=config,
                                                limits=limits)):
            results[i] = result
    out = _out_dir(args)
    for i, r in enumerate(results):
        params = r.bio.values, r.beta.beta, r.global_rot, r.translation
        write_fit_report(out / _numbered("fit_report", i, len(results)),
                         r.loss_trace, *params)
        write_params_file(out / _numbered("fit_params", i, len(results)), *params)
    print(f"wrote {len(results)} fit report(s) to {out} (final loss "
          f"{_fmt_row(min(r.loss_trace) for r in results)})")
    return EXIT_OK


def cmd_ik_train(args) -> int:
    model = _resolve_model(args)
    limits = _resolve_limits(args)
    config = ik_net.TrainConfig(epochs=args.epochs,
                                decay_epochs=tuple(args.decay_epoch or (30, 35)),
                                batch_size=args.batch_size,
                                learning_rate=args.rate, seed=args.seed)
    data = ik_net.generate_pairs(model, args.pairs, limits, seed=args.seed)
    net, curve = ik_net.train(ik_net.MlpIk(seed=args.seed), data, config)
    out = _out_dir(args)
    ik_net.save_checkpoint(net, out / "ik_net.hkc")
    lines = ["epoch,total,theta,beta,pose"]
    for row in curve:
        lines.append(",".join([str(int(row["epoch"]))] +
                              [_fmt(row[k]) for k in ("total", "theta", "beta",
                                                      "pose")]))
    (out / "loss_curve.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'ik_net.hkc'} (final loss {_fmt(curve[-1]['total'])})")
    return EXIT_OK


def cmd_ik_predict(args) -> int:
    limits = _resolve_limits(args)
    net = ik_net.load_checkpoint(args.ckpt)
    records = load_annotation_records(args.target)
    bio, beta = ik_net.predict(
        net, ik_net.featurize_batch([r.joints for r in records]), limits)
    out = _out_dir(args)
    for i, (b, s) in enumerate(zip(bio, beta)):
        write_params_file(out / _numbered("params", i, len(records)),
                          b, s, np.zeros(3), np.zeros(3))
    print(f"wrote {len(records)} parameter file(s) to {out}")
    return EXIT_OK


def cmd_lixel(args) -> int:
    heatmap = lixel.encode(args.coord, args.length, args.sigma)
    Path(args.out).write_text(lixel.dump_text(heatmap))
    decoded = lixel.decode(heatmap)
    print(f"wrote {args.length}-lixel heatmap to {args.out} "
          f"(decodes to {_fmt(decoded)})")
    return EXIT_OK


def cmd_eval(args) -> int:
    pred = load_annotation_records(args.pred)
    gt = load_annotation_records(args.gt)
    if len(pred) != len(gt):
        raise ShapeError(f"record counts differ: {len(pred)} vs {len(gt)}")
    have_verts = all(r.vertices is not None for r in pred + gt)
    report = metrics.evaluate(
        [r.joints for r in pred], [r.joints for r in gt],
        [r.vertices for r in pred] if have_verts else None,
        [r.vertices for r in gt] if have_verts else None,
        thresholds=args.threshold or metrics.DEFAULT_F_THRESHOLDS,
        root_center=args.root_center).to_text()
    Path(args.out).write_text(report)
    sys.stdout.write(report)
    return EXIT_OK


def cmd_profile(args) -> int:
    if args.graph in profiler.CATALOG:
        graph = profiler.CATALOG[args.graph]()
    elif Path(args.graph).is_file():
        graph = profiler.load_graph_text(args.graph,
                                         input_stride=args.input_stride)
    else:
        raise InputError(f"unknown graph {args.graph!r} (catalog: "
                         f"{', '.join(sorted(profiler.CATALOG))}) and no such file")
    report = profiler.profile(graph, args.resolution).to_text()
    if args.out:
        Path(args.out).write_text(report)
    sys.stdout.write(report)
    return EXIT_OK


def cmd_synth_cameras(args) -> int:
    cams = synth.sample_cameras(elev_min=args.elev_min, elev_max=args.elev_max,
                                azim_step=args.azim_step,
                                elev_step=args.elev_step)
    Path(args.out).write_text(synth.cameras_to_text(cams))
    print(f"wrote {len(cams)} cameras to {args.out}")
    return EXIT_OK


def cmd_synth_poses(args) -> int:
    if args.library:
        lib = synth.load_pose_library(args.library)
    else:
        lib = synth.make_pose_library(_resolve_model(args), count=args.count,
                                      limits=_resolve_limits(args), seed=args.seed)
    augmented = synth.augment_library(lib, per_pose=args.per_pose,
                                      seed=args.seed,
                                      swap_probability=args.swap_probability)
    synth.save_pose_library(augmented, args.out)
    print(f"wrote {len(augmented)} poses to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handkit",
        description="hand kinematics toolkit: FK, 23-DoF IK, metrics, "
                    "profiling, and synthetic data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="model utilities")
    msub = p.add_subparsers(dest="model_command", required=True)
    p = msub.add_parser("desk", help="write the procedural desk-hand model")
    p.add_argument("--out", required=True)
    p.add_argument("--small", action="store_true",
                   help="reduced vertex count for quick tests")
    p.add_argument("--text", action="store_true", help="plain-text container")
    p.set_defaults(func=cmd_model_desk)

    p = sub.add_parser("fk", help="pose the mesh and skeleton from a pose file")
    p.add_argument("--model")
    p.add_argument("--pose", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fk)

    p = sub.add_parser("ik-fit", help="refine parameters against target joints"
                                      "/vertices")
    p.add_argument("--model")
    p.add_argument("--target", required=True)
    p.add_argument("--init")
    p.add_argument("--from-ik-net", dest="from_ik_net")
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--step-size", type=float, default=0.05)
    p.add_argument("--bend-weight", type=float, default=1e-2)
    p.add_argument("--freeze-shape", action="store_true")
    p.add_argument("--limits")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ik_fit)

    p = sub.add_parser("ik-train", help="train the IK network on self-generated"
                                        " FK pairs")
    p.add_argument("--model")
    p.add_argument("--pairs", type=int, default=20000)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--decay-epoch", type=int, action="append",
                   default=None, help="repeatable; default 30 and 35")
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--rate", type=float, default=1e-4)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--limits")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ik_train)

    p = sub.add_parser("ik-predict", help="predict parameters from target "
                                          "skeletons with a trained network")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--limits")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ik_predict)

    p = sub.add_parser("eval", help="metric report for prediction/truth files")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--threshold", type=float, action="append")
    p.add_argument("--root-center", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("lixel", help="dump a coordinate's lixel heatmap as "
                                     "delimiter-separated text")
    p.add_argument("--coord", type=float, required=True)
    p.add_argument("--length", type=int, default=lixel.DEFAULT_RESOLUTION)
    p.add_argument("--sigma", type=float, default=lixel.DEFAULT_SIGMA)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lixel)

    p = sub.add_parser("profile", help="MAC profile of a catalog or text graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--input-stride", type=int, default=1,
                   help="for text graphs that consume backbone features")
    p.add_argument("--out")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("synth", help="synthetic data generation")
    ssub = p.add_subparsers(dest="synth_command", required=True)
    p = ssub.add_parser("cameras", help="camera grid on the unit sphere")
    p.add_argument("--elev-min", type=float, default=synth.DEFAULT_ELEV_MIN)
    p.add_argument("--elev-max", type=float, default=synth.DEFAULT_ELEV_MAX)
    p.add_argument("--azim-step", type=float, default=synth.DEFAULT_STEP)
    p.add_argument("--elev-step", type=float, default=synth.DEFAULT_STEP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth_cameras)
    p = ssub.add_parser("poses", help="finger-swap augmented pose library")
    p.add_argument("--model")
    p.add_argument("--limits")
    p.add_argument("--library", help="existing pose-library container")
    p.add_argument("--count", type=int, default=synth.BASE_LIBRARY_SIZE)
    p.add_argument("--per-pose", type=int, default=synth.DEFAULT_VARIANTS_PER_POSE)
    p.add_argument("--swap-probability", type=float, default=0.5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth_poses)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HandkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
