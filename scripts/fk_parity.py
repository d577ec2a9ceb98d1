#!/usr/bin/env python3
"""Compare FK outputs and gradients of this checkout with another one, or
time the two side by side.

    python scripts/fk_parity.py --parent OTHER/src
    python scripts/fk_parity.py --parent OTHER/src --time [ROUNDS]

Each checkout's ``handkit`` poses the same seeded set in its own subprocess:
B = 1, 32 and 256 on the desk hand, with and without a pose basis, with
``global_rot`` None or random.  Every case runs the forward pass with
vertices and regressed joints, then ``fk_backward`` once per cotangent
(vertices, regressed joints).  The script prints the worst absolute
output difference (mm), the same over the ``global_rot=None`` cases alone,
and the worst relative gradient difference: per array, max |a - b| over the
larger of the two max |a|.

``--time`` imports both checkouts into this one process, the other one
under the package name ``handkit_parent`` (``src/handkit`` uses only
relative imports), because timings taken in separate processes drift far
more than the differences measured here.  Each round times, alternating
which side goes first, ``fk_forward`` (and ``fk_backward`` with gradients)
on each checkout's desk hand for four cases: B = 1 with vertices and
gradients (a fit), B = 32 regressed with gradients (a training step),
B = 256 with vertices and no gradients (posing a library) and B = 1024
joints only.  It prints each case's median time per call on both sides
and their ratio (this checkout over the other).
"""

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BATCHES = (1, 32, 256)
OUTPUTS = ("joints", "vertices", "regressed_joints")
#: cotangent -> the output it matches
COTANGENTS = {"d_vertices": "vertices", "d_regressed": "regressed_joints"}
PARAMS = ("articulation", "beta", "global_rot", "translation")


def pose_set(path):
    """Pose the seeded set with the importable ``handkit``; save to ``path``."""
    from handkit import kinematics as kin
    from handkit.hand_model import HandModel, make_desk_hand

    desk = make_desk_hand()
    rng = np.random.default_rng(0)
    with_basis = HandModel(desk.rest_vertices, desk.shape_basis, desk.joint_regressor,
                           desk.skinning_weights, desk.parents, desk.faces,
                           pose_basis=rng.normal(scale=0.5, size=(
                               kin.POSE_BASIS_SIZE, desk.vertex_count, 3)))
    arrays = {}
    for batch in BATCHES:
        for basis, model in (("basis", with_basis), ("plain", desk)):
            for rot in ("rot", "none"):
                art = rng.normal(scale=0.4, size=(batch, 45))
                beta = rng.normal(scale=0.5, size=(batch, 10))
                global_rot = rng.normal(scale=0.4, size=(batch, 3)) if rot == "rot" else None
                translation = rng.normal(scale=20.0, size=(batch, 3))
                out = kin.fk_forward(model, art, beta, global_rot, translation,
                                     want_vertices=True, want_regressed=True,
                                     need_grad=True)
                case = f"B{batch}-{basis}-{rot}"
                for name in OUTPUTS:
                    arrays[f"{case}/out/{name}"] = getattr(out, name)
                for name, output in COTANGENTS.items():
                    shape = getattr(out, output).shape
                    grads = kin.fk_backward(model, out, **{name: rng.normal(size=shape)})
                    for param in PARAMS:
                        arrays[f"{case}/{name}/{param}"] = getattr(grads, param)
    np.savez(path, **arrays)


#: (name, batch, forward options, cotangents) of the timed cases
TIME_CASES = (
    ("B1 vertices grad", 1, dict(want_vertices=True, want_regressed=True, need_grad=True),
     ("d_regressed", "d_vertices")),
    ("B32 regressed grad", 32, dict(want_regressed=True, need_grad=True), ("d_regressed",)),
    ("B256 vertices", 256, dict(want_vertices=True), ()),
    ("B1024 joints", 1024, {}, ()),
)


def import_as(src, name):
    """Import the ``handkit`` package under ``src`` as the package ``name``."""
    init = Path(src).resolve() / "handkit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def time_checkouts(src, parent_src, rounds):
    """Median seconds per call of each case on both checkouts."""
    rng = np.random.default_rng(0)
    sides = []
    for package in (import_as(src, "handkit"), import_as(parent_src, "handkit_parent")):
        model = package.hand_model.make_desk_hand()
        sides.append((package.kinematics, model))
    cases = []
    for name, batch, options, cotangents in TIME_CASES:
        params = (rng.normal(scale=0.4, size=(batch, 45)),
                  rng.normal(scale=0.5, size=(batch, 10)),
                  rng.normal(scale=0.4, size=(batch, 3)),
                  rng.normal(scale=20.0, size=(batch, 3)))
        out = sides[0][0].fk_forward(sides[0][1], *params, **options)
        shapes = {"d_regressed": out.regressed_joints, "d_vertices": out.vertices}
        grads = {d: rng.normal(size=shapes[d].shape) for d in cotangents}
        cases.append((name, params, options, grads))

    def call(kin, model, params, options, grads):
        out = kin.fk_forward(model, *params, **options)
        if grads:
            kin.fk_backward(model, out, **grads)

    # about 20 ms of calls per lap: few enough laps to alternate often
    laps = []
    for _, params, options, grads in cases:
        start = time.perf_counter()
        call(*sides[0], params, options, grads)
        laps.append(max(1, int(0.02 / (time.perf_counter() - start))))
    times = np.zeros((len(cases), 2, rounds))
    for r in range(rounds):
        for c, (_, params, options, grads) in enumerate(cases):
            for side in ((0, 1) if (r + c) % 2 == 0 else (1, 0)):
                kin, model = sides[side]
                start = time.perf_counter()
                for _ in range(laps[c]):
                    call(kin, model, params, options, grads)
                times[c, side, r] = (time.perf_counter() - start) / laps[c]
    return [(name, *np.median(times[c], axis=1)) for c, (name, *_) in enumerate(cases)]


def run_checkout(src, path):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    subprocess.run([sys.executable, __file__, "--dump", str(path)],
                   env=env, check=True)
    with np.load(path) as data:
        return dict(data)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", help="the other checkout's src/ directory")
    parser.add_argument("--time", nargs="?", type=int, const=30, metavar="ROUNDS",
                        help="time both checkouts in this process (default 30 rounds)")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        pose_set(args.dump)
        return
    if not args.parent:
        parser.error("--parent is required")
    if args.time is not None:
        if args.time < 1:
            parser.error("--time needs at least one round")
        print(f"{'case':20s} {'this (ms)':>10s} {'parent (ms)':>12s} {'ratio':>7s}")
        for name, mine, theirs in time_checkouts(ROOT / "src", args.parent, args.time):
            print(f"{name:20s} {mine * 1e3:10.4f} {theirs * 1e3:12.4f} {mine / theirs:7.3f}")
        return

    with tempfile.TemporaryDirectory() as tmp:
        mine = run_checkout(ROOT / "src", Path(tmp) / "src.npz")
        theirs = run_checkout(args.parent, Path(tmp) / "parent.npz")
    if mine.keys() != theirs.keys():
        sys.exit("error: the two checkouts posed different sets")
    out_worst = out_none_worst = grad_worst = 0.0
    for key, a in mine.items():
        diff = float(np.abs(a - theirs[key]).max())
        if "/out/" in key:
            out_worst = max(out_worst, diff)
            if "-none/" in key:
                out_none_worst = max(out_none_worst, diff)
        elif diff:
            scale = max(np.abs(a).max(), np.abs(theirs[key]).max())
            grad_worst = max(grad_worst, diff / float(scale))
    print(f"{len(BATCHES) * 4} cases, {len(mine)} arrays")
    print(f"worst output difference: {out_worst:.3g} mm")
    print(f"worst output difference with global_rot=None: {out_none_worst:.3g} mm")
    print(f"worst relative gradient difference: {grad_worst:.3g}")


if __name__ == "__main__":
    main()
