#!/usr/bin/env python3
"""Compare FK outputs and gradients of this checkout with another one.

    python scripts/fk_parity.py --parent OTHER/src

Each checkout's ``handkit`` poses the same seeded set in its own subprocess:
B = 1, 32 and 256 on the desk hand, with and without a pose basis, with
``global_rot`` None or random.  Every case runs the forward pass with
vertices and regressed joints, then ``fk_backward`` once per cotangent
(joints, vertices, regressed joints).  The script prints the worst absolute
output difference (mm), the same over the ``global_rot=None`` cases alone,
and the worst relative gradient difference: per array, max |a - b| over the
larger of the two max |a|.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BATCHES = (1, 32, 256)
OUTPUTS = ("joints", "vertices", "regressed_joints")
COTANGENTS = ("d_joints", "d_vertices", "d_regressed")
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
                for name in COTANGENTS:
                    shape = getattr(out, OUTPUTS[COTANGENTS.index(name)]).shape
                    grads = kin.fk_backward(model, out, **{name: rng.normal(size=shape)})
                    for param in PARAMS:
                        arrays[f"{case}/{name}/{param}"] = getattr(grads, param)
    np.savez(path, **arrays)


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
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        pose_set(args.dump)
        return
    if not args.parent:
        parser.error("--parent is required")

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
