#!/usr/bin/env python3
"""Compare FK and fit-loss outputs and gradients of this checkout with
another one, or time the two side by side.

    python scripts/fk_parity.py --parent OTHER/src
    python scripts/fk_parity.py --parent OTHER/src --time [ROUNDS]

Both checkouts are imported into this one process, the other one under
the package name ``handkit_parent`` (``src/handkit`` uses only relative
imports); both must take this checkout's signatures
(``fk_backward(cache, ...)`` and ``batch_fit_loss`` without an axis
table).  Each checkout's package poses the same seeded set: B = 1, 32 and
256 on the desk hand, with and without a pose basis, with ``global_rot``
None or random.  Every case runs the forward pass with vertices and
regressed joints, then ``fk_backward`` once per cotangent (vertices,
regressed joints), and the same forward pass once more without gradients
(``need_grad=False``, the path the ``fk`` command, ``generate_pairs``
and the benchmark's ``synth-mesh`` workload take).  Each case is also
posed regressed-only, with gradients (pulled back from the same
regressed-joint cotangent) and without: a call with vertices reads its
regressed joints off the mesh, so only these poses take the collapsed
route that ``ik_net.train`` takes.  The loss layer runs at B = 1 and 8 on
the desk hand: ``bend_penalty_with_grad`` of posed skeletons, and
``batch_fit_loss`` with gradients against target joints and vertices
with bend weight 1e-2.  Its fit parameters and targets are posed once,
by this checkout's package, and both sides read the same arrays, so the
loss-layer lines measure the loss layer alone.  The script prints the
worst absolute FK output difference (mm), the same over the
``global_rot=None`` cases alone, the same over the no-gradient forward
passes, the worst regressed-only output difference (mm) and relative
gradient difference, the worst relative FK gradient difference (per
array, max |a - b| over the larger of the two max |a|), and the worst
relative value and gradient differences of the loss layer.

``--time`` times the two checkouts instead.  Sharing one process matters
most there: timings taken in separate processes drift far more than the
differences measured here.  Each round times, alternating which side goes
first, ``fk_forward`` (and ``fk_backward`` with gradients)
on each checkout's desk hand for four cases: B = 1 with vertices and
gradients (a fit), B = 32 regressed with gradients (a training step),
B = 256 with vertices and no gradients (posing a library) and B = 1024
joints only; one B = 1 iteration of ``fit`` against joints and vertices
(``batch_fit_loss`` with gradients, then ``adam_step``); one whole
B = 1 ``fit`` call of 20 iterations against joints and vertices, as the
benchmark's ``refine`` workload runs it; and the net part of a B = 32
training step: ``MlpIk`` forward with batch statistics, backward and
``adam_step``.  Two scoring cases follow, as the
benchmark's ``score`` workload runs them: ``metrics.evaluate`` on a group
of 8 seeded desk-hand poses (21 joints and 778 vertices each, predictions
3 mm off) with F-scores at 5 and 15 mm, and one ``lixel.decode`` of
(8, 21, 3, 64) encoded heatmaps.  Two per-call cases follow: the same
8 x 21 x 3 = 504 heatmaps decoded one (64,) call each, as ``score`` decodes
a group, and ``lixel.encode`` of their 504 coordinates, one call each.  It
prints each case's median time per call on both sides and their ratio
(this checkout over the other).
"""

import argparse
import dataclasses
import functools
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BATCHES = (1, 32, 256)
LOSS_BATCHES = (1, 8)
FIT_GRADS = ("bio", "beta", "global_rot", "translation")
OUTPUTS = ("joints", "vertices", "regressed_joints")
#: cotangent -> the output it matches
COTANGENTS = {"d_vertices": "vertices", "d_regressed": "regressed_joints"}
PARAMS = ("articulation", "beta", "global_rot", "translation")


def pose_set(package, loss_inputs=None):
    """The seeded set's arrays, posed with the imported ``package``, and
    the loss layer's fit inputs: ``loss_inputs`` when given, else posed
    here."""
    kin = package.kinematics
    desk = package.hand_model.make_desk_hand()
    rng = np.random.default_rng(0)
    with_basis = dataclasses.replace(desk, pose_basis=rng.normal(scale=0.5, size=(
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
                cotangents = {name: rng.normal(size=getattr(out, output).shape)
                              for name, output in COTANGENTS.items()}
                for name, cotangent in cotangents.items():
                    grads = kin.fk_backward(out, **{name: cotangent})
                    for param in PARAMS:
                        arrays[f"{case}/{name}/{param}"] = getattr(grads, param)
                plain = kin.fk_forward(model, art, beta, global_rot, translation,
                                       want_vertices=True, want_regressed=True)
                for name in OUTPUTS:
                    arrays[f"{case}/nograd/{name}"] = getattr(plain, name)
                # the collapsed route: no mesh to read the regressed joints off
                regressed = kin.fk_forward(model, art, beta, global_rot, translation,
                                           want_regressed=True, need_grad=True)
                arrays[f"{case}/regressed-only/out"] = regressed.regressed_joints
                grads = kin.fk_backward(regressed, d_regressed=cotangents["d_regressed"])
                for param in PARAMS:
                    arrays[f"{case}/regressed-only/grad/{param}"] = getattr(grads, param)
                arrays[f"{case}/regressed-only/nograd"] = kin.fk_forward(
                    model, art, beta, global_rot, translation,
                    want_regressed=True).regressed_joints
    if loss_inputs is None:
        loss_inputs = [fit_inputs(package, desk, rng, batch) for batch in LOSS_BATCHES]
    arrays.update(loss_set(package, desk, loss_inputs))
    return arrays, loss_inputs


def fit_inputs(package, desk, rng, batch):
    """Seeded (B, 39) fit parameters and (B, 21, 3) and (B, V, 3) targets."""
    bio_dof, kin = package.bio_dof, package.kinematics
    limits, axes = bio_dof.DofLimits.default(), bio_dof.derive_axes(desk)
    bio = bio_dof.sample_uniform(limits, batch, rng)
    x = np.concatenate([bio, rng.normal(scale=0.5, size=(batch, 10)),
                        rng.normal(scale=0.2, size=(batch, 3)),
                        rng.normal(scale=5.0, size=(batch, 3))], axis=1)
    target = kin.fk_forward(desk, bio_dof.expand_batch(
        bio + rng.normal(scale=0.3, size=bio.shape), axes),
        rng.normal(scale=0.5, size=(batch, 10)), want_vertices=True, want_regressed=True)
    return x, target.regressed_joints, target.vertices


def split_params(x):
    """The angle, shape, rotation and translation views of (B, 39) rows."""
    return np.split(x, np.cumsum([23, 10, 3]), axis=1)


def loss_set(package, desk, loss_inputs):
    """The loss layer's arrays: the bend penalty of the targets, and the fit
    loss with gradients, for each of ``LOSS_BATCHES``' fit inputs."""
    ik_optim = package.ik_optim
    arrays = {}
    for batch, (x, joints, vertices) in zip(LOSS_BATCHES, loss_inputs):
        case = f"loss-B{batch}"
        arrays[f"{case}/value/bend"], arrays[f"{case}/grad/bend"] = (
            ik_optim.bend_penalty_with_grad(joints))
        loss, grads = ik_optim.batch_fit_loss(desk, *split_params(x), joints, vertices,
                                              1e-2, "huber", want_grad=True)
        arrays[f"{case}/value/fit"] = loss
        for name, grad in zip(FIT_GRADS, grads):
            arrays[f"{case}/grad/{name}"] = grad
    return arrays


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


def fk_call(kin, model, params, options, grads):
    out = kin.fk_forward(model, *params, **options)
    if grads:
        kin.fk_backward(out, **grads)


def fit_iteration(ik_optim, model, x0, joints, vertices):
    """One iteration of ``fit``'s loop from ``x0``: the loss with gradients,
    then the first Adam step."""
    x = x0.copy()
    _, grads = ik_optim.batch_fit_loss(model, *split_params(x), joints, vertices,
                                       1e-2, "huber", want_grad=True)
    ik_optim.adam_step(x.reshape(-1), np.concatenate(grads, axis=1).reshape(-1),
                       np.zeros((4, x.size)), 1, 0.05)


def whole_fit(package, model, x0, joints, vertices):
    """One 20-iteration ``fit`` call from the (1, 39) ``x0`` on one unbatched
    target."""
    ik_optim = package.ik_optim
    ik_optim.fit(model, ik_optim.FitTarget(joints=joints[0], vertices=vertices[0]),
                 *(p[0] for p in split_params(x0)),
                 config=ik_optim.FitConfig(iterations=20))


def net_step(package, net, feats, d_theta, d_beta, state):
    """The net part of one training step, as ``ik_net.train`` takes it."""
    net.forward(feats, training=True)
    net.backward(d_theta, d_beta)
    package.ik_optim.adam_step(net.flat, net.flat_grad, state, 1, 1e-4)


def each(call, items):
    """``call`` on every item, one call each."""
    for item in items:
        call(item)


def time_checkouts(packages, rounds):
    """Median seconds per call of each case on both checkouts."""
    rng = np.random.default_rng(0)
    models = [package.hand_model.make_desk_hand() for package in packages]
    cases = []   # (name, the call on each side)
    for name, batch, options, cotangents in TIME_CASES:
        params = (rng.normal(scale=0.4, size=(batch, 45)),
                  rng.normal(scale=0.5, size=(batch, 10)),
                  rng.normal(scale=0.4, size=(batch, 3)),
                  rng.normal(scale=20.0, size=(batch, 3)))
        out = packages[0].kinematics.fk_forward(models[0], *params, **options)
        shapes = {"d_regressed": out.regressed_joints, "d_vertices": out.vertices}
        grads = {d: rng.normal(size=shapes[d].shape) for d in cotangents}
        cases.append((name, [functools.partial(fk_call, package.kinematics, model, params,
                                               options, grads)
                             for package, model in zip(packages, models)]))
    inputs = fit_inputs(packages[0], models[0], rng, 1)
    cases.append(("B1 fit iteration", [
        functools.partial(fit_iteration, package.ik_optim, model, *inputs)
        for package, model in zip(packages, models)]))
    cases.append(("B1 fit (20 iterations)", [
        functools.partial(whole_fit, package, model, *inputs)
        for package, model in zip(packages, models)]))
    nets = [package.ik_net.MlpIk(seed=0) for package in packages]
    step_inputs = [rng.normal(size=(32, n)).astype(np.float32)
                   for n in (packages[0].ik_net.FEATURE_DIM, 23, 10)]
    cases.append(("B32 net step", [
        functools.partial(net_step, package, net, *step_inputs,
                          np.zeros((4, net.flat.size), net.dtype))
        for package, net in zip(packages, nets)]))

    pose = (rng.normal(scale=0.4, size=(8, 45)), rng.normal(scale=0.5, size=(8, 10)),
            rng.normal(scale=1.0, size=(8, 3)))
    truth = packages[0].kinematics.fk_forward(models[0], *pose, want_vertices=True)
    joints, vertices = truth.joints, truth.vertices
    sets = [list(a) for a in (joints + rng.normal(scale=3.0, size=joints.shape), joints,
                              vertices + rng.normal(scale=3.0, size=vertices.shape), vertices)]
    cases.append(("score group", [
        functools.partial(package.metrics.evaluate, *sets, thresholds=(5.0, 15.0))
        for package in packages]))
    coords = rng.uniform(0, 1, 8 * 21 * 3).tolist()
    heatmaps = np.array([packages[0].lixel.encode(c).values for c in coords])
    cases.append(("decode (8, 21, 3, 64)", [
        functools.partial(package.lixel.decode, heatmaps.reshape(8, 21, 3, 64))
        for package in packages]))
    cases.append(("decode 504 x (64,)", [
        functools.partial(each, package.lixel.decode, list(heatmaps)) for package in packages]))
    cases.append(("encode 504 coords", [
        functools.partial(each, package.lixel.encode, coords) for package in packages]))

    # about 20 ms of calls per lap: few enough laps to alternate often
    laps = []
    for _, calls in cases:
        start = time.perf_counter()
        calls[0]()
        laps.append(max(1, int(0.02 / (time.perf_counter() - start))))
    times = np.zeros((len(cases), 2, rounds))
    for r in range(rounds):
        for c, (_, calls) in enumerate(cases):
            for side in ((0, 1) if (r + c) % 2 == 0 else (1, 0)):
                start = time.perf_counter()
                for _ in range(laps[c]):
                    calls[side]()
                times[c, side, r] = (time.perf_counter() - start) / laps[c]
    return [(name, *np.median(times[c], axis=1)) for c, (name, _) in enumerate(cases)]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="the other checkout's src/ directory")
    parser.add_argument("--time", nargs="?", type=int, const=30, metavar="ROUNDS",
                        help="time both checkouts (default 30 rounds)")
    args = parser.parse_args()
    if args.time is not None and args.time < 1:
        parser.error("--time needs at least one round")
    packages = (import_as(ROOT / "src", "handkit"), import_as(args.parent, "handkit_parent"))
    if args.time is not None:
        print(f"{'case':24s} {'this (ms)':>10s} {'parent (ms)':>12s} {'ratio':>7s}")
        for name, mine, theirs in time_checkouts(packages, args.time):
            print(f"{name:24s} {mine * 1e3:10.4f} {theirs * 1e3:12.4f} {mine / theirs:7.3f}")
        return

    mine, loss_inputs = pose_set(packages[0])
    theirs, _ = pose_set(packages[1], loss_inputs)
    if mine.keys() != theirs.keys():
        sys.exit("error: the two checkouts posed different sets")
    out_worst = out_none_worst = nograd_worst = grad_worst = 0.0
    loss_value_worst = loss_grad_worst = regressed_out_worst = regressed_grad_worst = 0.0
    for key, a in mine.items():
        diff = float(np.abs(a - theirs[key]).max())
        relative = diff and diff / float(max(np.abs(a).max(), np.abs(theirs[key]).max()))
        if "/regressed-only/grad/" in key:
            regressed_grad_worst = max(regressed_grad_worst, relative)
            continue
        if "/regressed-only/" in key:
            regressed_out_worst = max(regressed_out_worst, diff)
            continue
        if "/nograd/" in key:
            nograd_worst = max(nograd_worst, diff)
            continue
        if "/out/" in key:
            out_worst = max(out_worst, diff)
            if "-none/" in key:
                out_none_worst = max(out_none_worst, diff)
            continue
        if "/value/" in key:
            loss_value_worst = max(loss_value_worst, relative)
        elif key.startswith("loss-"):
            loss_grad_worst = max(loss_grad_worst, relative)
        else:
            grad_worst = max(grad_worst, relative)
    print(f"{len(BATCHES) * 4} FK cases, {len(LOSS_BATCHES)} loss cases, {len(mine)} arrays")
    print(f"worst output difference: {out_worst:.3g} mm")
    print(f"worst output difference with global_rot=None: {out_none_worst:.3g} mm")
    print(f"worst no-grad output difference: {nograd_worst:.3g} mm")
    print(f"worst regressed-only difference: {regressed_out_worst:.3g} mm, "
          f"relative gradient {regressed_grad_worst:.3g}")
    print(f"worst relative gradient difference: {grad_worst:.3g}")
    print(f"worst relative loss-layer value difference: {loss_value_worst:.3g}")
    print(f"worst relative loss-layer gradient difference: {loss_grad_worst:.3g}")


if __name__ == "__main__":
    main()
