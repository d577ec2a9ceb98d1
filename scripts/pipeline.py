#!/usr/bin/env python3
"""The paper's two kinematic experiments on the desk hand.

    python scripts/pipeline.py recover [--runs N] [--iterations N] [--sigma RAD] [--seed S]
    python scripts/pipeline.py train [--pairs N] [--holdout N] [--epochs N] [--seed S]
                                     [--checkpoint PATH]

``recover`` draws noiseless targets from seeded feasible poses, perturbs
the initial angles by ``--sigma`` radians, refines every run in one batched
``fit`` and reports how often and how far the refinement recovers the
generating pose.  ``train`` trains the IK network on self-generated
forward-kinematics pairs and reports the held-out joint error before and
after.  Acceptance criteria 6 and 7 call ``recovery_runs`` and
``held_out_error`` at their own settings.
"""

import argparse
import math
import sys
import time

import numpy as np

from handkit import bio_dof, ik_net, ik_optim, kinematics as kin, metrics
from handkit.errors import HandkitError
from handkit.hand_model import make_desk_hand


def recovery_runs(model, limits, axes, seeds, iterations, sigma):
    """(before, after, PA) MPJPE in mm of each seeded recovery; one fit
    solves all."""
    draws = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        bio_t = bio_dof.sample_uniform(limits, 1, rng)[0]
        beta_t = rng.normal(scale=0.5, size=10)
        init = np.clip(bio_t + rng.normal(scale=sigma, size=23),
                       limits.lower, limits.upper)
        draws.append((bio_t, beta_t, init))
    bio_t, beta_t, init = (np.array(column) for column in zip(*draws))

    def joints_at(bio, beta, rot=None, trans=None, want_vertices=False):
        return kin.fk_forward(model, bio_dof.expand_batch(bio, axes), beta, rot, trans,
                              want_vertices=want_vertices, want_regressed=True)

    out = joints_at(bio_t, beta_t, want_vertices=True)
    target = ik_optim.FitTarget(joints=out.regressed_joints, vertices=out.vertices)
    results = ik_optim.fit(model, target, init_bio=init, init_beta=beta_t,
                           config=ik_optim.FitConfig(iterations=iterations),
                           limits=limits, axes=axes)
    before = joints_at(init, beta_t).regressed_joints
    final = joints_at(*(np.array(column) for column in zip(*(
        (r.bio.values, r.beta.beta, r.global_rot, r.translation) for r in results))))
    return [(metrics.mpjpe(b, t), metrics.mpjpe(f, t), metrics.pa_mpjpe(f, t))
            for b, f, t in zip(before, final.regressed_joints, target.joints)]


def held_out_error(net, model, axes, held):
    """Mean absolute joint error (mm) of ``net``'s predictions on the pair
    set ``held``, posed through forward kinematics."""
    theta, beta = net.forward(ik_net.featurize_batch(held.skeletons), training=False)
    joints = kin.fk_forward(model, bio_dof.expand_batch(theta, axes), beta,
                            want_regressed=True).regressed_joints
    return float(np.abs(joints - held.skeletons).mean())


def recover(args, model, limits, axes):
    runs = recovery_runs(model, limits, axes, range(args.seed, args.seed + args.runs),
                         args.iterations, args.sigma)
    for run, (before, after, pa) in enumerate(runs):
        print(f"run {run:3d}: {before:7.3f} mm -> {after:7.4f} mm (PA {pa:7.4f} mm)")
    wins = sum(after < before for before, after, _ in runs)
    pa_errors = [pa for _, _, pa in runs]
    print(f"\nimproved in {wins}/{args.runs} runs; "
          f"mean PA-MPJPE {np.mean(pa_errors):.4f} mm, max {np.max(pa_errors):.4f} mm")


def train(args, model, limits, axes):
    data = ik_net.generate_pairs(model, args.pairs, limits, seed=args.seed)
    held = ik_net.generate_pairs(model, args.holdout, limits, seed=args.seed + 1)
    net = ik_net.MlpIk(seed=args.seed)
    before = held_out_error(net, model, axes, held)
    print(f"untrained held-out joint error: {before:.3f} mm")

    decay = tuple(d for d in (30, 35) if d < args.epochs)
    config = ik_net.TrainConfig(epochs=args.epochs, decay_epochs=decay, seed=args.seed)
    start = time.time()
    net, curve = ik_net.train(net, data, config)
    for row in curve:
        print(f"epoch {row['epoch']:3d}: total {row['total']:8.4f} "
              f"(theta {row['theta']:.4f}, beta {row['beta']:.4f}, "
              f"pose {row['pose']:8.4f})")
    after = held_out_error(net, model, axes, held)
    print(f"trained held-out joint error: {after:.3f} mm "
          f"({before / after:.1f}x lower) in {time.time() - start:.0f} s")

    if args.checkpoint:
        ik_net.save_checkpoint(net, args.checkpoint)
        print(f"wrote {args.checkpoint}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # one line, no usage block
        self.exit(2, f"{self.prog}: error: {message}\n")


def _at_least(low, cast=int):
    """argparse type: a finite ``cast`` of ``low`` or more."""
    def parse(text):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan
        if not low <= value < math.inf:
            kind = "an integer" if cast is int else "a number"
            raise argparse.ArgumentTypeError(f"must be {kind} >= {low}, got {text!r}")
        return value
    return parse


def main():
    parser = _Parser(description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    count, seed = _at_least(1), _at_least(0)
    p = commands.add_parser("recover", help="seeded recovery statistics of the fit")
    p.add_argument("--runs", type=count, default=100)
    p.add_argument("--iterations", type=count, default=20)
    p.add_argument("--sigma", type=_at_least(0, float), default=0.1,
                   help="init perturbation, radians")
    p.add_argument("--seed", type=seed, default=0)
    p.set_defaults(func=recover)
    p = commands.add_parser("train", help="IK net training with held-out error")
    p.add_argument("--pairs", type=count, default=20000)
    p.add_argument("--holdout", type=count, default=1000)
    p.add_argument("--epochs", type=count, default=40)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--checkpoint", help="optional output path")
    p.set_defaults(func=train)
    args = parser.parse_args()

    model = make_desk_hand()
    try:
        args.func(args, model, bio_dof.DofLimits.default(), bio_dof.derive_axes(model))
    except (HandkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
