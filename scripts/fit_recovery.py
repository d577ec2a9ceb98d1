#!/usr/bin/env python3
"""Recovery experiment for the fitting post-processor.

Generates noiseless targets from random feasible parameters, perturbs the
initial angles, and reports how often and how far the refinement recovers
the generating pose.
"""

import argparse

import numpy as np

from handkit import bio_dof, ik_optim, kinematics as kin, metrics
from handkit.hand_model import make_desk_hand


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--iterations", type=int, default=20)
    parser.add_argument("--sigma", type=float, default=0.1,
                        help="init perturbation, radians")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    model = make_desk_hand()
    limits = bio_dof.DofLimits.default()
    axes = bio_dof.derive_axes(model)

    def joints_at(bio, beta, rot=None, trans=None, want_vertices=False):
        return kin.fk_forward(model, bio_dof.expand_batch(bio, axes), beta, rot, trans,
                              want_vertices=want_vertices, want_regressed=True)

    draws = []
    for run in range(args.runs):
        rng = np.random.default_rng(args.seed + run)
        bio_t = bio_dof.sample_uniform(limits, 1, rng)[0]
        beta_t = rng.normal(scale=0.5, size=10)
        init = np.clip(bio_t + rng.normal(scale=args.sigma, size=23),
                       limits.lower, limits.upper)
        draws.append((bio_t, beta_t, init))
    bio_t, beta_t, init = (np.array(column) for column in zip(*draws))
    out = joints_at(bio_t, beta_t, want_vertices=True)
    target = ik_optim.FitTarget(joints=out.regressed_joints, vertices=out.vertices)
    results = ik_optim.fit(
        model, target, init_bio=init, init_beta=beta_t,
        config=ik_optim.FitConfig(iterations=args.iterations),
        limits=limits, axes=axes)   # every run in one batched solve
    before = joints_at(init, beta_t).regressed_joints
    final = joints_at(*(np.array(column) for column in zip(*(
        (r.bio.values, r.beta.beta, r.global_rot, r.translation)
        for r in results)))).regressed_joints

    wins = 0
    pa_errors = []
    for run, (start, end, truth) in enumerate(zip(before, final, target.joints)):
        err_before, err_after = metrics.mpjpe(start, truth), metrics.mpjpe(end, truth)
        pa = metrics.pa_mpjpe(end, truth)
        wins += err_after < err_before
        pa_errors.append(pa)
        print(f"run {run:3d}: {err_before:7.3f} mm -> {err_after:7.4f} mm "
              f"(PA {pa:7.4f} mm)")

    print(f"\nimproved in {wins}/{args.runs} runs; "
          f"mean PA-MPJPE {np.mean(pa_errors):.4f} mm, "
          f"max {np.max(pa_errors):.4f} mm")


if __name__ == "__main__":
    main()
