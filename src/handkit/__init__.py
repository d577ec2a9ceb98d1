"""Hand kinematics toolkit.

Parametric hand mesh with linear-blend-skinning forward kinematics, a
biomechanically feasible 23-DoF pose space with learned and
optimization-based inverse kinematics, 1D lixel heatmaps, synthetic
pose/camera generation, pose-estimation metrics, and an analytic MAC
profiler for neural architectures.
"""

from .bio_dof import (BioPose, DofLimits, clamp, derive_axes, expand_batch,
                      is_feasible)
from .hand_model import (HandModel, ShapeParams, Skeleton, from_mano_arrays,
                         load_model, make_desk_hand, make_desk_hand_small,
                         regress_joints, save_model, write_obj)
from .ik_net import (MlpIk, SynthPairSet, TrainConfig, batch_loss,
                     featurize_batch, generate_pairs, load_checkpoint, predict,
                     save_checkpoint, train)
from .ik_optim import (FitConfig, FitResult, FitTarget, bend_penalty_with_grad,
                       fit)
from .lixel import Heatmap1D, decode, encode, marginalize
from .metrics import EvalReport, evaluate, fscore, mpjpe, pa_mpjpe, procrustes_align
from .profiler import (LayerSpec, NetGraph, compare_decoders, layer_macs,
                       profile)
from .synth import (CameraPose, PoseLibrary, augment_library, project,
                    sample_cameras, swap_fingers)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
