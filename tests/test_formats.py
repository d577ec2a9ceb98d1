"""A stored file is its arrays.  Each writer's header holds only what its
loader reads: the kind, and a model's units.  Array shapes live in the
container's manifest, and the IK net's architecture lives in code, so a
header key an older writer added is ignored."""

import numpy as np
import pytest

from handkit import ik_net, synth
from handkit.containers import read_container, write_container
from handkit.hand_model import HandModel, load_model, save_model

# name -> (build a value on a model, save, load, the header the saver writes,
#          the keys the older writer also put in that header)
WRITERS = {
    "model": (lambda m: m, save_model, load_model,
              {"kind": "hand_model", "units": "mm"},
              {"vertex_count": 5, "joint_count": 7, "articulated_count": 3,
               "has_pose_basis": True}),
    "model-text": (lambda m: m, lambda m, path: save_model(m, path, text=True),
                   load_model, {"kind": "hand_model", "units": "mm"}, None),
    "checkpoint": (lambda m: ik_net.MlpIk(seed=2), ik_net.save_checkpoint,
                   ik_net.load_checkpoint, {"kind": "ik_net_checkpoint"},
                   {"input_dim": 80, "widths": [2 ** 40]}),
    "pose-library": (lambda m: synth.make_pose_library(m, count=4, seed=1),
                     synth.save_pose_library, synth.load_pose_library,
                     {"kind": "pose_library"}, {"count": 9}),
}


def _arrays(value) -> dict[str, np.ndarray]:
    if isinstance(value, HandModel):
        return {name: getattr(value, name) for name in (
            "rest_vertices", "shape_basis", "joint_regressor", "skinning_weights",
            "faces")}
    if isinstance(value, ik_net.MlpIk):
        return value.arrays
    return {"poses": value.poses}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_header_holds_only_what_its_loader_reads(name, desk_small, tmp_path):
    build, save, _, header, _ = WRITERS[name]
    path = tmp_path / "file"
    save(build(desk_small), path)
    assert read_container(path)[0] == header   # the manifest is popped


@pytest.mark.parametrize("name", sorted(n for n in WRITERS if WRITERS[n][4]))
def test_header_keys_of_an_older_writer_are_ignored(name, desk_small, tmp_path):
    build, save, load, _, legacy = WRITERS[name]
    path, old = tmp_path / "file", tmp_path / "old"
    save(build(desk_small), path)
    header, arrays = read_container(path)
    write_container(old, dict(header, **legacy), arrays)
    want, got = _arrays(load(path)), _arrays(load(old))
    assert list(got) == list(want)
    for key, value in want.items():
        np.testing.assert_array_equal(got[key], value, err_msg=key)
