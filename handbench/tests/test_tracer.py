import numpy as np
import pytest

import run
import tracer as tr
import workloads
from handkit import containers, hand_model, ik_net, kinematics, rotations, synth


def test_self_time_on_hand_built_tree():
    spans = [("a", 0.0, 10.0, -1),     # children b, b: 3 + 2 covered
             ("b", 1.0, 4.0, 0),       # child c: 1 covered
             ("c", 2.0, 3.0, 1),
             ("b", 5.0, 7.0, 0),
             ("d", 20.0, 21.0, -1)]
    out = tr.self_times(spans, 0, len(spans))
    assert out == {"a": (1, 5.0), "b": (2, 4.0), "c": (1, 1.0), "d": (1, 1.0)}
    # a cut range keeps each span's own self time
    assert tr.self_times(spans, 1, 3) == {"b": (1, 2.0), "c": (1, 1.0)}


def test_covered_merges_overlaps_and_clips():
    assert tr._covered([(3.0, 6.0), (1.0, 4.0)], 0.0, 5.0) == pytest.approx(4.0)
    assert tr._covered([], 0.0, 5.0) == 0.0


def test_wrapper_records_nesting_and_counts():
    model = hand_model.make_desk_hand_small()
    tracer = tr.Tracer()
    installed = tr.install(tracer)
    try:
        kinematics.fk_forward(model, np.zeros((3, 45)))
    finally:
        installed.restore()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "kinematics.fk_forward"
    assert names[1:] == ["rotations.rodrigues_with_jacobian"] * 2
    assert all(parent == 0 for _, _, _, parent in tracer.spans[1:])
    assert tracer.counts["kinematics.fk_forward.rows"] == 3


def test_setup_spans_stay_out_of_the_window():
    model = hand_model.make_desk_hand_small()
    tracer = tr.Tracer()
    installed = tr.install(tracer)
    try:
        kinematics.fk_forward(model, np.zeros((5, 45)))     # set-up
        tracer.start_window()
        kinematics.fk_forward(model, np.zeros((2, 45)))     # measured
    finally:
        installed.restore()
    out = tracer.layer_metrics()
    assert out["kinematics.fk_forward.calls"][0] == 1
    assert out["rotations.rodrigues_with_jacobian.calls"][0] == 2
    assert out["kinematics.fk_forward.rows"][0] == 2
    assert out["setup.kinematics.fk_forward.self_s"][0] > 0.0
    assert out["setup.lixel.decode.self_s"][0] == 0.0


def test_wrappers_fully_removed_after_traced_run(tmp_path, monkeypatch):
    originals = {
        "fk": kinematics.fk_forward,
        "rod": rotations.rodrigues_with_jacobian,
        "write": containers.write_container,
        "forward": ik_net.MlpIk.__dict__["forward"],
    }
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = workloads.Train(tmp_path, pairs=64, held=32, slice_size=64)
    checks, figures, metrics, attempted, failed = run._traced(wl, 3, 0.0, {})

    assert checks["wrappers_removed"]
    assert tr.wrapped_attributes() == []
    assert kinematics.fk_forward is originals["fk"]
    assert kinematics.rodrigues_with_jacobian is originals["rod"]
    assert synth.write_container is originals["write"]
    assert ik_net.write_container is originals["write"]
    assert ik_net.MlpIk.__dict__["forward"] is originals["forward"]
    # the traced pass did go through the wrappers
    assert metrics["ik_net.MlpIk.forward.calls"][0] > 0
    assert metrics["containers.bytes_written"][0] > 0
    assert set(f"{n}.calls" for n in tr.SPAN_NAMES) <= set(metrics)
    assert (tmp_path / figures["spans_file"]).is_file()


def test_install_refuses_to_nest():
    installed = tr.install(tr.Tracer())
    try:
        with pytest.raises(RuntimeError):
            tr.install(tr.Tracer())
    finally:
        installed.restore()
    assert tr.wrapped_attributes() == []
