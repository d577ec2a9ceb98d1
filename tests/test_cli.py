import json
from pathlib import Path

import numpy as np
import pytest

from handkit import bio_dof, kinematics as kin
from handkit.cli import (EXIT_NUMERIC, EXIT_OK, EXIT_PARSE, EXIT_SHAPE,
                         MODEL_ENV_VAR, load_annotation_records,
                         load_params_file, main, write_fit_report)
from handkit.hand_model import load_model, make_desk_hand_small, save_model


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "desk.hkm"
    save_model(make_desk_hand_small(), path)
    return str(path)


@pytest.fixture()
def pose_file(tmp_path):
    path = tmp_path / "pose.txt"
    art = np.zeros(45)
    art[10] = 0.5
    path.write_text("global_rot: 0.1 0 0\n"
                    "articulation: " + " ".join(str(v) for v in art) + "\n"
                    "beta: 0.2 0 0 0 0 0 0 0 0 0\n")
    return str(path)


def target_json(tmp_path, model_file, name="target.json", unit="mm",
                with_vertices=True, seed=31):
    model = load_model(model_file)
    limits = bio_dof.DofLimits.default()
    axes = bio_dof.derive_axes(model)
    rng = np.random.default_rng(seed)
    art = bio_dof.expand_batch(bio_dof.sample_uniform(limits, 1, rng)[0], axes)
    out = kin.fk_forward(model, art, want_vertices=True)
    scale = 0.001 if unit == "m" else 1.0
    record = {"joints": (out.joints[0] * scale).tolist()}
    if with_vertices:
        record["vertices"] = (out.vertices[0] * scale).tolist()
    path = tmp_path / name
    path.write_text(json.dumps({"unit": unit, "records": [record]}))
    return str(path), out.joints[0]


def test_model_desk_roundtrip(tmp_path):
    out = tmp_path / "m.hkm"
    assert main(["model", "desk", "--small", "--out", str(out)]) == EXIT_OK
    assert load_model(out).joint_regressor.shape[0] == 21


def test_fk_outputs_and_determinism(tmp_path, model_file, pose_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["fk", "--model", model_file, "--pose", pose_file,
                 "--out", str(out1)]) == EXIT_OK
    assert main(["fk", "--model", model_file, "--pose", pose_file,
                 "--out", str(out2)]) == EXIT_OK
    assert (out1 / "mesh.obj").read_bytes() == (out2 / "mesh.obj").read_bytes()
    assert (out1 / "skeleton.txt").read_bytes() == \
        (out2 / "skeleton.txt").read_bytes()


def test_fk_zero_pose_matches_template(tmp_path, model_file):
    pose = tmp_path / "zero.txt"
    pose.write_text("global_rot: 0 0 0\n"
                    "articulation: " + " ".join(["0"] * 45) + "\n")
    out = tmp_path / "fk"
    assert main(["fk", "--model", model_file, "--pose", str(pose),
                 "--out", str(out)]) == EXIT_OK
    model = load_model(model_file)
    verts = np.array([[float(v) for v in line.split()[1:]]
                      for line in (out / "mesh.obj").read_text().splitlines()
                      if line.startswith("v ")])
    np.testing.assert_allclose(verts, model.rest_vertices, atol=1e-6)


def test_fk_skeleton_matches_library(tmp_path, model_file, pose_file):
    out = tmp_path / "fk"
    main(["fk", "--model", model_file, "--pose", pose_file, "--out", str(out)])
    got = np.loadtxt(out / "skeleton.txt")
    model = load_model(model_file)
    art = np.zeros(45)
    art[10] = 0.5
    joints = kin.fk_forward(model, art, [0.2] + [0.0] * 9, [0.1, 0, 0]).joints[0]
    np.testing.assert_allclose(got, joints, atol=1e-5)


def test_fk_warns_beyond_the_shape_soft_bound(tmp_path, model_file):
    pose = tmp_path / "wide.txt"
    pose.write_text("beta: 0 5.5 0 0 0 0 0 0 0 0\n")
    with pytest.warns(UserWarning, match=r"soft bound \|beta\| <= 5"):
        assert main(["fk", "--model", model_file, "--pose", str(pose),
                     "--out", str(tmp_path / "fk")]) == EXIT_OK


def test_fk_missing_pose_file_exit_2(tmp_path, model_file):
    assert main(["fk", "--model", model_file, "--pose",
                 str(tmp_path / "nope.txt"), "--out",
                 str(tmp_path / "o")]) == EXIT_PARSE


def test_fk_bad_pose_sizes_exit_3(tmp_path, model_file):
    pose = tmp_path / "bad.txt"
    pose.write_text("articulation: 1 2 3\n")
    assert main(["fk", "--model", model_file, "--pose", str(pose),
                 "--out", str(tmp_path / "o")]) == EXIT_SHAPE


def test_model_env_var(tmp_path, model_file, pose_file, monkeypatch):
    monkeypatch.setenv(MODEL_ENV_VAR, model_file)
    out = tmp_path / "env"
    assert main(["fk", "--pose", pose_file, "--out", str(out)]) == EXIT_OK


def test_missing_model_exit_2(tmp_path, pose_file, monkeypatch):
    monkeypatch.delenv(MODEL_ENV_VAR, raising=False)
    assert main(["fk", "--pose", pose_file,
                 "--out", str(tmp_path / "o")]) == EXIT_PARSE


# ---------------------------------------------------------------------------
# ik-fit
# ---------------------------------------------------------------------------

def test_ik_fit_self_target_reports_zero_data_loss(tmp_path, model_file):
    target, joints = target_json(tmp_path, model_file)
    # init file holding the exact generating parameters
    model = load_model(model_file)
    limits = bio_dof.DofLimits.default()
    axes = bio_dof.derive_axes(model)
    rng = np.random.default_rng(31)
    bio = bio_dof.sample_uniform(limits, 1, rng)[0]
    init = tmp_path / "init.txt"
    lines = [f"bio {name} {float(v)!r}"
             for name, v in zip(bio_dof.DOF_NAMES, bio)]
    init.write_text("\n".join(lines) + "\n")
    out = tmp_path / "fit"
    assert main(["ik-fit", "--model", model_file, "--target", target,
                 "--init", str(init), "--iterations", "3", "--bend-weight",
                 "0", "--out", str(out)]) == EXIT_OK
    report = (out / "fit_report.txt").read_text()
    first_loss = float([l for l in report.splitlines()
                        if l.startswith("loss 0 ")][0].split()[2])
    assert first_loss < 1e-9


def test_fit_report_loads_as_init(tmp_path, model_file):
    target, _ = target_json(tmp_path, model_file)
    out = tmp_path / "fit"
    init = tmp_path / "init.txt"
    init.write_text("bio index_mcp_flex 0.4\nbeta 2 0.3\n"
                    "global_rot 0 0.1 0\ntranslation 1 2 3\n")
    assert main(["ik-fit", "--model", model_file, "--target", target,
                 "--init", str(init), "--iterations", "2",
                 "--out", str(out)]) == EXIT_OK
    # the report adds '#', iterations and loss lines to the params
    bio_r, beta_r, rot_r, trans_r = load_params_file(out / "fit_report.txt")
    bio_p, beta_p, rot_p, trans_p = load_params_file(out / "fit_params.txt")
    np.testing.assert_array_equal(bio_r, bio_p)
    np.testing.assert_array_equal(beta_r, beta_p)
    np.testing.assert_array_equal(rot_r, rot_p)
    np.testing.assert_array_equal(trans_r, trans_p)
    assert bio_p[bio_dof.DOF_NAMES.index("index_mcp_flex")] != 0.0
    again = tmp_path / "again"
    assert main(["ik-fit", "--model", model_file, "--target", target,
                 "--init", str(out / "fit_report.txt"), "--iterations", "1",
                 "--out", str(again)]) == EXIT_OK


FIT_REPORT = """# fit report
iterations 2
loss 0 1.5
loss 1 0.25
bio index_mcp_flex -1.375
bio index_mcp_abd -1.25
bio index_pip_flex -1.125
bio index_dip_flex -1
bio middle_mcp_flex -0.875
bio middle_mcp_abd -0.75
bio middle_pip_flex -0.625
bio middle_dip_flex -0.5
bio ring_mcp_flex -0.375
bio ring_mcp_abd -0.25
bio ring_pip_flex -0.125
bio ring_dip_flex 0
bio little_mcp_flex 0.125
bio little_mcp_abd 0.25
bio little_pip_flex 0.375
bio little_dip_flex 0.5
bio thumb_mcp_rot 0.625
bio thumb_mcp_abd 0.75
bio thumb_mcp_flex 0.875
bio thumb_pip_rot 1
bio thumb_pip_abd 1.125
bio thumb_pip_flex 1.25
bio thumb_dip_flex 1.375
beta 0 -1
beta 1 -0.75
beta 2 -0.5
beta 3 -0.25
beta 4 0
beta 5 0.25
beta 6 0.5
beta 7 0.75
beta 8 1
beta 9 1.25
global_rot 0.1 -0.2 0.333333333
translation 1 2.5 -30
"""


def test_fit_report_file(tmp_path):
    path = tmp_path / "report.txt"
    write_fit_report(path, [1.5, 0.25], (np.arange(23) - 11) / 8,
                     np.arange(10) / 4 - 1, np.array([0.1, -0.2, 1 / 3]),
                     np.array([1.0, 2.5, -30.0]))
    assert path.read_bytes() == FIT_REPORT.encode()


def test_params_file_strips_trailing_comments(tmp_path):
    # as the pose, limits and graph readers do; the values keep their bytes
    plain, noted = tmp_path / "plain.txt", tmp_path / "noted.txt"
    plain.write_text(FIT_REPORT)
    noted.write_text("".join(f"{line}  # note\n" for line in FIT_REPORT.splitlines()))
    for got, want in zip(load_params_file(noted), load_params_file(plain)):
        assert got.tobytes() == want.tobytes()
    one = tmp_path / "one.txt"
    one.write_text("bio index_mcp_flex 0.5  # tweak\nbeta 3 -1#x\n")
    bio, beta, _, _ = load_params_file(one)
    assert bio[bio_dof.DOF_NAMES.index("index_mcp_flex")] == 0.5
    assert beta[3] == -1.0 and np.count_nonzero(bio) + np.count_nonzero(beta) == 2


def test_older_fit_report_with_converged_line_loads_as_init(tmp_path, model_file):
    # reports written before fit lost its early stop carry a 'converged' line
    new, old = tmp_path / "new.txt", tmp_path / "old.txt"
    new.write_text(FIT_REPORT)
    old.write_text(FIT_REPORT.replace("# fit report\n", "# fit report\nconverged no\n"))
    assert old.read_text().splitlines()[1] == "converged no"
    for got, want in zip(load_params_file(old), load_params_file(new)):
        assert got.tobytes() == want.tobytes()
    target, _ = target_json(tmp_path, model_file)
    fitted = []
    for init in (old, new):
        out = tmp_path / init.stem
        assert main(["ik-fit", "--model", model_file, "--target", target,
                     "--init", str(init), "--iterations", "2",
                     "--out", str(out)]) == EXIT_OK
        fitted.append((out / "fit_params.txt").read_bytes())
    assert fitted[0] == fitted[1]


def test_ik_fit_freeze_shape_bit_identical(tmp_path, model_file):
    target, _ = target_json(tmp_path, model_file)
    init = tmp_path / "init.txt"
    beta = [0.31, -0.2, 0.11, 0.0, 0.55, -0.4, 0.0, 0.21, -0.13, 0.07]
    init.write_text("\n".join(f"beta {i} {format(b, '.9g')}"
                              for i, b in enumerate(beta)) + "\n")
    out = tmp_path / "fit"
    assert main(["ik-fit", "--model", model_file, "--target", target,
                 "--init", str(init), "--iterations", "4", "--freeze-shape",
                 "--out", str(out)]) == EXIT_OK
    _, fitted_beta, _, _ = load_params_file(out / "fit_params.txt")
    for i, b in enumerate(beta):
        assert format(fitted_beta[i], ".9g") == format(b, ".9g")


def test_ik_fit_deterministic(tmp_path, model_file):
    target, _ = target_json(tmp_path, model_file)
    init = tmp_path / "init.txt"
    init.write_text("bio index_mcp_flex 0.4\n")
    outs = []
    for name in ("f1", "f2"):
        out = tmp_path / name
        assert main(["ik-fit", "--model", model_file, "--target", target,
                     "--init", str(init), "--iterations", "5",
                     "--out", str(out)]) == EXIT_OK
        outs.append((out / "fit_report.txt").read_bytes())
    assert outs[0] == outs[1]


def test_ik_fit_requires_init_source(tmp_path, model_file):
    target, _ = target_json(tmp_path, model_file)
    assert main(["ik-fit", "--model", model_file, "--target", target,
                 "--out", str(tmp_path / "o")]) == EXIT_PARSE


def test_ik_fit_vertex_count_mismatch_exit_3(tmp_path, model_file):
    good, _ = target_json(tmp_path, model_file)
    bad = {"joints": np.zeros((21, 3)).tolist(), "vertices": np.zeros((10, 3)).tolist()}
    init = tmp_path / "init.txt"
    init.write_text("bio index_mcp_flex 0.1\n")
    # alone, and second of two after a record with the model's vertex count
    for records in ([bad], [*json.loads(Path(good).read_text())["records"], bad]):
        path = tmp_path / "bad_target.json"
        path.write_text(json.dumps({"unit": "mm", "records": records}))
        assert main(["ik-fit", "--model", model_file, "--target", str(path),
                     "--init", str(init),
                     "--out", str(tmp_path / "o")]) == EXIT_SHAPE


def test_ik_fit_mixed_records_match_single_record_fits(tmp_path, model_file):
    records = []
    for seed, with_vertices in ((31, True), (32, False)):
        path, _ = target_json(tmp_path, model_file, name=f"t{seed}.json", seed=seed,
                              with_vertices=with_vertices)
        records += json.loads(Path(path).read_text())["records"]
    init = tmp_path / "init.txt"
    init.write_text("bio index_mcp_flex 0.2\n")
    args = ["--model", model_file, "--init", str(init), "--iterations", "6"]
    target = tmp_path / "mixed.json"
    target.write_text(json.dumps({"unit": "mm", "records": records}))
    assert main(["ik-fit", *args, "--target", str(target),
                 "--out", str(tmp_path / "both")]) == EXIT_OK
    for i, record in enumerate(records):
        alone = tmp_path / f"alone{i}.json"
        alone.write_text(json.dumps({"unit": "mm", "records": [record]}))
        assert main(["ik-fit", *args, "--target", str(alone),
                     "--out", str(tmp_path / f"alone{i}")]) == EXIT_OK
        for stem in ("fit_report", "fit_params"):
            assert ((tmp_path / "both" / f"{stem}_{i:05d}.txt").read_text()
                    == (tmp_path / f"alone{i}" / f"{stem}.txt").read_text())


def test_ik_fit_fits_every_record(tmp_path, model_file):
    records, truths = [], []
    for seed in (31, 32):
        path, joints = target_json(tmp_path, model_file, name=f"t{seed}.json",
                                   seed=seed)
        records += json.loads(Path(path).read_text())["records"]
        truths.append(joints)
    target = tmp_path / "two.json"
    target.write_text(json.dumps({"unit": "mm", "records": records}))
    init = tmp_path / "init.txt"
    init.write_text("bio index_mcp_flex 0\n")
    out = tmp_path / "fit"
    assert main(["ik-fit", "--model", model_file, "--target", str(target),
                 "--init", str(init), "--iterations", "30",
                 "--out", str(out)]) == EXIT_OK
    assert not (out / "fit_params.txt").exists()
    model = load_model(model_file)
    axes = bio_dof.derive_axes(model)
    for i in range(2):
        assert (out / f"fit_report_{i:05d}.txt").exists()
        bio, beta, rot, trans = load_params_file(out / f"fit_params_{i:05d}.txt")
        art = bio_dof.expand_batch(bio, axes)
        joints = kin.fk_forward(model, art, beta, rot, trans).joints[0]
        own, other = (np.abs(joints - truths[k]).mean() for k in (i, 1 - i))
        assert own < other


# ---------------------------------------------------------------------------
# ik-train / ik-predict
# ---------------------------------------------------------------------------

def test_ik_train_and_predict_pipeline(tmp_path, model_file):
    out = tmp_path / "train"
    assert main(["ik-train", "--model", model_file, "--pairs", "64",
                 "--epochs", "2", "--decay-epoch", "1", "--seed", "5",
                 "--out", str(out)]) == EXIT_OK
    assert (out / "ik_net.hkc").exists()
    curve = (out / "loss_curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,total,theta,beta,pose"
    assert len(curve) == 3

    target, _ = target_json(tmp_path, model_file)
    pred_out = tmp_path / "pred"
    assert main(["ik-predict", "--ckpt", str(out / "ik_net.hkc"),
                 "--target", target, "--out", str(pred_out)]) == EXIT_OK
    bio, beta, _, _ = load_params_file(pred_out / "params.txt")
    assert bio_dof.is_feasible(bio_dof.BioPose(bio), bio_dof.DofLimits.default())


def test_ik_fit_from_ik_net_chain(tmp_path, model_file):
    train_out = tmp_path / "train"
    assert main(["ik-train", "--model", model_file, "--pairs", "64",
                 "--epochs", "1", "--decay-epoch", "0", "--seed", "2",
                 "--out", str(train_out)]) == EXIT_OK
    target, joints = target_json(tmp_path, model_file)
    fit_out = tmp_path / "fit"
    assert main(["ik-fit", "--model", model_file, "--target", target,
                 "--from-ik-net", str(train_out / "ik_net.hkc"),
                 "--iterations", "10", "--out", str(fit_out)]) == EXIT_OK
    report = (fit_out / "fit_report.txt").read_text()
    losses = [float(l.split()[2]) for l in report.splitlines()
              if l.startswith("loss ")]
    assert min(losses) <= losses[0]


def test_ik_train_deterministic(tmp_path, model_file):
    blobs = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        assert main(["ik-train", "--model", model_file, "--pairs", "64",
                     "--epochs", "1", "--decay-epoch", "0", "--seed", "7",
                     "--out", str(out)]) == EXIT_OK
        blobs.append((out / "ik_net.hkc").read_bytes())
    assert blobs[0] == blobs[1]


def test_ik_predict_bad_checkpoint_exit_2(tmp_path, model_file):
    bad = tmp_path / "bad.hkc"
    bad.write_text("not a checkpoint")
    target, _ = target_json(tmp_path, model_file)
    assert main(["ik-predict", "--ckpt", str(bad), "--target", target,
                 "--out", str(tmp_path / "o")]) == EXIT_PARSE


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_identical_files(tmp_path, model_file):
    target, _ = target_json(tmp_path, model_file)
    out = tmp_path / "report.txt"
    assert main(["eval", "--pred", target, "--gt", target,
                 "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    fields = dict(line.split() for line in text.splitlines())
    assert float(fields["PA-MPJPE"]) == pytest.approx(0.0, abs=1e-9)
    assert float(fields["F@5"]) == 1.0


def test_eval_units_are_honored(tmp_path, model_file):
    t_mm, joints = target_json(tmp_path, model_file, name="mm.json", unit="mm")
    t_m, _ = target_json(tmp_path, model_file, name="m.json", unit="m")
    out = tmp_path / "report.txt"
    assert main(["eval", "--pred", t_mm, "--gt", t_m,
                 "--out", str(out)]) == EXIT_OK
    fields = dict(line.split() for line in out.read_text().splitlines())
    assert float(fields["MPJPE"]) == pytest.approx(0.0, abs=1e-6)


def test_eval_count_mismatch_exit_3(tmp_path, model_file):
    t1, _ = target_json(tmp_path, model_file, name="one.json")
    two = tmp_path / "two.json"
    rec = json.loads((tmp_path / "one.json").read_text())["records"][0]
    two.write_text(json.dumps({"unit": "mm", "records": [rec, rec]}))
    assert main(["eval", "--pred", t1, "--gt", str(two),
                 "--out", str(tmp_path / "o.txt")]) == EXIT_SHAPE


def test_eval_ragged_vertex_counts_exit_3(tmp_path, model_file):
    # every sample of one evaluate call has the same vertex count
    target_json(tmp_path, model_file, name="one.json")
    rec = json.loads((tmp_path / "one.json").read_text())["records"][0]
    short = dict(rec, vertices=rec["vertices"][:-1])
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"unit": "mm", "records": [rec, short]}))
    assert main(["eval", "--pred", str(ragged), "--gt", str(ragged),
                 "--out", str(tmp_path / "o.txt")]) == EXIT_SHAPE
    assert not (tmp_path / "o.txt").exists()


def test_eval_degenerate_exit_4(tmp_path):
    flat = {"unit": "mm",
            "records": [{"joints": (np.outer(np.arange(21.0), [1, 1, 1]))
                         .tolist()}]}
    a = tmp_path / "a.json"
    a.write_text(json.dumps(flat))
    assert main(["eval", "--pred", str(a), "--gt", str(a),
                 "--out", str(tmp_path / "o.txt")]) == EXIT_NUMERIC


def test_annotation_bare_list_is_meters(tmp_path):
    joints_m = np.full((21, 3), 0.123)
    path = tmp_path / "frei.json"
    path.write_text(json.dumps([joints_m.tolist()]))
    records = load_annotation_records(path)
    np.testing.assert_allclose(records[0].joints, 123.0)


def test_annotation_requires_unit(tmp_path):
    path = tmp_path / "nounit.json"
    path.write_text(json.dumps({"records": [{"joints":
                                             np.zeros((21, 3)).tolist()}]}))
    from handkit.errors import InputError
    with pytest.raises(InputError):
        load_annotation_records(path)


# ---------------------------------------------------------------------------
# profile / synth
# ---------------------------------------------------------------------------

def test_profile_resnet50_cli(tmp_path, capsys):
    out = tmp_path / "r50.txt"
    assert main(["profile", "--graph", "resnet50", "--resolution", "256",
                 "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    total = float([l for l in text.splitlines()
                   if l.startswith("total")][0].split()[-2])
    assert total == pytest.approx(5.38, rel=0.02)


def test_profile_unknown_graph_exit_2(tmp_path):
    assert main(["profile", "--graph", "made_up_net",
                 "--out", str(tmp_path / "o.txt")]) == EXIT_PARSE


def test_synth_cameras_cli(tmp_path):
    out = tmp_path / "cams.csv"
    assert main(["synth", "cameras", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 2233  # header + 2232 rows


def test_synth_poses_cli_deterministic(tmp_path, model_file):
    blobs = []
    for name in ("p1.hkc", "p2.hkc"):
        out = tmp_path / name
        assert main(["synth", "poses", "--model", model_file, "--count", "10",
                     "--per-pose", "4", "--seed", "9",
                     "--out", str(out)]) == EXIT_OK
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    from handkit.synth import load_pose_library
    assert len(load_pose_library(tmp_path / "p1.hkc")) == 40


def test_lixel_dump_cli(tmp_path):
    out = tmp_path / "heat.txt"
    assert main(["lixel", "--coord", "0.25", "--out", str(out)]) == EXIT_OK
    values = [float(v) for v in out.read_text().split()]
    assert len(values) == 64
    assert max(values) <= 1.0 and min(values) >= 0.0
    assert main(["lixel", "--coord", "1.5",
                 "--out", str(tmp_path / "x.txt")]) == EXIT_PARSE


def test_missing_checkpoint_and_library_exit_2(tmp_path, model_file):
    target, _ = target_json(tmp_path, model_file)
    assert main(["ik-predict", "--ckpt", str(tmp_path / "none.hkc"),
                 "--target", target, "--out",
                 str(tmp_path / "o")]) == EXIT_PARSE
    assert main(["ik-fit", "--model", model_file, "--target", target,
                 "--from-ik-net", str(tmp_path / "none.hkc"),
                 "--out", str(tmp_path / "o")]) == EXIT_PARSE
    assert main(["synth", "poses", "--library", str(tmp_path / "none.hkc"),
                 "--out", str(tmp_path / "p.hkc")]) == EXIT_PARSE
