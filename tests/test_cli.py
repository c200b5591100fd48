import json
import os
import re
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyttp.backbone import ModelConfig, TrajectoryPredictor
from dyttp.cli import (
    CheckpointMismatchError, load_checkpoint, main, save_checkpoint,
    snapshots_from_checkpoints, verify_checkpoint_digest,
)
from dyttp.data import (
    FormatError, generate_synthetic, load_scenarios, save_scenarios, write_atomic,
)
from dyttp.tensor import NumericalError, Rng

FAST = ["--width", "16", "--heads", "2", "--modes", "2", "--dropout", "0.05",
        "--cycles", "2", "--epochs-per-cycle", "1", "--batch-size", "8"]


def gen(tmp_path, count=24, seed=3, name="data.bin"):
    out = tmp_path / name
    assert main(["gen-data", "--count", str(count), "--seed", str(seed),
                 "--out", str(out)]) == 0
    return out


def train(tmp_path, data, name="run", extra=()):
    out = tmp_path / name
    assert main(["train", "--data", str(data), "--out", str(out),
                 "--seed", "5", *FAST, *extra]) == 0
    return out


def test_gen_data_deterministic_and_counts(tmp_path, capsys):
    a = gen(tmp_path, name="a.bin")
    b = gen(tmp_path, name="b.bin")
    assert a.read_bytes() == b.read_bytes()
    split = load_scenarios(a)
    assert len(split.train) + len(split.val) == 24
    out = capsys.readouterr().out
    assert "train" in out and "val" in out


def test_gen_data_zero_count_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--count", "0", "--seed", "1",
              "--out", str(tmp_path / "x.bin")])
    assert exc.value.code == 2


def test_gen_data_unwritable_path(tmp_path):
    code = main(["gen-data", "--count", "5", "--seed", "1",
                 "--out", str(tmp_path / "no" / "such" / "dir" / "x.bin")])
    assert code == 2


@pytest.mark.parametrize("sigma", ["-1", "nan"])
def test_gen_data_bad_noise_sigma_usage_error(tmp_path, capsys, sigma):
    out = tmp_path / "x.bin"
    assert main(["gen-data", "--count", "5", "--seed", "1", "--out", str(out),
                 "--noise-sigma", sigma]) == 2
    assert "noise_sigma" in capsys.readouterr().err
    assert not out.exists()


def test_train_writes_snapshots_log_and_config(tmp_path):
    data = gen(tmp_path)
    run = train(tmp_path, data)
    assert (run / "snapshot_0.ckpt").exists()
    assert (run / "snapshot_1.ckpt").exists()
    assert not (run / "snapshot_2.ckpt").exists()
    cfg = json.loads((run / "config.json").read_text())
    assert cfg["model"]["width"] == 16
    assert cfg["rng_algorithm"] == "splitmix64"
    assert cfg["norm_sites"] == "all"
    lines = (run / "training_log.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert set(rec) == {"epoch", "cycle", "lr", "train_loss",
                        "val_minADE", "val_minFDE", "val_MR"}


def test_train_epoch_line_reports_seconds_and_rate_outside_the_log(tmp_path, capsys):
    data = gen(tmp_path)
    capsys.readouterr()
    run = train(tmp_path, data)
    line = re.compile(r"epoch +(\d+)  cycle \d  lr \S+  loss \S+  val minADE \S+  "
                      r"(\d+\.\d\d) s  (\d+\.\d) scen/s")
    epochs = [line.fullmatch(l) for l in capsys.readouterr().out.splitlines()
              if l.startswith("epoch")]
    assert len(epochs) == 2 and all(epochs)
    scenes = len(load_scenarios(data).train)
    for m in epochs:
        seconds, rate = float(m[2]), float(m[3])
        # both figures are rounded: the rate must fit some seconds value that rounds to the one shown
        assert scenes / (seconds + 0.005) - 0.05 <= rate <= scenes / max(seconds - 0.005, 1e-9) + 0.05
    # criterion 9 compares the log byte for byte, so no wall time goes into it
    for rec in map(json.loads, (run / "training_log.jsonl").read_text().splitlines()):
        assert set(rec) == {"epoch", "cycle", "lr", "train_loss",
                            "val_minADE", "val_minFDE", "val_MR"}


def test_train_rerun_identical_bytes(tmp_path):
    data = gen(tmp_path)
    r1 = train(tmp_path, data, "r1")
    r2 = train(tmp_path, data, "r2")
    assert (r1 / "snapshot_1.ckpt").read_bytes() == (r2 / "snapshot_1.ckpt").read_bytes()
    assert (r1 / "training_log.jsonl").read_bytes() == (r2 / "training_log.jsonl").read_bytes()


def test_train_resume_completes_cycles(tmp_path):
    data = gen(tmp_path)
    run = tmp_path / "resumable"
    assert main(["train", "--data", str(data), "--out", str(run), "--seed", "5",
                 *FAST[:-4], "--cycles", "1", "--epochs-per-cycle", "1",
                 "--batch-size", "8"]) == 0
    assert (run / "snapshot_0.ckpt").exists()
    # ask for two cycles now; resume starts at cycle 1
    assert main(["train", "--data", str(data), "--out", str(run), "--seed", "5",
                 *FAST, "--resume"]) == 0
    assert (run / "snapshot_1.ckpt").exists()
    # resuming a finished run is a no-op
    assert main(["train", "--data", str(data), "--out", str(run), "--seed", "5",
                 *FAST, "--resume"]) == 0


def test_interrupted_train_keeps_finished_snapshots(tmp_path, monkeypatch):
    import dyttp.cli as cli

    class Interrupted(Exception):
        pass

    def interrupted_train(*args, log_sink, **kwargs):
        def sink(record):
            if record["cycle"] == 2:
                raise Interrupted
            log_sink(record)
        return real_train(*args, log_sink=sink, **kwargs)

    real_train = cli.train
    monkeypatch.setattr(cli, "train", interrupted_train)
    data = gen(tmp_path)
    run = tmp_path / "interrupted"
    args = ["train", "--data", str(data), "--out", str(run), "--seed", "5", *FAST, "--cycles", "3"]
    with pytest.raises(Interrupted):
        main(args)
    cfg = ModelConfig(width=16, heads=2, modes=2, dropout=0.05)
    paths = [str(run / f"snapshot_{c}.ckpt") for c in (0, 1)]
    assert [s.cycle_index for s in snapshots_from_checkpoints(paths, cfg)] == [0, 1]
    assert sorted(p.name for p in run.glob("snapshot_*")) == ["snapshot_0.ckpt", "snapshot_1.ckpt"]

    monkeypatch.setattr(cli, "train", real_train)
    assert main([*args, "--resume"]) == 0
    assert (run / "snapshot_2.ckpt").exists()


@pytest.mark.parametrize("version", [1, 2])
def test_old_checkpoint_version_is_rejected(tmp_path, capsys, version):
    # version 1 still held attention key biases and version 2 a second lane
    # key projection (rel_proj); their files cannot load
    cfg = ModelConfig(width=16, heads=2, modes=2)
    path = tmp_path / f"v{version}.ckpt"
    save_checkpoint(path, TrajectoryPredictor(cfg, Rng(9)).state_dict(), cfg, 0)
    raw = path.read_bytes()
    assert raw[4:8] == struct.pack("<I", 3)
    path.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
    data = gen(tmp_path, count=6)
    capsys.readouterr()
    assert main(["evaluate", "--data", str(data), "--checkpoints", str(path),
                 "--width", "16", "--heads", "2", "--modes", "2"]) == 2
    assert f"unsupported checkpoint version {version}" in capsys.readouterr().err


def test_evaluate_rejects_focal_agent_out_of_range(tmp_path, capsys):
    split = generate_synthetic(6, Rng(5))
    scene = split.all_scenarios()[-1]
    scene.focal_agent = scene.num_agents + 5
    data = tmp_path / "bad.bin"
    save_scenarios(split, data)
    cfg = ModelConfig(width=16, heads=2, modes=2)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, TrajectoryPredictor(cfg, Rng(9)).state_dict(), cfg, 0)
    capsys.readouterr()
    assert main(["evaluate", "--data", str(data), "--checkpoints", str(ckpt),
                 "--width", "16", "--heads", "2", "--modes", "2"]) == 2
    assert "focal agent" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "bench"])
def test_numerical_error_in_a_forward_is_not_a_usage_error(tmp_path, monkeypatch, command):
    # a non-finite value inside the model is a fault of the program: it leaves
    # main with its traceback (exit 1), not as "usage, exit 2"
    def non_finite_forward(self, scenes, rng=None):
        raise NumericalError("attention requires finite logits")

    data = gen(tmp_path, count=6)
    cfg = ModelConfig(width=16, heads=2, modes=2)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, TrajectoryPredictor(cfg, Rng(9)).state_dict(), cfg, 0)
    args = [command, "--data", str(data), "--width", "16", "--heads", "2", "--modes", "2"]
    if command == "evaluate":
        args += ["--checkpoints", str(ckpt)]
    else:
        args += ["--iterations", "100", "--warmup", "10", "--scenarios", "2"]
    monkeypatch.setattr(TrajectoryPredictor, "forward", non_finite_forward)
    with pytest.raises(NumericalError, match="finite logits"):
        main(args)


def test_checkpoint_roundtrip_identical_outputs(tmp_path):
    cfg = ModelConfig(width=16, heads=2, modes=2, dropout=0.0)
    model = TrajectoryPredictor(cfg, Rng(9))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model.state_dict(), cfg, cycle_index=0)
    params, header = load_checkpoint(path)
    assert header["rng_algorithm"] == "splitmix64"
    verify_checkpoint_digest(header, cfg)

    from dyttp.data import GenConfig, generate_scenario
    sc = generate_scenario(0, Rng(1).child(0), GenConfig())
    from dyttp.training import model_from_params
    loaded = model_from_params(params, cfg)
    # save the loaded model again: f32 narrowing is idempotent
    path2 = tmp_path / "m2.ckpt"
    save_checkpoint(path2, loaded.state_dict(), cfg, cycle_index=0)
    params2, _ = load_checkpoint(path2)
    twice = model_from_params(params2, cfg)
    a = loaded.predict(sc)
    b = twice.predict(sc)
    for p, q in zip(a, b):
        assert np.array_equal(p.locations.data, q.locations.data)
        assert np.array_equal(p.mode_probs.data, q.mode_probs.data)
    assert path.read_bytes()[:4] == b"DYTC"
    assert load_checkpoint(path2)[0].keys() == params.keys()


def test_checkpoint_truncation_and_magic_errors(tmp_path):
    cfg = ModelConfig(width=16, heads=2, modes=2)
    model = TrajectoryPredictor(cfg, Rng(10))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model.state_dict(), cfg, 0)
    raw = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(raw[:-9])
    with pytest.raises(FormatError):
        load_checkpoint(cut)
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"WHAT" + raw[4:])
    with pytest.raises(FormatError):
        load_checkpoint(junk)
    # one parameter with more dimensions than numpy allows, and one whose
    # shape product (2**64) wraps a 64-bit integer
    head = raw[:raw.index(b"splitmix64") + len(b"splitmix64")] + struct.pack("<II", 0, 1)
    for shape in ((1,) * 65, (2**31, 2**31, 4)):
        bad = tmp_path / "shape.ckpt"
        bad.write_bytes(head + struct.pack("<H", 1) + b"w" + struct.pack("<B", len(shape))
                        + struct.pack(f"<{len(shape)}I", *shape) + b"\0" * 4)
        with pytest.raises(FormatError):
            load_checkpoint(bad)


def test_failed_save_leaves_earlier_checkpoint_intact(tmp_path):
    cfg = ModelConfig(width=16, heads=2, modes=2)
    params = TrajectoryPredictor(cfg, Rng(10)).state_dict()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, cfg, 0)
    good = path.read_bytes()
    # a name longer than its u16 length prefix fails after the header is built
    with pytest.raises(struct.error):
        save_checkpoint(path, {**params, "w" * 70_000: np.zeros(1)}, cfg, 1)
    # a write that fails once the new file exists
    with pytest.raises(TypeError):
        write_atomic(path, "not bytes")
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_failed_out_json_leaves_earlier_file_intact(tmp_path, monkeypatch):
    data = gen(tmp_path, count=6)
    out = tmp_path / "out"
    out.mkdir()
    j = out / "latency.json"
    args = ["bench", "--data", str(data), "--width", "16", "--heads", "2", "--modes", "2",
            "--iterations", "100", "--warmup", "10", "--scenarios", "2", "--out-json", str(j)]
    assert main(args) == 0
    good = j.read_bytes()

    def refuse(src, dst):
        raise PermissionError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(args) == 2
    assert j.read_bytes() == good
    assert [p.name for p in out.iterdir()] == ["latency.json"]


@pytest.mark.parametrize("command", ["train", "evaluate", "bench", "ablate"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, command):
    data = gen(tmp_path, count=12)
    blocker = tmp_path / "blocker"
    fast = ["--width", "16", "--heads", "2", "--modes", "2"]
    if command in ("train", "ablate"):
        blocker.write_bytes(b"a regular file where a directory should go")
        flag = "--out" if command == "train" else "--out-dir"
        args = [command, "--data", str(data), flag, str(blocker), *FAST]
        if command == "ablate":
            args += ["--bench-iterations", "100", "--bench-warmup", "10"]
    else:
        blocker.mkdir()  # a directory where the JSON file should go
        args = [command, "--data", str(data), "--out-json", str(blocker), *fast]
        if command == "evaluate":
            args += ["--checkpoints", str(train(tmp_path, data) / "snapshot_1.ckpt")]
        else:
            args += ["--iterations", "100", "--warmup", "10", "--scenarios", "2"]
    capsys.readouterr()
    assert main(args) == 2
    assert f"error: cannot write {blocker}: " in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.tmp"))


def test_non_finite_values_raise_format_error_and_exit_2(tmp_path):
    split = generate_synthetic(4, Rng(5))
    good_data = tmp_path / "good.bin"
    save_scenarios(split, good_data)
    split.all_scenarios()[0].agent_histories[0, 3, 0] = np.nan
    nan_data = tmp_path / "nan.bin"
    save_scenarios(split, nan_data)
    with pytest.raises(FormatError, match="non-finite"):
        load_scenarios(nan_data)

    cfg = ModelConfig(width=16, heads=2, modes=2)
    params = TrajectoryPredictor(cfg, Rng(9)).state_dict()
    good_ckpt = tmp_path / "good.ckpt"
    save_checkpoint(good_ckpt, params, cfg, 0)
    params["head_out.bias"][1] = np.inf
    inf_ckpt = tmp_path / "inf.ckpt"
    save_checkpoint(inf_ckpt, params, cfg, 0)
    with pytest.raises(FormatError, match="non-finite"):
        load_checkpoint(inf_ckpt)

    flags = ["--width", "16", "--heads", "2", "--modes", "2"]
    for data, ckpt in ((nan_data, good_ckpt), (good_data, inf_ckpt)):
        assert main(["evaluate", "--data", str(data), "--checkpoints", str(ckpt), *flags]) == 2
    assert main(["evaluate", "--data", str(good_data), "--checkpoints", str(good_ckpt), *flags]) == 0


def _container_arrays(split):
    for s in split.all_scenarios():
        yield from (s.agent_histories, s.agent_futures, *s.lanes)


def _checkpoint_arrays(loaded):
    params, _ = loaded
    yield from params.values()


@pytest.fixture(scope="module")
def format_files(tmp_path_factory):
    """{kind: (bytes, loader, probe path, the loaded float arrays)} for a small
    container and checkpoint."""
    d = tmp_path_factory.mktemp("formats")
    save_scenarios(generate_synthetic(2, Rng(5)), d / "data.bin")
    cfg = ModelConfig(width=8, heads=2, modes=2)
    save_checkpoint(d / "m.ckpt", TrajectoryPredictor(cfg, Rng(1)).state_dict(), cfg, 0)
    return {"container": ((d / "data.bin").read_bytes(), load_scenarios, d / "probe.bin",
                          _container_arrays),
            "checkpoint": ((d / "m.ckpt").read_bytes(), load_checkpoint, d / "probe.ckpt",
                           _checkpoint_arrays)}


@pytest.mark.parametrize("kind", ["container", "checkpoint"])
@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_malformed_bytes_raise_only_format_error(format_files, kind, data):
    raw, load, probe, arrays = format_files[kind]
    damage = data.draw(st.sampled_from(["truncate", "flip", "non-finite"]), label="damage")
    if damage == "truncate":
        probe.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="length")])
        with pytest.raises(FormatError):
            load(probe)
        return
    damaged = bytearray(raw)
    if damage == "flip":
        # draw some flips from the first 256 bytes, where the headers, names
        # and shapes are, and the rest from anywhere in the file
        bit = data.draw(st.one_of(st.integers(0, 256 * 8 - 1), st.integers(0, len(raw) * 8 - 1)),
                        label="bit")
        damaged[bit // 8] ^= 1 << (bit % 8)
    else:
        # one float32 word overwritten with NaN or +inf. A single bit flip
        # seldom makes a finite coordinate non-finite, so this is what shows
        # a missing finite check. Any offset: the container's arrays start
        # after variable-length ids, so they are not 4-aligned in the file.
        pos = data.draw(st.integers(0, len(raw) - 4), label="offset")
        damaged[pos:pos + 4] = data.draw(st.sampled_from([np.float32(np.nan), np.float32(np.inf)]),
                                         label="value").astype("<f4").tobytes()
    probe.write_bytes(bytes(damaged))
    try:
        loaded = load(probe)
    except FormatError:
        return
    assert all(np.isfinite(a).all() for a in arrays(loaded))


def test_digest_mismatch_detected(tmp_path):
    cfg = ModelConfig(width=16, heads=2, modes=2)
    other = ModelConfig(width=32, heads=2, modes=2)
    model = TrajectoryPredictor(cfg, Rng(11))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model.state_dict(), cfg, 0)
    with pytest.raises(CheckpointMismatchError):
        snapshots_from_checkpoints([str(path)], other)


def test_evaluate_single_vs_one_snapshot_ensemble_identical(tmp_path):
    data = gen(tmp_path)
    run = train(tmp_path, data)
    ckpt = str(run / "snapshot_1.ckpt")
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["evaluate", "--data", str(data), "--checkpoints", ckpt,
                 "--ensemble", "off", "--out-json", str(j1)]) == 0
    assert main(["evaluate", "--data", str(data), "--checkpoints", ckpt,
                 "--ensemble", "prediction_average", "--out-json", str(j2)]) == 0
    a = json.loads(j1.read_text())
    b = json.loads(j2.read_text())
    assert a["metrics"] == b["metrics"]
    assert a["schema"] == "dyttp-metrics-v1"
    assert a["config"]["width"] == 16  # config auto-discovered next to checkpoint


def test_ensemble_off_and_snapshots_used_pick_the_highest_cycle(tmp_path):
    data = gen(tmp_path)
    cfg = ModelConfig(width=16, heads=2, modes=2)
    for cycle, seed in ((2, 21), (10, 22)):
        save_checkpoint(tmp_path / f"snapshot_{cycle}.ckpt",
                        TrajectoryPredictor(cfg, Rng(seed)).state_dict(), cfg, cycle)
    # the order a shell glob gives: snapshot_10 before snapshot_2
    lexicographic = sorted(str(p) for p in tmp_path.glob("snapshot_*.ckpt"))
    assert lexicographic[0].endswith("snapshot_10.ckpt")

    def metrics(checkpoints, *flags):
        out = tmp_path / "m.json"
        assert main(["evaluate", "--data", str(data), "--checkpoints", *checkpoints,
                     "--width", "16", "--heads", "2", "--modes", "2", *flags,
                     "--out-json", str(out)]) == 0
        return json.loads(out.read_text())["metrics"]

    newest = metrics([str(tmp_path / "snapshot_10.ckpt")])
    assert newest != metrics([str(tmp_path / "snapshot_2.ckpt")])
    assert metrics(lexicographic, "--ensemble", "off") == newest
    assert metrics(lexicographic, "--ensemble", "prediction_average",
                   "--snapshots-used", "1") == newest


def _ensemble_argv(tmp_path, command, flags, checkpoints=True):
    """(argv, out path) for evaluate or bench on 6 scenes, with one saved snapshot or none."""
    data = gen(tmp_path, count=6)
    cfg = ModelConfig(width=16, heads=2, modes=2)
    ckpt = tmp_path / "snapshot_0.ckpt"
    save_checkpoint(ckpt, TrajectoryPredictor(cfg, Rng(1)).state_dict(), cfg, 0)
    out = tmp_path / "out.json"
    argv = [command, "--data", str(data), *(["--checkpoints", str(ckpt)] if checkpoints else []),
            "--width", "16", "--heads", "2", "--modes", "2", *flags, "--out-json", str(out)]
    if command == "bench":
        argv += ["--iterations", "100", "--warmup", "10", "--scenarios", "1"]
    return argv, out


@pytest.mark.parametrize("ensemble", ["off", "prediction_average"])
@pytest.mark.parametrize("used", ["0", "-1"])
@pytest.mark.parametrize("command", ["evaluate", "bench"])
def test_snapshots_used_below_one_is_a_usage_error(tmp_path, capsys, command, used, ensemble):
    argv, out = _ensemble_argv(tmp_path, command, ["--ensemble", ensemble, "--snapshots-used", used])
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "snapshots" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, checkpoints, flags", [
    ("evaluate", True, ["--ensemble", "off", "--snapshots-used", "1"]),
    ("bench", True, ["--ensemble", "off", "--snapshots-used", "1"]),
    ("bench", False, ["--ensemble", "prediction_average"]),
    ("bench", False, ["--snapshots-used", "1"]),
    ("bench", False, ["--ensemble", "parameter_average", "--snapshots-used", "2"]),
], ids=["evaluate-off", "bench-off", "bench-fresh-ensemble", "bench-fresh-used",
        "bench-fresh-both"])
def test_ignored_ensemble_flags_are_a_usage_error(tmp_path, capsys, command, checkpoints, flags):
    argv, out = _ensemble_argv(tmp_path, command, flags, checkpoints)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--snapshots-used" in err or "--ensemble" in err
    assert not out.exists()


@pytest.mark.parametrize("source, size", [
    ("flag", "0"), ("flag", "-1"), ("config", 0), ("config", -1), ("config", 2.5), ("config", "8"),
])
def test_bad_batch_size_is_a_usage_error_before_any_write(tmp_path, capsys, source, size):
    data = gen(tmp_path, count=6)
    run = tmp_path / "run"
    flags = [f for f in FAST if f not in ("--batch-size", "8")]
    if source == "flag":
        flags += ["--batch-size", size]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"batch_size": size}))
        flags += ["--config", str(config)]
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(run), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--batch-size" in err and "batch_size" in err
    assert not run.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("ablate", "--bench-iterations", "50"), ("ablate", "--bench-warmup", "5"),
    ("bench", "--iterations", "99"), ("bench", "--warmup", "9"),
])
def test_bench_flags_below_their_limits_are_usage_errors_before_any_work(
        tmp_path, capsys, monkeypatch, command, flag, value):
    # an ablation used to train a whole norm kind before bench_latency refused the flag
    import dyttp.cli
    import dyttp.training
    called = []
    monkeypatch.setattr(dyttp.training, "train", lambda *a, **k: called.append("train"))
    monkeypatch.setattr(dyttp.cli, "bench_latency", lambda *a, **k: called.append("bench"))
    argv = [command, "--data", str(gen(tmp_path, count=6)), "--width", "16", "--heads", "2",
            flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{flag} must be >= " in capsys.readouterr().err
    assert called == []


@pytest.mark.parametrize("scenarios", ["0", "-2"])
def test_bench_scenarios_below_one_is_a_usage_error(tmp_path, capsys, scenarios):
    argv, out = _ensemble_argv(tmp_path, "bench", [], checkpoints=False)
    argv[argv.index("--scenarios") + 1] = scenarios
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--scenarios" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--data", "--config"])
@pytest.mark.parametrize("command", ["train", "evaluate", "bench"])
def test_directory_as_input_file_is_usage_error(tmp_path, capsys, command, flag):
    data = gen(tmp_path, count=6)
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = [command, flag, str(folder)] + (["--data", str(data)] if flag == "--config" else [])
    argv += {"train": ["--out", str(tmp_path / "run"), *FAST],
             "evaluate": ["--checkpoints", str(tmp_path / "snapshot_0.ckpt")],
             "bench": ["--iterations", "100", "--warmup", "10", "--scenarios", "1"]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err
    assert not (tmp_path / "run").exists()


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    # run in a child process: the handler re-points file descriptor 1
    data = gen(tmp_path, count=6)
    cfg = ModelConfig(width=16, heads=2, modes=2)
    ckpt = tmp_path / "snapshot_0.ckpt"
    save_checkpoint(ckpt, TrajectoryPredictor(cfg, Rng(1)).state_dict(), cfg, 0)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "dyttp.cli", "evaluate", "--data", str(data),
         "--checkpoints", str(ckpt), "--width", "16", "--heads", "2", "--modes", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(src)))
    proc.stdout.close()  # the reader is gone before the child prints its table
    err = proc.stderr.read().decode()
    assert proc.wait() == 1, err
    assert not err  # no traceback, and no import error that also exits 1


def test_evaluate_digest_mismatch_exit_code(tmp_path):
    data = gen(tmp_path)
    run = train(tmp_path, data)
    code = main(["evaluate", "--data", str(data),
                 "--checkpoints", str(run / "snapshot_1.ckpt"),
                 "--width", "64"])
    assert code == 4


def test_evaluate_reproducible_json_bytes(tmp_path):
    data = gen(tmp_path)
    run = train(tmp_path, data)
    ckpts = [str(run / "snapshot_0.ckpt"), str(run / "snapshot_1.ckpt")]
    j1, j2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for j in (j1, j2):
        assert main(["evaluate", "--data", str(data), "--checkpoints", *ckpts,
                     "--ensemble", "prediction_average", "--out-json", str(j)]) == 0
    assert j1.read_bytes() == j2.read_bytes()


def test_bench_fresh_params_both_norms(tmp_path, capsys):
    data = gen(tmp_path, count=6)
    for norm in ("dyt", "layernorm"):
        j = tmp_path / f"{norm}.json"
        assert main(["bench", "--data", str(data), "--norm", norm,
                     "--width", "16", "--heads", "2", "--modes", "2",
                     "--iterations", "100", "--warmup", "10",
                     "--scenarios", "2", "--out-json", str(j)]) == 0
        doc = json.loads(j.read_text())
        lat = doc["latency"]
        assert lat["min_ms"] <= lat["ave_ms"] <= lat["max_ms"]
        assert doc["config"]["norm_kind"] == norm


def test_bench_checkpoint_ensemble(tmp_path):
    data = gen(tmp_path)
    run = train(tmp_path, data)
    j = tmp_path / "bench.json"
    assert main(["bench", "--data", str(data),
                 "--checkpoints", str(run / "snapshot_0.ckpt"), str(run / "snapshot_1.ckpt"),
                 "--ensemble", "prediction_average",
                 "--iterations", "100", "--warmup", "10", "--scenarios", "2",
                 "--out-json", str(j)]) == 0
    assert "2 snapshots" in json.loads(j.read_text())["inference"]


def test_ablate_grid_outputs(tmp_path):
    data = gen(tmp_path, count=20)
    out = tmp_path / "ablation"
    args = ["ablate", "--data", str(data), "--out-dir", str(out), "--seed", "7",
            "--width", "16", "--heads", "2", "--modes", "2", "--dropout", "0.05",
            "--cycles", "2", "--epochs-per-cycle", "1", "--batch-size", "8",
            "--bench-iterations", "100", "--bench-warmup", "10"]
    assert main(args) == 0
    doc = json.loads((out / "ablation.json").read_text())
    assert len(doc["cells"]) == 4
    grid = {(c["dyt_enabled"], c["snapshot_enabled"]) for c in doc["cells"]}
    assert grid == {(False, False), (True, False), (False, True), (True, True)}
    for cell in doc["cells"]:
        assert cell["seed"] == 7
        assert cell["norm_kind"] in ("dyt", "layernorm")
        assert cell["metrics"] is not None
    table = (out / "ablation.txt").read_text()
    assert len(table.strip().splitlines()) == 6
    # the DyT pair trained identically: snapshotting is observation only
    dyt_logs = [(out / f"cell_{i}_train_log.jsonl").read_bytes() for i in (1, 3)]
    assert dyt_logs[0] == dyt_logs[1]


def test_missing_data_file_is_usage_error(tmp_path):
    code = main(["train", "--data", str(tmp_path / "absent.bin"),
                 "--out", str(tmp_path / "run"), *FAST])
    assert code == 2


def test_commands_do_not_mutate_inputs(tmp_path):
    data = gen(tmp_path)
    before = data.read_bytes()
    run = train(tmp_path, data)
    main(["evaluate", "--data", str(data),
          "--checkpoints", str(run / "snapshot_1.ckpt"),
          "--out-json", str(tmp_path / "m.json")])
    ckpt_before = (run / "snapshot_1.ckpt").read_bytes()
    main(["bench", "--data", str(data), "--checkpoints", str(run / "snapshot_1.ckpt"),
          "--iterations", "100", "--warmup", "10", "--scenarios", "2",
          "--out-json", str(tmp_path / "l.json")])
    assert data.read_bytes() == before
    assert (run / "snapshot_1.ckpt").read_bytes() == ckpt_before


def test_three_snapshot_ensemble_costs_at_most_2_4_singles(tmp_path):
    from dyttp.training import EnsembleConfig, Snapshot, make_ensemble

    data = gen(tmp_path, count=6)
    scens = load_scenarios(data).all_scenarios()[:2]
    cfg = ModelConfig(width=32, heads=4, modes=3, dropout=0.0)
    model = TrajectoryPredictor(cfg, Rng(20))
    snap = Snapshot(0, model.state_dict())

    trio = make_ensemble([snap] * 3, cfg, EnsembleConfig())

    def cpu_ms_per_call(predict):
        for i in range(10):  # warm-up
            predict(scens[i % len(scens)])
        start = time.process_time()
        for i in range(100):
            predict(scens[i % len(scens)])
        return (time.process_time() - start) * 1e3 / 100

    # CPU time of this process, so other processes on the CPUs do not count;
    # short alternated rounds, each side's fastest kept, filter what remains
    # (cache and frequency effects of a loaded host)
    single, triple = [], []
    for _ in range(10):
        single.append(cpu_ms_per_call(model.predict))
        triple.append(cpu_ms_per_call(trio))
    # the snapshots share one forward pass: the scene preprocessing and the
    # per-op overhead are paid once, and only the array work grows threefold
    ratio = min(triple) / min(single)
    assert ratio <= 2.4, ratio
