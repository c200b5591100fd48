"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion. The desk-scale training criterion (7) really trains the default
configuration and takes a few minutes; it and criterion 1 are marked `slow`,
so `pytest -m "not slow"` leaves them out. Everything else is fast.
"""

import json
import math
import time

import numpy as np
import pytest

from dyttp import tensor as T
from dyttp.backbone import ModelConfig, TrajectoryPredictor
from dyttp.cli import load_checkpoint, main, save_checkpoint
from dyttp.data import (
    FormatError, GenConfig, Scenario, generate_synthetic, load_scenarios,
    save_scenarios,
)
from dyttp.evaluation import (
    constant_velocity_predict, evaluate_model, norm_layer_latency, score_focal,
)
from dyttp.layers import DynamicTanh, grad_check_params
from dyttp.tensor import Rng, Tensor, grad_check
from dyttp.training import (
    EnsembleConfig, SchedulerConfig, Snapshot, classification_ce, lr_at,
    make_ensemble, regression_nll, select_best_mode, total_loss, train,
)


def ok(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def tiny_scenario(seed, cfg, n_agents=2, n_lanes=2):
    rng = Rng(seed)
    t, f = cfg.obs_steps, cfg.pred_steps
    hist = rng.uniform((n_agents, t, 2), -5.0, 5.0)
    hist += np.cumsum(np.full((n_agents, t, 2), 0.5), axis=1)
    fut = hist[:, -1:, :] + np.cumsum(rng.uniform((n_agents, f, 2), 0.2, 0.8), axis=1)
    lanes = [rng.uniform((4, 2), -5.0, 5.0) for _ in range(n_lanes)]
    return Scenario(hist, np.ones((n_agents, t), dtype=bool), fut,
                    np.ones((n_agents, f), dtype=bool), lanes, 0, f"tiny-{seed}")


# ---------------------------------------------------------------------------
# 1. gradient correctness for every differentiable op and the full backbone

@pytest.mark.slow
def test_criterion_1_gradient_correctness():
    started = time.time()
    rng = Rng(101)
    h = 1e-5
    worst = {}

    def check(name, f, x):
        worst[name] = grad_check(f, Tensor(x), h=h)

    a = rng.uniform((2, 4), -2.0, 2.0)
    pos = rng.uniform((2, 4), 0.2, 2.0)
    w = rng.uniform((2, 4), -1.0, 1.0)
    check("add", lambda t: T.sum_(T.mul(T.add(t, a), w)), rng.uniform((2, 4), -2, 2))
    check("sub", lambda t: T.sum_(T.mul(T.sub(a, t), w)), rng.uniform((2, 4), -2, 2))
    check("mul", lambda t: T.sum_(T.mul(T.mul(t, a), w)), rng.uniform((2, 4), -2, 2))
    check("div", lambda t: T.sum_(T.mul(T.div(a, t), w)), rng.uniform((2, 4), 0.5, 2))
    check("tanh", lambda t: T.sum_(T.mul(T.tanh(t), w)), rng.uniform((2, 4), -2, 2))
    check("log", lambda t: T.sum_(T.mul(T.log(t), w)), pos.copy())
    check("neg", lambda t: T.sum_(T.mul(T.neg(t), w)), rng.uniform((2, 4), -2, 2))
    check("abs", lambda t: T.sum_(T.mul(T.abs_(t), w)), pos + 0.1)
    check("softplus", lambda t: T.sum_(T.mul(T.softplus(t), w)), rng.uniform((2, 4), -2, 2))
    check("sqrt", lambda t: T.sum_(T.mul(T.sqrt(t), w)), pos.copy())
    check("clamp_min", lambda t: T.sum_(T.mul(T.clamp_min(t, 1.0), w)),
          rng.uniform((2, 4), 1.2, 2.0))
    check("mask_fill", lambda t: T.sum_(T.mul(T.mask_fill(t, a > 0, -2.0), w)),
          rng.uniform((2, 4), -2, 2))
    check("matmul", lambda t: T.sum_(T.mul(T.matmul(t, a.T), np.ones((2, 2)))),
          rng.uniform((2, 4), -2, 2))
    check("transpose", lambda t: T.sum_(T.mul(T.transpose(t, (1, 0)), w.T)),
          rng.uniform((2, 4), -2, 2))
    check("reshape", lambda t: T.sum_(T.mul(T.reshape(t, (4, 2)), 1.5)),
          rng.uniform((2, 4), -2, 2))
    check("getitem", lambda t: T.sum_(T.getitem(t, (slice(None), 1))),
          rng.uniform((2, 4), -2, 2))
    # a repeated integer index must add, not overwrite, the gradients it scatters
    check("getitem_repeated", lambda t: T.sum_(T.mul(T.getitem(t, np.array([1, 0, 1, 1])),
                                                     np.arange(1.0, 17.0).reshape(4, 4))),
          rng.uniform((2, 4), -2, 2))
    check("sum", lambda t: T.sum_(T.mul(T.sum_(t, axis=1), np.ones(2))),
          rng.uniform((2, 4), -2, 2))
    check("mean", lambda t: T.mean(T.mul(t, t)), rng.uniform((2, 4), -2, 2))
    check("softmax", lambda t: T.sum_(T.mul(T.softmax(t, axis=-1), w)),
          rng.uniform((2, 4), -2, 2))

    for name, err in worst.items():
        assert err <= 1e-4, (name, err)

    # full backbone through the training loss, tiny configuration
    cfg = ModelConfig(width=8, heads=2, blocks_per_stage=1, modes=2,
                      obs_steps=4, pred_steps=3, dropout=0.0)
    model = TrajectoryPredictor(cfg, Rng(102))
    sc = tiny_scenario(103, cfg, n_agents=2, n_lanes=2)
    errors = grad_check_params(
        model, lambda: total_loss(model, [sc], lam=1.0, training=False).total, h=h)
    worst_name = max(errors, key=errors.get)
    assert errors[worst_name] <= 1e-4, (worst_name, errors[worst_name])

    elapsed = time.time() - started
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    ok(1, f"all op and backbone gradients within 1e-4 "
          f"(worst backbone: {errors[worst_name]:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. learning-rate schedule exactness

def test_criterion_2_schedule_exactness():
    cfg = SchedulerConfig(eta_min=1e-5, eta_max=3e-3, cycle_length=8, num_cycles=4)
    assert lr_at(cfg, 0) == cfg.eta_max
    assert lr_at(cfg, cfg.cycle_length) == pytest.approx(cfg.eta_min, abs=1e-18)
    for e in np.linspace(0.0, cfg.cycle_length, 1000):
        expected = cfg.eta_min + 0.5 * (cfg.eta_max - cfg.eta_min) * (
            1.0 + math.cos(math.pi * e / cfg.cycle_length))
        assert abs(lr_at(cfg, e) - expected) <= 1e-12
    ok(2, "cosine warm-restart schedule matches the closed form at 1000 grid "
          "points to 1e-12 with exact endpoints")


# ---------------------------------------------------------------------------
# 3. DynamicTanh properties and the latency edge

def test_criterion_3_dynamic_tanh():
    rng = Rng(301)
    dyt = DynamicTanh(8)
    dyt.alpha.data = np.array(0.7)
    dyt.gamma.data = rng.normal((8,), std=1.5)
    dyt.beta.data = rng.normal((8,))

    x = rng.uniform((500, 8), -1e4, 1e4)
    out = dyt(Tensor(x)).data
    bound = np.abs(dyt.gamma.data) + np.abs(dyt.beta.data)
    assert np.all(np.abs(out) <= bound + 1e-12)

    zero_out = dyt(Tensor(np.zeros((3, 8)))).data
    assert np.array_equal(zero_out, np.broadcast_to(dyt.beta.data, (3, 8)))

    dyt_ms = norm_layer_latency("dyt", (32, 50, 64), iterations=1000, warmup=100)
    ln_ms = norm_layer_latency("layernorm", (32, 50, 64), iterations=1000, warmup=100)
    assert dyt_ms <= ln_ms, f"DyT {dyt_ms:.3f} ms vs LayerNorm {ln_ms:.3f} ms"
    ok(3, f"bounded, DyT(0)=beta exactly, and DyT {dyt_ms:.3f} ms <= "
          f"LayerNorm {ln_ms:.3f} ms on (32,50,64) x 1000")


# ---------------------------------------------------------------------------
# 4. metric oracle equivalence

def _oracle_ade(locations, gt, valid):
    best = None
    for k in range(len(locations)):
        total, n = 0.0, 0
        for t in range(len(gt)):
            if not valid[t]:
                continue
            dx = locations[k][t][0] - gt[t][0]
            dy = locations[k][t][1] - gt[t][1]
            total += math.sqrt(dx * dx + dy * dy)
            n += 1
        if n == 0:
            return None
        if best is None or total / n < best:
            best = total / n
    return best


def _oracle_fde(locations, gt, valid):
    if not valid[-1]:
        return None
    best = None
    for k in range(len(locations)):
        dx = locations[k][-1][0] - gt[-1][0]
        dy = locations[k][-1][1] - gt[-1][1]
        d = math.sqrt(dx * dx + dy * dy)
        if best is None or d < best:
            best = d
    return best


def _focal_scene(gt, valid):
    return Scenario(np.zeros((1, 2, 2)), np.ones((1, 2), dtype=bool), gt[None],
                    valid[None], [], 0, "focal")


def test_criterion_4_metric_oracle_equivalence():
    rng = Rng(401)
    mism = 0
    misses, naive = 0.0, []
    for _ in range(1000):
        k = 1 + rng.integers(4)
        f = 1 + rng.integers(5)
        loc = rng.uniform((k, f, 2), -6.0, 6.0)
        gt = rng.uniform((f, 2), -6.0, 6.0)
        valid = np.asarray(rng.uniform((f,)) < 0.85, dtype=bool)
        if not valid.any():
            valid[0] = True
        # scored beside a pad scene that every mode hits exactly: the pad adds
        # 0 to each sum, so twice each mean is the instance's own error,
        # exactly; with its final step invalid the pad alone is in minFDE/MR
        pad = np.broadcast_to(gt, loc.shape)
        report = score_focal(np.stack([loc, pad]),
                             [_focal_scene(gt, valid), _focal_scene(gt, np.ones(f, dtype=bool))])
        want_fde = _oracle_fde(loc.tolist(), gt.tolist(), valid.tolist())
        if 2 * report.minade != _oracle_ade(loc.tolist(), gt.tolist(), valid.tolist()):
            mism += 1
        if 2 * report.minfde != (0.0 if want_fde is None else want_fde):
            mism += 1
        if valid[-1]:
            misses += 2 * report.mr
            naive.append(want_fde)
    assert mism == 0

    got_mr = misses / len(naive)
    want_mr = sum(d > 2.0 for d in naive) / len(naive)
    assert got_mr == want_mr

    # boundary rule: an endpoint error of exactly 2.0 m is a hit
    loc = np.zeros((1, 1, 3, 2))
    loc[0, 0, -1, 0] = 2.0
    assert score_focal(loc, [_focal_scene(np.zeros((3, 2)), np.ones(3, dtype=bool))]).mr == 0.0
    ok(4, "minADE/minFDE/MR equal the naive-loop oracle on 1000 random "
          "instances; 2.0 m boundary counts as a hit")


# ---------------------------------------------------------------------------
# 5. loss identities

def test_criterion_5_loss_identities():
    split = generate_synthetic(10, Rng(501), GenConfig(noise_sigma=0.1))
    model = TrajectoryPredictor(ModelConfig(width=16, heads=2, modes=2, dropout=0.0),
                                Rng(502))
    for lam in (0.0, 0.5, 1.0, 2.5):
        lb = total_loss(model, split.train[:3], lam=lam, training=False)
        assert abs(lb.total.item() - (lb.reg.item() + lam * lb.cls.item())) <= 1e-12

    f = 30
    gt = Rng(503).normal((f, 2))[None]                 # one agent
    loc = Tensor(np.stack([gt[0], gt[0] + 3.0])[None])  # [1, K=2, F, 2]
    scales = Tensor(np.full((1, 2, f, 2), 0.5))
    probs = Tensor(np.array([[1.0, 0.0]]))
    valid = np.ones((1, f), dtype=bool)
    k = select_best_mode(loc.data, gt, valid)
    reg = regression_nll(loc, scales, gt, valid, k).item()
    # clamped cross entropy of probability 1 is -log(1) = 0
    ce = classification_ce(probs, k).item()
    assert reg == 0.0 and ce == 0.0

    uniform = Tensor(np.full((1, 6), 1.0 / 6.0))
    assert abs(classification_ce(uniform, [2]).item() - math.log(6.0)) <= 1e-12
    ok(5, "total == reg + lambda*cls to 1e-12; perfect prediction scores 0; "
          "uniform CE over 6 modes equals ln 6")


# ---------------------------------------------------------------------------
# 6. snapshot-ensemble identities

def test_criterion_6_ensemble_identities():
    cfg = ModelConfig(width=16, heads=2, modes=3, dropout=0.0)
    model = TrajectoryPredictor(cfg, Rng(601))
    sc = tiny_scenario(602, cfg, n_agents=3, n_lanes=2)
    snap = Snapshot(0, model.state_dict())
    single = model.predict(sc)

    for strategy in ("prediction_average", "parameter_average"):
        dup = make_ensemble([snap] * 4, cfg, EnsembleConfig(strategy=strategy))(sc)
        one = make_ensemble([snap], cfg, EnsembleConfig(strategy=strategy))(sc)
        for got, want in zip(dup, single):
            assert np.array_equal(got.locations.data, want.locations.data)
            assert np.array_equal(got.scales.data, want.scales.data)
            assert np.array_equal(got.mode_probs.data, want.mode_probs.data)
        for got, want in zip(one, single):
            assert np.array_equal(got.locations.data, want.locations.data)
            assert np.array_equal(got.mode_probs.data, want.mode_probs.data)
    ok(6, "duplicated snapshots and S=1 ensembles are bit-identical to the "
          "single model under both strategies")


# ---------------------------------------------------------------------------
# 7. desk-scale training success (takes a few minutes)

@pytest.mark.slow
def test_criterion_7_desk_scale_training():
    started = time.time()
    split = generate_synthetic(1000, Rng(42), GenConfig(noise_sigma=0.1))
    cfg = ModelConfig()            # D=32, 1 block/stage, K=3
    sched = SchedulerConfig()      # 4 cycles x 8 epochs

    untrained = TrajectoryPredictor(cfg, Rng(7).child(0))
    base = evaluate_model(untrained.predict, split.val)

    result = train(split, cfg, sched, Rng(7), batch_size=8)
    elapsed_min = (time.time() - started) / 60.0
    assert elapsed_min < 30.0, f"training took {elapsed_min:.1f} min"

    first_cycle = [r["train_loss"] for r in result.records if r["cycle"] == 0]
    last_cycle = [r["train_loss"] for r in result.records
                  if r["cycle"] == sched.num_cycles - 1]
    assert np.mean(last_cycle) <= np.mean(first_cycle)

    final = evaluate_model(result.model.predict, split.val)
    assert final.minade <= 0.6 * base.minade, (final.minade, base.minade)

    arcs = [s for s in split.val if "arc" in s.scenario_id]
    cv = evaluate_model(constant_velocity_predict, arcs)
    model_arcs = evaluate_model(result.model.predict, arcs)
    assert model_arcs.minade < cv.minade, (model_arcs.minade, cv.minade)
    ok(7, f"trained in {elapsed_min:.1f} min; val minADE {final.minade:.3f} vs "
          f"untrained {base.minade:.3f} ({1 - final.minade / base.minade:.0%} better); "
          f"arcs {model_arcs.minade:.3f} vs constant-velocity {cv.minade:.3f}")


# ---------------------------------------------------------------------------
# 8. ablation structure via the CLI

def test_criterion_8_ablation_structure(tmp_path):
    data = tmp_path / "abl.bin"
    assert main(["gen-data", "--count", "60", "--seed", "11", "--out", str(data)]) == 0
    out = tmp_path / "ablation"
    assert main(["ablate", "--data", str(data), "--out-dir", str(out), "--seed", "11",
                 "--width", "16", "--heads", "2", "--modes", "2", "--dropout", "0.05",
                 "--cycles", "2", "--epochs-per-cycle", "2", "--batch-size", "8",
                 "--bench-iterations", "100", "--bench-warmup", "10"]) == 0

    doc = json.loads((out / "ablation.json").read_text())
    grid = [(c["dyt_enabled"], c["snapshot_enabled"]) for c in doc["cells"]]
    assert grid == [(False, False), (True, False), (False, True), (True, True)]
    assert all(c["error"] is None for c in doc["cells"])
    assert all(c["seed"] == 11 for c in doc["cells"])
    for c in doc["cells"]:
        assert {"minADE", "minFDE", "MR", "count"} <= set(c["metrics"])
        assert {"ave_ms", "std_ms", "min_ms", "max_ms"} <= set(c["latency"])

    table = (out / "ablation.txt").read_text()
    for col in ("DyT", "Snapshot", "Backbone", "ADE", "FDE", "MR", "inf(ms)"):
        assert col in table
    assert len(table.strip().splitlines()) == 6  # header + rule + 4 rows

    dyt_logs = [(out / f"cell_{i}_train_log.jsonl").read_bytes() for i in (1, 3)]
    assert dyt_logs[0] == dyt_logs[1]
    ln_logs = [(out / f"cell_{i}_train_log.jsonl").read_bytes() for i in (0, 2)]
    assert ln_logs[0] == ln_logs[1]
    ok(8, "cmd_ablate emits the full 2x2 grid with ADE/FDE/MR/inference-ms; "
          "equal-norm cells have byte-identical training logs")


# ---------------------------------------------------------------------------
# 9. end-to-end reproducibility

def test_criterion_9_reproducibility(tmp_path):
    data = tmp_path / "data.bin"
    assert main(["gen-data", "--count", "40", "--seed", "21", "--out", str(data)]) == 0

    flags = ["--width", "16", "--heads", "2", "--modes", "2", "--dropout", "0.05",
             "--cycles", "2", "--epochs-per-cycle", "1", "--batch-size", "8",
             "--seed", "21"]
    outputs = []
    for name in ("run_a", "run_b"):
        run = tmp_path / name
        assert main(["train", "--data", str(data), "--out", str(run), *flags]) == 0
        metrics = tmp_path / f"{name}.json"
        assert main(["evaluate", "--data", str(data),
                     "--checkpoints", str(run / "snapshot_0.ckpt"),
                     str(run / "snapshot_1.ckpt"),
                     "--ensemble", "prediction_average",
                     "--out-json", str(metrics)]) == 0
        outputs.append((
            (run / "snapshot_0.ckpt").read_bytes(),
            (run / "snapshot_1.ckpt").read_bytes(),
            (run / "training_log.jsonl").read_bytes(),
            metrics.read_bytes(),
        ))
    assert outputs[0] == outputs[1]
    ok(9, "two identical train+evaluate runs produce byte-identical "
          "checkpoints, logs, and metric JSON")


# ---------------------------------------------------------------------------
# 10. lossless round trips and clean corruption errors

def test_criterion_10_roundtrips_and_corruption(tmp_path):
    split = generate_synthetic(15, Rng(31))
    p1, p2 = tmp_path / "d1.bin", tmp_path / "d2.bin"
    save_scenarios(split, p1)
    once = load_scenarios(p1)
    save_scenarios(once, p2)
    twice = load_scenarios(p2)
    for a, b in zip(once.all_scenarios(), twice.all_scenarios()):
        assert a.scenario_id == b.scenario_id
        assert np.array_equal(a.agent_histories, b.agent_histories)
        assert np.array_equal(a.agent_futures, b.agent_futures)
        assert np.array_equal(a.agent_valid, b.agent_valid)
    assert p1.read_bytes() == p2.read_bytes()

    cfg = ModelConfig(width=16, heads=2, modes=2)
    model = TrajectoryPredictor(cfg, Rng(32))
    ck1, ck2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(ck1, model.state_dict(), cfg, 0)
    params, header = load_checkpoint(ck1)
    save_checkpoint(ck2, params, cfg, 0)
    assert ck1.read_bytes() == ck2.read_bytes()
    assert header["rng_algorithm"] == "splitmix64"

    raw = p1.read_bytes()
    cut = tmp_path / "cut.bin"
    cut.write_bytes(raw[:-11])
    with pytest.raises(FormatError):
        load_scenarios(cut)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(ck1.read_bytes()[:-5])
    with pytest.raises(FormatError):
        load_checkpoint(bad)
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"ZZZZ" + raw[4:])
    with pytest.raises(FormatError):
        load_scenarios(junk)
    ok(10, "dataset and checkpoint round trips are lossless after the first "
           "f32 narrowing; truncated or mislabeled files raise clean errors")
