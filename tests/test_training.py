import json
import math

import numpy as np
import pytest

from dyttp import tensor as T
from dyttp.backbone import ModelConfig, TrajectoryPredictor, frame_origins, lane_segments
from dyttp.data import GenConfig, Scenario, generate_synthetic
from dyttp.tensor import Rng, Tape, Tensor
from dyttp.training import (
    AdamW, DivergenceError, EnsembleConfig, SchedulerConfig,
    Snapshot, _mean_arrays, classification_ce, eligible_agents, lr_at, make_ensemble, model_from_params,
    regression_nll, select_best_mode, total_loss, train,
)

SMALL = ModelConfig(width=16, heads=2, blocks_per_stage=1, modes=2, dropout=0.0)
FAST_SCHED = SchedulerConfig(cycle_length=1, num_cycles=2)


def batch_of_one(locations, scales=None, probs=None):
    """(locations [1, K, F, 2], scales, mode probs [1, K]) tensors for one agent."""
    locations = np.asarray(locations, dtype=np.float64)
    k = locations.shape[0]
    scales = np.ones_like(locations) if scales is None else np.asarray(scales, dtype=np.float64)
    probs = np.full(k, 1.0 / k) if probs is None else np.asarray(probs, dtype=np.float64)
    return Tensor(locations[None]), Tensor(scales[None]), Tensor(probs[None])


def nll_of_one(locations, scales, gt, valid, mode):
    loc, sc, _ = batch_of_one(locations, scales)
    return regression_nll(loc, sc, gt[None], np.asarray(valid)[None], [mode]).item()


def ce_of_one(probs, mode):
    return classification_ce(Tensor(np.asarray(probs, dtype=np.float64)[None]), [mode]).item()


def best_of_one(locations, gt, valid):
    return int(select_best_mode(np.asarray(locations)[None], gt[None], np.asarray(valid)[None])[0])


# ---------------------------------------------------------------------------
# scheduler

def test_lr_endpoints_and_midpoint():
    cfg = SchedulerConfig(eta_min=1e-5, eta_max=3e-3, cycle_length=8)
    assert lr_at(cfg, 0) == cfg.eta_max
    assert abs(lr_at(cfg, 8) - cfg.eta_min) < 1e-18
    assert abs(lr_at(cfg, 4) - (cfg.eta_max + cfg.eta_min) / 2) < 1e-18


def test_lr_matches_closed_form_on_grid():
    cfg = SchedulerConfig(eta_min=2e-4, eta_max=5e-2, cycle_length=7)
    for e in np.linspace(0.0, 7.0, 1000):
        expected = cfg.eta_min + 0.5 * (cfg.eta_max - cfg.eta_min) * (
            1.0 + math.cos(math.pi * e / 7.0))
        assert abs(lr_at(cfg, e) - expected) <= 1e-12


def test_lr_out_of_range_errors():
    cfg = SchedulerConfig(cycle_length=4)
    with pytest.raises(ValueError):
        lr_at(cfg, -0.1)
    with pytest.raises(ValueError):
        lr_at(cfg, 4.1)
    with pytest.raises(ValueError):
        SchedulerConfig(eta_min=1e-3, eta_max=1e-4)


# ---------------------------------------------------------------------------
# losses

def test_regression_nll_unit_scale_closed_form():
    f = 30
    gt = Rng(1).normal((f, 2))
    nll = nll_of_one(gt[None, :, :].copy(), None, gt, np.ones(f, dtype=bool), 0)
    assert abs(nll - 2 * f * math.log(2.0)) < 1e-9
    assert abs(nll - 41.58883083359672) < 1e-9


def test_regression_nll_half_scale_is_zero():
    f = 30
    gt = Rng(2).normal((f, 2))
    assert abs(nll_of_one(gt[None, :, :].copy(), np.full((1, f, 2), 0.5), gt,
                          np.ones(f, dtype=bool), 0)) < 1e-12


def test_regression_nll_linear_in_residual():
    f = 5
    gt = np.zeros((f, 2))
    b = 0.7
    off = np.full((1, f, 2), 1.3)
    base = nll_of_one(off, np.full((1, f, 2), b), gt, np.ones(f, dtype=bool), 0)
    double = nll_of_one(2 * off, np.full((1, f, 2), b), gt, np.ones(f, dtype=bool), 0)
    assert abs((double - base) - 1.3 / b * 2 * f) < 1e-9


def test_regression_nll_respects_mask():
    f = 4
    gt = np.zeros((f, 2))
    loc = np.zeros((1, f, 2))
    loc[0, -1] = [100.0, 100.0]
    mask = np.array([True, True, True, False])
    assert abs(nll_of_one(loc, np.full((1, f, 2), 0.5), gt, mask, 0)) < 1e-12


def test_regression_nll_each_agent_and_other_modes_ignored():
    # two agents in one call: each row is that agent's own mode, the other mode's
    # (large) residual never enters
    f = 3
    gt = np.zeros((2, f, 2))
    loc = np.zeros((2, 2, f, 2))
    loc[0, 1] = 50.0
    loc[1, 0] = 50.0
    scales = np.full_like(loc, 0.5)
    nll = regression_nll(Tensor(loc), Tensor(scales), gt, np.ones((2, f), dtype=bool), [0, 1])
    assert nll.shape == (2,)
    assert np.all(np.abs(nll.data) < 1e-12)


def test_select_best_mode_rules():
    f = 3
    gt = np.zeros((f, 2))
    exact = np.zeros((2, f, 2))
    exact[1] += 1.0
    assert best_of_one(exact, gt, np.ones(f, dtype=bool)) == 0

    same = np.ones((3, f, 2))
    assert best_of_one(same, gt, np.ones(f, dtype=bool)) == 0

    endpoints = np.zeros((3, f, 2))
    endpoints[0, -1] = [2.0, 0.0]
    endpoints[1, -1] = [0.5, 0.0]
    endpoints[2, -1] = [1.1, 0.0]
    assert best_of_one(endpoints, gt, np.ones(f, dtype=bool)) == 1

    # batched: each agent is judged at its own last valid step
    early = np.zeros((3, f, 2))
    early[0, 1] = [0.1, 0.0]
    early[1, 1] = [3.0, 0.0]
    early[2, 1] = [0.2, 0.0]
    early[0, 2] = [9.0, 0.0]
    valid = np.array([[True, True, True], [True, True, True], [True, True, False]])
    picked = select_best_mode(np.stack([same, endpoints, early]), np.zeros((3, f, 2)), valid)
    assert list(picked) == [0, 1, 0]

    with pytest.raises(ValueError):
        select_best_mode(same[None], gt[None], np.zeros((1, f), dtype=bool))


def test_classification_ce_values():
    assert ce_of_one([1.0 - 1e-15, 1e-15], 0) < 1e-12
    assert abs(ce_of_one(np.full(6, 1.0 / 6.0), 3) - math.log(6.0)) < 1e-12
    assert abs(ce_of_one([0.5, 0.5], 0) - math.log(2.0)) < 1e-12

    both = classification_ce(Tensor(np.array([[0.5, 0.5], [0.25, 0.75]])), [1, 0])
    assert np.allclose(both.data, [math.log(2.0), math.log(4.0)], rtol=0, atol=1e-12)


def test_classification_ce_clamps_zero():
    assert ce_of_one([0.0, 1.0], 0) == pytest.approx(-math.log(1e-12))


def _tiny_split(count=12, sigma=0.1, seed=5):
    return generate_synthetic(count, Rng(seed), GenConfig(noise_sigma=sigma))


def test_total_loss_identity_and_lambda_zero():
    split = _tiny_split()
    model = TrajectoryPredictor(SMALL, Rng(3))
    batch = split.train[:3]
    lb = total_loss(model, batch, lam=0.7, training=False)
    assert abs(lb.total.item() - (lb.reg.item() + 0.7 * lb.cls.item())) < 1e-12
    assert lb.cls.item() >= 0.0

    lb0 = total_loss(model, batch, lam=0.0, training=False)
    assert lb0.total.item() == lb0.reg.item()


def test_total_loss_perfect_prediction_is_zero():
    # bypass the model: perfect locations, b = 0.5, probability 1 on the winner
    f = 4
    gt = Rng(4).normal((f, 2))
    loc, sc, probs = batch_of_one(np.stack([gt, gt + 5.0]), scales=np.full((2, f, 2), 0.5),
                                  probs=np.array([1.0 - 1e-15, 1e-15]))
    valid = np.ones((1, f), dtype=bool)
    k = select_best_mode(loc.data, gt[None], valid)
    reg = regression_nll(loc, sc, gt[None], valid, k)
    ce = classification_ce(probs, k)
    assert abs(reg.item() + ce.item()) < 1e-9


def test_batched_total_loss_and_gradients_match_single_scenarios():
    # one batch averages over all its eligible agents, so it equals the
    # per-scenario losses (and gradients) weighted by eligible-agent counts
    split = _tiny_split(12)
    model = TrajectoryPredictor(SMALL, Rng(20))
    batch = split.train[:5]
    named = dict(model.named_params())
    picked = ["input_proj.weight", "social_blocks.0.attn.wq.weight", "lane_proj.weight",
              "rel_proj.bias", "global_blocks.0.ffn.lin1.weight", "head_out.weight"]

    def run(scenes):
        with Tape() as tape:
            lb = total_loss(model, scenes, lam=0.6, training=False)
        T.backward(lb.total, tape)
        grads = {n: named[n].grad.copy() for n in picked}
        model.zero_grad()
        return lb, grads

    counts = np.array([eligible_agents(s).sum() for s in batch], dtype=np.float64)
    weights = counts / counts.sum()
    singles = [run([s]) for s in batch]
    lb, grads = run(batch)
    for part in ("total", "reg", "cls"):
        want = sum(w * getattr(one, part).item() for w, (one, _) in zip(weights, singles))
        assert abs(getattr(lb, part).item() - want) <= 1e-10 * max(1.0, abs(want)), part
    for n in picked:
        want = sum(w * g[n] for w, (_, g) in zip(weights, singles))
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(grads[n] - want).max() <= 1e-10 * scale, n


def test_total_loss_empty_batch_errors():
    model = TrajectoryPredictor(SMALL, Rng(5))
    with pytest.raises(ValueError):
        total_loss(model, [], training=False)


def test_classification_gradient_detached_from_location_heads():
    split = _tiny_split(4, sigma=0.0)
    model = TrajectoryPredictor(SMALL, Rng(6))
    sc = split.all_scenarios()[0]

    with Tape() as tape:
        lb = total_loss(model, [sc], lam=0.0, training=False)
    T.backward(lb.total, tape)

    f, k = SMALL.pred_steps, SMALL.modes
    grad = model.head_out.weight.grad
    assert grad is not None
    per_mode = grad.reshape(grad.shape[0], k, 4 * f + 1)
    eligible = [n for n in range(sc.num_agents)
                if sc.agent_valid[n].sum() >= 2 and sc.future_valid[n].any()]
    locations = model.forward([sc]).locations.data
    winners = set(select_best_mode(locations[eligible], sc.agent_futures[eligible],
                                   sc.future_valid[eligible]).tolist())
    losers = set(range(k)) - winners
    for mode in losers:
        assert np.all(per_mode[:, mode, :4 * f] == 0.0)
    for mode in winners:
        assert np.any(per_mode[:, mode, :4 * f] != 0.0)


# ---------------------------------------------------------------------------
# optimizer

def test_adamw_zero_grad_zero_decay_no_change():
    opt = AdamW(weight_decay=0.0)
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    before = p.data.copy()
    opt.step([("p", p)], lr=0.1)
    assert np.array_equal(p.data, before)


def test_adamw_descends_quadratic():
    opt = AdamW(weight_decay=0.0)
    w = Tensor(np.array([1.0]), requires_grad=True)
    for _ in range(50):
        w.grad = w.data.copy()  # grad of w^2/2
        opt.step([("w", w)], lr=0.05)
        w.grad = None
    assert abs(w.data[0]) < 0.5


def test_adamw_nan_grad_names_parameter():
    opt = AdamW()
    p = Tensor(np.ones(2), requires_grad=True)
    p.grad = np.array([np.nan, 0.0])
    with pytest.raises(ValueError, match="head.weight"):
        opt.step([("head.weight", p)], lr=0.1)


def test_adamw_inf_grad_names_parameter():
    # an inf gradient would turn the parameter into NaN through m / sqrt(v)
    opt = AdamW()
    p = Tensor(np.ones(2), requires_grad=True)
    p.grad = np.array([np.inf, 0.0])
    with pytest.raises(T.NumericalError, match="non-finite gradient for parameter head.bias"):
        opt.step([("head.bias", p)], lr=0.1)
    assert np.array_equal(p.data, np.ones(2))


def test_regression_nll_rejects_non_positive_scale():
    loc, sc, _ = batch_of_one(np.zeros((1, 3, 2)), scales=np.zeros((1, 3, 2)))
    with pytest.raises(T.NumericalError):
        regression_nll(loc, sc, np.zeros((1, 3, 2)), np.ones((1, 3), dtype=bool), [0])


def test_adamw_deterministic():
    def run():
        opt = AdamW()
        w = Tensor(np.array([0.7, -0.3]), requires_grad=True)
        for i in range(20):
            w.grad = np.sin(w.data + i)
            opt.step([("w", w)], lr=0.01)
        return w.data.copy()

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# training loop

def test_train_produces_snapshots_and_logs():
    split = _tiny_split(14)
    sched = SchedulerConfig(cycle_length=2, num_cycles=3)
    lines = []
    result = train(split, SMALL, sched, Rng(7), batch_size=4,
                   log_sink=lambda r: lines.append(json.dumps(r, sort_keys=True)))
    assert [s.cycle_index for s in result.snapshots] == [0, 1, 2]
    assert len(result.records) == 6
    for rec in result.records:
        assert set(rec) == {"epoch", "cycle", "lr", "train_loss",
                            "val_minADE", "val_minFDE", "val_MR"}
    # learning rate non-increasing within each cycle
    for cycle in (0, 1, 2):
        lrs = [r["lr"] for r in result.records if r["cycle"] == cycle]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
    assert lines == result.log_lines()
    # training makes progress: last cycle's mean epoch loss below the first's
    by_cycle = {}
    for r in result.records:
        by_cycle.setdefault(r["cycle"], []).append(r["train_loss"])
    assert np.mean(by_cycle[2]) <= np.mean(by_cycle[0])


def test_train_deterministic():
    split = _tiny_split(10)
    a = train(split, SMALL, FAST_SCHED, Rng(8), batch_size=4)
    b = train(split, SMALL, FAST_SCHED, Rng(8), batch_size=4)
    assert a.log_lines() == b.log_lines()
    for k in a.snapshots[-1].params:
        assert np.array_equal(a.snapshots[-1].params[k], b.snapshots[-1].params[k])


def test_batched_validation_equals_per_scene_evaluation():
    from dyttp.data import DatasetSplit
    from dyttp.evaluation import evaluate_model

    pool = generate_synthetic(60, Rng(89)).all_scenarios()
    ones = [s for s in pool if s.num_agents == 1]
    sixes = [s for s in pool if s.num_agents == 6]
    val = [s for pair in zip(ones[:5], sixes[:5]) for s in pair] + ones[5:7]
    assert len(val) == 12 and {s.num_agents for s in val} == {1, 6}
    train_scenes = [s for s in pool if 1 < s.num_agents < 6][:8]
    result = train(DatasetSplit(train_scenes, val, seed=0), SMALL,
                   SchedulerConfig(cycle_length=1, num_cycles=1), Rng(10), batch_size=5)
    record = result.records[-1]
    want = evaluate_model(result.model.predict, val)
    for key, value in (("val_minADE", want.minade), ("val_minFDE", want.minfde),
                       ("val_MR", want.mr)):
        assert record[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


def test_train_divergence_aborts_cleanly(monkeypatch):
    # DyT saturation plus bounded Adam updates make organic blow-up slow, so
    # exercise the abort contract by poisoning the loss after the first cycle
    import dyttp.training as training_mod

    split = _tiny_split(6)
    batch_size = 2
    batches_per_epoch = -(-len(split.train) // batch_size)
    calls = {"n": 0}
    real = training_mod.total_loss

    def poisoned(model, batch, lam=1.0, rng=None, training=True):
        calls["n"] += 1
        lb = real(model, batch, lam, rng, training)
        if calls["n"] > batches_per_epoch:  # first poison lands in cycle 1
            lb.total.data = np.array(np.nan)
        return lb

    monkeypatch.setattr(training_mod, "total_loss", poisoned)
    sched = SchedulerConfig(cycle_length=1, num_cycles=3)
    with pytest.raises(DivergenceError) as exc:
        train(split, SMALL, sched, Rng(9), batch_size=batch_size)
    assert exc.value.snapshots, "completed snapshots should be retained"
    assert exc.value.snapshots[-1].cycle_index == 0
    assert "snapshot_0" in str(exc.value)


@pytest.mark.parametrize("raised, seen, message", [
    (ValueError, ValueError, "^bad step$"),
    (T.NumericalError, DivergenceError, "^numerical blow-up at epoch 0 [(]bad step[)]"),
])
def test_train_turns_only_numerical_errors_into_divergence(monkeypatch, raised, seen, message):
    # a plain ValueError in a step is a bug, not a blow-up: it must not read as exit 3
    import dyttp.training as training_mod

    def failing(locations, gt, valid_mask):
        raise raised("bad step")

    monkeypatch.setattr(training_mod, "select_best_mode", failing)
    with pytest.raises(seen, match=message) as exc:
        train(_tiny_split(6), SMALL, SchedulerConfig(cycle_length=1, num_cycles=1), Rng(9))
    assert type(exc.value) is seen


def test_train_resume_from_params():
    split = _tiny_split(8)
    sched = SchedulerConfig(cycle_length=1, num_cycles=2)
    full = train(split, SMALL, sched, Rng(10), batch_size=4)
    resumed = train(split, SMALL, sched, Rng(10), batch_size=4,
                    initial_params=full.snapshots[0].params, start_cycle=1)
    assert [s.cycle_index for s in resumed.snapshots] == [1]
    assert resumed.records[0]["epoch"] == 1


# ---------------------------------------------------------------------------
# ensembling

def _snapshot_of(model, cycle=0):
    return Snapshot(cycle_index=cycle, params=model.state_dict())


def test_duplicated_snapshots_match_single_model():
    split = _tiny_split(4)
    sc = split.all_scenarios()[0]
    model = TrajectoryPredictor(SMALL, Rng(11))
    snap = _snapshot_of(model)
    single = model.predict(sc)
    for strategy in ("prediction_average", "parameter_average"):
        cfg = EnsembleConfig(strategy=strategy)
        preds = make_ensemble([snap, snap, snap], SMALL, cfg)(sc)
        for p, q in zip(preds, single):
            assert np.array_equal(p.locations.data, q.locations.data), strategy
            assert np.array_equal(p.scales.data, q.scales.data), strategy
            assert np.array_equal(p.mode_probs.data, q.mode_probs.data), strategy


def _edge_scenes():
    """A 1-agent scene, a scene with no lane segments, a scene in which one
    agent has no lane segment within the radius while the others have some,
    and the generated scene they were cut from."""
    sc = next(s for s in _tiny_split(12).all_scenarios() if s.num_agents >= 3)
    f = sc.focal_agent
    one = Scenario(sc.agent_histories[[f]], sc.agent_valid[[f]], sc.agent_futures[[f]],
                   sc.future_valid[[f]], sc.lanes, 0, "one-agent")
    no_lanes = Scenario(sc.agent_histories, sc.agent_valid, sc.agent_futures,
                        sc.future_valid, [], sc.focal_agent, "no-lanes")
    far = 0 if f != 0 else 1
    hist, fut = sc.agent_histories.copy(), sc.agent_futures.copy()
    hist[far] += 1e4
    fut[far] += 1e4
    lonely = Scenario(hist, sc.agent_valid, fut, sc.future_valid, sc.lanes, sc.focal_agent, "lonely")
    _, mids = lane_segments(lonely.lanes)
    dist = np.linalg.norm(mids[None] - frame_origins(lonely)[:, None], axis=-1)
    has_key = (dist <= SMALL.radius).any(axis=1)
    assert not has_key[far] and has_key.any()
    assert lane_segments(no_lanes.lanes)[0].shape[0] == 0 and one.num_agents == 1
    return [one, no_lanes, lonely, sc]


@pytest.mark.parametrize("norm_kind", ["dyt", "layernorm"])
def test_stacked_ensemble_equals_mean_of_separate_forwards(norm_kind):
    cfg = ModelConfig(width=16, heads=2, modes=2, dropout=0.0, norm_kind=norm_kind)
    params = [TrajectoryPredictor(cfg, Rng(40 + k)).state_dict() for k in range(4)]
    scenes = _edge_scenes()
    for size in (2, 3, 4):
        used = params[:size]
        ensemble = make_ensemble([Snapshot(k, p) for k, p in enumerate(used)], cfg, EnsembleConfig())
        members = [model_from_params(p, cfg) for p in used]
        for sc in scenes:
            outs = [m.forward([sc]) for m in members]
            probs = _mean_arrays([o.mode_probs.data for o in outs])
            sums = probs.sum(axis=1, keepdims=True)
            probs = np.where(np.abs(sums - 1.0) > 1e-12, probs / sums, probs)
            locations = _mean_arrays([o.locations.data for o in outs])
            scales = _mean_arrays([o.scales.data for o in outs])
            got = ensemble(sc)
            assert len(got) == sc.num_agents
            for a, p in enumerate(got):
                assert np.array_equal(p.locations.data, locations[a]), (size, sc.scenario_id)
                assert np.array_equal(p.scales.data, scales[a]), (size, sc.scenario_id)
                assert np.array_equal(p.mode_probs.data, probs[a]), (size, sc.scenario_id)


def test_single_snapshot_equals_plain_predict():
    split = _tiny_split(4)
    sc = split.all_scenarios()[1]
    model = TrajectoryPredictor(SMALL, Rng(12))
    snap = _snapshot_of(model)
    plain = model.predict(sc)
    for strategy in ("prediction_average", "parameter_average"):
        preds = make_ensemble([snap], SMALL, EnsembleConfig(strategy=strategy))(sc)
        for p, q in zip(preds, plain):
            assert np.array_equal(p.locations.data, q.locations.data)
            assert np.array_equal(p.mode_probs.data, q.mode_probs.data)


def test_symmetric_offsets_average_to_midpoint():
    split = _tiny_split(4)
    sc = split.all_scenarios()[0]
    model = TrajectoryPredictor(SMALL, Rng(13))
    base = _snapshot_of(model, 0)

    plus = {k: v.copy() for k, v in base.params.items()}
    minus = {k: v.copy() for k, v in base.params.items()}
    plus["head_out.bias"] = plus["head_out.bias"] + 0.25
    minus["head_out.bias"] = minus["head_out.bias"] - 0.25
    snaps = [Snapshot(0, plus), Snapshot(1, minus)]

    mid_pred = make_ensemble(snaps, SMALL, EnsembleConfig("parameter_average"))(sc)
    base_pred = model_from_params(base.params, SMALL).predict(sc)
    for p, q in zip(mid_pred, base_pred):
        assert np.allclose(p.locations.data, q.locations.data, atol=1e-12)

    # prediction averaging of symmetrically shifted locations hits the midpoint
    pa = make_ensemble([snaps[0]], SMALL, EnsembleConfig())(sc)
    pb = make_ensemble([snaps[1]], SMALL, EnsembleConfig())(sc)
    both = make_ensemble(snaps, SMALL, EnsembleConfig())(sc)
    for p, a, b in zip(both, pa, pb):
        assert np.allclose(p.locations.data,
                           (a.locations.data + b.locations.data) / 2, atol=1e-12)


def test_snapshots_used_takes_most_recent():
    split = _tiny_split(4)
    sc = split.all_scenarios()[0]
    m1 = TrajectoryPredictor(SMALL, Rng(14))
    m2 = TrajectoryPredictor(SMALL, Rng(15))
    snaps = [_snapshot_of(m1, 0), _snapshot_of(m2, 1)]
    last_only = make_ensemble(snaps, SMALL, EnsembleConfig(snapshots_used=1))(sc)
    direct = m2.predict(sc)
    for p, q in zip(last_only, direct):
        assert np.array_equal(p.locations.data, q.locations.data)


def test_mismatched_architecture_errors():
    m1 = TrajectoryPredictor(SMALL, Rng(16))
    m2 = TrajectoryPredictor(ModelConfig(width=32, heads=2, modes=2, dropout=0.0), Rng(17))
    with pytest.raises(ValueError):
        make_ensemble([_snapshot_of(m1), _snapshot_of(m2)], SMALL, EnsembleConfig())
    with pytest.raises(ValueError):
        make_ensemble([], SMALL, EnsembleConfig())
    with pytest.raises(ValueError):
        EnsembleConfig(strategy="majority_vote")
