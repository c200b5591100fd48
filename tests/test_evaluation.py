import math

import numpy as np
import pytest

from dyttp.backbone import BatchPrediction, ModelConfig, TrajectoryPredictor
from dyttp.data import GenConfig, Scenario, generate_synthetic
from dyttp.evaluation import (
    LatencyReport, MetricsReport, bench_latency,
    constant_velocity_predict, evaluate_model, format_ablation_table,
    format_latency_table, format_metrics_table, run_ablation, score_focal,
)
from dyttp.tensor import Rng, Tensor
from dyttp.training import SchedulerConfig


def make_pred(locations):
    locations = np.asarray(locations, dtype=np.float64)
    k = locations.shape[0]
    # row 0 of a one-agent batch, the shape evaluate_model scores
    return BatchPrediction(Tensor(locations[None]), Tensor(np.ones_like(locations)[None]),
                           Tensor(np.full((1, k), 1.0 / k)))[0]


def focal_scene(gt, valid=None):
    """A one-agent scene whose focal future is gt [F, 2] with validity valid [F]."""
    gt = np.asarray(gt, dtype=np.float64)
    valid = np.ones(gt.shape[0], dtype=bool) if valid is None else valid
    return Scenario(np.zeros((1, 2, 2)), np.ones((1, 2), dtype=bool), gt[None],
                    np.asarray(valid, dtype=bool)[None], [], 0, "focal")


def score(locations, gt, valid=None) -> MetricsReport:
    """score_focal on one scene: locations [K, F, 2], gt [F, 2], valid [F]."""
    return score_focal(np.asarray(locations)[None], [focal_scene(gt, valid)])


def score_with_pad(locations, gt, valid):
    """(2 * minADE, 2 * minFDE, MR) of one instance scored beside a pad scene
    that every mode predicts exactly, so the pad adds 0 to each sum and the
    doubled means are the instance's own errors, exactly. An instance whose
    final step is invalid leaves minFDE and MR to the pad: 0 and 0."""
    pad = np.broadcast_to(gt, locations.shape)
    report = score_focal(np.stack([locations, pad]), [focal_scene(gt, valid), focal_scene(gt)])
    return 2 * report.minade, 2 * report.minfde, report.mr


# ---------------------------------------------------------------------------
# independent naive-loop oracle

def oracle_ade(locations, gt, valid):
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
        ade = total / n
        if best is None or ade < best:
            best = ade
    return best


def oracle_fde(locations, gt, valid):
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


def oracle_mr(all_locations, all_gts, all_valids):
    misses, total = 0, 0
    for locations, gt, valid in zip(all_locations, all_gts, all_valids):
        fde = oracle_fde(locations, gt, valid)
        if fde is None:
            continue
        total += 1
        if fde > 2.0:
            misses += 1
    return misses / total


def test_package_names_resolve():
    import dyttp

    for name in dyttp.__all__:
        assert getattr(dyttp, name) is not None, name


def test_min_ade_examples():
    f = 4
    gt = np.arange(f * 2, dtype=np.float64).reshape(f, 2)
    assert score(np.stack([gt, gt + 10.0]), gt).minade == 0.0

    offset = (gt + np.array([3.0, 4.0]))[None]
    assert score(offset, gt).minade == pytest.approx(5.0, abs=1e-12)

    two = np.stack([gt + np.array([2.0, 0.0]), gt + np.array([0.8, 0.0])])
    assert score(two, gt).minade == pytest.approx(0.8, abs=1e-12)


def test_min_fde_examples():
    f = 4
    gt = np.zeros((f, 2))
    assert score(np.zeros((1, f, 2)), gt).minfde == 0.0

    loc = np.zeros((1, f, 2))
    loc[0, -1] = [0.0, 2.5]
    assert score(loc, gt).minfde == pytest.approx(2.5)

    # a mode with the worst ADE can still win FDE
    crossing = np.zeros((2, f, 2))
    crossing[0, :, 0] = [0.1, 0.1, 0.1, 5.0]   # good early, bad endpoint
    crossing[1, :, 0] = [4.0, 4.0, 4.0, 0.2]   # bad early, good endpoint
    valid = np.ones(f, dtype=bool)
    report = score(crossing, gt, valid)
    assert oracle_ade(crossing, gt, valid) == pytest.approx(report.minade)
    assert report.minfde == pytest.approx(0.2)
    ades = [oracle_ade(crossing[k:k + 1], gt, valid) for k in range(2)]
    assert np.argmin(ades) == 0  # ade winner is mode 0, fde winner is mode 1


def test_min_metrics_exclusions():
    f = 3
    gt = np.zeros((f, 2))
    loc = np.zeros((2, f, 2))
    loc[:, :, 0] = 1.5
    hit = np.zeros((2, f, 2))
    scenes = [focal_scene(gt), focal_scene(gt, np.zeros(f, dtype=bool)),
              focal_scene(gt, np.array([True, True, False]))]
    # scene 1 has no valid step: out of minADE; scene 2's final step is
    # invalid: in minADE, out of minFDE and MR
    report = score_focal(np.stack([hit, loc, loc]), scenes)
    assert report.minade == pytest.approx(0.75)
    assert report.minfde == 0.0 and report.mr == 0.0 and report.count == 3
    with pytest.raises(ValueError):
        score_focal(np.stack([loc, loc]), scenes[1:])


def test_miss_rate_examples():
    f = 2
    gt = np.zeros((f, 2))

    def mr(endpoint_errors):
        loc = np.zeros((len(endpoint_errors), 1, f, 2))
        loc[:, 0, -1, 0] = endpoint_errors
        return score_focal(loc, [focal_scene(gt)] * len(endpoint_errors)).mr

    assert mr([0.0, 0.0, 0.0]) == 0.0
    assert mr([1.9, 2.1]) == 0.5
    assert mr([2.0]) == 0.0  # exactly 2.0 counts as a hit

    with pytest.raises(ValueError):
        score_focal(np.zeros((0, 1, f, 2)), [])


def test_metric_oracle_equivalence_random_instances():
    rng = Rng(77)
    all_locs, all_gts, all_valids = [], [], []
    for _ in range(1000):
        k = 1 + rng.integers(4)
        f = 1 + rng.integers(5)
        loc = rng.uniform((k, f, 2), -6.0, 6.0)
        gt = rng.uniform((f, 2), -6.0, 6.0)
        valid = rng.uniform((f,)) < 0.8
        valid = np.asarray(valid, dtype=bool)
        if not valid.any():
            valid[0] = True
        ade, fde, _ = score_with_pad(loc, gt, valid)
        assert ade == oracle_ade(loc.tolist(), gt.tolist(), valid.tolist())
        want_fde = oracle_fde(loc.tolist(), gt.tolist(), valid.tolist())
        assert fde == (0.0 if want_fde is None else want_fde)
        all_locs.append(loc)
        all_gts.append(gt)
        all_valids.append(valid)
    keep = [i for i, v in enumerate(all_valids) if v[-1]]
    # each kept instance scores an MR of 0 or 1 on its own; instances differ
    # in K and F, so they cannot share one array
    misses = sum(score(all_locs[i], all_gts[i], all_valids[i]).mr for i in keep)
    assert misses / len(keep) == \
        oracle_mr([all_locs[i].tolist() for i in keep],
                  [all_gts[i].tolist() for i in keep],
                  [all_valids[i].tolist() for i in keep])


@pytest.mark.parametrize("f", [1, 2, 9, 30])
def test_score_focal_many_scenes_matches_oracle(f):
    rng = Rng(90 + f)
    n, k = 60, 6
    locs = rng.uniform((n, k, f, 2), -6.0, 6.0)
    gts = rng.uniform((n, f, 2), -6.0, 6.0)
    valids = np.asarray(rng.uniform((n, f)) < 0.75, dtype=bool)
    valids[0] = True
    valids[1] = False                          # no valid step
    valids[2, :] = True
    valids[2, -1] = False                      # invalid final step only
    report = score_focal(locs, [focal_scene(g, v) for g, v in zip(gts, valids)])

    args = [(l.tolist(), g.tolist(), v.tolist()) for l, g, v in zip(locs, gts, valids)]
    ades = [a for a in (oracle_ade(*x) for x in args) if a is not None]
    fdes = [d for d in (oracle_fde(*x) for x in args) if d is not None]
    assert len(ades) < n and len(fdes) < n  # both exclusions are exercised
    assert report.minade == pytest.approx(sum(ades) / len(ades), rel=1e-12, abs=0)
    assert report.minfde == pytest.approx(sum(fdes) / len(fdes), rel=1e-12, abs=0)
    assert report.mr == oracle_mr(*zip(*args))
    assert report.count == n

    # scene by scene, the errors equal the step-by-step oracle exactly, at any F
    for i, x in enumerate(args):
        want_ade, want_fde = oracle_ade(*x), oracle_fde(*x)
        ade, fde, _ = score_with_pad(locs[i], gts[i], valids[i])
        assert ade == (0.0 if want_ade is None else want_ade)
        assert fde == (0.0 if want_fde is None else want_fde)


def test_metrics_translation_invariant():
    rng = Rng(78)
    # snap coordinates to a 2^-10 grid so adding the shift is exact in f64
    loc = np.round(rng.uniform((3, 5, 2), -4.0, 4.0) * 1024) / 1024
    gt = np.round(rng.uniform((5, 2), -4.0, 4.0) * 1024) / 1024
    shift = np.array([128.0, -64.0])
    assert score(loc + shift, gt + shift) == score(loc, gt)


def test_duplicate_mode_never_changes_metrics():
    rng = Rng(79)
    for _ in range(50):
        k = 1 + rng.integers(3)
        loc = rng.uniform((k, 4, 2), -5.0, 5.0)
        gt = rng.uniform((4, 2), -5.0, 5.0)
        dup_idx = rng.integers(k)
        dup = np.concatenate([loc, loc[dup_idx:dup_idx + 1]])
        assert score(dup, gt) == score(loc, gt)


def test_miss_rate_monotone_in_endpoint_error():
    f = 3
    gt = np.zeros((f, 2))

    def mr(errors):
        loc = np.zeros((len(errors), 1, f, 2))
        loc[:, 0, -1, 0] = errors
        return score_focal(loc, [focal_scene(gt)] * len(errors)).mr

    errors = np.array([0.5, 1.0, 1.5, 2.5, 3.0])
    assert mr(errors + 1.0) >= mr(errors)


def test_evaluate_model_perfect_oracle_stub():
    split = generate_synthetic(12, Rng(80), GenConfig(noise_sigma=0.0))

    def oracle_predict(s):
        return [make_pred(s.agent_futures[n][None]) for n in range(s.num_agents)]

    report = evaluate_model(oracle_predict, split.all_scenarios())
    assert report.minade == 0.0
    assert report.minfde == 0.0
    assert report.mr == 0.0
    assert report.count == 12


def test_constant_velocity_baseline_on_straight():
    split = generate_synthetic(10, Rng(83), GenConfig(noise_sigma=0.0,
                                                      maneuver_mix=(1.0, 0, 0, 0)))
    report = evaluate_model(constant_velocity_predict, split.all_scenarios())
    assert report.minade < 1e-8
    assert report.mr == 0.0


def test_bench_latency_contract():
    split = generate_synthetic(3, Rng(84))

    def stub(s):
        return None

    report = bench_latency(stub, split.all_scenarios(), iterations=150, warmup=10)
    assert report.min_ms <= report.ave_ms <= report.max_ms
    assert report.std_ms >= 0.0
    assert report.iterations == 150 and report.warmup_iterations == 10
    with pytest.raises(ValueError):
        bench_latency(stub, split.all_scenarios(), iterations=50, warmup=10)
    with pytest.raises(ValueError):
        bench_latency(stub, split.all_scenarios(), iterations=150, warmup=5)


def test_bench_latency_width_monotone():
    split = generate_synthetic(2, Rng(85), GenConfig(max_agents=3))
    scens = split.all_scenarios()
    small = TrajectoryPredictor(ModelConfig(width=8, heads=2, modes=2, dropout=0.0), Rng(86))
    large = TrajectoryPredictor(ModelConfig(width=128, heads=2, modes=2, dropout=0.0), Rng(86))
    r_small = bench_latency(small.predict, scens, iterations=100, warmup=10)
    r_large = bench_latency(large.predict, scens, iterations=100, warmup=10)
    assert r_large.ave_ms > r_small.ave_ms


def test_run_ablation_grid_and_log_identity():
    split = generate_synthetic(30, Rng(87))
    cfg = ModelConfig(width=16, heads=2, modes=2, dropout=0.05)
    sched = SchedulerConfig(cycle_length=1, num_cycles=2)
    cells = run_ablation(split, cfg, sched, seed=3, batch_size=8,
                         bench_iterations=100, bench_warmup=10, bench_scenarios=2)
    assert [(c.dyt_enabled, c.snapshot_enabled) for c in cells] == \
        [(False, False), (True, False), (False, True), (True, True)]
    assert all(c.ok for c in cells)
    # snapshotting is observation-only: equal-norm cells log identically
    assert cells[1].log_lines == cells[3].log_lines
    assert cells[0].log_lines == cells[2].log_lines
    assert cells[0].log_lines != cells[1].log_lines

    table = format_ablation_table(cells)
    assert table.count("\n") == 5
    for col in ("ADE", "FDE", "MR", "inf(ms)"):
        assert col in table


def test_report_formatting():
    m = MetricsReport(minade=1.2345, minfde=2.5, mr=0.125, count=10)
    text = format_metrics_table(m, header="validation")
    assert "minADE" in text and "1.2345" in text and "validation" in text
    l = LatencyReport(ave_ms=1.5, std_ms=0.1, min_ms=1.2, max_ms=2.0,
                      iterations=100, warmup_iterations=10)
    ltext = format_latency_table(l)
    assert "ave" in ltext and "1.500" in ltext


def test_constant_velocity_predict_all_agents_at_once():
    t, f = 4, 3
    hist = np.full((4, t, 2), 99.0)  # values at invalid steps must not be read
    valid = np.zeros((4, t), dtype=bool)
    hist[0] = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 1.0]]   # every step valid
    valid[0] = True
    hist[1, [1, 3]] = [[0.0, 0.0], [1.0, 2.0]]                   # late entry, gap at step 2
    valid[1, [1, 3]] = True
    hist[2, 2] = [7.0, -3.0]                                     # exactly one valid step
    valid[2, 2] = True
    sc = Scenario(hist, valid, np.zeros((4, f, 2)), np.ones((4, f), dtype=bool), [], 0, "cv")

    pred = constant_velocity_predict(sc)
    want = np.array([
        [[4.0, 2.0], [5.0, 3.0], [6.0, 4.0]],     # v = (10, 10) m/s from steps 2-3
        [[1.5, 3.0], [2.0, 4.0], [2.5, 5.0]],     # v = (5, 10) m/s over two steps
        [[7.0, -3.0], [7.0, -3.0], [7.0, -3.0]],  # zero velocity, starts at its step
        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],     # never observed: zeros
    ])[:, None]
    assert pred.locations.shape == (4, 1, f, 2)
    np.testing.assert_allclose(pred.locations.data, want, rtol=0, atol=1e-12)
    assert np.array_equal(pred.scales.data, np.ones((4, 1, f, 2)))
    assert np.array_equal(pred.mode_probs.data, np.ones((4, 1)))
    assert len(pred) == 4 and pred[2].locations.shape == (1, f, 2)


def test_run_ablation_trains_each_norm_once(monkeypatch):
    import dyttp.training as training

    calls = []

    def counted(split, cfg, *args, **kwargs):
        calls.append(cfg.norm_kind)
        if cfg.norm_kind == "layernorm":
            raise training.DivergenceError("non-finite loss at epoch 0", [])
        return real(split, cfg, *args, **kwargs)

    real = training.train
    monkeypatch.setattr(training, "train", counted)
    split = generate_synthetic(12, Rng(88))
    cfg = ModelConfig(width=8, heads=2, modes=2, dropout=0.0)
    cells = run_ablation(split, cfg, SchedulerConfig(cycle_length=1, num_cycles=2), seed=3,
                         bench_iterations=100, bench_warmup=10, bench_scenarios=1)
    assert sorted(calls) == ["dyt", "layernorm"]
    # a diverging norm fails both of its cells with the same error
    assert cells[0].error == cells[2].error == "non-finite loss at epoch 0"
    assert cells[1].ok and cells[3].ok
    assert cells[1].log_lines == cells[3].log_lines
    assert cells[1].metrics != cells[3].metrics  # final snapshot alone vs both
