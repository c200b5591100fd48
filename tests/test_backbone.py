import numpy as np
import pytest

from dyttp import tensor as T
from dyttp.backbone import (
    ModelConfig, TrajectoryPredictor, agent_step_features, frame_origins,
    lane_segments,
)
from dyttp.data import DatasetSplit, Scenario, load_scenarios, save_scenarios
from dyttp.tensor import Rng, Tensor

TINY = ModelConfig(width=8, heads=2, blocks_per_stage=1, modes=2,
                   obs_steps=4, pred_steps=3, radius=50.0, dropout=0.0)


def tiny_scenario(seed=0, n_agents=2, n_lanes=2, spread=5.0, cfg=TINY):
    rng = Rng(seed)
    t, f = cfg.obs_steps, cfg.pred_steps
    hist = rng.uniform((n_agents, t, 2), -spread, spread)
    hist += np.cumsum(np.full((n_agents, t, 2), 0.5), axis=1)  # loosely forward motion
    fut = hist[:, -1:, :] + np.cumsum(rng.uniform((n_agents, f, 2), 0.2, 0.8), axis=1)
    lanes = [rng.uniform((4, 2), -spread, spread) for _ in range(n_lanes)]
    return Scenario(hist, np.ones((n_agents, t), dtype=bool), fut,
                    np.ones((n_agents, f), dtype=bool), lanes, 0, f"tiny-{seed}")


def test_stationary_agent_token_is_bias_sequence():
    cfg = ModelConfig(obs_steps=6, pred_steps=3, dropout=0.0)
    model = TrajectoryPredictor(cfg, Rng(1))
    t = cfg.obs_steps
    hist = np.tile(np.array([3.0, -2.0]), (1, t, 1))
    sc = Scenario(hist, np.ones((1, t), dtype=bool), np.zeros((1, 3, 2)),
                  np.ones((1, 3), dtype=bool), [], 0, "stationary")
    tokens, _, _ = model.embed_inputs([sc])
    feats = agent_step_features(sc)
    assert np.array_equal(feats[0, :, :2], np.zeros((t, 2)))
    # displacement features zero: tokens equal valid-flag projection + bias + position embedding
    expected = model.input_proj(Tensor(feats)).data + model.pos_embed.data
    assert np.array_equal(tokens.data, expected)


def test_agent_tokens_translation_invariant_bitwise():
    model = TrajectoryPredictor(TINY, Rng(2))
    sc = tiny_scenario(3)
    # f32 quantization keeps +100 exactly representable sums
    sc = Scenario(sc.agent_histories.astype(np.float32).astype(np.float64),
                  sc.agent_valid, sc.agent_futures, sc.future_valid,
                  [l.astype(np.float32).astype(np.float64) for l in sc.lanes],
                  sc.focal_agent, sc.scenario_id)
    moved = sc.translated(100.0, 100.0)
    a, _, _ = model.embed_inputs([sc])
    b, _, _ = model.embed_inputs([moved])
    assert np.array_equal(a.data, b.data)


def test_empty_lane_shapes():
    model = TrajectoryPredictor(TINY, Rng(3))
    sc = tiny_scenario(4, n_agents=1, n_lanes=0)
    tokens, lane_tokens, _ = model.embed_inputs([sc])
    assert tokens.shape == (1, TINY.obs_steps, TINY.width)
    assert lane_tokens.shape == (1, 0, TINY.width)
    preds = model.predict(sc)
    assert len(preds) == 1
    assert np.all(np.isfinite(preds[0].locations.data))


def test_lane_segments_split():
    feats, mids = lane_segments([np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0]])])
    assert feats.shape == (2, 3)
    assert np.allclose(feats[0], [1.0, 0.0, 4.0])
    assert np.allclose(mids[0], [2.0, 0.0])
    assert np.allclose(feats[1], [0.0, 1.0, 2.0])
    empty_feats, empty_mids = lane_segments([])
    assert empty_feats.shape == (0, 3) and empty_mids.shape == (0, 2)


def test_frame_origins_last_valid():
    sc = tiny_scenario(5, n_agents=2)
    sc.agent_valid[1, -2:] = False
    origins = frame_origins(sc)
    assert np.array_equal(origins[0], sc.agent_histories[0, -1])
    assert np.array_equal(origins[1], sc.agent_histories[1, -3])


def test_encode_output_shape():
    model = TrajectoryPredictor(TINY, Rng(4))
    for n in (1, 3):
        enc = model.encode([tiny_scenario(6, n_agents=n)])
        assert enc.embeddings.shape == (n, TINY.width)
        assert enc.origins.shape == (n, 2)


def test_far_agents_blocked_by_radius_mask():
    model = TrajectoryPredictor(TINY, Rng(7))
    solo = tiny_scenario(8, n_agents=1, n_lanes=0)
    far_hist = solo.agent_histories[0] + np.array([500.0, 500.0])

    def pair_with(second_hist):
        return Scenario(
            np.stack([solo.agent_histories[0], second_hist]),
            np.ones((2, TINY.obs_steps), dtype=bool),
            np.stack([solo.agent_futures[0], solo.agent_futures[0] + 500.0]),
            np.ones((2, TINY.pred_steps), dtype=bool),
            [], 0, "pair")

    def agent_agent(sc):
        tokens, _, batch = model.embed_inputs([sc])
        return model.stage_agent_agent(tokens, batch)

    out_pair = agent_agent(pair_with(far_hist))

    # perturbing the blocked agent leaves the other's output bit-identical
    out_moved = agent_agent(pair_with(far_hist + np.array([7.0, -4.0])))
    assert np.array_equal(out_moved.data[0], out_pair.data[0])

    # and the row matches the single-agent run up to backend kernel rounding
    # (BLAS picks shape-dependent kernels, so bitwise only holds at fixed shape)
    out_solo = agent_agent(solo)
    assert np.allclose(out_pair.data[0], out_solo.data[0], rtol=0, atol=1e-12)


def test_decode_zero_head_predicts_origin():
    model = TrajectoryPredictor(TINY, Rng(9))
    model.head_out.weight.data = np.zeros_like(model.head_out.weight.data)
    model.head_out.bias.data = np.zeros_like(model.head_out.bias.data)
    sc = tiny_scenario(10)
    preds = model.predict(sc)
    origins = frame_origins(sc)
    for n, p in enumerate(preds):
        assert np.array_equal(
            p.locations.data,
            np.broadcast_to(origins[n], (TINY.modes, TINY.pred_steps, 2)))
        assert np.allclose(p.mode_probs.data, 1.0 / TINY.modes)
        assert np.all(p.scales.data > 0.0)


def test_mode_probs_sum_to_one_random_params():
    model = TrajectoryPredictor(TINY, Rng(11))
    for p in model.predict(tiny_scenario(12)):
        assert abs(p.mode_probs.data.sum() - 1.0) < 1e-9


def test_translation_equivariance():
    model = TrajectoryPredictor(TINY, Rng(13))
    base = tiny_scenario(14)
    split = DatasetSplit(train=[base], val=[], seed=0)
    import os
    import tempfile
    # quantize to f32 so +100 shifts stay exactly representable
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "s.bin")
        save_scenarios(split, path)
        sc = load_scenarios(path).train[0]
    moved = sc.translated(100.0, 100.0)
    a = model.predict(sc)
    b = model.predict(moved)
    for pa, pb in zip(a, b):
        assert np.allclose(pb.locations.data, pa.locations.data + 100.0, atol=1e-9)
        assert np.array_equal(pb.scales.data, pa.scales.data)
        assert np.array_equal(pb.mode_probs.data, pa.mode_probs.data)


def test_agent_permutation_equivariance():
    model = TrajectoryPredictor(TINY, Rng(15))
    sc = tiny_scenario(16, n_agents=3)
    order = np.array([2, 0, 1])
    perm = sc.permuted(order)
    a = model.predict(sc)
    b = model.predict(perm)
    # reduction order changes under permutation cost a few ulps at most
    for i, j in enumerate(order):
        assert np.allclose(b[i].locations.data, a[j].locations.data, rtol=1e-10, atol=1e-10)
        assert np.allclose(b[i].mode_probs.data, a[j].mode_probs.data, rtol=1e-10, atol=1e-10)


def test_extreme_coordinates_stay_finite():
    for kind in ("dyt", "layernorm"):
        cfg = ModelConfig(width=8, heads=2, modes=2, obs_steps=4, pred_steps=3,
                          norm_kind=kind, dropout=0.0)
        model = TrajectoryPredictor(cfg, Rng(17))
        sc = tiny_scenario(18, cfg=cfg)
        big = sc.translated(1e4, -1e4)
        for p in model.predict(big):
            assert np.all(np.isfinite(p.locations.data))
            assert np.all(np.isfinite(p.scales.data))
            assert np.all(np.isfinite(p.mode_probs.data))


def test_partial_validity_still_embeds():
    model = TrajectoryPredictor(TINY, Rng(19))
    sc = tiny_scenario(20, n_agents=2)
    sc.agent_valid[1, :3] = False  # one valid step only
    preds = model.predict(sc)
    assert len(preds) == 2
    assert np.all(np.isfinite(preds[1].locations.data))


def test_backbone_grad_check_subset_of_params():
    from dyttp.layers import grad_check_params

    model = TrajectoryPredictor(TINY, Rng(21))
    sc = tiny_scenario(22)
    w_rng = Rng(23)
    w_loc = w_rng.uniform((TINY.modes, TINY.pred_steps, 2), -1, 1)
    w_sc = w_rng.uniform((TINY.modes, TINY.pred_steps, 2), -1, 1)
    w_pr = w_rng.uniform((TINY.modes,), -1, 1)

    def loss_fn():
        pred = model.forward([sc])
        total = T.sum_(T.mul(T.getitem(pred.locations, 0), w_loc))
        total = T.add(total, T.sum_(T.mul(T.getitem(pred.scales, 0), w_sc)))
        return T.add(total, T.sum_(T.mul(T.getitem(pred.mode_probs, 0), w_pr)))

    picked = ["input_proj.weight", "pos_embed", "social_blocks.0.attn.wq.weight",
              "lane_blocks.0.norm_kv.alpha", "head_out.bias", "head_hidden.weight"]
    errors = grad_check_params(model, loss_fn, names=picked)
    for name, err in errors.items():
        assert err < 1e-4, (name, err)


def test_config_validation_and_digest():
    with pytest.raises(ValueError):
        ModelConfig(width=10, heads=4)
    with pytest.raises(ValueError):
        ModelConfig(modes=0)
    with pytest.raises(ValueError):
        ModelConfig(norm_kind="rmsnorm")
    a, b = ModelConfig(), ModelConfig()
    assert a.digest() == b.digest()
    assert a.digest() != ModelConfig(width=64).digest()


def mixed_batch():
    """Scenes of differing agent and lane counts, one with no lanes, one partly observed."""
    scenes = [tiny_scenario(30, n_agents=3, n_lanes=2),
              tiny_scenario(31, n_agents=1, n_lanes=0),
              tiny_scenario(32, n_agents=2, n_lanes=4),
              tiny_scenario(33, n_agents=4, n_lanes=1)]
    scenes[2].agent_valid[1, :2] = False
    return scenes


def test_batched_forward_matches_single_scenarios():
    for kind in ("dyt", "layernorm"):
        cfg = ModelConfig(width=8, heads=2, modes=2, obs_steps=4, pred_steps=3,
                          norm_kind=kind, dropout=0.0)
        model = TrajectoryPredictor(cfg, Rng(24))
        scenes = mixed_batch()
        batched = model.forward(scenes)
        single = [model.forward([s]) for s in scenes]
        for name in ("locations", "scales", "mode_probs"):
            want = np.concatenate([getattr(p, name).data for p in single])
            got = getattr(batched, name).data
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-10, (kind, name)


def test_other_scene_in_batch_does_not_leak():
    model = TrajectoryPredictor(TINY, Rng(25))
    first, second = tiny_scenario(34, n_agents=2), tiny_scenario(35, n_agents=3)
    # overlap the first scene, well inside the radius, then move it again
    near = second.translated(1.0, -1.0)
    moved = Scenario(near.agent_histories + Rng(36).uniform((3, TINY.obs_steps, 2), -2, 2),
                     near.agent_valid, near.agent_futures, near.future_valid,
                     [l[::-1] + 0.5 for l in near.lanes], 0, "moved")
    a = model.forward([first, near])
    b = model.forward([first, moved])
    for name in ("locations", "scales", "mode_probs"):
        assert np.array_equal(getattr(a, name).data[:2], getattr(b, name).data[:2]), name
        assert not np.array_equal(getattr(a, name).data[2:], getattr(b, name).data[2:]), name


def test_batch_prediction_rows_are_views_of_the_batch():
    model = TrajectoryPredictor(TINY, Rng(26))
    pred = model.forward(mixed_batch())
    a = pred.locations.shape[0]
    assert len(pred) == a == 10
    rows = list(pred)
    assert len(rows) == a
    for i, row in enumerate(rows):
        for name in ("locations", "scales", "mode_probs"):
            field, batch = getattr(row, name).data, getattr(pred, name).data
            assert np.array_equal(field, batch[i])
            assert np.shares_memory(field, batch)
    assert rows[0].locations.shape == rows[0].scales.shape == (TINY.modes, TINY.pred_steps, 2)
    assert rows[0].mode_probs.shape == (TINY.modes,)
    pred.locations.data[3, 0, 0, 0] = 1234.5
    assert pred[3].locations.data[0, 0, 0] == 1234.5
    with pytest.raises(IndexError):
        pred[a]


def test_rng_alone_switches_dropout_on():
    scenes = mixed_batch()
    fields = ("locations", "scales", "mode_probs")
    for dropout in (0.2, 0.0):
        cfg = ModelConfig(width=8, heads=2, modes=2, obs_steps=4, pred_steps=3, dropout=dropout)
        model = TrajectoryPredictor(cfg, Rng(27))
        plain = model.forward(scenes)
        a = model.forward(scenes, rng=Rng(3))
        b = model.forward(scenes, rng=Rng(3))
        for name in fields:
            assert np.array_equal(getattr(a, name).data, getattr(b, name).data), (dropout, name)
        dropped = [not np.array_equal(getattr(a, name).data, getattr(plain, name).data)
                   for name in fields]
        assert all(dropped) if dropout else not any(dropped), dropout
