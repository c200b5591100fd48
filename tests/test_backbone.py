import ctypes
import inspect

import numpy as np
import pytest

from dyttp import tensor as T
from dyttp.backbone import (
    ModelConfig, SceneBatch, TrajectoryPredictor, agent_step_features, frame_origins,
    lane_segments,
)
from dyttp.data import (
    DatasetSplit, GenConfig, Scenario, generate_synthetic, load_scenarios, save_scenarios,
)
from dyttp.layers import MultiHeadAttention, swap_axes
from dyttp.tensor import Rng, Tape, Tensor
from dyttp.training import EnsembleConfig, Snapshot, make_ensemble

from conftest import grad_check_params, permuted, softmax, translated, weighted_sum

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
    tokens, _ = model.embed_inputs([sc])
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
    moved = translated(sc, 100.0, 100.0)
    a, _ = model.embed_inputs([sc])
    b, _ = model.embed_inputs([moved])
    assert np.array_equal(a.data, b.data)


def test_empty_lane_shapes():
    model = TrajectoryPredictor(TINY, Rng(3))
    sc = tiny_scenario(4, n_agents=1, n_lanes=0)
    tokens, batch = model.embed_inputs([sc])
    assert tokens.shape == (1, TINY.obs_steps, TINY.width)
    assert batch.lane_feats.shape == (1, 0, 5)
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


def _lane_segments_per_polyline(lanes):
    """lane_segments written as a loop over the polylines."""
    feats, mids = [np.zeros((0, 3))], [np.zeros((0, 2))]
    for poly in lanes:
        poly = np.asarray(poly, dtype=np.float64)
        if poly.shape[0] < 2:
            continue
        d = np.diff(poly, axis=0)
        length = np.linalg.norm(d, axis=1)
        keep = length > 0
        feats.append(np.concatenate([d[keep] / length[keep, None], length[keep, None]], axis=1))
        mids.append(0.5 * (poly[:-1] + poly[1:])[keep])
    return np.concatenate(feats), np.concatenate(mids)


@pytest.mark.parametrize("lanes", [
    [],
    [np.zeros((0, 2))],
    [np.array([[3.0, -1.0]])],
    [np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [2.5, 0.5]])],
    [np.array([[1.0, 2.0], [1.0, 2.0]])],
    [np.array([[0.0, 0.0], [3.0, 4.0]]), np.zeros((0, 2)), np.array([[7.0, 7.0]]),
     np.array([[3.0, 4.0], [3.0, 4.0], [-1.0, 0.3]]), np.array([[5.0, 5.0], [6.0, 5.0]])],
    Rng(11).uniform((4, 6, 2), -20.0, 20.0),
], ids=["no-lanes", "0-point", "1-point", "zero-length", "only-zero-length", "mixed", "random"])
def test_lane_segments_equals_per_polyline_loop(lanes):
    got, want = lane_segments(lanes), _lane_segments_per_polyline(lanes)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_scene_batch_lane_features_equal_a_per_scene_loop():
    # the batch runs one lane pass over every polyline; this oracle runs one per
    # scene, pads each to S_max and subtracts each agent's origin
    odd = tiny_scenario(7, n_agents=3, n_lanes=0)
    odd.lanes[:] = [np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]), np.array([[2.0, 2.0]]),
                    np.array([[5.0, 5.0], [5.0, 6.0]])]
    scenes = [tiny_scenario(1, n_agents=2, n_lanes=3), tiny_scenario(2, n_agents=1, n_lanes=0),
              odd, tiny_scenario(3, n_agents=4, n_lanes=1)]
    per_scene = [np.concatenate(_lane_segments_per_polyline(s.lanes), axis=1) for s in scenes]
    s_max = max(len(seg) for seg in per_scene)
    feats, valid = [], []
    for s, seg in zip(scenes, per_scene):
        padded = np.zeros((s.num_agents, s_max, 5))
        padded[:, :len(seg)] = seg
        padded[..., 3:] -= frame_origins(s)[:, None, :]
        feats.append(padded)
        valid.append(np.broadcast_to(np.arange(s_max) < len(seg), (s.num_agents, s_max)))
    batch, want = SceneBatch(scenes), np.concatenate(feats)
    assert batch.lane_feats.shape == want.shape and batch.lane_feats.tobytes() == want.tobytes()
    assert np.array_equal(batch.lane_valid, np.concatenate(valid))


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
        assert enc.embeddings.shape == (1, n, TINY.width)
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
        tokens, batch = model.embed_inputs([sc])
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


def test_decode_records_one_op():
    # the decoder head is one record with three outputs; a split shows here
    model = TrajectoryPredictor(TINY, Rng(9))
    enc = model.encode([tiny_scenario(10)])
    with Tape() as tape:
        model.decode(enc)
    assert len(tape) == 1


@pytest.mark.parametrize("rng_seed", [None, 5], ids=["no-dropout", "dropout"])
def test_agent_without_lane_key_leaves_the_lane_stage_unchanged(rng_seed):
    # an agent with no lane segment in range has gate 0 in the lane blocks: they
    # add 0 to its summary, bit for bit, and pass its gradient through unchanged
    cfg = ModelConfig(width=8, heads=2, modes=2, obs_steps=4, pred_steps=3, dropout=0.1)
    model = TrajectoryPredictor(cfg, Rng(13))
    sc = tiny_scenario(14, n_agents=3, n_lanes=2, cfg=cfg)
    sc.agent_histories[1] += 500.0  # agent 1 is far from every lane
    _, batch = model.embed_inputs([sc])
    summary = Tensor(Rng(15).normal((3, 1, cfg.width)), requires_grad=True)
    weight = Rng(16).normal((3, 1, cfg.width))
    with Tape() as tape:
        out = model.stage_agent_lane(summary, batch, None if rng_seed is None else Rng(rng_seed))
        loss = weighted_sum(out, weight)
    T.backward(loss, tape)
    assert out.data[1].tobytes() == summary.data[1].tobytes()
    assert not np.array_equal(out.data[[0, 2]], summary.data[[0, 2]])
    assert np.array_equal(summary.grad[1], weight[1])


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
    moved = translated(sc, 100.0, 100.0)
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
    perm = permuted(sc, order)
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
        big = translated(sc, 1e4, -1e4)
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
    model = TrajectoryPredictor(TINY, Rng(21))
    sc = tiny_scenario(22)
    w_rng = Rng(23)
    w_loc = w_rng.uniform((TINY.modes, TINY.pred_steps, 2), -1, 1)
    w_sc = w_rng.uniform((TINY.modes, TINY.pred_steps, 2), -1, 1)
    w_pr = w_rng.uniform((TINY.modes,), -1, 1)

    def loss_fn():
        pred = model.forward([sc])
        total = weighted_sum(T.getitem(pred.locations, 0), w_loc)
        total = T.add(total, weighted_sum(T.getitem(pred.scales, 0), w_sc))
        return T.add(total, weighted_sum(T.getitem(pred.mode_probs, 0), w_pr))

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


def _temporal_every_step(model, tokens, batch):
    """Oracle: every temporal block queries at every step, then the last step's row is kept."""
    t = tokens.shape[-2]
    causal = np.tril(np.ones((t, t), dtype=bool))
    mask = causal[None] & (batch.agent_valid[:, None, :] | np.eye(t, dtype=bool)[None])
    x = tokens
    for block in model.temporal_blocks:
        x = block(x, mask=mask)
    return T.getitem(x, (Ellipsis, slice(t - 1, t), slice(None)))


def _temporal_output_and_grads(model, scenes, stage):
    """The temporal summary for `scenes` and every parameter's gradient of a fixed projection of it."""
    model.zero_grad()
    with Tape() as tape:
        tokens, batch = model.embed_inputs(scenes)
        out = stage(model, model.stage_agent_agent(tokens, batch), batch)
        weights = Rng(5).normal(out.shape)
        loss = weighted_sum(out, weights)
    T.backward(loss, tape)
    grads = {n: None if p.grad is None else p.grad.copy() for n, p in model.named_params()}
    model.zero_grad()
    return out.data, grads


def _stacked_model(cfg, members):
    """The model a `make_ensemble` prediction average runs: `members` snapshots stacked on one axis."""
    snaps = [Snapshot(i, TrajectoryPredictor(cfg, Rng(60 + i)).state_dict()) for i in range(members)]
    predict = make_ensemble(snaps, cfg, EnsembleConfig(strategy="prediction_average"))
    return inspect.getclosurevars(predict).nonlocals["model"]


def _model_with_drawn_norms(cfg, members):
    """A plain (members 1) or stacked model whose every norm has gamma, beta and alpha
    drawn away from their initial 1, 0 and 0.5, each member its own, so the way a
    norm's affine reaches attention shows in the outputs."""
    model = (TrajectoryPredictor(cfg, Rng(59)) if members == 1
             else _stacked_model(cfg, members))
    rng = Rng(61)
    ranges = {"gamma": (0.5, 1.5), "beta": (-0.5, 0.5), "alpha": (0.3, 1.0)}
    for name, p in model.named_params():
        low_high = ranges.get(name.rsplit(".", 1)[-1])
        if low_high is not None:
            p.data = np.array(rng.uniform(p.shape, *low_high))
    return model


@pytest.mark.parametrize("members", [1, 4])
@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("kind", ["dyt", "layernorm"])
def test_last_step_query_matches_every_step_oracle(kind, blocks, members):
    # the stage queries only the last step in its last block, reading the
    # memory with its norm's affine folded into the projections; the oracle
    # runs every step as self-attention and slices. Over these 8 cases (416
    # arrays) the worst difference measured 3.2e-14 of the array's largest
    # entry: a one-row matmul rounds differently from the same row of a full one
    cfg = ModelConfig(norm_kind=kind, blocks_per_stage=blocks, dropout=0.0)
    model = _model_with_drawn_norms(cfg, members)
    scenes = generate_synthetic(12, Rng(42)).train[:4]
    scenes[1].agent_valid[0, -3:] = False    # a last step that is not observed
    scenes[2].agent_valid[1, :5] = False
    got, got_grads = _temporal_output_and_grads(
        model, scenes, lambda m, x, b: m.stage_temporal(x, b))
    want, want_grads = _temporal_output_and_grads(model, scenes, _temporal_every_step)
    agents = sum(s.num_agents for s in scenes)
    assert got.shape == want.shape == (members,) * (members > 1) + (agents, 1, cfg.width)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert got_grads.keys() == want_grads.keys()
    upstream = ("input_proj.", "pos_embed", "social_blocks.", "temporal_blocks.")
    for name, want_g in want_grads.items():
        got_g = got_grads[name]
        assert (got_g is None) == (want_g is None) == (not name.startswith(upstream)), name
        if want_g is not None:
            assert np.abs(got_g - want_g).max() <= 1e-12 * np.abs(want_g).max(), name


def _project_then_attend(self, x, norm, kv=None, kv_norm=None, mask=None, rng=None, gate=None):
    """Oracle for MultiHeadAttention from plain tape ops: apply the norms, the
    memory's with its affine, project every key and value row, attend head by
    head through a softmax whose blocked logits sit 1e30 below the rest, then
    add the output to x after its dropout and the gate."""
    h = norm(x)
    kv = h if kv is None else kv_norm(kv)
    q, k, v = self.wq(h), T.linear(kv, self.wk), self.wv(kv)
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], np.shape(mask)[:-2])
    keep = self.drop.keep(lead + (self.heads, q.shape[-2], k.shape[-2]), rng)
    out_keep = self.drop.keep(lead + q.shape[-2:], rng)
    d = q.shape[-1]
    hd = d // self.heads

    def split(a):  # [..., T, D] -> [..., H, T, D / H]
        a = T.reshape(a, a.shape[:-1] + (self.heads, hd))
        return swap_axes(a, -3, -2)

    scores = T.linear(split(q), swap_axes(split(k), -1, -2))
    scores = T.mul(scores, 1.0 / np.sqrt(hd))
    if mask is not None:
        scores = T.add(scores, np.where(mask, 0.0, -1e30)[..., None, :, :])
    weights = softmax(scores, axis=-1)
    if keep is not None:
        weights = T.mul(weights, keep)
    ctx = swap_axes(T.linear(weights, split(v)), -3, -2)
    out = self.wo(T.reshape(ctx, ctx.shape[:-2] + (d,)))
    for multiplier in (out_keep, gate):
        if multiplier is not None:
            out = T.mul(out, multiplier)
    return T.add(x, out)


@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("members", [1, 4])
@pytest.mark.parametrize("kind", ["dyt", "layernorm"])
def test_memory_blocks_match_project_then_attend(kind, members, dropout, monkeypatch):
    # the last temporal block and the agent-lane block read a memory through
    # tensor.memory_attention, its norm's affine folded into the projections
    # and the query norm and residual add inside the op; the oracle runs the
    # norms, projects the memory first, attends and adds back through plain
    # tape ops. Over these 8 cases (452 arrays) the worst difference measured
    # 5.2e-14 of the array's largest entry
    cfg = ModelConfig(norm_kind=kind, dropout=dropout)
    model = _model_with_drawn_norms(cfg, members)
    scenes = generate_synthetic(12, Rng(42)).train[:4]

    def memory_stages(m, x, b):
        return m.stage_agent_lane(m.stage_temporal(x, b, Rng(3)), b, Rng(4))

    got, got_grads = _temporal_output_and_grads(model, scenes, memory_stages)
    monkeypatch.setattr(MultiHeadAttention, "__call__", _project_then_attend)
    want, want_grads = _temporal_output_and_grads(model, scenes, memory_stages)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert got_grads.keys() == want_grads.keys()
    upstream = ("input_proj.", "pos_embed", "social_blocks.", "temporal_blocks.",
                "lane_proj.", "lane_blocks.")
    for name, want_g in want_grads.items():
        got_g = got_grads[name]
        assert (got_g is None) == (want_g is None) == (not name.startswith(upstream)), name
        if want_g is not None:
            assert np.abs(got_g - want_g).max() <= 1e-12 * np.abs(want_g).max(), name


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
    near = translated(second, 1.0, -1.0)
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


def _has_mallopt():
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


@pytest.mark.skipif(not _has_mallopt(), reason="no mallopt in the C library: importing dyttp "
                    "leaves the allocator's thresholds as they are")
def test_steady_state_dense_predict_does_not_page_fault():
    resource = pytest.importorskip("resource")
    split = generate_synthetic(64, Rng(3), GenConfig(max_agents=32))
    scene = next(s for s in split.all_scenarios() if s.num_agents >= 24)
    model = TrajectoryPredictor(ModelConfig(), Rng(1))
    for _ in range(5):
        model.predict(scene)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        model.predict(scene)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # freed activations stay mapped, so the same predict reuses their pages
    assert faults <= 20, f"{faults} minor page faults in 20 predicts"
