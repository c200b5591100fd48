"""Trajectory prediction backbone.

Agents are embedded from per-step displacement vectors in a translated
(agent-centric) frame, lanes from segment direction vectors; absolute
positions only ever enter through differences, so the model is translation
invariant by construction and predictions become world-frame by adding each
agent's frame origin (its last observed position).

Encoding runs four attention stages in order: agent-agent per observed
timestep within a radius, temporal per agent with a causal mask (last-step
token is the agent summary), agent-lane cross attention against lane
segments within the radius, and global agent-agent attention without a
radius mask. Every stage uses pre-norm blocks with the configured
normalization (DynamicTanh or LayerNorm) at all sites. The decoder head reads
the encoder output directly, with no norm of its own: a DynamicTanh there
saturates as the residual stream grows in training, its output stops
depending on the input, and the model settles on input-independent anchor
trajectories from which its gradient (tanh' near 0) cannot lead it out.

`forward` takes a list of scenarios and runs every stage once for the whole
batch. The batch's agents are concatenated onto one axis (no padding);
agent-agent and global attention AND a same-scene block-diagonal term into
their masks, and agent-lane keys are padded to the batch's largest segment
count with the padding masked out, so a scene's outputs do not depend on the
other scenes in its batch. `predict` is the batch of one.

A model whose parameters are S snapshots stacked on a leading axis ([S, *P],
built by `training.make_ensemble`) runs the same code: the raw input arrays
get a unit leading axis, every activation and output carries S in front, and
each slice equals what that snapshot alone computes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .data import Scenario
from .layers import Linear, Module, TransformerBlock, gelu, stacked, swap_axes
from .tensor import Rng, Tensor

SCALE_FLOOR = 1e-6  # keeps softplus output strictly positive after underflow


@dataclass
class ModelConfig:
    width: int = 32
    heads: int = 4
    blocks_per_stage: int = 1
    modes: int = 3
    obs_steps: int = 20
    pred_steps: int = 30
    radius: float = 50.0
    norm_kind: str = "dyt"
    ff_ratio: int = 4
    dropout: float = 0.1

    def __post_init__(self):
        if self.width % self.heads != 0:
            raise ValueError("width must be divisible by heads")
        if self.modes < 1:
            raise ValueError("modes must be >= 1")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.norm_kind not in ("dyt", "layernorm"):
            raise ValueError(f"unknown norm kind {self.norm_kind!r}")

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(asdict(self), sort_keys=True).encode()).hexdigest()


@dataclass
class EncodedBatch:
    embeddings: Tensor      # [..., A, D]
    origins: np.ndarray     # [A, 2] frame origin per agent (last observed position)


@dataclass
class BatchPrediction:
    """Predictions for every agent of a batch, in scene order then agent order.

    A stacked model puts its snapshot axis S in front of every field. `len`
    and indexing run over the first axis: row `a` holds agent `a`'s fields as
    views, off the tape, and an index past the end raises IndexError.
    """
    locations: Tensor   # [..., A, K, F, 2] world frame, meters
    scales: Tensor      # [..., A, K, F, 2] strictly positive
    mode_probs: Tensor  # [..., A, K] simplex per agent

    def __len__(self) -> int:
        return self.locations.shape[0]

    def __getitem__(self, a) -> "BatchPrediction":
        return BatchPrediction(Tensor(self.locations.data[a]), Tensor(self.scales.data[a]),
                               Tensor(self.mode_probs.data[a]))


def frame_origins(scenario) -> np.ndarray:
    """Last valid observed position per agent of a Scenario or SceneBatch; zeros if never observed."""
    hist, valid = scenario.agent_histories, scenario.agent_valid
    n, t = valid.shape
    origins = np.zeros((n, 2))
    has = valid.any(axis=1)
    last = t - 1 - np.argmax(valid[:, ::-1], axis=1)
    origins[has] = hist[np.arange(n)[has], last[has]]
    return origins


def agent_step_features(scenario) -> np.ndarray:
    """[N, T, 3] per-step displacement (dx, dy) plus a validity flag, for a Scenario or SceneBatch."""
    hist, valid = scenario.agent_histories, scenario.agent_valid
    n, t, _ = hist.shape
    feats = np.zeros((n, t, 3))
    disp = hist[:, 1:] - hist[:, :-1]
    pair_ok = valid[:, 1:] & valid[:, :-1]
    feats[:, 1:, :2] = disp * pair_ok[:, :, None]
    feats[:, :, 2] = valid
    return feats


def lane_segments(lanes) -> tuple[np.ndarray, np.ndarray]:
    """Split polylines into segments: ([S, 3] unit direction + length, [S, 2] midpoints)."""
    feats, mids = [], []
    for poly in lanes:
        poly = np.asarray(poly, dtype=np.float64)
        if poly.shape[0] < 2:
            continue
        d = np.diff(poly, axis=0)
        length = np.linalg.norm(d, axis=1)
        keep = length > 0
        if not keep.any():
            continue
        u = d[keep] / length[keep, None]
        feats.append(np.concatenate([u, length[keep, None]], axis=1))
        mids.append(0.5 * (poly[:-1] + poly[1:])[keep])
    if not feats:
        return np.zeros((0, 3)), np.zeros((0, 2))
    return np.concatenate(feats), np.concatenate(mids)


class SceneBatch:
    """Scenarios run together, their agents flattened onto one axis of A = sum N_i.

    Agents keep scene order, then their order within the scene; `scene_of`
    maps each agent to its scene. Lane segments are split once per scene and
    padded to the batch's largest segment count S_max, with `seg_valid`
    marking the real ones. The stages build their attention masks from these
    arrays and AND in `same_scene`, so no agent attends across scenes.
    """

    def __init__(self, scenes):
        scenes = list(scenes)
        if not scenes:
            raise ValueError("a batch needs at least one scenario")
        self.size = b = len(scenes)
        self.scene_of = np.repeat(np.arange(b), [s.num_agents for s in scenes])    # [A]
        self.same_scene = self.scene_of[:, None] == self.scene_of[None, :]        # [A, A]
        self.agent_histories = np.concatenate([s.agent_histories for s in scenes])  # [A, T, 2]
        self.agent_valid = np.concatenate([s.agent_valid for s in scenes])          # [A, T]
        self.origins = frame_origins(self)                                          # [A, 2]
        segments = [lane_segments(s.lanes) for s in scenes]
        s_max = max(feats.shape[0] for feats, _ in segments)
        self.seg_feats = np.zeros((b, s_max, 3))
        self.seg_mids = np.zeros((b, s_max, 2))
        self.seg_valid = np.zeros((b, s_max), dtype=bool)
        for i, (feats, mids) in enumerate(segments):
            n = feats.shape[0]
            self.seg_feats[i, :n] = feats
            self.seg_mids[i, :n] = mids
            self.seg_valid[i, :n] = True


class TrajectoryPredictor(Module):
    def __init__(self, cfg: ModelConfig, rng: Rng):
        d = cfg.width
        self.cfg = cfg
        self.input_proj = Linear(3, d, rng)
        self.pos_embed = Tensor(rng.normal((cfg.obs_steps, d), std=0.02), requires_grad=True)
        self.lane_proj = Linear(3, d, rng)
        self.rel_proj = Linear(2, d, rng)
        self.social_blocks = [TransformerBlock(cfg, rng) for _ in range(cfg.blocks_per_stage)]
        self.temporal_blocks = [TransformerBlock(cfg, rng) for _ in range(cfg.blocks_per_stage)]
        self.lane_blocks = [TransformerBlock(cfg, rng, cross=True) for _ in range(cfg.blocks_per_stage)]
        self.global_blocks = [TransformerBlock(cfg, rng) for _ in range(cfg.blocks_per_stage)]
        self.head_hidden = Linear(d, 2 * d, rng)
        k, f = cfg.modes, cfg.pred_steps
        self.head_out = Linear(2 * d, k * (4 * f + 1), rng)

    # ----- embedding -----

    def _input(self, arr: np.ndarray) -> Tensor:
        """A raw input array, with a unit leading axis when the parameters are stacked."""
        return Tensor(arr[(None,) * (self.pos_embed.ndim - 2)])

    def embed_inputs(self, scenes):
        """(agent tokens [..., A, T, D], lane segment tokens [..., B, S_max, D], the SceneBatch)."""
        batch = SceneBatch(scenes)
        tokens = self.input_proj(self._input(agent_step_features(batch)))
        tokens = T.add(tokens, stacked(self.pos_embed, 2, tokens.ndim))
        lane_tokens = self.lane_proj(self._input(batch.seg_feats))
        return tokens, lane_tokens, batch

    # ----- encoder stages -----

    def stage_agent_agent(self, tokens: Tensor, batch: SceneBatch, rng=None) -> Tensor:
        a = tokens.shape[-3]
        pos_t = np.transpose(batch.agent_histories, (1, 0, 2))  # [T, A, 2]
        vt = batch.agent_valid.T                                 # [T, A]
        diff = pos_t[:, :, None, :] - pos_t[:, None, :, :]
        near = (diff ** 2).sum(-1) <= self.cfg.radius ** 2
        mask = vt[:, :, None] & vt[:, None, :] & near & batch.same_scene
        mask |= np.eye(a, dtype=bool)[None]
        x = swap_axes(tokens, -3, -2)
        for block in self.social_blocks:
            x = block(x, mask=mask, rng=rng)
        return swap_axes(x, -3, -2)

    def stage_temporal(self, tokens: Tensor, batch: SceneBatch, rng=None) -> Tensor:
        t = tokens.shape[-2]
        causal = np.tril(np.ones((t, t), dtype=bool))
        keys_ok = batch.agent_valid[:, None, :] | np.eye(t, dtype=bool)[None]
        mask = causal[None] & keys_ok
        x = tokens
        for block in self.temporal_blocks:
            x = block(x, mask=mask, rng=rng)
        return x

    def stage_agent_lane(self, summary: Tensor, lane_tokens: Tensor, batch: SceneBatch, rng=None) -> Tensor:
        if batch.seg_valid.shape[1] == 0:
            return summary
        rel = batch.seg_mids[batch.scene_of] - batch.origins[:, None, :]      # [A, S_max, 2]
        near = ((rel ** 2).sum(-1) <= self.cfg.radius ** 2) & batch.seg_valid[batch.scene_of]
        has_key = near.any(axis=1)
        if not has_key.any():
            return summary
        mask = near[:, None, :].copy()
        mask[~has_key, 0, 0] = True  # placeholder key; its update is discarded below
        # a batch of one broadcasts its [1, S, D] lane tokens over the agents
        lanes = (lane_tokens if batch.size == 1 else
                 T.getitem(lane_tokens, (Ellipsis, batch.scene_of, slice(None), slice(None))))
        keys = T.add(lanes, self.rel_proj(self._input(rel)))
        x = T.reshape(summary, summary.shape[:-1] + (1, -1))
        for block in self.lane_blocks:
            x = block(x, kv=keys, mask=mask, rng=rng)
        updated = T.reshape(x, summary.shape)
        ind = has_key.astype(np.float64)[:, None]
        return T.add(T.mul(updated, ind), T.mul(summary, 1.0 - ind))

    def stage_global(self, summary: Tensor, batch: SceneBatch, rng=None) -> Tensor:
        mask = None if batch.size == 1 else batch.same_scene[None]
        x = T.reshape(summary, summary.shape[:-2] + (1,) + summary.shape[-2:])
        for block in self.global_blocks:
            x = block(x, mask=mask, rng=rng)
        return T.reshape(x, summary.shape)

    def encode(self, scenes, rng=None) -> EncodedBatch:
        tokens, lane_tokens, batch = self.embed_inputs(scenes)
        x = self.stage_agent_agent(tokens, batch, rng)
        x = self.stage_temporal(x, batch, rng)
        summary = T.getitem(x, (Ellipsis, x.shape[-2] - 1, slice(None)))    # last-step token
        summary = self.stage_agent_lane(summary, lane_tokens, batch, rng)
        summary = self.stage_global(summary, batch, rng)
        return EncodedBatch(embeddings=summary, origins=batch.origins)

    # ----- decoder -----

    def decode(self, enc: EncodedBatch) -> BatchPrediction:
        k, f = self.cfg.modes, self.cfg.pred_steps
        lead = enc.embeddings.shape[:-1]    # [..., A]
        h = gelu(self.head_hidden(enc.embeddings))
        raw = T.reshape(self.head_out(h), lead + (k, 4 * f + 1))
        offsets = T.reshape(T.getitem(raw, (Ellipsis, slice(0, 2 * f))), lead + (k, f, 2))
        locations = T.add(offsets, enc.origins[:, None, None, :])
        scale_raw = T.reshape(T.getitem(raw, (Ellipsis, slice(2 * f, 4 * f))), lead + (k, f, 2))
        scales = T.add(T.softplus(scale_raw), SCALE_FLOOR)
        probs = T.softmax(T.getitem(raw, (Ellipsis, 4 * f)), axis=-1)
        return BatchPrediction(locations=locations, scales=scales, mode_probs=probs)

    def forward(self, scenes, rng=None) -> BatchPrediction:
        """Predictions for every agent of a list of scenarios, run as one batch.

        Dropout runs exactly when an rng is given, drawing its masks from it.
        """
        return self.decode(self.encode(scenes, rng))

    def predict(self, s: Scenario) -> BatchPrediction:
        """One scenario, a batch of one, without gradient tracking."""
        return self.forward([s])
