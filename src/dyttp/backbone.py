"""Trajectory prediction backbone.

Agents are embedded from per-step displacement vectors in a translated
(agent-centric) frame, lanes from segment directions and midpoints relative
to each agent; absolute positions only ever enter through differences, so the
model is translation invariant by construction and predictions become
world-frame by adding each agent's frame origin (its last observed position).

Encoding runs four attention stages in order: agent-agent per observed
timestep within a radius, temporal per agent with a causal mask, agent-lane
cross attention against lane segments within the radius, and global
agent-agent attention without a radius mask. The last step's token is the
agent summary: in the last temporal block only that step queries, reading
keys and values from every step, so the temporal stage returns
[..., A, 1, D] and spends no work on rows nothing reads. Every stage uses
pre-norm blocks with the configured normalization (DynamicTanh or
LayerNorm) at all sites. The decoder head reads the encoder output directly,
with no norm of its own: a DynamicTanh there saturates as the residual
stream grows in training, its output stops depending on the input, and the
model settles on input-independent anchor trajectories from which its
gradient (tanh' near 0) cannot lead it out.

`forward` takes a list of scenarios and runs every stage once for the whole
batch. The batch's agents are concatenated onto one axis (no padding);
agent-agent and global attention AND a same-scene block-diagonal term into
their masks, and agent-lane keys are padded to the batch's largest segment
count with the padding masked out, so a scene's outputs do not depend on the
other scenes in its batch. `predict` is the batch of one.

In a plain forward every parameter meets an activation of PARAM_SITE_NDIM
axes. A model whose parameters are S snapshots stacked on a leading axis,
each with unit axes after S up to that rank (built by
`training.make_ensemble`), therefore runs the same code: the parameters
broadcast against the raw input arrays, every activation and output carries S
in front, and each slice equals what that snapshot alone computes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .data import Scenario
from .layers import Linear, Module, TransformerBlock, swap_axes
from .tensor import Rng, Tensor

SCALE_FLOOR = 1e-6  # keeps softplus output strictly positive after underflow
PARAM_SITE_NDIM = 3  # axes of every activation a parameter meets in a plain forward


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
    embeddings: Tensor      # [..., 1, A, D]
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
    last = t - 1 - np.argmax(valid[:, ::-1], axis=1)
    return np.where(valid.any(axis=1)[:, None], hist[np.arange(n), last], 0.0)


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


def _lane_steps(lanes):
    """lane_segments, and the [S] index of the polyline each segment lies on."""
    points = np.concatenate([np.zeros((0, 2)), *lanes])                     # [P, 2]
    lane_of = np.repeat(np.arange(len(lanes)), [len(poly) for poly in lanes])
    d = points[1:] - points[:-1]
    length = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    keep = (lane_of[1:] == lane_of[:-1]) & (length > 0)
    feats = np.concatenate([d[keep] / length[keep, None], length[keep, None]], axis=1)
    return feats, 0.5 * (points[:-1] + points[1:])[keep], lane_of[1:][keep]


def lane_segments(lanes) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero steps within each polyline: ([S, 3] unit direction + length, [S, 2] midpoints)."""
    return _lane_steps(lanes)[:2]


class SceneBatch:
    """Scenarios run together, their agents flattened onto one axis of A = sum N_i.

    Agents keep scene order, then their order within the scene; `scene_of`
    maps each agent to its scene. Each agent gets its scene's lane segments,
    padded to the batch's largest count S_max, as `lane_feats` (unit direction,
    length, midpoint minus the agent's frame origin) with `lane_valid` marking
    the real ones. The stages build their attention masks from these arrays
    and AND in `same_scene`, so no agent attends across scenes.
    """

    def __init__(self, scenes):
        scenes = list(scenes)
        if not scenes:
            raise ValueError("a batch needs at least one scenario")
        self.scene_of = np.repeat(np.arange(len(scenes)), [s.num_agents for s in scenes])  # [A]
        self.same_scene = self.scene_of[:, None] == self.scene_of[None, :]        # [A, A]
        self.agent_histories = np.concatenate([s.agent_histories for s in scenes])  # [A, T, 2]
        self.agent_valid = np.concatenate([s.agent_valid for s in scenes])          # [A, T]
        self.origins = frame_origins(self)                                          # [A, 2]
        # one pass over every polyline of the batch; the segments come in scene
        # order, so filling the valid entries in row-major order puts each in its scene's row
        feats, mids, lane = _lane_steps([poly for s in scenes for poly in s.lanes])
        scene = np.repeat(np.arange(len(scenes)), [len(s.lanes) for s in scenes])[lane]   # [S]
        counts = np.bincount(scene, minlength=len(scenes))
        seg_valid = np.arange(counts.max()) < counts[:, None]                     # [B, S_max]
        seg_feats = np.zeros(seg_valid.shape + (5,))
        seg_feats[seg_valid] = np.concatenate([feats, mids], axis=1)
        self.lane_feats = seg_feats[self.scene_of]                                  # [A, S_max, 5]
        # per column: over the [..., 2] slice numpy's inner loop would run over 2 elements
        self.lane_feats[..., 3] -= self.origins[:, 0, None]
        self.lane_feats[..., 4] -= self.origins[:, 1, None]
        self.lane_valid = seg_valid[self.scene_of]                                  # [A, S_max]


class TrajectoryPredictor(Module):
    def __init__(self, cfg: ModelConfig, rng: Rng):
        d = cfg.width
        self.cfg = cfg
        self.input_proj = Linear(3, d, rng)
        self.pos_embed = Tensor(rng.normal((cfg.obs_steps, d), std=0.02), requires_grad=True)
        self.lane_proj = Linear(5, d, rng)
        self.social_blocks = [TransformerBlock(cfg, rng) for _ in range(cfg.blocks_per_stage)]
        self.temporal_blocks = [TransformerBlock(cfg, rng) for _ in range(cfg.blocks_per_stage)]
        self.lane_blocks = [TransformerBlock(cfg, rng, cross=True) for _ in range(cfg.blocks_per_stage)]
        self.global_blocks = [TransformerBlock(cfg, rng) for _ in range(cfg.blocks_per_stage)]
        self.head_hidden = Linear(d, 2 * d, rng)
        k, f = cfg.modes, cfg.pred_steps
        self.head_out = Linear(2 * d, k * (4 * f + 1), rng)

    # ----- embedding -----

    def embed_inputs(self, scenes):
        """(agent tokens [..., A, T, D], the SceneBatch)."""
        batch = SceneBatch(scenes)
        tokens = T.add(self.input_proj(Tensor(agent_step_features(batch))), self.pos_embed)
        return tokens, batch

    # ----- encoder stages -----

    def stage_agent_agent(self, tokens: Tensor, batch: SceneBatch, rng=None) -> Tensor:
        a = tokens.shape[-3]
        # per coordinate: a reduction over a length-2 axis runs once per agent pair
        px, py = batch.agent_histories.T                         # [T, A] each
        vt = batch.agent_valid.T                                 # [T, A]
        dx = px[:, :, None] - px[:, None, :]                     # [T, A, A]
        dy = py[:, :, None] - py[:, None, :]
        dx *= dx
        dy *= dy
        dx += dy
        mask = dx <= self.cfg.radius ** 2
        mask &= vt[:, :, None]
        mask &= vt[:, None, :]
        mask &= batch.same_scene
        mask |= np.eye(a, dtype=bool)
        x = swap_axes(tokens, -3, -2)
        for block in self.social_blocks:
            x = block(x, mask=mask, rng=rng)
        return swap_axes(x, -3, -2)

    def stage_temporal(self, tokens: Tensor, batch: SceneBatch, rng=None) -> Tensor:
        """Tokens [..., A, T, D] in, summary [..., A, 1, D] out: the last step's token.

        Each step attends causally to the valid steps of its agent and to
        itself. Only the last step queries in the last block, with keys and
        values from every step; earlier blocks run every step, since the next
        block reads them all.
        """
        t = tokens.shape[-2]
        keys_ok = batch.agent_valid[:, None, :]                               # [A, 1, T]
        *early, last = self.temporal_blocks
        x = tokens
        for block in early:
            x = block(x, mask=np.tril(keys_ok | np.eye(t, dtype=bool)), rng=rng)
        summary = T.getitem(x, (Ellipsis, slice(t - 1, t), slice(None)))
        return last(summary, kv=x, mask=keys_ok | (np.arange(t) == t - 1), rng=rng)

    def stage_agent_lane(self, summary: Tensor, batch: SceneBatch, rng=None) -> Tensor:
        """Summary [..., A, 1, D] after each agent attends to the lane segments near it."""
        rx, ry = batch.lane_feats[..., 3], batch.lane_feats[..., 4]           # [A, S_max] each
        near = rx * rx + ry * ry <= self.cfg.radius ** 2
        near &= batch.lane_valid
        has_key = near.any(axis=1)
        if not has_key.any():
            return summary
        mask = near[:, None, :].copy()
        mask[~has_key, 0, 0] = True  # placeholder key; the gate discards its update
        # an agent with no lane key leaves each block as it came in, bit for bit
        gate = None if has_key.all() else has_key.astype(np.float64)[:, None, None]
        keys = self.lane_proj(Tensor(batch.lane_feats))                      # [..., A, S_max, D]
        x = summary
        for block in self.lane_blocks:
            x = block(x, kv=keys, mask=mask, rng=rng, gate=gate)
        return x

    def stage_global(self, summary: Tensor, batch: SceneBatch, rng=None) -> Tensor:
        """Summary [..., A, 1, D] in, [..., 1, A, D] out: every agent attends to its scene."""
        *lead, a, _, d = summary.shape
        x = T.reshape(summary, (*lead, 1, a, d))
        for block in self.global_blocks:
            x = block(x, mask=batch.same_scene[None], rng=rng)
        return x

    def encode(self, scenes, rng=None) -> EncodedBatch:
        tokens, batch = self.embed_inputs(scenes)
        x = self.stage_agent_agent(tokens, batch, rng)
        summary = self.stage_temporal(x, batch, rng)
        summary = self.stage_agent_lane(summary, batch, rng)
        summary = self.stage_global(summary, batch, rng)
        return EncodedBatch(embeddings=summary, origins=batch.origins)

    # ----- decoder -----

    def decode(self, enc: EncodedBatch) -> BatchPrediction:
        k, f = self.cfg.modes, self.cfg.pred_steps
        emb = enc.embeddings
        lead = emb.shape[:-3] + emb.shape[-2:-1]    # [..., A]
        hidden, out = self.head_hidden, self.head_out
        locations, scales, probs = T.decoder_head(emb, hidden.weight, hidden.bias, out.weight,
                                                  out.bias, enc.origins, lead + (k, f),
                                                  SCALE_FLOOR)
        return BatchPrediction(locations=locations, scales=scales, mode_probs=probs)

    def forward(self, scenes, rng=None) -> BatchPrediction:
        """Predictions for every agent of a list of scenarios, run as one batch.

        Dropout runs exactly when an rng is given, drawing its masks from it.
        """
        return self.decode(self.encode(scenes, rng))

    def predict(self, s: Scenario) -> BatchPrediction:
        """One scenario, a batch of one, without gradient tracking."""
        return self.forward([s])
