"""Training: losses, cosine warm-restart scheduling, snapshots, ensembling.

The loss is a winner-take-all Laplace negative log-likelihood on the mode
whose endpoint lands closest to the ground truth, plus a weighted
cross-entropy pushing that mode's probability up. Mode selection is done
outside the tape, so classification gradients never reach the location and
scale heads through the selection.

One snapshot of the full parameter state is captured at the end of every
learning-rate cycle; at inference the snapshots are combined either by
averaging their predictions or by averaging their parameters into one model.
Prediction averaging stacks the snapshots' parameters on a leading axis, so
one forward pass computes every snapshot's predictions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import BatchPrediction, ModelConfig, TrajectoryPredictor
from .data import DatasetSplit, Scenario
from .evaluation import score_focal
from .tensor import Rng, Tape, Tensor

CE_PROB_FLOOR = 1e-12  # clamp for -log(p) when a mode collapses to zero


@dataclass
class SchedulerConfig:
    eta_min: float = 1e-5
    eta_max: float = 3e-3
    cycle_length: int = 8     # epochs between warm restarts
    num_cycles: int = 4

    def __post_init__(self):
        if not 0.0 <= self.eta_min < self.eta_max:
            raise ValueError("need 0 <= eta_min < eta_max")
        if self.cycle_length < 1 or self.num_cycles < 1:
            raise ValueError("cycle_length and num_cycles must be >= 1")


def lr_at(cfg: SchedulerConfig, e_cur: float) -> float:
    """Cosine annealing within one cycle; e_cur is epochs since the restart."""
    if not 0.0 <= e_cur <= cfg.cycle_length:
        raise ValueError(f"e_cur {e_cur} outside [0, {cfg.cycle_length}]")
    return cfg.eta_min + 0.5 * (cfg.eta_max - cfg.eta_min) * (
        1.0 + math.cos(math.pi * e_cur / cfg.cycle_length))


@dataclass
class LossBreakdown:
    total: Tensor
    reg: Tensor
    cls: Tensor


def _one_hot(modes, k: int) -> np.ndarray:
    return (np.arange(k) == np.asarray(modes)[:, None]).astype(np.float64)


def select_best_mode(locations, gt, valid_mask) -> np.ndarray:
    """[A] mode per agent with the smallest displacement at the agent's last
    valid step; ties pick the lowest index. locations [A, K, F, 2], gt
    [A, F, 2], valid_mask [A, F]. Plain numpy outside any tape, so selection
    is detached."""
    locations = np.asarray(locations, dtype=np.float64)
    valid = np.asarray(valid_mask, dtype=bool)
    if not valid.any(axis=1).all():
        raise ValueError("no valid future step to select against")
    agents = np.arange(valid.shape[0])
    last = valid.shape[1] - 1 - np.argmax(valid[:, ::-1], axis=1)
    gt_end = np.asarray(gt, dtype=np.float64)[agents, last]              # [A, 2]
    d = np.linalg.norm(locations[agents, :, last] - gt_end[:, None], axis=-1)
    return np.argmin(d, axis=1)


def regression_nll(locations: Tensor, scales: Tensor, gt, valid_mask, modes) -> Tensor:
    """[A] Laplace NLL of each agent's mode `modes[a]`, summed over valid steps
    and both coordinates.

    Each term is log(2b) + |y - mu| / b; the chosen mode and the valid steps
    enter as a 0/1 weight, so the other modes get exactly zero gradient.
    """
    if np.any(scales.data <= 0.0):
        raise T.NumericalError("regression NLL needs strictly positive scales")
    gt = np.asarray(gt, dtype=np.float64)
    valid = np.asarray(valid_mask, dtype=np.float64)
    weight = _one_hot(modes, locations.shape[1])[:, :, None, None] * valid[:, None, :, None]
    terms = T.add(T.log(T.mul(scales, 2.0)), T.div(T.abs_(T.sub(locations, gt[:, None])), scales))
    return T.sum_(T.mul(terms, weight), axis=(1, 2, 3))


def classification_ce(mode_probs: Tensor, modes) -> Tensor:
    """[A] -log p of each agent's mode `modes[a]`, p clamped at 1e-12."""
    p = T.sum_(T.mul(mode_probs, _one_hot(modes, mode_probs.shape[1])), axis=1)
    return T.neg(T.log(T.clamp_min(p, CE_PROB_FLOOR)))


def eligible_agents(s: Scenario) -> np.ndarray:
    """[N] agents the loss scores: two or more observed steps and a valid future step."""
    return (s.agent_valid.sum(axis=1) >= 2) & s.future_valid.any(axis=1)


def loss_eligible(s: Scenario, agent: int) -> bool:
    return bool(eligible_agents(s)[agent])


def total_loss(model: TrajectoryPredictor, scenarios, lam: float = 1.0,
               rng: Rng | None = None, training: bool = True) -> LossBreakdown:
    """Regression + lam * classification, averaged over eligible agents.

    The scenarios run through one batched forward pass, with dropout drawn
    from rng when training is true and no dropout otherwise.
    """
    scenarios = list(scenarios)
    eligible = np.concatenate([eligible_agents(s) for s in scenarios]) if scenarios else []
    if not np.any(eligible):
        raise ValueError("batch contains no agents eligible for the loss")
    pred = model.forward(scenarios, rng if training else None)
    gt = np.concatenate([s.agent_futures for s in scenarios])
    valid = np.concatenate([s.future_valid for s in scenarios]) & eligible[:, None]
    modes = np.zeros(len(eligible), dtype=np.int64)
    modes[eligible] = select_best_mode(pred.locations.data[eligible], gt[eligible],
                                       valid[eligible])
    reg = T.mean(T.getitem(regression_nll(pred.locations, pred.scales, gt, valid, modes), eligible))
    cls = T.mean(T.getitem(classification_ce(pred.mode_probs, modes), eligible))
    total = T.add(reg, T.mul(cls, lam))
    return LossBreakdown(total=total, reg=reg, cls=cls)


class AdamW:
    """Adaptive moments with decoupled weight decay; moments keyed by name."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, weight_decay: float = 1e-4):
        self.weight_decay = weight_decay
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, named_params, lr: float):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in named_params:
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise T.NumericalError(f"non-finite gradient for parameter {name}")
            m = self.m.get(name)
            if m is None:
                m = self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = p.data - lr * (update + self.weight_decay * p.data)


@dataclass
class Snapshot:
    cycle_index: int
    params: dict                 # parameter name -> float64 ndarray


class DivergenceError(RuntimeError):
    """Loss became non-finite; carries the snapshots captured so far."""

    def __init__(self, message: str, snapshots):
        super().__init__(message)
        self.snapshots = list(snapshots)


@dataclass
class TrainResult:
    model: TrajectoryPredictor
    snapshots: list
    records: list

    def log_lines(self) -> list:
        return [json.dumps(r, sort_keys=True) for r in self.records]


def _chunks(seq, size):
    for i in range(0, len(seq), size):
        yield seq[i:i + size]


def _validate(model: TrajectoryPredictor, scenarios, batch_size: int):
    """Focal-agent metrics of `scenarios`, run through the model in batches of batch_size."""
    locations = []
    for chunk in _chunks(scenarios, batch_size):
        offsets = np.cumsum([0] + [s.num_agents for s in chunk[:-1]])
        focal = offsets + [s.focal_agent for s in chunk]
        locations.append(model.forward(chunk).locations.data[focal])
    return score_focal(np.concatenate(locations), scenarios)


def train(split: DatasetSplit, model_cfg: ModelConfig, sched_cfg: SchedulerConfig,
          rng: Rng, lam: float = 1.0, batch_size: int = 8, log_sink=None,
          initial_params: dict | None = None, start_cycle: int = 0) -> TrainResult:
    """Run num_cycles x cycle_length epochs, snapshotting at each cycle end.

    Emits one machine-readable record per epoch (epoch, cycle, lr, train
    loss, validation minADE/minFDE/MR). On a non-finite loss or a
    NumericalError inside a step the run aborts with the completed snapshots
    retained on the raised DivergenceError; any other error propagates as is.
    """
    train_scenarios = [s for s in split.train if eligible_agents(s).any()]
    if not train_scenarios:
        raise ValueError("training split has no loss-eligible agents")
    model = TrajectoryPredictor(model_cfg, rng.child(0))
    if initial_params is not None:
        model.load_state_dict(initial_params)
    shuffle_rng = rng.child(1)
    dropout_rng = rng.child(2)
    opt = AdamW()
    snapshots, records = [], []

    def last_good():
        return f"snapshot_{snapshots[-1].cycle_index}" if snapshots else "none"

    epoch_global = start_cycle * sched_cfg.cycle_length
    for cycle in range(start_cycle, sched_cfg.num_cycles):
        for e_cur in range(sched_cfg.cycle_length):
            lr = lr_at(sched_cfg, e_cur)
            order = shuffle_rng.permutation(len(train_scenarios))
            batch_losses = []
            for batch_idx in _chunks(order, batch_size):
                batch = [train_scenarios[i] for i in batch_idx]
                try:
                    with Tape() as tape:
                        breakdown = total_loss(model, batch, lam, dropout_rng, training=True)
                    loss_val = breakdown.total.item()
                    if not math.isfinite(loss_val):
                        raise DivergenceError(
                            f"non-finite loss at epoch {epoch_global}; "
                            f"last good snapshot: {last_good()}", snapshots)
                    T.backward(breakdown.total, tape)
                    opt.step(model.named_params(), lr)
                    model.zero_grad()
                except T.NumericalError as err:
                    raise DivergenceError(
                        f"numerical blow-up at epoch {epoch_global} ({err}); "
                        f"last good snapshot: {last_good()}", snapshots) from err
                batch_losses.append(loss_val)
            val_metrics = _validate(model, split.val, batch_size) if split.val else None
            record = {
                "epoch": epoch_global,
                "cycle": cycle,
                "lr": lr,
                "train_loss": float(np.mean(batch_losses)),
                "val_minADE": val_metrics.minade if val_metrics else None,
                "val_minFDE": val_metrics.minfde if val_metrics else None,
                "val_MR": val_metrics.mr if val_metrics else None,
            }
            records.append(record)
            if log_sink is not None:
                log_sink(record)
            epoch_global += 1
        snapshots.append(Snapshot(cycle_index=cycle, params=model.state_dict()))
    return TrainResult(model=model, snapshots=snapshots, records=records)


# ---------------------------------------------------------------------------
# snapshot ensembling

@dataclass
class EnsembleConfig:
    strategy: str = "prediction_average"
    snapshots_used: int | None = None   # most recent S; None means all

    def __post_init__(self):
        if self.strategy not in ("prediction_average", "parameter_average"):
            raise ValueError(f"unknown ensemble strategy {self.strategy!r}")
        if self.snapshots_used is not None and self.snapshots_used < 1:
            raise ValueError("snapshots_used must be >= 1")


def model_from_params(params: dict, model_cfg: ModelConfig) -> TrajectoryPredictor:
    model = TrajectoryPredictor(model_cfg, Rng(0))
    model.load_state_dict(params)
    return model


def _check_compatible(snapshots):
    ref = snapshots[0].params
    for s in snapshots[1:]:
        if set(s.params) != set(ref) or any(
                s.params[k].shape != ref[k].shape for k in ref):
            raise ValueError("snapshots have mismatched architectures")


def _mean_arrays(arrays):
    # computed as base + mean of differences so averaging identical inputs
    # returns them bit for bit
    base = arrays[0]
    if len(arrays) == 1:
        return base.copy()
    acc = np.zeros_like(base)
    for a in arrays[1:]:
        acc += a - base
    return base + acc / len(arrays)


def make_ensemble(snapshots, model_cfg: ModelConfig, cfg: EnsembleConfig):
    """Build a predict(scenario) -> BatchPrediction callable for a set of snapshots."""
    if not snapshots:
        raise ValueError("ensemble needs at least one snapshot")
    used = snapshots if cfg.snapshots_used is None else snapshots[-cfg.snapshots_used:]
    _check_compatible(used)

    if cfg.strategy == "parameter_average":
        params = {k: _mean_arrays([s.params[k] for s in used]) for k in used[0].params}
        return model_from_params(params, model_cfg).predict

    model = model_from_params(used[0].params, model_cfg)
    if len(used) == 1:
        return model.predict
    # every parameter becomes [S, *P]; forward's outputs then lead with S
    for name, p in model.named_params():
        p.data = np.stack([np.asarray(s.params[name], dtype=np.float64) for s in used])

    def predict(scenario: Scenario) -> BatchPrediction:
        pred = model.forward([scenario])
        probs = _mean_arrays(pred.mode_probs.data)
        sums = probs.sum(axis=1, keepdims=True)
        drift = np.abs(sums - 1.0) > 1e-12  # renormalize only on real drift
        probs = np.where(drift, probs / sums, probs)
        return BatchPrediction(
            locations=Tensor(_mean_arrays(pred.locations.data)),
            scales=Tensor(_mean_arrays(pred.scales.data)),
            mode_probs=Tensor(probs))

    return predict
