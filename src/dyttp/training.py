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
from .backbone import PARAM_SITE_NDIM, BatchPrediction, ModelConfig, TrajectoryPredictor
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
    """[A, K] rows of 0/1, one 1 at each agent's mode; all zeros for mode -1.
    A mode that is not an integer in [-1, K) raises ValueError."""
    modes = np.asarray(modes)
    bad = ~((modes >= -1) & (modes < k) & (modes == np.floor(modes)))
    if bad.any():
        raise ValueError(f"mode {modes[bad][0].item()!r} is not an integer in [-1, {k})")
    return (np.arange(k) == modes[:, None]).astype(np.float64)


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
    """The mean over scored agents of the Laplace NLL of each agent's mode
    `modes[a]`, summed over valid steps and both coordinates. An agent whose
    mode is -1 is not scored.

    Each term is log(2b) + |y - mu| / b; the chosen mode and the valid steps
    enter as a 0/1 weight, so the other modes and unscored agents get exactly
    zero gradient.
    """
    gt = np.asarray(gt, dtype=np.float64)
    valid = np.asarray(valid_mask, dtype=np.float64)
    weight = _one_hot(modes, locations.shape[1])[:, :, None, None] * valid[:, None, :, None]
    return T.laplace_nll(locations, scales, gt[:, None], weight, np.asarray(modes) >= 0)


def classification_ce(mode_probs: Tensor, modes) -> Tensor:
    """The mean over scored agents of -log p of each agent's mode `modes[a]`, p
    clamped at 1e-12. An agent whose mode is -1 is not scored."""
    return T.mode_ce(mode_probs, _one_hot(modes, mode_probs.shape[1]), np.asarray(modes) >= 0,
                     CE_PROB_FLOOR)


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
    valid = np.concatenate([s.future_valid for s in scenarios])
    modes = np.full(len(eligible), -1)
    modes[eligible] = select_best_mode(pred.locations.data[eligible], gt[eligible],
                                       valid[eligible])
    reg = regression_nll(pred.locations, pred.scales, gt, valid, modes)
    cls = classification_ce(pred.mode_probs, modes)
    total = T.add(reg, T.mul(cls, lam))
    return LossBreakdown(total=total, reg=reg, cls=cls)


class AdamW:
    """Adaptive moments with decoupled weight decay (Loshchilov & Hutter, arXiv:1711.05101).

    The first step lays the parameters out in one flat vector and their
    gradients in another: each parameter's data becomes a view of the first,
    and its grad_slot a view of the second, so a backward pass writes each
    gradient into place and a step is one pass over flat vectors, with no
    gathering. The layout is redone whenever some parameter's data is no
    longer a view of the vector (after load_state_dict, say). Each element
    is updated in torch.optim.AdamW's form: decay, then the moment step, in
    place on one scratch vector, so p.grad keeps the step's gradient until
    the next backward pass writes the next one into the same array. A
    parameter whose grad is None keeps its value and its moments. Every step
    must get the same parameters in the same order.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, weight_decay: float = 1e-4):
        self.weight_decay = weight_decay
        # set by the first step: spans[i] is parameter i's part of every flat vector
        self.names = self.spans = self.m = self.v = None
        self.flat = self.grad = self._scratch = None
        self.t = 0

    def _lay_out(self, params):
        self.flat = np.concatenate([p.data.ravel() for p in params])
        for (a, b), p in zip(self.spans, params):
            p.data = self.flat[a:b].reshape(p.data.shape)
            p.grad_slot = self.grad[a:b].reshape(p.data.shape)

    def step(self, named_params, lr: float):
        names, params = zip(*named_params)
        if self.names is None:
            ends = np.cumsum([p.data.size for p in params]).tolist()
            self.names, self.spans = names, list(zip([0] + ends[:-1], ends))
            self.m, self.v, self.grad = np.zeros(ends[-1]), np.zeros(ends[-1]), np.zeros(ends[-1])
            self._scratch = np.empty(ends[-1])
        elif names != self.names:
            # a fault of the caller's code, not of its input: not a ValueError, which
            # the command line reports as a usage error
            raise RuntimeError("AdamW.step needs the same parameters, in the same order, every step")
        if self.flat is None or any(p.data.base is not self.flat for p in params):
            self._lay_out(params)
        g, flat = self.grad, self.flat
        idle = []
        for (a, b), p in zip(self.spans, params):
            if p.grad is None:
                idle.append((a, b, flat[a:b].copy(), self.m[a:b].copy(), self.v[a:b].copy()))
                g[a:b] = 0.0
            elif p.grad is not p.grad_slot:
                g[a:b] = p.grad.ravel()
        if not np.isfinite(g).all():
            bad = next(name for name, p in zip(names, params)
                       if p.grad is not None and not np.isfinite(p.grad).all())
            raise T.NumericalError(f"non-finite gradient for parameter {bad}")
        self.t += 1
        scratch = self._scratch
        # m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g
        np.multiply(g, 1.0 - self.beta1, out=scratch)
        self.m *= self.beta1
        self.m += scratch
        np.multiply(g, 1.0 - self.beta2, out=scratch)
        scratch *= g
        self.v *= self.beta2
        self.v += scratch
        # p (1 - lr wd) - lr / (1 - b1^t) * m / (sqrt(v) / sqrt(1 - b2^t) + eps)
        denom = np.sqrt(self.v, out=scratch)
        denom /= math.sqrt(1.0 - self.beta2 ** self.t)
        denom += self.eps
        update = np.divide(self.m, denom, out=scratch)
        update *= lr / (1.0 - self.beta1 ** self.t)
        flat *= 1.0 - lr * self.weight_decay
        flat -= update
        for a, b, value, m, v in idle:
            flat[a:b], self.m[a:b], self.v[a:b] = value, m, v


@dataclass
class Snapshot:
    cycle_index: int
    params: dict                 # parameter name -> float64 ndarray


class DivergenceError(RuntimeError):
    """Loss became non-finite, or a NumericalError was raised inside a step."""


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
          snapshot_sink=None, resume: Snapshot | None = None) -> TrainResult:
    """Run num_cycles x cycle_length epochs, snapshotting at each cycle end.

    Emits one machine-readable record per epoch (epoch, cycle, lr, train
    loss, validation minADE/minFDE/MR) to log_sink, and hands each snapshot
    to snapshot_sink as its cycle ends, so a run that stops later keeps the
    cycles it finished. With resume, training starts from that snapshot's
    parameters at the cycle after it. On a non-finite loss or a
    NumericalError inside a step the run aborts with a DivergenceError; any
    other error propagates as is.
    """
    train_scenarios = [s for s in split.train if eligible_agents(s).any()]
    if not train_scenarios:
        raise ValueError("training split has no loss-eligible agents")
    model = TrajectoryPredictor(model_cfg, rng.child(0))
    start_cycle = 0
    if resume is not None:
        model.load_state_dict(resume.params)
        start_cycle = resume.cycle_index + 1
    opt = AdamW()
    snapshots, records = [], []
    last_good = f"snapshot_{start_cycle - 1}" if start_cycle else "none"

    epoch_global = start_cycle * sched_cfg.cycle_length
    # each epoch's shuffle takes len(train_scenarios) draws of one stream, and
    # each epoch draws its dropout masks from its own stream, so a resumed run
    # sees the batches and masks an uninterrupted run sees from its first epoch on
    shuffle_rng = rng.child(1)
    shuffle_rng.skip(epoch_global * len(train_scenarios))
    dropout_root = rng.child(2)
    for cycle in range(start_cycle, sched_cfg.num_cycles):
        for e_cur in range(sched_cfg.cycle_length):
            lr = lr_at(sched_cfg, e_cur)
            order = shuffle_rng.permutation(len(train_scenarios))
            dropout_rng = dropout_root.child(epoch_global)
            batch_losses = []
            for batch_idx in _chunks(order, batch_size):
                batch = [train_scenarios[i] for i in batch_idx]
                try:
                    with Tape() as tape:
                        breakdown = total_loss(model, batch, lam, dropout_rng, training=True)
                    loss_val = breakdown.total.item()
                    if not math.isfinite(loss_val):
                        raise DivergenceError(f"non-finite loss at epoch {epoch_global}; "
                                              f"last good snapshot: {last_good}")
                    T.backward(breakdown.total, tape)
                    opt.step(model.named_params(), lr)
                    model.zero_grad()
                except T.NumericalError as err:
                    raise DivergenceError(
                        f"numerical blow-up at epoch {epoch_global} ({err}); "
                        f"last good snapshot: {last_good}") from err
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
        if snapshot_sink is not None:
            snapshot_sink(snapshots[-1])
        last_good = f"snapshot_{cycle}"
    return TrainResult(model=model, snapshots=snapshots, records=records)


# ---------------------------------------------------------------------------
# snapshot ensembling

@dataclass
class EnsembleConfig:
    strategy: str = "prediction_average"

    def __post_init__(self):
        if self.strategy not in ("prediction_average", "parameter_average"):
            raise ValueError(f"unknown ensemble strategy {self.strategy!r}")


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
    """Build a predict(scenario) -> BatchPrediction callable over every given snapshot."""
    if not snapshots:
        raise ValueError("ensemble needs at least one snapshot")
    _check_compatible(snapshots)

    if cfg.strategy == "parameter_average":
        params = {k: _mean_arrays([s.params[k] for s in snapshots]) for k in snapshots[0].params}
        return model_from_params(params, model_cfg).predict

    model = model_from_params(snapshots[0].params, model_cfg)
    if len(snapshots) == 1:
        return model.predict
    # every parameter becomes [S, 1, ..., *P], lined up with the activation it
    # meets; forward's outputs then lead with S
    for name, p in model.named_params():
        stack = np.stack([np.asarray(s.params[name], dtype=np.float64) for s in snapshots])
        p.data = stack.reshape((len(snapshots),) + (1,) * (PARAM_SITE_NDIM - p.ndim) + p.shape)

    def predict(scenario: Scenario) -> BatchPrediction:
        pred = model.forward([scenario])
        return BatchPrediction(
            locations=Tensor(_mean_arrays(pred.locations.data)),
            scales=Tensor(_mean_arrays(pred.scales.data)),
            mode_probs=Tensor(_mean_arrays(pred.mode_probs.data)))

    return predict
