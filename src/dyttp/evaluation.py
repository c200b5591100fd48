"""Forecasting metrics, inference-latency benchmarking, and the 2x2 ablation.

Metrics follow the usual multimodal forecasting definitions: minADE is the
minimum over modes of the mean per-step Euclidean error, minFDE the minimum
over modes of the final-step error, and the miss rate the fraction of agents
whose best endpoint misses by strictly more than 2.0 m.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .backbone import BatchPrediction, ModelConfig
from .data import DatasetSplit, Scenario
from .layers import make_norm
from .tensor import Rng, Tensor

MISS_THRESHOLD_M = 2.0


@dataclass
class MetricsReport:
    minade: float
    minfde: float
    mr: float
    count: int

    def to_dict(self) -> dict:
        return {"minADE": self.minade, "minFDE": self.minfde,
                "MR": self.mr, "count": self.count}


@dataclass
class LatencyReport:
    ave_ms: float
    std_ms: float
    min_ms: float
    max_ms: float
    iterations: int
    warmup_iterations: int

    def to_dict(self) -> dict:
        return {"ave_ms": self.ave_ms, "std_ms": self.std_ms,
                "min_ms": self.min_ms, "max_ms": self.max_ms,
                "iterations": self.iterations,
                "warmup_iterations": self.warmup_iterations}


@dataclass
class AblationCell:
    dyt_enabled: bool
    snapshot_enabled: bool
    metrics: MetricsReport | None
    latency: LatencyReport | None
    log_lines: list
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def score_focal(locations, scenarios) -> MetricsReport:
    """minADE / minFDE / MR over focal agents; locations [N, K, F, 2] holds the
    focal agent of scenarios[i] at row i.

    A scene with no valid future step is left out of minADE, and one whose
    final step is invalid is left out of minFDE and MR. An endpoint error of
    exactly 2.0 m is a hit.
    """
    if not scenarios:
        raise ValueError("no scenarios to evaluate")
    gt = np.stack([s.agent_futures[s.focal_agent] for s in scenarios])     # [N, F, 2]
    valid = np.stack([s.future_valid[s.focal_agent] for s in scenarios])   # [N, F]
    ends = valid[:, -1]
    if not ends.any():
        raise ValueError("no scenario has a valid final step to score")
    dist = np.linalg.norm(locations - gt[:, None], axis=-1)                 # [N, K, F]
    steps = valid.sum(axis=1)
    scored = steps > 0
    # cumsum adds the steps one by one, in order; sum would add them pairwise
    # and differ from a step-by-step total in the last ulp
    per_step = np.where(valid[:, None], dist, 0.0)[scored]
    ade = per_step.cumsum(axis=2)[..., -1] / steps[scored, None]
    fde = dist[ends, :, -1].min(axis=1)
    return MetricsReport(minade=float(ade.min(axis=1).mean()), minfde=float(fde.mean()),
                         mr=float((fde > MISS_THRESHOLD_M).mean()), count=len(scenarios))


def evaluate_model(predict_fn, scenarios) -> MetricsReport:
    """Aggregate minADE / minFDE / MR over the focal agent of each scenario.

    predict_fn maps one Scenario to a prediction indexed by agent, such as
    the BatchPrediction of `TrajectoryPredictor.predict`; it runs once per
    scenario, in order.
    """
    return score_focal(np.array([predict_fn(s)[s.focal_agent].locations.data
                                 for s in scenarios]), scenarios)


def constant_velocity_predict(s: Scenario) -> BatchPrediction:
    """Single-mode baseline: extrapolate each agent's last observed velocity.

    The velocity comes from the last two valid observed steps; an agent with
    one valid step stands still there, one with none stays at the origin.
    """
    hist, agents = s.agent_histories, np.arange(s.num_agents)
    idx = np.where(s.agent_valid, np.arange(s.obs_steps), -1)
    last = idx.max(axis=1)                                      # -1: no valid step
    prev = np.where(idx < last[:, None], idx, -1).max(axis=1)   # -1: fewer than two
    start = np.where((last >= 0)[:, None], hist[agents, last], 0.0)
    dt = np.where(prev >= 0, last - prev, 1)[:, None] * 0.1
    v = np.where((prev >= 0)[:, None], (hist[agents, last] - hist[agents, prev]) / dt, 0.0)
    steps = np.arange(1, s.pred_steps + 1)[:, None] * 0.1
    loc = (start[:, None] + steps * v[:, None])[:, None]
    return BatchPrediction(locations=Tensor(loc), scales=Tensor(np.ones_like(loc)),
                           mode_probs=Tensor(np.ones((len(agents), 1))))


def bench_latency(predict_fn, scenarios, iterations: int = 1000,
                  warmup: int = 50) -> LatencyReport:
    """Wall-clock per single-scenario prediction, fixed scenario order.

    The timed region only calls predict_fn; no parameter state is created
    inside it. Runs serially to keep the variance interpretable.
    """
    if iterations < 100:
        raise ValueError("latency benchmark needs >= 100 iterations")
    if warmup < 10:
        raise ValueError("latency benchmark needs >= 10 warmup iterations")
    if not scenarios:
        raise ValueError("no scenarios to benchmark")
    order = [scenarios[i % len(scenarios)] for i in range(iterations + warmup)]
    for s in order[:warmup]:
        predict_fn(s)
    samples = np.empty(iterations)
    for i, s in enumerate(order[warmup:]):
        t0 = time.perf_counter()
        predict_fn(s)
        samples[i] = time.perf_counter() - t0
    ms = samples * 1e3
    return LatencyReport(
        ave_ms=float(ms.mean()), std_ms=float(ms.std()),
        min_ms=float(ms.min()), max_ms=float(ms.max()),
        iterations=iterations, warmup_iterations=warmup,
    )


def norm_layer_latency(norm_kind: str, shape=(32, 50, 64), iterations: int = 1000,
                       warmup: int = 100, seed: int = 0) -> float:
    """Mean forward latency (ms) of one normalization layer on a fixed shape."""
    layer = make_norm(norm_kind, shape[-1])
    x = Tensor(Rng(seed).normal(shape))
    for _ in range(warmup):
        layer(x)
    # allocating the timed input after the warm-up leaves the allocator in the
    # same state for every layer, whichever one a process times first: each
    # timed iteration then maps fresh pages for its temporaries (without the
    # copy only the first layer timed in a process does)
    x = Tensor(x.data.copy())
    t0 = time.perf_counter()
    for _ in range(iterations):
        layer(x)
    return (time.perf_counter() - t0) / iterations * 1e3


# ---------------------------------------------------------------------------
# 2x2 ablation

_CELLS = [(False, False), (True, False), (False, True), (True, True)]


def run_ablation(split: DatasetSplit, model_cfg: ModelConfig, sched_cfg, seed: int,
                 lam: float = 1.0, batch_size: int = 8,
                 bench_iterations: int = 200, bench_warmup: int = 20,
                 bench_scenarios: int = 4) -> list:
    """Train and evaluate the 2x2 grid {DynamicTanh on/off} x {snapshots on/off}.

    Each norm kind trains once, from the seed; its snapshot-enabled cell runs
    inference with every snapshot and its snapshot-disabled cell with only
    the final one. A diverging norm kind fails both of its cells without
    stopping the others.
    """
    from .training import DivergenceError, EnsembleConfig, make_ensemble, train

    runs, cells = {}, []
    for dyt_on, snap_on in _CELLS:
        cfg = replace(model_cfg, norm_kind="dyt" if dyt_on else "layernorm")
        if dyt_on not in runs:
            try:
                runs[dyt_on] = train(split, cfg, sched_cfg, Rng(seed), lam=lam,
                                     batch_size=batch_size)
            except DivergenceError as e:
                runs[dyt_on] = e
        result = runs[dyt_on]
        if isinstance(result, DivergenceError):
            cells.append(AblationCell(dyt_on, snap_on, None, None,
                                      log_lines=[], error=str(result)))
            continue
        snaps = result.snapshots if snap_on else result.snapshots[-1:]
        predict_fn = make_ensemble(snaps, cfg, EnsembleConfig())
        metrics = evaluate_model(predict_fn, split.val)
        latency = bench_latency(predict_fn, split.val[:bench_scenarios],
                                iterations=bench_iterations, warmup=bench_warmup)
        cells.append(AblationCell(dyt_on, snap_on, metrics, latency,
                                  log_lines=result.log_lines()))
    return cells


# ---------------------------------------------------------------------------
# report rendering

def format_metrics_table(report: MetricsReport, header: str = "") -> str:
    lines = []
    if header:
        lines.append(header)
    lines.append(f"{'metric':<10}{'value':>12}")
    lines.append(f"{'minADE':<10}{report.minade:>12.4f}")
    lines.append(f"{'minFDE':<10}{report.minfde:>12.4f}")
    lines.append(f"{'MR':<10}{report.mr:>12.4f}")
    lines.append(f"{'count':<10}{report.count:>12d}")
    return "\n".join(lines)


def format_latency_table(report: LatencyReport, header: str = "") -> str:
    lines = []
    if header:
        lines.append(header)
    lines.append(f"{'stat':<10}{'ms':>12}")
    for key in ("ave_ms", "std_ms", "min_ms", "max_ms"):
        lines.append(f"{key[:-3]:<10}{getattr(report, key):>12.3f}")
    lines.append(f"{'iters':<10}{report.iterations:>12d}")
    return "\n".join(lines)


def format_ablation_table(cells) -> str:
    head = f"{'DyT':^5}{'Snapshot':^10}{'Backbone':^10}|{'ADE':>9}{'FDE':>9}{'MR':>9}{'inf(ms)':>10}"
    lines = [head, "-" * len(head)]
    for cell in cells:
        dyt = "x" if cell.dyt_enabled else ""
        snap = "x" if cell.snapshot_enabled else ""
        if cell.ok:
            lines.append(
                f"{dyt:^5}{snap:^10}{'x':^10}|"
                f"{cell.metrics.minade:>9.4f}{cell.metrics.minfde:>9.4f}"
                f"{cell.metrics.mr:>9.4f}{cell.latency.ave_ms:>10.3f}")
        else:
            lines.append(f"{dyt:^5}{snap:^10}{'x':^10}|  failed: {cell.error}")
    return "\n".join(lines)


def ablation_to_dict(cells, seed: int, model_cfg: ModelConfig) -> dict:
    return {
        "schema": "dyttp-ablation-v1",
        "seed": seed,
        "base_config": asdict(model_cfg),
        "cells": [
            {
                "dyt_enabled": c.dyt_enabled,
                "snapshot_enabled": c.snapshot_enabled,
                "seed": seed,
                "norm_kind": "dyt" if c.dyt_enabled else "layernorm",
                "metrics": c.metrics.to_dict() if c.metrics else None,
                "latency": c.latency.to_dict() if c.latency else None,
                "error": c.error,
            }
            for c in cells
        ],
    }
