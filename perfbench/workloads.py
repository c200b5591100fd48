"""The benchmark's workloads: inputs from a seed, one timed operation, output checks.

Every workload drives dyttp only through public functions and hands the
library nothing but inputs generated here from the seed. Calls that set-up
makes into a layer are wrapped by `span` so a traced run can split set-up
time by layer; everything the timed operation reaches is wrapped by
`spans.Tracer.install` instead.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

ENSEMBLE_SIZE = 4
ENSEMBLE_SAMPLE = 8    # scenarios on which the ensemble is compared with its members
MEAN_TOL = 1e-9


@dataclass
class OpResult:
    scenarios: int         # scenarios the operation completed
    latencies: list        # seconds, one per latency-counted operation
    payload: object        # what check() inspects, outside the timed region
    scales: list | None = None  # host-speed factor of each latency, when the operation measured them
    paused: float = 0.0    # seconds the operation spent in reference blocks


@dataclass
class Checks:
    """Failure messages, and one-off checks that each count as one attempted operation."""
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.note(what)

    def note(self, what: str):
        if len(self.failures) < 20:
            self.failures.append(what)


def span(tracer, name, fn, *args, **kwargs):
    """Call fn, inside a span named `name` when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.wrap(name, fn)(*args, **kwargs)


def container_round_trip(dy, split, workdir, tracer):
    path = os.path.join(workdir, "scenarios.bin")
    span(tracer, "data.save", dy.data.save_scenarios, split, path)
    return span(tracer, "data.load", dy.data.load_scenarios, path)


def stratified_scenes(dy, seed, gen, candidates, per_count):
    """per_count of `candidates` generated scenes for each agent count 1..gen.max_agents.

    Where a count runs short the nearest count stands in, and within a count
    the scene with the median number of lane segments is taken. Every seed
    then gets the same generation work and nearly the same size mix, so the
    mix, not the seed, sets the cost of a pass over the pool and of its
    costliest scenes.
    """
    scenes = dy.data.generate_synthetic(candidates, dy.tensor.Rng(seed), gen).all_scenarios()
    segments = [dy.backbone.lane_segments(s.lanes)[0].shape[0] for s in scenes]
    left = list(range(len(scenes)))
    kept = []
    for n in range(1, gen.max_agents + 1):
        for _ in range(per_count):
            gap = min(abs(scenes[i].num_agents - n) for i in left)
            group = sorted((segments[i], i) for i in left if abs(scenes[i].num_agents - n) == gap)
            best = group[len(group) // 2][1]
            left.remove(best)
            kept.append(best)
    return dy.data.DatasetSplit(train=[scenes[i] for i in sorted(kept)], val=[], seed=seed)


def stacked(preds):
    return (np.stack([p.locations.data for p in preds]),
            np.stack([p.scales.data for p in preds]),
            np.stack([p.mode_probs.data for p in preds]))


def prediction_problem(preds, scenario, cfg) -> str | None:
    """Why a per-agent prediction list is malformed, or None if it is sound."""
    if len(preds) != scenario.num_agents:
        return f"{len(preds)} predictions for {scenario.num_agents} agents"
    loc, scale, prob = stacked(preds)
    if loc.shape[1:] != (cfg.modes, cfg.pred_steps, 2) or scale.shape != loc.shape:
        return f"prediction shape {loc.shape}"
    if not (np.isfinite(loc).all() and np.isfinite(scale).all() and np.isfinite(prob).all()):
        return "non-finite prediction"
    if not (scale > 0.0).all():
        return "non-positive scale"
    if np.abs(prob.sum(axis=-1) - 1.0).max() > MEAN_TOL:
        return "mode probabilities do not sum to 1"
    return None


def traffic(scenarios, backbone) -> dict:
    agents = np.array([s.num_agents for s in scenarios])
    segments = np.array([backbone.lane_segments(s.lanes)[0].shape[0] for s in scenarios])
    valid = np.concatenate([s.agent_valid.reshape(-1) for s in scenarios])
    return {
        "scenarios": len(scenarios),
        "agents_mean": float(agents.mean()),
        "agents_max": int(agents.max()),
        "lane_segments_mean": float(segments.mean()),
        "lane_segments_max": int(segments.max()),
        "observed_valid_fraction": float(valid.mean()),
    }


class Workload:
    name = ""
    why = ""
    # fixed, so the tail means the same on every commit; p99 would be the pool's one or
    # two costliest scenes (predict-dense) or host hiccups (calls of equal cost)
    tail_pct = 95.0
    min_ops = 1000      # latency samples a plain run collects at least
    cycle = 1           # a phase ends only after a whole number of these operations

    def __init__(self, dy, seed: int):
        self.dy = dy
        self.seed = seed
        self.cfg = dy.backbone.ModelConfig()
        self.checks = Checks()
        # set by the runner: host(seconds) runs reference blocks after a timed call that took
        # that long and returns (host-speed factor, seconds the blocks took)
        self.host = None

    def setup(self, workdir: str, tracer) -> None:
        raise NotImplementedError

    def op(self) -> OpResult:
        raise NotImplementedError

    def check(self, payload) -> int:
        """Number of latency-counted operations in payload whose output is wrong."""
        raise NotImplementedError

    def instrument(self, tracer) -> None:
        """Wrap callables the benchmark holds directly (module wrappers cover the rest)."""

    def finish(self) -> None:
        """One-off checks that need the whole run."""

    def profile(self) -> dict:
        raise NotImplementedError

    def extra(self) -> dict:
        """Workload-only results, reported beside the metrics: name -> (value, unit, better)."""
        return {}


class Train(Workload):
    name = "train"
    why = ("Criterion 7's inner loop at batch 8 on default sparse scenes: the only workload "
           "with a tape, backward and AdamW, so batching and fused backward passes show here.")
    min_ops = 200
    batch = 8

    def setup(self, workdir, tracer):
        dy, Rng = self.dy, self.dy.tensor.Rng
        # 20 scenes of each agent count 1..6: 15 steps per epoch
        split = span(tracer, "data.generate", stratified_scenes,
                     dy, self.seed, dy.data.GenConfig(), 192, 20)
        loaded = container_round_trip(dy, split, workdir, tracer)
        self.pool = [s for s in loaded.train
                     if any(dy.training.loss_eligible(s, n) for n in range(s.num_agents))]
        self.model = dy.backbone.TrajectoryPredictor(self.cfg, Rng(self.seed).child(0))
        self.opt = dy.training.AdamW()
        self.sched = dy.training.SchedulerConfig()
        self.shuffle_rng = Rng(self.seed).child(1)
        self.dropout_rng = Rng(self.seed).child(2)
        self.steps_per_epoch = -(-len(self.pool) // self.batch)
        self.cycle = self.steps_per_epoch
        self.step = 0
        self.order = None
        self.losses = []
        self.tape_records = []

    def op(self):
        dy = self.dy
        epoch, pos = divmod(self.step, self.steps_per_epoch)
        if pos == 0:
            self.order = self.shuffle_rng.permutation(len(self.pool))
        batch = [self.pool[i] for i in self.order[pos * self.batch:(pos + 1) * self.batch]]
        lr = dy.training.lr_at(self.sched, epoch % self.sched.cycle_length)
        # a step is long enough for the host's speed to change within it, so reference
        # blocks follow each half: the forward and loss, then backward and AdamW
        t0 = time.perf_counter()
        with dy.tensor.Tape() as tape:
            loss = dy.training.total_loss(self.model, batch, 1.0, self.dropout_rng, training=True)
        forward = time.perf_counter() - t0
        scale_f, pause_f = self.host(forward)
        t1 = time.perf_counter()
        dy.tensor.backward(loss.total, tape)
        self.opt.step(self.model.named_params(), lr)
        self.model.zero_grad()
        update = time.perf_counter() - t1
        scale_u, pause_u = self.host(update)
        self.step += 1
        value = loss.total.item()
        self.losses.append(value)
        self.tape_records.append(len(tape))
        scale = (forward * scale_f + update * scale_u) / (forward + update)
        return OpResult(len(batch), [forward + update], value, [scale], pause_f + pause_u)

    def check(self, payload):
        if np.isfinite(payload):
            return 0
        self.checks.note(f"non-finite training loss at step {len(self.losses) - 1}")
        return 1

    def finish(self):
        windows = self.loss_windows()
        if windows is None:
            self.checks.record(False, f"only {len(self.losses)} training steps, "
                                      "less than one warm-restart cycle")
            return
        first, last = windows
        self.checks.record(last <= first,
                           f"last-epoch loss {last:.4f} above first-epoch loss {first:.4f}")

    def loss_windows(self):
        """Mean loss of the first epoch and of the last epoch of the first cycle."""
        per_epoch = self.steps_per_epoch
        end = self.sched.cycle_length * per_epoch
        if len(self.losses) < end:
            return None
        return (float(np.mean(self.losses[:per_epoch])),
                float(np.mean(self.losses[end - per_epoch:end])))

    def profile(self):
        out = traffic(self.pool, self.dy.backbone)
        out["batch"] = self.batch
        out["tape_records_per_step"] = float(np.mean(self.tape_records)) if self.tape_records else 0.0
        return out

    def extra(self):
        windows = self.loss_windows()
        return {} if windows is None else {"loss_final": (windows[1], "nats", "lower")}


class PredictDense(Workload):
    name = "predict-dense"
    why = ("Single-scenario predict with no tape on dense scenes (1-32 agents, about 130 lane "
           "segments): array work and the agent-lane and agent-agent stages dominate, at batch 1.")
    def setup(self, workdir, tracer):
        dy = self.dy
        # 3 scenes of each agent count 1..32
        split = span(tracer, "data.generate", stratified_scenes,
                     dy, self.seed, dy.data.GenConfig(max_agents=32), 192, 3)
        self.pool = container_round_trip(dy, split, workdir, tracer).train
        self.model = dy.backbone.TrajectoryPredictor(self.cfg, dy.tensor.Rng(self.seed).child(0))
        self.cycle = len(self.pool)
        self.next = 0
        self.reference = {}

    def op(self):
        s = self.pool[self.next % len(self.pool)]
        self.next += 1
        t0 = time.perf_counter()
        preds = self.model.predict(s)
        t1 = time.perf_counter()
        return OpResult(1, [t1 - t0], (s, preds))

    def check(self, payload):
        s, preds = payload
        return 0 if output_ok(self, s, preds) else 1

    def profile(self):
        out = traffic(self.pool, self.dy.backbone)
        out["tape_records_per_step"] = 0.0
        return out


def output_ok(w, s, preds) -> bool:
    """Sound output that also equals the first output for the same scenario."""
    problem = prediction_problem(preds, s, w.cfg)
    if problem is None:
        arrays = stacked(preds)
        ref = w.reference.setdefault(s.scenario_id, arrays)
        if not all(np.array_equal(a, b) for a, b in zip(arrays, ref)):
            problem = "output differs from the first prediction of the same scenario"
    if problem is not None:
        w.checks.note(f"{s.scenario_id}: {problem}")
    return problem is None


class EvaluateEnsemble(Workload):
    name = "evaluate-ensemble"
    why = ("evaluate_model over sparse scenes with a 4-snapshot prediction-average ensemble "
           "read from checkpoints: per-op overhead dominates and work scales with the snapshots.")

    def setup(self, workdir, tracer):
        dy, Rng = self.dy, self.dy.tensor.Rng
        # 8 scenes of each agent count 1..6; a plain val split's size and mix vary with the seed
        split = span(tracer, "data.generate", stratified_scenes,
                     dy, self.seed, dy.data.GenConfig(), 192, 8)
        self.pool = container_round_trip(dy, split, workdir, tracer).train
        self.params = [dy.backbone.TrajectoryPredictor(self.cfg, Rng(self.seed).child(k)).state_dict()
                       for k in range(ENSEMBLE_SIZE)]
        paths = [os.path.join(workdir, f"snapshot_{k}.ckpt") for k in range(ENSEMBLE_SIZE)]
        for k, path in enumerate(paths):
            span(tracer, "cli.checkpoint_save", dy.cli.save_checkpoint, path, self.params[k], self.cfg, k)
        self.snapshots = span(tracer, "cli.checkpoint_load", dy.cli.snapshots_from_checkpoints,
                              paths, self.cfg)
        self.ensemble = dy.training.make_ensemble(
            self.snapshots, self.cfg, dy.training.EnsembleConfig(strategy="prediction_average"))
        self.call = self.ensemble
        self.reference = {}
        for k, snap in enumerate(self.snapshots):
            narrowed = {n: a.astype(np.float32).astype(np.float64) for n, a in self.params[k].items()}
            same = (set(snap.params) == set(narrowed)
                    and all(np.array_equal(snap.params[n], narrowed[n]) for n in narrowed))
            self.checks.record(same, f"checkpoint {k} does not round-trip to float32-narrowed parameters")

    def instrument(self, tracer):
        self.call = self.ensemble if tracer is None else tracer.wrap("training.ensemble", self.ensemble)

    def finish(self):
        """The ensemble equals the mean of its members' separate predictions."""
        members = [self.dy.training.model_from_params(s.params, self.cfg).predict
                   for s in self.snapshots]
        for s in self.pool[:ENSEMBLE_SAMPLE]:
            got = stacked(self.ensemble(s))
            parts = [stacked(m(s)) for m in members]
            want = [np.mean([p[i] for p in parts], axis=0) for i in range(3)]
            err = max(float(np.abs(g - w).max()) for g, w in zip(got, want))
            self.checks.record(err <= MEAN_TOL,
                               f"{s.scenario_id}: ensemble differs from member mean by {err:.3g}")

    def op(self):
        calls, scales, paused = [], [], []

        def timed_predict(s):
            t0 = time.perf_counter()
            preds = self.call(s)
            spent = time.perf_counter() - t0
            calls.append((spent, s, preds))
            scale, pause = self.host(spent)
            scales.append(scale)
            paused.append(pause)
            return preds

        report = self.dy.evaluation.evaluate_model(timed_predict, self.pool)
        return OpResult(len(self.pool), [c[0] for c in calls], (report, calls), scales, sum(paused))

    def check(self, payload):
        report, calls = payload
        bad = sum(not output_ok(self, s, preds) for _, s, preds in calls)
        sound = (report.count == len(self.pool) and np.isfinite([report.minade, report.minfde]).all()
                 and 0.0 <= report.mr <= 1.0)
        if not sound:
            self.checks.note(f"unsound metrics report {report.to_dict()}")
            return len(calls)
        return bad

    def profile(self):
        out = traffic(self.pool, self.dy.backbone)
        out["snapshots"] = len(self.snapshots)
        out["tape_records_per_step"] = 0.0
        return out


WORKLOADS = {w.name: w for w in (Train, PredictDense, EvaluateEnsemble)}
