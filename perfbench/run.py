"""dyttp benchmark: end-to-end metrics per workload, or a traced per-layer split.

Run from the root of a dyttp checkout:

    python3 perfbench/run.py --workload predict-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process serves one workload as a single closed-loop caller: the next
operation starts when the previous one returns. `--workload all` runs every
workload in its own child process, so set-up time and peak memory belong to
one workload. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer split from a
traced phase, plus the tracing overhead against an untraced phase of the
same run. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

# Thread caps must be in place before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["DYTTP_THREADS"] = "1"
sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HELD_OUT_SEED = 9001    # kept out of tuning; a claimed gain is confirmed on it
SETUP_REPS = 9          # the first few set-ups of a process run slower; the median skips them
STAGE_COVER_TOL = 0.10
REF_MS = 0.35           # typical time of one reference block on the 2-CPU host the bounds were set on
REF_SHARE = 0.05        # reference blocks timed after an operation, as a share of its time

# units of the end-to-end metrics, as listed in BENCHMARK.json
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_scen_per_s": "scen/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """dyttp from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, SRC)
    import dyttp
    import dyttp.cli  # noqa: F401  (submodules the workloads reach as attributes)

    if os.path.dirname(os.path.dirname(os.path.abspath(dyttp.__file__))) != SRC:
        raise SystemExit(f"error: imported dyttp from {dyttp.__file__}, not {SRC}")
    return dyttp


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except (TypeError, ValueError):
        blas = {}
    import platform

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()} "
                  f"({' '.join(platform.python_build())}, {platform.python_compiler()})",
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS", "DYTTP_THREADS")},
        "command": [sys.executable, *sys.argv],
        "load": "closed loop, one caller, one process",
    }


class Reference:
    """A fixed block of small-array numpy work that measures the host's current speed.

    On a shared host the same code runs up to about 1.6 times slower for
    stretches of a second to minutes, so the wall times of runs made minutes
    apart spread more than the bounds allow. Reference blocks run right after
    each timed call and on both sides of each set-up, outside their timing,
    and the call's time is scaled by REF_MS over the median time of those
    blocks: it reads as ms on a host where a block takes REF_MS. dyttp never
    runs in the blocks, so a change to it shows in full; a host slowdown slows
    the call and the blocks alike and cancels. An untimed first block warms
    the caches, so the program's cache footprint does not reach the measure.
    The block mixes matmul, tanh, softmax and Python calls on arrays of 3, 14
    and 60 rows of width 32, the shapes and op mix of the workloads.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.xs = [rng.standard_normal((n, 32)) for n in (3, 14, 60)]
        self.w = rng.standard_normal((32, 32)) * 0.2

    def block(self):
        np, out = self.np, []
        for _ in range(6):
            for x in self.xs:
                h = np.tanh(x @ self.w)
                e = np.exp(h - h.max(axis=-1, keepdims=True))
                y = e / e.sum(axis=-1, keepdims=True)
                out.append((y.shape, float(y[0, 0])))
        return out

    def run(self, budget: float) -> list:
        """Times of reference blocks timed for about `budget` seconds, at least one."""
        times = []
        gc.disable()  # garbage the workload left is collected in the workload's time
        try:
            self.block()
            spent = 0.0
            while not times or spent < budget:
                t0 = time.perf_counter()
                self.block()
                times.append(time.perf_counter() - t0)
                spent += times[-1]
        finally:
            gc.enable()
        return times

    @staticmethod
    def factor(times: list) -> float:
        """What turns wall time taken beside blocks that took `times` into reference-host time."""
        return REF_MS / 1e3 / statistics.median(times)

    def after(self, spent: float) -> tuple:
        """Blocks after a call that took `spent` seconds: (its factor, seconds the blocks took)."""
        t0 = time.perf_counter()
        times = self.run(REF_SHARE * spent)
        return self.factor(times), time.perf_counter() - t0


class Phase:
    """What one timed loop saw; latencies and busy are scaled by host speed."""

    def __init__(self):
        self.latencies = []
        self.busy = 0.0
        self.wall_latencies = []
        self.wall_busy = 0.0
        self.scales = []
        self.scenarios = 0
        self.attempted = 0
        self.failed = 0
        self.requests = 0


def run_cycle(w, ph, ref, tracer=None):
    """One whole cycle of w.op() calls, each started when the last returned.

    Reference blocks follow each timed call, outside its timing, and scale
    it by the host speed they measured.
    """
    w.host = ref.after if tracer is None else tracer.wrap("perfbench.reference", ref.after)
    for _ in range(w.cycle):
        if tracer is not None:
            tracer.begin_request(ph.requests)
        ph.requests += 1
        t0 = time.perf_counter()
        try:
            out = w.op()
        except Exception as err:  # a failed operation is counted, and the loop goes on
            ph.attempted += 1
            ph.failed += 1
            w.checks.note(f"{type(err).__name__}: {err}")
            continue
        spent = time.perf_counter() - t0 - out.paused
        if tracer is not None:
            tracer.begin_request(-2)
        scales = out.scales
        if scales is None:  # the operation is one timed call
            scales = [ref.after(spent)[0]] * len(out.latencies)
        ph.scales += scales
        ph.latencies.extend(t * k for t, k in zip(out.latencies, scales))
        ph.busy += spent * statistics.fmean(scales)
        ph.wall_latencies.extend(out.latencies)
        ph.wall_busy += spent
        ph.scenarios += out.scenarios
        ph.attempted += len(out.latencies)
        ph.failed += w.check(out.payload)


def measure(w, ref, seconds, min_ops, tracer=None):
    """Whole cycles until time is up and min_ops ran: (untraced, traced) phases.

    With a tracer, untraced and traced cycles alternate, so both phases see
    the same machine conditions and their difference is the tracing overhead.
    """
    plain, traced = Phase(), Phase()
    need = min_ops if tracer is None else min_ops // 2
    deadline = time.perf_counter() + seconds
    while True:
        run_cycle(w, plain, ref)
        if tracer is not None:
            tracer.install(w.dy)
            w.instrument(tracer)
            try:
                run_cycle(w, traced, ref, tracer)
            finally:
                w.instrument(None)
                tracer.uninstall()
        if (time.perf_counter() >= deadline and plain.attempted >= need
                and (tracer is None or traced.attempted >= need)):
            return plain, traced


def timing(np, ph, tail_pct) -> dict:
    ms = np.array(ph.latencies) * 1e3
    wall_ms = np.array(ph.wall_latencies) * 1e3
    beyond = int(np.sum(ms > np.percentile(ms, tail_pct)))
    return {
        "throughput_scen_per_s": ph.scenarios / ph.busy,
        "latency_ms_p50": float(np.median(ms)),
        "latency_ms_tail": float(np.percentile(ms, tail_pct)),
        "tail_percentile": tail_pct,
        "samples": len(ms),
        "samples_beyond_tail": beyond,
        "ms_per_scenario": ph.busy * 1e3 / ph.scenarios,
        "host_scale_mean": ph.busy / ph.wall_busy,
        "host_scale_median": float(np.median(ph.scales)),
        "wall_throughput_scen_per_s": ph.scenarios / ph.wall_busy,
        "wall_latency_ms_p50": float(np.median(wall_ms)),
        "wall_latency_ms_tail": float(np.percentile(wall_ms, tail_pct)),
        "wall_ms_per_scenario": ph.wall_busy * 1e3 / ph.scenarios,
    }


def per_layer(w, tracer, traced, untraced_t, traced_t) -> tuple[dict, dict]:
    """(per-layer metrics, calls and self ms per scenario of every op kind that ran)."""
    from spans import BACKBONE_STAGES, OP_KINDS, op_kinds

    run = tracer.totals(first_request=0)
    setup = tracer.totals(first_request=-1, last_request=-1)
    scen = traced.scenarios
    steps = traced.requests if w.name == "train" else 0

    def incl_ms(name, totals=run):
        return totals.get(name, (0, 0, 0))[1] / 1e6

    def self_ms(name):
        return run.get(name, (0, 0, 0))[2] / 1e6

    def calls(name):
        return run.get(name, (0, 0, 0))[0]

    m = {}
    m["tensor.tape_records_per_step"] = w.profile()["tape_records_per_step"]
    m["tensor.backward_ms_per_step"] = incl_ms("tensor.backward") / steps if steps else 0.0
    kinds = op_kinds(w.dy.tensor)
    m["tensor.op_calls_per_scenario"] = sum(calls(f"tensor.{k}") for k in kinds) / scen
    m["tensor.op_ms_per_scenario"] = sum(self_ms(f"tensor.{k}") for k in kinds) / scen
    for k in OP_KINDS:
        m[f"tensor.op_calls.{k}"] = calls(f"tensor.{k}") / scen
        m[f"tensor.op_ms.{k}"] = self_ms(f"tensor.{k}") / scen
    for _, stage in BACKBONE_STAGES:
        m[f"{stage}_ms"] = incl_ms(stage) / scen
    for layer in ("attention", "feedforward", "norm", "linear", "block"):
        m[f"layers.{layer}_ms"] = self_ms(f"layers.{layer}") / scen
    forward = incl_ms("backbone.forward")
    m["training.forward_ms_per_step"] = forward / steps if steps else 0.0
    m["training.loss_ms_per_step"] = (incl_ms("training.total_loss") - forward) / steps if steps else 0.0
    m["training.adamw_ms_per_step"] = incl_ms("training.adamw") / steps if steps else 0.0
    ens_calls = calls("training.ensemble")
    m["training.ensemble_combine_ms"] = self_ms("training.ensemble") / ens_calls if ens_calls else 0.0
    m["evaluation.metrics_ms_per_scenario"] = self_ms("evaluation.evaluate_model") / scen
    m["data.generate_s"] = incl_ms("data.generate", setup) / 1e3 / SETUP_REPS
    m["data.save_s"] = incl_ms("data.save", setup) / 1e3 / SETUP_REPS
    m["data.load_s"] = incl_ms("data.load", setup) / 1e3 / SETUP_REPS
    m["cli.checkpoint_save_ms"] = incl_ms("cli.checkpoint_save", setup) / SETUP_REPS
    m["cli.checkpoint_load_ms"] = incl_ms("cli.checkpoint_load", setup) / SETUP_REPS
    stage_sum = sum(m[f"{stage}_ms"] for _, stage in BACKBONE_STAGES)
    # span times are wall time: scale them like the traced phase's timings
    m["backbone.stage_coverage"] = stage_sum * traced_t["host_scale_mean"] / untraced_t["ms_per_scenario"]
    for key in ("latency_ms_p50", "latency_ms_tail", "throughput_scen_per_s"):
        m[f"overhead.{key}"] = traced_t[key] - untraced_t[key]
    m["overhead.latency_p50_pct"] = 100.0 * (traced_t["latency_ms_p50"] / untraced_t["latency_ms_p50"] - 1.0)
    by_kind = {k: {"calls": calls(f"tensor.{k}") / scen, "ms": self_ms(f"tensor.{k}") / scen}
               for k in kinds if calls(f"tensor.{k}")}
    return m, by_kind


def run_one(args) -> int:
    import resource
    import shutil

    dy = import_library()
    import numpy as np

    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)} or all")
    workdir = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer() if args.trace else None
    ref = Reference(np)
    ref.run(0.05)  # warm the reference before it measures anything
    try:
        setup_times, setup_wall = [], []
        for _ in range(SETUP_REPS):
            gc.collect()
            w = WORKLOADS[args.workload](dy, args.seed)
            before = ref.run(0.01)  # a set-up is long: measure the host on both sides of it
            t0 = time.perf_counter()
            w.setup(workdir, tracer)
            setup_wall.append(time.perf_counter() - t0)
            after = ref.run(REF_SHARE * setup_wall[-1])
            setup_times.append(setup_wall[-1] * ref.factor(before + after))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass

    warm = Phase()  # one untimed cycle, so lazy set-up and caches settle
    run_cycle(w, warm, ref)
    gc.collect()
    untraced, traced = measure(w, ref, args.seconds, w.min_ops, tracer)
    phases = [untraced, traced] if args.trace else [untraced]
    w.finish()

    t = [timing(np, p, w.tail_pct) for p in phases]
    report = {"schema": "dyttp-perfbench-v1", "workload": w.name, "why": w.why,
              "seed": args.seed, "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
              "environment": environment(np), "traffic": w.profile(),
              "setup_s_each": setup_times, "setup_wall_s_each": setup_wall, "ref_ms": REF_MS}
    if args.trace:
        metrics, report["ops_by_kind"] = per_layer(w, tracer, traced, t[0], t[1])
        units = {k: per_layer_unit(k) for k in metrics}
        report["timing"] = {"untraced": t[0], "traced": t[1]}
        if w.name == "predict-dense":
            coverage = metrics["backbone.stage_coverage"]
            w.checks.record(abs(coverage - 1.0) <= STAGE_COVER_TOL,
                            f"backbone stages cover {coverage:.3f} of the untraced latency, "
                            f"outside 1 +- {STAGE_COVER_TOL}")
        out_dir = os.path.join(HERE, "_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_file = os.path.join(out_dir, f"spans-{w.name}.npz")
        tracer.write(spans_file)
        report["spans_file"] = os.path.relpath(spans_file, ROOT)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "throughput_scen_per_s": t[0]["throughput_scen_per_s"],
            "latency_ms_p50": t[0]["latency_ms_p50"],
            "latency_ms_tail": t[0]["latency_ms_tail"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        report["timing"] = {"run": t[0]}
    attempted = sum(p.attempted for p in [warm, *phases]) + w.checks.attempted
    failed = sum(p.failed for p in [warm, *phases]) + w.checks.failed
    extra = {"error_rate": (failed / attempted, "1", "lower"), **w.extra()}
    report["extra"] = {k: {"value": v, "unit": u, "better": b} for k, (v, u, b) in extra.items()}
    report["failures"] = w.checks.failures

    print(f"# {w.name}  seed {args.seed}  trace {args.trace}  "
          f"{t[-1]['samples']} samples, tail = p{w.tail_pct:g}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    for name, (value, unit, _) in extra.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    for failure in w.checks.failures:
        print(f"  FAILED: {failure}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.startswith("overhead."):
        return "%" if name.endswith("_pct") else ("scen/s" if "throughput" in name else "ms")
    if name.endswith("_s"):
        return "s"
    if "_ms" in name or ".op_ms." in name:
        return "ms"
    if name == "backbone.stage_coverage":
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload, each in its own process; exits non-zero if any failed."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            child = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            print(f"# {name}: no result (exit {proc.returncode})")
            combined["correct"] = False
            status = status or proc.returncode or 1
            continue
        status = status or proc.returncode
        combined["correct"] &= child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "dyttp", "__init__.py")):
        raise SystemExit(f"error: no dyttp sources under {SRC}")
    sys.path.insert(0, HERE)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
