"""Command line: gen-data, train, evaluate, bench, ablate.

Runs are reproducible from (config, seed, input files). Flags override
config-file fields, which override defaults. Every training run archives its
resolved configuration verbatim as config.json in the output directory.

Checkpoints store parameters as little-endian float32 (in-memory math stays
float64; the narrowing is the documented precision boundary) under a header
carrying a model-config digest and the random generator's algorithm id. A
digest mismatch on load exits with code 4; training divergence exits 3;
usage errors, malformed input and a path that cannot be read or written
exit 2; a standard output closed by its reader exits 1 without a traceback.
A NumericalError outside training (a non-finite value inside evaluate's or
bench's forward pass) is a fault of the program, not of its use: it is not
reported as a usage error and exits 1 with its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import struct
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from .backbone import ModelConfig, TrajectoryPredictor
from .data import (
    BinaryReader, FormatError, GenConfig, generate_synthetic, load_scenarios,
    save_scenarios, write_atomic,
)
from .evaluation import (
    BENCH_MIN_ITERATIONS, BENCH_MIN_WARMUP, ablation_to_dict, bench_latency, evaluate_model,
    format_ablation_table, format_latency_table, format_metrics_table, run_ablation,
)
from .tensor import NumericalError, Rng
from .training import (
    DivergenceError, EnsembleConfig, SchedulerConfig, Snapshot, eligible_agents,
    make_ensemble, train,
)

CKPT_MAGIC = b"DYTC"
CKPT_VERSION = 3  # 3: one lane key projection lane_proj (5 inputs), no rel_proj

EXIT_USAGE = 2
EXIT_DIVERGENCE = 3
EXIT_CKPT_MISMATCH = 4


class CheckpointMismatchError(ValueError):
    """Checkpoint digest does not match the active model configuration."""


class OutputError(Exception):
    """An output path that cannot be written."""


@contextlib.contextmanager
def _writing(path):
    """Report an OSError raised inside the block as an OutputError for path."""
    try:
        yield
    except OSError as e:
        raise OutputError(f"cannot write {path}: {e.strerror or e}") from e


# ---------------------------------------------------------------------------
# checkpoint files

def save_checkpoint(path, params: dict, model_cfg: ModelConfig, cycle_index: int):
    digest = model_cfg.digest().encode()
    alg = Rng.algorithm.encode()
    buf = io.BytesIO()
    buf.write(CKPT_MAGIC)
    buf.write(struct.pack("<I", CKPT_VERSION))
    buf.write(struct.pack("<H", len(digest)) + digest)
    buf.write(struct.pack("<H", len(alg)) + alg)
    buf.write(struct.pack("<I", cycle_index))
    buf.write(struct.pack("<I", len(params)))
    for name in sorted(params):
        arr = np.asarray(params[name], dtype="<f4")  # keeps 0-d scalars 0-d
        encoded = name.encode()
        buf.write(struct.pack("<H", len(encoded)) + encoded)
        buf.write(struct.pack("<B", arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        buf.write(arr.tobytes())
    write_atomic(path, buf.getvalue())


def load_checkpoint(path):
    """Returns (params as float64 arrays, header dict)."""
    with open(path, "rb") as fh:
        r = BinaryReader(fh.read(), f"checkpoint {path}")
    if r.take(4) != CKPT_MAGIC:
        raise FormatError(f"{path} is not a checkpoint (bad magic)")
    (version,) = r.unpack("<I")
    if version != CKPT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    digest = r.string()
    algorithm = r.string()
    cycle_index, n_params = r.unpack("<II")
    params = {}
    for _ in range(n_params):
        name = r.string()
        (ndim,) = r.unpack("<B")
        params[name] = r.f32(r.unpack(f"<{ndim}I"))
    r.finish()
    header = {"digest": digest, "rng_algorithm": algorithm,
              "cycle_index": cycle_index, "version": version}
    return params, header


def verify_checkpoint_digest(header: dict, model_cfg: ModelConfig, path=""):
    if header["digest"] != model_cfg.digest():
        raise CheckpointMismatchError(
            f"checkpoint {path} was written for a different model configuration "
            f"(digest {header['digest'][:12]}... vs {model_cfg.digest()[:12]}...)")


def snapshots_from_checkpoints(paths, model_cfg: ModelConfig):
    """Snapshots in cycle order (stable), whatever the order of paths, so the
    last one is the most recent: `snapshot_10` sorts after `snapshot_2`."""
    snaps = []
    for p in paths:
        params, header = load_checkpoint(p)
        verify_checkpoint_digest(header, model_cfg, p)
        snaps.append(Snapshot(cycle_index=header["cycle_index"], params=params))
    return sorted(snaps, key=lambda snap: snap.cycle_index)


# ---------------------------------------------------------------------------
# configuration plumbing

# config fields a command line may override; a field its command has no flag
# for reads None and keeps the file or default value
_MODEL_FLAGS = tuple(f.name for f in fields(ModelConfig))
_SCHED_FLAGS = tuple(f.name for f in fields(SchedulerConfig))


def _merge_section(cls, file_section: dict, overrides: dict):
    values = {}
    values.update(file_section or {})
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    known = {f.name for f in cls.__dataclass_fields__.values()}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**values)


def resolve_configs(args) -> tuple[ModelConfig, SchedulerConfig, dict]:
    file_doc = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_doc = json.load(fh)
    model_overrides = {k: getattr(args, k, None) for k in _MODEL_FLAGS}
    sched_overrides = {k: getattr(args, k, None) for k in _SCHED_FLAGS}
    model_cfg = _merge_section(ModelConfig, file_doc.get("model"), model_overrides)
    sched_cfg = _merge_section(SchedulerConfig, file_doc.get("scheduler"), sched_overrides)
    extras = {
        "seed": _pick(getattr(args, "seed", None), file_doc.get("seed"), 0),
        "lam": _pick(getattr(args, "lam", None), file_doc.get("lambda"), 1.0),
        "batch_size": _pick(getattr(args, "batch_size", None), file_doc.get("batch_size"), 8),
    }
    if type(extras["batch_size"]) is not int or extras["batch_size"] < 1:
        raise ValueError(f"--batch-size (batch_size) must be an integer >= 1, "
                         f"got {extras['batch_size']!r}")
    return model_cfg, sched_cfg, extras


def _pick(*candidates):
    for c in candidates:
        if c is not None:
            return c
    return None


def _archived_config(model_cfg, sched_cfg, extras, data_path, out_dir) -> dict:
    return {
        "model": asdict(model_cfg),
        "scheduler": asdict(sched_cfg),
        "seed": extras["seed"],
        "lambda": extras["lam"],
        "batch_size": extras["batch_size"],
        "data": str(data_path),
        "out_dir": str(out_dir),
        "rng_algorithm": Rng.algorithm,
        "norm_sites": "all",  # norm_kind switches every normalization site
    }


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit_json(doc: dict, out_json):
    """Write doc to out_json, or print it when no path is given."""
    payload = _dump_json(doc)
    if out_json:
        with _writing(out_json):
            write_atomic(out_json, payload.encode())
    else:
        print(payload, end="")


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args) -> int:
    rng = Rng(args.seed)
    split = generate_synthetic(args.count, rng, GenConfig(noise_sigma=args.noise_sigma))
    with _writing(args.out):
        save_scenarios(split, args.out)
    print(f"wrote {args.out}: {len(split.train)} train / {len(split.val)} val scenarios")
    return 0


def _latest_snapshot(out_dir, model_cfg):
    paths = sorted(glob.glob(os.path.join(out_dir, "snapshot_*.ckpt")))
    snaps = snapshots_from_checkpoints(paths, model_cfg)
    return snaps[-1] if snaps else None


def cmd_train(args) -> int:
    model_cfg, sched_cfg, extras = resolve_configs(args)
    split = load_scenarios(args.data)
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)

    resume = _latest_snapshot(args.out, model_cfg) if args.resume else None
    start_cycle = resume.cycle_index + 1 if resume else 0
    if start_cycle:
        print(f"resuming from cycle {start_cycle}")
    if start_cycle >= sched_cfg.num_cycles:
        print("nothing to resume: all cycles complete")
        return 0

    log_path = os.path.join(args.out, "training_log.jsonl")
    with _writing(args.out):
        write_atomic(os.path.join(args.out, "config.json"),
                     _dump_json(_archived_config(model_cfg, sched_cfg, extras,
                                                 args.data, args.out)).encode())
        log_fh = open(log_path, "a" if start_cycle else "w")

    # the stdout line, not the log, carries wall time: reruns must give the same log bytes
    train_scenes = sum(1 for s in split.train if eligible_agents(s).any())

    def log_sink(record):
        nonlocal since
        log_fh.write(json.dumps(record, sort_keys=True) + "\n")
        log_fh.flush()
        now = time.perf_counter()
        seconds, since = now - since, now
        val = f"{record['val_minADE']:.4f}" if record["val_minADE"] is not None else "n/a"
        print(f"epoch {record['epoch']:>3}  cycle {record['cycle']}  "
              f"lr {record['lr']:.2e}  loss {record['train_loss']:.4f}  val minADE {val}  "
              f"{seconds:.2f} s  {train_scenes / seconds:.1f} scen/s")

    def snapshot_sink(snap):
        path = os.path.join(args.out, f"snapshot_{snap.cycle_index}.ckpt")
        with _writing(path):
            save_checkpoint(path, snap.params, model_cfg, snap.cycle_index)

    since = time.perf_counter()
    try:
        result = train(split, model_cfg, sched_cfg, Rng(extras["seed"]),
                       lam=extras["lam"], batch_size=extras["batch_size"],
                       log_sink=log_sink, snapshot_sink=snapshot_sink, resume=resume)
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE
    finally:
        log_fh.close()

    print(f"wrote {len(result.snapshots)} snapshots and {log_path}")
    return 0


def _predict_fn_from_args(args, model_cfg):
    """Build (predict callable, description) from checkpoint/ensemble flags."""
    snaps = snapshots_from_checkpoints(args.checkpoints, model_cfg)
    if args.ensemble == "off":
        return make_ensemble(snaps[-1:], model_cfg, EnsembleConfig()), "single snapshot"
    used = snaps if args.snapshots_used is None else snaps[-args.snapshots_used:]
    return (make_ensemble(used, model_cfg, EnsembleConfig(strategy=args.ensemble)),
            f"{args.ensemble} over {len(used)} snapshots")


def _maybe_autoconfig(args):
    # evaluate/bench default to the config archived next to the checkpoints
    if getattr(args, "config", None) is None and getattr(args, "checkpoints", None):
        candidate = os.path.join(os.path.dirname(args.checkpoints[0]), "config.json")
        if os.path.exists(candidate):
            args.config = candidate


def cmd_evaluate(args) -> int:
    _maybe_autoconfig(args)
    model_cfg, _, extras = resolve_configs(args)
    split = load_scenarios(args.data)
    scenarios = split.val if split.val else split.train
    predict_fn, desc = _predict_fn_from_args(args, model_cfg)
    report = evaluate_model(predict_fn, scenarios)
    header = (f"norm: {model_cfg.norm_kind} (all normalization sites), "
              f"inference: {desc}")
    print(format_metrics_table(report, header=header))
    _emit_json({
        "schema": "dyttp-metrics-v1",
        "config": asdict(model_cfg),
        "seed": extras["seed"],
        "inference": desc,
        "metrics": report.to_dict(),
    }, args.out_json)
    return 0


def cmd_bench(args) -> int:
    _maybe_autoconfig(args)
    model_cfg, _, extras = resolve_configs(args)
    split = load_scenarios(args.data)
    scenarios = (split.val if split.val else split.train)[:args.scenarios]
    if args.checkpoints:
        predict_fn, desc = _predict_fn_from_args(args, model_cfg)
    else:
        # fresh parameters on a checkpoint-shaped config
        model = TrajectoryPredictor(model_cfg, Rng(extras["seed"]))
        predict_fn, desc = model.predict, f"fresh {model_cfg.norm_kind} parameters"
    report = bench_latency(predict_fn, scenarios, iterations=args.iterations,
                           warmup=args.warmup)
    print(format_latency_table(report, header=f"latency: {desc}"))
    _emit_json({
        "schema": "dyttp-latency-v1",
        "config": asdict(model_cfg),
        "seed": extras["seed"],
        "inference": desc,
        "latency": report.to_dict(),
    }, args.out_json)
    return 0


def cmd_ablate(args) -> int:
    model_cfg, sched_cfg, extras = resolve_configs(args)
    split = load_scenarios(args.data)
    cells = run_ablation(split, model_cfg, sched_cfg, seed=extras["seed"],
                         lam=extras["lam"], batch_size=extras["batch_size"],
                         bench_iterations=args.bench_iterations,
                         bench_warmup=args.bench_warmup)
    table = format_ablation_table(cells)
    print(table)
    doc = ablation_to_dict(cells, extras["seed"], model_cfg)
    if args.out_dir:
        with _writing(args.out_dir):
            os.makedirs(args.out_dir, exist_ok=True)
            write_atomic(os.path.join(args.out_dir, "ablation.json"), _dump_json(doc).encode())
            write_atomic(os.path.join(args.out_dir, "ablation.txt"), (table + "\n").encode())
            for i, cell in enumerate(cells):
                write_atomic(os.path.join(args.out_dir, f"cell_{i}_train_log.jsonl"),
                             "".join(line + "\n" for line in cell.log_lines).encode())
    else:
        print(_dump_json(doc), end="")
    return 0 if any(c.ok for c in cells) else 1


# ---------------------------------------------------------------------------
# argument parsing

def _add_model_flags(p):
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--width", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--blocks-per-stage", dest="blocks_per_stage", type=int)
    p.add_argument("--modes", type=int)
    p.add_argument("--radius", type=float)
    p.add_argument("--norm", dest="norm_kind", choices=["dyt", "layernorm"])
    p.add_argument("--dropout", type=float)
    p.add_argument("--seed", type=int)


def _add_sched_flags(p):
    p.add_argument("--eta-max", dest="eta_max", type=float)
    p.add_argument("--eta-min", dest="eta_min", type=float)
    p.add_argument("--epochs-per-cycle", dest="cycle_length", type=int)
    p.add_argument("--cycles", dest="num_cycles", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyttp",
        description="normalization-free transformer trajectory prediction")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic scenario dataset")
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=0.1)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train with cyclical learning rate snapshots")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--resume", action="store_true",
                   help="continue from the latest snapshot in --out")
    _add_model_flags(t)
    _add_sched_flags(t)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("evaluate", help="metrics for a snapshot or ensemble")
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoints", nargs="+", required=True)
    e.add_argument("--ensemble", default="off",
                   choices=["off", "prediction_average", "parameter_average"])
    e.add_argument("--snapshots-used", dest="snapshots_used", type=int)
    e.add_argument("--out-json", dest="out_json")
    _add_model_flags(e)
    e.set_defaults(fn=cmd_evaluate)

    b = sub.add_parser("bench", help="inference latency benchmark")
    b.add_argument("--data", required=True)
    b.add_argument("--checkpoints", nargs="*", default=[])
    b.add_argument("--ensemble", default="off",
                   choices=["off", "prediction_average", "parameter_average"])
    b.add_argument("--snapshots-used", dest="snapshots_used", type=int)
    b.add_argument("--iterations", type=int, default=1000)
    b.add_argument("--warmup", type=int, default=50)
    b.add_argument("--scenarios", type=int, default=8,
                   help="how many scenarios to cycle through")
    b.add_argument("--out-json", dest="out_json")
    _add_model_flags(b)
    b.set_defaults(fn=cmd_bench)

    a = sub.add_parser("ablate", help="2x2 ablation: DynamicTanh x snapshots")
    a.add_argument("--data", required=True)
    a.add_argument("--out-dir", dest="out_dir")
    a.add_argument("--bench-iterations", dest="bench_iterations", type=int, default=200)
    a.add_argument("--bench-warmup", dest="bench_warmup", type=int, default=20)
    _add_model_flags(a)
    _add_sched_flags(a)
    a.set_defaults(fn=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen-data" and args.count < 1:
        parser.error("--count must be >= 1")
    if args.command == "bench" and args.scenarios < 1:
        parser.error("--scenarios must be >= 1")
    # bench_latency's limits, checked before an ablation trains anything
    for dest, least in (("iterations", BENCH_MIN_ITERATIONS), ("warmup", BENCH_MIN_WARMUP),
                        ("bench_iterations", BENCH_MIN_ITERATIONS),
                        ("bench_warmup", BENCH_MIN_WARMUP)):
        if getattr(args, dest, least) < least:
            parser.error(f"--{dest.replace('_', '-')} must be >= {least}")
    used, ensemble = getattr(args, "snapshots_used", None), getattr(args, "ensemble", "off")
    if used is not None and used < 1:
        parser.error("--snapshots-used must be >= 1")
    if used is not None and ensemble == "off":
        parser.error("--snapshots-used needs --ensemble prediction_average or parameter_average")
    if ensemble != "off" and not args.checkpoints:
        parser.error("--ensemble needs --checkpoints")
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, inside the try
        return code
    except BrokenPipeError:
        # the reader is gone: send the rest to devnull so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CheckpointMismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CKPT_MISMATCH
    except NumericalError:  # a ValueError, but a fault of the program, not a usage error
        raise
    except (FormatError, OSError, ValueError, OutputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
