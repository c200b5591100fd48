"""In-memory spans around dyttp's public functions, for the traced benchmark run.

A span records a name, start and end (perf_counter_ns), the index of the
span that was open when it started (its parent, -1 for none) and the id of
the benchmark request it belongs to (-1 during set-up, -2 during warm-up).
Spans are kept in memory while the run lasts and written once, when it ends.

`Tracer.install` wraps the public functions and methods the timed operations
reach: every op kind in `dyttp.tensor`, the `dyttp.layers` modules, the six
`TrajectoryPredictor` stages and forward, and the training and evaluation
entry points. Set-up calls into `data` and `cli` are wrapped where the
benchmark makes them. Nothing inside the library is edited, and
`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# Op kinds with a metric of their own: those some workload runs today. Every
# other op function in dyttp.tensor is traced too and counts in the totals.
OP_KINDS = (
    "add", "sub", "mul", "div", "neg", "tanh", "log", "abs_", "softplus",
    "clamp_min", "mask_fill", "matmul", "transpose", "reshape", "getitem",
    "stack", "sum_", "mean", "softmax",
)
NOT_OPS = {"backward", "grad_check", "elementwise", "reduce"}  # dispatchers and drivers


def op_kinds(tensor_module) -> list:
    """Every op function dyttp.tensor exports."""
    return [n for n in tensor_module.__all__
            if n not in NOT_OPS and callable(getattr(tensor_module, n))
            and not isinstance(getattr(tensor_module, n), type)]


BACKBONE_STAGES = (
    ("embed_inputs", "backbone.embed"),
    ("stage_agent_agent", "backbone.agent_agent"),
    ("stage_temporal", "backbone.temporal"),
    ("stage_agent_lane", "backbone.agent_lane"),
    ("stage_global", "backbone.global"),
    ("decode", "backbone.decode"),
)


class Tracer:
    """Span recorder: wrappers append packed enter/exit events to one array.

    An event is `(value << 7) | code`: code 1..126 enters the span named
    names[code - 1] at time value, code 0 leaves the innermost open span at
    time value, and code 127 starts request `value - 2`. Two appends of a
    machine integer per call keep the tracing overhead low; `spans()`
    rebuilds the span table from the events once the run is over.
    """

    _ENTER_MAX = 126
    _REQUEST = 127

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.events = array("q")
        self._patches: list[tuple] = []
        self._table = None

    def begin_request(self, request_id: int):
        """Spans from here on belong to request_id (-1 set-up, -2 warm-up)."""
        self.events.append(((request_id + 2) << 7) | self._REQUEST)

    def wrap(self, name: str, fn):
        """fn with a span named `name` around every call."""
        if name not in self._ids:
            if len(self.names) == self._ENTER_MAX:
                raise ValueError("too many span names")
            self._ids[name] = len(self.names)
            self.names.append(name)
        code = self._ids[name] + 1
        clock = time.perf_counter_ns
        append = self.events.append

        def traced(*args, **kwargs):
            append((clock() << 7) | code)
            try:
                return fn(*args, **kwargs)
            finally:
                append(clock() << 7)

        return traced

    def _patch(self, owner, attr: str, name: str):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self, dyttp):
        """Wrap the library's public entry points; undo with uninstall()."""
        T, layers, backbone = dyttp.tensor, dyttp.layers, dyttp.backbone
        for kind in op_kinds(T):
            self._patch(T, kind, f"tensor.{kind}")
        self._patch(T, "backward", "tensor.backward")
        self._patch(layers.Linear, "__call__", "layers.linear")
        self._patch(layers.MultiHeadAttention, "__call__", "layers.attention")
        self._patch(layers.FeedForward, "__call__", "layers.feedforward")
        self._patch(layers.DynamicTanh, "__call__", "layers.norm")
        self._patch(layers.LayerNorm, "__call__", "layers.norm")
        self._patch(layers.TransformerBlock, "__call__", "layers.block")
        for method, name in BACKBONE_STAGES:
            self._patch(backbone.TrajectoryPredictor, method, name)
        self._patch(backbone.TrajectoryPredictor, "forward", "backbone.forward")
        self._patch(dyttp.training, "total_loss", "training.total_loss")
        self._patch(dyttp.training.AdamW, "step", "training.adamw")
        self._patch(dyttp.evaluation, "evaluate_model", "evaluation.evaluate_model")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict:
        """The span table: name id, parent index (-1 for none), request, start and end."""
        if self._table is None:
            ev = np.frombuffer(self.events, dtype=np.int64)
            name, parent, request, start, end = [], [], [], [], []
            open_, req = [], -1
            for code, value in zip((ev & 127).tolist(), (ev >> 7).tolist()):
                if code == self._REQUEST:
                    req = value - 2
                elif code:
                    open_.append(len(name))
                    parent.append(open_[-2] if len(open_) > 1 else -1)
                    name.append(code - 1)
                    request.append(req)
                    start.append(value)
                    end.append(value)
                else:
                    end[open_.pop()] = value
            self._table = {
                "names": np.array(self.names),
                "name": np.array(name, dtype=np.uint8),
                "parent": np.array(parent, dtype=np.int32),
                "request": np.array(request, dtype=np.int32),
                "start_ns": np.array(start, dtype=np.int64),
                "end_ns": np.array(end, dtype=np.int64),
            }
        return self._table

    def write(self, path):
        np.savez(path, **self.spans())

    def totals(self, first_request: int, last_request: int | None = None) -> dict:
        """{span name: (calls, inclusive ns, self ns)} over a range of request ids.

        Self time is the span's duration minus the durations of its direct
        children; spans nest strictly because the benchmark is one thread.
        Set-up spans carry request -1 and warm-up spans -2.
        """
        a = self.spans()
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        keep = a["request"] >= first_request
        if last_request is not None:
            keep &= a["request"] <= last_request
        out = {}
        for nid, name in enumerate(self.names):
            sel = keep & (a["name"] == nid)
            out[name] = (int(sel.sum()), int(dur[sel].sum()), int(own[sel].sum()))
        return out
