"""Timing wrappers that the benchmark installs on wl2gnn from outside.

Every wrapper replaces a name at the place where the program looks it
up (a module attribute, or an entry of `tensor.ACTIVATIONS`), so the
package itself is unchanged. `Patches` restores every replaced name.

Two kinds of wrapper exist:

- `Probes` are always on during the timed phase. They observe what the
  end-to-end metrics need and the program does not return: round,
  training step and evaluation boundaries, every loss value and the last
  trained model. Each costs a clock read or two per call.
- `Tracer` is on only in the traced run. It records one span (name,
  start, end, parent) per call into the public functions of `graphs`,
  `encoding`, `tensor`, `layers` and `bench`, plus one span per node
  backward, and keeps computed counts (bytes, flops, draws) next to
  them. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict

clock = time.perf_counter


class Patches:
    """Replaces attributes or dict entries; `restore` undoes them in
    reverse order, so wrappers stacked on one name unwind cleanly."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, name, make):
        """Replaces `owner.name` (or `owner[name]`) with `make(original)`."""
        if isinstance(owner, dict):
            original = owner[name]
            owner[name] = make(original)
            self._undo.append(lambda: owner.__setitem__(name, original))
        else:
            original = getattr(owner, name)
            setattr(owner, name, make(original))
            self._undo.append(lambda: setattr(owner, name, original))

    def restore(self):
        while self._undo:
            self._undo.pop()()


# ---------------------------------------------------------------------------
# probes for end-to-end quantities


class Probes:
    """Round, step and evaluation boundaries, losses, `train_model` times
    and the last trained model, observed from outside `train_model` and
    `run_cv`.

    Each boundary is a mark, a clock read appended to the round's list;
    the time between two marks is a slice. Rounds repeat the same work,
    so slice k of one round does what slice k of any other does. With
    `fine`, every tensor op and every node backward also marks, which
    cuts long steps into short slices; it costs a clock
    read and a closure per op, so it is meant for workloads whose ops
    take milliseconds, not microseconds.

    A training step runs from the `combine_units` call that builds its
    batch to the return of the `adam_step` that ends it; evaluation
    calls `combine_units` too, but never `adam_step`, so only training
    batches close a step.
    """

    def __init__(self, fine=False):
        self.fine = fine
        self.losses = 0
        self.nonfinite = 0
        self.rounds = []
        self.last_train = None
        self._step_start = None
        self._rows = 0
        self._marks = None

    def mark(self):
        """Appends a clock read to the round's marks and returns its
        index; outside a round (in a set-up) it does nothing."""
        if self._marks is None:
            return None
        self._marks.append(clock())
        return len(self._marks) - 1

    def start_round(self):
        """Later marks belong to a new round; returns its start time."""
        self.rounds.append({"marks": [], "steps": [], "step_graphs": [],
                            "evals": [], "eval_graphs": [], "train": []})
        self._marks, self._step_start = self.rounds[-1]["marks"], None
        return self._marks[self.mark()]

    def end_round(self):
        """Marks the end of the round; returns its time."""
        marks = self._marks
        self.mark()
        self._marks = None
        return marks[-1] - marks[0]

    def durations(self, rnd, key):
        """Wall time of each step (`steps`) or evaluation (`evals`)."""
        marks = rnd["marks"]
        return [marks[end] - marks[start] for start, end in rnd[key]]

    def install(self, patches, wl2):
        bench, layers, tensor = wl2.bench, wl2.layers, wl2.tensor

        def combine(fn):
            def probe(*args, **kwargs):
                self._step_start = self.mark()
                return fn(*args, **kwargs)
            return probe

        def bce(fn):
            def probe(logits, targets):
                out = fn(logits, targets)
                self.losses += 1
                if not math.isfinite(float(out.data[0, 0])):
                    self.nonfinite += 1
                self._rows = logits.shape[0]
                return out
            return probe

        def adam(fn):
            def probe(*args, **kwargs):
                out = fn(*args, **kwargs)
                if self._step_start is not None:
                    end = self.mark()
                    self.rounds[-1]["steps"].append((self._step_start, end))
                    self.rounds[-1]["step_graphs"].append(self._rows)
                    self._step_start = None
                return out
            return probe

        def evaluate(fn):
            def probe(spec, params, units, labels, *args, **kwargs):
                start = self.mark()
                out = fn(spec, params, units, labels, *args, **kwargs)
                if start is not None:
                    self.rounds[-1]["evals"].append((start, self.mark()))
                    self.rounds[-1]["eval_graphs"].append(len(units))
                if not math.isfinite(out[0]):
                    self.nonfinite += 1
                return out
            return probe

        def train(fn):
            def probe(spec, units, labels, *args, **kwargs):
                start = clock()
                out = fn(spec, units, labels, *args, **kwargs)
                self.rounds[-1]["train"].append(
                    (spec.layer, len(units) * out.epochs, clock() - start))
                self.last_train = (spec, out, units, labels)
                return out
            return probe

        def op(fn):
            def marked_backward(backward):
                def probe(g):
                    self.mark()
                    return backward(g)
                return probe

            def probe(*args, **kwargs):
                self.mark()
                out = fn(*args, **kwargs)
                if out._backward is not None:
                    out._backward = marked_backward(out._backward)
                return out
            return probe

        patches.wrap(bench, "combine_units", combine)
        patches.wrap(layers, "combine_units", combine)
        patches.wrap(tensor, "bce", bce)
        patches.wrap(tensor, "adam_step", adam)
        patches.wrap(bench, "evaluate_model", evaluate)
        patches.wrap(bench, "train_model", train)
        if self.fine:
            for name in TENSOR_OPS:
                patches.wrap(tensor, name, op)
            for name in ACTIVATION_OPS:
                patches.wrap(tensor.ACTIVATIONS, name, op)


# ---------------------------------------------------------------------------
# spans


def _gather_bytes(args, out):
    # computed, not measured: rows read plus rows written, plus indices
    idx = args[1]
    return {"bytes": 2 * out.data.nbytes + 8 * len(idx)}


def _scatter_bytes(args, out):
    x, idx = args[0], args[1]
    return {"bytes": x.data.nbytes + out.data.nbytes + 8 * len(idx)}


def _matmul_flops(args, out):
    a, b = args
    return {"flops": 2 * a.shape[0] * a.shape[1] * b.shape[1]}


def _matmul_bwd_flops(args):
    a, b = args
    per_parent = 2 * a.shape[0] * a.shape[1] * b.shape[1]
    return {"flops": per_parent * (a.requires_grad + b.requires_grad)}


# tensor ops with a backward closure: name -> (forward count, backward count)
TENSOR_OPS = {
    "matmul": (_matmul_flops, _matmul_bwd_flops),
    "gather": (_gather_bytes, None),
    "scatter_sum": (_scatter_bytes, None),
    "add": (None, None),
    "hadamard": (None, None),
    "scale": (None, None),
    "segment_min": (None, None),
    "exp": (None, None),
    "reciprocal": (None, None),
    "sum_all": (None, None),
    "bce": (None, None),
}
ACTIVATION_OPS = ("relu", "logistic")


class Tracer:
    """In-memory spans, tagged with the phase (`setup` or `timed`) in
    which they started, and counts keyed by (phase, name)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, phase]
        self.counts = defaultdict(float)
        self.phase = "setup"
        self._stack = []

    def count(self, key, value=1):
        self.counts[(self.phase, key)] += value

    def span(self, name, fn):
        spans, stack = self.spans, self._stack

        def timed(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return timed

    def op(self, name, fn, fwd_count=None, bwd_count=None):
        """Spans the forward call as `<name>.fwd` and the returned node's
        backward closure as `<name>.bwd`."""
        fwd = self.span(f"{name}.fwd", fn)
        bwd_name = f"{name}.bwd"

        def traced(*args, **kwargs):
            out = fwd(*args, **kwargs)
            self.count(f"{name}.calls")
            if fwd_count is not None:
                for key, value in fwd_count(args, out).items():
                    self.count(f"{name}.{key}", value)
            if out._backward is not None:
                inner = self.span(bwd_name, out._backward)
                if bwd_count is None:
                    out._backward = inner
                else:
                    def backward(g):
                        for key, value in bwd_count(args).items():
                            self.count(f"{name}.{key}", value)
                        inner(g)
                    out._backward = backward
            return out
        return traced

    def install(self, patches, wl2):
        bench, encoding, graphs, layers, tensor = (
            wl2.bench, wl2.encoding, wl2.graphs, wl2.layers, wl2.tensor)

        for op, (fwd_count, bwd_count) in TENSOR_OPS.items():
            patches.wrap(tensor, op, lambda fn, op=op, f=fwd_count, b=bwd_count:
                         self.op(f"tensor.{op}", fn, f, b))
        for op in ACTIVATION_OPS:
            patches.wrap(tensor.ACTIVATIONS, op,
                         lambda fn, op=op: self.op(f"tensor.{op}", fn))
        for fn_name in ("backward", "adam_step", "zero_grads"):
            patches.wrap(tensor, fn_name, lambda fn, n=fn_name:
                         self.span(f"tensor.{n}", fn))

        def encode(fn):
            timed = self.span("encoding.encode", fn)

            def traced(*args, **kwargs):
                enc = timed(*args, **kwargs)
                self.count("encoding.rows", enc.m)
                self.count("encoding.triples", enc.gamma)
                return enc
            return traced

        def train(fn):
            timed = self.span("bench.train_model", fn)

            def traced(*args, **kwargs):
                trained = timed(*args, **kwargs)
                self.count("bench.epochs", trained.epochs)
                return trained
            return traced

        def sample(fn):
            def counted(*args, **kwargs):
                g = fn(*args, **kwargs)
                self.count("graphs.triangle_draws")
                self.count("graphs.triangle_kept", g is not None)
                return g
            return counted

        # name -> places it is looked up
        sites = {
            "layers.wl2_conv": [(layers, "wl2_conv")],
            "layers.pool_segments": [(layers, "pool_segments")],
            "layers.forward_model": [(layers, "forward_model"),
                                     (bench, "forward_model")],
            "layers.combine_units": [(layers, "combine_units"),
                                     (bench, "combine_units")],
            "layers.prepare_units": [(layers, "prepare_units"),
                                     (bench, "prepare_units")],
            "layers.init_model_params": [(layers, "init_model_params"),
                                         (bench, "init_model_params")],
            "encoding.combine_encodings": [(layers, "combine_encodings")],
            "graphs.graph_power": [(encoding, "graph_power")],
            "graphs.edge_neighborhood_graph": [(layers,
                                                "edge_neighborhood_graph")],
            "graphs.generate_triangle_dataset": [(graphs,
                                                  "generate_triangle_dataset")],
            "bench.run_cv": [(bench, "run_cv")],
            "bench.evaluate_model": [(bench, "evaluate_model")],
        }
        for name, places in sites.items():
            for owner, attr in places:
                patches.wrap(owner, attr, lambda fn, n=name: self.span(n, fn))
        patches.wrap(layers, "encode", encode)
        patches.wrap(bench, "train_model", train)
        patches.wrap(graphs, "_sample_triangle_graph", sample)

    # -- summaries ---------------------------------------------------------

    def self_times(self):
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c
                for (_, start, end, _, _), c in zip(self.spans, child)]

    def table(self, per_phase):
        """Per span name: `s` (inclusive), `self_s` and `calls`, each
        phase's total divided by `per_phase[phase]` and summed."""
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0.0})
        for (name, start, end, _, phase), own in zip(self.spans,
                                                     self.self_times()):
            row, k = out[name], per_phase[phase]
            row["s"] += (end - start) / k
            row["self_s"] += own / k
            row["calls"] += 1 / k
        counts = defaultdict(float)
        for (phase, key), value in self.counts.items():
            counts[key] += value / per_phase[phase]
        return dict(out), dict(counts)

    def nested_share(self, inner, outer):
        """Time in `inner` spans called under an `outer` span, over the
        time in `outer` spans."""
        spans = self.spans
        total = sum(end - start for name, start, end, _, _ in spans
                    if name == outer)
        nested = 0.0
        for name, start, end, parent, _ in spans:
            if name != inner:
                continue
            while parent >= 0 and spans[parent][0] != outer:
                parent = spans[parent][3]
            if parent >= 0:
                nested += end - start
        return nested / total if total else 0.0

    def coverage(self, phase, wall, exclude):
        """Share of `wall` that the self times of the spans of `phase`
        account for, leaving out spans whose name starts with `exclude`."""
        covered = sum(own for (name, _, _, _, p), own in
                      zip(self.spans, self.self_times())
                      if p == phase and not name.startswith(exclude))
        return covered / wall

    def dump(self, path):
        """Writes spans as [name, start, end, parent, phase] rows."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "phase"],
                       "spans": self.spans}, fh, separators=(",", ":"))
