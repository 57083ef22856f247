"""The benchmark's workloads: inputs made from a seed, one timed round,
and the output checks that run after the timed phase.

Every call into wl2gnn goes through a module attribute (`bench.run_cv`,
`layers.forward_model`, ...), so the wrappers in `spans.py` see it.
Each workload is a single-process closed loop: the next round starts
only after the previous one has returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wl2gnn import bench, graphs, layers, tensor

# criterion 5's tolerance for the sparse convolution against the dense oracle
ORACLE_TOL = 1e-12
# criterion 9's triangle grid, cut to the sizes a run can repeat
TRIANGLE_VERTEX_COUNTS = (8, 10, 12, 14)
SAMPLES_PER_CELL = 6
# the CLI's default grid at the triangle radius
TRIANGLE_CV_SPEC = "layer=wl2,T=3,d=32,r=2,pool=mean,act=logistic,lr=0.001"
VERTEX_FAMILIES = ("gin", "gnn2", "baseline")


def _fingerprint(gs, labels):
    return hash((tuple((g.n, g.edges) for g in gs), tuple(labels.tolist())))


def _oracle_diff(spec, units, gs, idx, seed):
    """Largest |wl2_conv - wl2_conv_naive| over every layer of a freshly
    initialised model, on the graphs at `idx`. Each layer gets the sparse
    output of the previous one, so errors do not compound."""
    params = layers.init_model_params(spec, units[0].width, seed)
    worst = 0.0
    for i in idx:
        enc, power = units[i], graphs.graph_power(gs[i], spec.r)
        z = enc.z0
        for conv in params.convs:
            fast = layers.wl2_conv(enc, tensor.constant(z), conv).data
            slow = layers.wl2_conv_naive(power, z, conv)
            worst = max(worst, float(np.max(np.abs(fast - slow))))
            z = fast
    return worst


def _sizes(units, spec):
    batch = layers.combine_units(spec, units)
    enc = batch.enc if spec.layer == "gnn2" else batch
    if spec.layer in ("wl2", "gnn2"):
        return {"graphs": len(units), "m": enc.m, "gamma": enc.gamma,
                "gamma_per_m": enc.gamma / enc.m}
    return {"graphs": len(units), "vertices": batch.n,
            "edges": len(batch.src) // 2}


def _vertex_spec(family):
    return layers.ModelSpec(layer=family, t=3, d=32, r=1, pool="mean",
                            act="relu", lr=1e-2)


@dataclass
class TriangleCv:
    """`bench.run_cv` on criterion 9's triangle data, with the CLI's
    default spec at the triangle radius. One round is one `run_cv` call."""

    name = "triangle-cv"
    # its 2.5-second rounds repeat only about ten times in a run, so their
    # steps are cut at every op, which take about a millisecond here
    fine_slices = True
    # triangle generation takes most of a run, so it is repeated only
    # twice and not warmed up
    warmup = 0
    vertex_counts: tuple = TRIANGLE_VERTEX_COUNTS
    samples_per_cell: int = SAMPLES_PER_CELL
    folds: int = 3
    epochs: int = 1
    oracle_graphs: int = 3
    setups: int = 2

    def setup(self, seed):
        config = graphs.TriangleConfig(vertex_counts=self.vertex_counts,
                                       samples_per_cell=self.samples_per_cell)
        gs, labels, _ = graphs.generate_triangle_dataset(seed, config)
        spec = layers.parse_model_spec(TRIANGLE_CV_SPEC)
        train = bench.TrainConfig(epochs=self.epochs, patience=self.epochs,
                                  batch_size=32, folds=self.folds, repeats=1,
                                  workers=1, seed=seed)
        return {"graphs": gs, "labels": labels, "spec": spec, "train": train,
                "seed": seed, "fingerprint": _fingerprint(gs, labels)}

    def round(self, state):
        rows = bench.run_cv(state["graphs"], state["labels"], [state["spec"]],
                            state["train"], dataset="TRIANGLE")
        return [(r.fold, r.repeat, r.train_acc, r.test_acc) for r in rows]

    def checks(self, state, outputs, probes, fingerprints):
        spec, gs, labels = state["spec"], state["graphs"], state["labels"]
        units = layers.prepare_units(spec, gs)
        idx = np.random.default_rng([state["seed"], 5]).choice(
            len(gs), size=min(self.oracle_graphs, len(gs)), replace=False)
        diff = _oracle_diff(spec, units, gs, idx, state["seed"])
        first = outputs[0]
        accs = [a for row in first for a in row[2:]]
        spec_t, trained, t_units, t_labels = probes.last_train
        loss, _ = bench.evaluate_model(spec_t, trained.params, t_units, t_labels)
        checks = {
            "oracle_max_abs_diff": (diff <= ORACLE_TOL, diff),
            "cv_rows": (len(first) == self.folds, len(first)),
            "accuracy_in_unit_interval": (all(0.0 <= a <= 1.0 for a in accs),
                                          min(accs)),
            "cv_repeatable": (all(r == first for r in outputs), len(outputs)),
            "generation_repeatable": (len(set(fingerprints)) == 1,
                                      len(fingerprints)),
            "both_classes": (set(labels.tolist()) == {0, 1}, len(gs)),
        }
        return checks, _sizes(units, spec), float(loss)


@dataclass
class TriangleVertexModels:
    """`bench.train_model` for the comparison families on the
    density-0.25 triangle data, where every cell fills before its draws
    run out. One round trains a model of each family for a fixed number
    of epochs, then evaluates it on its training graphs."""

    name = "triangle-vertex-models"
    # steps take a few milliseconds, and ops microseconds, where a mark
    # per op would add a share of its own
    fine_slices = False
    warmup = 1
    vertex_counts: tuple = TRIANGLE_VERTEX_COUNTS
    epochs: int = 5
    setups: int = 25

    def setup(self, seed):
        config = graphs.TriangleConfig(vertex_counts=self.vertex_counts,
                                       samples_per_cell=SAMPLES_PER_CELL,
                                       densities=(0.25,))
        gs, labels, _ = graphs.generate_triangle_dataset(seed, config)
        units = {f: layers.prepare_units(_vertex_spec(f), gs)
                 for f in VERTEX_FAMILIES}
        train = bench.TrainConfig(epochs=self.epochs, patience=self.epochs,
                                  batch_size=32)
        return {"graphs": gs, "labels": labels, "units": units, "seed": seed,
                "train": train, "fingerprint": _fingerprint(gs, labels)}

    def round(self, state):
        labels, evals = state["labels"], {}
        for family in VERTEX_FAMILIES:
            spec, units = _vertex_spec(family), state["units"][family]
            trained = bench.train_model(spec, units, labels, state["train"],
                                        seed=state["seed"])
            evals[family] = bench.evaluate_model(spec, trained.params, units,
                                                 labels)
        return evals

    def checks(self, state, outputs, probes, fingerprints):
        evals = [e for out in outputs for e in out.values()]
        checks = {
            "eval_in_range": (all(np.isfinite(l) and 0.0 <= a <= 1.0
                                  for l, a in evals), len(evals)),
            "training_repeatable": (all(out == outputs[0] for out in outputs),
                                    len(outputs)),
            "generation_repeatable": (len(set(fingerprints)) == 1,
                                      len(fingerprints)),
            "both_classes": (set(state["labels"].tolist()) == {0, 1},
                             len(state["graphs"])),
        }
        sizes = {f: _sizes(state["units"][f], _vertex_spec(f))
                 for f in VERTEX_FAMILIES}
        return checks, sizes, {f: float(outputs[-1][f][0])
                               for f in VERTEX_FAMILIES}


WORKLOADS = {w.name: w for w in (TriangleCv(), TriangleVertexModels())}
