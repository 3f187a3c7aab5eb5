"""In-memory span tracer that wraps forexkit's public functions from outside.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces each traced
function with a timing wrapper wherever a loaded ``forexkit`` module binds
it, so ``from .data import load_csv`` in ``bench`` and ``predictor`` is
covered as well as ``data.load_csv``.  Spans are kept in memory and written
out by ``dump``; ``layer_metrics`` folds them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# Public functions traced per module.  Anything they call that is not listed
# here is part of their self time.
TRACED = {
    "data": ("load_csv", "build_supervised", "split", "fit_scaler", "apply_scaler",
             "scale_features", "scale_target", "unscale_target"),
    "mars": ("forward_pass", "backward_prune", "predict"),
    "cart": ("grow", "prune_sequence", "select_min_cost", "relative_error_curve",
             "predict", "node_id"),
    "scg": ("scg_train", "error", "gradient", "set_params", "forward"),
    "anfis": ("hybrid_train", "lse_consequents", "premise_step", "predict"),
    "hybrid": ("fit_hybrid", "augment", "predict"),
    "predictor": ("load_predictor", "predict_rates", "save_predictor"),
    "charts": ("line_chart",),
    "bench": ("run_bench", "run_experiment"),
}

# Row routing called from inside another cart function (subtree selection
# scores every pruned subtree with predict) stays in that caller's self time,
# so cart.predict / cart.node_id measure routing requested from outside cart.
OUTER_ONLY = {"cart.predict", "cart.node_id"}

SCALE_SPANS = ("data.fit_scaler", "data.apply_scaler", "data.scale_features",
               "data.scale_target", "data.unscale_target")
MODEL_OF_MODULE = {"mars": "mars", "cart": "cart", "hybrid": "hybrid",
                   "scg": "mlp", "anfis": "anfis"}

# Spans each workload must record in its measured phase; a zero count means a
# wrapper missed a binding and the traced run fails.
_FIT_COMMON = ("bench.run_bench", "bench.run_experiment", "charts.line_chart",
               "data.load_csv", "data.build_supervised", "data.split",
               "data.fit_scaler", "data.apply_scaler", "mars.forward_pass",
               "mars.backward_prune", "mars.predict", "cart.grow",
               "cart.prune_sequence", "cart.select_min_cost",
               "cart.relative_error_curve", "cart.predict", "cart.node_id",
               "hybrid.fit_hybrid", "hybrid.augment", "hybrid.predict")
EXPECTED = {
    "paper": _FIT_COMMON + ("scg.scg_train", "scg.error", "scg.gradient",
                            "scg.set_params", "scg.forward", "anfis.hybrid_train",
                            "anfis.lse_consequents", "anfis.premise_step",
                            "anfis.predict"),
    "long": _FIT_COMMON,
    "serve": ("data.load_csv", "data.build_supervised", "data.scale_features",
              "data.unscale_target", "predictor.load_predictor",
              "predictor.predict_rates", "mars.predict", "cart.predict",
              "cart.node_id", "hybrid.predict", "scg.forward", "anfis.predict"),
}
EXPECTED_SETUP = {"serve": ("predictor.save_predictor",)}


def _probe_counts(name: str, args, result, counts: Counter):
    """Counters read from a traced call's arguments and result."""
    if name == "mars.forward_pass":
        counts["mars.forward_bases"] += len(result.bases)
    elif name == "mars.backward_prune":
        counts["mars.kept_bases"] += len(result.bases)
    elif name == "cart.grow":
        counts["cart.leaves_max"] += result.n_leaves
    elif name == "cart.select_min_cost":
        counts["cart.leaves_selected"] += result.n_leaves
        counts["cart.leaves_offered"] += args[0].entries[0].tree.n_leaves
    elif name == "scg.scg_train":
        trace = result[1]
        counts["scg.iterations"] += len(trace) - 1
        # a rejected SCG step leaves the error unchanged
        counts["scg.rejected"] += sum(a == b for a, b in zip(trace, trace[1:]))
    elif name == "anfis.lse_consequents":
        counts["anfis.rank_deficient"] += int(result.rank_deficient)
    elif name == "bench.run_bench":
        paths = result[1]
        counts["bench.artifact_files"] += len(paths)
        counts["bench.artifact_bytes"] += sum(p.stat().st_size for p in paths)


class Tracer:
    """Spans are ``[name, start, end, parent index, group, phase]`` lists.

    ``group`` is the shared id of one cell (``currency/model``) or request;
    ``phase`` is ``"setup"`` or ``"run"``.  Counters are kept per phase.
    """

    def __init__(self):
        self.spans: list = []
        self.counts = {"setup": Counter(), "run": Counter()}
        self.phase = "setup"
        self.group = None
        self._stack: list = []
        self._saved: list = []  # (module, attribute, original) for uninstall

    def install(self):
        loaded = [m for key, m in sorted(sys.modules.items())
                  if key == "forexkit" or key.startswith("forexkit.")]
        for short, names in TRACED.items():
            module = sys.modules[f"forexkit.{short}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{short}.{name}", original)
                for holder in loaded:
                    for attr, value in vars(holder).items():
                        if value is original:
                            self._saved.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    def _enter(self, name: str, args):
        """Cell ids: a cell of run_experiment starts at its build_supervised
        (which names the currency); its first model span names the model."""
        parent = self.spans[self._stack[-1]][0] if self._stack else None
        if parent == "bench.run_bench":  # emitters belong to no cell
            self.group = None
        if parent != "bench.run_experiment":
            return
        if name == "data.build_supervised":
            self.group = [args[1].target, "?"]
        elif self.group is not None and self.group[1] == "?":
            model = MODEL_OF_MODULE.get(name.partition(".")[0])
            if model is not None:
                self.group[1] = model

    def _wrap(self, name: str, fn):
        module = name.partition(".")[0] + "."
        outer_only = name in OUTER_ONLY
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outer_only and stack and spans[stack[-1]][0].startswith(module):
                return fn(*args, **kwargs)
            self._enter(name, args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.group, self.phase]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            _probe_counts(name, args, result, self.counts[self.phase])
            return result

        return traced

    def summary(self, phase: str):
        """Per span name: (calls, summed self seconds, summed duration)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, total_s = Counter(), Counter(), Counter()
        for i, (name, start, end, _, _, span_phase) in enumerate(self.spans):
            if span_phase == phase:
                calls[name] += 1
                self_s[name] += end - start - child[i]
                total_s[name] += end - start
        return calls, self_s, total_s

    def missing(self, workload: str) -> list:
        """Expected spans that recorded no call."""
        out = []
        for phase, table in (("run", EXPECTED), ("setup", EXPECTED_SETUP)):
            calls = self.summary(phase)[0]
            out += [f"{phase}:{n}" for n in table.get(workload, ()) if calls[n] == 0]
        return out

    def dump(self, path):
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, group, phase in self.spans:
                gid = "/".join(group) if isinstance(group, list) else group
                fh.write(json.dumps([name, start, end, parent, gid, phase]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, batches: int, setups: int) -> dict:
    """Per-layer metrics, each per batch of the measured phase (a run_bench
    call, or 250 requests on serve), except save_predictor, which is per
    set-up: ``<span>.s`` (self seconds) and ``<span>.calls`` for every traced
    function, plus the counters and ratios.  Layers the workload never
    reaches read 0."""
    calls, self_s, total_s = tracer.summary("run")
    counts = tracer.counts["run"]
    setup_self = tracer.summary("setup")[1]
    per = lambda v: v / batches  # noqa: E731
    out = {}
    for short, names in TRACED.items():
        for name in (f"{short}.{n}" for n in names):
            out[f"{name}.s"] = per(self_s[name])
            out[f"{name}.calls"] = per(calls[name])
    out["data.scale.s"] = per(sum(self_s[n] for n in SCALE_SPANS))
    out["predictor.save_predictor.s"] = setup_self["predictor.save_predictor"] / setups
    out["bench.emit.s"] = per(total_s["bench.run_bench"] - total_s["bench.run_experiment"])
    for name in ("mars.forward_bases", "cart.leaves_max", "scg.iterations",
                 "anfis.rank_deficient", "bench.artifact_files", "bench.artifact_bytes"):
        out[name] = per(counts[name])
    out["mars.kept_ratio"] = _ratio(counts["mars.kept_bases"], counts["mars.forward_bases"])
    out["cart.leaves_kept_ratio"] = _ratio(counts["cart.leaves_selected"],
                                           counts["cart.leaves_offered"])
    out["scg.reject_ratio"] = _ratio(counts["scg.rejected"], counts["scg.iterations"])
    return out
