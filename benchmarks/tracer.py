"""Spans around the calls into each sparselab module, recorded from here.

`Tracer.install()` rebinds the program's public functions and layer
methods, wherever a sparselab module holds them, to wrappers that record
a span (name, start, end, parent) per call; `uninstall()` puts the
originals back. Spans stay in memory until `save()`. The program itself
is not edited: this is a traced run, separate from the timed one.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from sparselab import analysis, harness, models, nn, optim, prune

LAYERS = ("Affine", "Conv3x3", "Relu", "MeanPool2x2", "GlobalMeanPool", "Flatten")


def _affine_flops(layer, arr, factor):
    return factor * arr.shape[0] * layer.n_in * layer.n_out


def _conv_flops(layer, arr, factor):
    n, h, w = arr.shape[:3]
    return factor * n * h * w * 9 * layer.c_in * layer.c_out


# Multiply-add counts (2 flops each) of the matmuls a layer call performs:
# forward x@W; backward x.T@d and d@W.T.
_FLOPS = {"Affine": _affine_flops, "Conv3x3": _conv_flops}


class Tracer:
    def __init__(self):
        self.names = []                   # span name per name id
        self._ids = {}
        self.name = []                    # per span: name id
        self.start = []                   # per span: perf_counter_ns
        self.end = []
        self.parent = []                  # per span: index of parent, or -1
        self.batch = []                   # per span: B of the enclosing trial, 0 outside
        self.flops = []                   # per span: computed flop count, 0 if none
        self._stack = []
        self._trial_batch = 0
        self._patched = []                # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid, flops=0.0):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.batch.append(self._trial_batch)
        self.flops.append(flops)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap_function(self, fn, name):
        nid = self._id(name)
        opened, closed = self._open, self._close
        if fn is harness.run_trial:
            def wrapped(*args, **kwargs):
                point = args[1] if len(args) > 1 else kwargs["point"]
                outer, self._trial_batch = self._trial_batch, point.batch_size
                i = opened(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    closed(i)
                    self._trial_batch = outer
        else:
            def wrapped(*args, **kwargs):
                i = opened(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    closed(i)
        wrapped.__wrapped__ = fn
        return wrapped

    def _wrap_layer_method(self, fn, name, flops_of, factor):
        nid = self._id(name)
        opened, closed = self._open, self._close

        def wrapped(layer, arr, *args):
            i = opened(nid, flops_of(layer, arr, factor) if flops_of else 0.0)
            try:
                return fn(layer, arr, *args)
            finally:
                closed(i)
        wrapped.__wrapped__ = fn
        return wrapped

    # -- patching ----------------------------------------------------------

    def install(self):
        functions = {
            harness.run_trial: "harness.run_trial",
            harness.prune_at_init: "harness.prune_at_init",
            harness.resolve_dataset: "harness.resolve_dataset",
            harness.append_record: "harness.append_record",
            nn.batch_gradient: "nn.batch_gradient",
            nn.forward: "nn.forward",
            nn.backward: "nn.backward",
            nn.loss_and_error: "nn.loss_and_error",
            nn.full_gradient: "nn.full_gradient",
            optim.step: "optim.step",
            prune.connection_sensitivity: "prune.connection_sensitivity",
            prune.topk_mask: "prune.topk_mask",
            analysis.trace_smoothness: "analysis.trace_smoothness",
            analysis.estimate_lipschitz: "analysis.estimate_lipschitz",
            analysis.estimate_beta: "analysis.estimate_beta",
        }
        # a module that did `from .harness import run_trial` holds its own
        # binding, so every sparselab module's bindings are rebound
        wrappers = {id(fn): (fn, self._wrap_function(fn, name))
                    for fn, name in functions.items()}
        owners = [m for key, m in sorted(sys.modules.items())
                  if m is not None and (key == "sparselab" or key.startswith("sparselab."))]
        for module in owners:
            for attr, value in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    self._patch(module, attr, wrapper)
        for cls_name in LAYERS:
            cls = getattr(nn, cls_name)
            for method, factor in (("forward", 2), ("backward", 4)):
                fn = vars(cls)[method]
                self._patch(cls, method, self._wrap_layer_method(
                    fn, f"nn.{cls_name}.{method}", _FLOPS.get(cls_name), factor))
        self._patch(models.Model, "masked_param_views", self._wrap_function(
            models.Model.masked_param_views, "models.masked_param_views"))
        return self

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def arrays(self):
        return {
            "name": np.asarray(self.name, dtype=np.int32),
            "start_ns": np.asarray(self.start, dtype=np.int64),
            "end_ns": np.asarray(self.end, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "batch": np.asarray(self.batch, dtype=np.int64),
            "flops": np.asarray(self.flops, dtype=np.float64),
        }

    def save(self, path):
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def self_times(spans, names):
    """Per span name: calls, total and self time (ns). Self time is a span's
    duration minus the durations of its direct children."""
    dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
    parent = spans["parent"]
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
    own = dur - child_sum
    table = {}
    for nid, name in enumerate(names):
        sel = spans["name"] == nid
        if sel.any():
            table[name] = {"calls": int(sel.sum()), "total_ns": float(dur[sel].sum()),
                           "self_ns": float(own[sel].sum())}
    return table


def layer_metrics(spans, names, rounds: int, batch_sizes) -> dict:
    """The per-layer metrics, from the spans of `rounds` traced rounds.

    Per-call times are means over every traced call. Counts are per round.
    A layer that does not run on the workload reports 0.
    """
    ids = {n: i for i, n in enumerate(names)}
    name = spans["name"]
    parent = spans["parent"]
    batch = spans["batch"]
    dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)

    def sel(span_name):
        return name == ids.get(span_name, -1)

    def parent_is(mask_of_parents):
        p = np.where(parent >= 0, parent, 0)
        return (parent >= 0) & mask_of_parents[p]

    def mean(mask, scale):
        return float(dur[mask].mean() / scale) if mask.any() else 0.0

    trial = sel("harness.run_trial")
    train_bg = sel("nn.batch_gradient") & parent_is(trial)
    train_step = sel("optim.step") & parent_is(trial)
    eval_fwd = sel("nn.forward") & parent_is(trial)
    eval_loss = sel("nn.loss_and_error") & parent_is(trial)
    layer = np.zeros(len(name), dtype=bool)
    for cls_name in LAYERS:
        for method in ("forward", "backward"):
            layer |= sel(f"nn.{cls_name}.{method}")
    views = sel("models.masked_param_views")
    # layer calls and mask views sit under nn.forward/nn.backward, which sit
    # under the training step's nn.batch_gradient
    grand = np.where(parent >= 0, parent, 0)
    grand = np.where(parent >= 0, parent[grand], -1)
    in_train = (grand >= 0) & train_bg[np.where(grand >= 0, grand, 0)]

    m = {}
    m["harness.run_trial.ms"] = mean(trial, 1e6)
    trial_ns = dur[trial].sum()
    for b in batch_sizes:
        at_b = batch == b
        steps = int((train_bg & at_b).sum())
        step_ns = dur[train_bg & at_b].sum() + dur[train_step & at_b].sum()
        inner_ns = dur[(layer | views) & in_train & at_b].sum()
        m[f"harness.train_step.us.B{b}"] = step_ns / steps / 1e3 if steps else 0.0
        for op in ("forward", "backward", "loss_and_error"):
            m[f"nn.{op}.us.B{b}"] = mean(sel(f"nn.{op}") & parent_is(train_bg) & at_b, 1e3)
        m[f"nn.step.unattributed.us.B{b}"] = (
            (dur[train_bg & at_b].sum() - inner_ns) / steps / 1e3 if steps else 0.0)
    evals = int(eval_fwd.sum())
    eval_ns = dur[eval_fwd].sum() + dur[eval_loss].sum()
    m["harness.eval.ms"] = eval_ns / evals / 1e6 if evals else 0.0
    m["harness.eval.share"] = float(eval_ns / trial_ns) if trial_ns else 0.0
    pruned = sel("harness.prune_at_init")
    pruned &= np.isin(np.arange(len(name)), parent[sel("prune.connection_sensitivity")])
    m["harness.prune_at_init.ms"] = mean(pruned, 1e6)
    m["harness.append_record.us"] = mean(sel("harness.append_record"), 1e3)
    m["harness.trials"] = int(trial.sum()) / rounds
    m["harness.train_steps"] = int(train_bg.sum()) / rounds
    m["harness.eval_passes"] = evals / rounds

    for cls_name in ("Affine", "Conv3x3", "Relu", "MeanPool2x2", "GlobalMeanPool"):
        for method in ("forward", "backward"):
            m[f"nn.{cls_name}.{method}.us"] = mean(sel(f"nn.{cls_name}.{method}"), 1e3)
    for cls_name in _FLOPS:
        both = sel(f"nn.{cls_name}.forward") | sel(f"nn.{cls_name}.backward")
        secs = dur[both].sum() / 1e9
        m[f"nn.{cls_name}.gflops"] = float(spans["flops"][both].sum() / secs / 1e9) if secs else 0.0
    m["nn.full_gradient.ms"] = mean(sel("nn.full_gradient"), 1e6)
    m["nn.full_gradient.calls"] = int(sel("nn.full_gradient").sum()) / rounds
    m["nn.batch_gradient.calls"] = int(sel("nn.batch_gradient").sum()) / rounds
    m["models.masked_param_views.us"] = mean(views, 1e3)
    m["models.masked_param_views.calls"] = int(views.sum()) / rounds
    m["optim.step.us"] = mean(sel("optim.step"), 1e3)
    m["prune.connection_sensitivity.ms"] = mean(sel("prune.connection_sensitivity"), 1e6)
    m["prune.topk_mask.ms"] = mean(sel("prune.topk_mask"), 1e6)
    m["analysis.estimate_lipschitz.ms"] = mean(sel("analysis.estimate_lipschitz"), 1e6)
    m["analysis.estimate_beta.s"] = mean(sel("analysis.estimate_beta"), 1e9)
    m["bench.spans"] = len(name) / rounds
    return m

