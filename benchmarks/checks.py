"""Output checks against computations written here, not taken from sparselab.

* Studies: each cell's K* is the least steps_to_goal of its complete
  records. The cell's best trial is replayed through `run_trial`'s
  step_hook; a plain numpy forward of the parameters at K* must reach the
  goal and the parameters one evaluation earlier must not. The kept count
  is m - floor(s*m) and every masked coordinate is zero.
* Traces: per-example MLP gradients (x_i delta_i^T, masked) must average
  to `nn.full_gradient` and their mean squared deviation must equal
  `estimate_beta`; a sampled Lipschitz estimate must equal the largest
  difference quotient over the gamma grid, recomputed from these gradients.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from sparselab import nn
from sparselab.harness import prune_at_init, resolve_dataset, run_trial, StudyPoint
from sparselab.models import build_model

BETA_RTOL = 1e-9
GRAD_RTOL = 1e-9
LIPSCHITZ_RTOL = 1e-7
GAMMAS = 10                       # estimate_lipschitz's default delta = 0.1
CHUNK = 256


class Checks:
    """Counts checks attempted and keeps a message for each that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# ---------------------------------------------------------------------------
# A plain numpy model, read from the flat parameter vector
# ---------------------------------------------------------------------------

def layer_shapes(spec):
    """(weight shape, bias length) of each parametrised layer, in the order
    they sit in the flat parameter vector (weight, then bias)."""
    if spec.arch == "simple-mlp":
        dims = [int(np.prod(spec.input_shape)), *spec.widths, spec.classes]
        return [((a, b), b) for a, b in zip(dims[:-1], dims[1:])]
    c1, c2 = spec.widths
    return [((3, 3, spec.input_shape[2], c1), c1), ((3, 3, c1, c2), c2),
            ((c2, spec.classes), spec.classes)]


def param_count(spec) -> int:
    return sum(int(np.prod(w)) + b for w, b in layer_shapes(spec))


def unpack(spec, flat):
    out, offset = [], 0
    for wshape, nb in layer_shapes(spec):
        size = int(np.prod(wshape))
        out.append((flat[offset:offset + size].reshape(wshape),
                    flat[offset + size:offset + size + nb]))
        offset += size + nb
    if offset != flat.size:
        raise ValueError(f"{flat.size} parameters, layout needs {offset}")
    return out


def conv3x3(x, kernel, bias):
    """Zero-padded 'same' 3x3 correlation, channels last, by shifted sums."""
    n, h, w, _ = x.shape
    padded = np.zeros((n, h + 2, w + 2, x.shape[3]))
    padded[:, 1:h + 1, 1:w + 1, :] = x
    y = np.zeros((n, h, w, kernel.shape[3])) + bias
    for i in range(3):
        for j in range(3):
            y += np.tensordot(padded[:, i:i + h, j:j + w, :], kernel[i, j], axes=1)
    return y


def logits(spec, params, mask, x):
    layers = unpack(spec, params * mask)
    if spec.arch == "simple-mlp":
        h = x.reshape(len(x), -1)
        for i, (w, b) in enumerate(layers):
            h = h @ w + b
            if i < len(layers) - 1:
                h = np.maximum(h, 0.0)
        return h
    (k1, b1), (k2, b2), (w, b) = layers
    h = np.maximum(conv3x3(x.reshape(len(x), *spec.input_shape), k1, b1), 0.0)
    h = (h[:, 0::2, 0::2] + h[:, 1::2, 0::2] + h[:, 0::2, 1::2] + h[:, 1::2, 1::2]) / 4.0
    h = np.maximum(conv3x3(h, k2, b2), 0.0)
    h = h.sum(axis=(1, 2)) / (h.shape[1] * h.shape[2])
    return h @ w + b


def error_rate(spec, params, mask, x, y) -> float:
    return float(np.mean(np.argmax(logits(spec, params, mask, x), axis=1) != y))


def mlp_backprop(spec, params, mask, x, y):
    """Per layer: (input activation a, output delta d, weight mask, bias mask)
    of the per-example cross-entropy loss. Example i's gradient for a layer
    is mask * outer(a_i, d_i) for the weight and bias_mask * d_i for the bias."""
    layers = unpack(spec, params * mask)
    masks = unpack(spec, mask)
    acts, pre = [x.reshape(len(x), -1)], []
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        pre.append(z)
        acts.append(np.maximum(z, 0.0) if i < len(layers) - 1 else z)
    z = acts[-1]
    p = np.exp(z - z.max(axis=1, keepdims=True))
    d = p / p.sum(axis=1, keepdims=True)
    d[np.arange(len(y)), y] -= 1.0
    out = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        out[i] = (acts[i], d, masks[i][0], masks[i][1])
        if i:
            d = (d @ layers[i][0].T) * (pre[i - 1] > 0.0)
    return out


def mlp_mean_gradient(spec, params, mask, x, y):
    """The mean of the per-example gradients, as sum_i outer(a_i, d_i) / n."""
    n = len(y)
    parts = []
    for a, d, wmask, bmask in mlp_backprop(spec, params, mask, x, y):
        parts += [((a.T @ d) * wmask).ravel() / n, d.sum(axis=0) * bmask / n]
    return np.concatenate(parts)


def mlp_gradient_moments(spec, params, mask, x, y):
    """(mean gradient, mean squared norm) over explicit per-example gradients."""
    total = np.zeros(param_count(spec))
    sq = 0.0
    for start in range(0, len(y), CHUNK):
        sl = slice(start, start + CHUNK)
        rows = []
        for a, d, wmask, bmask in mlp_backprop(spec, params, mask, x[sl], y[sl]):
            g_w = np.einsum("ni,nj->nij", a, d) * wmask
            rows += [g_w.reshape(len(a), -1), d * bmask]
        g = np.concatenate(rows, axis=1)
        total += g.sum(axis=0)
        sq += float(np.einsum("nm,nm->", g, g))
    return total / len(y), sq / len(y)


# ---------------------------------------------------------------------------
# Replays through run_trial's step_hook
# ---------------------------------------------------------------------------

class _Enough(Exception):
    """Raised from a step hook once every wanted step is captured."""


def capture(workload, point, metaparams, seed, trial_index, data_root, steps,
            stop_after=None):
    """Run the trial again, copying (params, mask) after each step in
    `steps`. Returns (record or None if stopped early, {step: (p, mask)})."""
    got = {}

    def hook(model, k):
        if k in steps:
            got[k] = (model.params.copy(), model.mask.copy())
        if stop_after is not None and k >= stop_after:
            raise _Enough

    try:
        record = run_trial(workload, point, metaparams, seed, trial_index,
                           data_root, step_hook=hook)
    except _Enough:
        record = None
    return record, got


def check_mask(checks, where, spec, sparsity, params, mask):
    m = param_count(spec)
    checks.expect(mask.size == m and int(mask.sum()) == m - math.floor(sparsity * m),
                  f"{where}: kept {int(mask.sum())} of {mask.size}, "
                  f"want {m - math.floor(sparsity * m)} of {m}")
    checks.expect(not np.any(params[mask == 0.0]),
                  f"{where}: {int(np.count_nonzero(params[mask == 0.0]))} masked weights are non-zero")


def check_study(checks, cfg, table, records):
    wl = cfg.workload
    spec = wl.model_spec
    _, val = resolve_dataset(wl, cfg.data_root)
    ei = wl.eval_interval
    for s in cfg.sparsities:
        for b in cfg.batch_sizes:
            where = f"{wl.id} B={b} s={s}"
            cell = [r for r in records if r.batch_size == b and r.sparsity == s]
            complete = [r for r in cell if r.status == "complete"]
            k_star = min((r.steps_to_goal for r in complete), default=None)
            checks.expect(table.cell(b, s).k_star == k_star,
                          f"{where}: table K*={table.cell(b, s).k_star}, records give {k_star}")
            if complete:
                best = min((r for r in complete if r.steps_to_goal == k_star),
                           key=lambda r: r.trial_key)
                wanted = {k_star, k_star - ei} - {0}
                replay, got = capture(wl, StudyPoint(b, s), best.metaparams, best.seed,
                                      best.trial_index, cfg.data_root, wanted)
                checks.expect(replay is not None and replay.to_json() == best.to_json(),
                              f"{where}: replay of trial {best.trial_key} differs from its record")
            else:
                best = min(cell, key=lambda r: r.trial_index)
                wanted = {ei}
                _, got = capture(wl, StudyPoint(b, s), best.metaparams, best.seed,
                                 best.trial_index, cfg.data_root, wanted, stop_after=ei)
            history = dict(best.history)
            for k in sorted(wanted):
                if not checks.expect(k in got, f"{where}: the replay stopped before step {k}"):
                    continue
                params, mask = got[k]
                err = error_rate(spec, params, mask, val.inputs, val.labels)
                reached = k == k_star
                checks.expect((err <= wl.goal_error) == reached,
                              f"{where}: numpy error {err} at step {k} "
                              f"{'above' if reached else 'within'} goal {wl.goal_error}")
                checks.expect(k in history and abs(history[k] - err) <= 5e-7,
                              f"{where}: numpy error {err} at step {k}, record says {history.get(k)}")
                check_mask(checks, f"{where} step {k}", spec, s, params, mask)


def check_trace(checks, cfg, rnd, seed, stride, num_steps, eta, beta_x, beta_y):
    wl = cfg.workload
    spec = wl.model_spec
    train, _ = resolve_dataset(wl, cfg.data_root)
    rng = np.random.default_rng([seed, 0xC4EC])
    point_b = cfg.batch_sizes[0]
    for s in cfg.sparsities:
        where = f"{wl.id} s={s}"
        probe = prune_at_init(build_model(spec), train, s, wl.data_seed)
        mean, sq = mlp_gradient_moments(spec, probe.params, probe.mask, beta_x, beta_y)
        full = nn.full_gradient(probe, beta_x.reshape(len(beta_y), *spec.input_shape), beta_y).flat
        checks.expect(np.allclose(mean, full, rtol=GRAD_RTOL, atol=GRAD_RTOL * np.abs(full).max()),
                      f"{where}: per-example mean differs from full_gradient by "
                      f"{np.abs(mean - full).max():.3g}")
        beta = max(0.0, sq - float(mean @ mean))
        checks.expect(math.isclose(beta, rnd.betas[s], rel_tol=BETA_RTOL),
                      f"{where}: per-example beta {beta!r}, estimate_beta {rnd.betas[s]!r}")

        entries = [(k, v) for k, v in rnd.traces[s].entries if v is not None]
        k, estimate = entries[rng.integers(len(entries))]
        fixed = replace(wl, goal_error=0.0, max_steps=num_steps, eval_interval=num_steps + 1)
        _, got = capture(fixed, StudyPoint(point_b, s), {"eta_bar": eta}, seed, 0,
                         cfg.data_root, {k, k + 1}, stop_after=k + 1)
        (w_k, mask), (w_k1, _) = got[k], got[k + 1]
        d = w_k1 - w_k
        g0 = mlp_mean_gradient(spec, w_k, mask, train.inputs, train.labels)
        quotients = []
        for i in range(1, GAMMAS + 1):
            gamma = i * (1.0 / GAMMAS)
            g = mlp_mean_gradient(spec, w_k + gamma * d, mask, train.inputs, train.labels)
            quotients.append(float(np.linalg.norm(g - g0)) / (gamma * float(np.linalg.norm(d))))
        checks.expect(math.isclose(max(quotients), estimate, rel_tol=LIPSCHITZ_RTOL),
                      f"{where}: Lipschitz at step {k}: recomputed {max(quotients)!r}, "
                      f"traced {estimate!r}")
