"""Theory-facing measurements.

* fit_scaling / predict_steps: least-squares fit of the steps-to-result
  law K(B) = c1/B + c2. A decaying learning-rate schedule fits the same
  law, whose constants the paper writes with a tilde.
* estimate_lipschitz / trace_smoothness: Hessian-free local smoothness
  estimate along the realized update direction, max over a grid of
  fractional steps, with the expected gradient taken over the entire
  training set.
* estimate_beta: single-sample gradient variance, from one `nn.sweep`
  that also returns each sample's masked squared gradient norm; the
  batch-B variance bound is then beta / B. A trace takes it at its own
  step-0 net (pruned at initialization) in its first sweep.
* estimate_delta: twice the empirical optimality gap from a loss history.
* ratio_report: sparse/dense decomposition delta * beta * L, which must
  multiply out to the ratio of fitted c1 constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .exceptions import ConfigError, DegenerateStepError, InsufficientDataError
from .harness import INFEASIBLE, StudyPoint, Workload, resolve_dataset, run_trial

@dataclass(frozen=True)
class ScalingFit:
    c1: float
    c2: float
    residual: float               # RMS relative error over the fitted points
    points: tuple                 # ((B, K), ...) actually used


@dataclass
class TheoryParams:
    """Constants of the convergence bound for one (workload, sparsity)."""
    L: float
    beta: float
    delta: float


@dataclass
class SmoothnessTrace:
    entries: list                 # (step, L_hat or None)
    losses: list                  # (step, full-training-set loss)
    beta: float                   # estimate_beta at the step-0 net

    @property
    def average(self) -> float:
        values = [v for _, v in self.entries if v is not None]
        if not values:
            raise DegenerateStepError("no valid smoothness samples in trace")
        return float(np.mean(values))


# ---------------------------------------------------------------------------
# Scaling-law fit
# ---------------------------------------------------------------------------

def fit_scaling(points) -> ScalingFit:
    """Least squares for K = c1/B + c2, linear in the coefficients.

    Negative coefficients are clamped to zero and the other refit, which
    only triggers when the data contradicts the model; the reported
    residual then exposes the mismatch. A coefficient whose largest term
    (c1 / min B, or c2) is below 1e-12 * max K is rounding noise of the
    solve and is zeroed the same way.
    """
    pts = [(float(b), float(k)) for b, k in points]
    if len({b for b, _ in pts}) < 2:
        raise InsufficientDataError("need measurements at >= 2 distinct batch sizes")
    if any(k <= 0 for _, k in pts):
        raise ConfigError("steps-to-result values must be positive")

    b = np.array([p[0] for p in pts])
    k = np.array([p[1] for p in pts])
    x = 1.0 / b
    design = np.column_stack([x, np.ones_like(x)])
    (c1, c2), *_ = np.linalg.lstsq(design, k, rcond=None)

    noise = 1e-12 * k.max()
    if c1 * x.max() < noise:
        c1, c2 = 0.0, float(k.mean())
    elif c2 < noise:
        c2, c1 = 0.0, float((k * x).sum() / (x * x).sum())

    pred = c1 * x + c2
    residual = float(np.sqrt(np.mean(((pred - k) / k) ** 2)))
    return ScalingFit(float(c1), float(c2), residual, tuple(pts))


def predict_steps(fit: ScalingFit, batch_size: float) -> float:
    if batch_size < 1:
        raise ConfigError("batch size must be >= 1")
    return fit.c1 / batch_size + fit.c2


# ---------------------------------------------------------------------------
# Convergence-bound playback
# ---------------------------------------------------------------------------

def convergence_bound(eta_bar: float, L: float, M: float, mu: float,
                      num_steps: int, f_start: float, f_floor: float) -> float:
    """Upper bound on the average squared gradient norm over the first
    num_steps iterations of fixed-rate SGD (requires eta_bar <= mu/(L*M_G))."""
    if min(eta_bar, L, mu, num_steps) <= 0 or M < 0:
        raise ConfigError("bound constants must be positive (M >= 0)")
    return eta_bar * L * M / mu + 2.0 * (f_start - f_floor) / (num_steps * mu * eta_bar)


# ---------------------------------------------------------------------------
# Local Lipschitz estimation
# ---------------------------------------------------------------------------

# gamma = 0.1, 0.2, ..., 1; i * 0.1, not i / 10 (they differ at i = 3)
LIPSCHITZ_GAMMAS = tuple(i * 0.1 for i in range(1, 11))


def estimate_lipschitz(grad_fn, w_k: np.ndarray, w_k1: np.ndarray,
                       g0: np.ndarray) -> float:
    """Max difference quotient of grad_fn along d = w_{k+1} - w_k, against
    the base gradient g0 = grad_fn(w_k), which the caller has in hand, over
    the step fractions LIPSCHITZ_GAMMAS: 10 gradient evaluations."""
    d = w_k1 - w_k
    d_norm = float(np.linalg.norm(d))
    if d_norm == 0.0:
        raise DegenerateStepError("zero parameter displacement")
    best = 0.0
    for gamma in LIPSCHITZ_GAMMAS:
        g = np.asarray(grad_fn(w_k + gamma * d))
        quotient = float(np.linalg.norm(g - g0)) / (gamma * d_norm)
        best = max(best, quotient)
    return best


class _SnapshotHook:
    """Captures (w_k, w_{k+1}) around every stride-th update."""

    def __init__(self, stride: int, limit: int):
        self.stride, self.limit = stride, limit
        self._held = None
        self.model, self.last = None, 0   # the trial's model, its last update
        self.pairs = []           # (k, w_k, w_{k+1})

    def __call__(self, model, k: int):
        self.model, self.last = model, k
        if k > 0 and (k - 1) % self.stride == 0 and (k - 1) < self.limit:
            self.pairs.append((k - 1, self._held, model.params.copy()))
        if k % self.stride == 0 and k < self.limit:
            self._held = model.params.copy()


def trace_smoothness(workload: Workload, point: StudyPoint, metaparams: dict,
                     stride: int, num_steps: int, seed: int = 0,
                     data_root: str | None = None) -> SmoothnessTrace:
    """Train `num_steps` steps under `metaparams`, estimating the local
    Lipschitz constant every `stride` steps (at k = 0, stride, ...).

    Each gradient is the exact mean over the training split. One sweep at
    each measured w_k gives the loss there, for the optimality gap, the base
    gradient and, at k = 0, beta as `estimate_beta` gives it. A run that
    diverges raises DegenerateStepError.
    """
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    fixed = replace(workload, goal_error=0.0, max_steps=num_steps,
                    eval_interval=num_steps + 1)
    hook = _SnapshotHook(stride, num_steps)
    if run_trial(fixed, point, metaparams, seed, data_root=data_root,
                 step_hook=hook).status == INFEASIBLE:
        raise DegenerateStepError(f"training diverged at step {hook.last + 1}")

    train, _ = resolve_dataset(workload, data_root)
    probe = hook.model            # carries the mask the trial trained under

    def grad_at(w):
        probe.set_params(w)
        return nn.full_gradient(probe, train.inputs, train.labels).flat

    entries, losses, beta = [], [], None
    for k, w_k, w_k1 in hook.pairs:
        # Masked coordinates are zero in both snapshots, so the probe model
        # sees the pruned objective without re-applying the mask.
        probe.set_params(w_k)
        loss, _, g0 = nn.sweep(probe, train.inputs, train.labels, example_norms=(k == 0))
        losses.append((k, loss))
        if k == 0:
            beta = _centred_beta(g0)
        try:
            entries.append((k, estimate_lipschitz(grad_at, w_k, w_k1, g0.flat)))
        except DegenerateStepError:   # zero displacement
            entries.append((k, None))
    return SmoothnessTrace(entries, losses, beta)


# ---------------------------------------------------------------------------
# Variance and optimality-gap estimates
# ---------------------------------------------------------------------------

def _centred_beta(grad: nn.Gradient) -> float:
    """mean_i ||g_i||^2 - ||g_mean||^2 from a sweep's per-example norms."""
    # clamp: the identity can go epsilon-negative
    return max(0.0, float(np.mean(grad.example_sq_norms))
               - float(np.sum(grad.flat * grad.flat)))


def estimate_beta(model, inputs, labels) -> float:
    """Mean squared deviation of single-sample gradients from the full
    gradient: the variance bound at batch size 1. One sweep gives both the
    mean gradient and every sample's masked squared norm."""
    return _centred_beta(nn.sweep(model, inputs, labels, example_norms=True)[2])


def estimate_delta(losses) -> float:
    """Twice the empirical optimality gap, 2 * (first loss - min loss), from
    (step, loss) pairs; the minimum achieved loss stands in for the
    unknowable lower bound."""
    values = [float(v) for _, v in losses]
    if not values:
        raise ConfigError("empty loss history")
    return 2.0 * (values[0] - min(values))


def ratio_report(sparse: TheoryParams, dense: TheoryParams) -> dict:
    """Sparse/dense ratios of the c1 ingredients.

    mu and the convergence degree cancel between matched workloads, so
    c1_ratio = delta_ratio * beta_ratio * L_ratio exactly. A ratio above
    one attributes the sparse-training slowdown to these constants, with
    the smoothness term typically dominant.
    """
    ratios = {}
    for name in ("delta", "beta", "L"):
        if getattr(dense, name) == 0:
            raise ZeroDivisionError(f"dense {name} is zero; ratios are undefined")
        ratios[f"{name}_ratio"] = getattr(sparse, name) / getattr(dense, name)
    ratios["c1_ratio"] = ratios["delta_ratio"] * ratios["beta_ratio"] * ratios["L_ratio"]
    return ratios
