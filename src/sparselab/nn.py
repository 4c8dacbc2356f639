"""Dense-tensor engine: exact forward/backward passes in float64.

Layers operate on explicit numpy arrays and keep their parameters as
views into the owning model's flat parameter vector, so the optimizer
and the pruning mask can treat the whole network as one length-m vector.

Every pass runs on a stack of T trials: a model whose parameters are a
(T, m) array under one shared mask, and whose batch is (T, B, ...), one
batch per trial. A model with a length-m vector is the stack of one.
`Affine` and `Conv3x3` take T from their parameter views, which carry a
leading trial axis, and run one batched `np.matmul`: one gemm per trial,
the very call a one-trial pass makes. Every other layer and the softmax
act on the T*B rows merged, row by row. So each trial's bytes are those
of a pass on its own, whatever else is in the stack. Gradients and
per-trial losses come back with the parameters' leading shape, and a
non-finite value raises NumericOverflow naming the trials it hit.

Backward returns the gradient of the *mean* loss over the batch, i.e. an
unbiased estimate of the full-data gradient under i.i.d. sampling, and
stops at the first layer with parameters, whose input gradient is unused.
It reads the masked views and activations of the forward it follows; only
`batch_gradient` and `sweep` pair the two, one backward after each forward.
One softmax pass per step or sweep chunk gives the loss, the error and
backward's starting signal; the evaluation pass is forward plus argmax.
A sweep gives the loss, the error and the mean gradient over a whole data
set. It runs its chunks on the process's pool of threads, as many as
OpenBLAS runs and kept from one sweep to the next, each chunk at one
OpenBLAS thread, and sums them in chunk order: its bytes are those of a
one-thread serial pass at any thread count.
The bias gradients and the global mean pool's spatial sum go through
`_column_sums`, an einsum whose inner loop spans a whole row, not one
pixel's channels, and which adds the rows in `sum`'s order; a one-column
array keeps `sum`, which adds a single column pairwise.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from collections import deque, namedtuple
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, NumericOverflow

# Samples per forward in a whole-data-set pass; bounds the activation and im2col buffers.
FULL_GRADIENT_CHUNK = 1024

# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

def _column_sums(a):
    """`a.sum(axis=-2)` of an (..., rows, c) array, bit for bit."""
    if a.shape[-1] == 1 or not a.flags.c_contiguous:
        return a.sum(axis=-2)
    return np.einsum("...nc->...c", a)


class Affine:
    """Fully-connected layer: y = x @ W + b."""

    def __init__(self, n_in: int, n_out: int):
        if n_in < 1 or n_out < 1:
            raise ConfigError(f"affine dims must be >= 1, got ({n_in}, {n_out})")
        self.n_in = n_in
        self.n_out = n_out

    @property
    def param_shapes(self):
        return [(self.n_in, self.n_out), (self.n_out,)]

    def forward(self, x, params):
        W, b = params                       # (T, n_in, n_out), (T, n_out)
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ConfigError(
                f"affine expects (batch, {self.n_in}) input, got {x.shape}")
        y = np.matmul(x.reshape(len(b), -1, self.n_in), W)
        y += b[:, None, :]
        return y.reshape(-1, self.n_out), x

    def backward(self, d_out, cache, params, need_input=True):
        W, b = params
        x = cache.reshape(len(b), -1, self.n_in)
        d = d_out.reshape(len(b), -1, self.n_out)
        d_W = np.matmul(x.transpose(0, 2, 1), d)
        d_b = _column_sums(d)
        if not need_input:
            return None, [d_W, d_b]
        return np.matmul(d, W.transpose(0, 2, 1)).reshape(-1, self.n_in), [d_W, d_b]

    def example_sq_norms(self, d_out, cache, masks):
        """Per row i, ||m * g_i||^2 of the row's own gradient
        g_i = (x_i outer d_i, d_i), without forming it."""
        M_W, m_b = masks
        x = cache
        d_sq = d_out * d_out
        return ((x * x) @ M_W * d_sq).sum(axis=1) + d_sq @ m_b


@functools.cache
def _tap_pixels(h: int, w: int) -> np.ndarray:
    """Flat pixel index into an (h+2, w+2) padded image of tap (i, j) of
    output pixel (y, x), in (y, x, i, j) order."""
    y, x, i, j = np.ix_(range(h), range(w), range(3), range(3))
    index = ((y + i) * (w + 2) + x + j).ravel()
    index.setflags(write=False)
    return index


class Conv3x3:
    """3x3 convolution, stride 1, zero 'same' padding, channels-last.

    Implemented as patch extraction (im2col: one `np.take` of whole pixel
    rows of the zero-padded input, by a cached tap index) followed by one
    matmul, so the backward pass is exact matrix calculus rather than a
    hand-rolled correlation. The input gradient is added tap by tap, in a
    fixed (i, j) order.
    """

    def __init__(self, c_in: int, c_out: int):
        if c_in < 1 or c_out < 1:
            raise ConfigError(f"conv channels must be >= 1, got ({c_in}, {c_out})")
        self.c_in = c_in
        self.c_out = c_out

    @property
    def param_shapes(self):
        return [(3, 3, self.c_in, self.c_out), (self.c_out,)]

    def forward(self, x, params):
        K, b = params                       # (T, 3, 3, c_in, c_out), (T, c_out)
        if x.ndim != 4 or x.shape[3] != self.c_in:
            raise ConfigError(
                f"conv expects (batch, h, w, {self.c_in}) input, got {x.shape}")
        n, h, w, c = x.shape
        t = len(b)
        padded = np.zeros((n, h + 2, w + 2, c))
        padded[:, 1:-1, 1:-1] = x
        # flat[(n, y, x), (i, j, c)] = padded[n, y + i, x + j, c]: one gather of pixel rows
        flat = np.take(padded.reshape(n, -1, c), _tap_pixels(h, w), axis=1)
        flat = flat.reshape(n * h * w, 9 * c)
        y = np.matmul(flat.reshape(t, -1, 9 * c), K.reshape(t, 9 * c, self.c_out))
        rows = y.reshape(t, -1, w * self.c_out)
        rows += np.tile(b, w)[:, None, :]
        return y.reshape(n, h, w, self.c_out), (flat, x.shape)

    def backward(self, d_out, cache, params, need_input=True):
        K, b = params
        flat, x_shape = cache
        n, h, w, _ = x_shape
        t = len(b)
        d_flat_out = d_out.reshape(t, -1, self.c_out)
        d_K = np.matmul(flat.reshape(t, -1, 9 * self.c_in).transpose(0, 2, 1), d_flat_out)
        d_K = d_K.reshape(t, 3, 3, self.c_in, self.c_out)
        d_b = _column_sums(d_flat_out)
        if not need_input:
            return None, [d_K, d_b]
        d_padded = np.zeros((n, h + 2, w + 2, self.c_in))
        for i in range(3):
            for j in range(3):
                d_tap = np.matmul(d_flat_out, K[:, i, j].transpose(0, 2, 1))
                d_padded[:, i:i + h, j:j + w, :] += d_tap.reshape(n, h, w, self.c_in)
        return d_padded[:, 1:1 + h, 1:1 + w, :], [d_K, d_b]

    def example_sq_norms(self, d_out, cache, masks):
        """Per example i, ||m * g_i||^2 of its own gradient: the kernel
        part is a batched matmul over the example's im2col patches."""
        M_K, m_b = masks
        flat, (n, h, w, _) = cache
        d = d_out.reshape(n, h * w, self.c_out)
        d_K = flat.reshape(n, h * w, 9 * self.c_in).transpose(0, 2, 1) @ d
        d_b = _column_sums(d)
        kernel = (d_K * d_K * M_K.reshape(9 * self.c_in, self.c_out)).sum(axis=(1, 2))
        return kernel + (d_b * d_b) @ m_b


class Relu:
    param_shapes: list = []

    def forward(self, x, params):
        # in place: x is the fresh output of the layer before, never the data
        np.maximum(x, 0.0, out=x)
        return x, x

    def backward(self, d_out, cache, params):
        # out > 0 exactly where x > 0, -0.0 included; in place: every
        # backward returns a fresh array
        d_out *= cache > 0
        return d_out, []


class MeanPool2x2:
    """2x2 mean pooling, stride 2; spatial dims must be even."""

    param_shapes: list = []

    def forward(self, x, params):
        n, h, w, c = x.shape
        if h % 2 or w % 2:
            raise ConfigError(f"mean-pool needs even spatial dims, got {h}x{w}")
        # the order and the scaling of reshape(...).mean(axis=(2, 4)), bit for bit
        y = x[:, 0::2, 0::2] + x[:, 0::2, 1::2]
        y += x[:, 1::2, 0::2]
        y += x[:, 1::2, 1::2]
        y *= 0.25
        return y, x.shape

    def backward(self, d_out, cache, params):
        n, h, w, c = cache
        d_block = np.broadcast_to((d_out / 4.0)[:, :, None, :, None, :],
                                  (n, h // 2, 2, w // 2, 2, c))
        # one copy, also at 2x2 input, where a reshape alone gives a read-only view
        return d_block.copy().reshape(cache), []


class GlobalMeanPool:
    """Average over all spatial positions: (n, h, w, c) -> (n, c)."""

    param_shapes: list = []

    def forward(self, x, params):
        n, h, w, c = x.shape
        # x.mean(axis=(1, 2)) is this sum, divided by the pixel count
        return _column_sums(x.reshape(n, h * w, c)) / (h * w), x.shape

    def backward(self, d_out, cache, params):
        n, h, w, c = cache
        return np.repeat((d_out / (h * w))[:, None, :], h * w, axis=1).reshape(cache), []


class Flatten:
    param_shapes: list = []

    def forward(self, x, params):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, d_out, cache, params):
        return d_out.reshape(cache), []


# ---------------------------------------------------------------------------
# Gradient / cache containers
# ---------------------------------------------------------------------------

@dataclass
class Gradient:
    """Flat gradient in the model's parameter order, shaped like its
    parameters (length m, or (T, m) for a stack), and, when asked for (one
    trial only), each example's masked squared norm ||m * g_i||^2 of its
    own (not batch-averaged) gradient."""

    flat: np.ndarray
    example_sq_norms: np.ndarray | None = None


# Activations, masked parameter views and per-trial batch size of one forward.
BatchCache = namedtuple("BatchCache", "layer_caches param_views batch_size")


def _check_finite(a, trials: int, what: str):
    """Raise NumericOverflow naming each trial whose rows of `a` (the
    trials' rows in order) hold a non-finite value."""
    finite = np.isfinite(a)
    if not finite.all():
        bad = ~finite.reshape(trials, -1).all(axis=1)
        raise NumericOverflow(f"non-finite {what}", np.flatnonzero(bad))


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def forward(model, inputs: np.ndarray):
    """Run the model on a batch, (B, ...) for one trial or (T, B, ...) for a
    stack; returns (logits, cache), with the logits as T*B merged rows.

    Takes the model's masked parameter views once, so the output is
    invariant to whatever values the raw vector stores at pruned positions,
    and keeps them in the cache for backward.
    """
    x = np.asarray(inputs, dtype=np.float64)
    x = x.reshape((-1,) + x.shape[model.params.ndim:])
    if x.shape[0] < 1:
        raise ConfigError("empty batch")
    param_views = model.masked_param_views()
    layer_caches = []
    for layer, views in zip(model.layers, param_views):
        x, cache = layer.forward(x, views)
        layer_caches.append(cache)
    trials = model.trials
    _check_finite(x, trials, "activation in forward pass")
    return x, BatchCache(layer_caches, param_views, len(x) // trials)


def _softmax_pass(logits, targets):
    """The output layer in one exp pass over finite logits: each row's target
    log-probability, each row's argmax miss (ties break toward the lowest
    class index) and the softmax, which backward overwrites."""
    targets = np.asarray(targets).reshape(-1)
    if logits.shape[0] != targets.shape[0]:
        raise ConfigError(
            f"{logits.shape[0]} logit rows vs {targets.shape[0]} targets")
    rows, pred = np.arange(len(targets)), logits.argmax(axis=1)
    shifted = logits - logits[rows, pred][:, None]     # the row max, by the argmax
    e = np.exp(shifted)
    sums = e.sum(axis=1)
    log_probs = shifted[rows, targets] - np.log(sums)
    e /= sums[:, None]
    return log_probs, pred != targets, e


def loss_and_error(logits: np.ndarray, targets: np.ndarray):
    """Softmax cross-entropy (log-sum-exp stabilized) and argmax error rate."""
    if not np.all(np.isfinite(logits)):
        raise NumericOverflow("non-finite logits")
    log_probs, missed, _ = _softmax_pass(logits, targets)
    return float(-log_probs.mean()), int(missed.sum()) / len(log_probs)


def backward(model, cache: BatchCache, targets: np.ndarray, probs: np.ndarray,
             example_norms: bool = False) -> Gradient:
    """Mean gradient of the softmax cross-entropy over the batch, from the
    softmax `probs` of forward's logits, which it overwrites.

    Differentiates at the masked views and activations of the forward it
    follows (in `batch_gradient` or `sweep`) and zeroes the entries at
    masked positions: pruned coordinates are outside the optimization
    problem entirely. With example_norms, each parameterized layer also
    adds its share of every example's masked squared gradient norm, from
    the same backward signal.
    It stops at the first layer with parameters, after its parameter
    gradients (and norms): nothing reads that layer's input gradient.
    """
    d_out = probs
    d_out[np.arange(len(d_out)), np.asarray(targets).reshape(-1)] -= 1.0
    d_out /= cache.batch_size

    sq_norms = np.zeros(cache.batch_size) if example_norms else None
    masks = model.mask_views() if example_norms else [None] * len(model.layers)
    first = next(k for k, views in enumerate(cache.param_views) if views)
    d_params = []                 # built back to front, so in parameter order
    for k in range(len(model.layers) - 1, first - 1, -1):
        layer, layer_cache, views = model.layers[k], cache.layer_caches[k], cache.param_views[k]
        if example_norms and views:
            sq_norms += layer.example_sq_norms(d_out, layer_cache, masks[k])
        # positional: a wrapped layer method need not take keywords
        d_out, layer_d = (layer.backward(d_out, layer_cache, views) if k > first
                          else layer.backward(d_out, layer_cache, views, False))
        d_params[:0] = layer_d
    trials = model.trials
    flat = np.concatenate([d.reshape(trials, -1) for d in d_params], axis=1)
    flat *= model.mask
    _check_finite(flat, trials, "gradient")
    if example_norms:
        sq_norms *= cache.batch_size ** 2     # d_out carried the mean's 1/n
    return Gradient(flat.reshape(model.params.shape), sq_norms)


def batch_gradient(model, inputs, targets):
    """forward, one softmax pass and backward; returns (loss, error,
    Gradient), the loss and the error per trial for a stack."""
    logits, cache = forward(model, inputs)
    log_probs, missed, probs = _softmax_pass(logits, targets)
    grad = backward(model, cache, targets, probs)
    rows = model.params.shape[:-1] + (-1,)
    n = cache.batch_size              # the sums and divisions of `mean`
    return -(log_probs.reshape(rows).sum(axis=-1) / n), missed.reshape(rows).sum(axis=-1) / n, grad


def _chunks(n):
    """A data set's slices of FULL_GRADIENT_CHUNK samples, one per forward."""
    if n == 0:
        raise ConfigError("empty dataset")
    return [slice(i, i + FULL_GRADIENT_CHUNK) for i in range(0, n, FULL_GRADIENT_CHUNK)]


OpenBlasThreads = namedtuple("OpenBlasThreads", "get set")


@functools.cache
def openblas_threads() -> OpenBlasThreads | None:
    """The getter and setter of the process's OpenBLAS thread count: numpy's
    bundled OpenBLAS, else a system one loaded in the process; None if
    neither is found."""
    bundled = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                     "numpy.libs", "libscipy_openblas*.so"))
    names = [(lib, "scipy_openblas_{}_num_threads64_") for lib in bundled]
    for lib, name in names + [(None, "openblas_{}_num_threads")]:
        try:
            dll = ctypes.CDLL(lib)
            get, put = getattr(dll, name.format("get")), getattr(dll, name.format("set"))
        except (AttributeError, OSError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        put.argtypes, put.restype = (ctypes.c_int,), None
        return OpenBlasThreads(get, put)
    return None


@functools.lru_cache(maxsize=1)
def _pool(threads):
    """The process's pool of sweep threads, made by the first threaded sweep
    and kept for the next; a new thread count replaces it."""
    return ThreadPoolExecutor(threads, thread_name_prefix="sweep")


os.register_at_fork(after_in_child=_pool.cache_clear)   # a forked child has no pool threads


def _in_chunk_order(fn, chunks):
    """fn of each chunk, yielded in chunk order.

    With OpenBLAS at T > 1 threads, the chunks run on the process's pool of
    T threads at one OpenBLAS thread each, and the count is back at T once
    the generator ends, also after a raise; otherwise (a one-thread
    OpenBLAS, no OpenBLAS found) they run one after another in the caller.
    """
    blas = openblas_threads()
    threads = blas.get() if blas else 1
    if threads <= 1:
        yield from map(fn, chunks)
        return
    blas.set(1)
    pending = deque()
    try:
        pending.extend(_pool(threads).submit(fn, chunk) for chunk in chunks)
        while pending:
            yield pending[0].result()     # pending while it runs, so the
            pending.popleft()             # wait below covers every chunk left
    finally:
        for future in pending:
            future.cancel()
        wait(pending)             # no chunk runs on once the pass is over
        blas.set(threads)


def sweep(model, inputs, labels, example_norms: bool = False):
    """(mean loss, error rate, mean Gradient) over a whole data set, one
    forward, softmax pass and backward per chunk. Loss and error are
    row-wise sums over the chunks, so they equal a one-shot pass bit for
    bit; the gradient is the size-weighted chunk mean. With example_norms,
    the Gradient also holds every example's masked squared gradient norm.

    The chunks run on as many threads as OpenBLAS runs at entry, each at one
    OpenBLAS thread, and are summed in chunk order, so the result equals a
    one-thread serial sweep byte for byte at any thread count."""
    def chunk_pass(chunk):
        out, cache = forward(model, inputs[chunk])
        log_probs, missed, probs = _softmax_pass(out, labels[chunk])
        return log_probs, missed, backward(model, cache, labels[chunk], probs, example_norms)

    log_probs, wrong, norms, total = [], 0, [], np.zeros(model.param_count)
    for chunk_log_probs, missed, grad in _in_chunk_order(chunk_pass, _chunks(len(labels))):
        log_probs.append(chunk_log_probs)
        wrong += int(missed.sum())
        total += grad.flat * len(chunk_log_probs)
        norms.append(grad.example_sq_norms)
    n = len(labels)
    return (float(-np.concatenate(log_probs).mean()), wrong / n,
            Gradient(total / n, np.concatenate(norms) if example_norms else None))


def error_rate(model, inputs, labels) -> float:
    """Argmax error rate over a whole data set, one forward per chunk and
    no softmax or loss: the evaluation pass. No chunk's activations outlive it."""
    wrong = sum(int((forward(model, inputs[chunk])[0].argmax(axis=1) != labels[chunk]).sum())
                for chunk in _chunks(len(labels)))
    return wrong / len(labels)


def full_gradient(model, inputs, labels) -> Gradient:
    """Exact mean gradient over an entire data set."""
    return sweep(model, inputs, labels)[2]
