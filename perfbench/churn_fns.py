"""Pure-tensor inference functions for the warm-start jobs of
compile-churn, with their weights passed as arguments.

Their call signatures hold only tensors, so their graphs can be
published to the disk cache; the compiling process and the worker that
warm-starts import them from this one module, so both see the same
source and compute the same cache key.
"""

import numpy as np

import repro as R

#: Width of every layer.
WIDTH = 48
#: Rows per call.
ROWS = 16


def mlp(x, w1, b1, w2, b2, w3, b3):
    h = R.tanh(R.matmul(x, w1) + b1)
    h = R.tanh(R.matmul(h, w2) + b2)
    return R.matmul(h, w3) + b3


def tower(x, w):
    h = x
    for _ in range(12):
        h = R.tanh(R.matmul(h, w)) + h * 0.5
    return R.reduce_sum(h * h, axis=1)


def gated(x, wg, wv, wo):
    gate = R.sigmoid(R.matmul(x, wg))
    value = R.tanh(R.matmul(x, wv))
    return R.reduce_mean(R.matmul(gate * value, wo), axis=1)


FUNCTIONS = {"mlp": mlp, "tower": tower, "gated": gated}
#: Order the warm-start worker loads them in.
ORDER = ("mlp", "tower", "gated")


def inputs(name, seed):
    """The seeded arguments of one call of function *name*."""
    rng = np.random.default_rng([seed, ORDER.index(name)])

    def arr(*shape, scale=0.2):
        return (rng.standard_normal(shape) * scale).astype(np.float32)

    x = arr(ROWS, WIDTH, scale=1.0)
    if name == "mlp":
        return (x, arr(WIDTH, WIDTH), arr(WIDTH), arr(WIDTH, WIDTH),
                arr(WIDTH), arr(WIDTH, 10), arr(10))
    if name == "tower":
        return (x, arr(WIDTH, WIDTH))
    return (x, arr(WIDTH, WIDTH), arr(WIDTH, WIDTH), arr(WIDTH, 8))
