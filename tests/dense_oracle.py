"""Dense reference for transition probabilities: the full generator and
scipy's expm of it, 2^N x 2^N doubles, so for small N only."""

import numpy as np
from scipy.linalg import expm

from epicross.epidemic import _generator_pattern


def dense_generator(rate):
    """The generator as a (dim, dim) array: q[y, x] is the rate x -> y.

    The values are added into zeros, as scipy's toarray does, so a -0.0
    on the diagonal reads +0.0 there too.
    """
    n = rate.dim.bit_length() - 1
    _, indices, _, _, _ = _generator_pattern(n)
    q = np.zeros((rate.dim, rate.dim))
    q[indices, np.repeat(np.arange(rate.dim), n + 1)] += rate.data
    return q


def transition_matrix(rate, dt):
    """exp(Q dt), checked column-stochastic and clipped to [0, 1]."""
    p = expm(dense_generator(rate) * dt)
    if np.max(np.abs(p.sum(axis=0) - 1.0)) > 1e-10:
        raise ArithmeticError("transition matrix columns do not sum to 1")
    if p.min() < -1e-12 or p.max() > 1 + 1e-12:
        raise ArithmeticError("transition matrix entries outside [0, 1]")
    return np.clip(p, 0.0, 1.0)
