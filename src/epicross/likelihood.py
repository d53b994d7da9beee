"""Trajectory likelihood under a candidate network.

The data are snapshots x_0, ..., x_K of the epidemic on a time grid.  By
the Markov property the likelihood of a network g factorizes over steps,
L(g) = prod_k Prob(x_{k-1} -> x_k | g), each factor an entry of
exp(Q(g) dt_k).  Only those observed entries are computed, by uniformization
of the observed source states, each to a checked relative accuracy.
Everything downstream works with log L: the memo stores it and the cross
optimizer tempers it (cross.tempered_objective).
"""

from __future__ import annotations

import math

import numpy as np

from .epidemic import (
    AdjacencyVector,
    EpidemicParams,
    Trajectory,
    build_generator,
    transition_columns,
)


def log_likelihood(g: AdjacencyVector, data: Trajectory,
                   params: EpidemicParams) -> float:
    """Exact log-likelihood of `g` for the observed trajectory.

    The steps grouped by length and counted per distinct (prev, next)
    state pair, c_ab, come from `data.step_groups`, built once per
    trajectory; the generator's sparsity pattern is built once per node
    count.  Per solve, only the network's generator values are filled and,
    per group, the columns of exp(Q dt) of the distinct source states are
    propagated, by uniformization certified to relative accuracy RTOL on
    the observed entries p_ab; log L = sum c_ab log p_ab.  Returns -inf
    when some observed step is structurally impossible.
    """
    if g.n_nodes != data.n_nodes:
        raise ValueError(f"network has {g.n_nodes} nodes, data has {data.n_nodes}")
    rate = build_generator(g, params)
    total = 0.0
    for dt, sources, entries, counts in data.step_groups:
        p = transition_columns(rate, dt, sources, entries)
        if np.any(p <= 0.0):
            return -math.inf
        total += float(counts @ np.log(p))
    return total
