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

    Steps are grouped by length (equal to 12 significant digits, so grid
    times differing in ulps share a group) and counted per distinct
    (prev, next) state pair, c_ab.  Per group, only the columns of
    exp(Q dt) of the distinct source states are propagated, by
    uniformization certified to relative accuracy RTOL on the observed
    entries p_ab, and log L = sum c_ab log p_ab.  Returns -inf when some
    observed step is structurally impossible.
    """
    if g.n_nodes != data.n_nodes:
        raise ValueError(f"network has {g.n_nodes} nodes, data has {data.n_nodes}")
    if data.n_steps == 0:
        return 0.0
    rate = build_generator(g, params)
    idx = data.state_indices()
    dts = np.diff(data.times)
    # grid times built as k*dt differ by ulps, so steps are grouped by their
    # length rounded to 12 significant digits; each distinct rounded length
    # (not each step) is then rendered once to take its exact decimal value
    scale = 10.0 ** (np.floor(np.log10(dts)) - 11)
    uniq, group = np.unique(np.round(dts / scale) * scale, return_inverse=True)
    lengths, merge = np.unique([float(f"{v:.12g}") for v in uniq], return_inverse=True)
    pair = (merge[group] * rate.dim + idx[:-1]) * rate.dim + idx[1:]
    pair, counts = np.unique(pair, return_counts=True)
    key, nxt = np.divmod(pair, rate.dim)
    key, prev = np.divmod(key, rate.dim)
    total = 0.0
    for k, dt in enumerate(lengths):
        sel = key == k
        sources, pos = np.unique(prev[sel], return_inverse=True)
        entries = (nxt[sel], pos)
        p = transition_columns(rate, dt, sources, entries)[entries]
        if np.any(p <= 0.0):
            return -math.inf
        total += float(counts[sel] @ np.log(p))
    return total
