"""The Miller recurrence for J_0..J_nmax, batched over arguments (j_rows).

Everything here is an implementation detail behind `specfun` and
`besseltransform`. A row's bits do not depend on the batch it is in;
j_array is a one-row view of j_rows.
"""

import numpy as np


def _miller_start(x, nmax):
    """Even start order of the downward recurrence for J_0..J_nmax at x."""
    start = int(max(nmax, x) + 16.0 * (x ** (1.0 / 3.0) + 1.0) + 24)
    if start % 2 == 1:
        start += 1
    return start


def j_array(x, nmax):
    """Array [J_0(x), ..., J_nmax(x)] for real x, nmax >= 0: one row of j_rows.

    A call costs about 0.4-27 ms on a 2-vCPU VM (growing with max(x, nmax));
    callers with many x pass them to j_rows at once.
    """
    return j_rows([x], nmax)[0]


# Cap on the recurrence state of one batch of rows in j_rows.
_BLOCK_BYTES = 16 * 2 ** 20


def _j_block(x, nmax, starts, width):
    """J_0..J_nmax_i at a batch of x_i > 0: zero-padded rows of length width.

    Downward (Miller) recurrence from jp = 0, jc = 1e-200 at each row's
    start order, Neumann-normalized by J_0 + 2 sum J_2k = 1. The start order
    (_miller_start) is pushed far enough above max(nmax, x) that the seeded
    tail is below double rounding after normalization. A row whose running
    value passes 1e250 is rescaled by 1e-250, its stored J_0..J_nmax and
    Neumann sum with it. Each row's steps use only that row's state, so its
    bits do not depend on the other rows. Rows must come in descending
    start order. h[nn] holds J~_nn of every row, the recurrence state
    included; a row that has not started yet holds zeros, which the
    recurrence keeps at zero.
    """
    b = x.size
    starts = starts.tolist()
    s0 = starts[0]
    h = np.zeros((max(s0 + 2, width), b))
    coef = (2.0 * np.arange(s0 + 1, dtype=float))[:, None] / x[None, :]
    rows, coefs = list(h), list(coef)
    x_min = np.minimum.accumulate(x).tolist()
    neumann = np.zeros(b)
    t = np.empty(b)
    k = 0
    bound = 0.0  # >= max |h[n]|, |h[n + 1]| over the running rows
    top = None  # max |h[n]|, when the step before measured it
    for n in range(s0, 0, -1):
        while k < b and starts[k] >= n:
            h[n, k] = 1e-200  # a row starts with jp = 0, jc = 1e-200
            bound = max(bound, 1e-200)
            top = None if top is None else max(top, 1e-200)
            x_k = x_min[k]
            k += 1
        jc = rows[n - 1]
        np.multiply(coefs[n], rows[n], out=t)
        np.subtract(t, rows[n + 1], out=jc)
        if n % 2 == 1:  # starts are even, so nn = n - 1 is even here
            if n == 1:
                np.add(neumann, jc, out=neumann)
            else:
                np.multiply(jc, 2.0, out=t)
                np.add(neumann, t, out=neumann)
        # |jm| <= (2n/x + 1) max(|jc|, |jp|): look at the rows only when
        # that bound could pass the rescaling threshold (the factor-10 margin
        # covers rounding in the bound itself)
        prev = bound
        bound = prev * (2.0 * n / x_k + 1.0)
        if bound <= 1e249:
            top = None
            continue
        peak = np.abs(jc, out=t).max()
        if peak > 1e250:
            big = np.nonzero(t > 1e250)[0]
            # rescale jc, jp and the stored J_0..J_nmax of those rows
            h[n - 1 : max(n + 1, int(nmax[big].max()) + 1), big] *= 1e-250
            neumann[big] *= 1e-250
            peak = np.abs(jc, out=t).max()
        bound = max(peak, prev if top is None else top)
        top = peak
    out = h[:width]
    # a row with neumann == 0 stays unnormalized
    out *= np.divide(1.0, neumann, out=np.ones(b), where=neumann != 0.0)
    for i, last in enumerate(nmax.tolist()):
        out[last + 1 :, i] = 0.0
    return out.T


def j_rows(xs, nmax) -> np.ndarray:
    """Rows [J_0(x_i), ..., J_{nmax_i}(x_i)], zero-padded to max(nmax) + 1.

    nmax is one order for every row or one per row; |x_i| < 1e-10 gives
    [1, |x_i|/2, 0, ...], and negative x_i flip the odd orders. Row i is the
    same bits in any batch. The recurrence runs on batches of rows whose
    state stays under 16 MB.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    nmax = np.broadcast_to(np.asarray(nmax, dtype=np.int64), xs.shape)
    if np.any(nmax < 0):
        raise ValueError("nmax must be >= 0")
    width = int(nmax.max()) + 1 if xs.size else 1
    out = np.zeros((xs.size, width))
    ax = np.abs(xs)
    tiny = ax < 1e-10
    out[tiny, 0] = 1.0
    if width > 1:
        half = tiny & (nmax >= 1)
        out[half, 1] = ax[half] / 2.0
    full = np.nonzero(~tiny)[0]
    starts = np.array([_miller_start(float(ax[i]), int(nmax[i])) for i in full],
                      dtype=np.int64)
    order = np.argsort(-starts, kind="stable")
    full, starts = full[order], starts[order]
    lo = 0
    while lo < full.size:
        # h and coef hold at most 2 max(start + 2, width) doubles per row
        step = max(1, _BLOCK_BYTES // (16 * max(int(starts[lo]) + 2, width)))
        idx = full[lo : lo + step]
        out[idx] = _j_block(ax[idx], nmax[idx], starts[lo : lo + step], width)
        lo += step
    out[xs < 0, 1::2] *= -1.0
    return out
