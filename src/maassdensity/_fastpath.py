"""The Miller recurrence for J_0..J_nmax, scalar (j_array) and batched (j_rows).

Everything here is an implementation detail behind `specfun` and
`besseltransform`. The batched rows are bit-identical to the scalar ones.
"""

import numpy as np


def _miller_start(x, nmax):
    """Even start order of the downward recurrence for J_0..J_nmax at x."""
    start = int(max(nmax, x) + 16.0 * (x ** (1.0 / 3.0) + 1.0) + 24)
    if start % 2 == 1:
        start += 1
    return start


def _j_array_full(x, nmax):
    """J_0..J_nmax at x>0: downward (Miller) recurrence, Neumann-normalized.

    Start order is pushed far enough above max(nmax, x) that the seeded tail
    is below double rounding after normalization by J_0 + 2*sum J_{2k} = 1.
    """
    out = np.zeros(nmax + 1)
    start = _miller_start(x, nmax)
    jp = 0.0
    jc = 1e-200
    neumann = 0.0  # will hold J~_0 + 2*sum_{k>=1} J~_{2k}
    for n in range(start, 0, -1):
        jm = (2.0 * n / x) * jc - jp
        jp = jc
        jc = jm
        nn = n - 1
        if nn <= nmax:
            out[nn] = jc
        if nn % 2 == 0:
            if nn == 0:
                neumann += jc
            else:
                neumann += 2.0 * jc
        if abs(jc) > 1e250:
            jc *= 1e-250
            jp *= 1e-250
            neumann *= 1e-250
            for i in range(nmax + 1):
                out[i] *= 1e-250
    if neumann == 0.0:
        return out
    inv = 1.0 / neumann
    for i in range(nmax + 1):
        out[i] *= inv
    return out


def j_array(x, nmax):
    """Array [J_0(x), ..., J_nmax(x)] for real x, nmax >= 0."""
    ax = abs(float(x))
    nmax = int(nmax)
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if ax < 1e-10:
        out = np.zeros(nmax + 1)
        out[0] = 1.0
        if nmax >= 1:
            out[1] = ax / 2.0
        res = out
    else:
        res = _j_array_full(ax, nmax)
    if x < 0:
        res = res.copy()
        res[1::2] *= -1.0
    return res


# Cap on the recurrence state of one batch of rows in j_rows.
_BLOCK_BYTES = 16 * 2 ** 20


def _j_block(x, nmax, starts, width):
    """_j_array_full on a batch of x > 0, zero-padded rows of length width.

    Every row takes the scalar routine's steps in the scalar routine's order
    (same start order, products, rescalings and normalization), so each row
    is bit-identical to _j_array_full(x_i, nmax_i). Rows must come in
    descending start order. h[nn] holds J~_nn of every row, the recurrence
    state included; a row that has not started yet holds zeros, which the
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
            # the scalar routine scales jc, jp and the stored J_0..J_nmax
            h[n - 1 : max(n + 1, int(nmax[big].max()) + 1), big] *= 1e-250
            neumann[big] *= 1e-250
            peak = np.abs(jc, out=t).max()
        bound = max(peak, prev if top is None else top)
        top = peak
    out = h[:width]
    # the scalar routine leaves a row with neumann == 0 unnormalized
    out *= np.divide(1.0, neumann, out=np.ones(b), where=neumann != 0.0)
    for i, last in enumerate(nmax.tolist()):
        out[last + 1 :, i] = 0.0
    return out.T


def j_rows(xs, nmax) -> np.ndarray:
    """Rows [J_0(x_i), ..., J_{nmax_i}(x_i)], zero-padded to max(nmax) + 1.

    Row i is bit-identical to j_array(xs[i], nmax_i); nmax is one order for
    every row or one per row. The recurrence runs on batches of rows whose
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
