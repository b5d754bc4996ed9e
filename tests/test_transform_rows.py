"""The blocked band-limited transform weights._transform_rows behind
s_real_grid, s_imag_axis_scaled and TestFunction.phi: bit for bit the dense
fn(c * outer(x, a)) @ w under one BLAS thread, at a bounded memory cost. With
a matrix w (the Kloosterman series batch) each column is the dense product
within the rounding of the matrix product."""

import json
import math
import tracemalloc

import numpy as np

from maassdensity.besseltransform import _gl_panels, _osc_panel_edges
from maassdensity.rmt import make_test_function
from maassdensity.weights import (
    _block_rows,
    _transform_rows,
    default_family,
    make_spectral_weight,
)
from pinned_blas import run_pinned

# Runs under one BLAS thread. The dense reference does its elementwise steps
# in place, which rounds as the out-of-place expression does and halves its
# memory (121104 x 256 doubles); the product is the same dense matmul.
_BIT_CHECK = r"""
import json, math
import numpy as np
from maassdensity.rmt import make_test_function
from maassdensity.weights import _block_rows, make_weight_family

def dense(fn, scale, x, a, w):
    m = np.multiply.outer(x, a)
    np.multiply(scale, m, out=m)
    fn(m, out=m)
    return m @ w

def sizes(k, largest):
    rows = _block_rows(k)
    return [1, 3, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows,
            2 * rows + 1, largest]

rng = np.random.default_rng(20131)
two_pi = 2.0 * math.pi
bad = []
for M in (8, 12):
    fam = make_weight_family(M)
    for n in sizes(fam._xi.size, 121104):
        x = rng.uniform(0.0, 30.0, n)
        want = dense(np.cos, two_pi, x, fam._xi, fam._wb)
        if not np.array_equal(fam.s_real_grid(x), want):
            bad.append(("s_real_grid", M, n))
        want = dense(np.exp, -two_pi, x, fam._xi + fam.bump_halfwidth, fam._wb)
        if not np.array_equal(fam.s_imag_axis_scaled(x)[0], want):
            bad.append(("s_imag_axis_scaled", M, n))
for eta in (0.8, 1.5):
    phi = make_test_function(eta)
    # rmt._expected_x_space passes its whole grid in one call, 1,728 to
    # 2,576 points at eta 0.8 to 1.2; 4096 rows cover that, where 121104
    # rows of the dense reference over 944 to 1,760 nodes would need up to
    # 1.7 GB
    for n in sizes(phi._xi.size, 4096) + [4099]:
        x = rng.uniform(0.0, 120.0, n)
        if not np.array_equal(phi.phi(x), dense(np.cos, two_pi, x, phi._xi, phi._wq)):
            bad.append(("phi", eta, n))
print(json.dumps(bad))
"""


def test_blocked_transforms_bit_identical_to_dense():
    assert json.loads(run_pinned(_BIT_CHECK).splitlines()[-1]) == []


def test_zero_dim_inputs_keep_their_types():
    fam = default_family()
    sw = make_spectral_weight(fam, 41)
    h = sw.h_T_real(3.0)
    assert type(h) is float
    assert h == sw.h_T_real(np.array([3.0]))[0]
    x = np.float64(0.3)
    s = fam.s_real_grid(x)
    want = np.cos(2.0 * math.pi * np.multiply.outer(x, fam._xi)) @ fam._wb
    assert type(s) is type(want) and s == want
    phi = make_test_function(0.8)
    for t in (0.0, 0.37, 5.0):
        x = np.float64(t)
        v = phi.phi(x)
        want = np.cos(2.0 * math.pi * np.multiply.outer(x, phi._xi)) @ phi._wq
        assert type(v) is type(want) and v == want


def _traced_peak(f, *args) -> float:
    """Peak traced bytes (numpy reports its buffers to tracemalloc) of f."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_h_t_real_memory_bounded_on_dj_nodes():
    # the fine pass of dj_quadrature(3.988, 41): about 121k nodes, on which
    # a dense (nodes x 256) matrix would take about 500 MB
    T = 41
    r_max = (4.0 * T / math.pi) * math.log(1e10) + 50.0
    nodes, _ = _gl_panels(_osc_panel_edges(r_max, 3.988, 0.55))
    assert nodes.size > 120_000
    sw = make_spectral_weight(default_family(), T)
    assert _traced_peak(sw.h_T_real, nodes) < 16 * 2**20


def test_phi_memory_bounded():
    phi = make_test_function(0.8)
    assert _traced_peak(phi.phi, np.linspace(0.0, 40.0, 4096)) < 8 * 2**20


def test_matrix_weights_match_dense_within_rounding():
    # a 2-D w gives one output column per column; fn(scale * outer(x, a)) is
    # formed as the dense expression forms it, so only the summation order
    # of the matrix product differs: at most k u sum_i |fn_i w_i| over k nodes
    rng = np.random.default_rng(15)
    k = 700
    a = np.sort(rng.uniform(0.0, 50.0, k))
    w = rng.standard_normal((k, 24))
    rows = _block_rows(k)
    for n in (1, 3, 5, rows - 1, rows, rows + 1, 2 * rows + 3):
        x = rng.uniform(-6.0, 2.0, n)
        m = np.cos(2.0 * np.multiply.outer(x, a))
        got = _transform_rows(np.cos, 2.0, x, a, w)
        assert got.shape == (n, 24)
        assert np.all(np.abs(got - m @ w) <= k * 2.0**-52 * (np.abs(m) @ np.abs(w)))
    x = np.float64(0.3)
    m = np.sin(2.0 * np.multiply.outer(x, a))
    got = _transform_rows(np.sin, 2.0, x, a, w)
    assert got.shape == (24,)
    assert np.all(np.abs(got - m @ w) <= k * 2.0**-52 * (np.abs(m) @ np.abs(w)))
