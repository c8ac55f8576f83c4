"""The hot numeric kernel: the truncated Taylor-coefficient convolution
behind jet multiplication, in numpy."""

import numpy as np


def mul_coeffs(a, b, idx_a, idx_b, idx_out, size):
    return np.bincount(idx_out, weights=a[idx_a] * b[idx_b], minlength=size)


def backend_name():
    return "numpy"
