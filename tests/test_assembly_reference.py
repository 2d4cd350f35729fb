"""Bit-for-bit oracle of the folded assembly.

``reference_assemble`` is the assembly as it stood before the operators
were solved in place: the top rows of G, B and B2 formed together (each
D1 column block's product in a temporary), each half block's mass block
and all of its right-hand sides folded into fresh buffers and solved by
one ``gesv`` call.  ``semidiscrete.assemble`` keeps a smaller working set
but must give the same bits.
"""

import numpy as np
import pytest

from bousspec import jacobi, model, semidiscrete
from bousspec.model import IntervalMap


def _fold(x, half, f, out):
    pairs = x.shape[1] - half
    mirror = x[:, ::-1]
    if f:
        return np.subtract(x[:, :pairs], mirror[:, :pairs], out=out)
    np.add(x[:, :half], mirror[:, :half], out=out)
    if half > pairs:
        out[:, -1] *= 0.5
    return out


def _matmul_d1(x, basis):
    out = np.empty(x.shape)
    for cols in jacobi._d1_spans(basis.n + 1, len(x)):
        out[:, cols] = x @ jacobi.d1_block(basis, cols=cols)
    return out


def _top_rows(basis, imap, stiff):
    n, mu = basis.n, basis.mu
    half = n // 2
    w = basis.weights
    edge = [0, n]
    cols = jacobi.d1_block(basis, cols=slice(1, half + 1))
    g = cols.T * w
    g[:, edge] = ((1.0 + mu) * cols[edge]).T * w[edge]
    j = np.arange(1, half + 1)
    xj = basis.nodes[j]
    g[j - 1, j] = (basis.d1_diag[j] - 2.0 * xj * mu / (1.0 - xj * xj)) * w[j]
    b = _matmul_d1(g, basis)
    return imap.scale * w[1:n], g, b, _matmul_d1(b, basis) if stiff else None


def reference_assemble(basis, p, imap):
    """(ops, edge_eta, edge_u) of the one-``gesv``-per-half-block assembly."""
    n = basis.n
    m = n - 1
    half = n // 2
    pairs = m - half
    absc = abs(p.c)
    s = imap.scale
    w, g, b, b2 = _top_rows(basis, imap, absc > 0.0)
    interior, edge = slice(1, n), [0, n]
    mass_edge = b[:, edge] / s
    grad_edge = g[:, edge]
    third_edge = b2[:, edge] / (s * s) if absc else np.zeros((half, 2))

    def solve_folded(coeff, out, edge_top, edge_mirror):
        blocks = out.shape[1] // half
        sources = ((g, 1.0, 0.5), (b2, s * s, -0.5 * absc))[:blocks]

        def solve_half(f, size, width, sign):
            block = _fold(b[:size, interior], half, 1 - f, np.empty((size, size)))
            block /= s
            block *= coeff
            block[np.diag_indices(size)] += w[:size]
            rhs = np.empty((size, blocks * width + edge_top.shape[1]))
            for k, (src, div, c) in enumerate(sources):
                cell = _fold(src[:size, interior], half, f, rhs[:, k * width:(k + 1) * width])
                cell /= div
                cell *= c
            rhs[:, blocks * width:] = 0.5 * (edge_top[:size] + sign * edge_mirror[:size])
            x = np.linalg.solve(block, rhs)
            for k in range(blocks):
                out[f, k * half:k * half + width, :size] = x[:, k * width:(k + 1) * width].T
            return x[:, blocks * width:].copy()

        edge_odd = solve_half(0, pairs, half, -1.0)
        edge_even = solve_half(1, half, pairs, 1.0)
        solved = np.empty((m, edge_top.shape[1]))
        solved[:half] = edge_even
        solved[:pairs] += edge_odd
        solved[::-1][:pairs] = edge_even[:pairs] - edge_odd
        return solved

    def edge_rows(coeff, third):
        parts = [(-coeff * mass_edge, 1.0), (grad_edge, -1.0)]
        if third:
            parts.append((-absc * third_edge, -1.0))
        return (np.hstack([e for e, _ in parts]),
                np.hstack([sign * e[:, ::-1] for e, sign in parts]))

    width = 2 * half if absc else half
    if p.b == p.d:
        ops = np.zeros((2, width, half))
        edge_u = solve_folded(p.d, ops, *edge_rows(p.d, True))
        edge_eta = edge_u[:, :4]
    else:
        ops = np.zeros((2, 2, width, half))
        edge_u = solve_folded(p.d, ops[:, 1], *edge_rows(p.d, True))
        edge_eta = solve_folded(p.b, ops[:, 0, :half], *edge_rows(p.b, False))
    return ops, edge_eta, edge_u


SYSTEMS = {
    "b=d,c=0": model.SystemParams(b=0.3, c=0.0, d=0.3),
    "b=d,c!=0": model.SystemParams(b=0.3, c=-0.1, d=0.3),
    "b!=d,c=0": model.SystemParams(b=0.2, c=0.0, d=0.35),
    "b!=d,c!=0": model.SystemParams(b=0.2, c=-0.15, d=0.35),
}


@pytest.mark.parametrize("mu", [0.0, 0.5, -0.5])
@pytest.mark.parametrize("n", [2, 3, 9, 10, 33, 64, 256])
@pytest.mark.parametrize("system", list(SYSTEMS))
def test_assembly_matches_the_reference_bit_for_bit(system, n, mu):
    basis = jacobi.build_basis(mu, n)
    imap = IntervalMap(-3.0, 5.0)
    sys_ = semidiscrete.assemble(basis, SYSTEMS[system], imap)
    ops, edge_eta, edge_u = reference_assemble(basis, SYSTEMS[system], imap)
    assert np.array_equal(sys_.ops, ops)
    assert np.array_equal(sys_.edge_eta, edge_eta)
    assert np.array_equal(sys_.edge_u, edge_u)
