"""GF(2) linear algebra on int-encoded bit vectors.

A vector is a Python int; bit i is coordinate i.  A matrix is a list of
row ints, and the image of v is the XOR of the rows selected by the set
bits of v (row-vector convention).
"""

from __future__ import annotations


def pivot_bit(v: int) -> int:
    # highest set bit; v must be nonzero
    return v.bit_length() - 1


def combine(rows: list[int], bits: int) -> int:
    """XOR of the rows the set bits of bits select: bit i picks rows[i].
    This is the image of the vector bits under the matrix rows."""
    v = 0
    for row in rows:
        if bits & 1:
            v ^= row
        bits >>= 1
    return v


def reduce_vector(basis: list[int], v: int) -> int:
    """Reduce v against an echelon basis; 0 means v lies in the span."""
    for b in basis:
        if (v >> pivot_bit(b)) & 1:
            v ^= b
    return v


def row_basis(vectors) -> list[int]:
    """Echelon basis (descending pivots) of the span of the inputs."""
    basis: list[int] = []
    for v in vectors:
        v = reduce_vector(basis, v)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def rank(vectors) -> int:
    return len(row_basis(vectors))


def solve_affine(equations, dim: int):
    """Solve the system <v, u_i> = b_i over GF(2), <v, u> = |v & u| mod 2.

    equations is an iterable of (u_i, b_i) pairs.  Returns a pair
    (particular, nullspace_basis), or None when inconsistent.  The full
    solution set is particular XOR any combination of basis vectors.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for vec, rhs in equations:
        for p, (pvec, prhs) in pivots.items():
            if (vec >> p) & 1:
                vec ^= pvec
                rhs ^= prhs
        if vec == 0:
            if rhs:
                return None
            continue
        p = pivot_bit(vec)
        # keep rows mutually reduced so every pivot column is exclusive
        for q in list(pivots):
            qvec, qrhs = pivots[q]
            if (qvec >> p) & 1:
                pivots[q] = (qvec ^ vec, qrhs ^ rhs)
        pivots[p] = (vec, rhs)
    particular = 0
    for p, (_vec, rhs) in pivots.items():
        if rhs:
            particular |= 1 << p
    basis = []
    for f in range(dim):
        if f in pivots:
            continue
        v = 1 << f
        for p, (pvec, _rhs) in pivots.items():
            if (pvec >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return particular, basis


def nullspace(vectors, dim: int) -> list[int]:
    """Basis of {v : <v, u> = 0 for every u in vectors}."""
    solved = solve_affine(((u, 0) for u in vectors), dim)
    assert solved is not None
    return solved[1]
