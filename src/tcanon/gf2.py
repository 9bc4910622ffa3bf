"""GF(2) linear algebra on int-encoded bit vectors.

A vector is a Python int; bit i is coordinate i.  A matrix is a list of
row ints, and the image of v is the XOR of the rows selected by the set
bits of v (row-vector convention).

Every solver is add_constraint applied once per equation <v, u> = b,
<v, u> = |v & u| mod 2, to an echelon basis of the solutions so far:
vector j holds the j-th free coordinate and no other.  That basis is
unique, so it does not depend on the order of the equations.
"""

from __future__ import annotations


def combine(rows: list[int], bits: int) -> int:
    """XOR of the rows the set bits of bits select: bit i picks rows[i].
    This is the image of the vector bits under the matrix rows."""
    v = 0
    for row in rows:
        if bits & 1:
            v ^= row
        bits >>= 1
    return v


def add_constraint(basis: list[int], u: int) -> int | None:
    """Cut the echelon basis, which starts as the unit vectors in order,
    down in place to <v, u> = 0.  The last vector with an odd dot is XORed
    into the other odd ones, removed and returned; None if there is none."""
    odd = [i for i, v in enumerate(basis) if (v & u).bit_count() & 1]
    if not odd:
        return None
    p = basis.pop(odd.pop())
    for i in odd:
        basis[i] ^= p
    return p


def rank(vectors) -> int:
    """Dimension of the span; min(v, v ^ b) clears b's top bit from v."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def solve_affine(equations, dim: int):
    """Solve the system <v, u_i> = b_i over GF(2).

    equations is an iterable of (u_i, b_i) pairs.  Returns a pair
    (particular, nullspace_basis), or None when inconsistent.  The full
    solution set is particular XOR any combination of basis vectors;
    particular is the solution that is zero on every free coordinate.
    """
    particular = 0
    basis = [1 << f for f in range(dim)]
    for u, b in equations:
        p = add_constraint(basis, u)
        if (particular & u).bit_count() & 1 != b:
            if p is None:
                return None
            particular ^= p
    return particular, basis


def nullspace(vectors, dim: int) -> list[int]:
    """Basis of {v : <v, u> = 0 for every u in vectors}."""
    solved = solve_affine(((u, 0) for u in vectors), dim)
    assert solved is not None
    return solved[1]
