import random

from tcanon import gf2


def test_rank_and_span():
    vecs = [0b110, 0b011, 0b101]  # third is the sum of the first two
    assert gf2.rank(vecs) == 2
    basis = gf2.row_basis(vecs)
    assert len(basis) == 2
    assert gf2.reduce_vector(basis, 0b101) == 0
    assert gf2.reduce_vector(basis, 0) == 0
    assert gf2.reduce_vector(basis, 0b111) != 0


def test_reduce_vector_gives_zero_exactly_on_span_members():
    basis = gf2.row_basis([0b1100, 0b0110])
    assert gf2.reduce_vector(basis, 0b1010) == 0
    assert gf2.reduce_vector(basis, 0b0001) != 0


def test_solve_affine_finds_a_solution_and_detects_inconsistency():
    # x0 + x1 = 1, x1 + x2 = 0 over 3 unknowns (bit i of the mask = x_i)
    sol = gf2.solve_affine([(0b011, 1), (0b110, 0)], 3)
    assert sol is not None
    particular, null = sol
    assert (particular & 0b011).bit_count() & 1 == 1
    assert (particular & 0b110).bit_count() & 1 == 0
    for v in null:
        assert (v & 0b011).bit_count() & 1 == 0
        assert (v & 0b110).bit_count() & 1 == 0
    # 1 + 1 = 2 unknowns pinned, one free direction
    assert len(null) == 1

    assert gf2.solve_affine([(0b01, 0), (0b01, 1)], 2) is None


def test_solve_affine_every_affine_combination_solves():
    rng = random.Random(11)
    for _ in range(50):
        dim = rng.randrange(1, 9)
        eqs = [(rng.randrange(1 << dim), rng.randrange(2))
               for _ in range(rng.randrange(1, 6))]
        sol = gf2.solve_affine(eqs, dim)
        if sol is None:
            continue
        particular, null = sol
        x = particular
        for v in null:
            if rng.randrange(2):
                x ^= v
        for mask, rhs in eqs:
            assert (x & mask).bit_count() & 1 == rhs


def test_nullspace_kills_every_row_and_has_full_complement():
    rng = random.Random(23)
    for _ in range(50):
        dim = rng.randrange(1, 10)
        rows = [rng.randrange(1 << dim) for _ in range(rng.randrange(0, 6))]
        null = gf2.nullspace(rows, dim)
        assert len(null) == dim - gf2.rank(rows)
        for v in null:
            for r in rows:
                assert (v & r).bit_count() & 1 == 0
        assert gf2.rank(null) == len(null)

