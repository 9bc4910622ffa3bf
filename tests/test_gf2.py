import itertools
import random

from tcanon import gf2


def dot(v, u):
    return (v & u).bit_count() & 1


def span(vectors):
    out = {0}
    for v in vectors:
        out |= {w ^ v for w in out}
    return out


def solutions(equations, dim):
    return {v for v in range(1 << dim)
            if all(dot(v, u) == b for u, b in equations)}


def free_mask(equations, dim):
    """Coordinates that are no top bit of a vector in the span of the
    equations' left-hand sides: the reduced echelon form's free ones."""
    pivots = {w.bit_length() - 1 for w in span(u for u, _ in equations) if w}
    return sum(1 << f for f in range(dim) if f not in pivots)


def small_systems():
    """Every system with dim <= 3 and at most 3 equations."""
    for dim in range(4):
        eqs = [(u, b) for u in range(1 << dim) for b in (0, 1)]
        for k in range(4):
            for system in itertools.product(eqs, repeat=k):
                yield list(system), dim


def seeded_systems(seed, count=300):
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randrange(0, 9)
        yield [(rng.randrange(1 << dim), rng.randrange(2))
               for _ in range(rng.randrange(0, 8))], dim


def check_against_brute_force(equations, dim):
    want = solutions(equations, dim)
    solved = gf2.solve_affine(equations, dim)
    if not want:
        assert solved is None
        return
    assert solved is not None
    particular, basis = solved
    got = {particular ^ gf2.combine(basis, bits)
           for bits in range(1 << len(basis))}
    assert len(got) == 1 << len(basis) and got == want
    free = free_mask(equations, dim)
    assert particular & free == 0
    # vector j carries the j-th free coordinate and no other
    assert [v & free for v in basis] == [1 << f for f in range(dim)
                                          if (free >> f) & 1]


def test_rank_and_span():
    vecs = [0b110, 0b011, 0b101]  # third is the sum of the first two
    assert gf2.rank(vecs) == 2


def test_rank_is_the_log_of_the_span_size():
    for equations, _dim in seeded_systems(31):
        vectors = [u for u, _ in equations]
        assert 1 << gf2.rank(vectors) == len(span(vectors))


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


def test_solve_affine_matches_brute_force_on_every_small_system():
    for equations, dim in small_systems():
        check_against_brute_force(equations, dim)


def test_solve_affine_matches_brute_force_on_seeded_systems():
    for equations, dim in seeded_systems(17):
        check_against_brute_force(equations, dim)


def test_solve_affine_does_not_depend_on_the_equation_order():
    # the reduced echelon basis is unique; the seeded samplers rely on it
    rng = random.Random(41)
    for equations, dim in seeded_systems(43):
        shuffled = equations[:]
        rng.shuffle(shuffled)
        assert gf2.solve_affine(shuffled, dim) == gf2.solve_affine(equations, dim)


def test_add_constraint_returns_the_removed_vector():
    basis = [1 << f for f in range(4)]
    assert gf2.add_constraint(basis, 0b0110) == 0b0100
    assert basis == [0b0001, 0b0110, 0b1000]
    assert gf2.add_constraint(basis, 0b0110) is None
    assert gf2.add_constraint(basis, 0) is None
    assert basis == [0b0001, 0b0110, 0b1000]


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
