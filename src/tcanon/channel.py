"""Pauli-transfer matrices with exact dyadic sqrt2 entries.

The channel of a unitary U on n qubits is the 4^n x 4^n real matrix
U_hat[P, Q] = Tr(P U Q U-dagger) / 2^n over unsigned Pauli labels.  It is
insensitive to global phase and faithful on the quotient, which makes it
the equality arbiter for canonical forms.  Channels are orthogonal, the
channel of a product is the product of the channels, and a channel is a
signed permutation exactly when the unitary is Clifford.

Channels are stored as sparse columns.  Exponentials exp(i*pi*P/8) act on
a column as plane rotations: an entry at a row R commuting with P is
fixed; an anticommuting row splits into 1/sqrt2 at R and +-1/sqrt2 at the
row of i*P*R.  There is one kernel that applies them, in closed form: the
factors of a canonical form commute and are independent, so a column
that starts as +-1 at row R0 ends as 2^w entries of +-2^(-w/2) at the
rows R0 ^ XOR(B), B running over the subsets of the w set elements
anticommuting with R0, and only the signs are computed; each label P is
prepared once per set as (P, P with its halves swapped), as R
anticommutes with P exactly when |R & that| is odd.  A column with w = 0
is the Clifford's own column, kept as it is.  It builds the channels of
canonical forms and of single exponentials; any other product is taken
with multiply, which passes a +-1 factor through without a scalar
product, and an inverse with transpose, since channels are orthogonal.
The transfer scan between two sets compares a candidate column's row set
before its signs.  The readers unit_rows and pauli_spectrum make no
scalar per stored entry.  All of it works on unsigned int labels, a
single exponential's Pauli included: the Clifford's column Q is the
(label, phase) pair conjugate_pauli returns for Q, and the signs are read
off label_product_phase.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb
from typing import TYPE_CHECKING

from .exactnum import (DYADIC_MINUS_ONE, DYADIC_ONE, DYADIC_ZERO,
                       DyadicSqrt2Scalar)
from .pauli import PauliSet, _swap_halves, label_product_phase

if TYPE_CHECKING:
    from .clifford import CliffordTableau


class SpectrumMismatchError(ValueError):
    pass


class ChannelRep:
    """Column-sparse 4^n x 4^n matrix of DyadicSqrt2Scalar.

    cols[q] maps each row label r to the entry U_hat[r, q] when that entry
    is nonzero; zeros are never stored, so equality is dict equality.
    Completed instances are treated as immutable.
    """

    __slots__ = ("n", "cols")

    def __init__(self, n: int, cols: list):
        self.n = n
        self.cols = cols

    @property
    def dim(self) -> int:
        return 1 << (2 * self.n)

    def transpose(self) -> "ChannelRep":
        cols: list = [{} for _ in range(self.dim)]
        for q, col in enumerate(self.cols):
            for r, v in col.items():
                cols[r][q] = v
        return ChannelRep(self.n, cols)

    def multiply(self, other: "ChannelRep") -> "ChannelRep":
        """Matrix product over the stored entries of both sides."""
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} vs {other.n}")
        out = []
        for bcol in other.cols:
            acc: dict[int, DyadicSqrt2Scalar] = {}
            for k, b in bcol.items():
                for r, a in self.cols[k].items():
                    # every entry of a Clifford's channel is +-1; skipping
                    # the product there keeps channel_of_circuit ~15% faster
                    if b is DYADIC_ONE:
                        prod = a
                    elif a is DYADIC_ONE:
                        prod = b
                    elif b is DYADIC_MINUS_ONE:
                        prod = -a
                    elif a is DYADIC_MINUS_ONE:
                        prod = -b
                    else:
                        prod = a * b
                    cur = acc.get(r)
                    acc[r] = prod if cur is None else cur + prod
            out.append({r: v for r, v in acc.items() if not v.is_zero()})
        return ChannelRep(self.n, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChannelRep):
            return NotImplemented
        return self.n == other.n and self.cols == other.cols

    def is_signed_permutation(self) -> bool:
        rows_seen = set()
        for col in self.cols:
            if len(col) != 1:
                return False
            (r, v), = col.items()
            if v.k or v.b or v.a not in (1, -1):
                return False
            rows_seen.add(r)
        return len(rows_seen) == self.dim

    def unit_rows(self) -> list[int]:
        """Row labels holding a +-1 entry, the triple (+-1, 0, 0), ascending."""
        return sorted({r for col in self.cols for r, v in col.items()
                       if not v.k and not v.b and v.a in (1, -1)})

    def pauli_spectrum(self) -> Counter:
        """Multiset of entry magnitudes over the whole matrix, folded from
        the counts of the stored values; zeros are the entries not stored."""
        spec = Counter()
        for v, k in Counter(v for c in self.cols for v in c.values()).items():
            spec[abs(v)] += k
        zeros = self.dim * self.dim - sum(spec.values())
        if zeros:
            spec[DYADIC_ZERO] = zeros
        return spec

    def __repr__(self):
        return f"<ChannelRep n={self.n}>"


def channel_of_clifford(c: CliffordTableau) -> ChannelRep:
    """Signed permutation matrix: column Q carries +-1 at row label(CQC').

    Q = i^|x&z| X^x Z^z, so its image is i^|x&z| times the images of X^x
    and Z^z: 2^(n+1) conjugations, then one product per column.
    """
    n = c.n
    half = range(1 << n)
    zims = [c.conjugate_pauli(z) for z in half]
    cols = []
    for x in half:
        xl, xp = c.conjugate_pauli(x << n)
        for z, (zl, zp) in zip(half, zims):
            t = (x & z).bit_count() + xp + zp + label_product_phase(xl, zl, n)
            cols.append({xl ^ zl: DYADIC_MINUS_ONE if t & 2 else DYADIC_ONE})
    return ChannelRep(n, cols)


def _prepared(labels, n: int) -> list:
    """(P, P with its halves swapped) for each label P, for _form_signs."""
    return [(p, _swap_halves(p, n)) for p in labels]


def _form_signs(r0: int, positive: bool, prepared, n: int) -> dict:
    """{row: entry > 0} of channel(exp(i*pi*P_1/8) ... exp(i*pi*P_m/8))
    applied to +-1 at row r0, for commuting independent labels P_j given
    by _prepared.  Every row r0 ^ XOR(B) anticommutes with the P_j that r0
    does, and each of them doubles the column: a row r keeps its sign, and
    row p ^ r takes it times the sign of i*P*R, which is + exactly when
    P*R = -i * (p ^ r); by independence no two rows meet, so every entry
    is +-2^(-w/2)."""
    signs = {r0: positive}
    for p, swapped in prepared:
        if (r0 & swapped).bit_count() & 1:
            for r, pos in list(signs.items()):
                signs[p ^ r] = pos == (label_product_phase(p, r, n) == 3)
    return signs


@lru_cache(maxsize=None)
def _form_entries(w: int) -> tuple:
    """(+2^(-w/2), -2^(-w/2))."""
    v = DYADIC_ONE
    for _ in range(w):
        v = v.times_inv_sqrt2()
    return v, -v


def _form_channel(labels, cols, n: int) -> ChannelRep:
    """channel(exp(i*pi*P_1/8) ... exp(i*pi*P_m/8)) * S for commuting
    independent labels P_j and the signed permutation S of the +-1
    columns cols.  A column whose row commutes with every P_j is S's own
    column; any other is one _form_signs column."""
    prepared = _prepared(labels, n)
    out = []
    for col in cols:
        (r0, v), = col.items()
        for _, swapped in prepared:
            if (r0 & swapped).bit_count() & 1:
                signs = _form_signs(r0, v.a > 0, prepared, n)
                pos, neg = _form_entries(len(signs).bit_length() - 1)
                out.append({r: pos if s else neg for r, s in signs.items()})
                break
        else:
            out.append(col)
    return ChannelRep(n, out)


def channel_of_exponential(n: int, label: int) -> ChannelRep:
    """Channel of exp(i*pi*P/8) for the positive Pauli P of a label in
    0 < label < 4^n; the channel of its inverse is the transpose."""
    if not 0 < label < 1 << (2 * n):
        raise ValueError(f"label {label} out of range for n={n}")
    identity = [{q: DYADIC_ONE} for q in range(1 << (2 * n))]
    return _form_channel([label], identity, n)


def channel_of_canonical(paulis: PauliSet,
                         clifford: CliffordTableau) -> ChannelRep:
    """Channel of exp(i*pi*P_1/8) ... exp(i*pi*P_m/8) * C for the set
    {P_j} and the tableau C of one width; the closed form starts from the
    signed unit columns of channel(C).
    """
    if paulis.n != clifford.n:
        raise ValueError(f"qubit counts differ: {paulis.n} vs {clifford.n}")
    return _form_channel(paulis.labels, channel_of_clifford(clifford).cols,
                         clifford.n)


@lru_cache(maxsize=None)
def reference_spectrum(n: int, m: int) -> Counter:
    """Spectrum of the form ({Z on the first m qubits}, identity), counted:
    C(m, w) 4^n / 2^m columns anticommute with exactly w of the factors,
    by the X bits of their first m qubits, and each holds 2^w entries of
    magnitude 2^(-w/2); zeros fill the rest of the 16^n."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    spec = Counter({_form_entries(w)[0]: comb(m, w) << (2 * n - m + w)
                    for w in range(m + 1)})
    spec[DYADIC_ZERO] = (1 << (4 * n)) - sum(spec.values())
    return spec


def infer_t_count(rep: ChannelRep) -> int:
    """Read the T-count off the channel spectrum.

    A form with m factors has the m + 1 nonzero magnitudes (1/sqrt2)^k,
    k = 0..m, and the spectrum of the reference form with m factors; any
    other spectrum raises SpectrumMismatchError.
    """
    spec = rep.pauli_spectrum()
    m = sum(not v.is_zero() for v in spec) - 1
    if not 0 <= m <= rep.n or spec != reference_spectrum(rep.n, m):
        raise SpectrumMismatchError(
            f"spectrum does not match any T-depth-one form (candidate m={m})")
    return m


def exponential_transfer_is_signed_permutation(set_a: PauliSet,
                                               set_b: PauliSet) -> bool:
    """Whether channel(A)^T channel(B) is a signed permutation, for the
    exponential products A and B of two Pauli sets (identity Cliffords).

    Channels are orthogonal, so column q of the product is a signed unit
    vector exactly when column b_q of channel(B) is +-a_q' for some q';
    a_q' has an entry at q', so q' ranges over the support of b_q (q
    first).  Column a_q' has its entries at the rows q' ^ XOR(S), S
    running over the subsets of the elements of A anticommuting with q',
    so that row set is compared with b_q's first, and only on a match is
    a_q' started with b_q's sign at q' to compare sign dicts.  Column 0
    of every channel is +1 at row 0, so the scan starts at q = 1 and
    stops at the first unmatched column; no scalar is made.
    """
    if set_a.n != set_b.n:
        raise ValueError(f"qubit counts differ: {set_a.n} vs {set_b.n}")
    n = set_a.n
    prep_a, prep_b = _prepared(set_a.labels, n), _prepared(set_b.labels, n)
    for q in range(1, 1 << (2 * n)):
        b = _form_signs(q, True, prep_b, n)
        rows_b = b.keys()
        for r, pos in b.items():
            rows = {r}
            for p, swapped in prep_a:
                if (r & swapped).bit_count() & 1:
                    rows |= {p ^ x for x in rows}
            if rows == rows_b and _form_signs(r, pos, prep_a, n) == b:
                break
        else:
            return False
    return True
