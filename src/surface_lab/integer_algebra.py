"""Exact integer matrix algebra: Smith normal form, cokernels, ranks.

A matrix is a sequence of integer rows (lists or tuples, all of one
length), and its width is the length of its first row, 0 for no rows.
Everything here runs on Python integers, so there is no overflow and no
floating point anywhere.

The invariant factors come from sparse elimination: rows are
{column: value} dicts without zeros, as the package's matrices (group
presentations, divisor spans) are mostly zero, and only the distinct
nonzero rows are kept, since a repeated row adds nothing to the row
lattice (the 29x13 abelianization relations have 20).  A first forward
pass retires every row that holds a unit p = +-1: q = x * p is the exact
quotient x / p, so subtracting q times the row clears p's column from
every other row, and the row then leaves as a diagonal entry 1.  A unit
that only appears in a row the pass has already gone by is left to the
next step.  On what is left, each step takes an entry of least absolute
value as pivot, stopping at the first unit, and clears its column with
row operations; a smaller remainder becomes the pivot.  Then the pivot
row is reduced modulo the pivot.  With the column clear, those column
operations touch no other row, and a smaller remainder becomes the pivot
again.  Each |pivot| emitted is a diagonal entry, and replacing pairs of
entries by their gcd and lcm makes the diagonal a divisibility chain
without changing the group it presents.

With transforms=True a dense reduction carries U and V as well.  Its
pivot is the first entry of minimal absolute value, again stopping at a
unit, and a divisibility pass pulls any row the pivot does not divide
into the pivot row; a unit pivot divides everything, so it skips that.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from ._record import record

Rows = Sequence[Sequence[int]]


@record
class SmithForm:
    """Result of a Smith reduction U @ M @ V = diag(diagonal).

    diagonal is the tuple of nonzero invariant factors d_1 | d_2 | ... | d_k,
    all positive; every construction checks the chain.  U and V are
    unimodular tuples of row tuples when transforms were requested (the
    dense reduction), otherwise None.
    """

    diagonal: tuple[int, ...]
    left: tuple[tuple[int, ...], ...] | None = None
    right: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        for a, b in zip(self.diagonal, self.diagonal[1:]):
            if a <= 0 or b % a != 0:
                raise ValueError(f"not a divisibility chain: {self.diagonal}")
        if self.diagonal and self.diagonal[-1] <= 0:
            raise ValueError(f"not a divisibility chain: {self.diagonal}")


@record
class FinAbGroup:
    """A finitely generated abelian group Z^free_rank x prod Z/d_i.

    torsion holds the invariant factors in divisibility order, each > 1.
    Two values compare equal iff the groups are isomorphic.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion not a divisibility chain: {self.torsion}")
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"unit or invalid torsion factor {d}")

    def order(self) -> int | None:
        """Group order, or None for infinite groups."""
        if self.free_rank > 0:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def __str__(self) -> str:
        parts: list[str] = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        i = 0
        while i < len(self.torsion):
            j = i
            while j < len(self.torsion) and self.torsion[j] == self.torsion[i]:
                j += 1
            count = j - i
            base = f"Z/{self.torsion[i]}"
            parts.append(base if count == 1 else f"({base})^{count}")
            i = j
        return " x ".join(parts) if parts else "0"


def smith_normal_form(m: Rows, *, transforms: bool = False) -> SmithForm:
    """Smith normal form over Z.

    Returns the nonzero invariant factors as a divisibility chain, by
    sparse elimination of the distinct nonzero rows: one pass retires the
    rows holding a +-1 entry, then least-|x| pivots reduce the rest.
    With transforms=True the dense reduction runs instead and also
    returns unimodular U (rows x rows) and V (cols x cols) with
    U @ m @ V equal to the padded diagonal matrix.
    """
    if transforms:
        return _dense_smith(m)
    # a repeated row adds nothing to the row lattice
    rows = [r for row in dict.fromkeys(map(tuple, m)) if (r := {j: x for j, x in enumerate(row) if x})]
    units, factors = 0, []
    # one forward pass retires each row that holds a unit p: q = x * p is
    # x / p, so subtracting q times the row zeroes column pj (popped) in
    # every other row; column operations then reduce the row to p alone,
    # touching no other row, and it leaves as a diagonal entry 1
    for row in rows:
        for pj, p in row.items():
            if p == 1 or p == -1:
                break
        else:
            continue
        pivot = row.copy()
        row.clear()
        del pivot[pj]
        units += 1
        for other in rows:
            if pj in other:
                q = other.pop(pj) * p
                for k, y in pivot.items():
                    z = other.get(k, 0) - q * y
                    if z:
                        other[k] = z
                    else:
                        del other[k]
    rows = [row for row in rows if row]
    while rows:
        # an entry of least absolute value, stopping at the first unit
        best = 0
        for i, row in enumerate(rows):
            for j, x in row.items():
                if not best or abs(x) < best:
                    best, pi, pj = abs(x), i, j
                    if best == 1:
                        break
            if best == 1:
                break
        pivot = rows.pop(pi)
        while True:
            p = pivot[pj]
            # clear column pj; a nonzero remainder is smaller than the
            # pivot, so its row becomes the pivot row
            for i, row in enumerate(rows):
                x = row.get(pj)
                if x is None:
                    continue
                q = x // p
                if q:
                    for k, y in pivot.items():
                        z = row.get(k, 0) - q * y
                        if z:
                            row[k] = z
                        else:
                            del row[k]
                if pj in row:
                    rows[i], pivot = pivot, row
                    break
            else:
                # with the column clear, column operations reduce only the
                # pivot row; the least nonzero remainder becomes the pivot
                rest = {k: y % p for k, y in pivot.items() if y % p}
                if not rest:
                    break
                pivot = {pj: p, **rest}
                pj = min(rest, key=lambda k: abs(rest[k]))
        if abs(p) == 1:
            units += 1
        else:
            factors.append(abs(p))
        rows = [row for row in rows if row]
    # a diagonal is a chain once each pair is replaced by its gcd and lcm
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] // g * factors[j]
    return SmithForm((1,) * units + tuple(factors))


def _dense_smith(m: Rows) -> SmithForm:
    """smith_normal_form(m, transforms=True): dense unit-pivot reduction
    that carries U and V."""
    r, c = len(m), len(m[0]) if m else 0
    a = [list(row) for row in m]
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]

    # row operations act on a and U, column operations on a and V
    def row_op(dst: int, src: int, k: int) -> None:
        for x in (a, u):
            x[dst] = [p + k * q for p, q in zip(x[dst], x[src])]

    def col_op(dst: int, src: int, k: int) -> None:
        for x in (a, v):
            for row in x:
                row[dst] += k * row[src]

    def swap_rows(i: int, j: int) -> None:
        for x in (a, u):
            x[i], x[j] = x[j], x[i]

    def swap_cols(i: int, j: int) -> None:
        for x in (a, v):
            for row in x:
                row[i], row[j] = row[j], row[i]

    diag: list[int] = []
    t = 0
    while t < min(r, c):
        # locate the first nonzero entry of minimal absolute value in
        # a[t:, t:]; no entry beats a unit, so the search stops at one
        pivot = None
        best = None
        for i in range(t, r):
            row = a[i]
            for j in range(t, c):
                val = abs(row[j])
                if val and (best is None or val < best):
                    best = val
                    pivot = (i, j)
                    if val == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        while True:
            # leave remainders mod the pivot along column t and row t
            p = a[t][t]
            for i in range(t + 1, r):
                q = a[i][t] // p
                if q:
                    row_op(i, t, -q)
            for j in range(t + 1, c):
                q = a[t][j] // p
                if q:
                    col_op(j, t, -q)
            # promote the smallest surviving remainder, rows first; each
            # promotion strictly shrinks |pivot|, so this loop terminates
            left = [(abs(a[i][t]), 0, i) for i in range(t + 1, r) if a[i][t]]
            left += [(abs(a[t][j]), 1, j) for j in range(t + 1, c) if a[t][j]]
            if left:
                _, is_col, k = min(left)
                (swap_cols if is_col else swap_rows)(t, k)
                continue
            # pivot must divide every remaining entry; pulling an offending
            # row into the cleared row t forces another strict shrink.  A
            # unit divides everything.
            if abs(p) == 1:
                break
            offender = next((i for i in range(t + 1, r) if any(x % p for x in a[i][t + 1:])), None)
            if offender is None:
                break
            row_op(t, offender, 1)

        if a[t][t] < 0:
            for x in (a, u):
                x[t] = [-q for q in x[t]]
        diag.append(a[t][t])
        t += 1

    return SmithForm(tuple(diag), tuple(map(tuple, u)), tuple(map(tuple, v)))


def cokernel(m: Rows) -> FinAbGroup:
    """Cokernel Z^width / rowspan(m) as an abstract abelian group.

    Rows of m are relations among width generators.  Unit invariant
    factors are dropped; the rest become the torsion chain.
    """
    snf = smith_normal_form(m)
    torsion = tuple(d for d in snf.diagonal if d > 1)
    free = (len(m[0]) if m else 0) - len(snf.diagonal)
    return FinAbGroup(free, torsion)


def rank(m: Rows) -> int:
    """Rank over Q."""
    return len(smith_normal_form(m).diagonal)


def rank_mod2(m: Rows) -> int:
    """Rank of m over the field with two elements.

    Rows are packed into bit masks and eliminated greedily.
    """
    basis: list[int] = []
    for bits in map(_mask, m):
        for b in basis:
            if bits & b & -b:
                bits ^= b
        if bits:
            basis.append(bits)
    return len(basis)


def _mask(row: Sequence[int]) -> int:
    """The parities of row as an int, first entry the most significant bit,
    so that k is the mask of the k-th tuple of product((0, 1), repeat=n);
    over F_2, a . b is then (a & b).bit_count() & 1."""
    bits = 0
    for x in row:
        bits = 2 * bits + (x & 1)
    return bits

