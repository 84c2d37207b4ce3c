"""Exact integer matrix algebra: Smith normal form, cokernels, ranks.

Everything here runs on Python integers, so there is no overflow and no
floating point anywhere.  The Smith reduction uses a smallest-pivot
strategy to keep intermediate entries from exploding on the small dense
matrices this package produces (group presentations, divisor spans).
The pivot search stops at the first entry of absolute value 1: a full
scan keeps the first entry of minimal absolute value, and no nonzero
integer is smaller, so that is the pivot the full scan picks and the
transforms do not change.  A unit pivot divides every entry, so its
divisibility pass is skipped.
"""

from __future__ import annotations

from ._record import record


@record
class IntMatrix:
    """An immutable integer matrix stored as a tuple of row tuples."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        for row in self.entries:
            for v in row:
                if not isinstance(v, int):
                    raise TypeError(f"non-integer entry {v!r}")

    @classmethod
    def from_rows(cls, rows: list[list[int]] | list[tuple[int, ...]]) -> "IntMatrix":
        return cls(tuple(tuple(map(int, row)) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


@record
class SmithForm:
    """Result of a Smith reduction U @ M @ V = diag(diagonal).

    diagonal is the tuple of nonzero invariant factors d_1 | d_2 | ... | d_k,
    all positive.  U and V are unimodular when transforms were requested,
    otherwise None.
    """

    diagonal: tuple[int, ...]
    left: IntMatrix | None = None
    right: IntMatrix | None = None

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


def smith_normal_form(m: IntMatrix, *, transforms: bool = False) -> SmithForm:
    """Smith normal form over Z.

    Returns the nonzero invariant factors as a divisibility chain.  With
    transforms=True also returns unimodular U (rows x rows) and
    V (cols x cols) with U @ m @ V equal to the padded diagonal matrix.

    Pivots are chosen with minimal absolute value over the remaining
    submatrix, which keeps coefficient growth tame.
    """
    r, c = m.nrows, m.ncols
    a = m.to_lists()
    u = IntMatrix.identity(r).to_lists() if transforms else None
    v = IntMatrix.identity(c).to_lists() if transforms else None
    # row operations act on a and U, column operations on a and V
    row_mats = [a] if u is None else [a, u]
    col_mats = [a] if v is None else [a, v]

    def row_op(dst: int, src: int, k: int) -> None:
        for x in row_mats:
            x[dst] = [p + k * q for p, q in zip(x[dst], x[src])]

    def col_op(dst: int, src: int, k: int) -> None:
        for x in col_mats:
            for row in x:
                row[dst] += k * row[src]

    def swap_rows(i: int, j: int) -> None:
        for x in row_mats:
            x[i], x[j] = x[j], x[i]

    def swap_cols(i: int, j: int) -> None:
        for x in col_mats:
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
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
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
            # promote the smallest surviving remainder; each promotion
            # strictly shrinks |pivot|, so this loop terminates
            best = None
            promote = None
            for i in range(t + 1, r):
                if a[i][t] and (best is None or abs(a[i][t]) < best):
                    best = abs(a[i][t])
                    promote = ("row", i)
            for j in range(t + 1, c):
                if a[t][j] and (best is None or abs(a[t][j]) < best):
                    best = abs(a[t][j])
                    promote = ("col", j)
            if promote is not None:
                if promote[0] == "row":
                    swap_rows(t, promote[1])
                else:
                    swap_cols(t, promote[1])
                continue
            # pivot must divide every remaining entry; pulling an offending
            # row into the cleared row t forces another strict shrink.  A
            # unit divides everything.
            if abs(a[t][t]) == 1:
                break
            offender = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, 1)

        if a[t][t] < 0:
            for x in row_mats:
                x[t] = [-q for q in x[t]]
        diag.append(a[t][t])
        t += 1

    left = IntMatrix.from_rows(u) if u is not None else None
    right = IntMatrix.from_rows(v) if v is not None else None
    return SmithForm(tuple(diag), left, right)


def cokernel(m: IntMatrix) -> FinAbGroup:
    """Cokernel Z^ncols / rowspan(m) as an abstract abelian group.

    Rows of m are relations among ncols generators.  Unit invariant
    factors are dropped; the rest become the torsion chain.
    """
    snf = smith_normal_form(m)
    torsion = tuple(d for d in snf.diagonal if d > 1)
    free = m.ncols - len(snf.diagonal)
    return FinAbGroup(free, torsion)


def rank(m: IntMatrix) -> int:
    """Rank over Q."""
    return len(smith_normal_form(m).diagonal)


def rank_mod2(m: IntMatrix) -> int:
    """Rank of m over the field with two elements.

    Rows are packed into bit masks and eliminated greedily.
    """
    masks: list[int] = []
    for row in m.entries:
        bits = 0
        for j, val in enumerate(row):
            if val & 1:
                bits |= 1 << j
        masks.append(bits)
    rk = 0
    basis: list[int] = []
    for bits in masks:
        for b in basis:
            low = b & -b
            if bits & low:
                bits ^= b
        if bits:
            basis.append(bits)
            rk += 1
    return rk

