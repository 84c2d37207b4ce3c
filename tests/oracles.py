"""Test oracles: slow or redundant routes to quantities the package
computes another way, and the helpers that only the tests need (a record
copy with changed fields, a change of lift, composition of affine maps,
subgroup spans and membership, the argparse parser the CLI's own parser
replaced, the json.dumps call its JSON writer replaced, ...).
`surface-lab verify` never calls them, so they live with the tests.
"""

from __future__ import annotations

import argparse
import cmath
import json
from collections import deque
from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations, product
from math import gcd, pi
from operator import mul, xor
import random

from surface_lab._record import record
from surface_lab.affine_groups import AffineElement, abelianize_extension, standard_generators
from surface_lab.checks import RunConfig
from surface_lab.integer_algebra import FinAbGroup, rank_mod2
from surface_lab.legendre_numerics import PoleAtLatticePoint, _check_tau, _reduce
from surface_lab.orbifold_covers import (
    BranchedCoverData,
    IdentityElement,
    Vec,
    _check_vec,
    _quotient_genus,
    orbifold_abelianization,
)
from surface_lab.picard_lattice import E, ConfigCatalog, DivisorClass, intersect


def replace(obj, **changes):
    """A copy of the record obj with some fields changed; __post_init__ runs."""
    fields = {n: getattr(obj, n) for n in obj.__record_fields__}
    return obj.__class__(**{**fields, **changes})


def groups_isomorphic(a: FinAbGroup, b: FinAbGroup) -> bool:
    """Isomorphism test; invariant factors are a complete invariant."""
    return a.free_rank == b.free_rank and a.torsion == b.torsion


Rows = Sequence[Sequence[int]]


def width(m: Rows) -> int:
    """Number of columns of a matrix given by its rows (0 for no rows)."""
    return len(m[0]) if m else 0


def matmul(*factors: Rows) -> tuple[tuple[int, ...], ...]:
    """Exact product of integer matrices, left to right, as row tuples."""
    out = tuple(map(tuple, factors[0]))
    for m in factors[1:]:
        if width(out) != len(m):
            raise ValueError("shape mismatch")
        cols = tuple(zip(*m))
        out = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in out
        )
    return out


def determinant(m: Rows) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    n = len(m)
    if width(m) != n:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def gcd_of_minors(m: Rows, k: int) -> int:
    """gcd of all k x k minors (0 if every minor vanishes).

    Exponential in the matrix size, so only suitable as a test oracle on
    small matrices.
    """
    if k == 0:
        return 1
    g = 0
    for rows in combinations(range(len(m)), k):
        for cols in combinations(range(width(m)), k):
            sub = [[m[i][j] for j in cols] for i in rows]
            g = gcd(g, determinant(sub))
            if g == 1:
                return 1
    return g


def symmetric_signature(gram: Rows) -> tuple[int, int, int]:
    """Signature (positive, negative, zero) of a symmetric integer matrix.

    Congruence diagonalization over the rationals; exact, no eigenvalues.
    """
    n = len(gram)
    if width(gram) != n:
        raise ValueError("gram matrix must be square")
    a = [[Fraction(v) for v in row] for row in gram]
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    pos = neg = zero = 0
    for k in range(n):
        if a[k][k] == 0:
            # bring a nonzero diagonal entry to position k if possible
            swapped = False
            for i in range(k + 1, n):
                if a[i][i] != 0:
                    a[k], a[i] = a[i], a[k]
                    for row in a:
                        row[k], row[i] = row[i], row[k]
                    swapped = True
                    break
            if not swapped:
                # all remaining diagonal entries vanish; use an off-diagonal
                found = None
                for i in range(k, n):
                    for j in range(i + 1, n):
                        if a[i][j] != 0:
                            found = (i, j)
                            break
                    if found:
                        break
                if found is None:
                    zero += n - k
                    break
                i, j = found
                # row/col i += row/col j creates 2*a[i][j] on the diagonal
                for col in range(n):
                    a[i][col] += a[j][col]
                for row in a:
                    row[i] += row[j]
                if i != k:
                    a[k], a[i] = a[i], a[k]
                    for row in a:
                        row[k], row[i] = row[i], row[k]
        pivot = a[k][k]
        if pivot == 0:
            zero += 1
            continue
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                factor = a[i][k] / pivot
                for col in range(n):
                    a[i][col] -= factor * a[k][col]
                for row in a:
                    row[i] -= factor * row[k]
    return pos, neg, zero


def sign_condition_witnesses(gens: Sequence[AffineElement]) -> list[tuple[int, ...]] | None:
    """For each coordinate, a generator word (as index tuple) negating it.

    Returns None if some coordinate is never negated.  Words are found by
    breadth-first search over products, so they are shortest.
    """
    n = gens[0].n
    start = (0,) * n
    seen: dict[tuple[int, ...], tuple[int, ...]] = {start: ()}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for idx, g in enumerate(gens):
            pattern = tuple(1 if s == -1 else 0 for s in g.signs)
            w = tuple(a ^ b for a, b in zip(pattern, v))
            if w not in seen:
                seen[w] = seen[v] + (idx,)
                queue.append(w)
    witnesses: list[tuple[int, ...]] = []
    for i in range(n):
        best = None
        for v, word in seen.items():
            if v[i] and (best is None or len(word) < len(best)):
                best = word
        if best is None:
            return None
        witnesses.append(best)
    return witnesses


def translate(g: AffineElement, v: tuple[int, ...]) -> AffineElement:
    """Right multiplication of g by the lattice translation v, in
    full-lattice coordinates: another lift of the same element of the
    quotient group."""
    if len(v) != 2 * g.n:
        raise ValueError("dimension mismatch")
    trans = tuple(a + 2 * s * b for s, a, b in zip(g.signs * 2, g.trans, v))
    return AffineElement(g.signs, trans)


def compose(g: AffineElement, h: AffineElement) -> AffineElement:
    """g after h: (eps, t)(eps', t') = (eps eps', eps t' + t)."""
    if len(g.signs) != len(h.signs):
        raise ValueError("dimension mismatch")
    signs = tuple(map(mul, g.signs, h.signs))
    # signs * 2 lines up sign_at(k) with coordinate k
    trans = tuple(s * b + a for s, a, b in zip(g.signs * 2, g.trans, h.trans))
    return AffineElement(signs, trans)


def mod2_actions_by_composition(
    gens: Sequence[AffineElement],
) -> dict[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """The composition route to character_calculus._mod2_actions: each 0/1
    word in gens[1:], in product order, is composed letter by letter with
    compose, and its sign and half-translations are read mod 2 on the
    curve coordinates 2 and 3."""
    n = gens[0].n
    actions = {}
    for word in product((0, 1), repeat=len(gens) - 1):
        element = AffineElement((1,) * n, (0,) * (2 * n))
        for g, e in zip(gens[1:], word):
            if e:
                element = compose(element, g)
        actions[word] = tuple(
            (element.sign_at(c), element.trans[c] % 2, element.trans[n + c] % 2) for c in (2, 3)
        )
    return actions


def branch_words_by_composition(gens: Sequence[AffineElement]) -> tuple[tuple[int, ...], ...]:
    """The any/all route to the words d_factor_branch_elements chooses: the
    nonzero words whose composed action neither translates a +1 curve
    coordinate nor is the free double involution (both signs -1, no
    translation), in product order."""
    chosen = []
    for word, action in mod2_actions_by_composition(gens).items():
        free_translation = any(s == 1 and (u or v) for s, u, v in action)
        double_involution = all(s == -1 and not (u or v) for s, u, v in action)
        if any(word) and not (free_translation or double_involution):
            chosen.append(word)
    return tuple(chosen)


def random_generators(rng: random.Random, count: int) -> tuple[AffineElement, ...]:
    """count affine maps of C^4 with random signs and half-translations in
    [-3, 3], negative ones included so that parities of negatives are read."""
    return tuple(
        AffineElement(
            tuple(rng.choice((-1, 1)) for _ in range(4)),
            tuple(rng.randint(-3, 3) for _ in range(8)),
        )
        for _ in range(count)
    )


def branch_count(cover: BranchedCoverData) -> int:
    """m, the number of branch points."""
    return len(cover.branch_images)


@record
class Subgroup:
    """A subgroup of F_2^n given by a generating set (possibly redundant)."""

    n: int
    gens: tuple[Vec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "gens", tuple(_check_vec(v, self.n) for v in self.gens)
        )

    def elements(self) -> set[Vec]:
        span = {(0,) * self.n}
        for g in self.gens:
            span |= {tuple(map(xor, g, v)) for v in span}
        return span


def kernel_basis(functional: Vec, n: int) -> tuple[Vec, ...]:
    """A basis of the kernel of a nonzero functional on F_2^n."""
    pivot = next(i for i, x in enumerate(functional) if x)
    basis: list[Vec] = []
    for j in range(n):
        if j == pivot:
            continue
        v = [0] * n
        v[j] = 1
        if functional[j]:
            v[pivot] = 1
        basis.append(tuple(v))
    return tuple(basis)


def quotient_genus(cover: BranchedCoverData, sub: Subgroup) -> int:
    """Genus of (total space) / H for the subgroup H = sub."""
    if sub.n != cover.n:
        raise ValueError("subgroup dimension mismatch")
    elems = sub.elements()
    surviving = sum(1 for v in cover.branch_images if v not in elems)
    return _quotient_genus((1 << cover.n) // len(elems), surviving)


def corank1_histogram(cover: BranchedCoverData) -> dict[tuple[int, int], int]:
    """The span route to classify_corank1_subgroups: each index-2 subgroup
    is built as the span of a kernel basis, membership is a set lookup and
    the genus comes from quotient_genus."""
    histogram: dict[tuple[int, int], int] = {}
    for functional in product((0, 1), repeat=cover.n):
        if any(functional):
            sub = Subgroup(cover.n, kernel_basis(functional, cover.n))
            elems = sub.elements()
            inside = sum(1 for v in cover.branch_images if v in elems)
            key = (inside, quotient_genus(cover, sub))
            histogram[key] = histogram.get(key, 0) + 1
    return histogram


def branch_dual_candidates(cover: BranchedCoverData) -> list[list[Vec]]:
    """The tuple route to character_calculus._branch_dual_characters: per
    branch image, every functional of product((0, 1), repeat=n), in that
    order, that pairs it to 0 and each other image to 1."""
    images = cover.branch_images
    return [
        [
            phi
            for phi in product((0, 1), repeat=cover.n)
            if all(sum(map(mul, phi, v)) % 2 == (i != j) for i, v in enumerate(images))
        ]
        for j in range(len(images))
    ]


def pairing_parity(phi: Vec, v: Vec) -> int:
    """The F_2 pairing of a functional with a vector, entry by entry."""
    return sum(p * x for p, x in zip(phi, v, strict=True)) % 2


def validate_by_columns(n: int, images: tuple[Vec, ...]) -> None:
    """The column route to BranchedCoverData's validation: the images sum
    to zero when every coordinate's column sum is even, and they span when
    their rank over F_2 is n; raises what the cover raises, in its order."""
    imgs = tuple(_check_vec(v, n) for v in images)
    for v in imgs:
        if not any(v):
            raise IdentityElement(f"zero branch image in {imgs}")
    if any(sum(column) % 2 for column in zip(*imgs)):
        raise ValueError("branch images must sum to zero")
    if rank_mod2(imgs) != n:
        raise ValueError("branch images must generate the full group")


def random_cover_data(rng: random.Random, n: int) -> BranchedCoverData:
    """Valid branch data over F_2^n: n to n + 3 random nonzero images, then
    their sum when it is nonzero, redrawn until they span F_2^n."""
    while True:
        images = [
            tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(n, n + 3))
        ]
        images = [v for v in images if any(v)]
        total = tuple(sum(column) % 2 for column in zip(*images))
        if any(total):
            images.append(total)
        try:
            return BranchedCoverData(n, tuple(images))
        except ValueError:
            continue


def contains(sub: Subgroup, v: Vec) -> bool:
    """v (read mod 2) lies in sub; a vector of another length is an error."""
    return _check_vec(v, sub.n) in sub.elements()


def homology_bound(gens=None) -> tuple[int, int]:
    """(bound, actual): orbifold cap on the homology order versus the
    computed abelianization order.

    The surface group maps onto the five-point orbifold group extended by
    one extra central involution, and its abelianization adds at most one
    more factor of 2, capping the order at
    2 * |orbifold_abelianization(5) x Z/2| = 2 * (16 * 2) = 64.
    """
    if gens is None:
        gens = standard_generators()
    orb = orbifold_abelianization(5)
    bound = 2 * ((orb.order() or 0) * 2)
    actual = abelianize_extension(gens).order() or 0
    return bound, actual


def homology_bound_check(gens=None) -> bool:
    """True when the computed homology order attains the orbifold bound."""
    bound, actual = homology_bound(gens)
    return bound == actual


def gram_matrix(classes: list[DivisorClass]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(intersect(a, b) for b in classes) for a in classes)


def curve_components(c: ConfigCatalog) -> list[tuple[str, DivisorClass]]:
    """All distinct configuration curves as (name, class) pairs; each is
    rational (genus 0), which the tests check by adjunction."""
    named = [
        ("S1", c.S[0]), ("S2", c.S[1]), ("S3", c.S[2]), ("S4", c.S[3]),
        ("Delta1", c.Delta[0]), ("Delta2", c.Delta[1]), ("Delta3", c.Delta[2]),
        ("f1", c.f[0]), ("f2", c.f[1]), ("f3", c.f[2]),
    ]
    return named + [(f"E{i+1}", E[i]) for i in range(6)]


def branch_component_names() -> tuple[tuple[str, ...], ...]:
    """The curve names of the components of D_1, D_2, D_3, in the order of
    catalog().branch_components; D_3 holds two members f1, f1' of one
    pencil."""
    return (
        ("Delta1", "f2", "S1", "S2"),
        ("Delta2", "f3"),
        ("Delta3", "f1", "f1'", "S3", "S4"),
    )


def standard_cover_data(n: int = 4) -> BranchedCoverData:
    """The generic (Z/2)^n cover with n + 1 branch points: the standard
    basis plus its sum, the all-ones vector."""
    basis = tuple(tuple(int(j == i) for j in range(n)) for i in range(n))
    return BranchedCoverData(n, (*basis, (1,) * n))


def _frame_distance(tau: complex) -> float:
    """min |x + y tau| over the unit square frame max(|x|, |y|) = 1."""
    tr, ti = tau.real, tau.imag

    def edge_x_fixed(x: float) -> float:
        y = max(-1.0, min(1.0, -x * tr / (tr * tr + ti * ti)))
        return abs(x + y * tau)

    def edge_y_fixed(y: float) -> float:
        x = max(-1.0, min(1.0, -y * tr))
        return abs(x + y * tau)

    return min(edge_x_fixed(1), edge_x_fixed(-1), edge_y_fixed(1), edge_y_fixed(-1))


def weierstrass_p_lattice_sum(
    z: complex, tau: complex, *, terms: int = 40
) -> tuple[complex, float]:
    """Brute-force lattice sum oracle: (value, tail bound).

    Sums 1/(z-w)^2 - 1/w^2 over max(|m|, |n|) <= terms.  Pairing w with
    -w bounds each omitted pair by 11.6 |z|^2 / |w|^4, which summed over
    the omitted frames gives the returned tail estimate.
    """
    _check_tau(tau)
    x, y = _reduce(z, tau)
    if max(abs(x), abs(y)) < 1e-12:
        raise PoleAtLatticePoint(f"{z} reduces to a lattice point")
    zr = x + y * tau
    c = _frame_distance(tau)
    if terms * c < 2 * abs(zr):
        raise ValueError("too few terms for a valid tail bound")
    value = 1.0 / zr**2
    for m in range(-terms, terms + 1):
        for n in range(-terms, terms + 1):
            if m or n:
                w = m + n * tau
                value += 1.0 / (zr - w) ** 2 - 1.0 / w**2
    tail = 47.0 * abs(zr) ** 2 / (c**4 * terms**2)
    return value, tail


def sample_points_rejection(tau: complex, tol) -> list[complex]:
    """The sample-point draw as first written, with min() over a tuple of
    distances per draw; the package's sample_points must return the same
    list."""
    rng = random.Random(tol.seed)
    points = []
    while len(points) < tol.samples:
        u, v = rng.random(), rng.random()
        if (
            min(abs(u), abs(u - 0.5), abs(u - 1.0)) > 0.1
            and min(abs(v), abs(v - 0.5), abs(v - 1.0)) > 0.1
        ):
            points.append(u + v * tau)
    return points


def value_slope(frame, z: complex) -> tuple[complex, complex]:
    """(L(z), L'(z)) from one pass over every row of the frame's table, one
    point at a time, updating the powers after every row, the last
    included; the batched passes of the package must return its values and
    slopes bit for bit.  An inverted frame takes the inner frame's pair at
    z / tau through the same Moebius map, with the same float operations."""
    tau, inner = frame.tau, frame.inner
    if inner is not None:
        b, b_hat = frame.b, frame.b_hat
        w, s = value_slope(inner, z / tau)
        return b * (b_hat - w) / (b_hat + w), -2 * b * b_hat / tau * s / ((b_hat + w) * (b_hat + w))
    y = z.imag / tau.imag
    x = z.real - y * tau.real
    w = cmath.exp(2j * pi * (x - round(x) + (y - round(y)) * tau))
    iw = 1 / w
    w2, iw2 = w * w, iw * iw
    p, m, pp, mm = w, iw, w2, iw2  # w^(2n+1), w^-(2n+1), w^(2n+2), w^-(2n+2)
    t2 = d2 = d3 = 0j
    t3 = 1 + 0j
    for c, ck, d, dk in frame.terms:
        t2 += c * (p + m)
        d2 += ck * (p - m)
        t3 += d * (pp + mm)
        d3 += dk * (pp - mm)
        p *= w2
        m *= iw2
        pp *= w2
        mm *= iw2
    return t2 / t3 / frame.null, (d2 * t3 - t2 * d3) * frame.slope / (t3 * t3)


def wp_row_series(frame, z: complex, eps: float) -> complex:
    """wp(z) by the row series of a _NomeFrame, one point at a time: the
    point reduced by x - round(x), as first written, and the rows made
    afresh as running products of frame.q; _NomeFrame.wps, which reduces by
    math.remainder and walks its stored table, must return its values bit
    for bit."""
    tau_r, pi2 = frame.tau_r, pi * pi
    w = z / frame.j
    y = w.imag / tau_r.imag
    x = w.real - y * tau_r.real
    x, y = x - round(x), y - round(y)
    if max(abs(x), abs(y)) < 1e-12:
        raise PoleAtLatticePoint(f"{z} reduces to a lattice point")
    zr = x + y * tau_r
    t = cmath.exp(2j * pi * zr)
    s = cmath.sin(pi * zr)
    total = pi2 / (s * s) - pi2 / 3
    it, qn, tol = 1 / t, frame.q, eps * frame.abs_j2
    for _ in range(400):
        mq = 1 - qn
        const = 2 * qn / (mq * mq)
        u, v = qn * t, qn * it
        mu, mv = 1 - u, 1 - v
        term = -4 * pi2 * (v / (mv * mv) + u / (mu * mu) - const)
        total += term
        if abs(term) < tol:
            return total / frame.j2
        qn *= frame.q
    raise AssertionError("row series did not converge")


def legendre_value(params, z: complex) -> complex:
    """L(z) by the package's theta form, one point at a time."""
    return params.frame.values([z])[0]


def legendre_derivative(params, z: complex, *, eps: float = 1e-14) -> complex:
    """L'(z) = M'(wp(z)) wp'(z) by the chain rule through the row series,
    independent of the theta series the package differentiates."""
    q, s = params.mobius
    w = params.rows.wps([z], eps)[0]
    return (s - q) / ((w + s) * (w + s)) * params.rows.wp_prime(z, eps)


def json_dumps(document) -> str:
    """The report text that `surface_lab.cli._to_json` writes without the
    json module."""
    return json.dumps(document, indent=2, sort_keys=True)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser that `surface_lab.cli.parse_args` replaced; the
    parity test reads each command line with both."""
    parser = argparse.ArgumentParser(
        prog="surface-lab",
        description="Recompute and verify the quantitative claims about the "
        "bidouble-cover surface with K^2 = 7.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run verification checks")
    verify.add_argument(
        "checks",
        nargs="*",
        default=["all"],
        metavar="CHECK",
        help="check names, or 'all' (default)",
    )
    verify.add_argument(
        "--tau",
        action="append",
        metavar="RE+IMi",
        help="modulus for numeric checks; repeatable",
    )
    verify.add_argument("--eps", type=float, default=RunConfig.eps, metavar="F")
    verify.add_argument("--samples", type=int, default=RunConfig.samples, metavar="N")
    verify.add_argument("--seed", type=int, default=RunConfig.seed, metavar="N")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument(
        "--list", action="store_true", help="list check names and exit"
    )
    verify.add_argument(
        "--timings",
        action="store_true",
        help="include per-check wall time (breaks byte determinism)",
    )
    verify.add_argument(
        "--no-default-taus",
        action="store_true",
        help="without explicit --tau, skip numeric checks instead of "
        "using the built-in moduli",
    )
    return parser
