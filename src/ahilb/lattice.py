"""Group specifications, the overlattice of the junior plane, and the dual
lattice of invariant monomials.

All geometry is exact.  A point of the junior plane is stored as an integer
triple summing to the denominator ``n``; a translation vector is an integer
triple summing to zero.  A triple ``q`` belongs to the overlattice n*L
exactly when it pairs to a multiple of ``n`` with every invariant monomial.

``lattice_context`` takes the one Smith form (``smith_columns``) of a
group, that of n*L: its invariants give the group order, its columns the
monomial lattice M and their inverse the character map.  Membership,
invariance, the primitive step and the index of two translations follow
by closed forms (see ``is_translation``, ``LatticeContext.character``,
``primitive_vector`` and ``pair_index``).  Only ``group_elements`` walks
the group, lazily, and in the package only ``junior_points`` reads it.

The lattice geometry the other modules share lives here, once:
``on_simplex_boundary`` (does a segment lie along a side of the simplex),
``sign_fixed`` (a direction up to sign), ``pair_index`` (the index of
the sublattice two translations span) and
``primitive_in_monomial_lattice`` (the invariant monomial on a ray).
"""

from __future__ import annotations

import re
from itertools import permutations
from math import gcd, lcm
from typing import Iterator, NamedTuple

from .errors import GroupSpecError, InvariantError

Vec3 = tuple[int, int, int]

DEFAULT_ORDER_CAP = 10**6

# [0-9], not \d: \d also matches non-ASCII digits such as full-width ones.
_TERM_RE = re.compile(
    r"1/([0-9]+)\(([+-]?[0-9]+),([+-]?[0-9]+),([+-]?[0-9]+)\)"
)

# The six coordinate permutations, in lexicographic order.
PERMS = tuple(sorted(permutations(range(3))))


def vadd(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def vsub(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def vneg(u: Vec3) -> Vec3:
    return (-u[0], -u[1], -u[2])


def smul(k: int, u: Vec3) -> Vec3:
    return (k * u[0], k * u[1], k * u[2])


def dot(u: Vec3, v: Vec3) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def chart(v: Vec3) -> tuple[int, int]:
    """Linear chart of the plane x+y+z = const: drop the first coordinate."""
    return (v[1], v[2])


def cross2(a: tuple[int, int], b: tuple[int, int]) -> int:
    return a[0] * b[1] - a[1] * b[0]


def cross3(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def det3(rows) -> int:
    """Determinant of the 3x3 integer matrix with the given rows."""
    return dot(rows[0], cross3(rows[1], rows[2]))


def scaled_dual(rows, n: int) -> list[Vec3]:
    """The integral rows of n * (rows^T)^-1: row s pairs to n with rows[s]
    and to 0 with the other two.  Raises InvariantError when the rows are
    dependent or the result is not integral.

    Row s is n/det times the cross product of the rows after s, cyclically;
    the nine cofactors and the determinant are written out, since every
    fan cone and every lattice context solves one."""
    (a, b, c), (d, e, f), (g, h, k) = rows
    p0, p1, p2 = e * k - f * h, f * g - d * k, d * h - e * g
    q0, q1, q2 = h * c - k * b, k * a - g * c, g * b - h * a
    s0, s1, s2 = b * f - c * e, c * d - a * f, a * e - b * d
    det = a * p0 + b * p1 + c * p2
    if det == 0:
        raise InvariantError("singular matrix")
    p0, p1, p2 = n * p0, n * p1, n * p2
    q0, q1, q2 = n * q0, n * q1, n * q2
    s0, s1, s2 = n * s0, n * s1, n * s2
    if (p0 % det or p1 % det or p2 % det or q0 % det or q1 % det
            or q2 % det or s0 % det or s1 % det or s2 % det):
        raise InvariantError(f"scaled dual of {tuple(rows)} is fractional")
    return [(p0 // det, p1 // det, p2 // det),
            (q0 // det, q1 // det, q2 // det),
            (s0 // det, s1 // det, s2 // det)]


def multiple(target: Vec3, base: Vec3) -> int | None:
    """The integer k with target = k * base, or None."""
    for t in range(3):
        if base[t]:
            k, rem = divmod(target[t], base[t])
            return k if rem == 0 and smul(k, base) == target else None
    return None


def permute(perm, v: Vec3) -> Vec3:
    return (v[perm[0]], v[perm[1]], v[perm[2]])


class Generator(NamedTuple):
    """One cyclic factor 1/r(a1,a2,a3) with weights reduced mod r."""

    order: int
    weights: Vec3

    def text(self) -> str:
        a1, a2, a3 = self.weights
        return f"1/{self.order}({a1},{a2},{a3})"


class GroupSpec(NamedTuple):
    generators: tuple[Generator, ...]
    canonical_text: str


def parse_group_spec(text: str) -> GroupSpec:
    """Parse ``1/r(a,b,c)`` terms joined by ``+`` into a GroupSpec.

    Whitespace is ignored; negative weights are reduced mod r.  Raises
    GroupSpecError on malformed input, on a number longer than Python's
    int-conversion limit (``sys.get_int_max_str_digits``), or when a
    term's weights do not sum to 0 mod r (so that the generator would
    land outside SL(3,C)).
    """
    squashed = re.sub(r"\s+", "", text)
    if not squashed:
        raise GroupSpecError("empty group specification")
    gens = []
    # A weight may carry its own sign, so terms are split only at ")+".
    for term in re.split(r"(?<=\))\+", squashed):
        m = _TERM_RE.fullmatch(term)
        if m is None:
            raise GroupSpecError(f"cannot parse term {term!r}")
        try:
            r = int(m.group(1))
            raw = (int(m.group(2)), int(m.group(3)), int(m.group(4)))
        except ValueError:  # past the interpreter's int-conversion limit
            raise GroupSpecError(
                "an order or weight has too many digits to read") from None
        if r < 1:
            raise GroupSpecError(f"order must be >= 1 in term {term!r}")
        if sum(raw) % r != 0:
            raise GroupSpecError(
                f"weights of {term!r} sum to {sum(raw)} which is not 0 mod {r}"
            )
        gens.append(Generator(r, tuple(a % r for a in raw)))
    canonical = "+".join(g.text() for g in gens)
    return GroupSpec(tuple(gens), canonical)


class LatticeContext(NamedTuple):
    """The lattice data attached to one group.

    n            -- denominator: the exponent of the group.
    order        -- |A|, also the index of Z^3 in the overlattice.
    monomial_basis -- three rows generating the invariant-monomial lattice
                    M, read off the Smith form of n*L.
    character_rows -- rows W_0, W_1 of V^-1, for ``character``.

    The context holds no group element.  n*L is the dual of M, so a triple
    lies in it exactly when it pairs to a multiple of n with the rows of
    the monomial basis (``is_lattice_point``, ``is_translation``); the
    indexes of the translation lattice T have a closed form
    (``pair_index``); ``group_elements`` walks the group on request.
    """

    spec: GroupSpec
    n: int
    order: int
    monomial_basis: tuple[Vec3, Vec3, Vec3]
    character_rows: tuple[Vec3, Vec3]

    @property
    def corners(self) -> tuple[Vec3, Vec3, Vec3]:
        """The three simplex vertices, scaled by n."""
        n = self.n
        return ((n, 0, 0), (0, n, 0), (0, 0, n))

    def corner(self, i: int) -> Vec3:
        """Vertex e_i for i in 1..3."""
        return self.corners[i - 1]

    def _pairs_to_n(self, q: Vec3) -> bool:
        """Does q lie in n*L: does it pair to a multiple of n with the
        monomial basis rows after the first, n*V_0, which always does?
        Written out, since the partition and the fan check ask this
        thousands of times."""
        n = self.n
        x, y, z = q
        _, b, c = self.monomial_basis
        return not ((x * b[0] + y * b[1] + z * b[2]) % n
                    or (x * c[0] + y * c[1] + z * c[2]) % n)

    def is_lattice_point(self, q: Vec3) -> bool:
        """Is q (scaled by n) a point of the junior-plane affine lattice?"""
        return q[0] + q[1] + q[2] == self.n and self._pairs_to_n(q)

    def is_translation(self, v: Vec3) -> bool:
        """Is v (scaled by n) a translation of the junior-plane lattice?"""
        return v[0] + v[1] + v[2] == 0 and self._pairs_to_n(v)

    def character(self, v: Vec3) -> tuple[int, int]:
        """The character of x^v as its Smith coordinates (v.W_0 mod n,
        v.W_1 mod N/n): a map of Z^3 onto Z/n x Z/(N/n) with kernel M."""
        p, q, s = v
        _, n, order, _, ((a, b, c), (d, e, f)) = self
        return ((p * a + q * b + s * c) % n,
                (p * d + q * e + s * f) % (order // n))


def smith_columns(rows) -> tuple[tuple[int, int, int], tuple[Vec3, Vec3, Vec3]]:
    """Smith form of the lattice spanned by the rows, which must span a
    full-rank lattice in Z^3 (any number of rows, zero rows allowed).

    Returns the invariants (d_0, d_1, d_2), each dividing the next, and
    three integer columns V_t of a unimodular matrix such that
    v -> (v.V_t mod d_t) maps Z^3 onto the product of the Z/d_t with
    kernel exactly the row lattice.  Raises InvariantError when the rows
    span less than rank 3.
    """
    a = [list(r) for r in rows]
    cols = [[int(i == j) for j in range(3)] for i in range(3)]  # V, by column

    def add_col(dst, src, q):  # column dst -= q * column src, in a and V
        for row in a:
            row[dst] -= q * row[src]
        cols[dst] = [x - q * y for x, y in zip(cols[dst], cols[src])]

    for k in range(3):
        while True:
            live = [(abs(a[i][j]), i, j) for i in range(k, len(a))
                    for j in range(k, 3) if a[i][j]]
            if not live:
                raise InvariantError("lattice basis computation lost rank")
            _, i, j = min(live)
            a[k], a[i] = a[i], a[k]
            for row in a:
                row[k], row[j] = row[j], row[k]
            cols[k], cols[j] = cols[j], cols[k]
            piv = a[k][k]
            for i in range(k + 1, len(a)):
                q = a[i][k] // piv
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            for j in range(k + 1, 3):
                add_col(j, k, a[k][j] // piv)
            if any(a[i][k] for i in range(k + 1, len(a))) or any(a[k][k + 1:]):
                continue
            # The pivot must divide what is left, or a smaller one exists.
            bad = [i for i in range(k + 1, len(a))
                   if any(x % piv for x in a[i][k + 1:])]
            if not bad:
                break
            a[k] = [x + y for x, y in zip(a[k], a[bad[0]])]
    diag = tuple(abs(a[k][k]) for k in range(3))
    return diag, tuple(tuple(c) for c in cols)


def lattice_context(spec: GroupSpec, max_order: int = DEFAULT_ORDER_CAP) -> LatticeContext:
    """The group's exponent, order, monomial lattice and character map,
    from one Smith form and no group element.

    n*L = <n*e_i> + <generators> has Smith invariants d_t and columns V_t:
    it is the set of v with v.V_t = 0 mod d_t.  So its index in Z^3 is
    d_0*d_1*d_2, the group order is [n*L : n*Z^3] = n^3/(d_0*d_1*d_2), and
    M = {m : m.(n*L) in nZ} is spanned by the rows (n/d_t)*V_t.  The
    invariants are (1, n^2/N, n), so with W_t the rows of V^-1,
    v -> (v.W_0 mod n, v.W_1 mod N/n) maps Z^3 onto Z/n x Z/(N/n) with
    kernel exactly M: the character of x^v.

    Raises GroupSpecError when the group order exceeds max_order, before
    any element is built.
    """
    # The denominator is the exponent of the group: the lcm of the
    # generators' true orders, which may be smaller than the lcm of the
    # written ones.
    n = lcm(*(g.order // gcd(g.order, *g.weights) for g in spec.generators))
    gens = [tuple(n * w // g.order for w in g.weights) for g in spec.generators]
    diag, cols = smith_columns([(n, 0, 0), (0, n, 0), (0, 0, n)] + gens)
    order = n**3 // (diag[0] * diag[1] * diag[2])
    if order > max_order:
        raise GroupSpecError(f"group order exceeds the cap of {max_order}")
    if diag[0] != 1 or diag[2] != n:
        raise InvariantError(f"character group is not Z/{n} x Z/{order // n}")
    mbasis = tuple(smul(n // d, col) for d, col in zip(diag, cols))
    # |det| = order exactly when the columns are unimodular.
    if abs(det3(mbasis)) != order:
        raise InvariantError("monomial basis determinant is not the order")
    # The one place the written generators decide invariance.
    if any(dot(m, g) % n for m in mbasis for g in gens):
        raise InvariantError("monomial basis row is not invariant")
    w0, w1, _ = scaled_dual(cols, 1)
    return LatticeContext(
        spec=spec,
        n=n,
        order=order,
        monomial_basis=mbasis,
        character_rows=(w0, w1),
    )


def group_elements(ctx: LatticeContext) -> Iterator[Vec3]:
    """Every group element once, as a residue triple scaled to n, yielded
    by running sums mod n: no list of the N elements is built.

    The rows W_t of V^-1 make n*L = <W_0, (n^2/N)*W_1, n*W_2> and
    n*Z^3 = <n*W_t>, so the elements are the sums z_0*W_0 +
    z_1*(n^2/N)*W_1 over 0 <= z_0 < n (inner loop) and 0 <= z_1 < N/n.
    """
    n = ctx.n
    (a, b, c), w1 = ctx.character_rows
    d, e, f = smul(n * n // ctx.order, w1)
    for z1 in range(ctx.order // n):
        x, y, z = z1 * d % n, z1 * e % n, z1 * f % n
        for _ in range(n):
            yield (x, y, z)
            x, y, z = (x + a) % n, (y + b) % n, (z + c) % n


def junior_points(ctx: LatticeContext) -> list[Vec3]:
    """All lattice points of the junior simplex, the hull pass's input,
    scaled by n and sorted: the vertices and the group elements with
    coordinate sum n.  A vertex has two zero coordinates, a side point one."""
    n = ctx.n
    return sorted([*ctx.corners, *(g for g in group_elements(ctx)
                                   if sum(g) == n)])


def primitive_vector(ctx: LatticeContext, v: Vec3) -> Vec3:
    """v divided by the largest k such that v/k stays in the translation
    lattice.

    n*L is the set of q with q.m in nZ for every row m of the monomial
    basis, so v/k lies in it exactly when k divides every v.m/n; M holds
    the n*e_i, so that gcd also divides v itself.
    """
    if v == (0, 0, 0):
        raise InvariantError("zero vector has no primitive direction")
    if not ctx.is_translation(v):
        raise InvariantError(f"{v} is not a translation of the junior lattice")
    k = gcd(*(dot(v, m) // ctx.n for m in ctx.monomial_basis))
    return (v[0] // k, v[1] // k, v[2] // k)


def primitive_in_monomial_lattice(ctx: LatticeContext, m: Vec3) -> Vec3:
    """Scale m to the primitive invariant exponent vector on its ray."""
    if m == (0, 0, 0):
        raise InvariantError("zero exponent vector")
    g = gcd(*m)
    base = (m[0] // g, m[1] // g, m[2] // g)
    # k*base is invariant exactly when the order of its character divides k.
    r0, r1 = ctx.character(base)
    n, rest = ctx.n, ctx.order // ctx.n
    return smul(lcm(n // gcd(n, r0), rest // gcd(rest, r1)), base)


def on_simplex_boundary(a: Vec3, b: Vec3) -> bool:
    """Do a and b lie on one side of the simplex?"""
    return not ((a[0] or b[0]) and (a[1] or b[1]) and (a[2] or b[2]))


def sign_fixed(v: Vec3) -> Vec3:
    """v or -v, whichever has its first nonzero coordinate positive."""
    return v if v > (0, 0, 0) else vneg(v)


def pair_index(ctx: LatticeContext, v: Vec3, w: Vec3) -> int:
    """Index of the sublattice spanned by v, w inside the translation
    lattice T; 0 when the vectors are parallel.

    Coordinate sums in n*L are multiples of n, so n*L = T + Z*(n,0,0) and
    n*|cross2| = |det3(v, w, (n,0,0))| = [T : <v,w>] * n^3 / N.
    """
    for u in (v, w):
        if not ctx.is_translation(u):
            raise InvariantError(f"{u} is not in the translation lattice")
    return abs(cross2(chart(v), chart(w))) * ctx.order // ctx.n**2

