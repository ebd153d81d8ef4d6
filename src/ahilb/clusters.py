"""The seven-equation cluster systems attached to basic triangles, their
verification, the tripod monomial basis, and the reverse classification
from exponents back to a basic triangle.

Each basic triangle's chart parametrizes invariant subschemes cut out by
    x^(l+1) = xi  y^b z^f      y^(b+1) z^(f+1) = lam x^l
    y^(m+1) = eta z^c x^d      z^(c+1) x^(d+1) = mu  y^m     xyz = pi
    z^(n+1) = zeta x^a y^e     x^(a+1) y^(e+1) = nu  z^n
with lam*xi = mu*eta = nu*zeta = pi, and the parameters tied together by
the up or down dependency relations.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .errors import InvariantError
from .lattice import PERMS, LatticeContext, Vec3, permute
from .monomials import ratio_str, sign_roles

PARAM_NAMES = ("xi", "eta", "zeta", "lam", "mu", "nu", "pi")


def _laurent_vectors(exps: tuple[int, ...]) -> tuple[Vec3, ...]:
    """The Laurent exponents of the seven parameters, in the order of
    ``PARAM_NAMES``, from exps = (a, ..., f, l, m, n)."""
    a, b, c, d, e, f, l, m, n = exps
    return ((l + 1, -b, -f), (-d, m + 1, -c), (-a, -e, n + 1),
            (-l, b + 1, f + 1), (d + 1, -m, c + 1), (a + 1, e + 1, -n),
            (1, 1, 1))


class ClusterSystem(NamedTuple):
    """Exponent data of one chart's equation system."""

    mode: str  # "up" | "down"
    a: int
    b: int
    c: int
    d: int
    e: int
    f: int
    l: int
    m: int
    n: int

    def exponents(self) -> tuple[int, ...]:
        """(a, ..., f, l, m, n): every field after the mode."""
        return self[1:]

    def ratio_vectors(self) -> dict[str, Vec3]:
        """Laurent exponents of the seven parameters on the big torus."""
        return dict(zip(PARAM_NAMES, _laurent_vectors(self.exponents())))

    def dual_vectors(self) -> tuple[Vec3, Vec3, Vec3]:
        """The three ratio vectors of the chart's dual basis, in variable
        order: (xi, eta, zeta) in up mode, (lam, mu, nu) in down mode."""
        v = _laurent_vectors(self.exponents())
        return v[:3] if self.mode == "up" else v[3:6]


def _up_exponents_from_vectors(vecs: tuple[Vec3, Vec3, Vec3]) -> tuple[int, ...]:
    """Read (a..f, l, m, n) off up-mode dual vectors (xi, eta, zeta)."""
    xi, eta, zeta = vecs
    l, b, f = xi[0] - 1, -xi[1], -xi[2]
    m, d, c = eta[1] - 1, -eta[0], -eta[2]
    n, a, e = zeta[2] - 1, -zeta[0], -zeta[1]
    return (a, b, c, d, e, f, l, m, n)


def cluster_system(ctx: LatticeContext, kind: str,
                   monomials: tuple[Vec3, Vec3, Vec3]) -> ClusterSystem:
    """The equation system of one basic triangle of the given kind, read
    off its dual basis, the rows ``dual_basis`` returns."""
    up = kind == "up"
    at = sign_roles(monomials, 1 if up else -1)
    if at is None:
        raise InvariantError(f"dual monomials lack the {kind} sign pattern")
    x, y, z = at
    xi, eta, zeta = monomials[x], monomials[y], monomials[z]
    if not up:
        # lam * xi = pi: (xi, eta, zeta) = (1,1,1) - (lam, mu, nu).
        xi = (1 - xi[0], 1 - xi[1], 1 - xi[2])
        eta = (1 - eta[0], 1 - eta[1], 1 - eta[2])
        zeta = (1 - zeta[0], 1 - zeta[1], 1 - zeta[2])
    exps = _up_exponents_from_vectors((xi, eta, zeta))
    if min(exps) < 0:
        raise InvariantError("cluster exponents must be nonnegative")
    sys = ClusterSystem(kind, *exps)
    verify_cluster(ctx, sys)
    return sys


def _mode(exps: tuple[int, ...]) -> str | None:
    """The mode whose count relations the exponents (a, ..., f, l, m, n)
    satisfy: "up" when (l, m, n) = (a+d, b+e, c+f), "down" when each is
    one more, else None."""
    a, b, c, d, e, f, l, m, n = exps
    for mode, k in (("up", 0), ("down", 1)):
        if (l, m, n) == (a + d + k, b + e + k, c + f + k):
            return mode
    return None


def verify_cluster(ctx: LatticeContext, sys: ClusterSystem) -> None:
    """Raise unless the exponents satisfy the count relations of the
    system's mode and every equation matches characters.

    These two checks settle the rest of the system.  Coordinate by
    coordinate, each parameter relation is exactly the count relations:
    in up mode lam = eta*zeta reads (-l, b+1, f+1) = (-d-a, m+1-e,
    n+1-c), that is l = a+d, m = b+e, n = c+f, and so do the other two;
    in down mode xi = mu*nu and its two companions read l = a+d+1,
    m = b+e+1, n = c+f+1.  The syzygies xi*lam = eta*mu = zeta*nu = pi
    hold for every exponent tuple: ``_laurent_vectors`` makes each pair sum
    to (1, 1, 1).
    """
    exps = sys.exponents()
    if _mode(exps) != sys.mode:
        raise InvariantError(f"{sys.mode} count relations fail: {exps}")
    character = ctx.character
    for name, vec in zip(PARAM_NAMES, _laurent_vectors(exps)):
        if character(vec) != (0, 0):
            raise InvariantError(
                f"equation for {name} does not match characters: {vec}"
            )


def _tripod_size(sys: ClusterSystem) -> int:
    """The number of tripod monomials in closed form: l+1, m and n on the
    axes, then two disjoint boxes per coordinate plane, min(a,l)*m and
    (l-a)^+ * min(m,e) in xy, min(b,m)*n and (m-b)^+ * min(n,f) in yz,
    l*min(c,n) and min(l,d) * (n-c)^+ in zx.  Needs nonnegative exponents."""
    a, b, c, d, e, f = sys.a, sys.b, sys.c, sys.d, sys.e, sys.f
    l, m, n = sys.l, sys.m, sys.n
    return (l + 1 + m + n
            + min(a, l) * m + max(0, l - a) * min(m, e)
            + min(b, m) * n + max(0, m - b) * min(n, f)
            + l * min(c, n) + min(l, d) * max(0, n - c))


def _rectangles(sys: ClusterSystem) -> list[tuple[int, int, int, int]]:
    """The tripod's monomials as rectangles (u, length_u, v, length_v)
    with a corner at the origin: the exponents i*e_u + j*e_v with
    i < length_u and j < length_v.

    For nonnegative exponents the axis boxes and the two boxes of each
    coordinate plane together are
        xy: [0..min(a,l)] x [0..m]  u  [0..l] x [0..min(m,e)]
        yz: [0..min(b,m)] x [0..n]  u  [0..m] x [0..min(n,f)]
        zx: [0..min(c,n)] x [0..l]  u  [0..n] x [0..min(l,d)]   (s, p)
    The first of a plane's two lies inside the second when the second's
    wall exponent reaches its height (e >= m, f >= n, d >= l), and the
    second inside the first when the first's does (a >= l, b >= m,
    c >= n).  The one that contains the other is then the whole
    [0..h_u] x [0..h_v], and it is kept alone.
    """
    out = []
    for u, v, hu, hv, wu, wv in ((0, 1, sys.l, sys.m, sys.a, sys.e),
                                 (1, 2, sys.m, sys.n, sys.b, sys.f),
                                 (2, 0, sys.n, sys.l, sys.c, sys.d)):
        if wv < hv:
            out.append((u, min(wu, hu) + 1, v, hv + 1))
        if wu < hu or wv >= hv:
            out.append((u, hu + 1, v, min(wv, hv) + 1))
    return out


def check_tripod(ctx: LatticeContext, sys: ClusterSystem) -> None:
    """Raise unless the exponents are nonnegative and the tripod has
    exactly N = |A| monomials.  For a system that passes
    ``verify_cluster``, as every system ``cluster_system`` returns does,
    that is all it takes for the tripod's characters to be pairwise
    distinct, so that they fill the dual group and the cluster's ring is
    the regular representation.

    The count is ``_tripod_size``, in closed form; it needs nonnegative
    exponents, so a negative one raises first.  The fill follows:
    - Each equation reads L = p*R, where L is a leading term x^(l+1),
      ..., xyz, R a monomial with nonnegative exponents, and L - R the
      parameter's Laurent vector rho from ``_laurent_vectors``, which
      ``verify_cluster`` checks lies in M, the lattice of invariant
      monomials.
    - The rows X = (xi, eta, zeta) form a Z-matrix: positive diagonal
      l+1, m+1, n+1, nonpositive off the diagonal.  Its column sums are
      k = 1 in up mode and k = 2 in down mode, by the count relations.
      So X is a nonsingular M-matrix, X^-1 >= 0, and the weight
      w = X^-1 (1,1,1) >= 0 pairs to 1 with xi, eta and zeta.  It pairs
      to 3/k with pi = (1,1,1), since (1,1,1) X = k (1,1,1), and to
      3/k - 1, which is 2 or 1/2, with lam, mu and nu, by the syzygies
      xi + lam = (1,1,1).
    - Rewriting L*u to R*u keeps a monomial's character and lowers its
      weight by at least 1/2, and no monomial weighs less than 0, so
      every monomial reduces to one in the tripod, which is the set of
      monomials no leading term divides.
    - Since (1,1,1) lies in M, every character is the character of some
      monomial.  So the tripod's characters cover all N classes, and N
      monomials make them distinct.
    The check reads no character and does the same work for every order.
    """
    if min(sys.exponents()) < 0:
        raise InvariantError("cluster exponents must be nonnegative")
    count = _tripod_size(sys)
    if count != ctx.order:
        raise InvariantError(
            f"tripod has {count} monomials for a group of order {ctx.order}"
        )


def tripod_basis(ctx: LatticeContext, sys: ClusterSystem) -> list[Vec3]:
    """Monomials outside the system's initial ideal: the staircase under
    x^(l+1), y^(m+1), z^(n+1), the three wall generators and xyz, sorted.

    That is the union of the rectangles of ``_rectangles``, which is exact
    because check_tripod, called first, raises on a negative exponent.
    ``verify_cluster`` runs next, so the characters of the monomials
    returned fill the dual group whatever the system's origin.  Raises as
    check_tripod, then verify_cluster, do.
    """
    check_tripod(ctx, sys)
    verify_cluster(ctx, sys)
    out = set()
    for u, lu, v, lv in _rectangles(sys):
        for i in range(lu):
            for j in range(lv):
                mono = [0, 0, 0]
                mono[u], mono[v] = i, j
                out.add(tuple(mono))
    return sorted(out)


class Classification(NamedTuple):
    """Inverse of cluster_system: which chart a given exponent tuple
    belongs to.  mode, case, perm, (A, B, C) and (i, j, k) are the cell's
    kind, its parent's normal-form case, permutation and (a, b, c), and
    its steps in role order; the parent's side is i+j+k+1 (up) or
    i+j+k-1 (down), as ``tesselate`` counts them."""

    mode: str
    case: str
    perm: tuple[int, int, int]
    A: int
    B: int
    C: int
    i: int
    j: int
    k: int


def _permuted_reader(perm) -> itemgetter:
    """Under a coordinate permutation, the (a, ..., f) read off the
    permuted up vectors (xi, eta, zeta) are a rearrangement of the
    exponents: the diagonal entries l+1, m+1, n+1 stay on the diagonal
    and the off-diagonal -a, ..., -f stay off it.  Reading the indexes
    0..8 as exponents names the rearrangement once."""
    up = ClusterSystem("up", *range(9)).dual_vectors()
    vecs = tuple(permute(perm, up[perm[t]]) for t in range(3))
    return itemgetter(*_up_exponents_from_vectors(vecs)[:6])


_PERMUTED = tuple((perm, _permuted_reader(perm)) for perm in PERMS)


def classify_cluster(exps: tuple[int, ...]) -> Classification:
    """Recover mode, coordinate permutation, the parent normal-form data
    and the steps from exps = (a, b, c, d, e, f, l, m, n), trying case a
    before case b, each over ``PERMS`` in order.

    No cone is looked up: the exponents name their cell.  Let D =
    n * (V^T)^-1 be the dual basis ``scaled_dual`` solves from the cell's
    vertices V.  Then n * (D^T)^-1 = V, and ``dual_vectors`` of the
    exponents is exactly D in role order, so inverting it can only give
    back this cell.  That could fail only if the exponent encoding did
    not round-trip, and the ``_PERMUTED`` index maps, through which the
    normal form is read, are built from that encoding at import.
    """
    mode = _mode(exps)
    if mode is None:
        raise InvariantError(
            f"exponents {exps} satisfy neither the up nor the down relations"
        )
    shift = 0 if mode == "up" else 1
    permuted = [(perm, read(exps)) for perm, read in _PERMUTED]
    for case in ("a", "b"):
        for perm, (a2, b2, c2, d2, e2, f2) in permuted:
            if case == "a":
                if not (b2 >= f2 and d2 >= c2 and e2 >= a2):
                    continue
                A, B, C = d2 - c2, b2 - f2, e2 - a2
                i, j, k = f2 + shift, c2 + shift, a2 + shift
            else:
                if not (b2 >= f2 and c2 >= d2 and a2 >= e2):
                    continue
                A, B, C = a2 - e2, b2 - f2, c2 - d2
                i, j, k = f2 + shift, d2 + shift, e2 + shift
            return Classification(mode, case, perm, A, B, C, i, j, k)
    raise InvariantError(f"no permutation normalizes exponents {exps}")


def equations_text(sys: ClusterSystem) -> list[str]:
    """The seven equations, one human-readable line each."""
    v = sys.ratio_vectors()
    lines = []
    for name in PARAM_NAMES:
        vec = v[name]
        lhs = ratio_str(tuple(max(x, 0) for x in vec))
        rhs = ratio_str(tuple(max(-x, 0) for x in vec))
        lines.append(f"{lhs} = {name} * {rhs}" if rhs != "1" else f"{lhs} = {name}")
    if sys.mode == "up":
        lines.append("lam = eta*zeta, mu = zeta*xi, nu = xi*eta, pi = xi*eta*zeta")
    else:
        lines.append("xi = mu*nu, eta = nu*lam, zeta = lam*mu, pi = lam*mu*nu")
    return lines
