"""The symmetric-function side of the partition function.

At q = zeta**2 the normalized six-vertex sum equals the Schur function of
the double-staircase shape (n-1, n-1, n-2, n-2, ..., 1, 1) in 2n variables.
Everything here is evaluated exactly: the Schur function through a
Jacobi-Trudi determinant in complete homogeneous sums (robust at repeated
points, unlike the bialternant, which is kept as a cross-check), the ballot
specializations where the value collapses to a power of 3, the wheel
condition, the degree-lowering recursion and the explicit residue-sum form
of the contour-integral representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra.cyclo import CycloScalar, Q3, Q3_INV
from .algebra.matrix import determinant
from .checks import check


def staircase_shape(n: int):
    """(n-1, n-1, n-2, n-2, ..., 1, 1) as a tuple (empty for n = 1)."""
    shape = []
    for k in range(n - 1, 0, -1):
        shape += [k, k]
    return tuple(shape)


def _lift_points(points):
    if any(isinstance(p, CycloScalar) for p in points):
        return [CycloScalar.coerce(p) for p in points], CycloScalar(1)
    return [Fraction(p) for p in points], Fraction(1)


def complete_homogeneous(points, maxdeg: int):
    """h_0 .. h_maxdeg of the given points, by expanding prod 1/(1 - z*w)."""
    points, one = _lift_points(points)
    h = [one] + [one * 0] * maxdeg
    for z in points:
        for k in range(1, maxdeg + 1):
            h[k] = h[k] + z * h[k - 1]
    return h


def schur_staircase(n: int, points):
    """The staircase Schur function in 2n variables, exactly.

    Jacobi-Trudi: det[ h_{lambda_i - i + j} ], valid at arbitrary (possibly
    repeated) points.
    """
    if len(points) != 2 * n:
        raise ValueError("need 2n evaluation points")
    shape = staircase_shape(n)
    ell = len(shape)
    if ell == 0:
        _, one = _lift_points(points)
        return one
    h = complete_homogeneous(points, shape[0] + ell - 1)
    zero = h[0] * 0
    mat = [
        [h[shape[i] - i + j] if 0 <= shape[i] - i + j < len(h) else zero
         for j in range(ell)]
        for i in range(ell)
    ]
    return determinant(mat)


def schur_staircase_bialternant(n: int, points):
    """Bialternant form det[z_i^(lambda_j + 2n - j)] / det[z_i^(2n - j)].

    Only valid at pairwise distinct points; used as an independent oracle.
    """
    points, one = _lift_points(points)
    if len(set(points)) != len(points):
        raise ValueError("bialternant form needs pairwise distinct points")
    m = 2 * n
    shape = list(staircase_shape(n)) + [0, 0]
    num = [[points[i] ** (shape[j] + m - 1 - j) for j in range(m)] for i in range(m)]
    den = [[points[i] ** (m - 1 - j) for j in range(m)] for i in range(m)]
    dnum = determinant(num)
    dden = determinant(den)
    if isinstance(dnum, CycloScalar) or isinstance(dden, CycloScalar):
        return CycloScalar.coerce(dnum) / CycloScalar.coerce(dden)
    return Fraction(dnum) / Fraction(dden)


@dataclass(frozen=True)
class DyckSpec:
    """A ballot sign vector: sums to zero with all prefix sums <= 0."""
    eps: tuple

    def __post_init__(self):
        total = 0
        for e in self.eps:
            if e not in (-1, 1):
                raise ValueError("entries must be +-1")
            total += e
            if total > 0:
                raise ValueError("prefix sums must stay <= 0")
        if total != 0:
            raise ValueError("entries must sum to zero")

    def point(self):
        """The evaluation point (q**eps_1, ..., q**eps_2n)."""
        return [Q3 if e == 1 else Q3_INV for e in self.eps]


def dyck_specializations(n: int):
    """All Catalan-many ballot vectors of length 2n, lexicographically
    (-1 before +1)."""
    results = []

    def rec(acc, total, remaining):
        if remaining == 0:
            if total == 0:
                results.append(DyckSpec(tuple(acc)))
            return
        # prefix sums <= 0 and enough +1s must remain to get back to 0
        if total - 1 + remaining >= 0:
            acc.append(-1)
            rec(acc, total - 1, remaining - 1)
            acc.pop()
        if total + 1 <= 0:
            acc.append(1)
            rec(acc, total + 1, remaining - 1)
            acc.pop()

    rec([], 0, 2 * n)
    return results


def catalan(n: int) -> int:
    import math
    return math.factorial(2 * n) // math.factorial(n) // math.factorial(n + 1)


def verify_dyck_values(n: int):
    """Check schur_staircase == 3**(n(n-1)/2) at every ballot specialization."""
    expected = Fraction(3) ** (n * (n - 1) // 2)
    return [check("ballot-specialization", n, expected,
                  schur_staircase(n, spec.point()),
                  point="".join("+" if e == 1 else "-" for e in spec.eps))
            for spec in dyck_specializations(n)]


def wheel_check(evaluator, n: int, samples: int, rng):
    """Probe the wheel condition: the evaluator must vanish whenever three
    coordinates sit at (z, q^2 z, q^4 z) with increasing indices."""
    q = Q3
    checks = []
    for _ in range(samples):
        base = [_random_rational(rng) for _ in range(2 * n)]
        i, j, k = sorted(rng.sample(range(2 * n), 3))
        z = _random_rational(rng, nonzero=True)
        point = [CycloScalar.coerce(b) for b in base]
        point[i] = CycloScalar.coerce(z)
        point[j] = q * q * z
        point[k] = q ** 4 * z
        checks.append(check("wheel-condition", n, 0, evaluator(point),
                            point=[str(p) for p in point]))
    return checks


def recursion_check_q3(n: int, samples: int, rng):
    """At q = zeta**2, setting z_j = q**2 z_i must factor the staircase Schur
    function onto the size-(n-1) one."""
    if n < 2:
        raise ValueError("recursion needs n >= 2")
    q = Q3
    checks = []
    for ssample in range(samples):
        zs = [_random_rational(rng) for _ in range(2 * n)]
        i, j = sorted(rng.sample(range(2 * n), 2))
        if ssample == 0:
            zs[i] = Fraction(0)  # degenerate: both sides pick up a plain product
        point = [CycloScalar.coerce(v) for v in zs]
        point[j] = q * q * point[i]
        lhs = schur_staircase(n, point)
        rest = [point[k] for k in range(2 * n) if k not in (i, j)]
        factor = CycloScalar(1)
        for zk in rest:
            factor = factor * (q * point[i] - zk)
        rhs = factor * schur_staircase(n - 1, rest)
        checks.append(check("degree-lowering-recursion", n, rhs, lhs,
                            point=[str(p) for p in point]))
    return checks


def zprime_residue_sum(n: int, z):
    """The residue-sum (constant-term) form of the partition function at
    q = zeta**2, as a finite sum over index sequences K = (k_1..k_n) with
    k_l <= 2l-1, all distinct.

    Requires pairwise distinct z (the removable coincident-point
    singularities are sidestepped by sampling).
    """
    m = 2 * n
    if len(z) != m:
        raise ValueError("need 2n points")
    z = [CycloScalar.coerce(v) for v in z]
    if len({(v.c0, v.c1) for v in z}) != m:
        raise ValueError("points must be pairwise distinct")
    q = Q3
    qinv = Q3_INV

    total = CycloScalar(0)
    for K in _index_sequences(n):
        kset = set(K)
        pos = {k: l for l, k in enumerate(K)}  # 0-based position of each k
        # sign ordering the k_l
        inv = sum(
            1 for a in range(n) for b in range(a + 1, n) if K[a] > K[b]
        )
        term = CycloScalar(-1) if inv % 2 else CycloScalar(1)
        for a in range(n):
            for b in range(a + 1, n):
                term = term * (q * z[K[a] - 1] - qinv * z[K[b] - 1])
        # surviving prefactor pairs (i < j), 1-based indices
        for i in range(1, m + 1):
            li = pos.get(i)
            for j in range(i + 1, m + 1):
                if i not in kset or (li is not None and j < 2 * (li + 1) - 1):
                    term = term * (q * z[i - 1] - qinv * z[j - 1])
        # the (q z_{2l-1} - q^{-1} w_l) numerators that survive
        for l in range(1, n + 1):
            if 2 * l - 1 != K[l - 1]:
                term = term * (q * z[2 * l - 2] - qinv * z[K[l - 1] - 1])
        # denominators
        denom = CycloScalar(1)
        for l in range(1, n + 1):
            kl = K[l - 1]
            for i in range(1, 2 * l):
                if i == kl:
                    continue
                if i not in kset or i > kl:
                    denom = denom * (z[kl - 1] - z[i - 1])
        total = total + term / denom
    if (n * (n - 1) // 2) % 2:
        total = -total
    return total


def _index_sequences(n: int):
    seqs = [[]]
    for l in range(1, n + 1):
        seqs = [s + [k] for s in seqs for k in range(1, 2 * l) if k not in s]
    return seqs


def _random_rational(rng, nonzero=False):
    while True:
        v = Fraction(rng.randint(-13, 13), rng.randint(1, 13))
        if not nonzero or v:
            return v


def random_distinct_rationals(rng, count: int, exclude=()):
    """`count` distinct small rationals, none of them in `exclude`."""
    seen = set(exclude)
    out = []
    while len(out) < count:
        v = _random_rational(rng)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out
