"""Formal contour integrals: iterated residues, and sums of determinants
where the integrand holds a Cauchy kernel.

An IntegrandSpec declares, per contour variable, the power of the monomial
denominator, plus an ordered list of factors.  Each factor is either a
polynomial or an explicitly declared geometric factor 1/(1-g) with g of
positive valuation in the contour variables: which poles sit inside the
contours is semantic input taken from the integral being encoded, never
inferred.

Evaluation multiplies everything out as a truncated Laurent series and takes
the coefficient of u**-1 one variable at a time, the last contour variable
first.  Since every factor is a polynomial (or expands into one) with
nonnegative exponents, exponents never decrease after the initial monomial;
a term past exponent -1 in any contour variable can therefore never
contribute, so every contour exponent is capped at -1 from the start.  This
residue kernel evaluates integral_I, zeilid_check, homogeneous_limit_check
and even_partition_sum_check (one contour variable that collects the
homogeneous parts of bounded degree).

integral_A and integral_U take no residue.  Their integrands are the Cauchy
kernel prod_{i<j} (u_j-u_i) / prod_{i<=j} (1-u_i u_j) (for A once the
zeilid identity has antisymmetrized its qKZ cross factors) times
prod_i f_i(u_i) / u_i**(e_i+1).  The kernel is the sum of det[u_i**r_j]
over 0 <= r_0 < r_1 < ... with r_0 even and odd gaps (the even-partitions
identity), so by Cauchy-Binet the integral is the sum over those sequences
of det[c_i(r_j)], c_i(r) = [u**(e_i - r)] f_i.  Each c_i(r) is a closed
binomial sum (_a_entry for A, lgv.bilinear_entry for U), and
lgv.packed_minor_sum evaluates the sum on Kronecker-packed ints.

The residue builders share one factor vocabulary: `_poly` makes a factor
over just the variables it names (the kernel reads each factor over its own
variables and looks up the spec's slot of each one), and `_one_plus`,
`_add_qkz_cross`, `_add_cauchy` and `_vandermonde_pairs` give the numerators
1 + c*m, the qKZ cross factors, the Cauchy kernel and the Vandermonde pairs.
Factors of one stage multiply in the order they were added, which changes
only the size of the intermediate series: numerators go first (the kernel
first costs 54% more term products in `homogeneous_limit_check(4)`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations

from .algebra.matrix import perm_sign
from .algebra.poly import MultiPoly
from .algebra.series import ContourSideError
from .checks import check
from .genpoly import GenPoly
from .lgv import bilinear_entry, packed_minor_sum

XY = ("x", "y")


@dataclass
class IntegrandSpec:
    """A formal multi-contour integrand.

    factors: sequence of ("poly", MultiPoly) or ("geom", MultiPoly); a geom
    entry g stands for 1/(1-g) expanded as a geometric series.
    """

    u_vars: tuple
    denom_powers: dict
    factors: list = field(default_factory=list)
    coeff_vars: tuple = XY

    def all_vars(self):
        return tuple(self.u_vars) + tuple(self.coeff_vars)

    def add_poly(self, p: MultiPoly):
        self.factors.append(("poly", p))

    def add_geom(self, g: MultiPoly):
        self.factors.append(("geom", g))


def iterated_residue(spec: IntegrandSpec):
    """Evaluate the iterated formal residue; returns a MultiPoly in the
    coefficient variables.  The last of u_vars is integrated first.

    The loop runs on packed exponent vectors.  A term's exponent vector is
    one int with a (k+1)-bit field per variable of the spec (contour
    variables first).  A contour field holds e + 2**k, so an exponent past
    -1 sets the field's top (guard) bit; k is wide enough for every exponent
    from the start up to -1 and for every factor exponent, so adding a factor
    term never carries into the next field.  A coefficient field holds the
    plain exponent, with k sized from a degree bound: each geometric power
    raises the total contour degree by at least 1, so at most
    sum(-1 - start) of them fit below the cap.

    Each factor is read over its own variables: once for the slot of each
    variable it uses, its exponents, its valuation, the field widths and its
    stage, and once to pack its terms.  A factor is multiplied in just before
    the last contour variable it uses is integrated; the factors free of
    contour variables form a first stage, as they commute with extraction.
    """
    u_vars = tuple(spec.u_vars)
    nu = len(u_vars)
    slot = {v: i for i, v in enumerate(spec.all_vars())}
    starts = [-spec.denom_powers.get(v, 0) for v in u_vars]
    budget = sum(-1 - s for s in starts)
    span = [-1 - s for s in starts] + [0] * len(spec.coeff_vars)
    top = [0] * len(span)
    stages = [[] for _ in range(nu + 1)]  # stages[nu]: no contour variable
    for kind, p in spec.factors:
        # (position in p, slot, exponents) of every variable p uses
        used = [(i, slot.get(v), column)
                for i, (v, column) in enumerate(zip(p.vars, zip(*p.terms))) if any(column)]
        for i, s, _ in used:
            if s is None:
                raise ValueError(f"variable {p.vars[i]} is in use; cannot drop")
        if any(min(column) < 0 for *_, column in used):
            raise ValueError("factors must have nonnegative exponents")
        contour = [(i, s) for i, s, _ in used if s < nu]
        if kind == "geom" and any(sum(exps[i] for i, _ in contour) < 1 for exps in p.terms):
            raise ContourSideError(
                "geometric factor has a constant term in the contour variables"
            )
        for _, s, column in used:
            e = max(column)
            top[s] = max(top[s], e)
            if s >= nu:
                span[s] += e * budget if kind == "geom" else e
        stages[max((s for _, s in contour), default=nu)].append((kind, p.terms, used))

    for v, s in zip(u_vars, starts):
        if s > -1:
            raise ValueError(f"the denominator power of {v} must be at least 1")
    widths = [max(s, t).bit_length() for s, t in zip(span, top)]
    offs = [sum(widths[:i]) + i for i in range(len(widths))]  # k + 1 bits per field
    lims = [1 << k for k in widths]
    guard = sum(lim << o for lim, o in zip(lims, offs))
    contour_guard = sum(lim << o for lim, o in zip(lims[:nu], offs))

    terms = {sum((s + lim) << o for s, lim, o in zip(starts, lims, offs)): 1}
    for col in reversed(range(nu + 1)):
        for kind, factor_terms, used in stages[col]:
            factor = [(sum(exps[i] << offs[s] for i, s, _ in used), c)
                      for exps, c in factor_terms.items()]
            if kind == "poly":
                terms = _packed_mul(terms, factor, guard, contour_guard)
                continue
            if col == nu:  # only the zero polynomial gets here
                raise ContourSideError("geometric factor without contour variables")
            acc = terms
            while acc:
                acc = _packed_mul(acc, factor, guard, contour_guard)
                for key, c in acc.items():
                    terms[key] = terms.get(key, 0) + c
            terms = {key: c for key, c in terms.items() if c}
        if col < nu:
            lim, o = lims[col], offs[col]
            mask, code = (2 * lim - 1) << o, (lim - 1) << o  # the code of -1
            terms = {key: c for key, c in terms.items() if key & mask == code}
    coeff = [(offs[i], lims[i] - 1) for i in range(nu, len(span))]
    return MultiPoly(spec.coeff_vars,
                     {tuple((key >> o) & m for o, m in coeff): c for key, c in terms.items()})


def _packed_mul(terms, factor, guard, contour_guard):
    """terms * factor, dropping products past a contour cap."""
    out = {}
    get = out.get
    for k1, c1 in terms.items():
        for k2, c2 in factor:
            key = k1 + k2
            if key & guard:
                if key & contour_guard:
                    continue
                raise OverflowError("coefficient exponent exceeds its degree bound")
            out[key] = get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _poly(*terms) -> MultiPoly:
    """The sum of c * prod v**e over terms (c, {v: e}), over just the
    variables they name; iterated_residue finds each one's slot itself."""
    variables = tuple(dict.fromkeys(v for _, mono in terms for v in mono))
    out = {}
    for c, mono in terms:
        exps = tuple(mono.get(v, 0) for v in variables)
        out[exps] = out.get(exps, 0) + c
    return MultiPoly(variables, out)


def _one_plus(mono, c=1) -> MultiPoly:
    """1 + c * mono."""
    return _poly((1, {}), (c, mono))


def _add_qkz_cross(spec, us, tau=1):
    """The qKZ cross factors (u_m - u_l)(1 + tau u_m + u_m u_l) for every
    pair with u_l before u_m in us."""
    for ul, um in combinations(us, 2):
        spec.add_poly(_poly((1, {um: 1}), (-1, {ul: 1})))
        spec.add_poly(_poly((1, {}), (tau, {um: 1}), (1, {um: 1, ul: 1})))


def _add_cauchy(spec, us):
    """The Cauchy kernel prod_{i<j} (u_j - u_i) / prod_{i<=j} (1 - u_i u_j),
    u_i before u_j in us: the pairs first, then each 1/(1 - u_i**2)."""
    for ui, uj in combinations(us, 2):
        spec.add_poly(_poly((1, {uj: 1}), (-1, {ui: 1})))
        spec.add_geom(_poly((1, {ui: 1, uj: 1})))
    for ui in us:
        spec.add_geom(_poly((1, {ui: 2})))


def _vandermonde_pairs(us, tau_mono):
    """The factors (u_i - u_j) and (u_i + u_j + tau u_i u_j) of every pair
    with u_i before u_j in us; tau is the monomial tau_mono ({} for 1)."""
    for ui, uj in combinations(us, 2):
        yield _poly((1, {ui: 1}), (-1, {uj: 1}))
        yield _poly((1, {ui: 1}), (1, {uj: 1}), (1, {ui: 1, uj: 1, **tau_mono}))


def _a_entry(k: int, m: int) -> dict:
    """[u**m] (1+u)**k (1+x u) / (1-(y-1) u) as {(x exponent, y exponent): c}:
    the x**a y**b coefficient is sum_j C(k, m-a-j) C(j, b) (-1)**(j-b)."""
    return {(a, b): c for a in (0, 1) for b in range(m - a + 1)
            if (c := sum(math.comb(k, m - a - j) * math.comb(j, b) * (-1) ** (j - b)
                         for j in range(b, m - a + 1)))}


def integral_A(n: int) -> GenPoly:
    """The doubly refined ASM polynomial as a formal integral, integral_I
    with every a_l = 0; as a Cauchy-Binet sum its rows are k = 1..n-1 with
    e_k = 2k-1 and f_k = (1+u)**k (1+x u) / (1-(y-1) u)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return packed_minor_sum([{2 * k - 1 - m: _a_entry(k, m) for m in range(2 * k)}
                             for k in range(1, n)], 0)


def integral_U(n: int, form: str = "raw") -> GenPoly:
    """The refined lattice-path polynomial as a formal integral.

    form="raw": the n-fold integral with denominators u_i**(2i-1), factors
    1/(1-u_i**2), (1+x u_i), (1+y u_i) and (1+u_i)**(i-2) for i >= 2, and
    cross factors (u_j-u_i)/(1-u_i u_j).
    form="after-u1": the (n-1)-fold integral left after the innermost
    variable has been integrated out: the same factors over u_2..u_n, with
    denominators u_i**(2i-2).  Both must agree.  As a Cauchy-Binet sum the
    rows are i = 1..n with e_i = 2i-2 (raw) or i = 2..n with e_i = 2i-3
    (after-u1), f_1 = 1 + x u and f_i = (1+x u)(1+y u)(1+u)**(i-2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if form not in ("raw", "after-u1"):
        raise ValueError(f"unknown form {form!r}")
    rows = [{0: {(0, 0): 1}}] if form == "raw" else []
    for i in range(2, n + 1):
        e = 2 * i - 2 if form == "raw" else 2 * i - 3
        rows.append({e - m: bilinear_entry(i - 2, m) for m in range(min(e, i) + 1)})
    return packed_minor_sum(rows, 0)


def integral_I(n: int, avec) -> GenPoly:
    """The interpolating integral over u_1..u_{n-1}: the k-th variable gets
    the denominator u**(2k), numerators (1 + u + a_k u**2) and (1 + x u), the
    factor 1/(1 + u(1-y)) expanded about the origin, and every pair the qKZ
    cross factor.  avec supplies a_1..a_{n-1} as rationals or polynomials in
    (x, y); the result does not depend on them (the a-independence suite
    checks it): a_l = 0 gives the ASM polynomial, a_l = y(1-y) the
    lattice-path one.  A scalar a_k = p/d enters as d + d u + p u**2, so the
    residue runs on integers and is divided once by the product of the d's.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(avec) != n - 1:
        raise ValueError("need n-1 interpolation entries")
    u = [f"u{l}" for l in range(1, n)]
    spec = IntegrandSpec(tuple(u), {ul: 2 * k for k, ul in enumerate(u, 1)})
    scale = 1
    for ul, a_l in zip(u, avec):
        if isinstance(a_l, MultiPoly):
            d, quad = 1, [(c, {**dict(zip(a_l.vars, e)), ul: 2}) for e, c in a_l.terms.items()]
        else:
            a_l = Fraction(a_l)
            d, quad = a_l.denominator, [(a_l.numerator, {ul: 2})]
        scale *= d
        spec.add_poly(_poly((d, {}), (d, {ul: 1}), *quad))
        spec.add_poly(_one_plus({ul: 1, "x": 1}))
        # 1/(1 + u_l (1-y)) = 1/(1 - (y-1) u_l)
        spec.add_geom(_poly((1, {ul: 1, "y": 1}), (-1, {ul: 1})))
    _add_qkz_cross(spec, u)
    residue = iterated_residue(spec)
    if scale != 1:
        residue = residue * Fraction(1, scale)
    return GenPoly.from_poly(residue)


def a_profile_y1y() -> MultiPoly:
    """The interpolation value y(1-y) selecting the lattice-path side."""
    y = MultiPoly.variable(XY, "y")
    return y - y * y


# ---------------------------------------------------------------------------
# The antisymmetrization identity behind the route equality
# ---------------------------------------------------------------------------

def is_symmetric(phi: MultiPoly, u_vars) -> bool:
    """Full symmetry under permuting u_vars, checked on adjacent swaps: phi
    over u_vars and then its other variables, with two names swapped in its
    variable tuple and aligned back, is phi."""
    phi = phi.align(tuple(u_vars) + tuple(v for v in phi.vars if v not in u_vars))
    for v1, v2 in zip(u_vars, u_vars[1:]):
        swap = {v1: v2, v2: v1}
        relabelled = MultiPoly([swap.get(v, v) for v in phi.vars], phi.terms)
        if relabelled.align(phi.vars) != phi:
            return False
    return True


def _antisym_lhs(u, coeff_vars, phi, tau):
    """The ordered side of the antisymmetrization identity: phi times the
    qKZ cross factors, with denominators u_i**(2i)."""
    spec = IntegrandSpec(tuple(u), {ui: 2 * i for i, ui in enumerate(u, 1)},
                         coeff_vars=coeff_vars)
    spec.add_poly(phi)
    _add_qkz_cross(spec, u, tau)
    return spec


def zeilid_check(n: int, tau, phi: MultiPoly):
    """Both sides of the antisymmetrization identity for a symmetric phi,
    evaluated as formal integrals; returns a report entry."""
    u = [f"u{i}" for i in range(1, n + 1)]
    coeff_vars = tuple(v for v in phi.vars if v not in u)
    if not is_symmetric(phi, u):
        raise ValueError("phi must be symmetric in the contour variables")

    lhs = _antisym_lhs(u, coeff_vars, phi, tau)
    rhs = IntegrandSpec(lhs.u_vars, lhs.denom_powers, [("poly", phi)], coeff_vars)
    for i, ui in enumerate(u, 1):
        rhs.add_poly(_one_plus({ui: 1}, tau) ** (i - 1))
    _add_cauchy(rhs, u)

    left = iterated_residue(lhs)
    right = iterated_residue(rhs)
    return check("antisymmetrization-identity", n, right, left,
                 tau=str(tau), phi=str(phi))


def phi_bilinear(n: int) -> MultiPoly:
    """prod_i (1+x u_i)(1+y u_i): the instance used by the route equality."""
    u = [f"u{i}" for i in range(1, n + 1)]
    variables = tuple(u) + XY
    return math.prod((_one_plus({ui: 1, w: 1}).align(variables) for ui in u for w in XY),
                     start=MultiPoly.constant(variables, 1))


def monomial_symmetric(n: int, shape) -> MultiPoly:
    """The monomial symmetric polynomial m_shape(u_1..u_n)."""
    variables = tuple(f"u{i}" for i in range(1, n + 1))
    shape = tuple(shape) + (0,) * (n - len(shape))
    if len(shape) > n:
        raise ValueError("shape longer than variable count")
    return MultiPoly(variables, {perm: 1 for perm in set(permutations(shape))})


def even_partition_sum_check(n: int, degree_bound: int):
    """Compare the sum of endpoint-sequence determinants det[u_i^{r_{j-1}}]
    (r_0 >= 0 even, odd gaps) against the closed product form
    prod_{j>i}(u_j-u_i) / prod_{j>=i}(1-u_j u_i), coefficientwise up to
    total degree `degree_bound`."""
    D = degree_bound
    u = tuple(f"u{i}" for i in range(1, n + 1))
    # distinct sequences and permutations give distinct exponent vectors
    lt = {tuple(seq[p] for p in perm): perm_sign(perm)
          for seq in _even_odd_sequences(n, D) if sum(seq) <= D
          for perm in permutations(range(n))}
    # With u_i -> t u_i, the residue in t of t**-(D+1)/(1-t) times the
    # product form is the sum of its homogeneous parts of degree <= D.
    product = IntegrandSpec(u, {})
    _add_cauchy(product, u)
    spec = IntegrandSpec(("t",), {"t": D + 1}, coeff_vars=u)
    for kind, p in product.factors:
        spec.factors.append(
            (kind, MultiPoly(("t",) + p.vars, {(sum(e),) + e: c for e, c in p.terms.items()})))
    spec.add_geom(_poly((1, {"t": 1})))
    rt = iterated_residue(spec).terms
    return check("even-partition-sum", n, f"{len(rt)} terms", f"{len(lt)} terms",
                 passed=lt == rt, degree_bound=D)


def _even_odd_sequences(n: int, bound: int):
    """0 <= r_0 < ... < r_{n-1} <= bound, r_0 even, consecutive gaps odd."""
    seqs = [[r] for r in range(0, bound + 1, 2)]
    for _ in range(n - 1):
        seqs = [s + [r] for s in seqs for r in range(s[-1] + 1, bound + 1, 2)]
    return seqs


def homogeneous_limit_check(n: int):
    """The two homogeneous-limit integrand forms must give equal iterated
    residues: n! times the ordered form equals the fully antisymmetrized
    form with every denominator power raised to 2n."""
    u = [f"u{i}" for i in range(1, n + 1)]
    phi = phi_bilinear(n)
    pre = _antisym_lhs(u, XY, phi, 1)

    post = IntegrandSpec(tuple(u), {ui: 2 * n for ui in u})
    post.add_poly(phi)
    post.factors += [("poly", f) for f in _vandermonde_pairs(u, {})]  # tau = 1
    _add_cauchy(post, u)

    left = iterated_residue(pre) * math.factorial(n)
    right = iterated_residue(post)
    return check("homogeneous-limit", n, right, left)
