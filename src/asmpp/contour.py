"""Formal contour integrals as iterated constant-term extraction.

An IntegrandSpec declares, per contour variable, the power of the monomial
denominator, plus an ordered list of factors.  Each factor is either a
polynomial or an explicitly declared geometric factor 1/(1-g) with g of
positive valuation in the contour variables: which poles sit inside the
contours is semantic input taken from the integral being encoded, never
inferred.

Evaluation multiplies everything out as a truncated Laurent series and takes
the coefficient of u**-1 one variable at a time.  Since every factor is a
polynomial (or expands into one) with nonnegative exponents, exponents never
decrease after the initial monomial; a term that overshoots exponent -1 in
any contour variable can therefore never contribute, which keeps the
intermediate series small no matter how generous the declared window is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from .algebra.matrix import perm_sign
from .algebra.poly import MultiPoly
from .algebra.series import (
    TruncatedSeries,
    ContourSideError,
    geometric_mul,
    positive_valuation,
)
from .checks import check
from .genpoly import GenPoly

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


def iterated_residue(spec: IntegrandSpec, order=None, hi=None):
    """Evaluate the iterated formal residue; returns a MultiPoly in the
    coefficient variables.

    order: contour variables, innermost first (default: reversed u_vars).
    hi: upper window bound per contour variable (default 2n, n = #vars);
    results are independent of hi because exponents in contour variables
    never decrease across the remaining factors.
    """
    u_vars = tuple(spec.u_vars)
    if order is None:
        order = tuple(reversed(u_vars))
    else:
        order = tuple(order)
        if sorted(order) != sorted(u_vars):
            raise ValueError("order must be a permutation of the contour variables")
    if hi is None:
        hi = 2 * len(u_vars)

    all_vars = spec.all_vars()
    rank = {v: i for i, v in enumerate(order)}

    # Every factor must have nonnegative exponents.  A factor is multiplied
    # in just before its earliest-integrated variable; one free of contour
    # variables joins the tail, which multiplies the residue.
    stages = [[] for _ in order]
    tail = []
    for kind, p in spec.factors:
        lifted = p.align(all_vars)
        for exps in lifted.terms:
            if any(e < 0 for e in exps):
                raise ValueError("factors must have nonnegative exponents")
        if kind == "geom" and not positive_valuation(lifted, u_vars):
            raise ContourSideError(
                "geometric factor has a constant term in the contour variables"
            )
        idxs = [rank[v] for v in u_vars if lifted.degree(v) > 0]
        if idxs:
            stages[min(idxs)].append((kind, lifted))
        else:
            tail.append((kind, lifted))

    # Exponents in contour variables never decrease (all factors checked
    # nonnegative), so only terms at exponent <= -1 can still reach the
    # residue: cap every contour window at min(hi, -1) from the start.
    cap = min(hi, -1)
    for v in order:
        if spec.denom_powers.get(v, 0) < 1:
            raise ValueError(f"window for {v} does not include exponent -1")
    starts = [-spec.denom_powers[v] for v in u_vars]
    if any(s > cap for s in starts):
        terms = {}  # the start term already lies past its window
    else:
        cols = [u_vars.index(v) for v in order]
        terms = _packed_residue(len(all_vars), starts, cap, cols, stages)

    result = MultiPoly(spec.coeff_vars, terms)
    for kind, p in tail:
        if kind != "poly":
            raise ContourSideError("geometric factor without contour variables")
        result = result * p.align(result.vars)
    return result


def _packed_residue(nvars, starts, cap, cols, stages):
    """The residue loop of iterated_residue on packed exponent vectors.

    A term's exponent vector is one int with a (k+1)-bit field per variable
    (contour variables first).  A contour field holds e - cap + 2**k - 1, so
    an exponent past the cap sets the field's top (guard) bit; k is wide
    enough for every exponent from the start up to the cap and for every
    factor exponent, so adding a factor term never carries into the next
    field.  A coefficient field holds the plain exponent, with k sized from
    a degree bound: each geometric power raises the total contour degree by
    at least 1, so at most sum(cap - start) of them fit in the windows.

    starts: start exponent per contour variable; cols: the column of each
    stage's variable; stages: per stage, ("poly" | "geom", factor lifted
    to all variables).  Returns {coefficient exponents: coefficient}.
    """
    nu = len(starts)
    budget = sum(cap - s for s in starts)
    span = [cap - s for s in starts] + [0] * (nvars - nu)
    top = [0] * nvars
    for stage in stages:
        for kind, lifted in stage:
            for i, column in enumerate(zip(*lifted.terms)):
                e = max(column)
                top[i] = max(top[i], e)
                if i >= nu:
                    span[i] += e * budget if kind == "geom" else e
    widths = [max(s, t).bit_length() for s, t in zip(span, top)]
    offs = []
    off = 0
    for k in widths:
        offs.append(off)
        off += k + 1
    lims = [1 << k for k in widths]
    guard = sum(lim << o for lim, o in zip(lims, offs))
    contour_guard = sum(lim << o for lim, o in zip(lims[:nu], offs))

    def pack(lifted):
        return [(sum(e << o for e, o in zip(exps, offs)), c)
                for exps, c in lifted.terms.items()]

    terms = {sum((s - cap + lim - 1) << o for s, lim, o in zip(starts, lims, offs)): 1}
    for col, stage in zip(cols, stages):
        for kind, lifted in stage:
            factor = pack(lifted)
            if kind == "poly":
                terms = _packed_mul(terms, factor, guard, contour_guard)
                continue
            acc = terms
            while acc:
                acc = _packed_mul(acc, factor, guard, contour_guard)
                for key, c in acc.items():
                    terms[key] = terms.get(key, 0) + c
            terms = {key: c for key, c in terms.items() if c}
        lim, o = lims[col], offs[col]
        mask, code = (2 * lim - 1) << o, (lim - 2 - cap) << o  # the code of -1
        terms = {key: c for key, c in terms.items() if key & mask == code}
    coeff = [(offs[i], lims[i] - 1) for i in range(nu, nvars)]
    return {tuple((key >> o) & m for o, m in coeff): c for key, c in terms.items()}


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


def _uvar(i):
    return f"u{i}"


def _mono(variables, assignment, coeff=1):
    exps = [0] * len(variables)
    for v, e in assignment.items():
        exps[variables.index(v)] = e
    return MultiPoly(variables, {tuple(exps): coeff})


def _difference(variables, ua, ub):
    """u_b - u_a."""
    return _mono(variables, {ub: 1}) + _mono(variables, {ua: 1}, -1)


def _add_qkz_cross(spec, variables, us, tau=1):
    """The qKZ cross factors (u_m - u_l)(1 + tau u_m + u_m u_l) for every
    pair with u_l before u_m in us."""
    for a, ul in enumerate(us):
        for um in us[a + 1:]:
            spec.add_poly(_difference(variables, ul, um))
            spec.add_poly(
                _mono(variables, {})
                + _mono(variables, {um: 1}, tau)
                + _mono(variables, {um: 1, ul: 1})
            )


def _add_cauchy_cross(spec, variables, us):
    """The Cauchy cross factors (u_j - u_i)/(1 - u_i u_j) for every pair with
    u_i before u_j in us."""
    for a, ui in enumerate(us):
        for uj in us[a + 1:]:
            spec.add_poly(_difference(variables, ui, uj))
            spec.add_geom(_mono(variables, {ui: 1, uj: 1}))


def _interpolating(n, avec, first, order, hi) -> GenPoly:
    """The interpolating integral over the n-1 variables u_first, u_first+1,
    ...: the k-th gets the denominator u**(2k), numerators (1 + u + a_k u**2)
    and (1 + x u), the factor 1/(1 + u(1-y)) expanded about the origin, and
    every pair gets the qKZ cross factor.

    A scalar a_k = p/d enters as d(1 + u + a_k u**2) = d + d u + p u**2, so
    the residue runs on integers; it is divided once by the product of the
    denominators d.  A polynomial a_k enters as it is (d = 1).
    """
    u = [_uvar(l) for l in range(first, first + n - 1)]
    variables = tuple(u) + XY
    spec = IntegrandSpec(
        u_vars=tuple(u),
        denom_powers={ul: 2 * k for k, ul in enumerate(u, 1)},
        coeff_vars=XY,
    )
    scale = 1
    for ul, a_l in zip(u, avec):
        if isinstance(a_l, MultiPoly):
            d = 1
            quad = a_l.align(variables) * _mono(variables, {ul: 2})
        else:
            a_l = Fraction(a_l)
            d = a_l.denominator
            quad = _mono(variables, {ul: 2}, a_l.numerator)
        scale *= d
        spec.add_poly(_mono(variables, {}, d) + _mono(variables, {ul: 1}, d) + quad)
        spec.add_poly(_mono(variables, {}) + _mono(variables, {ul: 1, "x": 1}))
        # 1/(1 + u_l (1-y)) = 1/(1 - (y-1) u_l)
        spec.add_geom(_mono(variables, {ul: 1, "y": 1}) + _mono(variables, {ul: 1}, -1))
    _add_qkz_cross(spec, variables, u)
    residue = iterated_residue(spec, order=order, hi=hi)
    if scale != 1:
        residue = residue * Fraction(1, scale)
    return GenPoly.from_poly(residue)


def integral_A(n: int, order=None, hi=None) -> GenPoly:
    """The (n-1)-fold formal integral for the doubly refined ASM polynomial:
    the interpolating integral with every a_l = 0, over variables u_2..u_n
    with denominators u_l**(2l-2), numerators (1+u_l)(1+x u_l), the
    1/(1+u_l(1-y)) factor expanded about the origin, and the antisymmetrizing
    cross factors (u_m - u_l)(1+u_m+u_m u_l)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _interpolating(n, [0] * (n - 1), 2, order, hi)


def integral_U(n: int, form: str = "raw", order=None, hi=None) -> GenPoly:
    """The refined lattice-path polynomial as a formal integral.

    form="raw": the n-fold integral with denominators u_i**(2i-1), factors
    1/(1-u_i**2), (1+x u_i), (1+y u_i) and (1+u_i)**(i-2) for i >= 2, and
    cross factors (u_j-u_i)/(1-u_i u_j).
    form="after-u1": the (n-1)-fold integral left after the innermost
    variable has been integrated out: the same factors over u_2..u_n, with
    denominators u_i**(2i-2).  Both must agree.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if form not in ("raw", "after-u1"):
        raise ValueError(f"unknown form {form!r}")
    first = 1 if form == "raw" else 2
    u = [_uvar(i) for i in range(first, n + 1)]
    variables = tuple(u) + XY
    spec = IntegrandSpec(
        u_vars=tuple(u),
        denom_powers={_uvar(i): 2 * i - first for i in range(first, n + 1)},
        coeff_vars=XY,
    )
    for i in range(first, n + 1):
        ui = _uvar(i)
        spec.add_geom(_mono(variables, {ui: 2}))                                 # 1/(1-u_i^2)
        spec.add_poly(_mono(variables, {}) + _mono(variables, {ui: 1, "x": 1}))  # 1 + x u_i
        if i >= 2:
            spec.add_poly(_mono(variables, {}) + _mono(variables, {ui: 1, "y": 1}))
            one_plus = _mono(variables, {}) + _mono(variables, {ui: 1})
            spec.add_poly(one_plus ** (i - 2))
    _add_cauchy_cross(spec, variables, u)
    return GenPoly.from_poly(iterated_residue(spec, order=order, hi=hi))


def integral_I(n: int, avec, order=None, hi=None) -> GenPoly:
    """The interpolating integral with numerators (1 + u_l + a_l u_l**2).

    avec supplies a_1..a_{n-1} as rationals or polynomials in (x, y); the
    result does not depend on them (a fact the verification suite checks):
    a_l = 0 gives the ASM polynomial, a_l = y(1-y) the lattice-path one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(avec) != n - 1:
        raise ValueError("need n-1 interpolation entries")
    return _interpolating(n, avec, 1, order, hi)


def a_profile_y1y() -> MultiPoly:
    """The interpolation value y(1-y) selecting the lattice-path side."""
    y = MultiPoly.variable(XY, "y")
    return y - y * y


# ---------------------------------------------------------------------------
# The antisymmetrization identity behind the route equality
# ---------------------------------------------------------------------------

def is_symmetric(phi: MultiPoly, u_vars) -> bool:
    """Full symmetry under permuting u_vars (checked on all transpositions)."""
    for a in range(len(u_vars) - 1):
        swapped = _swap_vars(phi, u_vars[a], u_vars[a + 1])
        if swapped != phi:
            return False
    return True


def _swap_vars(p: MultiPoly, v1, v2) -> MultiPoly:
    i1, i2 = p.vars.index(v1), p.vars.index(v2)
    terms = {}
    for exps, coeff in p.terms.items():
        e = list(exps)
        e[i1], e[i2] = e[i2], e[i1]
        terms[tuple(e)] = coeff
    return MultiPoly(p.vars, terms)


def _antisym_lhs(u, variables, coeff_vars, phi, tau):
    """The ordered side of the antisymmetrization identity: phi times the
    qKZ cross factors, with denominators u_i**(2i)."""
    spec = IntegrandSpec(tuple(u), {ui: 2 * i for i, ui in enumerate(u, 1)},
                         coeff_vars=coeff_vars)
    spec.add_poly(phi.align(variables))
    _add_qkz_cross(spec, variables, u, tau)
    return spec


def zeilid_check(n: int, tau, phi: MultiPoly, order=None, hi=None):
    """Both sides of the antisymmetrization identity for a symmetric phi,
    evaluated as formal integrals; returns a report entry."""
    u = [_uvar(i) for i in range(1, n + 1)]
    coeff_vars = tuple(v for v in phi.vars if v not in u)
    variables = tuple(u) + coeff_vars
    if not is_symmetric(phi.align(variables), u):
        raise ValueError("phi must be symmetric in the contour variables")

    lhs = _antisym_lhs(u, variables, coeff_vars, phi, tau)
    rhs = IntegrandSpec(tuple(u), {_uvar(i): 2 * i for i in range(1, n + 1)},
                        coeff_vars=coeff_vars)
    rhs.add_poly(phi.align(variables))
    for i in range(1, n + 1):
        ui = _uvar(i)
        one_tau = _mono(variables, {}) + _mono(variables, {ui: 1}, tau)
        rhs.add_poly(one_tau ** (i - 1))
        rhs.add_geom(_mono(variables, {ui: 2}))
    _add_cauchy_cross(rhs, variables, u)

    left = iterated_residue(lhs, order=order, hi=hi)
    right = iterated_residue(rhs, order=order, hi=hi)
    return check("antisymmetrization-identity", n, right, left,
                 tau=str(tau), phi=str(phi))


def phi_bilinear(n: int) -> MultiPoly:
    """prod_i (1+x u_i)(1+y u_i): the instance used by the route equality."""
    u = [_uvar(i) for i in range(1, n + 1)]
    variables = tuple(u) + XY
    phi = _mono(variables, {})
    for i in range(1, n + 1):
        ui = _uvar(i)
        phi = phi * (_mono(variables, {}) + _mono(variables, {ui: 1, "x": 1}))
        phi = phi * (_mono(variables, {}) + _mono(variables, {ui: 1, "y": 1}))
    return phi


def monomial_symmetric(n: int, shape) -> MultiPoly:
    """The monomial symmetric polynomial m_shape(u_1..u_n)."""
    u = [_uvar(i) for i in range(1, n + 1)]
    variables = tuple(u)
    shape = tuple(shape) + (0,) * (n - len(shape))
    if len(shape) > n:
        raise ValueError("shape longer than variable count")
    terms = {}
    for perm in set(permutations(shape)):
        terms[perm] = 1
    return MultiPoly(variables, terms)


def even_partition_sum_check(n: int, degree_bound: int):
    """Compare the sum of endpoint-sequence determinants det[u_i^{r_{j-1}}]
    (r_0 >= 0 even, odd gaps) against the closed product form
    prod_{j>i}(u_j-u_i) / prod_{j>=i}(1-u_j u_i), coefficientwise up to
    total degree `degree_bound`."""
    D = degree_bound
    u = [_uvar(i) for i in range(1, n + 1)]
    window = [(0, D)] * n
    lhs = TruncatedSeries(u, window)
    for seq in _even_odd_sequences(n, D):
        for perm in permutations(range(n)):
            sign = perm_sign(perm)
            exps = tuple(seq[perm[i]] for i in range(n))
            lhs = lhs + TruncatedSeries(u, window, {exps: sign})
    product = IntegrandSpec(tuple(u), {})
    _add_cauchy_cross(product, u, u)
    for ui in u:
        product.add_geom(_mono(u, {ui: 2}))
    rhs = TruncatedSeries.constant(u, window, 1)
    for kind, p in product.factors:
        rhs = rhs.mul_poly(p) if kind == "poly" else geometric_mul(rhs, p, u)
    lt = {e: c for e, c in lhs.terms.items() if sum(e) <= D}
    rt = {e: c for e, c in rhs.terms.items() if sum(e) <= D}
    return check("even-partition-sum", n, f"{len(rt)} terms", f"{len(lt)} terms",
                 passed=lt == rt, degree_bound=D)


def _even_odd_sequences(n: int, bound: int):
    """0 <= r_0 < ... < r_{n-1} <= bound, r_0 even, consecutive gaps odd."""
    seqs = [[r] for r in range(0, bound + 1, 2)]
    for _ in range(n - 1):
        nxt = []
        for s in seqs:
            r = s[-1] + 1
            while r <= bound:
                nxt.append(s + [r])
                r += 2
        seqs = nxt
    return seqs


def vandermonde_antisym_identity(n: int) -> bool:
    """AS{ prod_i (1+tau u_i)^(i-1) u_i^(2n-2i) } equals
    prod_{i<j} (u_i-u_j)(u_i+u_j+tau u_i u_j), with tau symbolic."""
    u = [_uvar(i) for i in range(1, n + 1)]
    variables = tuple(u) + ("tau",)
    lhs = MultiPoly(variables)
    for perm in permutations(range(n)):
        sign = perm_sign(perm)
        term = _mono(variables, {}, sign)
        for i in range(1, n + 1):
            ui = _uvar(perm[i - 1] + 1)
            one_tau = _mono(variables, {}) + _mono(variables, {ui: 1, "tau": 1})
            term = term * one_tau ** (i - 1) * _mono(variables, {ui: 2 * n - 2 * i})
        lhs = lhs + term
    rhs = _mono(variables, {})
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ui, uj = _uvar(i), _uvar(j)
            rhs = rhs * (_mono(variables, {ui: 1}) + _mono(variables, {uj: 1}, -1))
            rhs = rhs * (
                _mono(variables, {ui: 1})
                + _mono(variables, {uj: 1})
                + _mono(variables, {ui: 1, uj: 1, "tau": 1})
            )
    return lhs == rhs


def homogeneous_limit_check(n: int, order=None, hi=None):
    """The two homogeneous-limit integrand forms must give equal iterated
    residues: n! times the ordered form equals the fully antisymmetrized
    form with every denominator power raised to 2n."""
    tau = 1
    u = [_uvar(i) for i in range(1, n + 1)]
    variables = tuple(u) + XY
    phi = phi_bilinear(n)

    pre = _antisym_lhs(u, variables, XY, phi, tau)

    post = IntegrandSpec(tuple(u), {_uvar(i): 2 * n for i in range(1, n + 1)})
    post.add_poly(phi)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ui, uj = _uvar(i), _uvar(j)
            post.add_poly(_difference(variables, uj, ui))
            post.add_poly(
                _mono(variables, {ui: 1})
                + _mono(variables, {uj: 1})
                + _mono(variables, {ui: 1, uj: 1}, tau)
            )
    _add_cauchy_cross(post, variables, u)
    for ui in u:
        post.add_geom(_mono(variables, {ui: 2}))

    left = iterated_residue(pre, order=order, hi=hi) * math.factorial(n)
    right = iterated_residue(post, order=order, hi=hi)
    return check("homogeneous-limit", n, right, left)
