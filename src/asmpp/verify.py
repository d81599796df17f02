"""Verification suites: every identity the library implements, runnable as
seeded, deterministic check lists with machine-readable witnesses.

Each suite maps (n, seed, samples) to a list of check records, built by
`checks.check` and `checks.witness_check` (see `checks.py` for the record
and the first-witness rule).  Identical (suite, n, seed, samples) always
produce the same checks, independent of worker count.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from random import Random

from . import antisym, contour, sixvertex
from .asm import asm_count_formula, enumerate_asms, genfun_doubly_refined
from .checks import check, witness_check
from .lgv import lgv_genfun_xy
from .nilp import enumerate_nilps, genfun_U, involution_g, involution_h, u_statistic
from .schur import (
    random_distinct_rationals,
    recursion_check_q3,
    schur_staircase,
    verify_dyck_values,
    wheel_check,
    zprime_residue_sum,
)
from .sixvertex import normalize_Z, weighted_partition_sum, zn_normalized
from .tsscpp import (
    mrr_u_statistic,
    mrr_u_statistic_upper_left,
    nilp_to_tsscpp,
    tsscpp_to_nilp,
)


def _rng(seed, suite, n):
    return Random(f"{seed}:{suite}:{n}")


# -- suites ------------------------------------------------------------------

def suite_doubly_refined(n, seed, samples):
    asms = genfun_doubly_refined(n, "tilde")
    paths = genfun_U(n, 0, 1)
    lgv = lgv_genfun_xy(n)
    return [
        check("asm-equals-paths", n, str(asms), str(paths)),
        check("asm-equals-lgv", n, str(asms), str(lgv)),
    ]


def suite_dyck(n, seed, samples):
    return verify_dyck_values(n)


def suite_wheel(n, seed, samples):
    samples = 20 if samples is None else samples
    return wheel_check(lambda pts: schur_staircase(n, pts), n, samples,
                       _rng(seed, "wheel", n))


def suite_recursion(n, seed, samples):
    samples = 5 if samples is None else samples
    checks = recursion_check_q3(n, samples, _rng(seed, "recursion", n))
    rng = _rng(seed, "recursion-generic", n)
    for _ in range(samples):
        s = random_distinct_rationals(rng, 2 * n)
        s = [v if v else Fraction(1, 17) for v in s]
        r = Fraction(rng.randint(2, 9), rng.randint(1, 9))
        if abs(r) == 1:
            r += 1
        q = r * r
        s[n] = s[0] / r  # z_{n+1} = z_1 / q
        z = [v * v for v in s]
        lhs = normalize_Z(weighted_partition_sum(n, s, r), n, s, r)
        ssub = s[1:n] + s[n + 1:]
        pref = Fraction(1) / q ** (n - 1)
        for j in range(1, n):
            pref *= z[0] - q * q * z[j]
        for j in range(n + 1, 2 * n):
            pref *= z[0] - z[j] / q
        rhs = pref * normalize_Z(
            weighted_partition_sum(n - 1, ssub, r), n - 1, ssub, r
        )
        checks.append(check("corner-recursion-generic-q", n, rhs, lhs,
                            point=[str(v) for v in z], q=str(q)))
    return checks


def suite_zeilid(n, seed, samples):
    checks = [contour.zeilid_check(n, 1, contour.phi_bilinear(n))]
    rng = _rng(seed, "zeilid", n)
    for _ in range(3):
        shape = sorted((rng.randint(0, 2) for _ in range(n)), reverse=True)
        checks.append(contour.zeilid_check(n, 1, contour.monomial_symmetric(n, shape)))
    return checks


def suite_a_independence(n, seed, samples):
    base = contour.integral_A(n)
    variants = [
        ("zeros", [Fraction(0)] * (n - 1)),
        ("y(1-y)", [contour.a_profile_y1y()] * (n - 1)),
    ]
    rng = _rng(seed, "a-independence", n)
    for k in range(3):
        variants.append(
            (f"random-{k}",
             [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)])
        )
    checks = []
    for label, avec in variants:
        got = contour.integral_I(n, avec)
        checks.append(check("interpolating-integral", n, str(base), str(got),
                            profile=label))
    return checks


def suite_appendix_d(n, seed, samples):
    samples = 10 if samples is None else samples
    rng = _rng(seed, "appendix-d", n)
    checks = []
    done = 0
    while done < samples:
        w = antisym.sample_points(rng, n)
        z = antisym.sample_points(rng, n, forbid=set(w))
        r = Fraction(rng.randint(2, 9), rng.randint(1, 9))
        if abs(r) == 1:
            continue
        try:
            b = antisym.bn_brute(n, w, z, r)
            c = antisym.bn_closed(n, w, z, r)
        except antisym.SingularSampleError:
            continue
        checks.append(check("antisymmetrized-kernel", n, c, b,
                            w=[str(v) for v in w], z=[str(v) for v in z], q=str(r * r)))
        done += 1
    done = 0
    while done < samples:
        w = antisym.sample_points(rng, n)
        z = antisym.sample_points(rng, n, forbid=set(w))
        try:
            d = antisym.fbar_det(n, w, z)
            c = antisym.fbar_cauchy(n, w, z)
        except antisym.SingularSampleError:
            continue
        checks.append(check("cauchy-determinant", n, c, d,
                            w=[str(v) for v in w], z=[str(v) for v in z]))
        done += 1
    if n <= 3:
        checks.append(contour.homogeneous_limit_check(n))
    return checks


def suite_even_partitions(n, seed, samples):
    return [contour.even_partition_sum_check(n, 2 * n + 2)]


def suite_bijections(n, seed, samples):
    asms = list(enumerate_asms(n))
    paths = list(enumerate_nilps(n))
    return [
        check("asm-count", n, asm_count_formula(n), len(asms)),
        witness_check(
            "asm-vertex-roundtrip", n, "identity", "mismatch", asms,
            lambda a: sixvertex.six_vertex_to_asm(sixvertex.asm_to_six_vertex(a)) != a,
            lambda a: a.to_rows()),
        check("path-bundle-count", n, asm_count_formula(n), len(paths)),
        witness_check(
            "tsscpp-path-roundtrip", n, "identity", "mismatch", paths,
            lambda p: tsscpp_to_nilp(nilp_to_tsscpp(p)) != p,
            lambda p: p.to_json_dict()),
    ]


def suite_involutions(n, seed, samples):
    objs = list(enumerate_nilps(n))

    def slice_swap_broken(row_and_path):
        k, p = row_and_path
        q = involution_g(p, k)
        return (involution_g(q, k) != p
                or u_statistic(q, k) != u_statistic(p, k + 1)
                or u_statistic(q, k + 1) != u_statistic(p, k))

    def top_swap_broken(p):
        q = involution_h(p)
        return (involution_h(q) != p or (n >= 2 and q.steps[1] != p.steps[1])
                or u_statistic(q, 0) != (n - 1) - u_statistic(p, 1))

    checks = [
        witness_check("slice-swap-involution", n, "involution", "broken",
                      ((k, p) for k in range(1, n - 1) for p in objs),
                      slice_swap_broken,
                      lambda kp: {"row": kp[0], **kp[1].to_json_dict()}),
        witness_check("top-swap-involution", n, "involution", "broken", objs,
                      top_swap_broken, lambda p: p.to_json_dict()),
    ]
    base = genfun_U(n, 0, 1)
    for i in range(2, n + 1):
        checks.append(check("statistic-index-independence", n,
                            str(base), str(genfun_U(n, 0, i)), index=i))
    for i in range(2, n + 1):
        c0 = Counter((u_statistic(p, 0), u_statistic(p, i)) for p in objs)
        c1 = Counter(((n - 1) - u_statistic(p, 1), u_statistic(p, i)) for p in objs)
        checks.append(check("top-swap-count-identity", n,
                            sorted(c0.items()), sorted(c1.items()), index=i))
    return checks


def suite_mrr(n, seed, samples):
    pairs = [(p, nilp_to_tsscpp(p)) for p in enumerate_nilps(n)]

    def forms_differ(pair):
        a = pair[1]
        return any(mrr_u_statistic(a, k) != mrr_u_statistic_upper_left(a, k)
                   for k in range(1, n + 2))

    def statistics_differ(pair):
        p, a = pair
        return any(mrr_u_statistic(a, k) != u_statistic(p, k) for k in range(1, n + 1))

    def array_rows(pair):
        return pair[1].to_rows()

    checks = [
        witness_check("array-formula-agreement", n, "equal", "differ", pairs,
                      forms_differ, array_rows),
        witness_check("array-vs-path-statistics", n, "equal", "differ", pairs,
                      statistics_differ, array_rows),
    ]
    flip = Counter((n - 1) - mrr_u_statistic(a, n + 1) for _, a in pairs)
    u0 = Counter(u_statistic(p, 0) for p, _ in pairs)
    checks.append(check("extra-step-multiset", n, sorted(u0.items()),
                        sorted(flip.items())))
    return checks


def suite_zprime(n, seed, samples):
    samples = 20 if samples is None else samples
    rng = _rng(seed, "zprime", n)
    checks = []
    for _ in range(samples):
        pts = random_distinct_rationals(rng, 2 * n)
        zp = zprime_residue_sum(n, pts)
        sc = schur_staircase(n, pts)
        checks.append(check("residue-sum-vs-schur", n, sc, zp,
                            point=[str(v) for v in pts]))
    return checks


def suite_sixv_schur(n, seed, samples):
    from .algebra.cyclo import ZETA
    samples = 10 if samples is None else samples
    rng = _rng(seed, "six-vertex", n)
    checks = []
    for _ in range(samples):
        s = random_distinct_rationals(rng, 2 * n)
        s = [v if v else Fraction(1, 17) for v in s]
        z = [v * v for v in s]
        got = zn_normalized(n, z, ZETA)
        want = schur_staircase(n, z)
        checks.append(check("six-vertex-vs-schur", n, want, got,
                            point=[str(v) for v in z]))
    return checks


SUITES = {
    "doubly-refined": (suite_doubly_refined, (1, 5), 9),
    "dyck": (suite_dyck, (1, 4), 5),
    "wheel": (suite_wheel, (2, 3), 4),
    "recursion": (suite_recursion, (2, 3), 4),
    "zeilid": (suite_zeilid, (1, 4), 4),
    "a-independence": (suite_a_independence, (1, 4), 6),
    "appendix-d": (suite_appendix_d, (1, 3), 4),
    "even-partitions": (suite_even_partitions, (1, 3), 3),
    "bijections": (suite_bijections, (1, 4), 5),
    "involutions": (suite_involutions, (1, 4), 4),
    "mrr": (suite_mrr, (1, 4), 4),
    "zprime": (suite_zprime, (1, 3), 3),
    "six-vertex": (suite_sixv_schur, (1, 3), 3),
}


def _run_task(args):
    suite, n, seed, samples = args
    fn = SUITES[suite][0]
    return fn(n, seed, samples)


def run_verify(suite, n_range=None, seed=0, samples=None, workers=1):
    """Run one suite over an n-range; returns the versioned report dict."""
    if suite not in SUITES:
        raise KeyError(suite)
    fn, default_range, limit = SUITES[suite]
    lo, hi = n_range if n_range else default_range
    if hi > limit:
        raise ValueError(f"suite {suite} is limited to n <= {limit}")
    if lo < 1:
        raise ValueError("n must be >= 1")
    if max(lo, default_range[0]) > hi:
        raise ValueError(f"n range {lo}..{hi} is empty for suite {suite}, "
                         f"which needs {default_range[0]} <= n <= {limit}")
    lo = max(lo, default_range[0])  # suites with n >= 2 preconditions
    if samples is not None and samples < 0:
        raise ValueError("samples must be >= 0")
    tasks = [(suite, n, seed, samples) for n in range(lo, hi + 1)]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        results = [_run_task(t) for t in tasks]
    checks = [c for chunk in results for c in chunk]
    failures = [c for c in checks if not c["pass"]]
    return {
        "schema": "v1",
        "command": "verify",
        "suite": suite,
        "n_range": [lo, hi],
        "seed": seed,
        "samples": samples,
        "checks": checks,
        "total": len(checks),
        "failures": len(failures),
        "pass": not failures,
    }
