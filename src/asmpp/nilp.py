"""Non-intersecting lattice paths with the appended extra step.

A bundle of size n has paths t = 0..n-1; path t starts at (t, -t) and takes
t steps, each vertical (0,+1) or diagonal (+1,+1), ending on the line y = 0.
Paths may not share a lattice site (start sites and every site reached by a
regular step included).  One extra step is then appended to each path: the
first path's is diagonal, and each later path's is the unique choice making
consecutive final x-coordinates differ by an odd number.  The extra step is
determined, not chosen, so it is exempt from the collision rule.  One parity
rule states it, in `extra_steps`, `enumerate_nilps` and `genfun_U` alike:
with f the previous final x (0 before path 0) and e the end x of path t, the
extra step is vertical when e - f is odd, and the new final x is
e + 1 - (e - f) % 2.

The k-statistics: u^0 counts vertical extra steps; for k >= 1, u^k counts
vertical steps among the max(1, t-k+1)-th steps of the paths (a path with no
regular steps contributes nothing).

Both `enumerate_nilps` and `genfun_U` lay the paths down one at a time by
one profile rule.  Path t starts right of path t-1 and a step changes their
gap by at most one, so the paths avoid each other exactly when path t stays
strictly right of path t-1 at every height both reach (`_profiles_right_of`,
on x-profiles; a path's step string is read off its profile, D where x
rises).  `enumerate_nilps` reads each profile's children from one
per-process table (`_children`: the 2**(n-1) profiles of paths 0..n-2 and
the empty one, 64 with 1,716 children at the cap n = 7) and carries the
extra steps and the last final x down its walk (`_walk`), so a listed
bundle is built from finished tuples (`_bundle`) without the checks
`Nilp(steps)` runs.  The site rule in `Nilp.validate` is kept apart from
the walk as the independent check of the enumeration.

`genfun_U` counts bundles without listing them: its DP state is the last
path's x-profile and its final x; path t's share of u^0 follows from the
parity rule, and its share of u^k (k >= 1) from its own steps.  Each state
packs its counts by (u^i, u^j) into one int (see `GenPoly.from_packed`).
The sum over `enumerate_nilps` it replaces is kept in the tests as its
oracle.

Both involutions are one island rule (`_swap_doubles`): a double is two
consecutive steps of one path, paths whose doubles start at consecutive x
form an island, the doubles of an island run in a canonical order, and
exchanging two of their counts keeps every path's entry and exit sites.
"""

from __future__ import annotations

from functools import cache

from .genpoly import GenPoly

VERT = "V"
DIAG = "D"


class Nilp:
    """Immutable path bundle; `steps[t]` is the step string of path t and
    `extra[t]` its extra step."""

    __slots__ = ("n", "steps", "extra")

    def __init__(self, steps):
        steps = tuple(str(s) for s in steps)
        self.n = len(steps)
        self.steps = steps
        self.extra = extra_steps(steps)
        self.validate()

    def validate(self):
        n = self.n
        for t, s in enumerate(self.steps):
            if len(s) != t:
                raise ValueError(f"path {t} must have exactly {t} steps")
            if any(ch not in (VERT, DIAG) for ch in s):
                raise ValueError(f"path {t} has a step outside {{V, D}}")
        occupied = set()
        for t in range(n):
            for site in self.sites(t):
                if site in occupied:
                    raise ValueError(f"paths touch at {site}")
                occupied.add(site)

    def sites(self, t):
        """Lattice sites visited by path t's regular steps (start included)."""
        x, y = t, -t
        sites = [(x, y)]
        for ch in self.steps[t]:
            if ch == DIAG:
                x += 1
            y += 1
            sites.append((x, y))
        return sites

    def __eq__(self, other):
        return isinstance(other, Nilp) and self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        return f"Nilp({self.steps!r}, extra={self.extra!r})"

    def to_json_dict(self):
        return {
            "paths": [
                {"steps": self.steps[t], "extra": self.extra[t]}
                for t in range(self.n)
            ]
        }


def extra_steps(steps):
    """The extra steps of a bundle's step strings, by the parity rule."""
    extras = []
    prev_final = 0
    for t, s in enumerate(steps):
        end = t + s.count(DIAG)
        vert = (end - prev_final) % 2
        extras.append(VERT if vert else DIAG)
        prev_final = end + 1 - vert
    return tuple(extras)


def _profiles_right_of(prev):
    """The x-profiles of every path t = len(prev) that stays strictly right
    of the path t-1 whose x-profile is `prev`; a path's x-profile lists its
    x at the heights -t..0 it reaches."""
    t = len(prev)
    profiles = [(t,)]
    for bound in prev:
        profiles = [p + (x,) for p in profiles for x in (p[-1] + 1, p[-1]) if x > bound]
    return profiles


def _bundle(steps, extra):
    """A bundle from step and extra-step tuples the walk of `enumerate_nilps`
    has already made consistent: no string conversion, no parity rule, no
    site check."""
    p = object.__new__(Nilp)
    p.n = len(steps)
    p.steps = steps
    p.extra = extra
    return p


def enumerate_nilps(n: int):
    """Yield every size-n bundle exactly once, deterministically: path t
    runs over `_profiles_right_of` path t-1 (steps tried D before V)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # path 0 is the one profile right of the empty one: (0,), no steps
    yield from _walk(n, (), 0, (), ())


@cache
def _children(prev):
    """The paths right of the path with x-profile `prev`, in the order of
    `_profiles_right_of`, each as (x-profile, step string, end x)."""
    return tuple((p, "".join(DIAG if b > a else VERT for a, b in zip(p, p[1:])), p[-1])
                 for p in _profiles_right_of(prev))


def _walk(n, prev, prev_final, steps, extra):
    """The bundles of size n that continue the paths `steps`, whose extra
    steps are `extra` and whose last path has x-profile `prev` and final x
    `prev_final`; each new path's extra step follows from the parity rule."""
    last = len(steps) + 1 == n
    for profile, path, end in _children(prev):
        vert = (end - prev_final) % 2
        steps_t, extra_t = steps + (path,), extra + (VERT if vert else DIAG,)
        if last:
            yield _bundle(steps_t, extra_t)
        else:
            yield from _walk(n, profile, end + 1 - vert, steps_t, extra_t)


def u_statistic(p: Nilp, k: int) -> int:
    """The k-th vertical-step count (see module docstring)."""
    if not 0 <= k <= p.n:
        raise ValueError(f"k must be in [0, {p.n}]")
    if k == 0:
        return p.extra.count(VERT)
    count = 0
    for t in range(1, p.n):
        step_index = max(1, t - k + 1)
        if p.steps[t][step_index - 1] == VERT:
            count += 1
    return count


def genfun_U(n: int, i: int, j: int) -> GenPoly:
    """Sum over bundles of x**u^i * y**u^j."""
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError("statistic indices must be in [0, n]")
    if n < 1:
        raise ValueError("n must be >= 1")
    # a count packs into a width-bit field, top bit clear: path t has at
    # most 2**t step strings, so there are at most 2**(n*(n-1)/2) bundles
    width = n * (n - 1) // 2 + 2
    layer = {(0,): {1: 1}}  # x-profile -> final x -> packed counts
    for t in range(1, n):
        # path t adds to u^k (k >= 1) when its max(1, t-k+1)-th step is
        # vertical, and to u^0 when its extra step is
        step_i, step_j = (max(1, t - k + 1) if k else 0 for k in (i, j))
        nxt = {}
        for prev, finals in layer.items():
            for profile in _profiles_right_of(prev):
                end = profile[-1]
                u_i = step_i and profile[step_i] == profile[step_i - 1]
                u_j = step_j and profile[step_j] == profile[step_j - 1]
                into = nxt.setdefault(profile, {})
                for prev_final, packed in finals.items():
                    vert = (end - prev_final) % 2
                    shift = ((u_i if step_i else vert) + (u_j if step_j else vert) * n) * width
                    final = end + 1 - vert
                    into[final] = into.get(final, 0) + (packed << shift)
        layer = nxt
    total = sum(packed for finals in layer.values() for packed in finals.values())
    return GenPoly.from_packed(total, n, width)


# ---------------------------------------------------------------------------
# Involutions on the bundle set
# ---------------------------------------------------------------------------

def _swap_doubles(p, starts, order, a, b):
    """Exchange the a-count with the b-count of doubles in each island.

    `starts` lists (t, i): path t's double is its steps i and i+1, the extra
    step counting as step t.  Paths whose doubles start at consecutive x
    form an island; an island's doubles must run in the canonical `order`,
    and one with no double in `order` is left alone."""
    walks = [list(s + e) for s, e in zip(p.steps, p.extra)]
    islands = []
    for t, i in starts:
        x = t + p.steps[t][:i].count(DIAG)
        if not islands or x != prev_x + 1:
            islands.append([])
        islands[-1].append((t, i))
        prev_x = x
    for island in islands:
        doubles = ["".join(walks[t][i:i + 2]) for t, i in island]
        counts = {d: doubles.count(d) for d in order}
        if not any(counts.values()):
            continue
        if doubles != [d for d in order for _ in range(counts[d])]:
            raise AssertionError(f"island {island} is not in canonical order")
        counts[a], counts[b] = counts[b], counts[a]
        swapped = [d for d in order for _ in range(counts[d])]
        for (t, i), new in zip(island, swapped):
            walks[t][i:i + 2] = new
    return Nilp(["".join(w[:t]) for t, w in enumerate(walks)])


def involution_g(p: Nilp, row: int) -> Nilp:
    """Swap the vertical-step counts of regular slices `row` and `row + 1`.

    Paths crossing both slices carry a double step; within each island of
    consecutive double-step starts the doubles are forced into the order
    VV..VV VD..VD DV..DV DD..DD, and exchanging the VD-count with the
    DV-count exchanges the slice counts while every path's entry and exit
    sites stay put.  Applying it twice restores the original bundle.
    """
    k = row
    if not 1 <= k <= p.n - 2:
        raise ValueError(f"row must be in [1, {p.n - 2}]")
    # path t's slice-(k+1) step is its step t-k-1 (0-based)
    return _swap_doubles(p, [(t, t - k - 1) for t in range(k + 1, p.n)],
                         ("VV", "VD", "DV", "DD"), "VD", "DV")


def involution_h(p: Nilp) -> Nilp:
    """Swap double-vertical with double-diagonal counts in the top two
    slices (last regular step + extra step).

    The parity rule splits the top doubles into islands that are either all
    {VV, DD} or all {VD, DV}; exchanging the VV-count with the DD-count in
    the first kind exchanges the number of vertical extra steps with the
    number of diagonal last steps.  The first path is always of the second
    kind, hence invariant.
    """
    return _swap_doubles(p, [(t, t - 1) for t in range(1, p.n)], ("VV", "DD"), "VV", "DD")
