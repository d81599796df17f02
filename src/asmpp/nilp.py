"""Non-intersecting lattice paths with the appended extra step.

A bundle of size n has paths t = 0..n-1; path t starts at (t, -t) and takes
t steps, each vertical (0,+1) or diagonal (+1,+1), ending on the line y = 0.
Paths may not share a lattice site (start sites and every site reached by a
regular step included).  One extra step is then appended to each path: the
first path's is diagonal, and each later path's is the unique choice making
consecutive final x-coordinates differ by an odd number.  The extra step is
determined, not chosen, so it is exempt from the collision rule.

The k-statistics: u^0 counts vertical extra steps; for k >= 1, u^k counts
vertical steps among the max(1, t-k+1)-th steps of the paths (a path with no
regular steps contributes nothing).

Both `enumerate_nilps` and `genfun_U` lay the paths down one at a time by
one profile rule.  Path t starts right of path t-1 and a step changes their
gap by at most one, so the paths avoid each other exactly when path t stays
strictly right of path t-1 at every height both reach (`_profiles_right_of`,
on x-profiles; a path's step string is read off its profile, D where x
rises).  The site rule in `Nilp.validate` is kept apart from it as the
independent check of the enumeration.

`genfun_U` counts bundles without listing them: its DP state is the last
path's x-profile and its final x; path t's extra step, and so its share of
u^0, follows from the parity of its end x minus that final x, and its share
of u^k (k >= 1) from its own steps.  Each state packs its counts by
(u^i, u^j) into one int (see `GenPoly.from_packed`).  The sum over
`enumerate_nilps` it replaces is kept in the tests as its oracle.
"""

from __future__ import annotations

from .genpoly import GenPoly

VERT = "V"
DIAG = "D"


class Nilp:
    """Immutable path bundle; `steps[t]` is the step string of path t and
    `extra[t]` its extra step."""

    __slots__ = ("n", "steps", "extra")

    def __init__(self, steps, validate=True):
        steps = tuple(str(s) for s in steps)
        self.n = len(steps)
        self.steps = steps
        self.extra = tuple(extra_steps(steps))
        if validate:
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

    def final_x(self, t) -> int:
        """x-coordinate of path t after the extra step."""
        return t + (self.steps[t] + self.extra[t]).count(DIAG)

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
    """The unique extra-step assignment: first path diagonal, consecutive
    finals differing by an odd number."""
    extras = []
    prev_final = None
    for t, s in enumerate(steps):
        end = t + sum(1 for ch in s if ch == DIAG)
        if t == 0:
            extras.append(DIAG)
            prev_final = end + 1
            continue
        if (end - prev_final) % 2 == 1:
            extras.append(VERT)
            prev_final = end
        else:
            extras.append(DIAG)
            prev_final = end + 1
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


def enumerate_nilps(n: int):
    """Yield every size-n bundle exactly once, deterministically: path t
    runs over `_profiles_right_of` path t-1 (steps tried D before V)."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def rec(prev, steps):
        if len(steps) == n:
            yield Nilp(steps, validate=False)
            return
        for profile in _profiles_right_of(prev):
            path = "".join(DIAG if b > a else VERT for a, b in zip(profile, profile[1:]))
            yield from rec(profile, steps + [path])

    yield from rec((0,), [""])


def u_statistic(p: Nilp, k: int) -> int:
    """The k-th vertical-step count (see module docstring)."""
    if not 0 <= k <= p.n:
        raise ValueError(f"k must be in [0, {p.n}]")
    if k == 0:
        return sum(1 for e in p.extra if e == VERT)
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
    # a count packs into a width-bit field: path t has at most 2**t step
    # strings, so there are at most 2**(n*(n-1)/2) bundles
    width = n * (n - 1) // 2 + 1
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

def _double_step_islands(starts):
    """Group path indices whose double-step start x-coordinates are
    consecutive; `starts` is a list of (path_index, x)."""
    islands = []
    current = []
    prev_x = None
    for t, x in starts:
        if prev_x is not None and x == prev_x + 1:
            current.append((t, x))
        else:
            if current:
                islands.append(current)
            current = [(t, x)]
        prev_x = x
    if current:
        islands.append(current)
    return islands


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
    steps = [list(s) for s in p.steps]
    starts = []
    for t in range(k + 1, p.n):
        lo_index = t - k - 1            # 0-based index of the slice-(k+1) step
        x = t + sum(1 for ch in p.steps[t][:lo_index] if ch == DIAG)
        starts.append((t, x))
    for island in _double_step_islands(starts):
        doubles = []
        for t, _x in island:
            lo = t - k - 1
            doubles.append(p.steps[t][lo] + p.steps[t][lo + 1])
        r = doubles.count("VV")
        s_cnt = doubles.count("VD")
        t_cnt = doubles.count("DV")
        u_cnt = doubles.count("DD")
        if doubles != ["VV"] * r + ["VD"] * s_cnt + ["DV"] * t_cnt + ["DD"] * u_cnt:
            raise AssertionError(f"island {island} is not in canonical order")
        swapped = ["VV"] * r + ["VD"] * t_cnt + ["DV"] * s_cnt + ["DD"] * u_cnt
        for (t, _x), new in zip(island, swapped):
            lo = t - k - 1
            steps[t][lo] = new[0]
            steps[t][lo + 1] = new[1]
    return Nilp(["".join(s) for s in steps])


def involution_h(p: Nilp) -> Nilp:
    """Swap double-vertical with double-diagonal counts in the top two
    slices (last regular step + extra step).

    The parity rule splits the top doubles into islands that are either all
    {VV, DD} or all {VD, DV}; exchanging the VV-count with the DD-count in
    the first kind exchanges the number of vertical extra steps with the
    number of diagonal last steps.  The first path is always of the second
    kind, hence invariant.
    """
    if p.n == 1:
        return p
    steps = [list(s) for s in p.steps]
    starts = []
    for t in range(1, p.n):
        x = t + sum(1 for ch in p.steps[t][:t - 1] if ch == DIAG)
        starts.append((t, x))
    for island in _double_step_islands(starts):
        doubles = []
        for t, _x in island:
            doubles.append(p.steps[t][t - 1] + p.extra[t])
        kinds = {d for d in doubles}
        if kinds <= {"VV", "DD"}:
            r = doubles.count("VV")
            s_cnt = doubles.count("DD")
            if doubles != ["VV"] * r + ["DD"] * s_cnt:
                raise AssertionError(f"island {island} is not in canonical order")
            swapped = ["VV"] * s_cnt + ["DD"] * r
            for (t, _x), new in zip(island, swapped):
                steps[t][t - 1] = new[0]
        elif kinds <= {"VD", "DV"}:
            continue  # second kind: h fixes it
        else:
            raise AssertionError(f"island {island} mixes both double kinds")
    return Nilp(["".join(s) for s in steps])
