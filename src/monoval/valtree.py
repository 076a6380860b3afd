"""The tree of coordinate rings k[f, g] and its positive paths.

The tree is rooted at k[x, y]; a vertex k[f, g] has children k[f, g/f]
and k[g, f/g].  It is never materialized: children are generated on
demand.  A vertex is a ``laurent.ChartBasis`` (``TreeVertex`` is that
class), so it is also the basis of a blow-up chart.  Given a valuation
with positive values on x and y, the vertices all of whose generators
have strictly positive value form a path.  The walk down that path, its
decomposition into monotone branches, and the match between branch
lengths and continued-fraction digits live here.

The walk is the Euclidean algorithm on (nu(x), nu(y)): the branch
k[s, t/s^m] runs for as many steps as the matching continued-fraction
digit of nu(x)/nu(y).  So the path is read off the digits that the value
group supplies (``ratio_digits``), with no comparison and no convergent
bracket; only the up-front checks compare values.  ``walk_runs`` yields
one run per digit, ((fx, fy, gx, gy), n): the n vertices k[f, g/f^j],
j = 0..n-1, of f = x^fx y^fy and g = x^gx y^gy.  A ``PositivePath``
keeps those runs, so it takes memory in the number of digits, not of
vertices, and builds a ``TreeVertex`` only when one is read.
``branch_decomposition`` reads the runs, splitting vertices only where
two runs meet, and ``valring.membership_union`` reads them to find the
first vertex ring that holds a monomial.  ``positive_child`` keeps the
one-step comparison, a vertex at a time, as the definition the walk is
tested against.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import eq, index
from typing import Callable, Iterator, NamedTuple, Optional

from .exactnum import _coprime_pair, _integer, _record, euclid_digits
from .laurent import IDENTITY_BASIS, ChartBasis, Monomial, X, Y, lattice_solve, monomial_name
from .valuation import UNBOUNDED, MonomialValuation, Value


TreeVertex = ChartBasis
ROOT = IDENTITY_BASIS

# ((fx, fy, gx, gy, ...), n): n items that start at the tuple and step by
# one blow-up or one vertex each; n is None for a run without end.
Run = tuple[tuple[int, ...], Optional[int]]


class ExpandedRuns(Sequence):
    """The items of runs, ``at(start, j)`` for j < n of each run (start, n), built when read.

    ``len`` is the sum of the lengths.  Iteration reads each run's items
    by ``at`` in order.  Indexing reads a non-slice index with
    ``operator.index``, as a tuple does, and walks the runs, subtracting
    their lengths until the index falls inside one.  Equal to any tuple,
    list or expanded runs with equal items in the same order.  Copies and
    pickles rebuild it from its runs, at every pickle protocol.
    """

    __slots__ = ("_runs", "_count", "_at")

    def __init__(self, runs: tuple[Run, ...], n: int, at: Callable[[tuple, int], object]):
        self._runs = runs
        self._count = n
        self._at = at

    def __reduce__(self):
        return ExpandedRuns, (self._runs, self._count, self._at)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator:
        at = self._at
        for start, n in self._runs:
            # range, not repeat: a length may exceed a C integer
            for j in range(n):
                yield at(start, j)

    def __getitem__(self, i):
        n = self._count
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(n))))
        i = index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("index out of range")
        for start, length in self._runs:
            if i < length:
                return self._at(start, i)
            i -= length

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, list, ExpandedRuns)):
            return NotImplemented
        n = other._count if isinstance(other, ExpandedRuns) else len(other)
        return self._count == n and all(map(eq, self, other))

    __hash__ = None


def _same_vertices(runs: tuple[Run, ...], others: tuple[Run, ...]) -> bool:
    """Whether two lists of finite runs hold the same vertices, in order.

    Two vertices are the same when they hold the same two generators, in
    either order.  The lists are walked side by side, a stretch at a
    time: the longest stretch that lies inside one run on each side.  Its
    vertices agree when its first vertices are equal as four ints; a
    stretch of one vertex also agrees with its generators swapped.  Past
    one vertex the shared generator decides, since k[f, g/f] is never
    k[g, f/g].  Every stretch ends a run, so the walk takes at most one
    step per run of either side, and it builds no vertex.  Empty runs
    are skipped; when one list runs out first, they differ.
    """
    ours, theirs = _nonempty(runs), _nonempty(others)
    (u, m), (v, n) = next(ours, _NO_RUN), next(theirs, _NO_RUN)
    while m and n:
        k = min(m, n)
        if u != v and (k > 1 or u != (v[2], v[3], v[0], v[1])):
            return False
        m -= k
        n -= k
        u, m = (_base_at(u, k), m) if m else next(ours, _NO_RUN)
        v, n = (_base_at(v, k), n) if n else next(theirs, _NO_RUN)
    return m == n


_NO_RUN = (None, 0)  # what a list of runs yields past its last


def _nonempty(runs: Iterable[Run]) -> Iterator[Run]:
    """The runs of at least one vertex, each from its first four ints."""
    return ((start[:4], n) for start, n in runs if n > 0)


def _vertex_runs(vertices: Iterable[TreeVertex]) -> Iterator[Run]:
    """A run of one for each vertex."""
    for v in vertices:
        yield (v.f.ex, v.f.ey, v.g.ex, v.g.ey), 1


def _base_at(start: tuple, j: int) -> tuple[int, int, int, int]:
    """(fx, fy, gx, gy) of k[f, g/f^j], vertex j of the run from (f, g, ...).

    ``start`` may be a trace row: only its first four ints are read.  Hot
    loops that visit every vertex of a run subtract f instead.
    """
    fx, fy, gx, gy = start[:4]
    return fx, fy, gx - j * fx, gy - j * fy


def _vertex_at(start: tuple, j: int) -> TreeVertex:
    fx, fy, gx, gy = _base_at(start, j)
    return TreeVertex(Monomial(fx, fy), Monomial(gx, gy))


class PositivePath:
    """Ordered vertices of the positive path, starting at k[x, y], kept as runs.

    ``runs`` is a tuple of ((fx, fy, gx, gy), n), the n vertices
    k[f, g/f^j] for j = 0..n-1; a path from ``walk_runs`` has one run per
    digit, and a path made from vertices one run per vertex.
    ``vertices`` is a lazy sequence of ``TreeVertex``; ``count`` is the
    number of vertices.  ``len`` of the path or of ``vertices`` gives it
    up to ``sys.maxsize``, and past that raises ``OverflowError``, as
    Python's ``len`` does for any length that does not fit a C integer.
    ``complete`` is False when the walk stopped at the step budget with
    more path remaining; truncation is always explicit, never silent.
    Equality compares the vertices, generators in either order, and
    ``complete``.
    """

    __slots__ = ("runs", "complete", "count")

    def __init__(self, vertices: Iterable[TreeVertex], complete: bool):
        self.runs = tuple(_vertex_runs(vertices))
        self.count = len(self.runs)
        self.complete = complete

    @classmethod
    def from_runs(cls, runs: Iterable[Run], complete: bool) -> "PositivePath":
        """The path of finite, nonempty runs ((fx, fy, gx, gy), n)."""
        path = cls.__new__(cls)
        path.runs = tuple(runs)
        path.count = sum(n for _, n in path.runs)
        path.complete = complete
        return path

    def __reduce__(self):
        return (PositivePath.from_runs, (self.runs, self.complete))

    @property
    def vertices(self) -> ExpandedRuns:
        return ExpandedRuns(self.runs, self.count, _vertex_at)

    @property
    def status(self) -> str:
        return "complete" if self.complete else "truncated"

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[TreeVertex]:
        return iter(self.vertices)

    def __getitem__(self, i):
        return self.vertices[i]

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.complete == other.complete and self.count == other.count
                and _same_vertices(self.runs, other.runs))

    def __hash__(self) -> int:
        # Equal paths have equal ends, so two vertices hash a path of any length.
        v = self.vertices
        return hash((self.count, self.complete, *v[:1], *v[-1:]))

    def __repr__(self) -> str:
        return f"PositivePath.from_runs({self.runs!r}, complete={self.complete!r})"


@_record
class Branch(NamedTuple):
    """Maximal run of path vertices of the form k[s, t/s^m], m = 1..length."""

    s: Monomial
    t: Monomial
    length: int


@_record
class CorrespondenceReport(NamedTuple):
    """Branch lengths versus continued-fraction digits for one ratio."""

    a: int
    b: int
    branch_lengths: tuple[int, ...]
    cf_digits: tuple[int, ...]
    expected_lengths: tuple[int, ...]
    match: bool


def children(v: TreeVertex) -> tuple[TreeVertex, TreeVertex]:
    """The two child rings k[f, g/f] and k[g, f/g]; both unimodular."""
    return (TreeVertex(v.f, v.g / v.f), TreeVertex(v.g, v.f / v.g))


def positive_child(nu: MonomialValuation, v: TreeVertex) -> Optional[TreeVertex]:
    """The unique positive child, or None when nu(f) = nu(g).

    At a positive vertex with nu(f) != nu(g) exactly one of the quotients
    f/g, g/f has positive value, so exactly one child is positive.  With
    equal values both quotients have value 0 and the path ends here.
    """
    vf, vg = nu(v.f), nu(v.g)
    if nu.sign(vf) <= 0 or nu.sign(vg) <= 0:
        raise ValueError(f"{v} is not positive for {nu.describe()}")
    c = nu.compare(vf, vg)
    if c == 0:
        return None
    return children(v)[c > 0]


_END = object()  # marks the end of a finite digit expansion


def walk_runs(nu: MonomialValuation) -> Iterator[Run]:
    """Yield the positive path from the root as runs, one per digit of nu(x)/nu(y).

    The root k[x, y] is a run of its own.  With ``big``, ``small`` the
    generators of larger and smaller value, a digit d is the branch
    k[small, big/small^m] for m = 1..d, the run ((small, big/small), d),
    after which small and big/small^d are the new big and small (d = 0
    just swaps them, and gives no run).  The last digit of a finite
    expansion stops one vertex short, where the two values coincide; an
    unbounded digit is a run of length None, which never ends.  Before
    the root it raises ValueError when nu(x) or nu(y) is not positive,
    or when they are equal: then there is no path to build, only the
    bare root.
    """
    vx, vy = nu(X), nu(Y)
    if nu.sign(vx) <= 0 or nu.sign(vy) <= 0:
        raise ValueError("k[x, y] is not positive: nu(x) and nu(y) must be positive")
    if nu.compare(vx, vy) == 0:
        raise ValueError("nu(x) = nu(y) is degenerate for path construction")
    yield (1, 0, 0, 1), 1
    bx, by, sx, sy = 1, 0, 0, 1  # big = x, small = y
    digits = nu.group.ratio_digits()
    d = next(digits)
    while True:
        following = next(digits, _END)
        last = following is _END
        n = d - 1 if last and d is not UNBOUNDED else d
        if n != 0:
            yield (sx, sy, bx - sx, by - sy), n
        if last:
            return
        bx, by, sx, sy = sx, sy, bx - d * sx, by - d * sy
        d = following


def take_runs(runs: Iterator[Run], max_steps: int) -> PositivePath:
    """The first ``max_steps`` vertices of nonempty runs, as a path.

    The last run taken is cut short when it runs past the budget.  The
    path is complete when the runs end within the budget; they are asked
    for one run more to tell.  A budget below 1 or not an integer is a
    ValueError.
    """
    max_steps = _integer(max_steps, "max_steps")
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    taken, left = [], max_steps
    for start, n in runs:
        if n is not None and n <= left:
            taken.append((start, n))
            left -= n
            continue
        if left:
            taken.append((start, left))
        return PositivePath.from_runs(taken, complete=False)
    return PositivePath.from_runs(taken, complete=True)


def positive_path(nu: MonomialValuation, max_steps: int = 64) -> PositivePath:
    """Walk the positive path, visiting at most ``max_steps`` vertices.

    A rational ratio gives a finite path (walk until the two generator
    values coincide); an irrational one never terminates and the result
    is reported truncated.  Equal values on x and y are rejected up front:
    there is no path to build, only the bare root.  The path keeps one run
    per digit.
    """
    return take_runs(walk_runs(nu), max_steps)


def _pair_path(a: int, b: int) -> PositivePath:
    """The whole positive path of nu(x) = a, nu(y) = b, within its budget of a + b vertices."""
    return positive_path(MonomialValuation.rational(a, b), max_steps=a + b)


def branch_decomposition(path: PositivePath) -> tuple[Branch, ...]:
    """Split a path into its monotone branches, in path order.

    Each vertex past the root shares exactly one generator with its
    predecessor; maximal runs with the same shared generator s form the
    branch B(s, t), where t is recovered from the run's first vertex
    {s, t/s}.  The root k[x, y] counts as the m = 0 member of the first
    branch and contributes no length.  The steps inside a run of the path
    all share its f; only where two runs meet are the vertices compared.
    Generators are compared as exponent pairs, and a ``Monomial`` is
    built only for the branches returned.
    """
    return tuple(Branch(Monomial(*s), Monomial(*t), n) for s, t, n in _branches(path))


def _branches(path: PositivePath) -> list[list]:
    """[s, t, length] of each branch, s and t exponent pairs (see ``branch_decomposition``)."""
    if path.count < 2:
        raise ValueError("need at least two vertices to decompose")
    branches: list[list] = []
    for shared, t, steps in _shared_steps(path.runs):
        if branches and branches[-1][0] == shared:
            branches[-1][2] += steps
        else:
            branches.append([shared, t, steps])
    return branches


def _shared_steps(runs: tuple[Run, ...]) -> Iterator[tuple[tuple[int, int], tuple[int, int], int]]:
    """(s, t, k) for each stretch of k steps down a path that share the generator s.

    s and t are exponent pairs (ex, ey); t is s times the other generator
    of the vertex the stretch steps to first.  Inside a run ((f, g), n)
    the n - 1 steps share f and reach k[f, g/f] first; between two runs
    the first vertex of the second must share a generator with the last
    of the first.
    """
    prev = None
    for start, n in runs:
        fx, fy, gx, gy = start
        f, g = (fx, fy), (gx, gy)
        if prev is not None:
            if f in prev:
                shared = f
            elif g in prev:
                shared = g
            else:
                (px, py), (qx, qy) = prev
                raise ValueError(
                    f"k[{monomial_name(px, py)}, {monomial_name(qx, qy)}] and"
                    f" k[{monomial_name(fx, fy)}, {monomial_name(gx, gy)}] are not parent and child"
                )
            yield shared, (fx + gx, fy + gy), 1
        if n > 1:
            yield f, g, n - 1
        prev = f, _base_at(start, n - 1)[2:]


def correspondence_report(a: int, b: int, path: PositivePath) -> CorrespondenceReport:
    """Compare the branch lengths of ``path`` with the digits of a/b.

    ``path`` should be the positive path of nu(x) = a, nu(y) = b, for
    coprime a > b >= 1.  The expected lengths are the canonical digits
    with the last one decremented (equivalently, the longer expansion
    ending in 1, dropped).  The digits are Euclid's quotients of (a, b),
    read as ints: those ``cf_expand`` gives for a/b, since the quotients
    do not change when a and b are scaled.
    """
    lengths = tuple(n for _, _, n in _branches(path))
    digits = tuple(euclid_digits(a, b))
    expected = digits[:-1] + (digits[-1] - 1,)
    return CorrespondenceReport(a, b, lengths, digits, expected, lengths == expected)


def cf_correspondence_check(a: int, b: int) -> CorrespondenceReport:
    """Compare branch lengths from a direct walk with the digits of a/b."""
    a, b = _coprime_pair(a, b)
    return correspondence_report(a, b, _pair_path(a, b))


def lex_valuation_from_tail(f: Monomial, g: Monomial) -> MonomialValuation:
    """Z^2-valued valuation whose positive path runs through every k[f, g/f^t].

    Solves for nu(x), nu(y) in Z^2 so that nu(f) = (0, 1) and
    nu(g) = (1, 0); then nu(g/f^t) = (1, -t) is lexicographically positive
    for every t, so the path never leaves the tail.  With x = f^alpha g^beta
    in the chart (f, g), nu(x) = (beta, alpha), and likewise for y.
    """
    basis = ChartBasis(f, g)
    ax, bx = lattice_solve(X, basis)
    ay, by = lattice_solve(Y, basis)
    nu = MonomialValuation.lex((bx, ax), (by, ay))
    assert nu.group.realize(Value(f.ex, f.ey)) == (0, 1)
    assert nu.group.realize(Value(g.ex, g.ey)) == (1, 0)
    return nu
