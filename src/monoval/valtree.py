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
group supplies (``ratio_digits``), at one monomial division per vertex,
with no comparison and no convergent bracket; only the up-front checks
compare values.  ``positive_child`` keeps the one-step comparison, as the
definition the walk is tested against.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import gcd
from typing import Iterator, Optional

from .exactnum import cf_expand
from .laurent import IDENTITY_BASIS, ChartBasis, Monomial, X, Y, lattice_solve
from .valuation import UNBOUNDED, MonomialValuation, Value


TreeVertex = ChartBasis
ROOT = IDENTITY_BASIS


@dataclass(frozen=True)
class PositivePath:
    """Ordered vertices of the positive path, starting at k[x, y].

    ``complete`` is False when the walk stopped at the step budget with
    more path remaining; truncation is always explicit, never silent.
    """

    vertices: tuple[TreeVertex, ...]
    complete: bool

    @property
    def status(self) -> str:
        return "complete" if self.complete else "truncated"

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __getitem__(self, i):
        return self.vertices[i]


@dataclass(frozen=True)
class Branch:
    """Maximal run of path vertices of the form k[s, t/s^m], m = 1..length."""

    s: Monomial
    t: Monomial
    length: int


@dataclass(frozen=True)
class CorrespondenceReport:
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
    if c > 0:
        return TreeVertex(v.g, v.f / v.g)
    return TreeVertex(v.f, v.g / v.f)


_END = object()  # marks the end of a finite digit expansion


def walk(nu: MonomialValuation) -> Iterator[TreeVertex]:
    """Yield the positive path from the root, driven by the digits of nu(x)/nu(y).

    With ``big``, ``small`` the generators of larger and smaller value, a
    digit d is the branch k[small, big/small^m] for m = 1..d, after which
    small and big/small^d are the new big and small (d = 0 just swaps
    them).  The last digit of a finite expansion stops one vertex short,
    where the two values coincide; an unbounded digit never ends.  Before
    the root it raises ValueError when nu(x) or nu(y) is not positive, or
    when they are equal: then there is no path to build, only the bare
    root.
    """
    vx, vy = nu(X), nu(Y)
    if nu.sign(vx) <= 0 or nu.sign(vy) <= 0:
        raise ValueError("k[x, y] is not positive: nu(x) and nu(y) must be positive")
    if nu.compare(vx, vy) == 0:
        raise ValueError("nu(x) = nu(y) is degenerate for path construction")
    yield ROOT
    big, small = X, Y
    digits = nu.group.ratio_digits()
    d = next(digits)
    while True:
        following = next(digits, _END)
        last = following is _END
        # range, not repeat: a digit may exceed a C integer
        branch = count() if d is UNBOUNDED else range(d - 1 if last else d)
        quotient = big
        for _ in branch:
            quotient = quotient / small
            yield TreeVertex(small, quotient)
        if last:
            return
        big, small = small, quotient
        d = following


def first_vertices(vertices: Iterator[TreeVertex], max_steps: int) -> Iterator[TreeVertex]:
    """The first ``max_steps`` vertices of a walk, or all of them when it ends sooner."""
    if max_steps < 0:
        raise ValueError("max_steps must not be negative")
    # islice takes no count past sys.maxsize, and no walk gets that far
    return islice(vertices, min(max_steps, sys.maxsize))


def take_path(vertices: Iterator[TreeVertex], max_steps: int) -> PositivePath:
    """The first ``max_steps`` vertices of a walk, as a path.

    The path is complete when the walk ends within them; the walk is
    asked for one vertex more to tell.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    taken = tuple(first_vertices(vertices, max_steps))
    complete = len(taken) < max_steps or next(vertices, None) is None
    return PositivePath(taken, complete)


def positive_path(nu: MonomialValuation, max_steps: int = 64) -> PositivePath:
    """Walk the positive path, visiting at most ``max_steps`` vertices.

    A rational ratio gives a finite path (walk until the two generator
    values coincide); an irrational one never terminates and the result
    is reported truncated.  Equal values on x and y are rejected up front:
    there is no path to build, only the bare root.
    """
    return take_path(walk(nu), max_steps)


def branch_decomposition(path: PositivePath) -> tuple[Branch, ...]:
    """Split a path into its monotone branches, in path order.

    Each vertex past the root shares exactly one generator with its
    predecessor; maximal runs with the same shared generator s form the
    branch B(s, t), where t is recovered from the run's first vertex
    {s, t/s}.  The root k[x, y] counts as the m = 0 member of the first
    branch and contributes no length.
    """
    verts = path.vertices
    if len(verts) < 2:
        raise ValueError("need at least two vertices to decompose")
    branches: list[Branch] = []
    pivot: Monomial | None = None
    t_mono: Monomial | None = None
    length = 0
    for prev, cur in zip(verts, verts[1:]):
        prev_gens = {prev.f, prev.g}
        if cur.f in prev_gens:
            shared, other = cur.f, cur.g
        elif cur.g in prev_gens:
            shared, other = cur.g, cur.f
        else:
            raise ValueError(f"{prev} and {cur} are not parent and child")
        if shared == pivot:
            length += 1
        else:
            if pivot is not None:
                branches.append(Branch(pivot, t_mono, length))
            pivot, t_mono, length = shared, shared * other, 1
    branches.append(Branch(pivot, t_mono, length))
    return tuple(branches)


def correspondence_report(a: int, b: int, path: PositivePath) -> CorrespondenceReport:
    """Compare the branch lengths of ``path`` with the digits of a/b.

    ``path`` should be the positive path of nu(x) = a, nu(y) = b, for
    coprime a > b >= 1.  The expected lengths are the canonical digits
    with the last one decremented (equivalently, the longer expansion
    ending in 1, dropped); a trailing zero-length branch is dropped.
    """
    lengths = tuple(br.length for br in branch_decomposition(path))
    cf = cf_expand(Fraction(a, b))
    expected = list(cf.digits)
    expected[-1] -= 1
    if expected and expected[-1] == 0:
        expected.pop()
    expected_t = tuple(expected)
    return CorrespondenceReport(a, b, lengths, cf.digits, expected_t, lengths == expected_t)


def cf_correspondence_check(a: int, b: int) -> CorrespondenceReport:
    """Compare branch lengths from a direct walk with the digits of a/b."""
    a, b = int(a), int(b)
    if not (a > b >= 1):
        raise ValueError("need a > b >= 1")
    if gcd(a, b) != 1:
        raise ValueError(f"({a}, {b}) are not coprime")
    nu = MonomialValuation.rational(a, b)
    return correspondence_report(a, b, positive_path(nu, max_steps=a + b))


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
