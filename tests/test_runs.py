"""Runs against the stepwise oracles: traces, paths and branches.

``resolve`` jumps over a continued-fraction branch with one ``divmod``,
and a positive path keeps one run per digit.  Expanded, the runs must
equal the row-by-row driver ``oracles.resolve_rows`` and the
one-comparison-per-vertex walk ``oracles.bracket_walk``; the branches
read off the runs must equal the vertex-by-vertex split in ``oracles``;
and ``theorem_report``, which compares the runs' bases as ints, must
agree with a comparison of the vertices themselves.
"""

import random
import time
from itertools import accumulate, zip_longest
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from monoval import cli, valtree
from monoval.exactnum import CFStream, sqrt2_stream
from monoval.laurent import ChartBasis, Monomial
from monoval.resolution import resolve, theorem_report
from monoval.valtree import (
    PositivePath,
    TreeVertex,
    _base_at,
    _same_vertices,
    branch_decomposition,
    children,
    correspondence_report,
    positive_path,
    run_items,
)
from monoval.valuation import MonomialValuation


def fibonacci_pair(digits: int) -> tuple[int, int]:
    a, b = 1, 1
    while len(str(a)) < digits:
        a, b = a + b, a
    return a, b


# Every digit is 1: a run of one row per blow-up, the case runs cannot shorten.
FIB_201 = fibonacci_pair(201)


def ordered(vertices):
    return [(v.f, v.g) for v in vertices]


# ------------------------------------------------------------------ traces


# The long-branch families: a/b = [1; n], [n/2; 2] and [n/3; 1, 2], each one
# branch of about n blow-ups.
@example((10**6 + 1, 10**6))
@example((10**6 + 1, 2))
@example((10**6 + 1, 3))
@example((11, 10))
@example((11, 2))
@example((11, 3))
@example(FIB_201)
@settings(max_examples=40, deadline=None)
@given(oracles.coprime_pairs(10**40))
def test_expanded_runs_equal_the_stepwise_rows(pair):
    a, b = pair
    trace = resolve(a, b)
    starts = set(accumulate(n for _, n in trace.runs[:-1]))
    count, prev = 0, None
    for got, want in zip_longest(trace.rows, oracles.resolve_rows(a, b)):
        assert got == want, count
        # each run is as long as the rule allows
        assert (count in starts) == (prev is not None and not oracles.continues_run(prev)), count
        count, prev = count + 1, want
    assert trace.blow_up_count == count == sum(oracles.euclid_quotients(a, b))
    # one run per digit and one per change of side, besides the root
    assert len(trace.runs) <= 2 * len(oracles.euclid_quotients(a, b)) + 1


@example((1001, 3), random.Random(0))
@example((2001, 2000), random.Random(1))
@settings(max_examples=40, deadline=None)
@given(oracles.coprime_pairs(10**12), st.randoms(use_true_random=False))
def test_indexing_the_rows_walks_to_the_row_iteration_gives(pair, rng):
    trace = resolve(*pair)
    rows = list(trace.rows)
    steps = oracles.resolve_steps(*pair)
    n = len(rows)
    assert len(trace.rows) == n == trace.blow_up_count
    assert list(trace.steps) == steps
    for i in [0, n - 1, -1, -n] + [rng.randrange(-n, n) for _ in range(20)]:
        assert trace.rows[i] == rows[i]
        assert trace.steps[i] == steps[i]
    i, j = sorted(rng.randrange(n + 1) for _ in range(2))
    assert trace.rows[i:j] == tuple(rows[i:j])
    assert trace.rows[::-3] == tuple(rows[::-3])
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            trace.rows[i]


def test_expanded_runs_read_an_index_as_a_tuple_does():
    trace = resolve(7, 3)
    path = positive_path(MonomialValuation.rational(7, 3))
    for items in (trace.rows, trace.steps, path.vertices):
        as_tuple = tuple(items)
        assert items[True] == as_tuple[True] == as_tuple[1]
        for index in (1.0, "1", None, (1,)):
            with pytest.raises(TypeError) as expanded:
                items[index]
            with pytest.raises(TypeError) as plain:
                as_tuple[index]
            assert type(expanded.value) is type(plain.value)


def test_long_branches_take_a_few_runs_and_no_time():
    start = time.perf_counter()
    trace = resolve(10**6 + 1, 10**6)
    assert time.perf_counter() - start < 0.01
    assert trace.blow_up_count == 10**6 + 1
    huge = resolve(10**7 + 1, 10**7)
    assert huge.blow_up_count == 10**7 + 1 and len(huge.runs) == 4
    path = positive_path(MonomialValuation.rational(10**7 + 1, 10**7), max_steps=10**8)
    last = huge.rows[-1]
    assert path.complete and len(path.runs) == 3
    assert path[-1] == TreeVertex(Monomial(*last[:2]), Monomial(*last[2:4]))


# ------------------------------------------------------------------- paths


@st.composite
def valuations(draw):
    """A rational valuation or a periodic stream with digits up to 60."""
    if draw(st.booleans()):
        a, b = draw(st.integers(1, 10**9)), draw(st.integers(1, 10**9))
        if a == b:
            b += 1
        return MonomialValuation.rational(a, b)
    pre = draw(st.lists(st.integers(1, 60), max_size=3))
    period = draw(st.lists(st.integers(1, 60), min_size=1, max_size=3))
    d0 = draw(st.integers(0, 60))
    return MonomialValuation.from_stream(CFStream.from_periodic([d0, *pre], period))


# '1;40,7' is [1; 40, 7, 40, 7, ...]: the root, a run of one, then a run of
# 40 that a budget of 20 cuts after 18 vertices.
@example(MonomialValuation.from_stream(CFStream.from_periodic([1], [40, 7])), 20)
@example(MonomialValuation.rational(10**6 + 1, 10**6), 1000)
@example(MonomialValuation.from_stream(sqrt2_stream()), 1000)
@settings(max_examples=80, deadline=None)
@given(valuations(), st.integers(1, 1000))
def test_path_runs_expand_to_the_per_vertex_walk(nu, max_steps):
    path = positive_path(nu, max_steps=max_steps)
    vertices, complete = oracles.bracket_walk(nu, max_steps)
    assert ordered(path) == ordered(vertices) == ordered(path.vertices)
    assert list(run_items(path.runs, _base_at)) == [(v.f.ex, v.f.ey, v.g.ex, v.g.ey) for v in vertices]
    assert path.complete == complete and path.count == len(path) == len(vertices)
    assert all(n >= 1 for _, n in path.runs)
    for i in (0, -1, len(vertices) // 2):
        assert (path[i].f, path[i].g) == (vertices[i].f, vertices[i].g)


def test_a_truncated_stream_path_ends_inside_a_run(capsys):
    nu = MonomialValuation.from_stream(CFStream.from_periodic([1], [40, 7]))
    path = positive_path(nu, max_steps=20)
    assert [n for _, n in path.runs] == [1, 1, 18] and not path.complete
    assert path == PositivePath(oracles.bracket_walk(nu, 20)[0], complete=False)
    assert cli.main(["path", "--stream", "1;40,7", "--max-steps", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:-1] == [f"  {i}: {v}" for i, v in enumerate(oracles.bracket_walk(nu, 20)[0])]
    assert lines[-1] == "status: truncated (20 vertices)"


# ---------------------------------------------------------------- branches


@example(MonomialValuation.rational(24, 7), 64)
@example(MonomialValuation.rational(2, 7), 64)
@settings(max_examples=80, deadline=None)
@given(valuations(), st.integers(1, 300))
def test_branches_over_runs_equal_the_vertex_split(nu, max_steps):
    path = positive_path(nu, max_steps=max_steps)
    one_per_vertex = PositivePath(tuple(path), path.complete)
    if path.count < 2:
        for p in (path, one_per_vertex):
            with pytest.raises(ValueError, match="at least two"):
                branch_decomposition(p)
        return
    expected = oracles.branch_decomposition(path)
    assert branch_decomposition(path) == branch_decomposition(one_per_vertex) == expected


@pytest.mark.parametrize("runs, message", [
    ((((1, 0, 0, 1), 1), ((1, 1, 1, 2), 1)),
     "k[x, y] and k[x*y, x*y^2] are not parent and child"),
    # the last vertex of a run is compared, not its first
    ((((1, 0, 0, 1), 3), ((0, 1, 1, -1), 2)),
     "k[x, y/x^2] and k[y, x/y] are not parent and child"),
])
def test_runs_that_are_not_parent_and_child_are_refused_as_the_vertex_split_does(runs, message):
    path = PositivePath.from_runs(runs, complete=True)
    for split in (branch_decomposition, oracles.branch_decomposition):
        for p in (path, PositivePath(tuple(path), complete=True)):
            with pytest.raises(ValueError) as err:
                split(p)
            assert str(err.value) == message


@settings(max_examples=60, deadline=None)
@given(oracles.coprime_pairs(10**20), st.randoms(use_true_random=False))
def test_correspondence_over_runs_equals_the_vertex_split(pair, rng):
    a, b = pair
    path = positive_path(MonomialValuation.rational(a, b), max_steps=a + b)
    vertices = list(path)
    variants = [path, PositivePath(vertices[:-1], True), PositivePath(vertices[1:], True)]
    i = rng.randrange(1, len(vertices))
    sibling = next(v for v in children(vertices[i - 1]) if v != vertices[i])
    variants.append(PositivePath(vertices[:i] + [sibling] + vertices[i + 1:], True))
    for p in variants:
        try:
            expected = oracles.correspondence_report(a, b, p)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                correspondence_report(a, b, p)
            assert str(raised.value) == str(exc)
        else:
            assert correspondence_report(a, b, p) == expected
    assert correspondence_report(a, b, path).match


# ---------------------------------------------------------- theorem report


def vertex_equal(bad, path) -> bool:
    """The theorem's path equality, decided on ``TreeVertex`` objects."""
    return path.complete and len(path) == len(bad) and all(v == w for v, w in zip(bad, path))


@settings(max_examples=30, deadline=None)
@given(oracles.coprime_pairs(10**20), st.randoms(use_true_random=False))
def test_theorem_report_agrees_with_comparing_vertices(pair, rng):
    a, b = pair
    trace = resolve(a, b)
    bad = [TreeVertex(Monomial(*r[:2]), Monomial(*r[2:4])) for r in oracles.resolve_rows(a, b)]
    path = positive_path(MonomialValuation.rational(a, b), max_steps=a + b)
    vertices = list(path)
    i = rng.randrange(len(vertices))
    swapped = [TreeVertex(v.g, v.f) if rng.random() < 0.5 else v for v in vertices]
    moved = vertices[:i] + [children(vertices[i])[rng.randrange(2)]] + vertices[i + 1:]
    variants = [path, PositivePath(swapped, True), PositivePath(moved, True),
                PositivePath(vertices, False), PositivePath(vertices[:-1], True),
                PositivePath(vertices + [children(vertices[-1])[0]], True)]
    runs = path.runs
    for recut in (split_run, merge_runs, swap_run, run_off_by_one):
        changed = recut(runs, rng)
        if changed is not None:
            variants.append(PositivePath.from_runs(changed, True))
    for p in variants:
        assert theorem_report(trace, p).equal == vertex_equal(bad, p)
        if p.count == trace.blow_up_count:
            assert _same_vertices(trace.runs, p.runs) == all(map(ChartBasis.__eq__, bad, p))
        assert (p == path) == vertexwise_path_equal(p, path)
    assert theorem_report(trace, path).equal and theorem_report(trace, variants[1]).equal
    assert not theorem_report(trace, variants[2]).equal


def split_run(runs, rng):
    """A run of two or more cut in two, at a random vertex: the same vertices."""
    long = [i for i, (_, n) in enumerate(runs) if n >= 2]
    if not long:
        return None
    i = rng.choice(long)
    (fx, fy, gx, gy), n = runs[i]
    k = rng.randrange(1, n)
    cut = ((fx, fy, gx, gy), k), ((fx, fy, gx - k * fx, gy - k * fy), n - k)
    return runs[:i] + cut + runs[i + 1:]


def merge_runs(runs, rng):
    """Two neighbouring runs as one, from the first's start."""
    if len(runs) < 2:
        return None
    i = rng.randrange(len(runs) - 1)
    return runs[:i] + ((runs[i][0], runs[i][1] + runs[i + 1][1]),) + runs[i + 2:]


def swap_run(runs, rng):
    """One run started from (g, f) instead of (f, g)."""
    i = rng.randrange(len(runs))
    (fx, fy, gx, gy), n = runs[i]
    return runs[:i] + (((gx, gy, fx, fy), n),) + runs[i + 1:]


def run_off_by_one(runs, rng):
    """One run a vertex longer or shorter."""
    i = rng.randrange(len(runs))
    start, n = runs[i]
    n += rng.choice((-1, 1)) if n > 1 else 1
    return runs[:i] + ((start, n),) + runs[i + 1:]


def test_rows_and_paths_leave_equality_with_other_types_to_python():
    trace = resolve(24, 7)
    path = positive_path(MonomialValuation.rational(24, 7), max_steps=31)
    for seq in (trace.rows, path):
        assert seq.__eq__(object()) is NotImplemented
        assert seq != object()


def test_resolution_and_path_have_equal_maximal_runs_for_a_up_to_200():
    for a in range(3, 201):
        for b in range(2, a):
            if gcd(a, b) == 1:
                path = positive_path(MonomialValuation.rational(a, b), max_steps=a + b)
                assert oracles.maximal_runs(resolve(a, b).runs) == oracles.maximal_runs(path.runs), (a, b)


def test_a_run_is_merged_only_into_the_run_it_continues():
    # Every vertex is unimodular, and the two differ only at vertex 2,
    # k[x/y, y/x^2] against k[x, y/x^2]: the second run of the first list
    # starts from x/y, not x, so it does not continue the run before it.
    runs = (((1, 0, 0, 1), 2), ((1, -1, -2, 1), 1))
    others = (((1, 0, 0, 1), 3),)
    assert [str(v) for v in PositivePath.from_runs(runs, True)][2] == "k[x/y, y/x^2]"
    assert [str(v) for v in PositivePath.from_runs(others, True)][2] == "k[x, y/x^2]"
    assert oracles.maximal_runs(runs) == list(runs)
    assert not _same_vertices(runs, others)
    assert PositivePath.from_runs(runs, True) != PositivePath.from_runs(others, True)
    # a start one int off the continuation k[x, y/x^2], in any of the four
    for i in range(4):
        start = tuple(e + (k == i) for k, e in enumerate((1, 0, -2, 1)))
        assert oracles.maximal_runs((runs[0], (start, 1))) == [runs[0], (start, 1)], start


def test_merged_runs_keep_the_first_start():
    # k[x, y/x^j] for j < 5, split after vertex 2: one run from k[x, y]
    runs = (((1, 0, 0, 1), 2), ((1, 0, -2, 1), 3))
    whole = (((1, 0, 0, 1), 5),)
    assert oracles.maximal_runs(runs) == list(whole)
    assert _same_vertices(runs, whole)
    assert PositivePath.from_runs(runs, True) == PositivePath.from_runs(whole, True)


def test_a_path_hashes_by_building_at_most_two_vertices(monkeypatch):
    n = 10**12
    runs = (((1, 0, 0, 1), 1), ((0, 1, 1, -1), 1), ((0, 1, 1, -2), n - 2))  # k[x, y], k[y, x/y^j]
    path = PositivePath.from_runs(runs, True)
    built = []
    real_vertex_at = valtree._vertex_at

    def counted_vertex_at(start, j):
        built.append(j)
        assert len(built) <= 2, "a third vertex built"  # fails at once, where a walk would not end
        return real_vertex_at(start, j)

    monkeypatch.setattr(valtree, "_vertex_at", counted_vertex_at)
    h = hash(path)
    built.clear()
    split = runs[:2] + (((0, 1, 1, -2), 5), ((0, 1, 1, -7), n - 7))  # the same vertices
    assert oracles.maximal_runs(split) == oracles.maximal_runs(runs) == [runs[0], ((0, 1, 1, -1), n - 1)]
    assert PositivePath.from_runs(split, True) == path
    assert hash(PositivePath.from_runs(split, True)) == h


def greedy_right(runs):
    """The runs recut so that each run's last vertex starts the next run instead.

    The moved vertex is written in the order that steps into the next
    run, which swaps its generators where the next run steps by its g; a
    run of one vertex is left empty.  The vertices stay the same.
    """
    recut = list(runs)
    for i in range(len(recut) - 1):
        start, n = recut[i]
        fx, fy, gx, gy = _base_at(start, n - 1)
        nxt, m = recut[i + 1]
        moved = (fx, fy, gx, gy) if nxt[:2] == (fx, fy) else (gx, gy, fx, fy)
        recut[i:i + 2] = (start, n - 1), (moved, m + 1)
    return tuple(recut)


def test_the_greedy_right_recut_compares_equal_for_a_up_to_120():
    for a in range(3, 121):
        for b in range(2, a):
            if gcd(a, b) == 1:
                trace = resolve(a, b)
                path = positive_path(MonomialValuation.rational(a, b), max_steps=a + b)
                recut = PositivePath.from_runs(greedy_right(path.runs), True)
                assert recut == path and path == recut, (a, b)
                assert theorem_report(trace, recut).equal, (a, b)


def test_a_swapped_vertex_matches_alone_and_a_swapped_run_does_not():
    # k[x, y] is k[y, x]; but k[x, y], k[x, y/x] is not k[y, x], k[y, x/y]
    for n in (1, 2, 3):
        runs, swapped = (((1, 0, 0, 1), n),), (((0, 1, 1, 0), n),)
        assert _same_vertices(runs, swapped) == (n == 1), n
        assert (PositivePath.from_runs(runs, True) == PositivePath.from_runs(swapped, True)) == (n == 1)
    # a swapped start one int off k[y, x], in any of the four
    for i in range(4):
        start = tuple(e + (k == i) for k, e in enumerate((0, 1, 1, 0)))
        assert not _same_vertices((((1, 0, 0, 1), 1),), ((start, 1),)), start


def test_empty_runs_are_skipped_and_a_list_that_runs_out_first_differs():
    one, two = (((1, 0, 0, 1), 1),), (((1, 0, 0, 1), 2),)
    empty = ((0, 1, 1, 0), 0)
    assert _same_vertices((), ()) and _same_vertices((empty,), ())
    assert _same_vertices((empty,) + one + (empty,), one)
    assert _same_vertices(one + (empty, ((1, 0, -1, 1), 1)), two)
    assert not _same_vertices(one, two) and not _same_vertices(two, one)
    assert not _same_vertices((), one) and not _same_vertices(one, (empty,))


def random_recut(vertices, rng):
    """The vertices as runs cut at random, one-vertex runs in either order, and empty runs put in."""
    runs, i = [], 0
    while i < len(vertices):
        v = vertices[i]
        start, swapped = (v.f.ex, v.f.ey, v.g.ex, v.g.ey), (v.g.ex, v.g.ey, v.f.ex, v.f.ey)
        if i + 1 < len(vertices) and v.g in (vertices[i + 1].f, vertices[i + 1].g):
            start, swapped = swapped, start  # the next vertex shares g: step by it
        n = 1
        while i + n < len(vertices) and vertices[i + n] == valtree._vertex_at(start, n):
            n += 1
        n = rng.randint(1, n)
        if n == 1 and rng.random() < 0.5:
            start = swapped
        if rng.random() < 0.2:
            runs.append((rng.choice((start, swapped)), 0))
        runs.append((start, n))
        i += n
    return tuple(runs)


@settings(max_examples=60, deadline=None)
@given(oracles.coprime_pairs(10**3), st.randoms(use_true_random=False))
def test_random_recuts_compare_as_their_vertices_do(pair, rng):
    a, b = pair
    path = positive_path(MonomialValuation.rational(a, b), max_steps=a + b)  # one run per digit
    vertices = list(path)
    for _ in range(4):
        runs = random_recut(vertices, rng)
        recut = PositivePath.from_runs(runs, True)
        assert recut == path and path == recut
        for change in (swap_run, run_off_by_one):
            p = PositivePath.from_runs(change(runs, rng), True)
            for q in (path, recut, PositivePath(vertices, True)):
                assert (p == q) == (q == p) == vertexwise_path_equal(p, q)


def test_a_recut_path_of_10_12_vertices_compares_in_one_step_per_run(monkeypatch):
    n = 10**12
    path = positive_path(MonomialValuation.rational(n + 1, n), max_steps=2 * n + 1)
    # k[x, y], k[y, x/y], k[x/y, y^j/x^(j-1)] for j = 2..n, recut greedy-right:
    # k[y, x] alone, then k[x/y, y], k[x/y, y^2/x], ... as one run
    recut = PositivePath.from_runs((((0, 1, 1, 0), 1), ((1, -1, 0, 1), n)), True)
    assert greedy_right(path.runs) == (((1, 0, 0, 1), 0), ((0, 1, 1, 0), 1), ((1, -1, 0, 1), n))
    M = 10**7
    trace = resolve(M + 1, M)
    trace_recut = PositivePath.from_runs(
        greedy_right(positive_path(MonomialValuation.rational(M + 1, M), max_steps=2 * M + 1).runs), True)
    calls = []
    real_base_at = valtree._base_at

    def counted_base_at(start, j):
        calls.append(j)
        return real_base_at(start, j)

    def no_vertex_at(start, j):
        raise AssertionError("a vertex built")

    monkeypatch.setattr(valtree, "_base_at", counted_base_at)
    monkeypatch.setattr(valtree, "_vertex_at", no_vertex_at)
    for p, q, equal in ((path, recut, True), (recut, path, True), (path, path, True),
                        (path, PositivePath.from_runs(recut.runs[:1] + (((1, -1, -1, 2), n),), True), False)):
        calls.clear()
        assert (p == q) == equal
        assert len(calls) <= 2 * (len(p.runs) + len(q.runs)), calls
    calls.clear()
    assert theorem_report(trace, trace_recut).equal
    assert len(calls) <= 2 * (len(trace.runs) + len(trace_recut.runs)), calls


def vertexwise_path_equal(p, q) -> bool:
    """Path equality decided on ``ChartBasis`` vertices, one by one."""
    return p.complete == q.complete and len(p) == len(q) and all(map(ChartBasis.__eq__, p, q))


@settings(max_examples=40, deadline=None)
@given(oracles.coprime_pairs(10**12), st.randoms(use_true_random=False))
def test_path_equality_agrees_with_comparing_vertices(pair, rng):
    a, b = pair
    nu = MonomialValuation.rational(a, b)
    path = positive_path(nu, max_steps=a + b)  # one run per digit
    vertices = list(path)
    i = rng.randrange(1, len(vertices))
    v = vertices[i]
    sibling = next(w for w in children(vertices[i - 1]) if w != v)
    k = rng.randrange(1, len(vertices))
    variants = [
        path,
        PositivePath(vertices, path.complete),  # one run per vertex
        PositivePath(vertices[:i] + [TreeVertex(v.g, v.f)] + vertices[i + 1:], True),
        PositivePath(vertices[:i] + [sibling] + vertices[i + 1:], True),
        PositivePath(vertices[:-1], True),
        PositivePath(vertices, not path.complete),
        positive_path(nu, max_steps=k),  # cut after k vertices, inside a run or not
        PositivePath(vertices[:k], False),
    ]
    for p in variants:
        for q in variants:
            assert (p == q) == vertexwise_path_equal(p, q)
            if p == q:
                assert hash(p) == hash(q)
    assert variants[0] == variants[1] == variants[2] != variants[3]
    assert variants[6] == variants[7]
