"""Exhaustive verification sweeps over coprime parameter pairs.

For every coprime pair 1 < b < a <= max_a this runs four independent
checks: the bad-chart path of the resolution equals the valuation's
positive path, branch lengths match continued-fraction digits, the
blow-up count equals the digit sum, and every chart of every trace
expands back to x^b - y^a exactly.  A pair is checked on ints: its
weights and continued-fraction digits are never held as a ``Fraction``.
The paths are compared by walking their runs side by side, one step per
run, and each chart as the exponent pairs and sign of its two terms, as
ints.  The charts are proved a run of the trace at a time, from the
closed form of the run's rows and of their blow-ups: both children of a
row expand to the row's polynomial, and a run's rows share their
exponent pairs while they pass through the origin, so a run whose ends
both do is blown up at its last row alone (see
``resolution.verify_reconstruction``).  Failures are report content,
never exceptions; the first counterexample is kept verbatim.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, NamedTuple, Optional

from .exactnum import _integer, _record
from .resolution import ResolutionTrace, resolve, theorem_report, verify_reconstruction
from .valtree import CorrespondenceReport, _pair_path, correspondence_report

CHECK_NAMES = (
    "path-equality",
    "cf-correspondence",
    "blow-up-count",
    "reconstruction",
)


class CheckCounts:
    """Passes and failures of one check; mutable, so not hashable."""

    def __init__(self, passed: int = 0, failed: int = 0):
        self.passed = passed
        self.failed = failed

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"CheckCounts(passed={self.passed!r}, failed={self.failed!r})"

    def record(self, ok: bool) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1


@_record
class Failure(NamedTuple):
    a: int
    b: int
    check: str
    detail: str


class VerifyReport:
    """The counts of a sweep, filled in as it runs; mutable, so not hashable.

    ``checks`` defaults to a fresh ``CheckCounts`` per name in ``CHECK_NAMES``.
    """

    def __init__(
        self,
        max_a: int,
        pairs: int = 0,
        checks: Optional[dict[str, CheckCounts]] = None,
        first_failure: Optional[Failure] = None,
    ):
        self.max_a = max_a
        self.pairs = pairs
        self.checks = {name: CheckCounts() for name in CHECK_NAMES} if checks is None else checks
        self.first_failure = first_failure

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return (
            f"VerifyReport(max_a={self.max_a!r}, pairs={self.pairs!r},"
            f" checks={self.checks!r}, first_failure={self.first_failure!r})"
        )

    @property
    def all_passed(self) -> bool:
        return all(c.failed == 0 for c in self.checks.values())


def coprime_pairs(max_a: int) -> Iterator[tuple[int, int]]:
    """All pairs 1 < b < a <= max_a with gcd(a, b) = 1, sorted."""
    for a in range(3, max_a + 1):
        for b in range(2, a):
            if gcd(a, b) == 1:
                yield a, b


def run_verify(max_a: int) -> VerifyReport:
    """Run the four checks over every coprime pair up to max_a.

    max_a below 3 gives an empty sweep, which trivially passes.  Pairs are
    processed in sorted order; the checks are independent per pair, so the
    outcome does not depend on ordering.  Each pair is resolved once and
    its positive path walked once; all four checks read those two results.
    A pair whose checks all pass adds one to each count; a failure's detail
    is formatted only for the first failure kept.
    """
    max_a = _integer(max_a, "max_a")
    if max_a < 1:
        raise ValueError("max_a must be positive")
    report = VerifyReport(max_a=max_a)
    counts = tuple(report.checks[name] for name in CHECK_NAMES)
    path_counts, cf_counts, blow_up_counts, chart_counts = counts

    for a, b in coprime_pairs(max_a):
        report.pairs += 1

        trace = resolve(a, b)
        path = _pair_path(a, b)
        equal = theorem_report(trace, path).equal
        corr = correspondence_report(a, b, path)
        oks = (
            equal,
            corr.match,
            trace.blow_up_count == sum(corr.cf_digits),
            verify_reconstruction(trace),
        )
        if oks[0] and oks[1] and oks[2] and oks[3]:
            path_counts.passed += 1
            cf_counts.passed += 1
            blow_up_counts.passed += 1
            chart_counts.passed += 1
            continue
        for check, ok in zip(counts, oks):
            check.record(ok)
        if report.first_failure is None:
            report.first_failure = _failure(a, b, trace, corr, oks)

    return report


def _failure(
    a: int, b: int, trace: ResolutionTrace, corr: CorrespondenceReport, oks: tuple[bool, ...]
) -> Failure:
    """The ``Failure`` of the first check in ``oks``, in ``CHECK_NAMES`` order, that failed."""
    i = next(i for i, ok in enumerate(oks) if not ok)
    detail = (
        "bad-chart path differs from positive path",
        f"branch lengths {corr.branch_lengths} vs digits {corr.cf_digits}",
        f"{trace.blow_up_count} blow-ups vs digit sum {sum(corr.cf_digits)}",
        "some chart does not expand back to the curve",
    )[i]
    return Failure(a, b, CHECK_NAMES[i], detail)
