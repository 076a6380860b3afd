"""Exhaustive verification sweeps over coprime parameter pairs.

For every coprime pair 1 < b < a <= max_a this runs four independent
checks: the bad-chart path of the resolution equals the valuation's
positive path, branch lengths match continued-fraction digits, the
blow-up count equals the digit sum, and every chart of every trace
expands back to x^b - y^a exactly.  The paths are compared by walking
their runs side by side, one step per run, and each chart as the
exponent pairs and sign of its two terms, as ints.  The charts are
proved a run of the trace at a time, from the closed form of the run's
rows and of their blow-ups: both children of a row expand to the row's
polynomial, and a run's rows share their exponent pairs while they pass
through the origin, so a run whose ends both do is blown up at its last
row alone (see ``resolution.verify_reconstruction``).  Failures are
report content, never exceptions; the first counterexample is kept
verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterator, Optional

from .exactnum import _integer
from .resolution import resolve, theorem_report, verify_reconstruction
from .valtree import _pair_path, correspondence_report

CHECK_NAMES = (
    "path-equality",
    "cf-correspondence",
    "blow-up-count",
    "reconstruction",
)


@dataclass
class CheckCounts:
    passed: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1


@dataclass(frozen=True)
class Failure:
    a: int
    b: int
    check: str
    detail: str


@dataclass
class VerifyReport:
    max_a: int
    pairs: int = 0
    checks: dict[str, CheckCounts] = field(
        default_factory=lambda: {name: CheckCounts() for name in CHECK_NAMES}
    )
    first_failure: Optional[Failure] = None

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
    A failure's detail is a template, formatted only for the first failure
    kept.
    """
    max_a = _integer(max_a, "max_a")
    if max_a < 1:
        raise ValueError("max_a must be positive")
    report = VerifyReport(max_a=max_a)

    def record(a: int, b: int, name: str, ok: bool, detail: str, *args) -> None:
        report.checks[name].record(ok)
        if not ok and report.first_failure is None:
            report.first_failure = Failure(a, b, name, detail.format(*args))

    for a, b in coprime_pairs(max_a):
        report.pairs += 1

        trace = resolve(a, b)
        path = _pair_path(a, b)

        thm = theorem_report(trace, path)
        record(a, b, "path-equality", thm.equal, "bad-chart path differs from positive path")

        corr = correspondence_report(a, b, path)
        record(
            a, b, "cf-correspondence", corr.match,
            "branch lengths {} vs digits {}", corr.branch_lengths, corr.cf_digits,
        )

        digit_sum = sum(corr.cf_digits)
        record(
            a, b, "blow-up-count", trace.blow_up_count == digit_sum,
            "{} blow-ups vs digit sum {}", trace.blow_up_count, digit_sum,
        )

        record(
            a, b, "reconstruction", verify_reconstruction(trace),
            "some chart does not expand back to the curve",
        )

    return report
