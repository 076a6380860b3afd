"""Seeded request generators for the three benchmark workloads.

A workload is a sequence of passes; pass ``k`` is a list of requests made
from ``(seed, k)`` alone, so the harness process that checks outputs can
rebuild exactly what the worker process ran.  Each request carries its
argv for ``monoval.cli.main``, the facts its oracle needs, and the work it
represents (pairs and steps) for the throughput metrics.

The program only ever sees the argv; every expected answer is derived
here from the numbers the generator drew, never from monoval.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

WORKLOADS = ("sweep", "deep", "queries")


@dataclass(frozen=True)
class Request:
    kind: str  # verify | resolve | path | stream | member | cf | ringgens
    argv: tuple[str, ...]
    expect: dict
    pairs: int  # integer pairs (a, b) the request processes
    steps: int  # blow-ups plus path vertices it produces when served

    @property
    def fmt(self) -> str:
        if "--format" in self.argv:
            return self.argv[self.argv.index("--format") + 1]
        return "text"


@dataclass(frozen=True)
class Sizes:
    sweep_max: int
    thin_b: tuple[int, int]  # range of b for thin pairs a = q*b + 1
    wide_digits: int  # continued-fraction digits of a wide pair
    queries_per_pass: int  # a multiple of len(QUERY_MIX)
    cf_min_digits: int  # decimal digits of the cf denominators
    ringgens_digits: int
    # --max-steps range of stream paths.  It deliberately reaches past the
    # depth that the stream group's budget of 256 convergents can decide.
    stream_steps: tuple[int, int]
    trace_queries_passes: int  # passes of queries in a traced run
    # Reference seconds of one untraced pass of sweep, deep and queries
    # (see hostspeed.py); they fix how many passes an untraced run makes.
    pass_ref_s: tuple[float, float, float]


FULL = Sizes(
    sweep_max=100,
    thin_b=(19_900, 20_100),
    wide_digits=300,
    queries_per_pass=30,
    cf_min_digits=200,
    ringgens_digits=100,
    stream_steps=(16, 768),
    trace_queries_passes=5,
    pass_ref_s=(6.2, 5.9, 0.62),
)

SMOKE = Sizes(
    sweep_max=12,
    thin_b=(150, 250),
    wide_digits=12,
    queries_per_pass=6,
    cf_min_digits=20,
    ringgens_digits=12,
    stream_steps=(16, 768),
    trace_queries_passes=1,
    pass_ref_s=(1.0, 1.0, 1.0),
)


def euclid_quotients(a: int, b: int) -> list[int]:
    """Quotients of the Euclidean algorithm on (a, b): the digits of a/b."""
    qs = []
    while b:
        q, a, b = a // b, b, a % b
        qs.append(q)
    return qs


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


# ---------------------------------------------------------------- sweep


def verify_request(n: int) -> Request:
    pairs = [(a, b) for a in range(3, n + 1) for b in range(2, a) if gcd(a, b) == 1]
    # Every pair's checks cover its resolution and its positive path, both
    # as long as the digit sum of a/b.
    steps = sum(2 * sum(euclid_quotients(a, b)) for a, b in pairs)
    return Request(
        kind="verify",
        argv=("verify", "--max", str(n), "--format", "json"),
        expect={"max_a": n, "pairs": len(pairs)},
        pairs=len(pairs),
        steps=steps,
    )


def sweep_pass(sizes: Sizes) -> list[Request]:
    """The exhaustive sweep; the seed cannot change an exhaustive input."""
    return [verify_request(sizes.sweep_max)]


# ----------------------------------------------------------------- deep


def thin_pair(rng: random.Random, sizes: Sizes) -> tuple[int, int]:
    """a = q*b + 1: digits [q; b], a long path of small integers."""
    b = rng.randint(*sizes.thin_b)
    q = rng.randint(1, 3)
    return q * b + 1, b


def wide_pair(rng: random.Random, sizes: Sizes) -> tuple[int, int]:
    """a/b = [d0; d1, ...] with digits in 1..40: huge exponents.

    Every wide pair uses the same digits, spread evenly over 1..40, in a
    seeded random order, so path lengths and number sizes stay alike from
    seed to seed while the pairs differ.
    """
    n = sizes.wide_digits
    digits = [1 + 40 * i // n for i in range(n)]
    rng.shuffle(digits)
    h, h1, k, k1 = 1, 0, 0, 1
    for d in digits:
        h, h1 = d * h + h1, h
        k, k1 = d * k + k1, k
    return h, k


# (command, pair shape, extra argv); resolve outputs are the big ones.  An
# odd number of requests keeps the median latency inside one request kind
# instead of halfway between two.
DEEP_PLAN = (
    ("resolve", "thin", ("--format", "json")),
    ("resolve", "wide", ("--format", "json")),
    ("resolve", "thin", ("--format", "dot")),
    ("resolve", "thin", ()),
    ("resolve", "wide", ("--trace",)),
    ("path", "thin", ("--format", "json")),
    ("path", "wide", ("--format", "dot")),
    ("path", "thin", ()),
    ("path", "wide", ("--format", "json")),
)


def deep_pass(seed: int, k: int, sizes: Sizes) -> list[Request]:
    rng = _rng("deep", seed, k)
    out = []
    for command, shape, extra in DEEP_PLAN:
        a, b = thin_pair(rng, sizes) if shape == "thin" else wide_pair(rng, sizes)
        digit_sum = sum(euclid_quotients(a, b))
        out.append(
            Request(
                kind=command,
                argv=(command, str(a), str(b)) + extra,
                expect={"a": a, "b": b},
                pairs=1,
                steps=digit_sum,
            )
        )
    return out


# -------------------------------------------------------------- queries


def _stream_request(rng: random.Random, sizes: Sizes, slot: int, slots: int) -> Request:
    """A stream path whose depth is drawn from stratum ``slot`` of ``slots``.

    The strata split the depth range evenly, so every pass has shallow and
    deep walks alike and a pass's cost varies little from seed to seed.
    """
    pre = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    period = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
    lo, hi = sizes.stream_steps
    steps = lo + int((slot + rng.random()) * (hi - lo) / slots)
    spec = ",".join(map(str, pre)) + ";" + ",".join(map(str, period))
    return Request(
        kind="stream",
        argv=("path", "--stream", spec, "--max-steps", str(steps), "--format", "json"),
        expect={"pre": pre, "period": period, "steps": steps},
        pairs=0,
        steps=steps,
    )


def _dense_polynomial(rng: random.Random) -> dict[tuple[int, int], int]:
    """9 distinct monomials of total degree <= 4, nonzero coefficients.

    The corners 1, x^4 and y^4 are always terms, so every power of the
    polynomial has the same Newton polygon and costs about the same; the
    other 6 monomials are drawn.
    """
    corners = [(0, 0), (4, 0), (0, 4)]
    inner = [(i, j) for i in range(5) for j in range(5 - i) if (i, j) not in corners]
    terms = corners + rng.sample(inner, 6)
    return {m: rng.choice([c for c in range(-9, 10) if c]) for m in terms}


def _poly_text(poly: dict[tuple[int, int], int]) -> str:
    parts = []
    for (i, j), c in poly.items():
        factors = [str(abs(c))] if abs(c) != 1 or (i, j) == (0, 0) else []
        factors += ["x" if i == 1 else f"x^{i}"] if i else []
        factors += ["y" if j == 1 else f"y^{j}"] if j else []
        term = "*".join(factors)
        parts.append(("- " if c < 0 else "+ ") + term)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# Powers (k1, k2) of the member requests of a pass, in turn: a fixed set,
# so a pass's cost does not hinge on how many high powers a seed draws.
MEMBER_POWERS = ((1, 4), (4, 1), (2, 3), (3, 2), (2, 2))


def _member_request(rng: random.Random, slot: int) -> Request:
    p1, p2 = _dense_polynomial(rng), _dense_polynomial(rng)
    k1, k2 = MEMBER_POWERS[slot % len(MEMBER_POWERS)]
    return member_request(p1, k1, p2, k2, rng.randint(1, 30), rng.randint(1, 30))


def member_request(p1: dict, k1: int, p2: dict, k2: int, a: int, b: int) -> Request:
    """``member "(P1)^k1/(P2)^k2" --a a --b b``.

    Distinct monomials with nonzero coefficients: nu(P) is the least
    term weight, and nu is multiplicative on products.
    """
    nu1 = min(a * i + b * j for i, j in p1)
    nu2 = min(a * i + b * j for i, j in p2)
    expression = f"({_poly_text(p1)})^{k1}/({_poly_text(p2)})^{k2}"
    return Request(
        kind="member",
        argv=("member", expression, "--a", str(a), "--b", str(b), "--format", "json"),
        expect={"a": a, "b": b, "expression": expression, "value": k1 * nu1 - k2 * nu2},
        pairs=1,
        steps=0,
    )


def _cf_request(rng: random.Random, sizes: Sizes) -> Request:
    digits = [rng.randint(0, 9)]
    h, h1, k, k1 = digits[0], 1, 1, 0
    while k < 10 ** (sizes.cf_min_digits - 1):
        d = rng.randint(1, 9)
        digits.append(d)
        h, h1 = d * h + h1, h
        k, k1 = d * k + k1, k
    if digits[-1] == 1:  # canonical expansions end in a digit >= 2
        digits[-1] = 2
        h, k = h + h1, k + k1
    return Request(
        kind="cf",
        argv=("cf", f"{h}/{k}", "--format", "json"),
        expect={"digits": digits},
        pairs=1,
        steps=0,
    )


def _ringgens_request(rng: random.Random, sizes: Sizes) -> Request:
    lo, hi = 10 ** (sizes.ringgens_digits - 1), 10**sizes.ringgens_digits
    while True:
        a = rng.randrange(lo, hi)
        b = rng.randrange(2, a)
        if gcd(a, b) == 1:
            break
    return Request(
        kind="ringgens",
        argv=("ringgens", str(a), str(b), "--format", "json"),
        expect={"a": a, "b": b},
        pairs=1,
        steps=0,
    )


# Shares per pass of six requests.  Quick cf/ringgens answers are two
# thirds, so the median latency lies inside their cluster rather than on
# the edge between the quick and the slow kinds; streams and dense member
# products make up the tail that the 95th percentile reads.
QUERY_MIX = ("stream", "member", "cf", "cf", "ringgens", "ringgens")


def queries_pass(seed: int, k: int, sizes: Sizes) -> list[Request]:
    """A fixed mix of the four kinds, shuffled, so every pass has one mix."""
    rng = _rng("queries", seed, k)
    kinds = list(QUERY_MIX) * (sizes.queries_per_pass // len(QUERY_MIX))
    rng.shuffle(kinds)
    streams = kinds.count("stream")
    seen = {kind: 0 for kind in QUERY_MIX}
    out = []
    for kind in kinds:
        slot = seen[kind]
        seen[kind] += 1
        if kind == "stream":
            out.append(_stream_request(rng, sizes, slot, streams))
        elif kind == "member":
            out.append(_member_request(rng, slot))
        elif kind == "cf":
            out.append(_cf_request(rng, sizes))
        else:
            out.append(_ringgens_request(rng, sizes))
    return out


# A traced run ends with this pass of tiny requests, one or more per
# command and format, so that every layer is entered on every workload and
# no per-layer time reads a constant 0.
PROBE_PASS = -1


def probe_pass() -> list[Request]:
    def rational(command, a, b, *extra):
        digit_sum = sum(euclid_quotients(a, b))
        return Request(command, (command, str(a), str(b)) + extra, {"a": a, "b": b}, 1, digit_sum)

    return [
        verify_request(8),
        rational("resolve", 24, 7, "--format", "json"),
        rational("resolve", 24, 7, "--format", "dot"),
        rational("resolve", 24, 7, "--trace"),
        rational("path", 24, 7),
        rational("path", 24, 7, "--format", "dot"),
        Request("stream", ("path", "--stream", "1;2", "--max-steps", "12", "--format", "json"),
                {"pre": [1], "period": [2], "steps": 12}, 0, 12),
        member_request({(2, 0): 1, (0, 1): -3}, 2, {(1, 1): 1, (0, 0): 2}, 1, 3, 2),
        Request("cf", ("cf", "355/113", "--format", "json"), {"digits": [3, 7, 16]}, 1, 0),
        Request("ringgens", ("ringgens", "24", "7", "--format", "json"), {"a": 24, "b": 7}, 1, 0),
    ]


def make_pass(workload: str, seed: int, k: int, sizes: Sizes) -> list[Request]:
    if k == PROBE_PASS:
        return probe_pass()
    if workload == "sweep":
        return sweep_pass(sizes)
    if workload == "deep":
        return deep_pass(seed, k, sizes)
    if workload == "queries":
        return queries_pass(seed, k, sizes)
    raise ValueError(f"unknown workload {workload!r}")


def untraced_passes(workload: str, seconds: float, sizes: Sizes) -> int:
    """Passes of an untraced run: as many as take ``seconds`` on the reference host.

    The count is fixed by the arguments alone, so every run of a workload
    has the same number of samples, however fast the machine is that day.
    """
    per_pass = sizes.pass_ref_s[WORKLOADS.index(workload)]
    return max(1, round(seconds / per_pass))


def trace_passes(workload: str, sizes: Sizes) -> list[int]:
    """Passes of a traced run: one whole pass, or several short ones, and the probe."""
    n = sizes.trace_queries_passes if workload == "queries" else 1
    return list(range(n)) + [PROBE_PASS]
