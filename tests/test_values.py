"""The package's value classes: repr, equality, hashing, assignment, pickling and refusals.

They were frozen (or, for ``CheckCounts`` and ``VerifyReport``, mutable)
dataclasses.  Each ``repr`` below is the string the dataclass printed, and
each refusal the message its ``__post_init__`` raised.  Most are now named
tuples, which index and iterate; ``CFExpansion`` is a slotted class, whose
``len`` is its number of digits.
"""

import copy
import pickle
from fractions import Fraction
from itertools import combinations

import pytest

from monoval.exactnum import CFExpansion
from monoval.expr import Literal, Negation, Power, Product, Quotient, Sum, Variable
from monoval.laurent import Monomial
from monoval.resolution import (
    MissesOrigin,
    OffOriginReport,
    ResolutionTrace,
    TheoremReport,
    ThroughOrigin,
    resolve,
)
from monoval.valring import RingPresentation
from monoval.valtree import Branch, CorrespondenceReport, ExpandedRuns, _pair_path
from monoval.valuation import Value
from monoval.verify import CheckCounts, Failure, VerifyReport, run_verify

X_NODE, ONE = Variable("x"), Literal(Fraction(1))
TRACE_REPR = (
    "ResolutionTrace(a=3, b=2, runs=(((1, 0, 0, 1, 0, 0, 2, 3, 1), 1),"
    " ((0, 1, 1, -1, 2, 0, 1, 2, -1), 1), ((1, -1, -1, 2, 3, 2, 1, 1, 1), 1)))"
)
PATH_REPR = (
    "PositivePath.from_runs((((1, 0, 0, 1), 1), ((0, 1, 1, -1), 1),"
    " ((1, -1, -1, 2), 1)), complete=True)"
)
COUNTS_REPR = "CheckCounts(passed=5, failed=0)"

# (class, keyword arguments in field order, repr)
VALUES = [
    (CFExpansion, {"digits": (3, 2)}, "CFExpansion(digits=(3, 2))"),
    (Literal, {"value": Fraction(1)}, "Literal(value=Fraction(1, 1))"),
    (Variable, {"name": "x"}, "Variable(name='x')"),
    (Negation, {"operand": X_NODE}, "Negation(operand=Variable(name='x'))"),
    (
        Sum, {"left": X_NODE, "right": ONE, "position": 2},
        "Sum(left=Variable(name='x'), right=Literal(value=Fraction(1, 1)), position=2)",
    ),
    (
        Product, {"left": X_NODE, "right": ONE, "position": 2},
        "Product(left=Variable(name='x'), right=Literal(value=Fraction(1, 1)), position=2)",
    ),
    (
        Quotient, {"left": X_NODE, "right": ONE, "position": 2},
        "Quotient(left=Variable(name='x'), right=Literal(value=Fraction(1, 1)), position=2)",
    ),
    (
        Power, {"base": X_NODE, "exponent": 3, "position": 1},
        "Power(base=Variable(name='x'), exponent=3, position=1)",
    ),
    (ThroughOrigin, {"s": 3, "t": 2}, "ThroughOrigin(s=3, t=2)"),
    (MissesOrigin, {"f_exp": 1, "g_exp": 2}, "MissesOrigin(f_exp=1, g_exp=2)"),
    (ResolutionTrace, {"a": 3, "b": 2, "runs": resolve(3, 2).runs}, TRACE_REPR),
    (
        TheoremReport,
        {"trace": resolve(3, 2), "valuation_path": _pair_path(3, 2), "equal": True},
        f"TheoremReport(trace={TRACE_REPR}, valuation_path={PATH_REPR}, equal=True)",
    ),
    (
        OffOriginReport, {"points": (("+1", True), ("-1", False)), "skipped": 1},
        "OffOriginReport(points=(('+1', True), ('-1', False)), skipped=1)",
    ),
    (
        RingPresentation,
        {"u": Monomial(-2, 3), "v": Monomial(1, -1), "p": 1, "q": 1, "a": 3, "b": 2},
        "RingPresentation(u=Monomial(ex=-2, ey=3), v=Monomial(ex=1, ey=-1), p=1, q=1, a=3, b=2)",
    ),
    (
        Branch, {"s": Monomial(0, 1), "t": Monomial(1, -1), "length": 2},
        "Branch(s=Monomial(ex=0, ey=1), t=Monomial(ex=1, ey=-1), length=2)",
    ),
    (
        CorrespondenceReport,
        {
            "a": 3, "b": 2, "branch_lengths": (1, 1), "cf_digits": (1, 2),
            "expected_lengths": (1, 1), "match": True,
        },
        "CorrespondenceReport(a=3, b=2, branch_lengths=(1, 1), cf_digits=(1, 2),"
        " expected_lengths=(1, 1), match=True)",
    ),
    (Value, {"m": 1, "n": -2}, "Value(m=1, n=-2)"),
    (CheckCounts, {"passed": 1, "failed": 2}, "CheckCounts(passed=1, failed=2)"),
    (
        Failure, {"a": 7, "b": 5, "check": "cf-correspondence", "detail": "d"},
        "Failure(a=7, b=5, check='cf-correspondence', detail='d')",
    ),
    (
        VerifyReport,
        {"max_a": 5, "pairs": 5, "checks": run_verify(5).checks, "first_failure": None},
        f"VerifyReport(max_a=5, pairs=5, checks={{'path-equality': {COUNTS_REPR},"
        f" 'cf-correspondence': {COUNTS_REPR}, 'blow-up-count': {COUNTS_REPR},"
        f" 'reconstruction': {COUNTS_REPR}}}, first_failure=None)",
    ),
]
MUTABLE = (CheckCounts, VerifyReport)
IDS = [cls.__name__ for cls, _, _ in VALUES]


def test_the_table_holds_every_former_dataclass_once():
    assert len(VALUES) == len(set(IDS)) == 20
    assert sum(cls in MUTABLE for cls, _, _ in VALUES) == 2


@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=IDS)
def test_a_value_builds_by_position_or_keyword_and_keeps_its_repr(cls, kwargs, text):
    by_position, by_keyword = cls(*kwargs.values()), cls(**kwargs)
    assert type(by_position) is type(by_keyword) is cls
    assert by_position == by_keyword
    assert repr(by_position) == repr(by_keyword) == text
    for name, value in kwargs.items():
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=IDS)
def test_equality_and_hash_agree(cls, kwargs, text):
    one, other = cls(**kwargs), cls(**kwargs)
    assert one == other and not one != other
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(one)
    else:
        assert hash(one) == hash(other)
    assert one != object() and not one == object()


@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=IDS)
def test_a_value_is_not_ordered(cls, kwargs, text):
    one = cls(**kwargs)
    with pytest.raises(TypeError):
        one < cls(**kwargs)


TUPLES = [(cls, kwargs) for cls, kwargs, _ in VALUES if issubclass(cls, tuple)]


def test_values_of_one_layout_are_equal_only_within_their_class():
    assert len(TUPLES) == 17
    for cls, kwargs in TUPLES:
        value = cls(**kwargs)
        assert value != tuple(value) and tuple(value) != value
        assert not value == tuple(value) and not tuple(value) == value
    for (cls1, kwargs1), (cls2, _) in combinations(TUPLES, 2):
        if len(cls1._fields) != len(cls2._fields):
            continue
        one = cls1(**kwargs1)
        twin = cls2._make(one)  # cls2's fields holding one's items, unchecked
        assert tuple(twin) == tuple(one)
        assert one != twin and twin != one, (cls1, cls2)
        assert not one == twin and not twin == one, (cls1, cls2)


def test_the_listed_layouts_are_shared():
    layouts = {cls: len(cls._fields) for cls, _ in TUPLES}
    assert layouts[Sum] == layouts[Product] == layouts[Quotient] == 3
    assert layouts[ThroughOrigin] == layouts[MissesOrigin] == layouts[Value] == 2


@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=IDS)
def test_a_frozen_value_refuses_assignment(cls, kwargs, text):
    value = cls(**kwargs)
    for name, field in kwargs.items():
        if cls in MUTABLE:
            setattr(value, name, field)
            continue
        with pytest.raises(AttributeError):
            setattr(value, name, field)
        with pytest.raises(AttributeError):
            delattr(value, name)
    if cls not in MUTABLE:
        with pytest.raises(AttributeError):
            value.extra = 1
    assert value == cls(**kwargs)


@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=IDS)
def test_a_value_pickles_at_every_protocol_and_deep_copies(cls, kwargs, text):
    value = cls(**kwargs)
    copies = [copy.copy(value), copy.deepcopy(value)] + [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for twin in copies:
        assert type(twin) is cls and twin == value and repr(twin) == text


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_the_expanded_runs_of_a_trace_and_a_path_pickle_at_every_protocol(protocol):
    trace = resolve(24, 7)
    for items in (trace.rows, trace.steps, _pair_path(24, 7).vertices):
        for twin in (pickle.loads(pickle.dumps(items, protocol)), copy.copy(items), copy.deepcopy(items)):
            assert type(twin) is ExpandedRuns and len(twin) == len(items)
            assert twin == items and list(twin) == list(items) and twin[-1] == items[-1]


@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=IDS)
def test_a_frozen_value_has_no_instance_dict(cls, kwargs, text):
    # a derived field is computed when read, never cached on the instance
    value = cls(**kwargs)
    assert hasattr(value, "__dict__") == (cls in MUTABLE)
    for name in dir(cls):
        if isinstance(getattr(cls, name, None), property):
            getattr(value, name)
    assert hasattr(value, "__dict__") == (cls in MUTABLE)


def test_derived_properties_survive_copies_and_stay_frozen():
    trace = resolve(24, 7)
    assert trace.blow_up_count == 8 and len(trace.rows) == 8
    for twin in (copy.deepcopy(trace), pickle.loads(pickle.dumps(trace, 0))):
        assert twin == trace and twin.blow_up_count == 8 and list(twin.rows) == list(trace.rows)
    for name in ("blow_up_count", "rows"):
        with pytest.raises(AttributeError):
            setattr(trace, name, 0)
    assert trace.blow_up_count == 8
    report = TheoremReport(trace, _pair_path(24, 7), True)
    assert report.resolution_path == report.valuation_path
    with pytest.raises(AttributeError):
        report.resolution_path = None


def test_an_expansion_is_no_tuple_and_its_length_counts_digits():
    cf = CFExpansion((3, 2, 3))
    assert not isinstance(cf, tuple) and len(cf) == 3


REFUSALS = [
    (CFExpansion, {"digits": ()}, "expansion needs at least one digit"),
    (CFExpansion, {"digits": (3, 0, 2)}, "digit 1 is 0; digits past the first must be >= 1"),
    (ThroughOrigin, {"s": 0, "t": 1}, "exponents of a binomial through the origin must be >= 1"),
    (ThroughOrigin, {"s": 4, "t": 2}, "(4, 2) are not coprime"),
    (MissesOrigin, {"f_exp": -1, "g_exp": 2}, "exponents must be nonnegative"),
    (MissesOrigin, {"f_exp": 0, "g_exp": 0}, "1 - 1 is not a curve component"),
    (ResolutionTrace, {"a": 3, "b": 2, "runs": ()}, "a resolution trace needs at least one run"),
    (
        RingPresentation,
        {"u": Monomial(-2, 4), "v": Monomial(1, -1), "p": 1, "q": 1, "a": 4, "b": 2},
        "(4, 2) are not coprime",
    ),
    (
        RingPresentation,
        {"u": Monomial(-2, 3), "v": Monomial(2, -2), "p": 2, "q": 2, "a": 3, "b": 2},
        "p*a - q*b = 2, expected 1",
    ),
    (
        RingPresentation,
        {"u": Monomial(-2, 3), "v": Monomial(1, -2), "p": 1, "q": 1, "a": 3, "b": 2},
        "generators do not match the exponent data",
    ),
]


@pytest.mark.parametrize("cls, kwargs, message", REFUSALS)
def test_a_checked_value_keeps_its_refusal_message(cls, kwargs, message):
    for call in (lambda: cls(*kwargs.values()), lambda: cls(**kwargs)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
