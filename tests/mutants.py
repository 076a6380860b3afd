"""Hand-written mutants of the package's closed forms, each of which some test must kill.

Usage: python3 tests/mutants.py [NAME ...]

Each row of ``MUTANTS`` names a module of ``src/monoval``, an exact piece
of its source, the replacement that makes the mutant, the tests that
should kill it, and what it breaks.  The script first checks that every
source text occurs exactly once and that each mutant's tests pass on the
unchanged package.  Then it applies each mutant alone to a copy of
``src`` and ``tests`` in a temporary directory and runs its tests there
with ``pytest -x``.  A mutant is killed when they fail.  It exits 1 when
a mutant survives, when its tests do not end within ``TIMEOUT_S``, or
when they fail on the unchanged package; else 0.  Tier-1 does not collect
this file, since its name has no ``test_`` prefix.

A survivor is killed by adding a test, never by editing its mutant.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

RESOLUTION = "tests/test_resolution.py::"
CLI = "tests/test_cli.py::"
EMIT = "tests/test_emit.py::"
LAURENT = "tests/test_laurent.py::"
CRITERION_7 = "tests/test_acceptance.py::test_criterion_07_lemma_invariants_sweep_200"
CF_LIMIT = "tests/test_cli.py::test_cf_past_the_int_str_limit_fails_before_output"
ARGV_CLIP = CLI + "test_refusals_that_quote_the_input_are_one_short_line"
ANY_WORDING = CLI + "test_a_refusal_of_any_wording_clips_the_argv_strings_it_holds"
DISPATCH = "tests/test_cli_fuzz.py::test_a_command_s_own_parser_answers_as_the_top_level_parser"
RUN_NAMES = "tests/test_laurent.py::test_a_run_is_named_as_its_monomials_with_small_slopes"
CAP_NAMES = "tests/test_laurent.py::test_a_run_is_named_as_its_monomials_past_the_stretch_cap_and_the_short_run_cut"
SHORT_NAMES = "tests/test_laurent.py::test_a_run_shorter_than_the_short_run_cut_is_named_a_row_at_a_time_in_one_list"
THIN_EMIT = "tests/test_emit.py::test_a_thin_pair_is_emitted_as_the_oracles_emit_it"
DOT_EDGES = "tests/test_emit.py::test_dot_edges_are_written_from_the_runs_as_one_blow_up_at_a_time"
EMIT_10_40 = "tests/test_emit.py::test_trace_emitters_match_the_view_oracle_up_to_10_40"
RUN_CONSTANTS = "tests/test_emit.py::test_a_run_of_any_constants_is_emitted_as_the_oracles_emit_it"
PROGRESSION = "tests/test_emit.py::test_a_progression_prints_each_value_as_str_does"
INITIAL_FORMS = "tests/test_expr.py::test_initial_forms_explicit_cases"
PAIRS = "tests/test_expr.py::test_initial_forms_value_an_expression_as_lowering_does"
HEAVIER_OPERAND = "tests/test_expr.py::test_a_sum_never_builds_or_charges_its_heavier_operand"
DROPPED_OPERAND = "tests/test_expr.py::test_an_operation_over_a_sum_never_builds_or_charges_the_operand_it_drops"
NEW_PRODUCT = "tests/test_expr.py::test_a_product_over_a_sum_that_dropped_an_operand_is_a_new_node"
OWN_FORM = "tests/test_expr.py::test_a_subexpression_with_no_sum_in_it_is_its_own_pending_form"
SYNTAX_ERRORS = "tests/test_expr.py::test_syntax_errors_carry_positions"
PARSE_VALUES = "tests/test_expr.py::test_parse_values"
AST_SHAPES = "tests/test_expr.py::test_ast_shapes"
NESTING = "tests/test_expr.py::test_nesting_limit"
SYMPY_MEMBER = "tests/test_sympy_oracle.py::test_member_values_as_sympy_does"
CF_DIGITS = (
    EMIT + "test_cf_json",
    CLI + "test_cf_json_is_json_dumps_of_to_jsonable",
    "tests/test_exactnum.py::test_a_stream_refuses_a_negative_index_and_names_only_a_known_pattern",
)
RING_JSON = (EMIT + "test_ringgens_json", EMIT + "test_ringgens_json_is_json_dumps_of_to_jsonable")
UNION_ORACLE = "tests/test_valring.py::test_membership_union_equals_a_walk_a_vertex_at_a_time"
UNION_BUDGET = "tests/test_valring.py::test_membership_union_reads_no_run_past_its_budget"
BEZOUT = ("tests/test_valring.py::test_bezout_known", "tests/test_valring.py::test_ring_generators_known")
CERTIFICATE = (
    RESOLUTION + "test_the_run_certificate_agrees_with_blowing_up_every_row_up_to_10_40",
    RESOLUTION + "test_the_run_certificate_agrees_with_blowing_up_every_row_on_long_branches",
)


class Mutant(NamedTuple):
    name: str
    module: str
    source: str
    replacement: str
    tests: tuple[str, ...]
    breaks: str


MUTANTS = (
    Mutant(
        "row-at-interior", "resolution.py",
        "A + j * (B + t), B, s - j * t",
        "A + j * (B + t) + (j == 3), B, s - j * t",
        CERTIFICATE + (CRITERION_7,),
        "row 3 of every run gets a wrong exceptional multiplicity",
    ),
    Mutant(
        "children-interior", "resolution.py",
        "e = A + B + (s if s < t else t)",
        "e = A + B + (s if s < t else t) + (s == 3 * t + 2)",
        CERTIFICATE + (CRITERION_7,),
        "a row with s = 3t + 2, never the last of its run, gets children"
        " with a wrong exceptional multiplicity",
    ),
    Mutant(
        "chart-pairs-interior", "resolution.py",
        "    k = B + q\n",
        "    k = B + q + (p == 2 * q + 2)\n",
        CERTIFICATE + (CRITERION_7,),
        "the first child of a row with s = 3t + 2 expands to a wrong second term",
    ),
    Mutant(
        "children-sign", "resolution.py",
        "(gx, gy, fx - gx, fy - gy, e, A, t - s, s, -sign)",
        "(gx, gy, fx - gx, fy - gy, e, A, t - s, s, sign)",
        ("tests/test_verify.py",),
        "the second child keeps its parent's sign, so it expands to minus the curve",
    ),
    Mutant(
        "certificate-end-reads-start", "resolution.py",
        "min(s, s - (n - 1) * t)",
        "s",
        (RESOLUTION + "test_reconstruction_refuses_a_run_lengthened_past_the_origin_unblown",),
        "a run whose last row misses the origin passes the end test, and blow_up raises",
    ),
    Mutant(
        "certificate-end-one-row-short", "resolution.py",
        "(n - 1) * t",
        "(n - 2) * t",
        (RESOLUTION + "test_reconstruction_refuses_a_run_lengthened_past_the_origin_unblown",),
        "the end test reads row n - 2, so a last row that misses the origin reaches blow_up",
    ),
    Mutant(
        "certificate-end-at-zero", "resolution.py",
        "* t) <= 0:",
        "* t) < 0:",
        (RESOLUTION + "test_the_run_certificate_agrees_with_blowing_up_every_row_on_corrupted_runs",),
        "a run whose last row has s = 0 passes the end test, and blow_up raises",
    ),
    Mutant(
        "certificate-blows-up-n-2", "resolution.py",
        "_row_at(start, n - 1)",
        "_row_at(start, n - 2)",
        (RESOLUTION + "test_reconstruction_blows_up_the_last_row_of_each_run",),
        "row n - 2 of a run is blown up in place of the row resolve steps",
    ),
    Mutant(
        "certificate-no-empty-guard", "resolution.py",
        "        if n > 0:\n",
        "        if True:\n",
        (RESOLUTION + "test_the_run_certificate_agrees_with_blowing_up_every_row_on_corrupted_runs",),
        "a run of no rows is tested and blown up at row -1, so one at a resolved chart fails",
    ),
    Mutant(
        "kind-cusp", "resolution.py",
        "if p >= 2 and q >= 2:",
        "if p >= 2 and q >= 3:",
        (RESOLUTION + "test_chart_rules_equal_the_oracle_on_any_chart",),
        "c1^p - c2^2 is no longer a cusp",
    ),
    Mutant(
        "kind-triple-or", "resolution.py",
        "if exc_f >= 1 and exc_g >= 1:",
        "if exc_f >= 1 or exc_g >= 1:",
        (RESOLUTION + "test_chart_rules_equal_the_oracle_on_any_chart",),
        "a line through the origin beside one exceptional axis is a triple point",
    ),
    Mutant(
        "later-run-length", "resolution.py",
        "runs.append((row, k + 1))",
        "runs.append((row, k + 1 + (len(runs) == 3)))",
        ("tests/test_runs.py::test_expanded_runs_equal_the_stepwise_rows",),
        "the fourth run of a trace is one row too long",
    ),
    Mutant(
        "run-test-off-by-one", "resolution.py",
        "if s - t < 2:",
        "if s - t < 3:",
        ("tests/test_runs.py::test_expanded_runs_equal_the_stepwise_rows",),
        "a chart with s - t = 2 ends its run, which is then shorter than the rule allows",
    ),
    Mutant(
        "run-length-off-by-one", "resolution.py",
        "k = (s - 2) // t\n",
        "k = (s - 1) // t\n",
        ("tests/test_runs.py::test_expanded_runs_equal_the_stepwise_rows",),
        "a run whose s - 1 is a multiple of t is one row too long, and ends at s - kt = 1",
    ),
    Mutant(
        "same-vertices-longest-stretch", "valtree.py",
        "k = min(m, n)",
        "k = max(m, n)",
        ("tests/test_runs.py::test_empty_runs_are_skipped_and_a_list_that_runs_out_first_differs",),
        "a stretch runs past the end of the shorter of the two runs it lies in",
    ),
    Mutant(
        "same-vertices-no-swap", "valtree.py",
        "if u != v and (k > 1 or u != (v[2], v[3], v[0], v[1])):",
        "if u != v:",
        ("tests/test_runs.py::test_a_swapped_vertex_matches_alone_and_a_swapped_run_does_not",),
        "a vertex written with its generators swapped never matches",
    ),
    Mutant(
        "same-vertices-swapped-pair", "valtree.py",
        "(k > 1 or",
        "(k > 2 or",
        ("tests/test_runs.py::test_a_swapped_vertex_matches_alone_and_a_swapped_run_does_not",),
        "a stretch of two vertices matches with its generators swapped",
    ),
    Mutant(
        "same-vertices-swap-three-ints", "valtree.py",
        "u != (v[2], v[3], v[0], v[1])",
        "u[:3] != (v[2], v[3], v[0])",
        ("tests/test_runs.py::test_a_swapped_vertex_matches_alone_and_a_swapped_run_does_not",),
        "a swapped vertex matches when three of its four ints do",
    ),
    Mutant(
        "same-vertices-count-end", "valtree.py",
        "return m == n",
        "return True",
        ("tests/test_runs.py::test_empty_runs_are_skipped_and_a_list_that_runs_out_first_differs",),
        "a list of runs that ends before the other still holds the same vertices"
        " (no answer of a caller changes: each checks the vertex counts first)",
    ),
    Mutant(
        "index-walk-one-past", "valtree.py",
        "            if i < length:",
        "            if i <= length:",
        ("tests/test_runs.py::test_indexing_the_rows_walks_to_the_row_iteration_gives",),
        "an index equal to a run's length reads past that run's last item",
    ),
    Mutant(
        "positive-child-other", "valtree.py",
        "return children(v)[c > 0]",
        "return children(v)[c < 0]",
        ("tests/test_valtree.py",),
        "the positive child is the child whose new generator has negative value",
    ),
    Mutant(
        "shared-steps-g-for-f", "valtree.py",
        "                shared = f\n",
        "                shared = g\n",
        ("tests/test_runs.py::test_branches_over_runs_equal_the_vertex_split",),
        "a step between two runs that shares f is read as sharing g",
    ),
    Mutant(
        "base-at-interior", "valtree.py",
        "return fx, fy, gx - j * fx, gy - j * fy",
        "return fx, fy, gx - j * fx + (j == 3), gy - j * fy",
        ("tests/test_runs.py",),
        "vertex 3 of every run gets a wrong second generator",
    ),
    Mutant(
        "correspondence-last-digit-kept", "valtree.py",
        "expected = digits[:-1] + (digits[-1] - 1,)",
        "expected = digits",
        (
            "tests/test_valtree.py::test_correspondence_report_equals_the_record_built_from_the_expansion",
            "tests/test_valtree.py::test_cf_correspondence_known",
        ),
        "the branch lengths are compared against the digits with the last one not decremented",
    ),
    Mutant(
        "union-floor-for-ceiling", "valring.py",
        "-(alpha // beta)",
        "-alpha // beta",
        (UNION_ORACLE,),
        "the first vertex of a run that holds a monomial is read one short when beta does not divide alpha",
    ),
    Mutant(
        "union-one-past-the-run", "valring.py",
        "(n is None or j < n)",
        "(n is None or j <= n)",
        (UNION_ORACLE,),
        "a run answers with the first vertex of the next run, which need not hold the monomial",
    ),
    Mutant(
        "union-one-past-the-budget", "valring.py",
        "index + j < max_steps",
        "index + j <= max_steps",
        (UNION_ORACLE,),
        "the vertex just past the budget is examined",
    ),
    Mutant(
        "union-beta-zero-refused", "valring.py",
        "if beta >= 0:",
        "if beta > 0:",
        (UNION_ORACLE,),
        "a monomial that is a power of f alone, such as 1 at the root, is held by no vertex of the run",
    ),
    Mutant(
        "union-budget-end-one-run-late", "valring.py",
        "index + n >= max_steps",
        "index + n > max_steps",
        (UNION_BUDGET,),
        "a budget that ends with a run reads one run more (no answer changes)",
    ),
    Mutant(
        "union-budget-zero-starts-the-walk", "valring.py",
        "walk_runs(nu) if max_steps else ()",
        "walk_runs(nu)",
        ("tests/test_valring.py::test_membership_union_refuses_a_valuation_without_a_path", UNION_BUDGET),
        "a budget of 0 starts the walk, so a valuation without a path is refused",
    ),
    Mutant(
        "bezout-b-one-case-dropped", "valring.py",
        "pow(a, -1, b) or 1",
        "pow(a, -1, b)",
        BEZOUT,
        "for b = 1, p is the inverse 0 modulo 1, not the least positive p = 1",
    ),
    Mutant(
        "bezout-q-off-by-the-one", "valring.py",
        "(p * a - 1) // b",
        "(p * a + 1) // b",
        BEZOUT,
        "q is (p*a + 1) // b, one too large for b <= 2",
    ),
    Mutant(
        "rational-weights-swapped", "valuation.py",
        "        self.px = vx.numerator * vy.denominator\n"
        "        self.py = vy.numerator * vx.denominator\n",
        "        self.px = vy.numerator * vx.denominator\n"
        "        self.py = vx.numerator * vy.denominator\n",
        (
            "tests/test_valuation.py::test_rational_group_keeps_the_given_values_in_either_order",
            "tests/test_verify.py::test_each_pair_is_resolved_and_walked_once",
        ),
        "nu(x) and nu(y) trade integer weights, so values are compared as under nu(x) = b, nu(y) = a",
    ),
    Mutant(
        "dispatch-by-prefix", "cli.py",
        "parser.commands.get(argv[0])",
        "next((p for name, p in parser.commands.items() if name.startswith(argv[0])), None)",
        (DISPATCH,),
        "a prefix of a command, such as c, runs that command, where the top-level parser refuses it",
    ),
    Mutant(
        "dispatch-drops-double-dash", "cli.py",
        "command.parse_args(argv[1:])",
        'command.parse_args([arg for arg in argv[1:] if arg != "--"])',
        (DISPATCH,),
        "a command's parser never sees --, so an argument after it may read as an option",
    ),
    Mutant(
        "guard-one-item-short", "cli.py",
        "and unprintable(*printed(start, m - 1)):",
        "and unprintable(*printed(start, m - 2)):",
        ("tests/test_cli.py",),
        "the print guard checks a run one item before its last printed item",
    ),
    Mutant(
        "guard-one-item-late", "cli.py",
        "and unprintable(*printed(start, m - 1)):",
        "and unprintable(*printed(start, m)):",
        (CLI + "test_path_does_not_refuse_the_vertex_after_the_last",),
        "the print guard checks a run one item past its last printed item",
    ),
    Mutant(
        "guard-past-count", "cli.py",
        "m = n if n < left else left",
        "m = n",
        (CLI + "test_path_does_not_refuse_the_vertex_after_the_last",),
        "the print guard reads the items of the last run past --max-steps, which are not printed",
    ),
    Mutant(
        "guard-bound-leaves-the-last-item", "cli.py",
        "if m * (abs(a)",
        "if (m - 1) * (abs(a)",
        (CLI + "test_a_stream_of_ones_is_refused_at_a_vertex_that_starts_its_own_run",),
        "the per-run bound covers one item fewer than the run prints, so a run of one is never checked",
    ),
    Mutant(
        "guard-bound-alone", "cli.py",
        "and unprintable(*printed(start, m - 1)):",
        ":",
        (CLI + "test_a_run_whose_bound_reaches_the_limit_is_read_exactly",),
        "a run whose bound reaches the limit is refused unread, though every item of it prints",
    ),
    Mutant(
        "guard-skips-trace-text", "cli.py",
        'if args.format == "json" or args.trace and args.format == "text":',
        'if args.format == "json":',
        ("tests/test_cli.py::test_resolve_past_the_int_str_limit_fails_before_output",),
        "--trace text prints a multiplicity past the limit unchecked, and fails after its output began",
    ),
    Mutant(
        "guard-on-every-trace-format", "cli.py",
        'if args.format == "json" or args.trace and args.format == "text":',
        "if True:",
        ("tests/test_cli.py::test_resolve_past_the_int_str_limit_fails_before_output",),
        "DOT and plain text, which print no multiplicity, are refused with the others",
    ),
    Mutant(
        "guard-on-dot-trace", "cli.py",
        'if args.format == "json" or args.trace and args.format == "text":',
        'if args.format == "json" or args.trace:',
        ("tests/test_cli.py::test_resolve_past_the_int_str_limit_fails_before_output",),
        "DOT with --trace, which prints no multiplicity, is refused",
    ),
    Mutant(
        "guard-reads-the-row-multiplicity", "cli.py",
        "(_children(_row_at(row, j))[0][4],)",
        "(_row_at(row, j)[4],)",
        ("tests/test_cli.py::test_resolve_refuses_at_the_first_or_last_row_of_a_run",),
        "the guard reads a blow-up's own multiplicity, not its children's, and names a later blow-up",
    ),
    Mutant(
        "stream-path-unguarded", "cli.py",
        "runs = _printable_runs(walk_runs(nu), max_steps, _VERTEX, _base_at,",
        "runs = (lambda runs, *_: runs)(walk_runs(nu), max_steps, _VERTEX, _base_at,",
        ("tests/test_cli.py::test_path_past_the_int_str_limit_fails_before_output",),
        "a stream's path prints its vertices unchecked, and fails after its output began",
    ),
    Mutant(
        "guard-trace-bounds-the-basis", "cli.py",
        "_EXCEPTIONAL = slice(4, 8)",
        "_EXCEPTIONAL = slice(0, 4)",
        (CLI + "test_resolve_past_the_int_str_limit_fails_before_output",),
        "a trace run's bound sums its chart's exponents, which stay below a and b, not its multiplicities",
    ),
    Mutant(
        "cf-exponent-digit-sign", "cli.py",
        'digit = 0 if exp_sign != "-" else 2 if sign == "-" else 1',
        'digit = 0 if exp_sign != "-" else 1 if sign == "-" else 2',
        (CF_LIMIT,),
        "a tiny rational's refusal names digit 2 above 0 and digit 1 below it",
    ),
    Mutant(
        "cf-exponent-bound-without-mantissa", "cli.py",
        "if int(exp) > limit + len(mantissa):",
        "if int(exp) > limit:",
        (CF_LIMIT,),
        "an exponent past the limit by less than the mantissa's digits is refused, though every digit prints",
    ),
    Mutant(
        "cf-zero-mantissa-expanded", "cli.py",
        "if not any(map(int, mantissa)):",
        "if False:",
        (CF_LIMIT,),
        "0e99999999 is refused for a long digit instead of read as 0",
    ),
    Mutant(
        "argv-clip-keeps-the-quotes", "cli.py",
        "message.replace(repr(text), _quoted(text)).replace(",
        "message.replace(",
        (ARGV_CLIP, ANY_WORDING),
        "an argument quoted with repr is clipped inside its quotes, keeping the closing one",
    ),
    Mutant(
        "argv-clip-skips-the-value", "cli.py",
        "for text in (arg, arg.partition(\"=\")[2])",
        "for text in (arg,)",
        (ARGV_CLIP, ANY_WORDING),
        "an option's long value after '=' is quoted whole, as in --trace=<300 characters>",
    ),
    Mutant(
        "argv-clip-shortest-first", "cli.py",
        "sorted(long, key=len, reverse=True)",
        "sorted(long, key=len)",
        (ARGV_CLIP, ANY_WORDING),
        "an option's value is clipped before the option, which is then left at 64 characters of its value",
    ),
    Mutant(
        "path-names-reuse-g-by-x", "laurent.py",
        "if fx == qx and fy == qy:",
        "if fx == qx:",
        (EMIT + "test_a_path_of_any_runs_names_each_vertex_as_str_does",),
        "a run's first generator takes the name of the g before it when only their x exponents match",
    ),
    Mutant(
        "path-names-reuse-f-by-x", "laurent.py",
        "elif fx == px and fy == py:",
        "elif fx == px:",
        (EMIT + "test_a_path_of_any_runs_names_each_vertex_as_str_does",),
        "a run's first generator takes the name of the f before it when only their x exponents match",
    ),
    Mutant(
        "path-names-long-run-drops-its-last", "laurent.py",
        "            n = 1\n",
        "            n = 0\n",
        (LAURENT + "test_path_names_names_a_trace_s_runs_as_its_bad_vertex_path", THIN_EMIT),
        "a run of _SHORT_RUN vertices or more loses its last vertex, named after its stretches",
    ),
    Mutant(
        "blocks-drop-last", "emit.py",
        "    if block:\n",
        "    if False:\n",
        ("tests/test_cli_output.py::test_writes_land_under_at_and_over_one_block",),
        "the last block of a section, shorter than _BLOCK, is never written",
    ),
    Mutant(
        "json-first-item-separator", "emit.py",
        "chain((first[1:],), items)",
        "chain((first,), items)",
        ("tests/test_emit.py::test_trace_emitters_match_the_view_oracle_up_to_10_40",),
        "the first blow-up or vertex of a JSON array keeps its leading comma",
    ),
    Mutant(
        "json-step-second-sign", "emit.py",
        "{p23}{-sign}",
        "{p23}{sign}",
        ("tests/test_emit.py::test_trace_emitters_match_the_view_oracle_up_to_10_40",),
        "the JSON step prints the second child with its parent's sign",
    ),
    Mutant(
        "json-number-slot-quoted", "emit.py",
        ".replace(json.dumps(_NUMBER), _TEXT)",
        ".replace(_NUMBER, _TEXT)",
        (EMIT_10_40,),
        "every number of a JSON layout is filled inside the quotes of its slot, as a string",
    ),
    Mutant(
        "json-item-cut-late", "emit.py",
        "two[k:k + len(two) - len(one)]",
        "two[k + 1:k + 1 + len(two) - len(one)]",
        (EMIT_10_40,),
        "a JSON array item is cut one character late, without its comma and with the newline after it",
    ),
    Mutant(
        "json-empty-path-tail-from-one-item", "emit.py",
        "none[len(head):]",
        "one[k:]",
        (EMIT + "test_path_json_is_written_as_the_path_json_oracle_writes_it",),
        "an empty path's JSON ends with the tail that follows a list of vertices, not the one after []",
    ),
    Mutant(
        "ring-json-p-q-swapped", "emit.py",
        "{r0}{obj.p}{r1}{obj.q}",
        "{r0}{obj.q}{r1}{obj.p}",
        RING_JSON,
        "a presentation's JSON fills p's slot with q and q's with p",
    ),
    Mutant(
        "ring-json-u-v-swapped", "emit.py",
        "{r2}{obj.u}{r3}{obj.v}",
        "{r2}{obj.v}{r3}{obj.u}",
        RING_JSON,
        "a presentation's JSON fills u's slot with v and v's with u",
    ),
    Mutant(
        "ring-layout-numbers-quoted", "emit.py",
        "_ring_json(_TEXT, _TEXT, _NUMBER, _NUMBER)",
        "_ring_json(_NUMBER, _NUMBER, _TEXT, _TEXT)",
        RING_JSON,
        "a presentation's layout quotes p and q and leaves u and v unquoted",
    ),
    Mutant(
        "dot-node-bold-inverted", "emit.py",
        'bold = "" if kind == _RESOLVED else ", style=bold"',
        'bold = ", style=bold" if kind == _RESOLVED else ""',
        ("tests/test_emit.py::test_dot_trace_bold_and_side_nodes",),
        "a trace's resolved charts are bold and its bad charts are not",
    ),
    Mutant(
        "stretch-ends-early", "laurent.py",
        "min(hi - j0, _STRETCH)",
        "min(hi - j0 - 1, _STRETCH)",
        (RUN_NAMES,),
        "every stretch of a run's names ends one row early, so the row before each cut goes unnamed",
    ),
    Mutant(
        "stretch-ends-late", "laurent.py",
        "lo, hi = -((1 - g) // f), -((-2 - g) // f)",
        "lo, hi = -((1 - g) // f) + 1, -((-2 - g) // f)",
        (RUN_NAMES,),
        "the stretch before an exponent reaches 1 ends one row late, and prints that row's power as ^1",
    ),
    Mutant(
        "stretch-constant-unit-exponent", "laurent.py",
        "        return [_power(name, e)] * m\n",
        "        return [f\"{name}^{abs(e)}\" if e else \"\"] * m\n",
        (RUN_NAMES, THIN_EMIT),
        "an exponent constant at +-1 along a stretch prints as ^1",
    ),
    Mutant(
        "dot-edge-stretch-late", "emit.py",
        "yield from _dot_edge_stretch(i0, min(i0 + _STRETCH, last))",
        "yield from _dot_edge_stretch(i0, min(i0 + _STRETCH + 1, last))",
        (THIN_EMIT, DOT_EDGES),
        "each stretch of a run's DOT edges but its last ends one blow-up late, repeating the next stretch's first edge",
    ),
    Mutant(
        "dot-run-interior-covers-its-last", "emit.py",
        "min(i0 + _STRETCH, last))",
        "min(i0 + _STRETCH, last + 1))",
        (THIN_EMIT, DOT_EDGES),
        "a run's interior stretch covers its last blow-up, whose edges are then written twice",
    ),
    Mutant(
        "dot-next-run-reads-g", "emit.py",
        "after[:2] == row[:2]",
        "after[2:4] == row[2:4]",
        (DOT_EDGES,),
        "a run's last blow-up is never followed by its first child, so the next bold node hangs off a side node",
    ),
    Mutant(
        "dot-last-run-not-resolved", "emit.py",
        "resolved = 3 if after is None",
        "resolved = 2 if after is None",
        (DOT_EDGES,),
        "the last blow-up's first child is written as a bold node b(n) that no node line names",
    ),
    Mutant(
        "text-kinds-shifted-a-run", "emit.py",
        "kind for row, n in trace.runs for kind",
        "kind for (_, n), (row, _) in zip(trace.runs, trace.runs[1:] + trace.runs[:1]) for kind",
        (THIN_EMIT, "tests/test_emit.py::test_trace_emitters_match_the_view_oracle_up_to_10_40"),
        "plain text gives each run's bad charts the classification of the next run",
    ),
    Mutant(
        "json-stretch-exc-f-unshifted", "emit.py",
        "chain((exc_f,), es), es, chain((s,), ds), ds)",
        "es, es, chain((s,), ds), ds)",
        (THIN_EMIT, EMIT_10_40),
        "each JSON row of a stretch prints its first child's e as its own exc_f, not the row before's",
    ),
    Mutant(
        "name-stretch-ends-late", "laurent.py",
        "min(hi - j0, _STRETCH)",
        "min(hi - j0, _STRETCH + 1)",
        (THIN_EMIT,),
        "every stretch of a long run's names but its last ends one row late, repeating the next stretch's first row",
    ),
    Mutant(
        "short-piece-names-next-row", "laurent.py",
        "islice(count(ex, -fx), m), count(ey, -fy))",
        "islice(count(ex - fx, -fx), m), count(ey - fy, -fy))",
        (RUN_NAMES, SHORT_NAMES),
        "a piece named a row at a time names row j + 1 in place of row j",
    ),
    Mutant(
        "short-piece-swaps-inverses", "laurent.py",
        "yield tuple(map(list, zip(*rows))) if inverses",
        "yield tuple(map(list, zip(*rows)))[::-1] if inverses",
        (RUN_NAMES, RUN_CONSTANTS),
        "a piece named a row at a time gives the inverses as the names and the names as the inverses",
    ),
    Mutant(
        "short-run-cut-at-the-cap", "laurent.py",
        "(start, stop) if stop - start < _SHORT_RUN",
        "(start, stop) if stop - start < _STRETCH",
        (CAP_NAMES,),
        "a range shorter than _STRETCH is never cut, so a stretch where an exponent is -1, 0 or 1 prints ^1 or ^0",
    ),
    Mutant(
        "stretch-fills-the-last-row", "emit.py",
        "_stretch_names(fx, fy, gx, gy, 1, n, True)",
        "_stretch_names(fx, fy, gx, gy, 1, n + 1, True)",
        (THIN_EMIT, RUN_CONSTANTS),
        "a long run's stretches run through its last row, which is filled as an interior row before it is read again",
    ),
    Mutant(
        "progression-decimal-one-step-on", "emit.py",
        "initial=Decimal(start))",
        "initial=Decimal(start + step))",
        (PROGRESSION,),
        "a column summed as decimals starts one step on",
    ),
    Mutant(
        "step-stretch-first-row-exc-f-1", "emit.py",
        'if exc_f in ("0", "1"):',
        'if exc_f == "0":',
        (RUN_CONSTANTS,),
        "a run whose first row has exc_f = 1 prints that power with its exponent in --trace",
    ),
    Mutant(
        "step-stretch-exc-g-0-keeps-g", "emit.py",
        '        excs = repeat("")\n',
        "        excs = grouped\n",
        (RUN_CONSTANTS,),
        "a run with exc_g = 0 prints the first child's g in its exceptional part on every --trace step but its last",
    ),
    Mutant(
        "step-stretch-t-0-filled", "emit.py",
        "if len(pieces) < 18:",
        "if len(pieces) < 17:",
        (RUN_CONSTANTS,),
        "a run with t = 0 and exc_g >= 1 is filled from a layout one place short, and --trace raises ValueError",
    ),
    Mutant(
        "pow-str-one-ungrouped", "emit.py",
        '    name = _grouped(name)\n    return name if e == "1" else f"{name}^{e}"\n',
        '    return name if e == "1" else f"{_grouped(name)}^{e}"\n',
        (THIN_EMIT, EMIT_10_40),
        "a product, quotient or power raised to the 1 prints without its parentheses, as (y^3/x^2) does as y^3/x^2",
    ),
    Mutant(
        "grouped-misses-quotients", "emit.py",
        '"*" in name or "/" in name or "^" in name',
        '"*" in name or "^" in name',
        (THIN_EMIT, EMIT_10_40),
        "a quotient such as y/x takes an exponent without parentheses, in every --trace step alike",
    ),
    Mutant(
        "summands-weighs-a-left-zero", "expr.py",
        "if type(right) is _Unforced and left is not None and ",
        "if type(right) is _Unforced and ",
        (INITIAL_FORMS,),
        "a sum whose left operand, forced first, is zero weighs None against its right",
    ),
    Mutant(
        "summands-weighs-a-right-zero", "expr.py",
        "if type(left) is _Unforced and right is not None and ",
        "if type(left) is _Unforced and ",
        (INITIAL_FORMS,),
        "a sum whose lighter right operand, forced first, is zero weighs None against its left",
    ),
    Mutant(
        "sum-keeps-the-heavier", "expr.py",
        "_weight(right, a, b)) > 0:",
        "_weight(right, a, b)) < 0:",
        (INITIAL_FORMS, HEAVIER_OPERAND),
        "a sum of two weights keeps the initial form of the heavier operand",
    ),
    Mutant(
        "product-weight-subtracts", "expr.py",
        "value[1] + right[1] if isinstance(op, Product)",
        "value[1] - right[1] if isinstance(op, Product)",
        (INITIAL_FORMS,),
        "the value of a product is its left operand's less its right operand's",
    ),
    Mutant(
        "quotient-value-adds", "expr.py",
        "else value[1] - right[1])",
        "else value[1] + right[1])",
        (INITIAL_FORMS,),
        "the value of a quotient is its numerator's plus its denominator's",
    ),
    Mutant(
        "power-value-multiplies-only-m", "expr.py",
        "Value(m * node.exponent, n * node.exponent)",
        "Value(m * node.exponent, n)",
        (INITIAL_FORMS,),
        "the value of a power multiplies its base's exponent of x alone, so y^3 is valued as y",
    ),
    Mutant(
        "built-form-value-reads-the-lex-greatest-term", "valuation.py",
        "if best is None or self.group.compare(v, best) < 0:",
        "if best is None or self.group.compare(v, best) <= 0:",
        (SYMPY_MEMBER,),
        "a polynomial is valued by the lex-greatest of its terms of least weight, so a built form"
        " of several terms gets another (m, n) of the same weight",
    ),
    Mutant(
        "equal-weights-unforced", "expr.py",
        "elif order == 0:",
        "elif False:",
        (INITIAL_FORMS,),
        "a sum of equal weights keeps its left operand's form unbuilt, so a cancellation is missed",
    ),
    Mutant(
        "unforced-sum-dropped-at-equal-weight", "expr.py",
        "and not _weight(left, a, b) < _weight(right, a, b):",
        "and not _weight(left, a, b) <= _weight(right, a, b):",
        (INITIAL_FORMS,),
        "an operand of the same weight drops an unforced sum, though the sum may cancel it",
    ),
    Mutant(
        "product-reuse-needs-one-operand", "expr.py",
        "value[0] is op.left and right[0] is op.right",
        "value[0] is op.left or right[0] is op.right",
        (NEW_PRODUCT, DROPPED_OPERAND),
        "a product or quotient keeps its parsed node when only one operand's form is unchanged,"
        " so an operand a sum dropped is built",
    ),
    Mutant(
        "product-never-reused", "expr.py",
        "form = op if value[0] is op.left",
        "form = op if False and value[0] is op.left",
        (OWN_FORM,),
        "a product or quotient over unchanged operands is a new node, though its value is the same",
    ),
    Mutant(
        "negation-keeps-its-node", "expr.py",
        "node if form is node.operand else Negation(form)",
        "node",
        (DROPPED_OPERAND,),
        "a negation keeps its parsed node though its operand's form changed, so a dropped operand is built",
    ),
    Mutant(
        "power-keeps-its-node", "expr.py",
        "node if form is node.base else Power(form, node.exponent, node.position)",
        "node",
        (DROPPED_OPERAND,),
        "a power keeps its parsed node though its base's form changed, so a dropped operand is built",
    ),
    Mutant(
        "end-token-read-as-an-integer", "expr.py",
        "        if text.isdecimal():\n            node = Literal(",
        "        if text.isdecimal() or not text:\n            node = Literal(",
        (SYNTAX_ERRORS,),
        "the end of the input reads as an integer literal where a factor is expected",
    ),
    Mutant(
        "sign-read-at-the-product-level", "expr.py",
        '            if text == "*" or text == "/":\n                self.pos += 1\n'
        '                node = (Product if text == "*" else Quotient)(node, self.factor(), position)',
        '            if text in ("*", "/", "+", "-"):\n                self.pos += 1\n'
        '                right = self.factor()\n'
        '                op = {"*": Product, "/": Quotient}.get(text, Sum)\n'
        '                node = op(node, Negation(right) if text == "-" else right, position)',
        (PARSE_VALUES,),
        "a sign continues the open term as '*' and '/' do, so x + y*x^2 is (x + y)*x^2",
    ),
    Mutant(
        "plus-term-negated", "expr.py",
        'node if sign[0] == "+" else Negation(node)',
        "Negation(node)",
        (PARSE_VALUES,),
        "a term after '+' is negated as one after '-' is",
    ),
    Mutant(
        "sum-at-the-token-after-its-term", "expr.py",
        "Negation(node), sign[1])",
        "Negation(node), position)",
        (AST_SHAPES,),
        "a Sum takes the position of the token that closes its right term, not of its sign",
    ),
    Mutant(
        "parenthesis-keeps-its-level", "expr.py",
        "            self.depth -= 1\n",
        '            self.depth -= text != ")"\n',
        (NESTING,),
        "a closed parenthesis still counts as a level, so side-by-side parentheses meet the nesting limit",
    ),
    Mutant(
        "unary-minus-takes-no-exponent", "expr.py",
        '            if text == "-":\n                node = Negation(self.factor())\n',
        '            if text == "-":\n                node = Negation(self.factor())\n'
        "                self.depth -= 1\n                return node\n",
        (AST_SHAPES, SYNTAX_ERRORS),
        "no exponent is read after a unary minus's operand, so -x^2^3 is an error at the second '^'",
    ),
    Mutant(
        "normal-keeps-zeros", "laurent.py",
        "        c = data.pop(m)\n        if c:\n",
        "        c = data.pop(m)\n        if True:\n",
        ("tests/test_laurent.py::test_pair_keyed_arithmetic_matches_the_monomial_keyed_oracle",),
        "a sum or product that cancels a term keeps it with coefficient 0",
    ),
    Mutant(
        "normal-keeps-integral-fractions", "laurent.py",
        "data[m] = c.numerator if c.denominator == 1 else c",
        "data[m] = c",
        ("tests/test_laurent.py::test_pair_keyed_arithmetic_matches_the_monomial_keyed_oracle",
         "tests/test_laurent.py::test_integral_fractions_are_stored_as_int"),
        "a Fraction that reduces to an integer is stored as a Fraction, not as its int",
    ),
    Mutant(
        "digit-table-bound-inclusive", "exactnum.py",
        "0 <= d < _TABLED",
        "0 <= d <= _TABLED",
        CF_DIGITS,
        "the first digit past the table of digit strings is read from it, past its end",
    ),
    Mutant(
        "digit-table-lower-bound-off-by-one", "exactnum.py",
        "0 <= d < _TABLED",
        "-1 <= d < _TABLED",
        CF_DIGITS,
        "a leading digit of -1 is read from the table of digit strings, from its end, as 255",
    ),
    Mutant(
        "digit-table-sign-test-dropped", "exactnum.py",
        "0 <= d < _TABLED",
        "d < _TABLED",
        CF_DIGITS,
        "a negative leading digit is read from the table of digit strings, counted from its end",
    ),
    Mutant(
        "periodic-digit-skips-the-preperiod", "exactnum.py",
        "per[(i - cut) % period]",
        "per[i % period]",
        ("tests/test_exactnum.py",),
        "a periodic stream's digits past its preperiod are read from the wrong place in the period",
    ),
    Mutant(
        "stream-compare-tie", "exactnum.py",
        "sign = GREATER if d >= e else LESS",
        "sign = GREATER if d > e else LESS",
        ("tests/test_exactnum.py", "tests/test_sympy_oracle.py"),
        "a stream digit equal to the compared digit decides the wrong way",
    ),
)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def run_tests(tree: Path, tests) -> tuple[str, str]:
    """How ``tests`` run with -x in ``tree`` ended, and the test that failed, if one did.

    The ending is 'passed', 'failed', 'timeout' or 'pytest exit N' for an
    error in collecting or running the tests.
    """
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    # no bytecode: a mutant of the same size and second as the source must not read stale .pyc
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    out = done.stdout.decode(errors="replace")
    if done.returncode == 0:
        return "passed", ""
    if done.returncode == 1:
        failed = re.search(r"^FAILED (\S+)", out, re.M)
        return "failed", failed.group(1) if failed else ""
    sys.stdout.write(out[-2000:])
    return f"pytest exit {done.returncode}", ""


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print("unknown mutants:", ", ".join(sorted(unknown)))
        return 1
    for m in chosen:
        text = (ROOT / "src" / "monoval" / m.module).read_text()
        assert text.count(m.source) == 1, f"{m.name}: its source occurs {text.count(m.source)} times"
    ok = True
    with tempfile.TemporaryDirectory(prefix="monoval-mutants-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        tests = sorted({t for m in chosen for t in m.tests})
        verdict, failed = run_tests(tree, tests)
        print(f"unchanged package: {len(tests)} test selections {verdict} {failed}", flush=True)
        if verdict != "passed":
            return 1
        for m in chosen:
            path = tree / "src" / "monoval" / m.module
            original = path.read_text()
            path.write_text(original.replace(m.source, m.replacement))
            start = time.perf_counter()
            verdict, failed = run_tests(tree, m.tests)
            path.write_text(original)
            outcome = "killed" if verdict == "failed" else "SURVIVED" if verdict == "passed" else verdict.upper()
            print(f"{outcome:9} {m.name} ({time.perf_counter() - start:.1f} s): {m.breaks}", flush=True)
            if failed:
                print(f"          by {failed}", flush=True)
            ok = ok and verdict == "failed"
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
