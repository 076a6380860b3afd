"""Run tier-1 with a branch and line tracer on ``src/monoval``, and gate what it finds.

Usage: python3 tests/branch_coverage.py

Needs Python 3.12 or 3.13 (``sys.monitoring`` with BRANCH events); any
other version exits 2.  The script writes a ``sitecustomize.py`` into a
temporary directory and puts it first on PYTHONPATH, so every Python
process tier-1 starts, the CLI subprocesses too, records the BRANCH and
LINE events of code in ``src/monoval`` and writes them out at exit.  A
line is switched off at its first hit, and a branch site once it has gone
both ways, so code that has shown all it can runs untraced.

A branch site is a ``POP_JUMP_IF_*`` or ``FOR_ITER`` instruction that
``dis`` lists in the code compiled from ``src/monoval``.  Each site that
goes only one way, or never runs, is printed as

    file qualname opname k: <stripped source line>

where k counts from 1 the sites that share the rest of that key, so an
edit elsewhere in a file leaves the key as it is.  ``one_way_branches.txt``
beside this script lists the sites allowed to stay one way: a key at the
start of a line, and under it an indented line giving the reason.

Exits 1 when tier-1 fails under the tracer, when a one-way site is not
listed, when a listed site goes both ways or is not in ``src`` any more,
when a listed site has no reason, or when a line of ``src`` never runs;
else 0.  Tier-1 does not collect this file, since its name has no
``test_`` prefix.
"""

from __future__ import annotations

import dis
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "monoval"
LISTED = Path(__file__).resolve().parent / "one_way_branches.txt"
TIER_1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")

TRACER = '''\
import atexit, os, sys

_SRC, _OUT = {src!r}, {out!r}
_mon = sys.monitoring
_branches, _lines = {{}}, set()


def _branch(code, offset, destination):
    if not code.co_filename.startswith(_SRC):
        return _mon.DISABLE
    seen = _branches.setdefault((code, offset), set())
    seen.add(destination)
    if len(seen) > 1:
        return _mon.DISABLE


def _line(code, line):
    if code.co_filename.startswith(_SRC):
        _lines.add((code.co_filename, line))
    return _mon.DISABLE


def _write():
    import json  # at exit, so that a process starts with the modules it would load untraced
    branches = [[c.co_filename, c.co_qualname, c.co_firstlineno, offset, sorted(seen)]
                for (c, offset), seen in _branches.items()]
    path = os.path.join(_OUT, f"{{os.getpid()}}-{{id(_lines)}}.json")
    with open(path, "w") as out:
        json.dump({{"branches": branches, "lines": sorted(_lines)}}, out)


_mon.use_tool_id(_mon.COVERAGE_ID, "branch_coverage")
_mon.register_callback(_mon.COVERAGE_ID, _mon.events.BRANCH, _branch)
_mon.register_callback(_mon.COVERAGE_ID, _mon.events.LINE, _line)
_mon.set_events(_mon.COVERAGE_ID, _mon.events.BRANCH | _mon.events.LINE)
atexit.register(_write)
'''


def code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def src_code():
    """(file name, source lines, code objects) of each module of ``src/monoval``."""
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        yield path, source.splitlines(), list(code_objects(compile(source, str(path), "exec")))


def branch_sites():
    """Each branch site as (key, code id, offset, the offset it falls through to)."""
    sites, count = [], {}
    for path, text, codes in src_code():
        for code in sorted(codes, key=lambda c: c.co_firstlineno):
            instructions = list(dis.get_instructions(code))
            line = code.co_firstlineno
            for instruction, after in zip(instructions, instructions[1:]):
                if instruction.positions and instruction.positions.lineno:
                    line = instruction.positions.lineno
                if instruction.opname.startswith("POP_JUMP_IF") or instruction.opname == "FOR_ITER":
                    stem = f"{path.name} {code.co_qualname} {instruction.opname}"
                    source = text[line - 1].strip()
                    k = count[stem, source] = count.get((stem, source), 0) + 1
                    sites.append((f"{stem} {k}: {source}", (str(path), code.co_qualname, code.co_firstlineno),
                                  instruction.offset, after.offset))
    return sites


def src_lines():
    """Every (file name, line) of the line tables of ``src/monoval``, with the line's text."""
    lines = {}
    for path, text, codes in src_code():
        for code in codes:
            for _, _, line in code.co_lines():
                if line:
                    lines[str(path), line] = text[line - 1].strip()
    return lines


def read_listed():
    """The listed keys with their reasons; a key whose reason is missing maps to ''."""
    listed, key = {}, None
    for line in LISTED.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if line[0].isspace():
            if key is not None and not listed[key]:
                listed[key] = line.strip()
            continue
        key = line
        listed[key] = ""
    return listed


def way(destinations, fall_through, opname):
    """How a site that went at most one way went."""
    if not destinations:
        return "never runs"
    loop = opname == "FOR_ITER"
    if destinations == [fall_through]:
        return "never exhausted" if loop else "never jumps"
    return "never iterates" if loop else "always jumps"


def main(argv) -> int:
    if sys.version_info[:2] not in ((3, 12), (3, 13)):
        print(f"branch_coverage.py needs Python 3.12 or 3.13 (sys.monitoring BRANCH events), not {sys.version.split()[0]}")
        return 2
    if argv:
        print("branch_coverage.py takes no options")
        return 2
    with tempfile.TemporaryDirectory(prefix="monoval-branches-") as tmp:
        out = Path(tmp) / "out"
        out.mkdir()
        (Path(tmp) / "sitecustomize.py").write_text(TRACER.format(src=str(SRC) + os.sep, out=str(out)))
        path = os.pathsep.join(filter(None, (tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, *TIER_1], cwd=ROOT, env={**os.environ, "PYTHONPATH": path})
        if done.returncode != 0:
            print(f"tier-1 failed under the tracer (pytest exit {done.returncode})")
            return 1
        seen_branches, seen_lines = {}, set()
        for result in out.glob("*.json"):
            record = json.loads(result.read_text())
            for file, qualname, first, offset, destinations in record["branches"]:
                seen_branches.setdefault((file, qualname, first, offset), set()).update(destinations)
            seen_lines.update(map(tuple, record["lines"]))

    sites = branch_sites()
    both, one_way = set(), {}
    for key, code, offset, fall_through in sites:
        destinations = sorted(seen_branches.get((*code, offset), ()))
        if len(destinations) > 1:
            both.add(key)
        else:
            one_way[key] = way(destinations, fall_through, key.split()[2])
    lines = src_lines()
    never_run = sorted(set(lines) - seen_lines)
    listed = read_listed()

    print(f"{len(sites)} branch sites in src, {len(one_way)} go one way or never run;"
          f" {len(lines) - len(never_run)} of {len(lines)} lines run")
    for key in one_way:
        print(key)
    failures = [
        ("one-way sites missing from tests/one_way_branches.txt",
         [f"{key}  ({state})" for key, state in one_way.items() if key not in listed]),
        ("listed sites that go both ways", [key for key in listed if key in both]),
        ("listed sites not in src", [key for key in listed if key not in both and key not in one_way]),
        ("listed sites with no reason", [key for key, reason in listed.items() if not reason]),
        ("lines of src that never run",
         [f"{Path(file).name}:{line}: {lines[file, line]}" for file, line in never_run]),
    ]
    for title, keys in failures:
        if keys:
            print(f"{title}:")
            for key in keys:
                print(f"  {key}")
    return 1 if any(keys for _, keys in failures) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
