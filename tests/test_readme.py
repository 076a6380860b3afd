"""The README's examples give the results its comments state."""

import ast
import re
import shlex
from pathlib import Path

from monoval import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(section: str, language: str) -> str:
    """The first ``language`` code block after the heading ``section``."""
    rest = README[README.index(f"\n{section}\n"):]
    return re.search(rf"```{language}\n(.*?)```", rest, re.S).group(1)


def commented_lines(block: str) -> dict[str, str]:
    """Each commented line of a block, as {code: comment}; a comment alone belongs to the line above."""
    lines = {}
    code = None
    for line in block.splitlines():
        text, _, comment = line.partition("#")
        if text.strip():
            code = text.strip()
        if comment.strip():
            lines[code] = comment.strip()
    return lines


def test_the_library_example_gives_the_results_in_its_comments():
    block = code_block("## Library example", "python")
    namespace = {}
    exec(block, namespace)
    comments = commented_lines(block)
    assert len(comments) == 4, comments

    def value(code):
        return eval(code, namespace)

    assert ast.literal_eval(comments["cf_expand(Fraction(24, 7)).digits"]) == (3, 2, 3)
    assert value("cf_expand(Fraction(24, 7)).digits") == (3, 2, 3)

    names = "[str(v) for v in positive_path(nu, max_steps=64)]"
    *head, gap, last = ast.literal_eval(comments[names])
    assert (head, gap, last) == (["k[x, y]", "k[y, x/y]"], ..., "k[y^7/x^2, x^5/y^17]")
    path = value(names)
    assert path[:2] == head and path[-1] == last

    shown, name = comments["ring_generators(24, 7).v"].split(", i.e. ")
    assert (shown, name) == ("Monomial(ex=5, ey=-17)", "x^5/y^17")
    v = value("ring_generators(24, 7).v")
    assert (repr(v), str(v)) == (shown, name)

    assert comments["resolve(24, 7).blow_up_count"] == "8"
    assert value("resolve(24, 7).blow_up_count") == 8


def run(capsys, command: str) -> str:
    argv = shlex.split(command)
    assert argv[0] == "monoval"
    assert cli.main(argv[1:]) == 0
    return capsys.readouterr().out


def test_the_cli_examples_print_what_their_comments_say(capsys):
    comments = commented_lines(code_block("## CLI", "sh"))

    assert comments["monoval cf 24/7"] == "[3; 2, 3]"
    assert run(capsys, "monoval cf 24/7") == "24/7 = [3; 2, 3]\n"

    u, v = comments["monoval ringgens 24 7"].split(", ")
    assert (u, v) == ("u = y^24/x^7", "v = x^5/y^17")
    lines = run(capsys, "monoval ringgens 24 7").splitlines()
    assert f"{u} (value 0)" in lines and f"{v} (value 1)" in lines

    count = re.fullmatch(r"all (\d+) blow-ups, chart by chart", comments["monoval resolve 24 7 --trace"])
    assert count and count.group(1) == "8"
    out = run(capsys, "monoval resolve 24 7 --trace")
    assert out.startswith("resolution of x^7 = y^24: 8 blow-ups\n")
    assert re.findall(r"^  blow-up (\d+) at", out, re.M) == [str(i) for i in range(1, 9)]
