"""The README's library quick tour runs, and its commented values are what
the library shows for them."""

import ast
import re
from pathlib import Path

from cuspdiff.exactpoly import BasePoly, render_poly
from cuspdiff.gwa import GwaElement, render_gwa
from cuspdiff.modactions import LaurentVector, render_vector
from cuspdiff.skewlaurent import LaurentOp, render_op

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour():
    """The python block under "Library quick tour"."""
    text = README.read_text()
    return re.search(r"## Library quick tour\n\n```python\n(.*?)```", text,
                     re.S).group(1)


def _shown(value):
    """The text form a commented value is written in: a polynomial in
    render_poly's, each ring element in its own, containers element-wise."""
    for kind, render in ((BasePoly, render_poly), (LaurentOp, render_op),
                         (GwaElement, render_gwa),
                         (LaurentVector, render_vector)):
        if isinstance(value, kind):
            return render(value)
    if isinstance(value, tuple):
        return "(%s)" % ", ".join(map(_shown, value))
    if isinstance(value, dict):
        return "{%s}" % ", ".join("%r: %s" % (k, _shown(v))
                                  for k, v in value.items())
    return repr(value)


def test_quick_tour_runs_and_shows_its_comments(capsys):
    # a bare expression with a trailing comment is checked: the comment is
    # its shown value, then optionally ": " and a gloss; an assignment's
    # comment is prose
    tour = _tour()
    namespace = {}
    exec(compile(tour, str(README), "exec"), namespace)
    assert capsys.readouterr().out.split("\n")[0] == "Gamma- inf"
    checked = []
    for line in tour.splitlines():
        code, sep, comment = line.partition("  # ")
        if not sep or not code.strip():
            continue
        try:
            expr = compile(ast.parse(code.strip(), mode="eval"), "", "eval")
        except SyntaxError:
            continue
        shown = _shown(eval(expr, namespace))
        comment = comment.strip()
        assert comment == shown or comment.startswith(shown + ": "), line
        checked.append(code.strip())
    assert len(checked) == 11
