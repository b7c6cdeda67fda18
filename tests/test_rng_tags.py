"""Guard on the random-stream paths of the package.

Every stochastic routine draws from `substream(seed, *path)`.  Two call
sites whose paths begin with the same literal tag may draw the same
stream, so each literal first tag belongs to one call site.  The only
non-literal path is the graphical construction's (replica, vertex) clock
in `dynamics.sample_graphical`.

Two overlaps are live and wait for a change that declares its moved
outputs, because removing them changes seeded results:
- the clock of vertex r in graphical replica 29, substream(seed, 29, r),
  is the stream of replica r in `montecarlo.run_batches`;
- the three direct block samplers (stick, two-block and four-block) all
  draw from substream(seed, 41) through `blocks._direct_stats`.
"""
import ast
from collections import defaultdict
from pathlib import Path

import bslab

PACKAGE = Path(bslab.__file__).resolve().parent
# the literal first tags in use, each at one call site
KNOWN_TAGS = {11, 17, 19, 29, 31, 37, 41, 71, 93}
# (module, function) of the call sites allowed a non-literal path
NON_LITERAL = {("dynamics", "sample_graphical")}


class _Calls(ast.NodeVisitor):
    """(module, enclosing function, line, first path node) of every
    substream call in one module; the first path node is None when the
    call has no path."""

    def __init__(self, module: str):
        self.module = module
        self.function = None
        self.found = []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "substream":
            first = node.args[1] if len(node.args) > 1 else None
            self.found.append((self.module, self.function, node.lineno, first))
        self.generic_visit(node)


def _substream_calls():
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _Calls(path.stem)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        calls += visitor.found
    return calls


def test_each_literal_tag_has_one_call_site():
    sites = defaultdict(list)
    for module, name, line, first in _substream_calls():
        if isinstance(first, ast.Constant) and isinstance(first.value, int):
            sites[first.value].append(f"{module}.{name}:{line}")
    shared = {tag: where for tag, where in sites.items() if len(where) > 1}
    assert not shared, f"literal substream tags used at more than one call site: {shared}"
    # the parser sees every call site in use today
    assert KNOWN_TAGS <= set(sites)


def test_only_the_graphical_clocks_have_a_non_literal_path():
    loose = {
        (module, name)
        for module, name, _, first in _substream_calls()
        if not (isinstance(first, ast.Constant) and isinstance(first.value, int))
    }
    assert loose == NON_LITERAL
