"""Guard on the random-stream paths of the package.

Every stochastic routine draws from `substream(seed, *path)`, and the
first path element names the stream: a member of `bslab.rng.Stream`.  Two
call sites that pass the same member draw the same stream, so each member
belongs to one call site.  The only path that starts with no member is
the graphical construction's (replica, vertex) clock in
`dynamics.sample_graphical`.  The live overlaps are named in the table.
"""
import ast
from collections import defaultdict
from pathlib import Path

import bslab
from bslab.rng import Stream

PACKAGE = Path(bslab.__file__).resolve().parent
# (module, function) of the call sites whose path starts with no member
NON_MEMBER = {("dynamics", "sample_graphical")}


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


def _member(node):
    """The Stream member name a path node spells, or None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "Stream"
    ):
        return node.attr
    return None


def test_stream_values_are_distinct():
    # an alias (a repeated value) is listed in __members__ but not iterated
    assert len({int(v) for v in Stream.__members__.values()}) == len(Stream.__members__)


def test_each_stream_is_drawn_at_exactly_one_call_site():
    sites = defaultdict(list)
    for module, name, line, first in _substream_calls():
        member = _member(first)
        if member is not None:
            sites[member].append(f"{module}.{name}:{line}")
    assert set(sites) <= set(Stream.__members__), f"unknown streams: {set(sites) - set(Stream.__members__)}"
    unused = set(Stream.__members__) - set(sites)
    assert not unused, f"streams drawn at no call site: {unused}"
    shared = {member: where for member, where in sites.items() if len(where) > 1}
    assert not shared, f"streams drawn at more than one call site: {shared}"


def test_no_call_passes_an_integer_literal_tag():
    literal = [
        f"{module}.{name}:{line}"
        for module, name, line, first in _substream_calls()
        if isinstance(first, ast.Constant) and isinstance(first.value, int)
    ]
    assert not literal, f"substream calls with an integer literal first path element: {literal}"


def test_only_the_graphical_clocks_start_with_no_member():
    loose = {(module, name) for module, name, _, first in _substream_calls() if _member(first) is None}
    assert loose == NON_MEMBER
