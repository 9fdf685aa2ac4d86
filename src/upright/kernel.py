"""Functions kept as source lines, compiled once per source, bound per use.

A ``Source`` is a function written out as Python statements: the names of
its arguments (the time, then the state's components), the statements, the
expressions of its result and the names of the constants it reads, such as
``G`` or a forcing's coefficients.  Every name a source reads is an
argument, a constant or a local of its own.  ``function`` compiles a source
once into a closure over its constants and binds them per use, so a new
field per release costs a call, not a compile.  The same lines can be
spliced into another generated function (``renamed``): the chart fields
splice in their forcing's lines, and the integrator's step splices the
field into each of its stages, with every name of the spliced source under
a prefix that the host's own names never carry.
"""
from __future__ import annotations

import ast
import math
import textwrap
from functools import lru_cache
from typing import NamedTuple

from .errors import SingularityError

__all__ = ["Source", "renamed", "compiled", "function"]


class Source(NamedTuple):
    """A function's source: ``args`` the time and the state's components,
    ``lines`` the statements, ``result`` the expressions of the components
    it returns and ``consts`` the names bound per use."""

    args: tuple
    lines: tuple
    result: tuple
    consts: tuple


def renamed(src: Source, prefix: str, args=()) -> tuple[tuple, tuple]:
    """``src``'s statements and result expressions, with its first
    arguments read as the names ``args`` and every other name ``n`` as
    ``prefix + n``.  The syntax tree is kept, so every float is the same."""
    table = dict(zip(src.args, args))

    def unparsed(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                node.id = table.get(node.id, prefix + node.id)
        return ast.unparse(tree)

    body = unparsed(ast.parse("\n".join(src.lines))).splitlines()
    return tuple(body), tuple(unparsed(ast.parse(e, mode="eval")) for e in src.result)


def compiled(lines, name, label, consts=None):
    """The function ``name`` that the source ``lines`` define.  With
    ``consts``, a function of those names that returns it, bound to them."""
    text = "\n".join(lines)
    if consts is not None:
        text = (f"def bind({', '.join(consts)}):\n"
                f"{textwrap.indent(text, '    ')}\n    return {name}")
        name = "bind"
    namespace = {"sqrt": math.sqrt, "inf": math.inf, "SingularityError": SingularityError}
    exec(compile(text, label, "exec"), namespace)
    return namespace[name]


# the prefix of a source's names in its compiled function
_OWN = "k_"


@lru_cache
def _binder(src: Source, listed: bool):
    """``function``'s closure maker, compiled once per source."""
    lines, result = renamed(src, _OWN)
    t, *state = (_OWN + a for a in src.args)
    code = [f"def fn({t}{', y' if state else ''}):"]
    if state:
        code.append(f"    {', '.join(state)}, = y")
    code += ["    " + line for line in lines]
    out = ", ".join(result)
    code.append(f"    return [{out}]" if listed else f"    return ({out},)")
    return compiled(code, "fn", "<function from source>", [_OWN + c for c in src.consts])


def function(src: Source, values, listed: bool = True):
    """``src`` as a function, ``f(t, y)`` with ``y`` a sequence of its
    state's components or ``f(t)`` with no state, returning a list of its
    result (a tuple if not ``listed``), its constants bound to ``values``.
    Its ``kernel`` attribute is ``(src, values)``."""
    values = tuple(values)
    fn = _binder(src, listed)(*values)
    fn.kernel = (src, values)
    return fn
