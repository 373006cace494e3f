"""No module of the package swallows every exception.

A handler of ``Exception`` (or ``BaseException``, or a bare ``except:``) turns
a programming error into a quiet wrong answer.  The one allowed is
``validate_kernel``'s: it reports a kernel's failure as a finding and never
throws.
"""

import ast
from pathlib import Path

import gle_spectra

PACKAGE = Path(gle_spectra.__file__).parent
BROAD = {"Exception", "BaseException"}
ALLOWED = {("kernels", "validate_kernel")}


def _catches_everything(handler):
    if handler.type is None:
        return True
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(n, ast.Name) and n.id in BROAD for n in names)


def broad_handlers(path):
    """(module, outermost function, line) of every catch-all handler."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = function
            if function is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.ExceptHandler) and _catches_everything(child):
                found.append((path.stem, function, child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_no_catch_all_handlers():
    found = [h for p in sorted(PACKAGE.glob("*.py")) for h in broad_handlers(p)]
    assert [h for h in found if h[:2] not in ALLOWED] == []
    # the allowed handler is still there, so the walk sees handlers at all
    assert [h[:2] for h in found] == sorted(ALLOWED)
