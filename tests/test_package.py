"""The package's public surface: every exported name exists, and no
function asks for an argument it ignores.

Tools that walk ``__all__`` (a tracer wrapping each public function, for
one) call ``getattr`` on every entry, so a name left behind after its
object was deleted breaks them outright.
"""

import ast
import importlib
import os
import pkgutil

import pytest

import fracp

MODULES = ["fracp"] + sorted(f"fracp.{m.name}"
                             for m in pkgutil.iter_modules(fracp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ())
               if not hasattr(mod, attr)]
    assert missing == []


def _unread_parameters(tree):
    """(line, function, parameter) for each parameter that its function
    never reads.  A read is a load of the name anywhere in the body,
    nested functions included; a bare ``super()`` reads the first one."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        a = fn.args
        params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
        params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = set()
        for node in (n for stmt in body for n in ast.walk(stmt)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Call) and not node.args \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "super" and params:
                read.add(params[0])
        name = getattr(fn, "name", "<lambda>")
        yield from ((fn.lineno, name, p) for p in params if p not in read)


def test_no_function_has_a_parameter_it_never_reads():
    # a knob that no code path reads is an option with no effect, and an
    # argument kept only to be checked against another is a second record
    # of one value
    unread = []
    for mod in MODULES:
        path = importlib.import_module(mod).__file__
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        unread += [(os.path.basename(path),) + hit
                   for hit in _unread_parameters(tree)]
    assert unread == []
