"""Pytest plugin: list the functions under ``src/repro`` no test enters.

Run the tier-1 suite with it loaded::

    PYTHONPATH=src python -m pytest -q -p tools.never_entered

The plugin records ``call`` events only: a global trace function
(``sys.settrace`` and ``threading.settrace``) that remembers each code
object it sees and returns no local tracer, so no line events fire.
Forked worker processes (the farm's process pool) keep tracing: an
``os.register_at_fork`` hook re-arms the tracer in the child, and the
child writes what it entered to a scratch directory when it exits
through multiprocessing's exit path.  Processes started with ``exec``
(``subprocess``) are not followed.

At the end of the session every ``def`` under ``src/repro`` (nested
functions, methods and properties included; lambdas and generated code
are not) that no process entered is listed with its size in lines.
The session fails when the count exceeds the committed baseline in
``tools/never_entered_baseline.txt``; lower the baseline when a change
removes or starts testing functions.
"""

from __future__ import annotations

import ast
import json
import multiprocessing.util
import os
import shutil
import sys
import tempfile
import threading
from typing import Dict, Set, Tuple

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
BASELINE = os.path.join(ROOT, "tools", "never_entered_baseline.txt")

#: A function's identity: (file, first line as the compiler numbers it,
#: name).  A decorated function's first line is its first decorator's.
Key = Tuple[str, int, str]

_codes: Set = set()
_state: Dict[str, str] = {}


def _trace(frame, event, arg):
    _codes.add(frame.f_code)


def _entered() -> Set[Key]:
    real: Dict[str, str] = {}
    entered = set()
    for code in list(_codes):
        path = real.get(code.co_filename)
        if path is None:
            path = real[code.co_filename] = os.path.realpath(
                code.co_filename)
        if path.startswith(SRC):
            entered.add((path, code.co_firstlineno, code.co_name))
    return entered


class _Child:
    """Weak-referenceable anchor for multiprocessing's after-fork hook."""


_ANCHOR = _Child()


def _dump() -> None:
    path = os.path.join(_state["dir"], "%d.json" % os.getpid())
    with open(path, "w") as handle:
        json.dump(sorted(_entered()), handle)


def _after_fork_in_child() -> None:
    sys.settrace(_trace)
    threading.settrace(_trace)


def _register_dump(_anchor) -> None:
    # Runs in a multiprocessing child after its finalizer registry was
    # cleared, so this finalizer is the child's own.
    multiprocessing.util.Finalize(None, _dump, exitpriority=100)


def defined_functions() -> Dict[Key, int]:
    """Every ``def`` under ``src/repro`` -> its length in lines."""
    found: Dict[Key, int] = {}
    for directory, _dirs, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.realpath(os.path.join(directory, name))
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([node.lineno] + [decorator.lineno for
                                                 decorator in
                                                 node.decorator_list])
                    found[(path, first, node.name)] = \
                        node.end_lineno - first + 1
    return found


def pytest_configure(config) -> None:
    _state["dir"] = tempfile.mkdtemp(prefix="never-entered-")
    os.register_at_fork(after_in_child=_after_fork_in_child)
    multiprocessing.util.register_after_fork(_ANCHOR, _register_dump)
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_sessionfinish(session, exitstatus) -> None:
    sys.settrace(None)
    threading.settrace(None)
    entered = _entered()
    for name in os.listdir(_state["dir"]):
        with open(os.path.join(_state["dir"], name)) as handle:
            entered.update(tuple(key) for key in json.load(handle))
    shutil.rmtree(_state["dir"], ignore_errors=True)
    defined = defined_functions()
    missed = sorted(key for key in defined if key not in entered)
    with open(BASELINE) as handle:
        baseline = int(handle.read().split()[0])
    _state["report"] = "\n".join(
        ["%s:%d %s (%d lines)" % (os.path.relpath(path, ROOT), line, name,
                                  defined[(path, line, name)])
         for path, line, name in missed]
        + ["%d of %d functions under src/repro never entered (%d lines); "
           "baseline %d" % (len(missed), len(defined),
                            sum(defined[key] for key in missed), baseline)])
    if len(missed) > baseline:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter) -> None:
    if "report" in _state:
        terminalreporter.section("never-entered functions")
        terminalreporter.write_line(_state["report"])
